"""Circle means, Hardy/Bergman norms, growth probes, pointwise field norms."""

import json
import math
import warnings

import numpy as np
import pytest

from diskpoisson import kernel
from diskpoisson.kernel import (BoundaryData, QuadSpec, ResolutionWarning, _uniform_thetas,
                                radial_grid)
from diskpoisson.mappings import HypMonomial, phase_boundary
from diskpoisson.norms import (
    QUANTITIES,
    STATUS_CONVERGED,
    STATUS_DIVERGING,
    STATUS_LOWER_BOUND,
    GrowthReport,
    KernelQuantity,
    NormEstimate,
    _bergman_value,
    _circle_mean,
    _circle_means,
    _increment_exponent,
    _mean_p,
    _means_p,
    _status_from_tail,
    bergman_norm,
    dfield_norms,
    divergence_probe,
    hardy_norm,
    integral_mean,
    lp_norm_circle,
)


@pytest.fixture(scope="module")
def q():
    return QuadSpec()


@pytest.fixture(scope="module")
def monomial():
    return HypMonomial(-0.5, 1)


class TestCircleMeans:
    def test_lp_norm_plain_array(self):
        g = np.array([3.0, 4.0])
        assert lp_norm_circle(g, 1.0) == pytest.approx(3.5)
        assert lp_norm_circle(g, 2.0) == pytest.approx(math.sqrt(12.5))
        assert lp_norm_circle(g, math.inf) == pytest.approx(4.0)

    def test_lp_norm_boundary_data(self):
        F = BoundaryData.from_function(
            lambda th: np.exp(1j * np.asarray(th)), 64
        )
        for p in (1.0, 2.0, 4.0, math.inf):
            assert lp_norm_circle(F, p) == pytest.approx(1.0, rel=1e-14)

    def test_p_domain(self):
        with pytest.raises(ValueError, match="p must"):
            lp_norm_circle(np.ones(4), 0.5)

    def test_mean_p_neither_overflows_nor_underflows(self):
        # |f|^p would leave the double range in both cases.
        assert _mean_p([1e200] * 4, 2) == 1e200
        assert _mean_p([1e-200] * 4, 3) == 1e-200
        assert _mean_p([0.0, 0.0], 5) == 0.0
        assert math.isnan(_mean_p([1.0, math.nan], 2))

    def test_means_p_serve_every_p_from_one_scaling(self):
        rng = np.random.default_rng(4)
        samples = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        ps = (1.0, 2.0, 3.5, math.inf)
        means = _means_p(samples, ps)
        assert means == [_mean_p(samples, p) for p in ps]
        for p, mean in zip(ps[:-1], means):
            assert mean == pytest.approx(np.mean(np.abs(samples) ** p) ** (1.0 / p), rel=1e-14)
        assert means[-1] == np.max(np.abs(samples))
        assert _means_p(np.zeros(4), ps) == [0.0] * 4

    def test_integral_mean_radius_domain(self):
        with pytest.raises(ValueError, match="radius"):
            integral_mean(np.ones(4), 1.0, 2.0)
        assert integral_mean(np.full(8, 2.0), 0.5, 3.0) == pytest.approx(2.0)


class TestKernelQuantity:
    def test_quantity_validated(self):
        F = BoundaryData.from_function(lambda th: np.ones(len(th), dtype=complex), 32)
        with pytest.raises(ValueError, match="quantity"):
            KernelQuantity(0.0, F, "d2z")

    def test_origin_radial_is_directional(self, q):
        # f(z) = z: df/dr at 0 along direction theta is e^{i theta}.
        F = BoundaryData.from_function(lambda th: np.exp(1j * np.asarray(th)), 2048)
        vals = KernelQuantity(0.0, F, "dr").circle_values(0.0, q)
        thetas = 2.0 * np.pi * np.arange(q.angular_nodes) / q.angular_nodes
        assert np.max(np.abs(vals - np.exp(1j * thetas))) < 1e-8
        dth = KernelQuantity(0.0, F, "dtheta").circle_values(0.0, q)
        assert np.max(np.abs(dth)) == 0.0

    def test_origin_circle_on_the_sampled_grid(self, q):
        # A sampled boundary is swept at its own sample count, the origin included.
        F = phase_boundary(8192)
        F = BoundaryData.from_samples(F.thetas, F.values)
        for r in (0.0, 0.5):
            lengths = {quantity: len(KernelQuantity(0.3, F, quantity).circle_values(r, q))
                       for quantity in QUANTITIES}
            assert set(lengths.values()) == {8192}, (r, lengths)

    def test_circle_values_match_closed_form(self, q):
        m = HypMonomial(-0.5, 1)
        F = m.boundary(2048)
        r = 0.6
        thetas = 2.0 * np.pi * np.arange(q.angular_nodes) / q.angular_nodes
        zs = r * np.exp(1j * thetas)
        dz_c, dzbar_c, dr_c = m.derivs(zs)
        got_dz = KernelQuantity(-0.5, F, "dz").circle_values(r, q)
        got_dr = KernelQuantity(-0.5, F, "dr").circle_values(r, q)
        assert np.max(np.abs(got_dz - dz_c)) < 1e-10
        assert np.max(np.abs(got_dr - dr_c)) < 1e-10


def mix(thetas):
    e = np.exp(1j * np.asarray(thetas, dtype=float))
    return e + 0.3 * e**-2 + 0.7


def dmix(thetas):
    e = np.exp(1j * np.asarray(thetas, dtype=float))
    return 1j * e - 0.6j * e**-2


@pytest.fixture(scope="module")
def boundaries():
    phase = phase_boundary(2048)
    return {"closed_form": BoundaryData.from_function(mix, 2048, deriv=dmix),
            "sampled": BoundaryData.from_samples(phase.thetas, phase.values)}


def random_sampled(n):
    """Sampled-only data with a flat spectrum: every bin, the Nyquist bin too, holds energy."""
    rng = np.random.default_rng(n)
    return BoundaryData.from_samples(_uniform_thetas(n),
                                     rng.standard_normal(n) + 1j * rng.standard_normal(n))


class TestParsevalMeans:
    """At p = 2 a KernelQuantity circle's mean comes from its spectrum, not its values."""

    @pytest.mark.parametrize("data", ["closed_form", "sampled"])
    @pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.7, 2.0])
    def test_matches_the_mean_of_the_circle_values(self, boundaries, data, alpha):
        q = QuadSpec(angular_nodes=2048, r_max=1.0 - 1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            for quantity in QUANTITIES:
                f = KernelQuantity(alpha, boundaries[data], quantity)
                for r in (0.0, 0.3, 0.9, 0.99, 0.9999, 1.0 - 1e-6):
                    want = _mean_p(f.circle_values(r, q), 2.0)
                    assert abs(_circle_mean(f, r, 2.0, q) - want) <= 1e-14 * want, (quantity, r)

    @pytest.mark.parametrize("quantity", QUANTITIES)
    def test_inverse_ffts_only_off_the_spectrum_path(self, monkeypatch, boundaries, quantity):
        # p = 2 inverts no circle, r = 0 included; p = 1 inverts every circle once.
        F = boundaries["sampled"]
        q = QuadSpec(angular_nodes=2048, r_max=0.99, radial_grid=[0.0, 0.5, 0.9, 0.95, 0.99])
        f = KernelQuantity(0.7, F, quantity)
        divergence_probe(f, 1.0, (0.9, 0.95, 0.99), q=q)  # the memoized spectra
        calls = []
        ifft = np.fft.ifft

        def counting_ifft(*args, **kwargs):
            calls.append(1)
            return ifft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", counting_ifft)
        divergence_probe(f, 2.0, (0.9, 0.95, 0.99), q=q)
        assert len(calls) == 0
        calls.clear()
        divergence_probe(f, 1.0, (0.9, 0.95, 0.99), q=q)
        assert len(calls) == 5

    @pytest.mark.parametrize("n", [1000, 2048])
    @pytest.mark.parametrize("alpha", [-0.9, 0.0, 0.7, 5.0])
    def test_half_band_sum_with_energy_in_every_bin(self, n, alpha):
        # A flat spectrum puts energy in the Nyquist bin, which the half band counts once
        # where the kernel needs all N nodes (m = N, L = N/2 + 1) and leaves out where it
        # lives on m < N nodes (L = m/2). N = 1000 halves to m = 500 and 250 only.
        rng = np.random.default_rng(n)
        F = BoundaryData.from_samples(_uniform_thetas(n),
                                      rng.standard_normal(n) + 1j * rng.standard_normal(n))
        assert abs(F._spectrum()[n // 2]) > 1e-3 * np.max(np.abs(F._spectrum()))
        q = QuadSpec(angular_nodes=n, r_max=0.999)
        strides = set()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # resolution, and the derivative's top-band energy
            for r in (0.0, 0.3, 0.6, 0.9, 0.99, 0.999):
                strides.add(kernel._kernel_stride(n, r, alpha))
                for quantity in QUANTITIES:
                    f = KernelQuantity(alpha, F, quantity)
                    want = _mean_p(f.circle_values(r, q), 2.0)
                    assert abs(_circle_mean(f, r, 2.0, q) - want) <= 1e-14 * want, (quantity, r)
        assert 1 in strides and max(strides) > 1, strides

    @pytest.mark.parametrize("quantity", QUANTITIES)
    def test_only_kernel_node_rffts_at_banded_radii(self, monkeypatch, quantity):
        # At p = 2 a circle of a boundary with memoized spectra transforms nothing of
        # length N: one rfft of the kernel on its m < N nodes, and one more of the J2
        # kernels on the same nodes for a partial off the origin; no inverse transform, and
        # no spectrum mirrored to N bins. A derivative at the origin reads no kernel, so
        # none is transformed there.
        n, alpha = 8192, 0.7
        F = random_sampled(n)
        q = QuadSpec(angular_nodes=n, r_max=0.9, radial_grid=[0.0, 0.3, 0.5, 0.7, 0.8, 0.9])
        cutoffs = (0.7, 0.8, 0.9)
        f = KernelQuantity(alpha, F, quantity)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = divergence_probe(f, 2.0, cutoffs, q=q)  # the memoized spectra and powers
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fftn", "ifftn"):
            def recording(x, *args, _name=name, _fn=getattr(np.fft, name), **kwargs):
                calls.append((_name, len(x)))
                return _fn(x, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, recording)
        monkeypatch.setattr(kernel, "_mirror", lambda *args: calls.append(("_mirror",)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = divergence_probe(f, 2.0, cutoffs, q=q)
        assert got == want
        per_circle = 1 if quantity in ("f", "dtheta") else 2
        sizes = [n // kernel._kernel_stride(n, r, alpha) for r in q.radial_grid
                 for _ in range(per_circle if r > 0.0 else int(quantity == "f"))]
        assert max(sizes) < n
        assert calls == [("rfft", m) for m in sizes]

    @pytest.mark.parametrize("quantity", QUANTITIES)
    def test_harmonic_probe_builds_no_kernel(self, monkeypatch, quantity):
        # At alpha = 0 the multipliers are the Poisson kernel's modes r^|k| in closed form: a
        # p = 2 probe evaluates no grid kernel and transforms nothing.
        n = 8192
        F = random_sampled(n)
        q = QuadSpec(angular_nodes=n, r_max=0.999, radial_grid=radial_grid(0.999, 24))
        cutoffs = (0.9, 0.99, 0.999)
        f = KernelQuantity(0.0, F, quantity)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the derivative's top-band energy
            want = divergence_probe(f, 2.0, cutoffs, q=q)  # the memoized spectra and powers
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fftn", "ifftn"):
            def recording(x, *args, _name=name, _fn=getattr(np.fft, name), **kwargs):
                calls.append((_name, len(x)))
                return _fn(x, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, recording)
        monkeypatch.setattr(kernel, "_grid_kernel", lambda *args: calls.append(("_grid_kernel",)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing warns: the sums are exact for the samples
            assert divergence_probe(f, 2.0, cutoffs, q=q) == want
        assert calls == []

    def test_warnings_equal_the_values_path(self):
        F = HypMonomial(-0.5, 1).boundary(2048)
        q = QuadSpec(angular_nodes=2048, r_max=0.9999)
        f = KernelQuantity(-0.5, F, "f")
        counts = {}
        for p in (1.0, 2.0):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                divergence_probe(f, p, (0.99, 0.999, 0.9999), q=q)
            counts[p] = sum(issubclass(w.category, ResolutionWarning) for w in seen)
        assert counts[2.0] == counts[1.0] > 0


class TestHardyNorm:
    def test_constant_converges(self, q):
        est = hardy_norm(lambda z: np.full(len(z), 2.0 + 1.0j), 2.0, q)
        assert est.value == pytest.approx(abs(2.0 + 1.0j), rel=1e-14)
        assert est.status == STATUS_CONVERGED
        assert est.r_max == pytest.approx(q.r_max)
        assert est.n_nodes == q.angular_nodes

    def test_identity_map_sup(self, q):
        est = hardy_norm(lambda z: z, 2.0, q)
        assert est.value == pytest.approx(q.r_max, rel=1e-14)
        assert est.status != STATUS_DIVERGING

    def test_blowup_detected(self, q):
        est = hardy_norm(lambda z: (1.0 - np.abs(z)) ** -0.5, 1.0, q)
        assert est.status == STATUS_DIVERGING
        assert est.value == pytest.approx((1.0 - q.r_max) ** -0.5, rel=1e-12)


    @pytest.mark.parametrize("quantity", ["f", "dr"])
    def test_status_is_the_probe_verdict(self, q, monomial, quantity):
        # past r_max = 0.99 the status is divergence_probe's over the nested cutoffs,
        # as bergman_norm's and the CLI norm's are
        f = KernelQuantity(-0.5, monomial.boundary(2048), quantity)
        w = 1.0 - q.r_max
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            want = divergence_probe(f, 2.0, (1.0 - 100.0 * w, 1.0 - 10.0 * w, q.r_max),
                                    "hardy", q).status
            assert hardy_norm(f, 2.0, q).status == want

    def test_each_probe_circle_evaluated_once(self):
        # At r_max 0.9999 the cutoffs 0.99 and 0.999 lie off the 64-radius grid: they
        # serve the status alone, and the value is the sup over the grid.
        q = QuadSpec(r_max=0.9999)
        radii = []

        def f(z):
            radii.append(float(np.max(np.abs(z))))
            return z * (1.0 - np.abs(z)) ** -0.6

        est = hardy_norm(f, 2.0, q)
        assert len(radii) == len(set(radii)) == 66
        assert est.value == _circle_means(f, q.radial_grid, 2.0, q)[1].max()
        assert est.status == divergence_probe(f, 2.0, (0.99, 0.999, 0.9999), q=q).status

    @pytest.mark.parametrize("norm", [hardy_norm, bergman_norm])
    def test_n_nodes_is_the_grid_swept(self, q, norm):
        # every boundary is swept at its own sample count, not at q.angular_nodes
        phase = phase_boundary(8192)
        F = BoundaryData.from_samples(phase.thetas, phase.values)
        f = KernelQuantity(0.0, F, "dzbar")
        assert norm(f, 2.0, q).n_nodes == len(f.circle_values(0.5, q)) == 8192
        assert norm(KernelQuantity(0.0, phase, "dzbar"), 2.0, q).n_nodes == phase.n_samples


class TestBergmanNorm:
    def test_constant(self, q):
        est = bergman_norm(lambda z: np.ones(len(z), dtype=complex), 2.0, q)
        # normalized area of the truncated disk: value = r_max^(2/p)
        assert est.value == pytest.approx(q.r_max, rel=1e-12)

    def test_identity_map(self, q):
        est = bergman_norm(lambda z: z, 2.0, q)
        want = q.r_max**2 / math.sqrt(2.0)  # exact truncated-disk value
        assert est.value == pytest.approx(want, rel=2e-3)

    def test_sup_at_p_inf(self, q):
        est = bergman_norm(lambda z: z, math.inf, q)
        assert est.value == pytest.approx(q.r_max, rel=1e-14)

    @pytest.mark.parametrize("r_max,circles", [(0.999, 64), (0.9999, 66), (0.99, 64)])
    def test_each_circle_evaluated_once(self, r_max, circles):
        # At r_max 0.9999 the cutoffs 0.99 and 0.999 lie off the 64-radius grid.
        q = QuadSpec(r_max=r_max)
        radii = []

        def f(z):
            radii.append(float(np.max(np.abs(z))))
            return z * (1.0 - np.abs(z)) ** -0.6

        est = bergman_norm(f, 2.0, q)
        assert len(radii) == len(set(radii)) == circles
        grid_radii, means = _circle_means(f, q.radial_grid, 2.0, q)
        w = 1.0 - r_max
        if r_max > 0.99:
            status = divergence_probe(f, 2.0, [1.0 - 100.0 * w, 1.0 - 10.0 * w, r_max],
                                      kind="bergman", q=q).status
        else:
            status = _status_from_tail(grid_radii, list(means))
        assert est == NormEstimate(value=_bergman_value(grid_radii, means, 2.0), p=2.0,
                                   r_max=float(grid_radii[-1]), n_nodes=q.angular_nodes,
                                   status=status)


class TestIncrementExponent:
    def test_pure_power_recovered_exactly(self):
        w = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        v = 0.3 * w**-0.5
        assert _increment_exponent(1.0 - w, v) == pytest.approx(-0.5, abs=1e-12)

    def test_additive_background_cancelled(self):
        w = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        v = 2.0 + 0.3 * w**-0.5
        assert _increment_exponent(1.0 - w, v) == pytest.approx(-0.5, abs=1e-12)

    def test_flat_values_yield_none(self):
        cuts = np.array([0.9, 0.99, 0.999])
        assert _increment_exponent(cuts, np.ones(3)) is None


class TestDivergenceProbe:
    CUT = (0.9, 0.99, 0.999)

    def test_synthetic_blowup(self, q):
        rep = divergence_probe(
            lambda z: (1.0 - np.abs(z)) ** -0.5, 1.0, self.CUT, kind="hardy", q=q
        )
        assert rep.diverging
        assert rep.status == STATUS_DIVERGING
        assert rep.exponent == pytest.approx(-0.5, abs=0.05)
        assert rep.values == pytest.approx(
            [(1.0 - c) ** -0.5 for c in self.CUT], rel=1e-12
        )

    def test_bounded_function_not_diverging(self, q):
        rep = divergence_probe(
            lambda z: 1.0 / (2.0 - np.abs(z)), 1.0, self.CUT, kind="hardy", q=q
        )
        assert not rep.diverging

    def test_validation(self, q):
        f = lambda z: np.abs(z)
        with pytest.raises(ValueError, match="at least 3"):
            divergence_probe(f, 1.0, (0.5, 0.9), q=q)
        with pytest.raises(ValueError, match="increasing"):
            divergence_probe(f, 1.0, (0.9, 0.9, 0.99), q=q)
        with pytest.raises(ValueError, match="increasing"):
            divergence_probe(f, 1.0, (0.9, 0.99, 0.9999999), q=q)
        with pytest.raises(ValueError, match="kind"):
            divergence_probe(f, 1.0, self.CUT, kind="besov", q=q)

    def test_report_json_round_trip(self, q):
        rep = divergence_probe(
            lambda z: (1.0 - np.abs(z)) ** -1.0, 2.0, self.CUT,
            kind="hardy", q=q, quantity="f", alpha=0.0,
        )
        data = json.loads(rep.to_json())
        assert data["quantity"] == "f"
        assert data["alpha"] == 0.0
        assert data["p"] == 2.0
        assert data["cutoffs"] == list(self.CUT)
        assert data["diverging"] is True
        assert isinstance(data["values"], list)


class TestClosedFormRegressions:
    """Growth probes of the weighted monomial's derivatives, frozen values."""

    CUT = (0.9, 0.99, 0.999)

    def test_radial_derivative_growth(self, monomial, q):
        fn = lambda z: monomial.derivs(z, tol=1e-12)[2]
        rep = divergence_probe(fn, 1.0, self.CUT, kind="hardy", q=q)
        assert rep.values == pytest.approx(
            [2.2788804062542676, 7.335598711327337, 23.761901178121985], rel=1e-9
        )
        assert rep.exponent == pytest.approx(-0.5116710544385903, abs=1e-6)
        assert rep.status == STATUS_DIVERGING

    def test_wirtinger_growth_exponents(self, monomial, q):
        fn_dz = lambda z: monomial.derivs(z, tol=1e-12)[0]
        fn_dzbar = lambda z: monomial.derivs(z, tol=1e-12)[1]
        rep_dz = divergence_probe(fn_dz, 1.0, self.CUT, kind="hardy", q=q)
        rep_dzbar = divergence_probe(fn_dzbar, 1.0, self.CUT, kind="hardy", q=q)
        assert rep_dz.exponent == pytest.approx(-0.49689197861963597, abs=1e-6)
        assert rep_dzbar.exponent == pytest.approx(-0.5271397325642146, abs=1e-6)
        assert rep_dz.status == STATUS_DIVERGING
        assert rep_dzbar.status == STATUS_DIVERGING

    def test_area_integrated_growth_split(self, monomial, q):
        # |df/dzbar| ~ (1-r)^(-1/2): the area integral saturates for p < 2
        # and keeps growing for p >= 2.
        fn = lambda z: monomial.derivs(z, tol=1e-12)[1]
        statuses = {}
        for p in (1.0, 1.5, 2.0, 3.0):
            rep = divergence_probe(fn, p, self.CUT, kind="bergman", q=q)
            statuses[p] = rep.status
        assert statuses[1.0] == STATUS_LOWER_BOUND
        assert statuses[1.5] == STATUS_LOWER_BOUND
        assert statuses[2.0] == STATUS_DIVERGING
        assert statuses[3.0] == STATUS_DIVERGING

    def test_origin_singularity_dropped(self, monomial, q):
        # df/dr of the closed form is NaN at z = 0; the probe drops that
        # circle and still reports boundary growth.
        fn = lambda z: monomial.derivs(z, tol=1e-12)[2]
        rep = divergence_probe(fn, 2.0, self.CUT, kind="hardy", q=q)
        assert rep.diverging
        assert all(math.isfinite(v) for v in rep.values)


class TestDfieldNorms:
    def test_frozen_triple(self):
        norm, l, jac = dfield_norms(np.array([2.0]), np.array([1.0]))
        assert norm[0] == pytest.approx(3.0)
        assert l[0] == pytest.approx(1.0)
        assert jac[0] == pytest.approx(3.0)

    def test_product_identity(self):
        rng = np.random.default_rng(9)
        dz = rng.normal(size=50) + 1j * rng.normal(size=50)
        dzbar = rng.normal(size=50) + 1j * rng.normal(size=50)
        norm, l, jac = dfield_norms(dz, dzbar)
        assert np.allclose(norm * l, np.abs(jac), atol=1e-12)
        assert np.all(norm >= l)


class TestGrowthReport:
    def test_dataclass_round_trip(self):
        rep = GrowthReport(
            quantity="dr", alpha=-0.5, p=1.0,
            cutoffs=[0.9, 0.99, 0.999], values=[1.0, 2.0, 4.0],
            exponent=-0.3, diverging=True, status=STATUS_DIVERGING,
        )
        data = json.loads(rep.to_json())
        assert data == {
            "quantity": "dr", "alpha": -0.5, "p": 1.0,
            "cutoffs": [0.9, 0.99, 0.999], "values": [1.0, 2.0, 4.0],
            "exponent": -0.3, "diverging": True, "status": STATUS_DIVERGING,
        }
