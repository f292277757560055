"""Partial derivatives: angular, radial split, Wirtinger pair, field export."""

import io
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from diskpoisson import derivs, kernel, norms
from diskpoisson.derivs import (
    FLAG_NONE,
    FLAG_ORIGIN,
    FLAG_UNDER_RESOLVED,
    DerivField,
    J1,
    J2,
    circle_derivs,
    deriv_field,
    dr_f,
    dtheta_f,
    dz_dzbar_f,
    fd_check,
    read_deriv_csv,
    sine_moment,
    sine_moment_exact,
    write_deriv_csv,
)
from diskpoisson.kernel import (
    BoundaryData,
    QuadSpec,
    ResolutionWarning,
    _grid_kernel,
    _mirror,
    _uniform_thetas,
    as_alpha,
    boundary_derivative,
    circle_poisson_values,
    kernel_K,
    poisson_integral,
)
from diskpoisson.mappings import (
    HypMonomial,
    log_series_boundary,
    log_series_value,
    phase_boundary,
)
from diskpoisson.norms import KernelQuantity


def mix(thetas):
    e = np.exp(1j * np.asarray(thetas, dtype=float))
    return e + 0.3 * e**-2 + 0.7


def dmix(thetas):
    e = np.exp(1j * np.asarray(thetas, dtype=float))
    return 1j * e - 0.6j * e**-2


@pytest.fixture(scope="module")
def q():
    return QuadSpec()


@pytest.fixture(scope="module")
def F_mix():
    return BoundaryData.from_function(mix, 2048, deriv=dmix)


class TestAngular:
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_unweighted_power(self, n, q):
        # alpha = 0 extends e^{i n t} to z^n, so df/dtheta = i n z^n.
        F = BoundaryData.from_function(
            lambda th: np.exp(1j * n * np.asarray(th)), 2048,
            deriv=lambda th: 1j * n * np.exp(1j * n * np.asarray(th)),
        )
        z = 0.4 * np.exp(1.1j)
        got = dtheta_f(0.0, F, z, q)
        assert got == pytest.approx(1j * n * z**n, rel=1e-12)

    def test_spectral_fallback_matches_closed_form(self, q, F_mix):
        # Sampled-only data goes through the interpolant derivative.
        F_sampled = BoundaryData.from_samples(F_mix.thetas, F_mix.values)
        z = 0.6 * np.exp(0.3j)
        a = -0.5
        assert dtheta_f(a, F_sampled, z, q) == pytest.approx(
            dtheta_f(a, F_mix, z, q), rel=1e-10
        )


class TestRadialSplit:
    def test_first_piece_is_weighted_value(self, q, F_mix):
        z = 0.45 * np.exp(2.0j)
        for alpha in (-0.5, 1.5):
            assert J1(alpha, F_mix, z, q) == pytest.approx(
                alpha * poisson_integral(alpha, F_mix, z, q), rel=1e-14
            )

    def test_second_piece_vanishes_for_unweighted_constant(self, q):
        # alpha = 0 kills the second term; a constant kills the first.
        F = BoundaryData.from_function(
            lambda th: np.full(len(th), 1.0 + 0.0j), 2048,
            deriv=lambda th: np.zeros(len(th), dtype=complex),
        )
        assert abs(J2(0.0, F, 0.5 + 0.2j, q)) < 1e-14

    def test_decomposition_matches_finite_differences(self, q, F_mix):
        h = 1e-4
        for alpha in (-0.5, 0.0, 1.0):
            for z in (0.3 + 0.2j, -0.5 + 0.4j, 0.75j):
                assert fd_check(alpha, F_mix, z, h, q) < 1e-6

    @pytest.mark.filterwarnings("ignore:top-frequency energy")  # the log series' corner
    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    def test_sampled_pieces_are_trapezoid_sums_on_the_samples_nodes(self, alpha, q):
        # J1 and J2 are summed over the same nodes, the samples' own, at an off-grid
        # point: the sums below written out with kernel_K, the reference kernel.
        Fc = log_series_boundary(2048)
        F = BoundaryData.from_samples(Fc.thetas, Fc.values)
        n, dF = F.n_samples, boundary_derivative(F).values
        for z in (0.99 * np.exp(0.123j), 0.6 * np.exp(-2.0j)):
            r, s = abs(z), _uniform_thetas(n) - np.angle(z)
            K = kernel_K(alpha, z * np.exp(-1j * _uniform_thetas(n)))
            f = np.sum(K * F.values) / n
            j2 = -np.sum(2.0 * r * np.sin(s) * K * dF
                         + alpha * (1.0 - r * np.cos(s)) * K * F.values) / (n * (1.0 - r * r))
            assert J2(alpha, F, z, q) == pytest.approx(j2, rel=1e-11, abs=1e-13)
            assert dr_f(alpha, F, z, q) == pytest.approx((alpha * f + j2) / r, rel=1e-11)
            assert J1(alpha, F, z, q) == pytest.approx(alpha * f, rel=1e-12)

    def test_origin_rejected(self, q, F_mix):
        with pytest.raises(ValueError, match="origin"):
            dr_f(0.0, F_mix, 0.0, q)

    def test_fd_check_domain(self, q, F_mix):
        with pytest.raises(ValueError, match="fd_check"):
            fd_check(0.0, F_mix, 0.0, 1e-4, q)
        with pytest.raises(ValueError, match="fd_check"):
            fd_check(0.0, F_mix, 0.999 + 0.0j, 1e-2, q)


class TestWirtinger:
    def test_against_closed_form(self, q):
        m = HypMonomial(-0.5, 1)
        F = m.boundary(2048)
        for z in (0.5 * np.exp(0.7j), 0.25 * np.exp(-2.0j), 0.8 + 0.0j):
            dz_c, dzbar_c, dr_c = m.derivs(z)
            dz_q, dzbar_q = dz_dzbar_f(-0.5, F, z, q)
            assert dz_q == pytest.approx(dz_c, rel=1e-10)
            assert dzbar_q == pytest.approx(dzbar_c, rel=1e-10)
            assert dr_f(-0.5, F, z, q) == pytest.approx(dr_c, rel=1e-10)

    def test_origin_finite_difference(self, q):
        # F(e^{it}) = e^{it} at alpha = 0 extends to f(z) = z.
        F = BoundaryData.from_function(
            lambda th: np.exp(1j * np.asarray(th)), 2048
        )
        dz0, dzbar0 = dz_dzbar_f(0.0, F, 0.0, q)
        assert dz0 == pytest.approx(1.0, abs=1e-9)
        assert abs(dzbar0) < 1e-9

    def test_no_closed_form_call_once_built(self, q):
        calls = []

        def counted(fn):
            def wrapped(th):
                calls.append(fn)
                return fn(th)
            return wrapped

        F = BoundaryData.from_function(counted(mix), 1024, deriv=counted(dmix))
        dz_dzbar_f(-0.5, F, 0.3 + 0.1j, q)  # F on the quadrature grid and its derivative
        calls.clear()
        for z in (0.5 * np.exp(0.7j), 0.25 * np.exp(-2.0j), 0.9 + 0.0j):
            dz_dzbar_f(-0.5, F, z, q)
            dr_f(-0.5, F, z, q)
        assert calls == []

    def test_conjugation_swaps_pair(self, q, F_mix):
        F_conj = BoundaryData.from_function(
            lambda th: np.conj(mix(th)), 2048,
            deriv=lambda th: np.conj(dmix(th)),
        )
        z = 0.55 * np.exp(1.3j)
        for alpha in (-0.5, 1.0):
            dz_c, dzbar_c = dz_dzbar_f(alpha, F_conj, z, q)
            dz_o, dzbar_o = dz_dzbar_f(alpha, F_mix, z, q)
            assert dz_c == pytest.approx(np.conj(dzbar_o), rel=1e-12)
            assert dzbar_c == pytest.approx(np.conj(dz_o), rel=1e-12)


class TestCircleSweep:
    def test_matches_pointwise(self, q, F_mix):
        r = 0.65
        for F in (F_mix, BoundaryData.from_samples(F_mix.thetas, F_mix.values)):
            dth, rdr = circle_derivs(-0.5, F, r, q)
            assert dth.shape == (2048,)
            idx = np.arange(0, 2048, 256)
            for j in idx:
                z = r * np.exp(1j * F.thetas[j])
                assert dth[j] == pytest.approx(dtheta_f(-0.5, F, z, q), rel=1e-10)
                assert rdr[j] == pytest.approx(r * dr_f(-0.5, F, z, q), rel=1e-10)

    def test_radius_domain(self, q, F_mix):
        with pytest.raises(ValueError, match="radius"):
            circle_derivs(0.0, F_mix, 0.9995, q)


def j2_kernels(alpha, r, n):
    """The J2 kernels r sin t K (odd) and ((1-r) + 2r sin^2(t/2)) K (even) on the n-node grid."""
    t = _uniform_thetas(n)
    kern = _grid_kernel(as_alpha(alpha), r, n)
    return r * np.sin(t) * kern, ((1.0 - r) + 2.0 * r * np.sin(0.5 * t) ** 2) * kern


def unfused_circle(alpha, F, r, q):
    """(df/dtheta, r df/dr, df/dz, df/dzbar) on |z| = r, each sum on its own: J1, the two
    J2 correlations and the df/dtheta sweep take complex FFTs of their kernels and one
    inverse FFT each, and the Wirtinger pair comes from the polar frame at r e^{i theta_j}."""
    a = as_alpha(alpha)
    F = F if F.closed_form is None else F.resample(q.angular_nodes)
    n = F.n_samples
    kern_hat = np.fft.fft(_grid_kernel(a, r, n))
    k1, k2 = j2_kernels(alpha, r, n)
    f_hat, df_hat = np.fft.fft(F.values), np.fft.fft(boundary_derivative(F).values)
    w, dt = (1.0 - r) * (1.0 + r), 2.0 * np.pi / n
    dth = np.fft.ifft(kern_hat * df_hat) / n
    j1 = a.alpha * np.fft.ifft(kern_hat * f_hat) / n
    # sum_j g(t_j + theta) k(t_j) over the grid is ifft(fft(g) conj(fft(k))) at theta
    j2 = (-dt / (np.pi * w) * np.fft.ifft(df_hat * np.conj(np.fft.fft(k1)))
          - a.alpha * dt / (2.0 * np.pi * w) * np.fft.ifft(f_hat * np.conj(np.fft.fft(k2))))
    rdr = j1 + j2
    z = r * np.exp(1j * F.thetas)
    return dth, rdr, (rdr - 1j * dth) / (2.0 * z), (rdr + 1j * dth) / (2.0 * np.conj(z))


class TestJ2Spectra:
    @pytest.mark.parametrize("n", [16, 2048, 8192])
    @pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.7, 1.0, 2.0])
    def test_real_ffts_match_complex_ffts(self, n, alpha):
        # k1 is odd and k2 even, both real: one rfft of k1 + k2 holds fft(k2) in its
        # real part and fft(k1)/i in its imaginary part.
        for r in (0.0, 0.5, 0.99, 0.999, 1.0 - 1e-6):
            k1, k2 = j2_kernels(alpha, r, n)
            half = np.fft.rfft(k1 + k2)
            for got, k in ((1j * _mirror(half.imag, odd=True), k1), (_mirror(half.real), k2)):
                want = np.fft.fft(k)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


FUSED_ALPHAS = [-0.9, -0.5, 0.0, 0.7, 1.0, 2.0]
FUSED_RADII = (0.3, 0.9, 0.99, 0.9999, 1.0 - 1e-6)


class TestFusedCircles:
    """A derivative circle is one spectrum and one inverse FFT; it gives the separate sums."""

    @pytest.fixture(scope="class")
    def boundaries(self):
        phase = phase_boundary(2048)
        return {"closed_form": BoundaryData.from_function(mix, 2048, deriv=dmix),
                "sampled": BoundaryData.from_samples(phase.thetas, phase.values)}

    @pytest.mark.parametrize("data", ["closed_form", "sampled"])
    @pytest.mark.parametrize("alpha", FUSED_ALPHAS)
    def test_matches_the_unfused_formula(self, boundaries, data, alpha):
        F = boundaries[data]
        q = QuadSpec(angular_nodes=2048, r_max=1.0 - 1e-6)
        for r in FUSED_RADII:
            dth, rdr, dz, dzbar = unfused_circle(alpha, F, r, q)
            got_dth, got_rdr = circle_derivs(alpha, F, r, q)
            for got, want in ((got_dth, dth), (got_rdr, rdr),
                              (KernelQuantity(alpha, F, "dr").circle_values(r, q), rdr / r),
                              (KernelQuantity(alpha, F, "dz").circle_values(r, q), dz),
                              (KernelQuantity(alpha, F, "dzbar").circle_values(r, q), dzbar)):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_one_inverse_fft_and_one_grid_kernel_per_circle(self, monkeypatch, boundaries):
        F = boundaries["sampled"]
        q = QuadSpec(angular_nodes=2048, r_max=0.99)
        circle_derivs(0.7, F, 0.5, q)  # the memoized derivative and spectra
        calls = []
        ifft, grid_kernel = np.fft.ifft, kernel._grid_kernel

        def counting_ifft(*args, **kwargs):
            calls.append("ifft")
            return ifft(*args, **kwargs)

        def counting_grid_kernel(*args):
            calls.append("grid_kernel")
            return grid_kernel(*args)

        monkeypatch.setattr(np.fft, "ifft", counting_ifft)
        monkeypatch.setattr(kernel, "_grid_kernel", counting_grid_kernel)
        for quantity in ("dr", "dz", "dzbar"):
            calls.clear()
            KernelQuantity(0.7, F, quantity).circle_values(0.9, q)
            assert sorted(calls) == ["grid_kernel", "ifft"], quantity
        calls.clear()
        circle_derivs(0.7, F, 0.9, q)
        assert sorted(calls) == ["grid_kernel", "ifft", "ifft"]


class TestOneSweep:
    @pytest.mark.parametrize("sampled", [False, True])
    def test_dtheta_is_a_sweep_of_the_boundary_derivative(self, sampled, F_mix):
        # K_a commutes with d/dtheta: a circle of df/dtheta is the plain
        # kernel sweep of dF/dt, to the last bit.
        q = QuadSpec(angular_nodes=512, r_max=0.95)
        F = BoundaryData.from_samples(F_mix.thetas, F_mix.values) if sampled else F_mix
        for r in (0.0, 0.3, 0.6, 0.9):
            dth, _ = circle_derivs(-0.5, F, r, q)
            assert np.array_equal(dth, circle_poisson_values(-0.5, boundary_derivative(F), r, q))

    def test_samples_are_transformed_once_per_boundary(self, monkeypatch, F_mix):
        F = BoundaryData.from_samples(F_mix.thetas, F_mix.values)
        q = QuadSpec()
        inputs = []
        fft = np.fft.fft

        def counting_fft(x, *args, **kwargs):
            inputs.append(x)
            return fft(x, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counting_fft)
        dF = boundary_derivative(F)
        for r in (0.1, 0.3, 0.5, 0.7, 0.9):
            circle_derivs(-0.5, F, r, q)
            circle_poisson_values(-0.5, F, r, q)
            KernelQuantity(-0.5, F, "dtheta").circle_values(r, q)
        for G in (F, dF):
            assert sum(np.shares_memory(x, G.values) for x in inputs) == 1

    @pytest.mark.parametrize("sampled", [False, True])
    def test_rdr_helper_is_the_radial_half_of_circle_derivs(self, sampled, F_mix):
        # The dr circle and circle_derivs invert the same fused spectrum.
        q = QuadSpec(angular_nodes=512, r_max=0.95)
        F = BoundaryData.from_samples(F_mix.thetas, F_mix.values) if sampled else F_mix
        for r in (0.3, 0.6, 0.9):
            _, rdr = circle_derivs(-0.5, F, r, q)
            assert np.array_equal(KernelQuantity(-0.5, F, "dr").circle_values(r, q), rdr / r)

    def test_dr_quantity_skips_the_dtheta_sweep(self, monkeypatch, F_mix):
        q = QuadSpec(angular_nodes=512, r_max=0.95)
        want = circle_derivs(-0.5, F_mix, 0.6, q)[1] / 0.6
        asked = []
        circle_spectra = kernel._circle_spectra

        def recording(a, F, r, q, quantities):
            asked.append(tuple(quantities))
            return circle_spectra(a, F, r, q, quantities)

        monkeypatch.setattr(norms, "_circle_spectra", recording)
        assert np.array_equal(KernelQuantity(-0.5, F_mix, "dr").circle_values(0.6, q), want)
        assert asked == [("dr",)]  # no df/dtheta sweep


class TestWarningAttribution:
    """Warnings name the caller's file, not the package line that raised them."""

    def caught(self, fn):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            fn()
        assert seen
        return {w.filename for w in seen}

    def test_resolution_warning_through_kernel_quantity(self):
        F = BoundaryData.from_function(mix, 64, deriv=dmix)
        q = QuadSpec(angular_nodes=64, r_max=0.99)
        assert self.caught(lambda: KernelQuantity(0.0, F, "f").circle_values(0.95, q)) == {__file__}

    def test_alias_warning_through_circle_derivs(self):
        thetas = 2.0 * np.pi * np.arange(32) / 32
        F = BoundaryData.from_samples(thetas, np.cos(16.0 * thetas))
        q = QuadSpec(angular_nodes=32, r_max=0.5)
        assert self.caught(lambda: circle_derivs(0.0, F, 0.5, q)) == {__file__}

    def test_log_series_tail_warning(self):
        assert self.caught(lambda: log_series_value(0.999, n_trunc=16)) == {__file__}


class TestSineMoment:
    @pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 1.0, 2.5])
    @pytest.mark.parametrize("r", [0.0, 0.25, 0.9, 0.99])
    def test_quadrature_matches_closed_form(self, alpha, r):
        got = sine_moment(alpha, r)
        want = sine_moment_exact(alpha, r)
        if r == 0.0:
            assert got == pytest.approx(0.0, abs=1e-14)
            assert want == 0.0
        else:
            assert got == pytest.approx(want, rel=1e-12)

    def test_rule_built_once_per_node_count(self, monkeypatch):
        derivs._gauss_legendre_0_pi.cache_clear()
        calls = []
        leggauss = np.polynomial.legendre.leggauss

        def counting_leggauss(n):
            calls.append(n)
            return leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting_leggauss)
        # Radii within (1-r) 37^2 >= 512, the bound sine_moment resolves.
        for alpha, r in ((0.5, 0.1), (-0.5, 0.3), (2.0, 0.6)):
            x, wts = leggauss(37)
            t, w = 0.5 * math.pi * (x + 1.0), 0.5 * math.pi * wts
            dist_sq = (1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * t) ** 2
            integral = 2.0 * float(np.sum(w * r * np.sin(t) * dist_sq ** (-0.5 * (alpha + 2.0))))
            want = ((1.0 - r) * (1.0 + r)) ** alpha * integral
            assert sine_moment(alpha, r, n=37) == want
        assert calls == [37]

    @pytest.mark.parametrize("alpha", [-0.5, 2.0])
    def test_no_cancellation_near_the_boundary(self, alpha):
        # The same 64-point rule summed by mpmath: 1 - 2r cos t + r^2 and 1 - r r
        # cancelled, 1e-6 off at alpha = 2 and r = 1 - 1e-6 with 512 points.
        mpmath = pytest.importorskip("mpmath")
        r = 1.0 - 1e-6
        t, w = derivs._gauss_legendre_0_pi(64)
        with mpmath.workdps(40):
            R, a = mpmath.mpf(r), mpmath.mpf(alpha)
            want = 2 * (1 - R * R) ** a * mpmath.fsum(
                wi * R * mpmath.sin(ti) * (1 - 2 * R * mpmath.cos(ti) + R * R) ** (-(a + 2) / 2)
                for ti, wi in zip(map(mpmath.mpf, t.tolist()), map(mpmath.mpf, w.tolist())))
            assert abs(derivs._sine_rule(alpha, r, 64) / want - 1) <= 1e-14

    @pytest.mark.parametrize("r", [0.9999, 1.0 - 1e-6])
    def test_refuses_radii_the_rule_cannot_resolve(self, r):
        # Against the closed form the 512-point rule was 4.7e-3 off at r = 0.9999 and
        # 0.98 off at 1 - 1e-6 (alpha 2).
        with pytest.raises(ValueError, match=r"\(1-r\) n\^2 >= 512 .* resolve the kernel peak"):
            sine_moment(2.0, r)

    def test_resolved_up_to_the_stated_radius(self):
        r = 1.0 - 1.0 / 512.0
        for alpha in (-0.9, 0.0, 2.0, 10.0):
            assert sine_moment(alpha, r) == pytest.approx(sine_moment_exact(alpha, r), rel=2e-11)
        with pytest.raises(ValueError, match="resolve"):
            sine_moment(0.0, math.nextafter(r, 1.0))

    def test_refuses_node_counts_past_4096_before_building_the_rule(self):
        # leggauss(n) holds an n x n matrix: 8 TiB at n = 2^20.
        derivs._gauss_legendre_0_pi.cache_clear()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"n must lie in \[1, 4096\]"):
                sine_moment(0.0, 0.5, n=2**20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert derivs._gauss_legendre_0_pi.cache_info().currsize == 0
        with pytest.raises(ValueError, match="4096"):
            sine_moment(0.0, 0.5, n=4097)

    def test_domain(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="r must"):
                sine_moment(0.0, bad)
            with pytest.raises(ValueError, match="r must"):
                sine_moment_exact(0.0, bad)


class TestDerivField:
    def test_grid_shapes_and_flags(self, F_mix):
        q_small = QuadSpec(angular_nodes=256, r_max=0.99,
                           radial_grid=np.array([0.0, 0.3, 0.9, 0.99]))
        fld = deriv_field(-0.5, F_mix, q_small, n_thetas=64)
        # origin contributes one point, other radii 64 each
        assert len(fld.points) == 1 + 3 * 64
        assert fld.flags[0] == FLAG_ORIGIN
        assert math.isnan(fld.dr[0].real)
        r = np.abs(fld.points)
        inner = (r > 0.0) & (r < 0.9)
        assert all(f == FLAG_NONE for f, m in zip(fld.flags, inner) if m)
        # 256 nodes under-resolve r = 0.99 (needs 800)
        outer = np.isclose(r, 0.99)
        assert all(f == FLAG_UNDER_RESOLVED for f, m in zip(fld.flags, outer) if m)
        assert fld.r_max == pytest.approx(0.99)

    def test_divisibility_enforced(self, F_mix, q):
        with pytest.raises(ValueError, match="divide"):
            deriv_field(0.0, F_mix, q, n_thetas=100)

    def test_matches_closed_form_field(self):
        m = HypMonomial(-0.5, 2)
        F = m.boundary(2048)
        q_small = QuadSpec(radial_grid=np.array([0.2, 0.5, 0.8]))
        fld = deriv_field(-0.5, F, q_small, n_thetas=32)
        want = m.field(fld.points)
        assert np.max(np.abs(fld.dz - want.dz)) < 1e-10
        assert np.max(np.abs(fld.dzbar - want.dzbar)) < 1e-10
        assert np.max(np.abs(fld.dr - want.dr)) < 1e-10
        assert np.max(np.abs(fld.dtheta - want.dtheta)) < 1e-10

    def test_array_length_validation(self):
        pts = np.array([0.1 + 0.0j, 0.2 + 0.0j])
        ok = np.zeros(2, dtype=complex)
        with pytest.raises(ValueError, match="point count"):
            DerivField(pts, ok, ok, ok, np.zeros(3, dtype=complex))
        with pytest.raises(ValueError, match="flags"):
            DerivField(pts, ok, ok, ok, ok, flags=["x"])


class TestFromWirtinger:
    def test_polar_identities(self):
        rng = np.random.default_rng(5)
        pts = 0.9 * np.sqrt(rng.uniform(size=40)) * np.exp(
            2j * np.pi * rng.uniform(size=40)
        )
        dz = rng.normal(size=40) + 1j * rng.normal(size=40)
        dzbar = rng.normal(size=40) + 1j * rng.normal(size=40)
        fld = DerivField.from_wirtinger(pts, dz, dzbar)
        want_dth = 1j * (pts * dz - np.conj(pts) * dzbar)
        want_dr = (pts * dz + np.conj(pts) * dzbar) / np.abs(pts)
        assert np.allclose(fld.dtheta, want_dth, atol=1e-14)
        assert np.allclose(fld.dr, want_dr, atol=1e-14)
        assert all(f == FLAG_NONE for f in fld.flags)

    def test_origin_flagged_nan(self):
        fld = DerivField.from_wirtinger(
            np.array([0.0 + 0.0j, 0.5 + 0.0j]),
            np.array([1.0 + 0.0j, 1.0 + 0.0j]),
            np.array([0.0j, 0.0j]),
        )
        assert fld.flags == [FLAG_ORIGIN, FLAG_NONE]
        assert math.isnan(fld.dr[0].real)
        assert fld.dr[1] == pytest.approx(1.0)


class TestDerivCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        m = HypMonomial(-0.5, 1)
        pts = np.concatenate([[0.0 + 0.0j], 0.7 * np.exp(1j * np.linspace(0, 5, 7))])
        fld = m.field(pts)
        path = tmp_path / "field.csv"
        write_deriv_csv(str(path), fld)
        back = read_deriv_csv(str(path))
        assert np.array_equal(back.dtheta, fld.dtheta)
        assert np.array_equal(back.dr, fld.dr, equal_nan=True)
        assert np.array_equal(back.dz, fld.dz)
        assert np.array_equal(back.dzbar, fld.dzbar)
        assert back.flags == fld.flags
        # points are reassembled from (r, theta): exact only up to rounding
        assert np.max(np.abs(back.points - fld.points)) < 1e-15

    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_deriv_csv(str(path))

    def test_empty_file_named(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: unexpected derivative CSV header")):
            read_deriv_csv(str(path))

    def test_short_row_named_with_its_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(",".join(derivs._DERIV_CSV_HEADER) + "\n0.5,0.0,1.0\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}, line 2: expected 11 fields, got 3")):
            read_deriv_csv(str(path))

    def test_non_numeric_cell_named_with_its_line(self, tmp_path):
        path = tmp_path / "text.csv"
        good = "0.5,0.0" + ",1.0" * 8 + ","
        path.write_text(",".join(derivs._DERIV_CSV_HEADER) + f"\n{good}\n"
                        + good.replace("1.0", "one", 1) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}, line 3: every field but the flag")):
            read_deriv_csv(str(path))

    def test_rows_stream(self):
        fld = DerivField.from_wirtinger(
            np.array([0.5 + 0.0j]), np.array([1.0 + 0.0j]), np.array([0.0j])
        )
        buf = io.StringIO()
        from diskpoisson.derivs import write_deriv_rows

        write_deriv_rows(buf, fld)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].startswith("r,theta,re_dtheta")
        assert len(lines) == 2
