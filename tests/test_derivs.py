"""Partial derivatives: angular, radial split, Wirtinger pair, field export."""

import csv
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
    circle_derivs,
    deriv_field,
    dr_f,
    dtheta_f,
    dz_dzbar_f,
    read_deriv_csv,
    sine_moment,
    sine_moment_exact,
    write_deriv_csv,
    write_deriv_rows,
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
    poisson_integral,
    read_boundary_csv,
    write_boundary_csv,
)
from diskpoisson.mappings import (
    HypMonomial,
    log_series_boundary,
    log_series_value,
    phase_boundary,
)
from diskpoisson.norms import KernelQuantity
from identities import J2, fd_check, harmonic_sums, kernel_K


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
    def test_second_piece_vanishes_for_unweighted_constant(self, q):
        # alpha = 0 kills the second term; a constant kills the first.
        F = BoundaryData.from_function(
            lambda th: np.full(len(th), 1.0 + 0.0j), 2048,
            deriv=lambda th: np.zeros(len(th), dtype=complex),
        )
        assert abs(J2(0.0, F, 0.5 + 0.2j, q)) < 1e-14
        assert abs(dr_f(0.0, F, 0.5 + 0.2j, q)) < 1e-14

    def test_decomposition_matches_finite_differences(self, q, F_mix):
        h = 1e-4
        for alpha in (-0.5, 0.0, 1.0):
            for z in (0.3 + 0.2j, -0.5 + 0.4j, 0.75j):
                assert fd_check(alpha, F_mix, z, h, q) < 1e-6

    @pytest.mark.filterwarnings("ignore:top-frequency energy")  # the log series' corner
    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    def test_sampled_pieces_are_trapezoid_sums_on_the_samples_nodes(self, alpha, q):
        # f and r df/dr = alpha f + J2 are summed over the same nodes, the samples' own, at
        # an off-grid point: f written out with kernel_K, the reference kernel, and J2 the
        # reference's trapezoid sum.
        # At alpha = 0 the sums are the Poisson kernel's exact ones instead, the power sums
        # of the samples' spectrum.
        Fc = log_series_boundary(2048)
        F = BoundaryData.from_samples(Fc.thetas, Fc.values)
        n = F.n_samples
        for z in (0.99 * np.exp(0.123j), 0.6 * np.exp(-2.0j)):
            if alpha == 0.0:
                x, y = np.longdouble(z.real), np.longdouble(z.imag)
                exact = harmonic_sums(F, np.sqrt(x * x + y * y), np.arctan2(y, x))
                f, dr = exact["f"][0], exact["dr"][0]
            else:
                f = np.sum(kernel_K(alpha, z * np.exp(-1j * _uniform_thetas(n))) * F.values) / n
                dr = (alpha * f + J2(alpha, F, z, q)) / abs(z)
            assert poisson_integral(alpha, F, z, q) == pytest.approx(f, rel=1e-12)
            assert dr_f(alpha, F, z, q) == pytest.approx(dr, rel=1e-11)

    def test_origin_rejected(self, q, F_mix):
        with pytest.raises(ValueError, match="origin"):
            dr_f(0.0, F_mix, 0.0, q)


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

    @pytest.mark.parametrize("alpha", [-0.9, -0.5, -0.1])
    def test_origin_is_the_operators_limit(self, q, alpha):
        # HypMonomial(alpha, 1) has df/dz = 1 and df/dzbar = 0 at z = 0, and the
        # operator's own limit there meets both to rounding.
        dz0, dzbar0 = dz_dzbar_f(alpha, HypMonomial(alpha, 1).boundary(2048), 0.0, q)
        assert abs(dz0 - 1.0) <= 1e-14 and abs(dzbar0) <= 1e-14

    def test_polar_frame_holds_at_its_smallest_radius(self, q, tmp_path):
        # The frame divides an absolute rounding error by z: about 1e-9 relative
        # at |z| = 1e-8, the smallest nonzero radius it takes.
        m = HypMonomial(-0.5, 1)
        path = str(tmp_path / "b41.csv")
        write_boundary_csv(path, m.boundary(2048))
        z = 1e-8 * np.exp(2j)
        dz_c, dzbar_c, _ = m.derivs(z)
        dz_q, dzbar_q = dz_dzbar_f(-0.5, read_boundary_csv(path), z, q)
        assert abs(dz_q / dz_c - 1.0) <= 1e-8
        assert abs(dzbar_q - dzbar_c) <= 1e-8 * abs(dz_c)  # df/dzbar ~ z^2 vanishes here

    @pytest.mark.parametrize("r", [1e-9, 1e-200])
    def test_near_origin_refused_by_name(self, q, F_mix, r):
        message = rf"radius r={r!r} is below 1e-08"
        z = r * np.exp(2j)
        with pytest.raises(ValueError, match=message):
            dz_dzbar_f(-0.5, F_mix, z, q)
        with pytest.raises(ValueError, match=message):
            dr_f(-0.5, F_mix, z, q)
        with pytest.raises(ValueError, match=message):
            deriv_field(-0.5, F_mix, QuadSpec(radial_grid=np.array([0.0, r, 0.5])))
        for quantity in ("dr", "dz", "dzbar"):
            with pytest.raises(ValueError, match=message):
                KernelQuantity(-0.5, F_mix, quantity).circle_values(r, q)

    def test_origin_pair_of_a_sampled_boundary_without_modes_one(self, q, tmp_path):
        # Example 4.3 has no Fourier modes +-1, so its Wirtinger pair vanishes at z = 0.
        path = str(tmp_path / "b43.csv")
        write_boundary_csv(path, log_series_boundary(2048))
        for z in dz_dzbar_f(0.7, read_boundary_csv(path), 0.0, q):
            assert abs(z) <= 1e-15

    def test_no_closed_form_call_once_built(self, q):
        calls = []

        def counted(fn):
            def wrapped(th):
                calls.append(fn)
                return fn(th)
            return wrapped

        F = BoundaryData.from_function(counted(mix), 1024, deriv=counted(dmix))
        F = F.resample(q.angular_nodes)
        dz_dzbar_f(-0.5, F, 0.3 + 0.1j, q)  # the memoized derivative
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
            for got, k in ((1j * _mirror(half.imag, n, -half.imag), k1),
                           (_mirror(half.real, n), k2)):
                want = np.fft.fft(k)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


FUSED_ALPHAS = [-0.9, -0.5, 0.0, 0.7, 1.0, 2.0]
FUSED_RADII = (0.3, 0.9, 0.99, 0.9999, 1.0 - 1e-6)
PARTIALS = ("dr", "dz", "dzbar")


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
            got = list(circle_derivs(alpha, F, r, q))
            got += [KernelQuantity(alpha, F, name).circle_values(r, q) for name in PARTIALS]
            if alpha == 0.0:  # the Poisson kernel's modes r^|k|: power sums of the spectrum
                step = 32
                ld = np.longdouble
                thetas = 2 * np.arctan2(ld(0), ld(-1)) * np.arange(0, 2048, step).astype(ld) / 2048
                exact = harmonic_sums(F, ld(r), thetas)
                got = [g[::step] for g in got]
                wants = [exact[name] for name in ("dtheta", "rdr", "dr", "dz", "dzbar")]
            else:
                dth, rdr, dz, dzbar = unfused_circle(alpha, F, r, q)
                wants = [dth, rdr, rdr / r, dz, dzbar]
            for g, want in zip(got, wants):
                assert np.max(np.abs(g - want)) <= 1e-13 * np.max(np.abs(want))

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
        # K_a commutes with d/dtheta: a circle of df/dtheta is the plain kernel
        # sweep of dF/dt less its mean (bin 0 of its spectrum), to the last bit.
        # At r = 0 it is the operator's limit, exact zeros.
        q = QuadSpec(angular_nodes=512, r_max=0.95)
        F = (BoundaryData.from_samples(F_mix.thetas, F_mix.values) if sampled
             else F_mix.resample(q.angular_nodes))
        dF = boundary_derivative(F)
        mean_free = BoundaryData(dF.thetas, dF.values)
        spectrum = dF._spectrum().copy()
        spectrum[0] = 0.0
        mean_free._derived["spectrum"] = spectrum
        assert not np.any(circle_derivs(-0.5, F, 0.0, q)[0])
        for r in (0.3, 0.6, 0.9):
            dth, _ = circle_derivs(-0.5, F, r, q)
            assert np.array_equal(dth, circle_poisson_values(-0.5, mean_free, r, q))

    def test_corner_derivative_mean_is_taken_as_zero(self, q):
        # Example 4.2's closed-form dF/dt jumps at its corners, so its samples'
        # trapezoid mean is 2.7e-4 at 2048 nodes; the exact mean is 0. Circles of
        # df/dtheta then have mean 0, and the circle and pointwise operators agree.
        F = phase_boundary(2048)
        idx = np.arange(0, 2048, 256)
        for r in (0.05, 0.5, 0.9):
            dth, dz, dzbar = (KernelQuantity(0.7, F, name).circle_values(r, q)
                              for name in ("dtheta", "dz", "dzbar"))
            assert abs(np.mean(dth)) <= 1e-15
            zs = r * np.exp(1j * F.thetas[idx])
            assert np.max(np.abs(dtheta_f(0.7, F, zs, q) - dth[idx])) < 1e-12
            points = np.array([dz_dzbar_f(0.7, F, z, q) for z in zs]).T
            assert np.max(np.abs(points - (dz[idx], dzbar[idx]))) < 1e-12

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
        F = (BoundaryData.from_samples(F_mix.thetas, F_mix.values) if sampled
             else F_mix.resample(q.angular_nodes))
        for r in (0.3, 0.6, 0.9):
            _, rdr = circle_derivs(-0.5, F, r, q)
            assert np.array_equal(KernelQuantity(-0.5, F, "dr").circle_values(r, q), rdr / r)

    def test_dr_quantity_skips_the_dtheta_sweep(self, monkeypatch, F_mix):
        q = QuadSpec(angular_nodes=512, r_max=0.95)
        F = F_mix.resample(q.angular_nodes)
        want = circle_derivs(-0.5, F, 0.6, q)[1] / 0.6
        asked = []
        circle_spectra = kernel._circle_spectra

        def recording(a, F, r, q, quantities):
            asked.append(tuple(quantities))
            return circle_spectra(a, F, r, q, quantities)

        monkeypatch.setattr(norms, "_circle_spectra", recording)
        assert np.array_equal(KernelQuantity(-0.5, F, "dr").circle_values(0.6, q), want)
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
        assert self.caught(lambda: KernelQuantity(0.5, F, "f").circle_values(0.95, q)) == {__file__}

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
        for alpha, r in ((0.5, 0.1), (-0.5, 0.3), (2.0, 0.6)):
            x, wts = leggauss(512)
            t, w = 0.5 * math.pi * (x + 1.0), 0.5 * math.pi * wts
            dist_sq = (1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * t) ** 2
            integral = 2.0 * float(np.sum(w * r * np.sin(t) * dist_sq ** (-0.5 * (alpha + 2.0))))
            want = ((1.0 - r) * (1.0 + r)) ** alpha * integral
            assert sine_moment(alpha, r) == want
        assert calls == [512]

    @pytest.mark.parametrize("alpha", [-0.5, 2.0])
    def test_no_cancellation_near_the_boundary(self, alpha):
        # The same 512-point rule summed by mpmath: 1 - 2r cos t + r^2 and 1 - r r
        # cancelled, 1e-6 off at alpha = 2 and r = 1 - 1e-6.
        mpmath = pytest.importorskip("mpmath")
        r = 1.0 - 1e-6
        t, w = derivs._gauss_legendre_0_pi()
        with mpmath.workdps(40):
            R, a = mpmath.mpf(r), mpmath.mpf(alpha)
            want = 2 * (1 - R * R) ** a * mpmath.fsum(
                wi * R * mpmath.sin(ti) * (1 - 2 * R * mpmath.cos(ti) + R * R) ** (-(a + 2) / 2)
                for ti, wi in zip(map(mpmath.mpf, t.tolist()), map(mpmath.mpf, w.tolist())))
            assert abs(derivs._sine_rule(alpha, r) / want - 1) <= 1e-14

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
        fld = deriv_field(-0.5, F_mix.resample(256), q_small, n_thetas=64)
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


@pytest.fixture(scope="module")
def hyp_field(q):
    # the 4.1 field on 256 angles of the default grid: 16,129 rows, the first
    # the origin, flagged origin_fd with a NaN df/dr
    return deriv_field(-0.5, HypMonomial(-0.5, 1).boundary(), q, n_thetas=256)


def csv_writer_rows(fld: DerivField) -> str:
    """The field's CSV as csv.writer writes it, the reference for write_deriv_rows."""
    columns = [np.abs(fld.points).tolist(), np.mod(np.angle(fld.points), 2.0 * np.pi).tolist()]
    for arr in (fld.dtheta, fld.dr, fld.dz, fld.dzbar):
        columns += [np.real(arr).tolist(), np.imag(arr).tolist()]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(derivs._DERIV_CSV_HEADER)
    writer.writerows(zip(*columns, fld.flags))
    return buf.getvalue()


class TestDerivCsv:
    def test_bytes_equal_csv_writer(self, hyp_field):
        assert hyp_field.flags[0] == FLAG_ORIGIN and math.isnan(hyp_field.dr[0].real)
        assert len(hyp_field.points) == 16129
        buf = io.StringIO()
        write_deriv_rows(buf, hyp_field)
        assert buf.getvalue() == csv_writer_rows(hyp_field)

    def test_flags_quoted_as_csv_writer_quotes_them(self, tmp_path):
        flags = ['a,b', 'say "x"', "two\nlines", "cr\r", "", " lead", "plain"]
        n = len(flags)
        pts = 0.5 * np.exp(1j * np.arange(n))
        fld = DerivField.from_wirtinger(pts, np.ones(n, dtype=complex),
                                        np.zeros(n, dtype=complex), flags)
        buf = io.StringIO()
        write_deriv_rows(buf, fld)
        assert buf.getvalue() == csv_writer_rows(fld)
        path = tmp_path / "flags.csv"
        write_deriv_csv(str(path), fld)
        assert read_deriv_csv(str(path)).flags == flags

    def test_written_in_bounded_memory(self, hyp_field, tmp_path):
        # csv.writer over whole .tolist() columns peaks at 5.3 MiB here; the
        # writer holds one block of rows as Python floats and strings at a time.
        path = tmp_path / "field.csv"
        tracemalloc.start()
        try:
            write_deriv_csv(str(path), hyp_field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

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

    def test_special_values_and_flags_keep_their_bits(self, tmp_path):
        specials = np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324,
                             1.7976931348623157e308])
        n = len(specials)
        pts = 0.5 * np.exp(1j * np.arange(n))
        derivs_ = [np.empty(n, dtype=complex) for _ in range(4)]
        for k, arr in enumerate(derivs_):  # set by part: inf * 1j would make nan
            arr.real, arr.imag = specials, np.roll(specials, k)
        flags = ["", FLAG_ORIGIN, FLAG_UNDER_RESOLVED, 'a "b", c', "", FLAG_NONE]
        fld = DerivField(pts, *derivs_, flags)
        path = tmp_path / "field.csv"
        write_deriv_csv(str(path), fld)
        back = read_deriv_csv(str(path))
        def bits(arr):
            return np.ascontiguousarray(arr).view(np.int64).tolist()

        for got, want in zip((back.dtheta, back.dr, back.dz, back.dzbar), derivs_):
            assert bits(got) == bits(want)
        assert back.flags == flags
        # The points are r (cos theta + i sin theta) of the written r and theta,
        # bit for bit the complex(math.cos(theta), math.sin(theta)) of each row.
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        want = [float(r) * complex(math.cos(float(t)), math.sin(float(t))) for r, t, *_ in rows]
        assert bits(back.points) == bits(want)

    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_deriv_csv(str(path))

    def test_empty_file_named(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        header = ",".join(derivs._DERIV_CSV_HEADER)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: expected header {header}, got None")):
            read_deriv_csv(str(path))

    def test_short_row_named_with_its_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(",".join(derivs._DERIV_CSV_HEADER) + "\n0.5,0.0,1.0\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}, line 2: expected 11 fields r,theta,re_dtheta,im_dtheta,re_dr,"
                "im_dr,re_dz,im_dz,re_dzbar,im_dzbar,flag, got 3")):
            read_deriv_csv(str(path))

    def test_non_numeric_cell_named_with_its_line(self, tmp_path):
        path = tmp_path / "text.csv"
        good = "0.5,0.0" + ",1.0" * 8 + ","
        path.write_text(",".join(derivs._DERIV_CSV_HEADER) + f"\n{good}\n"
                        + good.replace("1.0", "one", 1) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}, line 3: r,theta,re_dtheta,im_dtheta,re_dr,im_dr,re_dz,im_dz,"
                "re_dzbar,im_dzbar must be real numbers, got ['0.5', '0.0', 'one'")):
            read_deriv_csv(str(path))

    @pytest.mark.parametrize("r,theta", [("0.5", "inf"), ("0.5", "nan"), ("inf", "0.0")])
    def test_non_finite_point_named_with_its_file(self, tmp_path, r, theta):
        path = tmp_path / "point.csv"
        path.write_text(",".join(derivs._DERIV_CSV_HEADER) + f"\n{r},{theta}" + ",1.0" * 8 + ",\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: r and theta must be finite")):
            read_deriv_csv(str(path))

    def test_non_finite_derivatives_read_as_written(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text(",".join(derivs._DERIV_CSV_HEADER)
                        + "\n0.5,0.0,0.0,inf,-0.0,nan,-inf,0.0,1.0,-1.0,\n")
        fld = read_deriv_csv(str(path))
        assert (fld.dtheta[0], fld.dz[0], fld.dzbar[0]) == (complex(0.0, math.inf),
                                                             complex(-math.inf, 0.0), 1 - 1j)
        assert math.copysign(1.0, fld.dr[0].real) == -1.0 and math.isnan(fld.dr[0].imag)

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
