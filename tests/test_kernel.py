"""Weighted kernel, boundary-data model, quadrature operator, CSV round-trip."""

import csv
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskpoisson import kernel
from diskpoisson.kernel import (
    AlphaParam,
    BoundaryData,
    QuadSpec,
    ResolutionWarning,
    _circle_spectra,
    _grid_kernel,
    _half_angle_sin2,
    _point_values,
    _uniform_thetas,
    as_alpha,
    boundary_derivative,
    c_alpha,
    circle_poisson_values,
    poisson_integral,
    radial_grid,
    read_boundary_csv,
    write_boundary_csv,
)
from diskpoisson.derivs import deriv_field, dr_f, dz_dzbar_f
from diskpoisson.norms import KernelQuantity, hardy_norm
from diskpoisson.regimes import check_angular_derivative_bound
from diskpoisson.specfun import hyp2f1
from identities import harmonic_sums, kernel_K, mirror

# mpmath, 40 digits: gamma(1+a/2)^2 / gamma(1+a).
C_ALPHA_CASES = [
    (-0.9, 0.27454202327025196),
    (-0.5, 0.847213084793979),
    (0.0, 1.0),
    (1.0, 0.7853981633974483),
    (2.0, 0.5),
    (5.0, 0.09203884727313848),
]

KERNEL_CASES = [
    (0.0, 0.5 + 0.0j, 3.0),
    (1.0, 0.5 + 0.0j, 3.5342917352885173),
    (-0.5, 0.3 + 0.4j, 1.013533875659812),
]


def harmonic_mix(thetas):
    e = np.exp(1j * np.asarray(thetas, dtype=float))
    return e + 0.3 * e**-2 + 0.7


def harmonic_mix_deriv(thetas):
    e = np.exp(1j * np.asarray(thetas, dtype=float))
    return 1j * e - 0.6j * e**-2


class TestNormalizer:
    @pytest.mark.parametrize("alpha,want", C_ALPHA_CASES)
    def test_frozen_values(self, alpha, want):
        assert c_alpha(alpha) == pytest.approx(want, rel=1e-12)

    def test_harmonic_normalizer_is_exactly_one(self):
        assert c_alpha(0.0) == 1.0

    @pytest.mark.parametrize("alpha", [-1.0, -1.5, -7.0])
    def test_domain(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            c_alpha(alpha)

    def test_overflow_is_named(self):
        # Gamma(1 + a/2)^2 leaves the double range from a ~ 196.15, before Gamma(1 + a)
        # would be reached; past 170 that overflow is refused by name too.
        with pytest.raises(OverflowError, match=r"c_alpha overflows at alpha=200\.0"):
            c_alpha(200.0)
        with pytest.raises(OverflowError, match=r"Gamma\(x\) overflows at x=193\.0"):
            c_alpha(192.0)

    def test_alpha_param_caches_normalizer(self):
        a = AlphaParam(-0.5)
        assert a.c_alpha == c_alpha(-0.5)
        assert as_alpha(a) is a
        assert as_alpha(-0.5) == a


class TestKernel:
    @pytest.mark.parametrize("alpha,z,want", KERNEL_CASES)
    def test_frozen_values(self, alpha, z, want):
        assert kernel_K(alpha, z) == pytest.approx(want, rel=1e-12)

    def test_center_equals_normalizer(self):
        for alpha, want in C_ALPHA_CASES:
            assert kernel_K(alpha, 0j) == pytest.approx(want, rel=1e-14)

    def test_positive_on_disk(self):
        rng = np.random.default_rng(7)
        z = 0.999 * np.sqrt(rng.uniform(size=200)) * np.exp(
            2j * np.pi * rng.uniform(size=200)
        )
        for alpha in (-0.9, -0.5, 0.0, 1.0, 5.0):
            assert np.all(kernel_K(alpha, z) > 0.0)

    def test_rejects_boundary_and_exterior(self):
        for z in (1.0 + 0.0j, 1.2j, np.array([0.5, 1.0j])):
            with pytest.raises(ValueError, match="open disk"):
                kernel_K(0.5, z)

    def test_array_matches_scalar(self):
        z = np.array([0.5 + 0.0j, 0.3 + 0.4j])
        vals = kernel_K(1.0, z)
        assert vals.shape == (2,)
        assert vals[0] == pytest.approx(kernel_K(1.0, 0.5 + 0.0j), rel=1e-15)


SPECTRUM_NODES = (16, 2048, 8192)
SPECTRUM_ALPHAS = (-0.9, -0.5, 0.0, 0.7, 1.0, 2.0)
SPECTRUM_RADII = (0.0, 0.5, 0.99, 0.999, 1.0 - 1e-6)


class TestKernelSpectrum:
    """_circle_spectra builds the kernel spectrum from the half-angle distance and one rfft."""

    @pytest.mark.parametrize("n", SPECTRUM_NODES)
    @pytest.mark.parametrize("alpha", SPECTRUM_ALPHAS)
    def test_matches_complex_fft_of_kernel_K(self, n, alpha):
        # A unit impulse at theta = 0 has fft(F) = 1 in every bin, so the f spectrum is the
        # kernel's own: real, as one rfft of a real, even kernel gives it.
        q = QuadSpec(angular_nodes=n, r_max=1.0 - 1e-6)
        F = BoundaryData.from_samples(_uniform_thetas(n), np.eye(1, n)[0])
        assert np.array_equal(F._spectrum(), np.ones(n, dtype=complex))
        k = np.arange(n)
        for r in SPECTRUM_RADII:
            if alpha == 0.0:  # the Poisson kernel's modes, r^|k|, not the trapezoid's folds
                want = n * r ** np.minimum(k, n - k)
            else:
                want = np.fft.fft(kernel_K(alpha, r * np.exp(1j * F.thetas)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ResolutionWarning)
                (got, d), = _circle_spectra(alpha, F, r, q, ("f",))
            assert d == n
            assert np.all(got.imag == 0.0)
            assert np.max(np.abs(got.real - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("alpha", [-0.5, 0.7, 2.0])
    @pytest.mark.parametrize("r", [0.999, 0.9999])
    def test_half_angle_values_no_farther_from_mpmath(self, alpha, r):
        mpmath = pytest.importorskip("mpmath")
        n = 1024
        thetas = _uniform_thetas(n)
        a = as_alpha(alpha)
        with mpmath.workdps(30):
            rm = mpmath.mpf(r)
            exact = np.array([float(
                a.c_alpha * (1 - rm * rm) ** (alpha + 1)
                * ((1 - rm * mpmath.cos(t)) ** 2 + (rm * mpmath.sin(t)) ** 2)
                ** (-(alpha + 2) / mpmath.mpf(2))) for t in thetas])
        err_half = np.max(np.abs(_grid_kernel(a, r, n) / exact - 1.0))
        err_k = np.max(np.abs(kernel_K(a, r * np.exp(1j * thetas)) / exact - 1.0))
        assert err_half <= err_k

    def test_half_angle_table_is_shared_and_read_only(self):
        table = _half_angle_sin2(2048)
        assert table is _half_angle_sin2(2048)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0
        assert np.array_equal(table, np.sin(0.5 * _uniform_thetas(2048)) ** 2)


BAND_ALPHAS = (-0.9, -0.5, 0.0, 1.0, 2.0, 5.0, 20.0, 100.0)
BAND_RADII = (0.0, 0.3, 0.9, 0.99, 0.998)


def random_boundary(n):
    """Complex samples with a flat spectrum, so that every bin of a circle's spectrum counts."""
    rng = np.random.default_rng(n)
    return BoundaryData.from_samples(_uniform_thetas(n),
                                     rng.standard_normal(n) + 1j * rng.standard_normal(n))


def assert_band_matches_all_nodes(alpha, F, r):
    """The f spectrum, and the one rfft of the J2 kernels, taken on the kernel's own nodes,
    agree with their transforms on all N nodes to 1e-13 of the largest bin; at alpha = 0
    the f spectrum agrees so with the Poisson kernel's modes N r^|k| instead."""
    n, a = F.n_samples, as_alpha(alpha)
    s = kernel._kernel_stride(n, r, alpha)
    assert n % s == 0 and (n // s) % 2 == 0
    q = QuadSpec(angular_nodes=n, r_max=0.999)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        (got, d), = _circle_spectra(a, F, r, q, ("f",))
    kern = _grid_kernel(a, r, n)
    if alpha == 0.0:
        k = np.arange(n)
        want = n * r ** np.minimum(k, n - k) * F._spectrum()
    else:
        want = mirror(np.fft.rfft(kern).real, n) * F._spectrum()
    assert d == n
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (alpha, r, s)
    j2 = ((1.0 - r) + 2.0 * r * _half_angle_sin2(n) + r * kernel._grid_sin(n)) * kern
    want = np.fft.rfft(j2)
    got = kernel._band_rfft(j2[::s], n)  # the half band: the bins above it are 0
    want_band, want_above = want[:len(got)], want[len(got):]
    assert np.max(np.abs(got - want_band)) <= 1e-13 * np.max(np.abs(want)), (alpha, r, s)
    assert np.max(np.abs(want_above), initial=0.0) <= 1e-13 * np.max(np.abs(want)), (alpha, r, s)


class TestKernelBand:
    """A circle's kernel is transformed on every s-th node, the fewest that hold its modes."""

    @pytest.mark.parametrize("n", [81920, 6144, 2052, 2050])
    @pytest.mark.parametrize("alpha", BAND_ALPHAS)
    def test_spectrum_matches_all_nodes(self, n, alpha):
        # 6144 and 2052 halve to odd multiples of 2 and 2050 not at all; m stays even.
        # alpha = 100 at r = 0.9 on 6144 nodes is the case a margin without the alpha
        # term misses: it keeps 768 of the modes, 2.7e-12 off.
        F = random_boundary(n)
        for r in BAND_RADII:
            assert_band_matches_all_nodes(alpha, F, r)

    @pytest.mark.parametrize("n, alpha, r", [(81920, 100.0, 0.99), (2048, 0.0, 0.999)])
    def test_every_node_needed_is_bit_for_bit(self, n, alpha, r):
        # (m/2)(1-r) < 72 + 4 max(alpha, 0) at the first halving, so m = N, the transform
        # of all N nodes; at alpha = 0, the modes N r^k on all N/2 + 1 bins.
        assert kernel._kernel_stride(n, r, alpha) == 1
        a, F = as_alpha(alpha), random_boundary(n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            (got, _), = _circle_spectra(a, F, r, QuadSpec(angular_nodes=n), ("f",))
        if alpha == 0.0:
            half = n * r ** np.arange(n // 2 + 1)
        else:
            half = np.fft.rfft(_grid_kernel(a, r, n)).real
        assert np.array_equal(got, mirror(half, n) * F._spectrum())

    def test_no_table_cached_per_kernel_grid(self):
        n = 81920
        F = BoundaryData.from_function(harmonic_mix, n, deriv=harmonic_mix_deriv)
        q = QuadSpec(angular_nodes=n, r_max=0.999)
        quantities = ("f", "dtheta", "rdr", "dr", "dz", "dzbar")
        tables = (_half_angle_sin2, kernel._grid_sin, _uniform_thetas)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            _circle_spectra(0.0, F, 0.5, q, quantities)  # the N-node tables
            before = [t.cache_info() for t in tables]
            for alpha in BAND_ALPHAS:
                for r in BAND_RADII:
                    _circle_spectra(alpha, F, r, q, quantities)
        for table, info in zip(tables, before):
            now = table.cache_info()
            assert (now.misses, now.currsize) == (info.misses, info.currsize), table


class TestOrigin:
    """At r = 0 a derivative's spectrum is the operator's limit, read like any other."""

    @pytest.mark.parametrize("n", [16, 1000, 2048, 2052])
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.7])
    def test_power_and_points_read_the_origin_spectrum(self, n, alpha):
        # The p = 2 power is the sum over the bins of |S_m|^2 = Re^2 + Im^2, bit for bit,
        # and df/dtheta and r df/dr at the origin are 0.
        a, F = as_alpha(alpha), random_boundary(n)
        q = QuadSpec(angular_nodes=n)
        for name in ("dr", "dz", "dzbar"):
            (spec, d), = _circle_spectra(a, F, 0.0, q, (name,))
            want = float(np.sum(spec.real ** 2 + spec.imag ** 2))
            assert kernel._circle_power(a, F, 0.0, q, name) == (want, d), name
        for theta in (0.0, 0.3, 2.0, -1.7):
            _, dth, rdr = kernel._band_point(a, F, 0.0, theta, q, ("f", "dtheta", "rdr"))
            assert dth == 0.0 and rdr == 0.0, theta


class TestBoundaryData:
    def test_from_function_grid(self):
        F = BoundaryData.from_function(harmonic_mix, 32)
        assert F.n_samples == 32
        assert F.thetas[0] == 0.0
        assert np.allclose(np.diff(F.thetas), 2.0 * np.pi / 32)

    def test_node_count_validation(self):
        for n in (15, 17, 8):
            with pytest.raises(ValueError, match="even node count"):
                BoundaryData.from_function(harmonic_mix, n)

    def test_length_mismatch(self):
        thetas = 2.0 * np.pi * np.arange(16) / 16
        with pytest.raises(ValueError, match="mismatch"):
            BoundaryData(thetas, np.ones(17, dtype=complex))

    def test_nonuniform_grid_rejected(self):
        thetas = 2.0 * np.pi * np.arange(16) / 16
        thetas[3] += 1e-6
        with pytest.raises(ValueError, match="uniform"):
            BoundaryData(thetas, np.ones(16, dtype=complex))

    def test_samples_must_match_closed_form(self):
        thetas = 2.0 * np.pi * np.arange(16) / 16
        with pytest.raises(ValueError, match="disagree"):
            BoundaryData(thetas, np.zeros(16, dtype=complex),
                         closed_form=harmonic_mix)

    def test_closed_form_nan_at_a_node_refused(self):
        # NaN compares false against the agreement tolerance; it is refused by name.
        thetas = _uniform_thetas(16)

        def fn(t):
            t = np.asarray(t, dtype=float)
            return np.where(t == 0.0, np.nan, np.exp(1j * t))

        with pytest.raises(ValueError, match="closed form must be finite"):
            BoundaryData(thetas, np.exp(1j * thetas), closed_form=fn)

    def test_resample_identity_and_refinement(self):
        F = BoundaryData.from_function(harmonic_mix, 32, deriv=harmonic_mix_deriv)
        assert F.resample(32) is F
        G = F.resample(64)
        assert G.n_samples == 64
        assert np.allclose(G.values, harmonic_mix(G.thetas))
        assert F.resample(64) is G  # memoized

    def test_resample_sampled_only_rejected(self):
        thetas = 2.0 * np.pi * np.arange(16) / 16
        F = BoundaryData.from_samples(thetas, np.ones(16))
        with pytest.raises(ValueError, match="sampled-only"):
            F.resample(32)


class TestQuadConfig:
    def test_radial_grid_shape(self):
        grid = radial_grid(0.99, 32)
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(0.99, abs=1e-15)
        assert np.all(np.diff(grid) > 0.0)
        # geometric refinement: 1 - r shrinks by a constant factor
        ratios = np.diff(np.log1p(-grid[:-1]))
        assert np.allclose(ratios, ratios[0])

    def test_radial_grid_domain(self):
        with pytest.raises(ValueError, match="r_max"):
            radial_grid(0.9999999)
        with pytest.raises(ValueError, match="nodes"):
            radial_grid(0.9, 1)

    def test_quadspec_defaults(self):
        q = QuadSpec()
        assert q.angular_nodes == 2048
        assert q.radial_grid[0] == 0.0
        assert q.radial_grid[-1] == pytest.approx(q.r_max, abs=1e-15)

    def test_quadspec_validation(self):
        with pytest.raises(ValueError, match="angular_nodes"):
            QuadSpec(angular_nodes=15)
        with pytest.raises(ValueError, match="r_max"):
            QuadSpec(r_max=0.9999999)
        with pytest.raises(ValueError, match="increasing"):
            QuadSpec(radial_grid=np.array([0.0, 0.5, 0.4]))
        with pytest.raises(ValueError, match="exceeds"):
            QuadSpec(r_max=0.5, radial_grid=np.array([0.0, 0.6]))


class TestIntegralOperator:
    def test_constant_reproduced_when_unweighted(self):
        q = QuadSpec()
        c = 2.0 - 3.0j
        F = BoundaryData.from_function(
            lambda th: np.full(len(th), c, dtype=complex), 2048
        )
        for z in (0j, 0.5 + 0.0j, 0.3 - 0.6j, 0.9j):
            assert poisson_integral(0.0, F, z, q) == pytest.approx(c, abs=1e-12)

    def test_constant_radial_profile(self):
        # int over the circle of K_a(r e^{-it}) / 2pi equals
        # c_a 2F1(-a/2, -a/2; 1; r^2): frozen identity of the kernel family.
        q = QuadSpec(angular_nodes=4096)
        one = BoundaryData.from_function(
            lambda th: np.ones(len(th), dtype=complex), 4096
        )
        for alpha in (-0.5, 1.0):
            for r in (0.0, 0.3, 0.6, 0.9):
                got = poisson_integral(alpha, one, r + 0j, q)
                want = c_alpha(alpha) * hyp2f1(-alpha / 2, -alpha / 2, 1.0, r * r)
                assert got.real == pytest.approx(want, rel=1e-10)
                assert abs(got.imag) < 1e-12 * abs(want)

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_unweighted_power_reproduction(self, n):
        q = QuadSpec()
        F = BoundaryData.from_function(lambda th: np.exp(1j * n * th), 2048)
        rng = np.random.default_rng(n)
        z = 0.9 * np.sqrt(rng.uniform(size=20)) * np.exp(
            2j * np.pi * rng.uniform(size=20)
        )
        got = poisson_integral(0.0, F, z, q)
        assert np.max(np.abs(got - z**n)) < 1e-12

    def test_rotation_equivariance(self):
        q = QuadSpec()
        phi0 = 0.7
        F = BoundaryData.from_function(harmonic_mix, 2048)
        F_rot = BoundaryData.from_function(
            lambda th: harmonic_mix(np.asarray(th) + phi0), 2048
        )
        rng = np.random.default_rng(11)
        z = 0.8 * np.sqrt(rng.uniform(size=15)) * np.exp(
            2j * np.pi * rng.uniform(size=15)
        )
        for alpha in (-0.5, 1.0):
            lhs = poisson_integral(alpha, F_rot, z, q)
            rhs = poisson_integral(alpha, F, z * np.exp(1j * phi0), q)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_conjugation_symmetry(self):
        q = QuadSpec()
        F = BoundaryData.from_function(harmonic_mix, 2048)
        F_conj = BoundaryData.from_function(
            lambda th: np.conj(harmonic_mix(th)), 2048
        )
        z = np.array([0.5 + 0.2j, -0.3 + 0.6j, 0.05j])
        for alpha in (-0.5, 0.0, 2.0):
            lhs = poisson_integral(alpha, F_conj, z, q)
            rhs = np.conj(poisson_integral(alpha, F, z, q))
            assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_scalar_and_array_agree(self):
        q = QuadSpec()
        F = BoundaryData.from_function(harmonic_mix, 2048)
        z = np.array([0.1 + 0.2j, 0.7 - 0.1j])
        arr = poisson_integral(0.5, F, z, q)
        assert arr.shape == (2,)
        assert arr[1] == pytest.approx(poisson_integral(0.5, F, z[1], q), rel=1e-15)

    def test_rejects_points_beyond_r_max(self):
        q = QuadSpec(r_max=0.9)
        F = BoundaryData.from_function(harmonic_mix, 2048)
        with pytest.raises(ValueError, match="r_max"):
            poisson_integral(0.0, F, 0.95 + 0.0j, q)

    def test_under_resolution_warns(self):
        q = QuadSpec(angular_nodes=64)
        thetas = 2.0 * np.pi * np.arange(64) / 64
        F = BoundaryData.from_samples(thetas, np.exp(1j * thetas))
        with pytest.warns(ResolutionWarning):
            poisson_integral(0.5, F, 0.995 + 0.0j, q)
        with pytest.warns(ResolutionWarning):
            circle_poisson_values(0.5, F, 0.995, q)
        with warnings.catch_warnings():  # at alpha = 0 both are exact for the samples
            warnings.simplefilter("error", ResolutionWarning)
            assert poisson_integral(0.0, F, 0.995 + 0.0j, q) == pytest.approx(0.995, rel=1e-15)
            circle = circle_poisson_values(0.0, F, 0.995, q)
            assert np.max(np.abs(circle - 0.995 * np.exp(1j * thetas))) <= 1e-15

    def test_circle_sweep_matches_pointwise(self):
        q = QuadSpec()
        F = BoundaryData.from_function(harmonic_mix, 2048)
        r = 0.7
        sweep = circle_poisson_values(-0.5, F, r, q)
        assert sweep.shape == (2048,)
        idx = np.arange(0, 2048, 128)
        pts = r * np.exp(1j * F.thetas[idx])
        direct = poisson_integral(-0.5, F, pts, q)
        assert np.max(np.abs(sweep[idx] - direct)) < 1e-12

    def test_circle_sweep_radius_domain(self):
        q = QuadSpec(r_max=0.9)
        F = BoundaryData.from_function(harmonic_mix, 2048)
        with pytest.raises(ValueError, match="radius"):
            circle_poisson_values(0.0, F, 0.95, q)

    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.floats(min_value=-0.9, max_value=3.0),
        r=st.floats(min_value=0.0, max_value=0.8),
        phi=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    def test_mean_value_bounded_by_sup(self, alpha, r, phi):
        # |K[F](z)| <= sup|F| * K[1](|z|) and K[1] is the constant profile.
        q = QuadSpec(angular_nodes=1024)
        F = BoundaryData.from_function(harmonic_mix, 1024)
        sup = 2.0  # |e^{i t} + 0.3 e^{-2it} + 0.7| <= 2
        z = r * np.exp(1j * phi)
        got = abs(poisson_integral(alpha, F, z, q))
        profile = c_alpha(alpha) * hyp2f1(-alpha / 2, -alpha / 2, 1.0, r * r)
        assert got <= sup * profile + 1e-10



POINT_QUANTITIES = ("f", "dtheta", "rdr")


class TestPointRows:
    """Each point of an array call is summed over its own kernel row."""

    def test_array_call_is_the_scalar_calls(self):
        rng = np.random.default_rng(3)
        z = 0.95 * np.sqrt(rng.uniform(size=40)) * np.exp(2j * np.pi * rng.uniform(size=40))
        z[0] = 0.0
        q = QuadSpec(r_max=0.95)
        sampled = BoundaryData.from_function(harmonic_mix, 2048)
        for F in (BoundaryData.from_function(harmonic_mix, 2048, deriv=harmonic_mix_deriv),
                  BoundaryData.from_samples(sampled.thetas, sampled.values)):
            for alpha in (-0.5, 0.0, 1.5):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", ResolutionWarning)
                    rows = _point_values(alpha, F, z, q, POINT_QUANTITIES)
                    for j, zj in enumerate(z):
                        one = _point_values(alpha, F, zj, q, POINT_QUANTITIES)
                        for got, want in zip(rows, one):
                            assert np.array_equal(got[j], want)

    def test_array_call_memory_is_one_row(self):
        # 30 points at 8192 nodes: a points x nodes matrix is 3.75 MiB per complex temporary
        F = BoundaryData.from_function(harmonic_mix, 8192, deriv=harmonic_mix_deriv)
        q = QuadSpec(r_max=0.9)
        z = 0.9 * np.exp(2j * np.pi * np.arange(30) / 30) * np.linspace(0.1, 1.0, 30)
        _point_values(0.5, F, z[:1], q, POINT_QUANTITIES)  # the memoized derivative
        tracemalloc.start()
        try:
            _point_values(0.5, F, z, q, POINT_QUANTITIES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


class TestOwnSamples:
    """A closed form is swept on its own samples, as its sampled copy is, whatever
    q.angular_nodes says."""

    def test_closed_form_and_sampled_copy_agree_bit_for_bit(self):
        F = BoundaryData.from_function(harmonic_mix, 1024)
        G = BoundaryData.from_samples(F.thetas, F.values)
        q = QuadSpec(angular_nodes=2048, r_max=0.99)
        z = np.array([0.0, 0.3 + 0.4j, -0.8j, 0.99])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            assert np.array_equal(poisson_integral(0.5, F, z, q), poisson_integral(0.5, G, z, q))
            for r in (0.0, 0.5, 0.99):
                assert np.array_equal(circle_poisson_values(0.5, F, r, q),
                                      circle_poisson_values(0.5, G, r, q))
                for name in ("f", "dtheta", "dr", "dz", "dzbar"):
                    got, want = (KernelQuantity(0.5, H, name).circle_values(r, q) for H in (F, G))
                    assert len(got) == 1024 and np.array_equal(got, want)
            fields = [deriv_field(0.5, H, q) for H in (F, G)]
            for attr in ("points", "dtheta", "dr", "dz", "dzbar", "flags"):
                assert np.array_equal(getattr(fields[0], attr), getattr(fields[1], attr),
                                      equal_nan=attr != "flags")
            for H in (F, G):
                assert hardy_norm(KernelQuantity(0.5, H, "f"), 2.0, q).n_nodes == 1024
                assert check_angular_derivative_bound(0.5, H, 2.0, q).params["nodes"] == 1024


HARMONIC_RADII = (0.0, 0.5, 0.99, 0.999, 0.9999, 1.0 - 1e-6)
HARMONIC_QUANTITIES = ("f", "dtheta", "rdr", "dr", "dz", "dzbar")


def decaying_boundary(n):
    """Sampled data whose spectrum decays like 0.995^|k|, with energy in the Nyquist bin."""
    rng = np.random.default_rng(n)
    k = np.fft.fftfreq(n, 1.0 / n)
    spec = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 0.995 ** np.abs(k)
    spec[n // 2] = 0.5
    return BoundaryData.from_samples(_uniform_thetas(n), np.fft.ifft(spec))


def point_quantities(F, z, q):
    """The six quantities at the point z: the pointwise operator's three, df/dr and the
    Wirtinger pair from derivs (df/dr is direction-dependent at the origin, so None)."""
    f, dth, rdr = _point_values(0.0, F, z, q, ("f", "dtheta", "rdr"))
    dz, dzbar = dz_dzbar_f(0.0, F, z, q)
    return {"f": f, "dtheta": dth, "rdr": rdr, "dr": dr_f(0.0, F, z, q) if z != 0.0 else None,
            "dz": dz, "dzbar": dzbar}


class TestHarmonic:
    """At alpha = 0 the kernel's modes are r^|k|: the multipliers are closed forms, and every
    circle and point is the power sum of the samples' spectrum."""

    @pytest.mark.parametrize("n", [16, 1000, 2048])
    def test_multipliers_are_the_poisson_modes(self, n):
        F = random_boundary(n)
        q = QuadSpec(angular_nodes=n, r_max=1.0 - 1e-6)
        for r in HARMONIC_RADII[1:]:
            m = n // kernel._kernel_stride(n, r, 0.0)
            powers = r ** np.arange(m // 2 if m < n else n // 2 + 1)
            kern_hat, (a_hat, b_plus, b_minus) = kernel._circle_multipliers(
                as_alpha(0.0), F, r, q, ("f", "rdr"))
            b_odd = -powers
            b_odd[0] = 0.0
            assert np.array_equal(kern_hat, n * powers)
            assert np.array_equal(a_hat, np.zeros(len(powers)))
            assert np.array_equal(b_plus, b_odd) and np.array_equal(b_minus, -b_odd)

    @pytest.mark.filterwarnings("ignore:top-frequency energy")  # the Nyquist bin, on purpose
    @pytest.mark.parametrize("n", [16, 1000, 2048])
    def test_circles_and_points_are_the_power_sums(self, n):
        # Against harmonic_sums, summed in long double from the signed frequencies: each
        # circle on a subset of its grid angles, each point on and off the grid, both
        # within 1e-13 of the circle's largest value.
        F = decaying_boundary(n)
        q = QuadSpec(angular_nodes=n, r_max=1.0 - 1e-6)
        idx = np.arange(0, n, max(1, n // 64))
        ld = np.longdouble
        grid = 2 * np.arctan2(ld(0), ld(-1)) * idx.astype(ld) / n  # 2 pi j / N in long double
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResolutionWarning)
            for r in HARMONIC_RADII:
                want = harmonic_sums(F, ld(r), grid)
                scales = {name: np.max(np.abs(v)) for name, v in want.items()}
                spectra = _circle_spectra(0.0, F, r, q, HARMONIC_QUANTITIES)
                for name, pair in zip(HARMONIC_QUANTITIES, spectra):
                    got = kernel._invert(*pair)[idx]
                    assert np.max(np.abs(got - want[name])) <= 1e-13 * scales[name], (name, r)
                for theta in (F.thetas[idx[1 % len(idx)]], 0.123, 2.0, -1.7):
                    z = r * np.exp(1j * theta)
                    if abs(z) > r:  # stay within r_max
                        z *= np.nextafter(1.0, 0.0)
                    x, y = ld(z.real), ld(z.imag)
                    want = harmonic_sums(F, np.sqrt(x * x + y * y), np.arctan2(y, x))
                    got = point_quantities(F, z, q)
                    for name in HARMONIC_QUANTITIES:
                        if got[name] is None:
                            continue
                        assert abs(got[name] - want[name][0]) <= 1e-13 * scales[name], (
                            name, r, theta)

    @pytest.mark.filterwarnings("ignore:top-frequency energy")
    @pytest.mark.parametrize("n", [1000, 2052])
    def test_points_on_the_grid_are_the_circle(self, n):
        # At the quarter turns r e^{i theta_j} rounds to a point whose angle is theta_j to
        # rounding; the Nyquist bin enters as (-1)^j on both paths (j = 513 at N = 2052).
        F = decaying_boundary(n)
        q = QuadSpec(angular_nodes=n, r_max=1.0 - 1e-6)
        idx = np.arange(0, n, n // 4)
        for r in (0.5, 0.99, 0.9999, 1.0 - 1e-6):
            circles = [kernel._invert(*pair)
                       for pair in _circle_spectra(0.0, F, r, q, POINT_QUANTITIES)]
            points = _point_values(0.0, F, r * np.exp(1j * F.thetas[idx]), q, POINT_QUANTITIES)
            for circle, got in zip(circles, points):
                assert np.max(np.abs(circle[idx] - got)) <= 1e-13 * np.max(np.abs(circle))

    @pytest.mark.filterwarnings("ignore:top-frequency energy")
    def test_no_grid_kernel_and_no_transform(self, monkeypatch):
        F = decaying_boundary(2048)
        q = QuadSpec(angular_nodes=2048, r_max=0.9999)
        boundary_derivative(F)._spectrum()  # the memoized spectra
        F._spectrum()
        calls = []
        for name in ("fft", "rfft", "irfft"):
            def recording(*args, _name=name, **kwargs):
                calls.append(_name)
            monkeypatch.setattr(np.fft, name, recording)
        monkeypatch.setattr(kernel, "_grid_kernel", lambda *args: calls.append("grid_kernel"))
        for r in (0.0, 0.5, 0.999):
            _circle_spectra(0.0, F, r, q, HARMONIC_QUANTITIES)
            _point_values(0.0, F, r * np.exp(0.3j), q, POINT_QUANTITIES)
        assert calls == []


class TestBoundaryDerivative:
    def test_spectral_derivative_of_power(self):
        n = 64
        thetas = 2.0 * np.pi * np.arange(n) / n
        F = BoundaryData.from_samples(thetas, np.exp(5j * thetas))
        dF = boundary_derivative(F)
        assert np.max(np.abs(dF.values - 5j * np.exp(5j * thetas))) < 1e-10

    def test_closed_form_derivative_passthrough(self):
        F = BoundaryData.from_function(harmonic_mix, 64, deriv=harmonic_mix_deriv)
        dF = boundary_derivative(F)
        assert np.allclose(dF.values, harmonic_mix_deriv(F.thetas))
        assert dF.closed_form is harmonic_mix_deriv

    def test_nyquist_energy_warns(self):
        n = 32
        thetas = 2.0 * np.pi * np.arange(n) / n
        F = BoundaryData.from_samples(thetas, np.cos(16.0 * thetas))
        with pytest.warns(UserWarning, match="alias"):
            boundary_derivative(F)

    def test_computed_once_per_boundary(self):
        F = BoundaryData.from_function(harmonic_mix, 64, deriv=harmonic_mix_deriv)
        assert boundary_derivative(F) is boundary_derivative(F)
        G = BoundaryData.from_samples(F.thetas, F.values)
        assert boundary_derivative(G) is boundary_derivative(G)

    def test_eval_deriv_reads_the_same_derivative(self):
        # Energy in the Nyquist bin: the one derivative path drops it.
        n = 32
        thetas = 2.0 * np.pi * np.arange(n) / n
        F = BoundaryData.from_samples(thetas, np.exp(3j * thetas) + np.cos(16.0 * thetas))
        with pytest.warns(UserWarning, match="alias"):
            want = boundary_derivative(F).values
        assert np.max(np.abs(want - 3j * np.exp(3j * thetas))) < 1e-12


class TestCsvRoundTrip:
    def test_bytes_equal_csv_writer(self, tmp_path):
        # 4100 rows: two full blocks of the writer and a partial one.
        n = 4100
        thetas = _uniform_thetas(n)
        F = BoundaryData.from_samples(thetas, np.exp(1j * thetas) + 1e-300j)
        path = tmp_path / "boundary.csv"
        write_boundary_csv(str(path), F)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["theta", "re", "im"])
        writer.writerows(zip(F.thetas.tolist(), F.values.real.tolist(), F.values.imag.tolist()))
        assert path.read_bytes() == buf.getvalue().encode()

    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 32
        thetas = 2.0 * np.pi * np.arange(n) / n
        values = rng.normal(size=n) + 1j * rng.normal(size=n)
        F = BoundaryData.from_samples(thetas, values)
        path = tmp_path / "boundary.csv"
        write_boundary_csv(str(path), F)
        G = read_boundary_csv(str(path))
        assert np.array_equal(G.thetas, F.thetas)
        assert np.array_equal(G.values, F.values)
        assert G.closed_form is None

    def test_special_values_keep_their_bits(self, tmp_path):
        # BoundaryData holds finite samples only; the table under it keeps nan and inf too.
        specials = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                    -1.7976931348623157e308, 2.2250738585072014e-308, 0.1]
        values = np.array(specials * 2) + 1j * np.array(specials[::-1] * 2)
        F = BoundaryData.from_samples(_uniform_thetas(16), values)
        path = tmp_path / "boundary.csv"
        write_boundary_csv(str(path), F)
        G = read_boundary_csv(str(path))
        assert G.thetas.view(np.int64).tolist() == F.thetas.view(np.int64).tolist()
        assert G.values.view(np.int64).tolist() == F.values.view(np.int64).tolist()
        table = np.array([[0.0, math.nan, math.inf], [-0.0, -math.inf, 5e-324]])
        with open(path, "w", newline="") as fh:
            kernel._write_csv(fh, ("theta", "re", "im"), table.T)
        got, labels = kernel._read_table(str(path), ("theta", "re", "im"), 3)
        assert got.view(np.int64).tolist() == table.view(np.int64).tolist()
        assert labels == []

    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,z\n0.0,1.0,0.0\n")
        with pytest.raises(ValueError, match="header"):
            read_boundary_csv(str(path))
