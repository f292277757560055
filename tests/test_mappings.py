"""Bundled boundary mappings: weighted monomial, phase-corner, log series."""

import math

import numpy as np
import pytest

from diskpoisson.derivs import FLAG_NONE, FLAG_ORIGIN, dz_dzbar_f
from diskpoisson.kernel import QuadSpec, _uniform_thetas, boundary_derivative
from diskpoisson.mappings import (
    HypMonomial,
    _circle_sum,
    _log_series_circle,
    _phase_circle,
    _phase_deriv_coeffs,
    log_series_boundary,
    log_series_derivs,
    log_series_field,
    log_series_value,
    phase_boundary,
    phase_field,
    phase_fourier_coeff,
    phase_wirtinger,
)
from diskpoisson.norms import dfield_norms, lp_norm_circle
from diskpoisson.specfun import gamma


@pytest.fixture(scope="module")
def m():
    return HypMonomial(-0.5, 1)


class TestHypMonomial:
    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            HypMonomial(0.0, 1)
        with pytest.raises(ValueError, match="alpha"):
            HypMonomial(-1.0, 1)
        with pytest.raises(ValueError, match="positive integer"):
            HypMonomial(-0.5, 0)

    def test_series_coefficients(self, m):
        assert m.coefficient(0) == 1.0
        assert m.coefficient(1) == pytest.approx(0.15625, rel=1e-14)

    def test_boundary_constant_frozen(self, m):
        assert m.boundary_constant() == pytest.approx(1.5737874653547954, rel=1e-12)

    def test_value_at_boundary_matches_constant(self, m):
        z = np.exp(0.4j)
        assert m.value(z) == pytest.approx(m.boundary_constant() * z, rel=1e-12)
        with pytest.raises(ValueError, match="closed disk"):
            m.value(1.0001 + 0.0j)

    def test_derivs_against_finite_differences(self, m):
        h = 1e-6
        for z in (0.3 + 0.2j, -0.5 + 0.4j, 0.7j):
            dz_c, dzbar_c, dr_c = m.derivs(z)
            fx = (m.value(z + h) - m.value(z - h)) / (2.0 * h)
            fy = (m.value(z + 1j * h) - m.value(z - 1j * h)) / (2.0 * h)
            assert dz_c == pytest.approx((fx - 1j * fy) / 2.0, abs=1e-8)
            assert dzbar_c == pytest.approx((fx + 1j * fy) / 2.0, abs=1e-8)
            r, th = abs(z), math.atan2(z.imag, z.real)
            e = complex(math.cos(th), math.sin(th))
            fr = (m.value((r + h) * e) - m.value((r - h) * e)) / (2.0 * h)
            assert dr_c == pytest.approx(fr, abs=1e-8)

    def test_origin_behavior(self, m):
        dz0, dzbar0, dr0 = m.derivs(0.0 + 0.0j)
        assert dz0 == pytest.approx(1.0, rel=1e-14)  # n = 1: f ~ z near 0
        assert dzbar0 == 0.0
        assert math.isnan(dr0.real)
        with pytest.raises(ValueError, match="open disk"):
            m.derivs(1.0 + 0.0j)

    def test_value_profile_bounded_by_constant(self, m):
        r = np.linspace(0.0, 0.999, 50)
        e2 = m.e2(r)
        assert np.all(np.diff(e2) > 0.0)
        assert np.all(e2 <= m.boundary_constant() + 1e-12)

    def test_derivative_profile_limit(self, m):
        # E1(r) (1-r^2)^{-alpha} increases to the summed value at r = 1.
        want = m.e1_limit()
        assert want == pytest.approx(3.4518566476056263, rel=1e-12)
        a, n = m.alpha, m.n
        g = (gamma(n + 2.0) * gamma(-a)
             / (gamma(1.0 - a / 2.0) * gamma(n + 1.0 - a / 2.0)))
        assert want == pytest.approx(g, rel=1e-12)
        scaled = [
            float(m.e1(r)) * (1.0 - r * r) ** -a for r in (0.9, 0.99, 0.999)
        ]
        assert scaled == pytest.approx(
            [1.7965520037632954, 2.7159254199076854, 3.187512779042612], rel=1e-10
        )
        assert scaled[0] < scaled[1] < scaled[2] < want

    def test_derivs_on_the_outermost_circle(self, m):
        # On the circle r = 1 - 1e-6 some |z| round one ulp above r; the
        # default tolerance must answer there. The reference takes the same
        # |z|: one ulp of it moves E1 by about 5e-11 this close to 1.
        mpmath = pytest.importorskip("mpmath")
        pts = (1.0 - 1e-6) * np.exp(1j * _uniform_thetas(64))
        dz, dzbar, _ = m.derivs(pts)
        A = m.a_coeff()
        with mpmath.workdps(40):
            for z, r, got_dz, got_dzbar in zip(pts, np.abs(pts), dz, dzbar):
                x = float(r) * float(r)
                e1 = float(mpmath.hyp2f1(1.25, 2.25, 3.0, x))
                e2 = float(mpmath.hyp2f1(0.25, 1.25, 2.0, x))
                assert got_dz == pytest.approx(A * e1 * x + e2, rel=1e-13)
                assert got_dzbar == pytest.approx(A * e1 * z * z, rel=1e-13)

    def test_boundary_data_wiring(self, m):
        F = m.boundary(512)
        g = m.boundary_constant()
        assert np.allclose(F.values, g * np.exp(1j * F.thetas), atol=1e-14)
        dF = boundary_derivative(F)
        assert np.allclose(dF.values, 1j * g * np.exp(1j * F.thetas), atol=1e-14)

    def test_field_wiring(self, m):
        pts = np.array([0.0 + 0.0j, 0.3 + 0.2j, 0.7j])
        fld = m.field(pts)
        dz_c, dzbar_c, _ = m.derivs(pts)
        assert np.array_equal(fld.dz, dz_c)
        assert np.array_equal(fld.dzbar, dzbar_c)
        assert fld.flags == [FLAG_ORIGIN, FLAG_NONE, FLAG_NONE]


class TestPhaseCorner:
    def test_corner_values_and_flags(self):
        F = phase_boundary(2048)
        assert F.values[0] == pytest.approx(np.exp(1j), rel=1e-14)
        assert F.values[1024] == pytest.approx(-1.0 + 0.0j, rel=1e-12)
        # the corners theta = 0 and pi are nodes 0 and n/2, which example 4.2 reports
        assert (F.thetas[0], F.thetas[1024]) == (0.0, pytest.approx(np.pi, abs=1e-15))

    def test_unimodular(self):
        F = phase_boundary(2048)
        assert np.max(np.abs(np.abs(F.values) - 1.0)) < 1e-14

    def test_derivative_slopes(self):
        F = phase_boundary(2048)
        dF = boundary_derivative(F)
        mags = np.abs(dF.values)
        right = (math.pi - 1.0) / math.pi
        left = (math.pi + 1.0) / math.pi
        assert np.allclose(mags[:1024], right, atol=1e-14)
        assert np.allclose(mags[1024:], left, atol=1e-14)
        assert lp_norm_circle(dF, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert lp_norm_circle(dF, math.inf) == pytest.approx(left, rel=1e-14)

    def test_fourier_coefficients_match_fft(self):
        n = 1 << 17
        F = phase_boundary(n)
        fftc = np.fft.fft(F.values) / n
        ks = np.arange(-5, 6)
        exact = phase_fourier_coeff(ks)
        got = np.array([fftc[k % n] for k in ks])
        assert np.max(np.abs(got - exact)) < 1e-9

    def test_wirtinger_matches_quadrature(self):
        # Exact-coefficient series vs the trapezoid pipeline. The corner in
        # the derivative channel makes the quadrature first-order in 1/N,
        # so the agreement tightens as the grid refines.
        z = 0.9 * np.exp(0.8j)
        dz_c, dzbar_c = phase_wirtinger(z)
        errs = []
        for n in (2048, 32768):
            F = phase_boundary(n)
            q = QuadSpec(angular_nodes=n)
            dz_q, dzbar_q = dz_dzbar_f(0.0, F, z, q)
            errs.append(max(abs(dz_q - dz_c), abs(dzbar_q - dzbar_c)))
        assert errs[0] < 5e-4
        assert errs[1] < 3e-5
        assert errs[1] < errs[0] / 5.0

    def test_wirtinger_truncation_settled(self):
        # At moderate radius the default term count is far past the
        # geometric tail: a direct sum of 4096 terms changes nothing.
        z = 0.5 * np.exp(1.3j)
        a = phase_wirtinger(z)
        cpos, cneg = _phase_deriv_coeffs(4096)
        powers = z ** np.arange(4096)
        assert abs(a[0] - np.sum(cpos * powers)) < 1e-14
        assert abs(a[1] - np.sum(cneg * np.conj(powers))) < 1e-14

    def test_domain(self):
        with pytest.raises(ValueError, match="open disk"):
            phase_wirtinger(1.0 + 0.0j)

    def test_field_wiring(self):
        pts = np.array([0.2 + 0.1j, 0.5j])
        fld = phase_field(pts)
        dz, dzbar = phase_wirtinger(pts)
        assert np.array_equal(fld.dz, dz)
        assert np.array_equal(fld.dzbar, dzbar)


class TestLogSeries:
    def test_zero_at_origin_and_on_reals(self):
        assert log_series_value(0.0 + 0.0j) == 0.0
        # real z: every term is real, the imaginary part vanishes
        assert log_series_value(0.5 + 0.0j) == 0.0

    def test_frozen_value(self):
        assert log_series_value(0.4 + 0.3j, 400) == pytest.approx(
            0.21264007325455433, rel=1e-12
        )

    def test_leading_term(self):
        # series starts at n = 2: f ~ Im(z^2) / (2 log 2) near the origin
        z = 0.01 + 0.01j
        want = (z * z).imag / (2.0 * math.log(2.0))
        assert log_series_value(z, 50) == pytest.approx(want, rel=1e-2)

    def test_truncation_settled_inside(self):
        z = 0.9 * np.exp(0.7j)
        assert abs(log_series_value(z, 200) - log_series_value(z, 400)) < 1e-10

    def test_tail_warning_near_boundary(self):
        with pytest.warns(UserWarning, match="tail"):
            log_series_value(0.999 * np.exp(0.3j), 100)
        with pytest.warns(UserWarning, match="tail"):
            log_series_derivs(0.999 * np.exp(0.3j), 100)

    def test_derivs_are_conjugate_pair(self):
        z = np.array([0.3 + 0.2j, -0.6 + 0.1j])
        dz, dzbar = log_series_derivs(z, 400)
        assert np.array_equal(dzbar, np.conj(dz))
        _, _, jac = dfield_norms(dz, dzbar)
        assert np.max(np.abs(jac)) == 0.0

    def test_derivs_against_finite_differences(self):
        z = 0.4 + 0.3j
        dz, _ = log_series_derivs(z, 400)
        h = 1e-6
        fx = (log_series_value(z + h, 400) - log_series_value(z - h, 400)) / (2 * h)
        fy = (log_series_value(z + 1j * h, 400) - log_series_value(z - 1j * h, 400)) / (2 * h)
        assert dz == pytest.approx((fx - 1j * fy) / 2.0, abs=1e-9)

    def test_domain_and_truncation_validation(self):
        with pytest.raises(ValueError, match="n_trunc"):
            log_series_value(0.5j, 1)
        with pytest.raises(ValueError, match="n_trunc"):
            log_series_derivs(0.5j, 1)
        with pytest.raises(ValueError, match="|z| < 1"):
            log_series_value(1.0 + 0.0j)

    def test_boundary_alias_free_default(self):
        F = log_series_boundary(256)
        # default truncation keeps the top frequency below Nyquist
        coeffs = np.fft.fft(F.values) / 256
        assert abs(coeffs[128]) < 1e-14
        # samples are real-valued sine sums
        assert np.max(np.abs(F.values.imag)) < 1e-14
        # spot value: sum sin(n theta)/(n log n) at theta_1
        th = F.thetas[1]
        ns = np.arange(2, 128)
        want = np.sum(np.sin(ns * th) / (ns * np.log(ns)))
        assert F.values[1].real == pytest.approx(want, rel=1e-10)

    def test_boundary_derivative_channel(self):
        F = log_series_boundary(256)
        dF = boundary_derivative(F)
        th = F.thetas[3]
        ns = np.arange(2, 128)
        want = np.sum(np.cos(ns * th) / np.log(ns))
        assert dF.values[3].real == pytest.approx(want, rel=1e-10)

    def test_field_wiring(self):
        pts = np.array([0.1 + 0.4j, -0.2 - 0.2j])
        fld = log_series_field(pts, n_trunc=400)
        dz, dzbar = log_series_derivs(pts, 400)
        assert np.array_equal(fld.dz, dz)
        assert np.array_equal(fld.dzbar, dzbar)


def _circle(r, m=64):
    return r * np.exp(1j * _uniform_thetas(m))


def _rel_to_max(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestCircleSum:
    """The FFT circle sums against the power-series loops and Horner's rule."""

    def test_folds_frequencies_past_the_grid(self):
        rng = np.random.default_rng(5)
        coeffs = rng.normal(size=100) + 1j * rng.normal(size=100)
        r, m = 0.8, 16
        z = _circle(r, m)
        want = np.array([np.sum(coeffs * zj ** np.arange(100)) for zj in z])
        assert _rel_to_max(_circle_sum(coeffs, r, m), want) < 1e-13

    @pytest.mark.parametrize("r", [0.9, 0.99, 0.999])
    def test_phase_circle_matches_phase_wirtinger(self, r):
        got = _phase_circle(r, 64)
        want = phase_wirtinger(_circle(r))
        for g, w in zip(got, want):
            assert _rel_to_max(g, w) <= 1e-12

    @pytest.mark.parametrize("r", [0.9, 0.99, 0.999])
    def test_log_series_circle_matches_log_series_derivs(self, r):
        got = _log_series_circle(r, 64, 50000)
        want = log_series_derivs(_circle(r), 50000)
        for g, w in zip(got, want):
            assert _rel_to_max(g, w) <= 1e-12

    @pytest.mark.parametrize("n", [2048, 32768])
    def test_log_series_boundary_samples_match_horner(self, n, monkeypatch):
        # Samples, derivative samples and resamples lie on shared grids and come
        # from the circle sum; a writable copy of the same angles takes Horner.
        def refuse(*args, **kwargs):
            raise AssertionError("Horner's rule on a shared grid")

        with monkeypatch.context() as patched:
            patched.setattr(np, "polyval", refuse)
            F = log_series_boundary(n)
            dF = boundary_derivative(F)
            F.resample(2 * n)
        thetas = F.thetas.copy()
        assert _rel_to_max(F.values, F.closed_form(thetas)) <= 1e-12
        assert _rel_to_max(dF.values, F.closed_form_deriv(thetas)) <= 1e-12

    def test_criterion_09_dilatation(self):
        # Why criterion 09 fails: on its 64-angle circles the dilatation of
        # the phase-corner extension stays far below 9/11 and 99/101, the
        # levels at which the K = 10 and K = 100 distortion defects appear.
        for r, want in ((0.9, 0.122), (0.99, 0.298), (0.999, 0.473)):
            dz, dzbar = phase_wirtinger(_circle(r))
            assert np.max(np.abs(dzbar / dz)) == pytest.approx(want, abs=1e-3)
            dz, dzbar = _phase_circle(r, 64)
            assert np.max(np.abs(dzbar / dz)) == pytest.approx(want, abs=1e-3)
