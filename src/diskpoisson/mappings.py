"""Closed-form disk mappings used as oracles and divergence witnesses.

Three families:

  * HypMonomial: f(z) = 2F1(-a/2, n-a/2; n+1; |z|^2) z^n, the kernel
    extension of a smooth monomial boundary function. Its Wirtinger and
    radial derivatives have closed hypergeometric forms, and their Hardy
    means blow up like (1-r^2)^a for a in (-1, 0), with Bergman norms
    finite exactly for p < -1/a.

  * phase_boundary / phase_wirtinger: the unimodular boundary function
    e^{i phi(theta)} whose phase has slopes (pi+1)/pi and (pi-1)/pi on the
    two half-circles. Its harmonic extension (a = 0) is a sense-preserving
    homeomorphism whose dilatation tends to 1 at the two phase corners, so
    it is K-quasiregular for no finite K; the boundary derivative has unit
    L^1 norm, making it the sharp test case for the angular-derivative
    bound.

  * log_series_value / log_series_derivs: the real harmonic function
    Im(sum_{n>=2} z^n / (n log n)) whose Jacobian vanishes identically
    while |df/dz| is unbounded, so no ellipticity constant works.

The public evaluators take arbitrary points and sum their power series
term by term (_power_sum; Horner's rule for the log-series boundary). On
m uniform angles of one circle |z| = r the same series is one circle sum,
sum_k c_k r^k e^{i k theta_j}: a length-m inverse FFT of the coefficients
r^k c_k folded mod m (_circle_sum). The report's phase and log-series
circles and the log-series boundary samples on the shared uniform grids
are built that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .specfun import gauss_value, hyp2f1, pochhammer
from .kernel import BoundaryData, _read_only, _uniform_thetas, _warn
from .derivs import DerivField

__all__ = [
    "HypMonomial",
    "phase_boundary",
    "phase_fourier_coeff",
    "phase_wirtinger",
    "phase_field",
    "log_series_value",
    "log_series_derivs",
    "log_series_boundary",
    "log_series_field",
]


def _circle_sum(coeffs: np.ndarray, r: float, m: int) -> np.ndarray:
    """sum_k coeffs[k] r^k e^{i k theta_j} at the m angles theta_j = 2 pi j / m.

    e^{i k theta_j} depends on k mod m only, so the sum is one length-m
    inverse FFT of the terms r^k coeffs[k] folded mod m: O(len(coeffs) +
    m log m) work instead of a power loop over every angle.
    """
    terms = coeffs * float(r) ** np.arange(len(coeffs))
    folded = np.pad(terms, (0, -len(terms) % m)).reshape(-1, m).sum(axis=0)
    return np.fft.ifft(folded, norm="forward")


def _power_sum(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] z^k at the points z, accumulated term by term from k = 0:
    the pointwise twin of _circle_sum."""
    acc = np.zeros_like(z)
    zpow = np.ones_like(z)
    for c in coeffs:
        acc += c * zpow
        zpow *= z
    return acc


def _disk_points(z):
    """(z as a complex array, max |z|), refused unless every point lies in the open disk."""
    z = np.asarray(z, dtype=complex)
    rmax = float(np.max(np.abs(z))) if z.size else 0.0
    if rmax >= 1.0:
        raise ValueError("the power series are summed on the open disk |z| < 1 only")
    return z, rmax


def _grid_size(thetas) -> Optional[int]:
    """m when thetas is the shared uniform grid _uniform_thetas(m), else None."""
    if (isinstance(thetas, np.ndarray) and not thetas.flags.writeable
            and thetas is _uniform_thetas(thetas.size)):
        return thetas.size
    return None


def _unique_map(fn, x: np.ndarray) -> np.ndarray:
    """Apply a cached scalar function over an array via its unique values."""
    uniq, inverse = np.unique(x, return_inverse=True)
    vals = np.array([fn(float(u)) for u in uniq])
    return vals[inverse].reshape(x.shape)


@dataclass(frozen=True)
class HypMonomial:
    """The hypergeometric monomial mapping with parameters alpha in (-1,0), n >= 1."""

    alpha: float
    n: int

    def __post_init__(self) -> None:
        if not -1.0 < self.alpha < 0.0:
            raise ValueError(f"alpha must lie in (-1, 0), got {self.alpha!r}")
        if self.n < 1 or self.n != int(self.n):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")

    def coefficient(self, k: int) -> float:
        """Taylor coefficient of the radial series: f = sum_k a_k |z|^{2k} z^n."""
        a, n = self.alpha, self.n
        return (pochhammer(-a / 2.0, k) * pochhammer(n - a / 2.0, k)
                / (pochhammer(n + 1.0, k) * math.factorial(k)))

    def boundary_constant(self) -> float:
        """Boundary modulus: the hypergeometric series summed at |z| = 1."""
        a, n = self.alpha, self.n
        return gauss_value(-a / 2.0, n - a / 2.0, n + 1.0)

    def e1(self, r, tol: float = 1e-14) -> np.ndarray:
        """Radial profile of the derivative terms: 2F1(1-a/2, n+1-a/2; n+2; r^2)."""
        a, n = self.alpha, self.n
        r = np.asarray(r, dtype=float)
        return _unique_map(lambda x: hyp2f1(1.0 - a / 2.0, n + 1.0 - a / 2.0,
                                            n + 2.0, x, tol), r * r)

    def e2(self, r, tol: float = 1e-14) -> np.ndarray:
        """Radial profile of the value: 2F1(-a/2, n-a/2; n+1; r^2)."""
        a, n = self.alpha, self.n
        r = np.asarray(r, dtype=float)
        return _unique_map(lambda x: hyp2f1(-a / 2.0, n - a / 2.0, n + 1.0, x, tol),
                           r * r)

    def e1_limit(self) -> float:
        """Limit of E1(r) (1-r^2)^{-alpha} as r -> 1, by Gauss summation."""
        a, n = self.alpha, self.n
        return (gauss_value(n + 1.0 + a / 2.0, 1.0 + a / 2.0, n + 2.0))

    def a_coeff(self) -> float:
        """Prefactor alpha (alpha - 2n) / (4 (n+1)) of the E1 derivative terms."""
        a, n = self.alpha, self.n
        return a * (a - 2.0 * n) / (4.0 * (n + 1.0))

    def value(self, z, tol: float = 1e-14):
        """f(z) = 2F1(-a/2, n-a/2; n+1; |z|^2) z^n, valid for |z| <= 1."""
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        if np.any(r > 1.0 + 1e-15):
            raise ValueError("the mapping is defined on the closed disk only")
        out = self.e2(np.minimum(r, 1.0), tol) * z**self.n
        return complex(out) if out.ndim == 0 else out

    def derivs(self, z, tol: float = 1e-14):
        """Closed-form (df/dz, df/dzbar, df/dr) for |z| < 1.

        df/dz = A E1 zbar z^n + n E2 z^{n-1}, df/dzbar = A E1 z^{n+1},
        df/dr = 2 A E1 r z^n + n E2 z^n / r. The Wirtinger pair is written
        in z powers so the origin is regular; df/dr is NaN at z = 0
        (direction-dependent there).
        """
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        if np.any(r >= 1.0):
            raise ValueError("derivatives are evaluated on the open disk only")
        A = self.a_coeff()
        n = self.n
        e1 = self.e1(r, tol)
        e2 = self.e2(r, tol)
        zn = z**n
        dz = A * e1 * np.conj(z) * zn + n * e2 * z ** (n - 1)
        dzbar = A * e1 * z ** (n + 1)
        safe_r = np.where(r > 0.0, r, 1.0)
        dr = np.where(r > 0.0,
                      2.0 * A * e1 * r * zn + n * e2 * zn / safe_r,
                      complex(math.nan, math.nan))
        if z.ndim == 0:
            return complex(dz), complex(dzbar), complex(dr)
        return dz, dzbar, dr

    def boundary(self, n_samples: int = 2048) -> BoundaryData:
        """Boundary data F(e^{i t}) = G e^{i n t} with G the summed series at 1."""
        g = self.boundary_constant()
        n = self.n

        def fn(thetas):
            return g * np.exp(1j * n * np.asarray(thetas))

        def dfn(thetas):
            return 1j * n * g * np.exp(1j * n * np.asarray(thetas))

        return BoundaryData.from_function(fn, n_samples, deriv=dfn)

    def field(self, points, tol: float = 1e-14) -> DerivField:
        """DerivField of the closed-form derivatives at the given points."""
        points = np.asarray(points, dtype=complex)
        dz, dzbar, _ = self.derivs(points, tol)
        return DerivField.from_wirtinger(points, dz, dzbar)


_PHI_SLOPE_RIGHT = (math.pi - 1.0) / math.pi   # on [0, pi)
_PHI_SLOPE_LEFT = (math.pi + 1.0) / math.pi    # on [pi, 2 pi), i.e. [-pi, 0)


def _phase(thetas: np.ndarray) -> np.ndarray:
    t = np.mod(np.asarray(thetas, dtype=float), 2.0 * np.pi)
    upper = t < np.pi
    return np.where(upper,
                    1.0 + t * _PHI_SLOPE_RIGHT,
                    1.0 + (t - 2.0 * np.pi) * _PHI_SLOPE_LEFT)


def _phase_slope(thetas: np.ndarray) -> np.ndarray:
    t = np.mod(np.asarray(thetas, dtype=float), 2.0 * np.pi)
    return np.where(t < np.pi, _PHI_SLOPE_RIGHT, _PHI_SLOPE_LEFT)


def phase_boundary(n_samples: int = 2048) -> BoundaryData:
    """Unimodular boundary function e^{i phi} with a two-slope piecewise phase.

    phi(0) = 1 and phi is continuous with slopes (pi-1)/pi on the upper
    half-circle and (pi+1)/pi on the lower one. The derivative channel
    takes the one-sided value from the right at the two slope corners
    theta = 0 and theta = pi, nodes 0 and n_samples / 2 of every grid.
    """

    def fn(thetas):
        return np.exp(1j * _phase(thetas))

    def dfn(thetas):
        return 1j * _phase_slope(thetas) * np.exp(1j * _phase(thetas))

    return BoundaryData.from_function(fn, n_samples, deriv=dfn)


def phase_fourier_coeff(k) -> np.ndarray:
    """Exact Fourier coefficients c_k of the phase-corner boundary function.

    Piecewise-exponential integration of e^{i phi} e^{-i k theta}; valid for
    any integer k (the slopes are irrational so no resonance occurs).
    """
    k = np.asarray(k, dtype=float)
    a = 1.0 + 1.0 / math.pi
    b = 1.0 - 1.0 / math.pi
    sign = np.where(np.mod(k, 2.0) == 0.0, 1.0, -1.0)
    term_a = (1.0 - sign * np.exp(-1j * (math.pi + 1.0))) / (1j * (a - k))
    term_b = (sign * np.exp(1j * (math.pi - 1.0)) - 1.0) / (1j * (b - k))
    return np.exp(1j) / (2.0 * math.pi) * (term_a + term_b)


# Most series terms: the phase series' k_max and the largest n_trunc the CLI accepts.
_SERIES_TERM_CAP = 2_000_000


def _phase_kmax(rmax: float) -> int:
    """Terms for a geometric tail below double precision at radius rmax: 42/(1-rmax)."""
    return int(min(_SERIES_TERM_CAP, max(64, math.ceil(42.0 / (1.0 - rmax)))))


def _phase_deriv_coeffs(kmax: int):
    """(k c_k, k c_{-k}) for k = 1..kmax: the power-series coefficients of
    df/dz in z^{k-1} and of df/dzbar in zbar^{k-1}."""
    ks = np.arange(1, kmax + 1, dtype=float)
    return phase_fourier_coeff(ks) * ks, phase_fourier_coeff(-ks) * ks


def _phase_circle(r: float, m: int):
    """(df/dz, df/dzbar) of the phase-corner extension at the m uniform angles of
    |z| = r < 1: phase_wirtinger's series, 42/(1-r) terms, as two circle sums."""
    cpos, cneg = _phase_deriv_coeffs(_phase_kmax(r))
    return _circle_sum(cpos, r, m), np.conj(_circle_sum(np.conj(cneg), r, m))


def phase_wirtinger(z):
    """(df/dz, df/dzbar) of the harmonic extension of the phase-corner boundary.

    Power series f = sum_{k>=1} c_k z^k + sum_{k>=1} c_{-k} zbar^k summed
    with exact coefficients over 42/(1-max|z|) terms, so the geometric tail
    is below double precision at the requested radii.
    """
    z, rmax = _disk_points(z)
    cpos, cneg = _phase_deriv_coeffs(_phase_kmax(rmax))
    zf = z.reshape(-1)
    dz = _power_sum(cpos, zf).reshape(z.shape)
    dzbar = _power_sum(cneg, np.conj(zf)).reshape(z.shape)
    if z.ndim == 0:
        return complex(dz), complex(dzbar)
    return dz, dzbar


def phase_field(points) -> DerivField:
    """DerivField of the phase-corner extension at the given points."""
    points = np.asarray(points, dtype=complex)
    dz, dzbar = phase_wirtinger(points)
    return DerivField.from_wirtinger(points, dz, dzbar)


_LOG_TAIL_TOL = 1e-8


def _log_series_tail(r: float, n_trunc: int) -> float:
    if r >= 1.0:
        return math.inf
    m = n_trunc + 1
    return r**m / (m * math.log(m) * (1.0 - r))


def _warn_tail(r: float, n_trunc: int) -> None:
    bound = _log_series_tail(r, n_trunc)
    if bound > _LOG_TAIL_TOL:
        _warn(f"truncation tail bound {bound:.3g} exceeds {_LOG_TAIL_TOL} at "
              f"|z|={r:.6g} with {n_trunc} terms")


@lru_cache(maxsize=64)
def _log_coeffs(n_trunc: int) -> tuple:
    """Power-series coefficients, lowest power first, read-only: those of
    g = sum_{n=2}^{N} z^n / (n log n) and of g' = sum_{n=2}^{N} z^{n-1} / log n."""
    ns = np.arange(2, n_trunc + 1, dtype=float)
    return (_read_only(np.concatenate([np.zeros(2), 1.0 / (ns * np.log(ns))])),
            _read_only(np.concatenate([[0.0], 1.0 / np.log(ns)])))


def _log_series_points(z, n_trunc: int) -> np.ndarray:
    """z as a complex array, refused off the open disk or for n_trunc < 2; warns when
    the truncation tail exceeds _LOG_TAIL_TOL at max |z|."""
    if n_trunc < 2:
        raise ValueError("n_trunc must be at least 2")
    z, rmax = _disk_points(z)
    _warn_tail(rmax, n_trunc)
    return z


def log_series_value(z, n_trunc: int = 4096):
    """Im(sum_{n=2}^{N} z^n / (n log n)), a real harmonic function on the disk.

    Warns when the geometric tail bound |z|^{N+1}/((N+1) log(N+1) (1-|z|))
    exceeds 1e-8.
    """
    z = _log_series_points(z, n_trunc)
    out = _power_sum(_log_coeffs(n_trunc)[0], z.reshape(-1)).imag.reshape(z.shape)
    return float(out) if z.ndim == 0 else out


def log_series_derivs(z, n_trunc: int = 4096):
    """(df/dz, df/dzbar) of the truncated log series; conjugate pair, so J = 0.

    df/dz = (1/2i) sum_{n=2}^{N} z^{n-1} / log n and df/dzbar is its
    conjugate, because the function is real-valued.
    """
    z = _log_series_points(z, n_trunc)
    dz = (_power_sum(_log_coeffs(n_trunc)[1], z.reshape(-1)) / 2j).reshape(z.shape)
    dzbar = np.conj(dz)
    if z.ndim == 0:
        return complex(dz), complex(dzbar)
    return dz, dzbar


def _log_series_circle(r: float, m: int, n_trunc: int):
    """(df/dz, df/dzbar) of the truncated log series at the m uniform angles of
    |z| = r < 1: log_series_derivs as one circle sum of z^{n-1} / log n."""
    _warn_tail(r, n_trunc)
    dz = _circle_sum(_log_coeffs(n_trunc)[1], r, m) / 2j
    return dz, np.conj(dz)


def log_series_boundary(n_samples: int = 2048, n_trunc: Optional[int] = None) -> BoundaryData:
    """Boundary data sum_{n=2}^{N} sin(n theta)/(n log n), truncation alias-free.

    By default N is capped at n_samples/2 - 1 so the samples carry the
    closed form exactly; pass n_trunc to override. On the shared uniform
    grids (every sample set and resample) the series is a circle sum at
    r = 1; other angles use Horner's rule in e^{i theta}.
    """
    if n_trunc is None:
        n_trunc = min(4096, n_samples // 2 - 1)
    # Coefficients of e^{i n theta}, lowest power first; c_0 = c_1 = 0.
    coeffs_f, coeffs_g = _log_coeffs(n_trunc)
    coeffs_df = np.concatenate([[0.0], coeffs_g])

    def series(coeffs, thetas):
        m = _grid_size(thetas)
        if m is not None:
            return _circle_sum(coeffs, 1.0, m)
        return np.polyval(coeffs[::-1], np.exp(1j * np.asarray(thetas, dtype=float)))

    def fn(thetas):
        return series(coeffs_f, thetas).imag + 0j

    def dfn(thetas):
        return series(coeffs_df, thetas).real + 0j

    return BoundaryData.from_function(fn, n_samples, deriv=dfn)


def log_series_field(points, n_trunc: int = 4096) -> DerivField:
    """DerivField of the truncated log series at the given points."""
    points = np.asarray(points, dtype=complex)
    dz, dzbar = log_series_derivs(points, n_trunc)
    return DerivField.from_wirtinger(points, dz, dzbar)
