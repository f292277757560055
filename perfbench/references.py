"""Reference values that never call diskpoisson.

Two families of exact answers:

* ``HypRef``: the hypergeometric monomial f(z) = E(|z|^2) z^n with
  E(x) = 2F1(-a/2, n-a/2; n+1; x), evaluated with ``mpmath.hyp2f1``.
  Its modulus is constant on every circle, so one mpmath call per radius
  gives a whole sweep.
* ``SeriesRef``: a harmonic function (alpha = 0) given by its Fourier
  coefficients c_k, f(r e^{it}) = sum_k c_k r^|k| e^{ikt}. The log series
  of example 4.3 and the two-slope phase map of example 4.2 are written
  here from their definitions, in plain numpy.

Each reference returns values of one quantity (f, dtheta, dr, dz, dzbar)
either on the N uniform angles of a circle (folding frequencies modulo N,
which is exact at those angles) or at arbitrary points.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

# Terms r^k below this are dropped from a series; the derivative series
# have O(1) coefficients, so the dropped tail is below 1e-17 / (1 - r).
_SERIES_CUTOFF = 1e-17
_DPS = 30  # working precision of the mpmath references


def radial_grid(r_max: float, n: int = 64) -> np.ndarray:
    """Radial nodes 1 - geomspace(1, 1 - r_max, n), the documented grid."""
    return 1.0 - np.geomspace(1.0, 1.0 - r_max, n)


class HypRef:
    """Exact hypergeometric monomial f = E(r^2) r^n e^{int}, by mpmath."""

    def __init__(self, alpha: float, n: int):
        self.alpha = float(alpha)
        self.n = int(n)
        self._profiles: dict = {}

    def _profile(self, r: float):
        """(E(r^2), E'(r^2)) as floats."""
        r = float(r)
        hit = self._profiles.get(r)
        if hit is None:
            a, n = self.alpha, self.n
            with mpmath.workdps(_DPS):
                x = mpmath.mpf(r) ** 2
                e = mpmath.hyp2f1(-a / 2, n - a / 2, n + 1, x)
                # d/dx 2F1(a,b;c;x) = (ab/c) 2F1(a+1,b+1;c+1;x)
                ep = (mpmath.mpf(-a / 2) * (n - a / 2) / (n + 1)
                      * mpmath.hyp2f1(1 - a / 2, n + 1 - a / 2, n + 2, x))
                hit = (float(e), float(ep))
            self._profiles[r] = hit
        return hit

    def radial(self, quantity: str, r: float):
        """(coefficient, frequency): the quantity is coefficient * e^{i freq t} on |z| = r."""
        e, ep = self._profile(r)
        n = self.n
        if quantity == "f":
            return e * r**n, n
        if quantity == "dtheta":
            return 1j * n * e * r**n, n
        if quantity == "dr":
            # d/dr [E(r^2) r^n] = 2 r E' r^n + n E r^(n-1)
            return 2.0 * ep * r ** (n + 1) + n * e * r ** (n - 1), n
        if quantity == "dz":
            # z^n E(z zbar): d/dz = E' zbar z^n + n E z^(n-1)
            return ep * r ** (n + 1) + n * e * r ** (n - 1), n - 1
        if quantity == "dzbar":
            return ep * r ** (n + 1), n + 1
        raise ValueError(quantity)

    def circle(self, quantity: str, r: float, n_angles: int) -> np.ndarray:
        coef, freq = self.radial(quantity, r)
        t = 2.0 * np.pi * np.arange(n_angles) / n_angles
        return coef * np.exp(1j * freq * t)

    def points(self, quantity: str, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        out = np.empty(z.shape, dtype=complex)
        for i, zi in enumerate(z.flat):
            coef, freq = self.radial(quantity, abs(zi))
            out.flat[i] = coef * np.exp(1j * freq * math.atan2(zi.imag, zi.real))
        return out

    def circle_modulus(self, quantity: str, r: float) -> float:
        return abs(self.radial(quantity, r)[0])


class SeriesRef:
    """Harmonic function from its Fourier coefficients c_k (alpha = 0).

    ``coeff(k)`` takes an integer array and returns c_k; ``kmax`` bounds
    the support (None for an infinite series, truncated by r^k).
    """

    def __init__(self, coeff, kmax=None):
        self._coeff = coeff
        self.kmax = kmax
        self._table = np.zeros(1, dtype=complex)  # c_k for k = -K..K
        self._circles: dict = {}

    def coeff(self, k: np.ndarray) -> np.ndarray:
        """c_k, from a table grown to the largest |k| asked for."""
        k = np.asarray(k)
        K = len(self._table) // 2
        need = int(np.max(np.abs(k))) if k.size else 0
        if need > K:
            K = max(need, 2 * K)
            self._table = self._coeff(np.arange(-K, K + 1))
        return self._table[k + K]

    def _terms(self, quantity: str, r: float):
        """(frequencies, weights): the quantity is sum_j w_j e^{i f_j t} on |z| = r."""
        if self.kmax is not None:
            kmax = self.kmax
        elif r == 0.0:
            kmax = 2
        else:
            kmax = int(math.ceil(math.log(_SERIES_CUTOFF) / math.log(r))) + 2
        k = np.arange(-kmax, kmax + 1)
        if quantity in ("f", "dtheta"):
            c = self.coeff(k) * r ** np.abs(k).astype(float)
            return k, (1j * k * c if quantity == "dtheta" else c)
        if quantity == "dr":
            k = k[k != 0]
        elif quantity == "dz":
            k = k[k >= 1]
        elif quantity == "dzbar":
            k = k[k <= -1]
        else:
            raise ValueError(quantity)
        ak = np.abs(k).astype(float)
        w = ak * self.coeff(k) * r ** (ak - 1.0)
        if quantity == "dr":
            return k, w
        return k - np.sign(k), w  # z^(k-1) for dz, zbar^(|k|-1) for dzbar

    def circle(self, quantity: str, r: float, n_angles: int) -> np.ndarray:
        """Values at t_j = 2 pi j / n_angles: frequencies folded modulo n_angles."""
        key = (quantity, float(r), n_angles)
        hit = self._circles.get(key)
        if hit is None:
            freqs, w = self._terms(quantity, key[1])
            bins = np.zeros(n_angles, dtype=complex)
            np.add.at(bins, np.mod(freqs, n_angles), w)
            hit = self._circles[key] = np.fft.ifft(bins) * n_angles
        return hit

    def points(self, quantity: str, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        out = np.empty(z.shape, dtype=complex)
        for i, zi in enumerate(z.flat):
            freqs, w = self._terms(quantity, abs(zi))
            out.flat[i] = np.sum(w * np.exp(1j * freqs * math.atan2(zi.imag, zi.real)))
        return out


def log_series_ref(n_trunc: int) -> SeriesRef:
    """Im(sum_{k=2}^{T} z^k / (k log k)): c_k = 1/(2i k log k), c_{-k} = -c_k."""

    def coeff(k):
        k = np.asarray(k)
        ak = np.abs(k).astype(float)
        out = np.zeros(k.shape, dtype=complex)
        live = (ak >= 2) & (ak <= n_trunc)
        base = 1.0 / (2j * ak[live] * np.log(ak[live]))
        out[live] = np.where(k[live] > 0, base, -base)
        return out

    return SeriesRef(coeff, kmax=n_trunc)


_PHASE_SLOPE_UPPER = (math.pi - 1.0) / math.pi  # theta in [0, pi)
_PHASE_SLOPE_LOWER = (math.pi + 1.0) / math.pi  # theta in [-pi, 0)


def phase_values(thetas) -> np.ndarray:
    """e^{i phi(t)} with phi(0) = 1, slope (pi-1)/pi on [0, pi), (pi+1)/pi on [pi, 2 pi)."""
    t = np.mod(np.asarray(thetas, dtype=float), 2.0 * np.pi)
    phi = np.where(t < np.pi, 1.0 + _PHASE_SLOPE_UPPER * t,
                   1.0 + _PHASE_SLOPE_LOWER * (t - 2.0 * np.pi))
    return np.exp(1j * phi)


def phase_ref() -> SeriesRef:
    """Exact Fourier coefficients of the two-slope phase map, integrated piecewise."""
    b, a = _PHASE_SLOPE_UPPER, _PHASE_SLOPE_LOWER

    def coeff(k):
        k = np.asarray(k, dtype=float)
        upper = (np.exp(1j * (b - k) * np.pi) - 1.0) / (1j * (b - k))   # int_0^pi
        lower = (1.0 - np.exp(-1j * (a - k) * np.pi)) / (1j * (a - k))  # int_-pi^0
        return np.exp(1j) / (2.0 * np.pi) * (upper + lower)

    return SeriesRef(coeff)


def log_series_values(thetas, n_trunc: int) -> np.ndarray:
    """Boundary samples sum_{k=2}^{T} sin(k t) / (k log k), summed directly."""
    t = np.asarray(thetas, dtype=float)
    out = np.zeros(t.shape)
    for k in range(2, n_trunc + 1):
        out += np.sin(k * t) / (k * math.log(k))
    return out


def rel_err(got, ref, scale: float) -> float:
    """Largest |got - ref| over the scale; inf when anything is non-finite."""
    got = np.asarray(got, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    if not np.all(np.isfinite(got)):
        return math.inf
    diff = float(np.max(np.abs(got - ref))) if got.size else 0.0
    if scale <= 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / scale


# --- the norm probes' discretisation, reproduced on exact circle values ----


def lp_mean(samples: np.ndarray, p: float) -> float:
    mags = np.abs(np.asarray(samples))
    if math.isinf(p):
        return float(np.max(mags))
    return float(np.mean(mags**p) ** (1.0 / p))


def probe_values(circle_mean, p: float, cutoffs, r_max: float, kind: str,
                 drop_origin: bool = False) -> list:
    """Norm values at nested cutoffs from exact circle means.

    Radii are the documented radial grid up to the last cutoff plus the
    cutoffs; Hardy takes the running maximum, Bergman the cumulative
    trapezoid of mean^p against 2 r dr, to the power 1/p.
    """
    cut = np.asarray(sorted(float(c) for c in cutoffs))
    base = [r for r in radial_grid(r_max) if r <= cut[-1]]
    radii = np.asarray(sorted(set(base) | set(cut.tolist())))
    if drop_origin:
        radii = radii[radii > 0.0]
    means = np.asarray([circle_mean(float(r)) for r in radii])
    out = []
    if kind == "hardy" or math.isinf(p):
        running = np.maximum.accumulate(means)
        for c in cut:
            out.append(float(running[np.searchsorted(radii, c, side="right") - 1]))
    else:
        g = means**p * 2.0 * radii
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(radii))])
        for c in cut:
            out.append(float(cum[np.searchsorted(radii, c, side="right") - 1] ** (1.0 / p)))
    return out
