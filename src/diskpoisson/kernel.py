"""Weighted Poisson kernel on the unit disk and its quadrature operator.

The kernel K_a(z) = c_a (1-|z|^2)^(a+1) / |1-z|^(a+2) with normalizer
c_a = Gamma(1+a/2)^2 / Gamma(1+a) reproduces a family of disk functions
from boundary data: f(z) = (1/2pi) int K_a(z e^{-it}) F(e^{it}) dt.
This module provides the kernel, the boundary-data model (uniform samples
plus optional closed-form evaluators), quadrature configuration, the
integral operator itself, boundary differentiation, and the one CSV table
reader and writer that boundary and derivative-field files share.

Quadrature is the composite trapezoid rule on the uniform periodic grid,
which is spectrally accurate for smooth integrands. _point_values is the
one pointwise operator: f, df/dtheta and r df/dr at any points, each a dot
product of kernel weights with the samples of F or dF/dtheta. A circle
sweep is the same trapezoid sums at every grid angle at once: one cyclic
convolution, the kernel's spectrum times the boundary's. _circle_spectra
is the one circle operator: f, df/dtheta, r df/dr, df/dr, df/dz and
df/dzbar on a circle, r = 0 included, are each one spectrum from it and
one inverse FFT. Both build the kernel from one formula, _kernel_formula.
On the grid the kernel is real and even in theta, so its spectrum is real and
even: one real FFT of values built from a cached table of
sin^2(theta_j/2), since |1 - r e^{it}|^2 = (1-r)^2 + 4r sin^2(t/2) does
not cancel near t = 0 as r -> 1. That FFT is taken on every s-th node,
the fewest that hold the kernel's modes at that radius (_kernel_stride),
and its bins below m/2 are the kernel's half band (_band_rfft). From it
_circle_multipliers forms each quantity's real multipliers on that half
band, and _band_spectrum, the one place they meet the spectra of F and
dF/dtheta, writes each quantity's spectrum on those bins of one N-bin array
(at r = 0, the operator's limit). _circle_spectra rolls that array into the
polar frame, _circle_power sums its |spectrum|^2 on the half band (for f and
df/dtheta from the folded power, with no work of length N), and _band_point
sums it at one angle. At alpha = 0 the kernel is the Poisson kernel, whose
modes are exactly r^|k|: _circle_multipliers writes them in closed form on
the same half band, with no grid kernel and no FFT of one, and _point_values
sums those multipliers at each point's own radius and angle, so every
alpha = 0 answer is exact for F's samples (no trapezoid alias, no
ResolutionWarning).
Everything derived from a BoundaryData's samples (its
resamples; boundary_derivative, the only code computing dF/dtheta; the
spectrum fft(values), the only FFT of boundary samples, and its power
folded onto the half band) is computed once and memoized on it.
"""

from __future__ import annotations

import csv
import os
import sys
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Callable, Optional, Sequence

import numpy as np

from .specfun import gamma

__all__ = [
    "ResolutionWarning",
    "AlphaParam",
    "BoundaryData",
    "QuadSpec",
    "c_alpha",
    "poisson_integral",
    "circle_poisson_values",
    "boundary_derivative",
    "read_boundary_csv",
    "write_boundary_csv",
    "radial_grid",
]


class ResolutionWarning(UserWarning):
    """The angular grid under-resolves the kernel peak at the requested radius."""


def c_alpha(alpha: float) -> float:
    """Kernel normalizer Gamma(1+a/2)^2 / Gamma(1+a), positive for a > -1."""
    if alpha <= -1.0:
        raise ValueError(f"alpha must exceed -1, got {alpha!r}")
    try:  # the square leaves the double range from alpha ~ 196.15 on
        half_sq = gamma(1.0 + alpha / 2.0) ** 2
    except OverflowError:
        raise OverflowError(f"c_alpha overflows at alpha={alpha!r}: Gamma(1+alpha/2)^2 "
                            "exceeds the double range") from None
    return half_sq / gamma(1.0 + alpha)


@dataclass(frozen=True)
class AlphaParam:
    """Weight parameter with its cached kernel normalizer."""

    alpha: float
    c_alpha: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "c_alpha", c_alpha(self.alpha))


def as_alpha(a) -> AlphaParam:
    """Coerce a float or AlphaParam to AlphaParam."""
    return a if isinstance(a, AlphaParam) else AlphaParam(float(a))


_UNIFORM_TOL = 1e-12
_NODE_AGREEMENT_TOL = 1e-12
# Largest angular node count: the CLI refuses larger --nodes and --samples,
# read_boundary_csv longer files, and regimes' resolved node counts stop
# doubling here.
_ANGULAR_CAP = 1 << 17


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=64)
def _uniform_thetas(n: int) -> np.ndarray:
    """The grid 2 pi j / n, one shared read-only array per node count."""
    return _read_only(2.0 * np.pi * np.arange(n) / n)


@lru_cache(maxsize=64)
def _grid_sin(n: int) -> np.ndarray:
    """sin(theta_j) on the grid _uniform_thetas(n), shared and read-only like it."""
    return _read_only(np.sin(_uniform_thetas(n)))


@lru_cache(maxsize=64)
def _half_angle_sin2(n: int) -> np.ndarray:
    """sin^2(theta_j / 2) on the grid _uniform_thetas(n), shared and read-only like it."""
    return _read_only(np.sin(0.5 * _uniform_thetas(n)) ** 2)


_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _warn(message: str, category=UserWarning) -> None:
    """warnings.warn attributed to the first caller outside this package."""
    frame, level = sys._getframe(), 1
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


@dataclass(frozen=True)
class BoundaryData:
    """A boundary function on the unit circle.

    Uniform angular samples theta_j = 2 pi j / N, with optional closed-form
    evaluators for the function and its angular derivative. Evaluators take
    an array of angles and return complex values.
    """

    thetas: np.ndarray
    values: np.ndarray
    closed_form: Optional[Callable[[np.ndarray], np.ndarray]] = None
    closed_form_deriv: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        thetas = np.asarray(self.thetas, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "values", values)
        n = len(thetas)
        if n < 16 or n % 2 != 0:
            raise ValueError(f"boundary data needs an even node count >= 16, got {n}")
        if len(values) != n:
            raise ValueError("thetas and values length mismatch")
        if not np.all(np.isfinite(values)):
            raise ValueError("boundary samples must be finite")
        expected = _uniform_thetas(n)
        if not np.max(np.abs(thetas - expected)) <= _UNIFORM_TOL:  # NaN fails too
            raise ValueError(
                "boundary grid must be uniform with theta_0 = 0 "
                f"(tolerance {_UNIFORM_TOL})"
            )
        if self.closed_form is not None:
            exact = np.asarray(self.closed_form(thetas), dtype=complex)
            scale = float(np.max(np.abs(exact)))
            if not np.isfinite(scale):  # NaN or inf at some node
                raise ValueError("the closed form must be finite at every node")
            if not np.max(np.abs(exact - values)) <= _NODE_AGREEMENT_TOL * max(1.0, scale):
                raise ValueError("samples disagree with the closed form at the nodes")
        object.__setattr__(self, "_derived", {})

    @classmethod
    def from_function(cls, fn: Callable[[np.ndarray], np.ndarray], n: int = 2048,
                      deriv: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> "BoundaryData":
        thetas = _uniform_thetas(n)
        values = np.asarray(fn(thetas), dtype=complex)
        return cls(thetas, values, closed_form=fn, closed_form_deriv=deriv)

    @classmethod
    def from_samples(cls, thetas: Sequence[float], values: Sequence[complex]) -> "BoundaryData":
        return cls(np.asarray(thetas, dtype=float), np.asarray(values, dtype=complex))

    @property
    def n_samples(self) -> int:
        return len(self.thetas)

    def resample(self, n: int) -> "BoundaryData":
        """Return the same boundary function on an n-node grid (memoized)."""
        if n == self.n_samples:
            return self
        if self.closed_form is None:
            raise ValueError("cannot resample sampled-only boundary data")
        return self._memo(n, lambda: BoundaryData.from_function(
            self.closed_form, n, deriv=self.closed_form_deriv))

    def _memo(self, key, make):
        """make() for key (node count of a resample, "derivative", "spectrum" or "power"), kept
        on this BoundaryData. Threads racing on a fresh key may each compute it, but
        setdefault hands all of them the one value stored first."""
        value = self._derived.get(key)
        return value if value is not None else self._derived.setdefault(key, make())

    def _spectrum(self) -> np.ndarray:
        """fft(values), read-only: the one FFT of these samples."""
        return self._memo("spectrum", lambda: _read_only(np.fft.fft(self.values)))

    def _power(self) -> np.ndarray:
        """|X_k|^2 + |X_{N-k}|^2 for k = 0..N/2, X = fft(values), with bins 0 and N/2
        counted once, read-only: the spectrum's energy folded onto its half band."""
        def fold():
            spec = self._spectrum()
            sq = spec.real ** 2 + spec.imag ** 2
            n = len(sq)
            half = sq[:n // 2 + 1].copy()
            half[1:n // 2] += sq[:n // 2:-1]
            return _read_only(half)
        return self._memo("power", fold)


def radial_grid(r_max: float = 0.999, n: int = 64) -> np.ndarray:
    """Radial nodes on [0, r_max], geometrically refined toward the boundary.

    1 - r decays by a constant factor per node, so the grid concentrates
    where boundary blow-up must be resolved.
    """
    if not 0.0 < r_max <= 1.0 - 1e-6:
        raise ValueError(f"r_max must lie in (0, 1-1e-6], got {r_max!r}")
    if n < 2:
        raise ValueError("radial grid needs at least 2 nodes")
    return 1.0 - np.geomspace(1.0, 1.0 - r_max, n)


@dataclass(frozen=True)
class QuadSpec:
    """Quadrature configuration: radial grid, truncation, and angular_nodes, the node count
    of what has no samples (norms' callables, the kernel-mean and distance-integral
    certificates, CLI-built boundaries): a BoundaryData is swept on its own samples."""

    angular_nodes: int = 2048
    r_max: float = 0.999
    radial_grid: np.ndarray = None

    def __post_init__(self) -> None:
        if self.angular_nodes < 16 or self.angular_nodes % 2 != 0:
            raise ValueError("angular_nodes must be an even integer >= 16")
        if self.r_max > 1.0 - 1e-6:
            raise ValueError("r_max must not exceed 1 - 1e-6")
        grid = self.radial_grid
        if grid is None:
            grid = radial_grid(self.r_max, 64)
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or np.any(np.diff(grid) <= 0.0):
            raise ValueError("radial_grid must be strictly increasing")
        if grid[-1] > self.r_max:
            raise ValueError("radial_grid exceeds r_max")
        object.__setattr__(self, "radial_grid", grid)


def _under_resolved(n: int, r: float) -> bool:
    """True when n angular nodes are too few for the kernel peak, of width 1-r."""
    return r < 1.0 and n < 8.0 / (1.0 - r)


def _check_resolution(n: int, r: float) -> None:
    """Warn when the kernel peak width 1-r is under-resolved by n nodes."""
    if _under_resolved(n, r):
        _warn(f"angular grid of {n} nodes under-resolves the kernel at r={r:.6g} "
              f"(want N >= {8.0 / (1.0 - r):.0f})", ResolutionWarning)


_POLAR_R_MIN = 1e-8


def _check_polar_radius(r: float) -> None:
    """Refuse 0 < r < _POLAR_R_MIN: df/dr and the Wirtinger pair divide an absolute rounding
    error by r, 3e-9 relative at r = 1e-8 on the 4.1 boundary and 3.5e-5 at r = 1e-12."""
    if 0.0 < r < _POLAR_R_MIN:
        raise ValueError(f"radius r={float(r)!r} is below {_POLAR_R_MIN:g}, where the polar "
                         "frame's division by r loses accuracy; r = 0 takes the operator's limit")


def poisson_integral(a, F: BoundaryData, z, q: QuadSpec) -> complex:
    """Trapezoid quadrature of (1/2pi) int K_a(z e^{-it}) F(e^{it}) dt.

    Evaluates at a scalar z or an array of points, summing over F's own N
    samples. For smooth F and fixed |z| < 1 the error decays faster than any
    power of 1/N. Emits ResolutionWarning for each point with N < 8/(1-|z|),
    but at alpha = 0, where the sum is the Poisson kernel's exact power series
    of the samples' spectrum (_point_values).
    """
    return _point_values(a, F, z, q, ("f",))[0]


def _distance_sq(r, sin2):
    """|1 - r e^{it}|^2 as (1-r)^2 + 4r sin^2(t/2): no cancellation near t = 0 as r -> 1."""
    return (1.0 - r) ** 2 + 4.0 * r * sin2


def _kernel_formula(a: AlphaParam, r, sin2):
    """K_a(r e^{it}) from r and sin^2(t/2), with 1 - r^2 written as (1-r)(1+r): no
    cancellation as r -> 1. The one kernel formula of both operators."""
    dist_sq = _distance_sq(r, sin2)
    return (a.c_alpha * ((1.0 - r) * (1.0 + r)) ** (a.alpha + 1.0)
            * dist_sq ** (-0.5 * (a.alpha + 2.0)))


def _grid_kernel(a: AlphaParam, r: float, n: int, s: int = 1) -> np.ndarray:
    """K_a(r e^{i theta_j}) on every s-th node of the n-node grid."""
    return _kernel_formula(a, r, _half_angle_sin2(n)[::s])


def _kernel_stride(n: int, r: float, alpha: float) -> int:
    """The stride s of the fewest nodes, every s-th of the n-node grid, that hold the whole
    spectrum of the kernel at radius r: m = n/s halves while 4 divides it (so m stays even)
    and (m/2)(1-r) >= 72 + 4 max(alpha, 0), which also keeps m/2 >= 16. The kernel's modes
    mu_k(r) decay like k^(alpha/2) r^k past the peak, so beyond m/2 they are below the
    rounding of the largest."""
    need = 72.0 + 4.0 * max(alpha, 0.0)
    m = n
    while m % 4 == 0 and (m // 4) * (1.0 - r) >= need:
        m //= 2
    return n // m


def _band_rfft(values: np.ndarray, n: int) -> np.ndarray:
    """The half band of the n-node rfft of a kernel given on every s-th node, m = n/s values
    whose spectrum lies in bins below m/2 (_kernel_stride): the m-node rfft's bins
    0..m/2-1 times s, which is exact as s is a power of two; the n-node bins above are 0
    to rounding. At m = n it is the n-node rfft itself, bins 0..n/2."""
    half = np.fft.rfft(values)
    m = len(values)
    return half if m == n else half[:m // 2] * (n // m)


def _point_values(a, F: BoundaryData, z, q: QuadSpec, quantities) -> list:
    """[values, ...], one per name in quantities ("f", "dtheta" df/dtheta, "rdr" r df/dr)
    at the points z: a complex for a scalar z, else an array shaped like z.

    The one pointwise operator, twin of _circle_spectra: with F's own N samples and K the
    kernel at |z| e^{it}, t = theta_j - arg z, each is a dot product with the samples:
    f = sum K F / N, df/dtheta = sum K dF/dt / N and r df/dr = J1 + J2 =
    sum (alpha (K - K2 / w) F - (2 / w) K1 dF/dt) / N, w = 1 - r^2, with the J2 kernels
    K1 = r sin t K and K2 = ((1-r) + 2r sin^2(t/2)) K that _circle_multipliers transforms.
    dF/dt enters less its trapezoid mean, as the mean of a periodic derivative is 0: samples
    of a closed-form derivative that jumps (example 4.2) have a mean of order 1/N. Each
    point, warned about on its own, is summed over its own kernel row of N values.

    At alpha = 0 each point is instead the sum of its quantity's spectrum on the half
    band of _circle_multipliers at its own radius (_band_point). Those are the Poisson
    kernel's exact multipliers, K^ = N r^k, so f = (1/N^2) [sum_{k<L} K^_k X_k e^{ik theta}
    + sum_{0<k<min(L,N/2)} K^_k X_{N-k} e^{-ik theta}], X = fft(F), is the power series of
    the samples' spectrum, and df/dtheta and r df/dr are the matching sums over
    fft(dF/dt) with B+-; r = 0 gives f = X_0 / N and df/dtheta = r df/dr = 0. Nothing
    warns, and on the grid angles points and circles agree to rounding.
    """
    a = as_alpha(a)
    z = np.asarray(z, dtype=complex)
    r = np.abs(z).reshape(-1, 1)
    if not np.all(r <= q.r_max):  # NaN fails too
        raise ValueError(f"evaluation points must satisfy |z| <= r_max = {q.r_max}")
    n = F.n_samples
    harmonic = a.alpha == 0.0
    if not harmonic:
        for rj in r[:, 0].tolist():
            _check_resolution(n, rj)
    angles = np.angle(z).reshape(-1, 1)
    if not harmonic and any(name != "f" for name in quantities):
        dF = boundary_derivative(F).values
        dF = dF - dF.mean()
    out = np.empty((len(quantities), len(r)), dtype=complex)
    for j in range(len(r)):
        if harmonic:
            out[:, j] = _band_point(a, F, float(r[j, 0]), float(angles[j, 0]), q, quantities)
            continue
        rj = r[j:j + 1]  # shape (1, 1): the point's kernel is one (1, N) row
        t = _uniform_thetas(n) - angles[j:j + 1]
        sin2 = np.sin(0.5 * t) ** 2
        kern = _kernel_formula(a, rj, sin2)
        for i, name in enumerate(quantities):
            if name == "rdr":
                w = (1.0 - rj) * (1.0 + rj)
                k_val = a.alpha * (kern - ((1.0 - rj) + 2.0 * rj * sin2) * kern / w)
                k_dot = (-2.0 / w) * rj * np.sin(t) * kern
                sums = k_val @ F.values + k_dot @ dF
            else:
                sums = kern @ (F.values if name == "f" else dF)
            sums /= n
            out[i, j] = sums[0]
    return [complex(row[0]) if z.ndim == 0 else row.reshape(z.shape) for row in out]


def _invert(spec: np.ndarray, d: float) -> np.ndarray:
    """ifft(spec) / d: the values on a circle given as the pair (spectrum, divisor)."""
    out = np.fft.ifft(spec)
    out /= d
    return out


# Which multiple s of i df/dtheta joins r df/dr: df/dzbar = (r df/dr + i df/dtheta) e^{i theta}/(2r)
# and df/dz = (r df/dr - i df/dtheta) e^{-i theta}/(2r). The factor e^{s i theta_j} is a
# roll of the spectrum by s bins.
_FRAME_SIGN = {"rdr": 0, "dr": 0, "dzbar": 1, "dz": -1}


def _divisor(name: str, n: int, r: float):
    """The d of a circle's pair (S, d) (_circle_spectra): N for f and df/dtheta, 1 for
    r df/dr, r for df/dr and 2r for df/dz and df/dzbar."""
    return {"f": n, "dtheta": n, "rdr": 1.0, "dr": r}.get(name, 2.0 * r)


def _circle_multipliers(a: AlphaParam, F: BoundaryData, r: float, q: QuadSpec,
                        quantities) -> list:
    """[M, ...], one per name in quantities: the real multipliers, on the half band of L
    bins, that take fft(F) and fft(dF/dt) to that quantity's spectrum S on the circle |z| = r
    (_circle_spectra). L = m/2 where the kernel's m nodes are fewer than F's N
    (_kernel_stride), as S is 0 to rounding from bin L to N - L, and N/2 + 1 where m = N.

    For "f" and "dtheta" M is the kernel spectrum K^: S_k = K^_k X_k and
    S_{N-k} = K^_k X_{N-k}, X = fft(F) or fft(dF/dt). For the partials M is (A, B+, B-):
    S_k = A_k fft(F)_k + i B+_k fft(dF/dt)_k and S_{N-k} = A_k fft(F)_{N-k}
    + i B-_k fft(dF/dt)_{N-k}, for r df/dr + s i df/dtheta before the frame roll
    (_FRAME_SIGN). Each trapezoid sum is a correlation with a real kernel on the grid, so
    with w = 1 - r^2, A = (alpha/N) (K^ - K2^/w) and B+- = (s/N) K^ +- (2/(N w)) K1^/i but
    for bin 0, set to 0 as dF/dt has mean 0 (_point_values). The J2 kernels
    K1 = r sin t K (odd) and K2 = ((1-r) + 2r sin^2(t/2)) K (even) come from the kernel
    values K, and one rfft of K1 + K2 gives both spectra: its real part is K2^, its
    imaginary part K1^/i. Every rfft is taken on the kernel's own m nodes (_band_rfft):
    where m < N the sums are the N-node trapezoid's to rounding, not bit for bit. M is None
    for a derivative at r = 0, whose spectrum _band_spectrum writes from fft(F) alone; where
    every quantity is one, no kernel is built.

    At alpha = 0 the kernel is the Poisson kernel, whose modes are exactly r^|k|, and the
    multipliers are written in closed form on the same L bins: K^ = N r^k, A = 0 and
    B_odd = -r^k for k >= 1 (0 at k = 0), with no grid kernel and no FFT. They are the
    exact multipliers, not the trapezoid's folded (r^k + r^(N-k)) / (1 - r^N), so the
    circle is exact for F's samples and nothing warns.

    Refuses r outside [0, q.r_max] and, for dr, dz and dzbar, 0 < r < _POLAR_R_MIN; only a
    circle of f at alpha != 0 warns about resolution, keyed on N.
    """
    if not 0.0 <= r <= q.r_max:
        raise ValueError(f"radius must lie in [0, r_max = {q.r_max}]")
    n = F.n_samples
    harmonic = a.alpha == 0.0
    if "f" in quantities and not harmonic:
        _check_resolution(n, r)
    if not set(quantities).isdisjoint(("dr", "dz", "dzbar")):
        _check_polar_radius(r)
    if r == 0.0 and "f" not in quantities:
        return [None] * len(quantities)
    stride = _kernel_stride(n, r, a.alpha)
    if harmonic:
        m = n // stride
        mu = r ** np.arange(m // 2 if m < n else n // 2 + 1)  # each power formed on its own
        kern_hat = n * mu
        b_odd = -mu
        b_odd[0] = 0.0
        fused = (np.zeros(len(mu)), b_odd)
    else:
        kern = _grid_kernel(a, r, n, stride)
        kern_hat = _band_rfft(kern, n).real
        fused = None
    out = []
    for name in quantities:
        if name != "f" and r == 0.0:
            out.append(None)
            continue
        if name in ("f", "dtheta"):
            out.append(kern_hat)
            continue
        if fused is None:
            w = (1.0 - r) * (1.0 + r)
            half = _band_rfft(((1.0 - r) + 2.0 * r * _half_angle_sin2(n)[::stride]
                               + r * _grid_sin(n)[::stride]) * kern, n)
            b_odd = (2.0 / (n * w)) * half.imag
            b_odd[0] = 0.0
            fused = ((a.alpha / n) * (kern_hat - half.real / w), b_odd)
        a_hat, b_odd = fused
        s = _FRAME_SIGN[name]
        if s:
            b_even = (s / n) * kern_hat
            b_plus, b_minus = b_odd + b_even, b_even - b_odd
            b_plus[0] = b_minus[0] = 0.0
        else:
            b_plus, b_minus = b_odd, -b_odd
        out.append((a_hat, b_plus, b_minus))
    return out


def _circle_spectra(a, F: BoundaryData, r: float, q: QuadSpec, quantities) -> list:
    """[(S, d), ...], one pair per name in quantities, with ifft(S) / d that quantity at
    every grid angle of the circle |z| = r: "f" the extension, "dtheta" df/dtheta, "rdr"
    r df/dr, and "dr", "dz", "dzbar".

    The one circle operator: it sums over F's own N samples, and one grid kernel and its
    spectrum serve every quantity (at alpha = 0, the closed-form modes r^|k|). Each S is
    _band_spectrum's, rolled into the polar frame for df/dz and df/dzbar; at r = 0, where
    that frame degenerates, each derivative is the operator's limit there. The kernel's
    spectrum is one rfft on every s-th node, the fewest that hold it (_kernel_stride): where
    s > 1 the spectrum is the N-node one to its rounding (3e-14 of its largest bin), not bit
    for bit; at s = 1 it is the N-node one. Refusals and warnings are _circle_multipliers'.
    """
    a = as_alpha(a)
    out = []
    for name, mult in zip(quantities, _circle_multipliers(a, F, r, q, quantities)):
        spec, d, _ = _band_spectrum(a, F, r, name, mult)
        s = _FRAME_SIGN.get(name, 0)
        out.append((np.roll(spec, s) if s else spec, d))
    return out


def _band_spectrum(a: AlphaParam, F: BoundaryData, r: float, name: str, mult) -> tuple:
    """(S, d, L): the spectrum S of name on the circle |z| = r before the frame roll
    (_FRAME_SIGN), one array of N bins, with the divisor d of ifft(S) / d (_divisor) and
    the half band L it fills: bins k < L and N-k, 0 < k < min(L, N/2), the rest 0. The one
    place where multipliers meet fft(F) and fft(dF/dt): each product is written into S
    from mult, the half-band multipliers of _circle_multipliers, and views of the memoized
    spectra, bin 0 of fft(dF/dt) taken as 0 (_point_values).

    At r = 0, where mult of a derivative is None, S is the operator's limit there, with
    d = 1 and L = 2: of the kernel's modes only m = +-1 have a first derivative at the
    origin, each lam = c_a (1 + a/2), so bin 1 holds lam fft(F)[1] (for df/dr and df/dz) and
    bin N-1 lam fft(F)[N-1] (for df/dr and df/dzbar), and df/dtheta = r df/dr = 0."""
    n = F.n_samples
    spec = np.zeros(n, dtype=complex)
    if mult is None:
        dz, dzbar = a.c_alpha * (1.0 + 0.5 * a.alpha) * F._spectrum()[[1, -1]]  # N times each
        if name in ("dr", "dz"):
            spec[1] = dz
        if name in ("dr", "dzbar"):
            spec[-1] = dzbar
        return spec, 1.0, 2
    band = len(mult) if name in ("f", "dtheta") else len(mult[0])
    top = min(band, n // 2)  # bins N-k for 0 < k < top: bin N/2 is in the low band
    low, high = spec[:band], spec[:-top:-1]
    if name in ("f", "dtheta"):
        x = (F if name == "f" else boundary_derivative(F))._spectrum()
        np.multiply(mult, x[:band], out=low)
        np.multiply(mult[1:top], x[:-top:-1], out=high)
        if name == "dtheta":
            spec[0] = 0.0
    else:
        a_hat, b_plus, b_minus = mult
        f_hat, g_hat = F._spectrum(), boundary_derivative(F)._spectrum()
        np.multiply(a_hat, f_hat[:band], out=low)
        low += 1j * b_plus * g_hat[:band]
        np.multiply(a_hat[1:top], f_hat[:-top:-1], out=high)
        high += 1j * b_minus[1:top] * g_hat[:-top:-1]
    return spec, _divisor(name, n, r), band


def _halves(spec: np.ndarray, band: int) -> tuple:
    """(low, high) of _band_spectrum's S: the bins S_k, k < band, and S_{N-k},
    0 < k < min(band, N/2), in k order. high is a contiguous copy: np.vdot and @ round a
    reversed view's sum differently."""
    return spec[:band], spec[:-min(band, len(spec) // 2):-1].copy()


def _circle_power(a, F: BoundaryData, r: float, q: QuadSpec, name: str) -> tuple:
    """(sum over m of |S_m|^2, d) for the pair (S, d) _circle_spectra gives name on |z| = r,
    summed on the half band of _circle_multipliers: the sum over k < L of
    |S_k|^2 + |S_{N-k}|^2, bins 0 and N/2 counted once. For f, and df/dtheta off the
    origin, that is K^_k^2 times the folded power of fft(F) or fft(dF/dt)
    (BoundaryData._power), with no work of length N; for the partials and the origin it is
    the sum of _band_spectrum's two halves. The frame roll moves bins, not the sum, so it
    is not taken. Refusals and warnings are _circle_multipliers'.
    """
    a = as_alpha(a)
    n = F.n_samples
    mult, = _circle_multipliers(a, F, r, q, (name,))
    if isinstance(mult, np.ndarray):  # the kernel spectrum K^ of f or df/dtheta
        power = (F if name == "f" else boundary_derivative(F))._power()
        lo = int(name == "dtheta")  # bin 0 of fft(dF/dt) is taken as 0
        return float(np.dot(mult[lo:] ** 2, power[lo:len(mult)])), _divisor(name, n, r)
    spec, d, band = _band_spectrum(a, F, r, name, mult)
    low, high = _halves(spec, band)
    return float(np.vdot(low, low).real + np.vdot(high, high).real), d


def _band_point(a: AlphaParam, F: BoundaryData, r: float, theta: float, q: QuadSpec,
                quantities) -> list:
    """[value, ...] of each name in quantities at r e^{i theta}, summed from its spectrum S on
    the half band (_band_spectrum) at radius r: (1/(N d)) [sum_{k<L} S_k e^{ik theta}
    + sum_{0<k<min(L,N/2)} S_{N-k} e^{-ik theta}]. Where L = N/2 + 1 the Nyquist bin enters
    as S_{N/2} cos(N theta/2), which agrees with the (-1)^j of ifft(S) on the grid. Each
    e^{ik theta} is formed on its own. df/dtheta and r df/dr at r = 0 sum to 0. At a grid
    angle it is ifft(S)/d of _circle_spectra to rounding; _point_values reads it at
    alpha = 0, where the multipliers are exact."""
    n = F.n_samples
    values = []
    for name, mult in zip(quantities, _circle_multipliers(a, F, r, q, quantities)):
        spec, d, band = _band_spectrum(a, F, r, name, mult)
        low, high = _halves(spec, band)
        top = len(high) + 1
        phase = np.exp(1j * (theta * np.arange(top)))
        total = low[:top] @ phase + high @ phase[1:].conj()
        if band > top:
            total += low[top] * np.cos(0.5 * n * theta)
        values.append(total / (n * d))
    return values


def circle_poisson_values(a, F: BoundaryData, r: float, q: QuadSpec) -> np.ndarray:
    """Values of the integral operator at every grid angle on the circle |z| = r.

    Cyclic-convolution (FFT) evaluation of the trapezoid sums that poisson_integral
    would compute at z = r e^{i theta_j}: exactly those sums where the kernel needs
    every node, and within rounding (3e-14 of the kernel spectrum's largest bin) where
    _circle_spectra takes its spectrum on fewer nodes. At alpha = 0 it is the power
    series of the samples' spectrum, which poisson_integral sums too. Returns an array
    aligned with the boundary grid angles.
    """
    return _invert(*_circle_spectra(a, F, r, q, ("f",))[0])


_ALIAS_ENERGY_TOL = 1e-8


def boundary_derivative(F: BoundaryData) -> BoundaryData:
    """Angular derivative of boundary data, computed once per BoundaryData.

    Samples the closed-form derivative when available; otherwise
    differentiates the trigonometric interpolant (exact for band-limited
    data, Nyquist bin dropped). Warns when the top-frequency band holds
    more than 1e-8 of the total energy, the aliasing-risk regime. The
    result is memoized on F.
    """
    return F._memo("derivative", lambda: _derivative(F))


def _derivative(F: BoundaryData) -> BoundaryData:
    n = F.n_samples
    if F.closed_form_deriv is not None:
        return BoundaryData.from_function(F.closed_form_deriv, n)
    fhat = F._spectrum()
    energy = np.abs(fhat) ** 2
    total = float(np.sum(energy))
    top = float(energy[n // 2] + energy[n // 2 - 1] + energy[n // 2 + 1])
    if total > 0.0 and top > _ALIAS_ENERGY_TOL * total:
        _warn("top-frequency energy suggests under-sampled boundary data; "
              "spectral derivative may alias")
    ks = np.fft.fftfreq(n, d=1.0 / n)
    ks[n // 2] = 0.0  # no defensible one-sided derivative at the Nyquist bin
    return BoundaryData(F.thetas, np.fft.ifft(1j * ks * fhat))


_CSV_BLOCK = 2048  # rows formatted per write: memory stays bounded whatever the row count


def _csv_field(s: str) -> str:
    """s as csv.writer's default dialect writes it: quoted, with each quote
    doubled, when it holds a comma, a quote or a line break."""
    if any(c in s for c in ',"\r\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def _write_csv(fh, header: Sequence[str], columns: Sequence[np.ndarray],
               labels: Optional[Sequence[str]] = None) -> None:
    """Write the header, then one row per index of the float columns, ending
    with that index's label when labels are given, to an open text stream.

    The bytes are csv.writer's with its default dialect: each float as its
    repr, a label quoted as _csv_field says, CRLF line ends. Rows are
    formatted and written _CSV_BLOCK at a time.
    """
    fh.write(",".join(header) + "\r\n")
    for start in range(0, len(columns[0]), _CSV_BLOCK):
        block = [list(map(repr, c[start:start + _CSV_BLOCK].tolist())) for c in columns]
        if labels is not None:
            block.append([_csv_field(s) for s in labels[start:start + _CSV_BLOCK]])
        fh.write("\r\n".join(map(",".join, zip(*block))) + "\r\n")


def write_boundary_csv(path: str, F: BoundaryData) -> None:
    """Write samples as CSV with header theta,re,im, each float as its repr."""
    with open(path, "w", newline="") as fh:
        _write_csv(fh, ("theta", "re", "im"), (F.thetas, F.values.real, F.values.imag))


def _csv_rows(fh, path: str):
    """(line, row) for each record csv.reader reads from fh; its errors and undecodable
    bytes are raised as ValueErrors naming path (and the line)."""
    reader = csv.reader(fh)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_table(path: str, header: Sequence[str], n_numbers: int,
                cap: Optional[int] = None) -> tuple:
    """(numbers, labels) of a CSV file under header: the first n_numbers fields of each
    row as an array of shape (rows, n_numbers) and, when the header names one more
    column, the text of that column. The one CSV reader: csv.reader checks the header,
    np.loadtxt parses the rows (blank lines skipped, cells in double quotes), at most
    cap + 1 of them, so a file past cap rows is refused as it is read. Each refusal is
    a ValueError naming the file and, through _refusal, the line of a faulty row."""
    fields = [("x", float, (n_numbers,))]
    if len(header) > n_numbers:
        fields.append(("label", object))
    with open(path, newline="") as fh:
        _, first = next(_csv_rows(fh, path), (0, None))
        if first is None or [h.strip() for h in first] != list(header):
            raise ValueError(f"{path}: expected header {','.join(header)}, got {first!r}")
        try:
            with warnings.catch_warnings():  # no rows, or blank lines, are not news here
                warnings.filterwarnings(
                    "ignore", r"(loadtxt: input|Input line \d+) contained no data", UserWarning)
                rows = np.loadtxt(fh, dtype=fields, delimiter=",", comments=None, quotechar='"',
                                  ndmin=1, max_rows=None if cap is None else cap + 1)
        except ValueError as exc:
            refused = str(exc)
        else:
            if cap is None or len(rows) <= cap:
                return rows["x"], rows["label"].tolist() if len(fields) > 1 else []
            refused = f"more than {cap} samples (the angular node cap)"
    raise _refusal(path, header, n_numbers, cap, refused)


def _real_cell(s: str) -> bool:
    """Whether np.loadtxt reads s as a float: float's syntax, in ASCII between
    whitespace, without the underscores float also takes."""
    t = s.strip()
    if not t.isascii() or "_" in t:
        return False
    try:
        float(t)
    except ValueError:
        return False
    return True


def _refusal(path: str, header: Sequence[str], n_numbers: int, cap: Optional[int],
             refused: str) -> ValueError:
    """The ValueError naming the first row of path that _read_table refuses: one
    past cap non-blank rows, a wrong field count, or a first n_numbers field that is
    not a real number; failing all of these, refused, the reader's own message.
    Called only after np.loadtxt refused path or read cap + 1 rows, to name a line:
    it reads no numbers. csv.reader's own errors are raised as _csv_rows raises them."""
    names = ",".join(header)
    count = 0
    with open(path, newline="") as fh:
        for line, row in islice(_csv_rows(fh, path), 1, None):  # the header is checked
            if not row:  # a blank line, skipped as np.loadtxt skips it
                continue
            count += 1
            where = f"{path}, line {line}"
            if cap is not None and count > cap:
                return ValueError(f"{where}: more than {cap} samples (the angular node cap)")
            if len(row) != len(header):
                return ValueError(f"{where}: expected {len(header)} fields {names}, "
                                  f"got {len(row)}")
            if not all(map(_real_cell, row[:n_numbers])):
                return ValueError(f"{where}: {','.join(header[:n_numbers])} must be real "
                                  f"numbers, got {row!r}")
    return ValueError(f"{path}: {refused}")


def read_boundary_csv(path: str) -> BoundaryData:
    """Read boundary samples from CSV (theta,re,im); validates grid uniformity.
    Refusals name the file (and line); rows past the 2^17-sample cap are refused."""
    cols, _ = _read_table(path, ("theta", "re", "im"), 3, cap=_ANGULAR_CAP)
    try:  # each row's re, im pair, viewed as one complex
        return BoundaryData.from_samples(cols[:, 0], cols[:, 1:].copy().view(complex)[:, 0])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
