"""Weighted Poisson kernel on the unit disk and its quadrature operator.

The kernel K_a(z) = c_a (1-|z|^2)^(a+1) / |1-z|^(a+2) with normalizer
c_a = Gamma(1+a/2)^2 / Gamma(1+a) reproduces a family of disk functions
from boundary data: f(z) = (1/2pi) int K_a(z e^{-it}) F(e^{it}) dt.
This module provides the kernel, the boundary-data model (uniform samples
plus optional closed-form evaluators), quadrature configuration, the
integral operator itself, and boundary differentiation.

Quadrature is the composite trapezoid rule on the uniform periodic grid,
which is spectrally accurate for smooth integrands. _point_values is the
one pointwise operator: f, df/dtheta and r df/dr at any points, each a dot
product of kernel weights with the samples of F or dF/dtheta. A circle
sweep is the same trapezoid sums at every grid angle at once: one cyclic
convolution, the kernel's spectrum times the boundary's. _circle_spectra
is the one circle operator: f, df/dtheta, r df/dr, df/dr, df/dz and
df/dzbar on a circle are each one spectrum from it and one inverse FFT,
and one grid kernel serves them all. Both build the kernel from one
formula, which kernel_K, the reference the tests compare against, writes
independently. On the grid the kernel is real and even in theta, so its
spectrum is real and even: one real FFT of values built from a cached
table of sin^2(theta_j/2), since |1 - r e^{it}|^2 = (1-r)^2 + 4r
sin^2(t/2) does not cancel near t = 0 as r -> 1. Everything derived from a
BoundaryData's samples (its resamples; boundary_derivative, the only code
computing dF/dtheta; the spectrum fft(values), the only FFT of boundary
samples) is computed once and memoized on it.
"""

from __future__ import annotations

import csv
import os
import sys
import warnings
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .specfun import gamma

__all__ = [
    "ResolutionWarning",
    "AlphaParam",
    "BoundaryData",
    "QuadSpec",
    "c_alpha",
    "kernel_K",
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
    return gamma(1.0 + alpha / 2.0) ** 2 / gamma(1.0 + alpha)


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


def _mirror(half: np.ndarray, odd: bool = False) -> np.ndarray:
    """All n bins of a spectrum that is even (X[n-m] = X[m]) or odd (X[n-m] = -X[m]) in m,
    from its bins 0..n/2. For a real, even k of even length, fft(k) is
    _mirror(rfft(k).real): one real FFT gives the whole spectrum."""
    return np.concatenate((half, -half[-2:0:-1] if odd else half[-2:0:-1]))


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
    flagged_nodes: tuple = ()

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
            scale = max(1.0, float(np.max(np.abs(exact))))
            if np.max(np.abs(exact - values)) > _NODE_AGREEMENT_TOL * scale:
                raise ValueError("samples disagree with the closed form at the nodes")
        object.__setattr__(self, "_derived", {})

    @classmethod
    def from_function(
        cls,
        fn: Callable[[np.ndarray], np.ndarray],
        n: int = 2048,
        deriv: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        flagged_nodes: tuple = (),
    ) -> "BoundaryData":
        thetas = _uniform_thetas(n)
        values = np.asarray(fn(thetas), dtype=complex)
        return cls(thetas, values, closed_form=fn, closed_form_deriv=deriv,
                   flagged_nodes=flagged_nodes)

    @classmethod
    def from_samples(cls, thetas: Sequence[float], values: Sequence[complex]) -> "BoundaryData":
        return cls(np.asarray(thetas, dtype=float), np.asarray(values, dtype=complex))

    @property
    def n_samples(self) -> int:
        return len(self.thetas)

    def eval(self, thetas: np.ndarray) -> np.ndarray:
        """Evaluate F at arbitrary angles: closed form, else trigonometric interpolant."""
        thetas = np.asarray(thetas, dtype=float)
        if self.closed_form is not None:
            return np.asarray(self.closed_form(thetas), dtype=complex)
        n = self.n_samples
        ks = np.fft.fftfreq(n, d=1.0 / n)
        return np.exp(1j * np.outer(thetas, ks)) @ (self._spectrum() / n)

    def eval_deriv(self, thetas: np.ndarray) -> np.ndarray:
        """Evaluate dF/dtheta at arbitrary angles: boundary_derivative(self).eval."""
        return boundary_derivative(self).eval(thetas)

    def resample(self, n: int) -> "BoundaryData":
        """Return the same boundary function on an n-node grid (memoized)."""
        if n == self.n_samples:
            return self
        if self.closed_form is None:
            raise ValueError("cannot resample sampled-only boundary data")
        return self._memo(n, lambda: BoundaryData.from_function(
            self.closed_form, n, deriv=self.closed_form_deriv))

    def _memo(self, key, make):
        """make() for key (node count of a resample, "derivative" or "spectrum"), kept
        on this BoundaryData. Threads racing on a fresh key may each compute it, but
        setdefault hands all of them the one value stored first."""
        value = self._derived.get(key)
        return value if value is not None else self._derived.setdefault(key, make())

    def _spectrum(self) -> np.ndarray:
        """fft(values), read-only: the one FFT of these samples."""
        return self._memo("spectrum", lambda: _read_only(np.fft.fft(self.values)))


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
    """Quadrature configuration: angular nodes, radial grid, truncation."""

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


def kernel_K(a, z) -> float:
    """Kernel value c_a (1-|z|^2)^(a+1) / |1-z|^(a+2) for |z| < 1.

    Accepts a scalar or array z; strictly positive on the open disk. The
    operators build the kernel from sin^2(t/2) instead; this is the tests' reference.
    """
    a = as_alpha(a)
    z = np.asarray(z, dtype=complex)
    rho = np.abs(z)
    if np.any(rho >= 1.0):
        raise ValueError("kernel is defined on the open disk only")
    # 1 - |z|^2 as (1-|z|)(1+|z|): no cancellation as |z| -> 1
    out = (a.c_alpha * ((1.0 - rho) * (1.0 + rho)) ** (a.alpha + 1.0)
           / np.abs(1.0 - z) ** (a.alpha + 2.0))
    return float(out) if out.ndim == 0 else out


def _under_resolved(n: int, r: float) -> bool:
    """True when n angular nodes are too few for the kernel peak, of width 1-r."""
    return r < 1.0 and n < 8.0 / (1.0 - r)


def _check_resolution(n: int, r: float) -> None:
    """Warn when the kernel peak width 1-r is under-resolved by n nodes."""
    if _under_resolved(n, r):
        _warn(f"angular grid of {n} nodes under-resolves the kernel at r={r:.6g} "
              f"(want N >= {8.0 / (1.0 - r):.0f})", ResolutionWarning)


def _on_quad_grid(F: BoundaryData, q: QuadSpec) -> BoundaryData:
    """F at q.angular_nodes when it has a closed form; sampled data stays native."""
    return F if F.closed_form is None else F.resample(q.angular_nodes)


def poisson_integral(a, F: BoundaryData, z, q: QuadSpec) -> complex:
    """Trapezoid quadrature of (1/2pi) int K_a(z e^{-it}) F(e^{it}) dt.

    Evaluates at a scalar z or an array of points; closed-form boundary data
    is resampled to q.angular_nodes first. For smooth F and fixed |z| < 1 the
    error decays faster than any power of 1/N. Emits ResolutionWarning when
    N < 8/(1-|z|).
    """
    return _point_values(a, F, z, q, ("f",))[0]


def _kernel_formula(a: AlphaParam, r, sin2):
    """kernel_K(a, r e^{it}) from r and sin^2(t/2), with |1 - r e^{it}|^2 written as
    (1-r)^2 + 4r sin^2(t/2), which does not cancel near t = 0 as r -> 1, and 1 - r^2 as
    (1-r)(1+r), as kernel_K writes it. The one kernel formula of both operators."""
    dist_sq = (1.0 - r) ** 2 + 4.0 * r * sin2
    return (a.c_alpha * ((1.0 - r) * (1.0 + r)) ** (a.alpha + 1.0)
            * dist_sq ** (-0.5 * (a.alpha + 2.0)))


def _grid_kernel(a: AlphaParam, r: float, n: int) -> np.ndarray:
    """kernel_K(a, r e^{i theta_j}) on the n-node grid."""
    return _kernel_formula(a, r, _half_angle_sin2(n))


def _point_values(a, F: BoundaryData, z, q: QuadSpec, quantities) -> list:
    """[values, ...], one per name in quantities ("f", "dtheta" df/dtheta, "rdr" r df/dr)
    at the points z: a complex for a scalar z, else an array shaped like z.

    The one pointwise operator, twin of _circle_spectra: with F on the quadrature grid and
    K the kernel at |z| e^{it}, t = theta_j - arg z, each is a dot product with the samples:
    f = sum K F / N, df/dtheta = sum K dF/dt / N and r df/dr = J1 + J2 =
    sum (alpha (K - K2 / w) F - (2 / w) K1 dF/dt) / N, w = 1 - r^2, with the J2 kernels
    K1 = r sin t K and K2 = ((1-r) + 2r sin^2(t/2)) K that _fused_spectrum transforms.
    """
    a = as_alpha(a)
    F = _on_quad_grid(F, q)
    z = np.asarray(z, dtype=complex)
    r = np.abs(z).reshape(-1, 1)
    if np.any(r > q.r_max):
        raise ValueError(f"evaluation points must satisfy |z| <= r_max = {q.r_max}")
    n = F.n_samples
    _check_resolution(n, float(np.max(r, initial=0.0)))
    t = _uniform_thetas(n) - np.angle(z).reshape(-1, 1)
    sin2 = np.sin(0.5 * t) ** 2
    kern = _kernel_formula(a, r, sin2)
    out = []
    for name in quantities:
        if name == "rdr":
            w = (1.0 - r) * (1.0 + r)
            k_val = a.alpha * (kern - ((1.0 - r) + 2.0 * r * sin2) * kern / w)
            k_dot = (-2.0 / w) * r * np.sin(t) * kern
            sums = k_val @ F.values + k_dot @ boundary_derivative(F).values
        else:
            sums = kern @ (F if name == "f" else boundary_derivative(F)).values
        sums /= n
        out.append(complex(sums[0]) if z.ndim == 0 else sums.reshape(z.shape))
    return out


def _invert(spec: np.ndarray, d: float) -> np.ndarray:
    """ifft(spec) / d: the values on a circle given as the pair (spectrum, divisor)."""
    out = np.fft.ifft(spec)
    out /= d
    return out


def _fused_spectrum(a: AlphaParam, F: BoundaryData, kern_hat: np.ndarray, kern: np.ndarray,
                    r: float, s: int = 0) -> np.ndarray:
    """The spectrum whose inverse FFT is r df/dr + s i df/dtheta at every grid angle of
    |z| = r, from F on the grid, the kernel spectrum kern_hat and the kernel values kern.

    Each trapezoid sum is a correlation with a real kernel on the grid, so with
    w = 1 - r^2, J1 + J2 + s i df/dtheta = ifft(A fft(F) + B fft(dF/dt)) where
    A = (alpha/N) (K^ - K2^/w) and B = (2/(N w)) K1^ + (s i/N) K^. The J2 kernels
    K1 = r sin t K (odd) and K2 = ((1-r) + 2r sin^2(t/2)) K (even) come from the
    kernel values K, and one rfft of K1 + K2 gives both spectra: its real part is
    fft(K2), its imaginary part fft(K1)/i.
    """
    n = F.n_samples
    w = (1.0 - r) * (1.0 + r)
    half = np.fft.rfft(((1.0 - r) + 2.0 * r * _half_angle_sin2(n)
                        + r * _grid_sin(n)) * kern)
    a_hat = (a.alpha / n) * (kern_hat - _mirror(half.real) / w)
    b_hat = (2.0 / (n * w)) * _mirror(half.imag, odd=True)
    if s:
        b_hat += (s / n) * kern_hat
    return a_hat * F._spectrum() + 1j * b_hat * boundary_derivative(F)._spectrum()


# Which multiple s of i df/dtheta joins r df/dr: df/dzbar = (r df/dr + i df/dtheta) e^{i theta}/(2r)
# and df/dz = (r df/dr - i df/dtheta) e^{-i theta}/(2r). The factor e^{s i theta_j} is a
# roll of the spectrum by s bins.
_FRAME_SIGN = {"rdr": 0, "dr": 0, "dzbar": 1, "dz": -1}


def _circle_spectra(a, F: BoundaryData, r: float, q: QuadSpec, quantities) -> list:
    """[(S, d), ...], one pair per name in quantities, with ifft(S) / d that quantity at
    every grid angle of the circle |z| = r: "f" the extension, "dtheta" df/dtheta, "rdr"
    r df/dr, and "dr", "dz", "dzbar" (these three need r > 0).

    The one circle operator: F goes on the quadrature grid, and one grid kernel and its
    spectrum serve every quantity. f and df/dtheta are that spectrum times fft(F) or
    fft(dF/dt); the partials are one fused spectrum each. On the grid the kernel is real
    and even, so its spectrum is one rfft, mirrored. Only a circle of f warns about
    resolution.
    """
    a = as_alpha(a)
    F = _on_quad_grid(F, q)
    if not 0.0 <= r <= q.r_max:
        raise ValueError(f"radius must lie in [0, r_max = {q.r_max}]")
    n = F.n_samples
    if "f" in quantities:
        _check_resolution(n, r)
    kern = _grid_kernel(a, r, n)
    kern_hat = _mirror(np.fft.rfft(kern).real)
    out = []
    for name in quantities:
        if name in ("f", "dtheta"):
            G = F if name == "f" else boundary_derivative(F)
            out.append((kern_hat * G._spectrum(), n))
            continue
        s = _FRAME_SIGN[name]
        spec = _fused_spectrum(a, F, kern_hat, kern, r, s)
        out.append((np.roll(spec, s), 2.0 * r) if s else (spec, r if name == "dr" else 1.0))
    return out


def circle_poisson_values(a, F: BoundaryData, r: float, q: QuadSpec) -> np.ndarray:
    """Values of the integral operator at every grid angle on the circle |z| = r.

    Cyclic-convolution (FFT) evaluation of exactly the trapezoid sums that
    poisson_integral would compute at z = r e^{i theta_j}; returns an array
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
        return BoundaryData.from_function(F.closed_form_deriv, n,
                                          flagged_nodes=F.flagged_nodes)
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


def write_boundary_csv(path: str, F: BoundaryData) -> None:
    """Write samples as CSV with header theta,re,im (csv writes each float as its repr)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "re", "im"])
        writer.writerows(zip(F.thetas.tolist(), F.values.real.tolist(), F.values.imag.tolist()))


def read_boundary_csv(path: str) -> BoundaryData:
    """Read boundary samples from CSV (theta,re,im); validates grid uniformity.

    Every refusal is a ValueError that names the file, and the line when
    one row is at fault. A row past the angular cap of 2^17 samples is
    refused as it is read, and samples are held as packed doubles, so a
    long file costs at most 24 bytes a row before the refusal.
    """
    thetas = array("d")
    values = array("d")  # re, im pairs
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["theta", "re", "im"]:
                raise ValueError(f"{path}: expected header theta,re,im, got {header!r}")
            for row in reader:
                if len(thetas) == _ANGULAR_CAP:
                    raise ValueError(f"{path}, line {reader.line_num}: more than "
                                     f"{_ANGULAR_CAP} samples (the angular node cap)")
                if len(row) != 3:
                    raise ValueError(f"{path}, line {reader.line_num}: expected 3 fields "
                                     f"theta,re,im, got {len(row)}")
                try:
                    theta, re, im = (float(x) for x in row)
                except ValueError:
                    raise ValueError(f"{path}, line {reader.line_num}: theta,re,im must be "
                                     f"real numbers, got {row!r}") from None
                thetas.append(theta)
                values.extend((re, im))
        except csv.Error as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    try:
        return BoundaryData.from_samples(np.frombuffer(thetas), np.frombuffer(values, complex))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
