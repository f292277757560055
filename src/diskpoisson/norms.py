"""Integral means, Hardy and Bergman norms, and boundary-growth probes.

The Hardy norm of a disk function is the supremum over r < 1 of the L^p
mean on the circle |z| = r; the Bergman norm integrates the p-th power of
those means against the normalized area measure 2 r dr. Both are computed
on a truncated, boundary-refined radial grid, so every reported value is a
lower bound of the untruncated norm; the status field says whether the
truncated values look settled, still growing, or cleanly divergent, past
r_max = 0.99 by divergence_probe's verdict over nested cutoffs.

A KernelQuantity circle, r = 0 included, is one spectrum S from the circle
operator kernel._circle_spectra, whose inverse FFT, divided by d, gives its
N values. For p = 2 the circle's mean comes from the spectrum by Parseval,
sqrt(sum |S_m|^2) / (N |d|), and that sum is taken on the kernel's half
band (kernel._circle_power): over the L bins k where the kernel's spectrum
lives, L = m/2 for a kernel on m < N nodes, the sum of |S_k|^2 + |S_{N-k}|^2,
with no inverse FFT. For f and df/dtheta it is the kernel spectrum squared
times the memoized folded power of F or dF/dtheta, with no work of length N;
for the partials, and at r = 0, it reads the two half bands of the spectrum
kernel._band_spectrum writes. Every other p and plain callables take the
mean of the values.

divergence_probe sharpens that: it evaluates the norm at nested cutoff
radii, flags divergence when the values grow monotonically with a last-pair
ratio of at least 1.5, and fits a growth exponent e with value ~ (1-r)^e.
The exponent comes from regressing log successive increments on log(1-r),
which cancels any convergent background term that would bias a direct fit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .kernel import (BoundaryData, QuadSpec, _circle_power, _circle_spectra, _invert,
                     _uniform_thetas, as_alpha)

__all__ = [
    "NormEstimate",
    "GrowthReport",
    "KernelQuantity",
    "lp_norm_circle",
    "integral_mean",
    "hardy_norm",
    "bergman_norm",
    "dfield_norms",
    "divergence_probe",
]

_FLAT_RTOL = 1e-8
_DIVERGENCE_RATIO = 1.5
# per-decade growth threshold 1.5 as a slope in log10(value) per decade of 1-r
_DECADE_SLOPE = math.log10(_DIVERGENCE_RATIO)

STATUS_CONVERGED = "converged"
STATUS_LOWER_BOUND = "lower_bound_only"
STATUS_DIVERGING = "diverging"

QUANTITIES = ("f", "dtheta", "dr", "dz", "dzbar")


def _check_p(p: float) -> float:
    p = float(p)
    if not (p >= 1.0):
        raise ValueError(f"p must satisfy 1 <= p <= inf, got {p!r}")
    return p


def _means_p(samples: np.ndarray, ps) -> list:
    """[mean(|samples|^p)^(1/p) for p in ps], max for p = inf, each as
    m mean((|samples|/m)^p)^(1/p) with m the largest magnitude: no power overflows, so a
    mean is non-finite only if a sample is. The magnitudes are taken and scaled once for
    every p."""
    mags = np.abs(np.asarray(samples))
    m = float(np.max(mags)) if mags.size else 0.0
    if not 0.0 < m < math.inf:
        return [m] * len(ps)
    scaled = mags / m
    return [m if math.isinf(p) else m * float(np.mean(scaled ** p) ** (1.0 / p)) for p in ps]


def _mean_p(samples: np.ndarray, p: float) -> float:
    """_means_p for the one order p."""
    return _means_p(samples, (p,))[0]


def lp_norm_circle(G: Union[BoundaryData, np.ndarray], p: float) -> float:
    """L^p norm on the unit circle with normalized measure dtheta/2pi.

    Accepts boundary data or a plain array of uniform samples; p = inf
    gives the sup of |G| over the samples.
    """
    p = _check_p(p)
    samples = G.values if isinstance(G, BoundaryData) else np.asarray(G)
    return _mean_p(samples, p)


def integral_mean(samples: np.ndarray, r: float, p: float) -> float:
    """L^p mean of uniform samples on the circle of radius r in [0, 1)."""
    if not 0.0 <= r < 1.0:
        raise ValueError(f"radius must lie in [0, 1), got {r!r}")
    return _mean_p(samples, _check_p(p))


@dataclass(frozen=True)
class NormEstimate:
    """A norm value with its quadrature provenance and convergence status."""

    value: float
    p: float
    r_max: float
    n_nodes: int
    status: str


class KernelQuantity:
    """A disk quantity derived from boundary data: the extension f itself or
    one of its partials dtheta, dr, dz, dzbar.

    Supports fast whole-circle evaluation (FFT sweeps) for norm scans. At the
    origin, dr means the directional radial derivative as a function of the
    approach angle.
    """

    def __init__(self, a, F: BoundaryData, quantity: str):
        if quantity not in QUANTITIES:
            raise ValueError(f"quantity must be one of {QUANTITIES}, got {quantity!r}")
        self.a = as_alpha(a)
        self.F = F
        self.quantity = quantity

    def circle_values(self, r: float, q: QuadSpec) -> np.ndarray:
        """The quantity at every grid angle of |z| = r, one value per sample of F."""
        return _invert(*_circle_spectra(self.a, self.F, r, q, (self.quantity,))[0])


def _circle_mean(f, r: float, p: float, q: QuadSpec) -> float:
    """L^p mean of f on the circle |z| = r: at q.angular_nodes points for a callable.

    A KernelQuantity circle has the N values ifft(S) / d, so by Parseval
    its L^2 mean is sqrt(sum |S_m|^2) / (N |d|). kernel._circle_power sums
    |S_k|^2 + |S_{N-k}|^2 over the L bins k of the kernel's half band, with
    no inverse FFT.
    """
    if isinstance(f, KernelQuantity):
        if p != 2.0:
            return _mean_p(f.circle_values(r, q), p)
        power, d = _circle_power(f.a, f.F, r, q, f.quantity)
        return math.sqrt(power) / (f.F.n_samples * abs(d))
    return _mean_p(np.asarray(f(r * np.exp(1j * _uniform_thetas(q.angular_nodes)))), p)


def _circle_means(f, radii, p: float, q: QuadSpec):
    """(radii, means) of f's circles, with non-finite circles dropped by _finite_means."""
    return _finite_means(radii, [_circle_mean(f, float(r), p, q) for r in radii])


def _finite_means(radii, means):
    """(radii, means) as arrays with non-finite circles dropped.

    A callable can be undefined at an isolated interior point (a directional
    derivative at the origin); dropping that circle keeps every norm a lower
    bound without disturbing boundary growth.
    """
    radii = np.asarray(radii, dtype=float)
    means = np.asarray(means, dtype=float)
    keep = np.isfinite(means)
    if not np.any(keep):
        raise ValueError("no finite circle means on the radial grid")
    return radii[keep], means[keep]


def _status_from_tail(radii: np.ndarray, means: Sequence[float]) -> str:
    """Settled / diverging / lower-bound verdict from the last three radii."""
    v = np.asarray(means, dtype=float)
    if len(v) < 3:
        return STATUS_LOWER_BOUND
    tail = v[-3:]
    scale = float(np.max(tail))
    if scale == 0.0 or float(np.max(tail) - np.min(tail)) <= _FLAT_RTOL * scale:
        return STATUS_CONVERGED
    w = 1.0 - np.asarray(radii, dtype=float)[-3:]
    if np.all(tail[:-1] < tail[1:]) and np.all(tail > 0.0):
        # slope of log10(value) per decade of shrinking 1-r
        slopes = np.diff(np.log10(tail)) / -np.diff(np.log10(w))
        if np.min(slopes) >= _DECADE_SLOPE:
            return STATUS_DIVERGING
    return STATUS_LOWER_BOUND


def _bergman_value(radii: np.ndarray, means: np.ndarray, p: float) -> float:
    """Bergman norm up to radii[-1]: the p-th root of the trapezoid of mean(r)^p
    against the area weight 2 r dr, the largest mean m for p = inf. Formed as
    m trapz((means/m)^p 2 r dr)^(1/p), as _mean_p does, so no power overflows."""
    m = float(np.max(means))
    if math.isinf(p) or not 0.0 < m < math.inf:
        return m
    g = (means / m) ** p * 2.0 * radii
    return m * float(np.sum(0.5 * (g[1:] + g[:-1]) * np.diff(radii))) ** (1.0 / p)


def hardy_norm(f, p: float, q: QuadSpec) -> NormEstimate:
    """Hardy-type norm: sup over the radial grid of the circle L^p means, a lower
    bound of the true supremum, with its status as _norm reads it. f is a callable
    on arrays of disk points or a KernelQuantity."""
    return _norm(f, p, q, "hardy")


def bergman_norm(f, p: float, q: QuadSpec) -> NormEstimate:
    """Bergman-type norm on the truncated disk r <= r_max: the circle means integrated
    against normalized area measure on the radial grid (p = inf gives the sup over the
    sampled disk), with its status as _norm reads it."""
    return _norm(f, p, q, "bergman")


def _norm(f, p: float, q: QuadSpec, kind: str) -> NormEstimate:
    """The Hardy or Bergman norm over q.radial_grid, by kind, on the grid its circles were
    swept at, and its status: converged, diverging (growth of 1.5x or more per decade of
    1-r) or lower_bound_only. When r_max > 0.99 that is divergence_probe's verdict over the
    nested cutoffs 1 - 100 w, 1 - 10 w, 1 - w (w = 1 - r_max), so slow blow-up spread over
    decades stays visible; its circles hold the radial grid, so each is evaluated once for
    both. Shallower grids read the tail of their own means."""
    p = _check_p(p)
    w = 1.0 - q.r_max
    cutoffs = [1.0 - 100.0 * w, 1.0 - 10.0 * w, q.r_max]
    probed = cutoffs[0] > 0.0
    eval_radii = _plan_probe(p, cutoffs, kind, q)[2] if probed else q.radial_grid
    radii, means = _circle_means(f, eval_radii, p, q)
    status = (_growth_report(radii, means, p, np.asarray(cutoffs), kind, None, None).status
              if probed else _status_from_tail(radii, means))
    on_grid = np.isin(radii, q.radial_grid)
    radii, means = radii[on_grid], means[on_grid]
    return NormEstimate(
        value=float(np.max(means)) if kind == "hardy" else _bergman_value(radii, means, p),
        p=p,
        r_max=float(radii[-1]),
        n_nodes=f.F.n_samples if isinstance(f, KernelQuantity) else q.angular_nodes,
        status=status,
    )


def dfield_norms(dz: np.ndarray, dzbar: np.ndarray):
    """Pointwise operator norm, co-norm, and Jacobian of the differential.

    norm = |df/dz| + |df/dzbar|, l = ||df/dz| - |df/dzbar||,
    jac = |df/dz|^2 - |df/dzbar|^2; norm * l = |jac|.
    """
    adz = np.abs(np.asarray(dz))
    adzbar = np.abs(np.asarray(dzbar))
    return adz + adzbar, np.abs(adz - adzbar), adz**2 - adzbar**2


def _jsonable(obj):
    """Recursively coerce to strict-JSON values; infinities become 'inf'."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


@dataclass(frozen=True)
class GrowthReport:
    """Norm values at nested cutoff radii with a divergence verdict."""

    quantity: Optional[str]
    alpha: Optional[float]
    p: float
    cutoffs: list
    values: list
    exponent: Optional[float]
    diverging: bool
    status: str

    def to_json(self, **kwargs) -> str:
        return json.dumps(_jsonable(asdict(self)), **kwargs)


def _increment_exponent(cutoffs: np.ndarray, values: np.ndarray) -> Optional[float]:
    """Fit value ~ C (1-r)^e via log-increments, robust to additive background.

    For v_k = A + C w_k^e the increments v_{k+1} - v_k drop A exactly, and
    log(increment) is affine in log of the geometric midpoint of the w pair,
    with slope e. Requires at least two strictly positive increments.
    """
    w = 1.0 - cutoffs
    dv = np.diff(values)
    keep = dv > 0.0
    if np.count_nonzero(keep) < 2:
        return None
    x = 0.5 * (np.log(w[1:]) + np.log(w[:-1]))[keep]
    y = np.log(dv[keep])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def divergence_probe(
    f,
    p: float,
    cutoffs: Sequence[float],
    kind: str = "hardy",
    q: Optional[QuadSpec] = None,
    quantity: Optional[str] = None,
    alpha: Optional[float] = None,
) -> GrowthReport:
    """Evaluate a Hardy or Bergman norm at nested cutoff radii.

    The probe reports the norm restricted to r <= cutoff for each cutoff,
    declares divergence when the values increase monotonically and the last
    pair grows by a factor of at least 1.5, and fits the growth exponent e
    in value ~ (1 - cutoff)^e from successive increments (None when the
    values do not grow enough to support a fit).
    """
    p, cut, eval_radii, q = _plan_probe(p, cutoffs, kind, q)
    radii, means = _circle_means(f, eval_radii, p, q)
    return _growth_report(radii, means, p, cut, kind, quantity, alpha)


def _plan_probe(p: float, cutoffs: Sequence[float], kind: str, q: Optional[QuadSpec]):
    """A probe's validated (p, sorted cutoffs, radii to evaluate, q): the radial
    grid up to the last cutoff together with the cutoffs themselves."""
    p = _check_p(p)
    if kind not in ("hardy", "bergman"):
        raise ValueError(f"kind must be 'hardy' or 'bergman', got {kind!r}")
    cut = np.asarray(sorted(float(c) for c in cutoffs))
    if len(cut) < 3:
        raise ValueError("divergence probe needs at least 3 cutoffs")
    if cut[0] <= 0.0 or cut[-1] > 1.0 - 1e-6 or np.any(np.diff(cut) <= 0.0):
        raise ValueError("cutoffs must be strictly increasing in (0, 1-1e-6]")
    if q is None:
        q = QuadSpec()
    base = [r for r in q.radial_grid if r <= cut[-1]]
    return p, cut, np.asarray(sorted(set(base) | set(cut.tolist()))), q


def _growth_report(radii: np.ndarray, means: np.ndarray, p: float, cut: np.ndarray,
                   kind: str, quantity: Optional[str], alpha) -> GrowthReport:
    """The GrowthReport of finite circle means at radii: the norm at each
    cutoff, the divergence verdict and the growth exponent."""
    values = []
    for c in cut:
        k = int(np.searchsorted(radii, c, side="right"))
        values.append(float(np.max(means[:k])) if kind == "hardy"
                      else _bergman_value(radii[:k], means[:k], p))

    v = np.asarray(values)
    monotone = bool(np.all(v[:-1] < v[1:]))
    diverging = bool(monotone and v[-2] > 0.0 and v[-1] / v[-2] >= _DIVERGENCE_RATIO)
    if diverging:
        status = STATUS_DIVERGING
    elif float(np.max(v[-2:]) - np.min(v[-2:])) <= _FLAT_RTOL * max(float(np.max(v[-2:])), 1e-300):
        status = STATUS_CONVERGED
    else:
        status = STATUS_LOWER_BOUND
    return GrowthReport(
        quantity=quantity,
        alpha=None if alpha is None else float(as_alpha(alpha).alpha),
        p=p,
        cutoffs=[float(c) for c in cut],
        values=values,
        exponent=_increment_exponent(cut, v),
        diverging=diverging,
        status=status,
    )
