"""Integral means, Hardy and Bergman norms, and boundary-growth probes.

The Hardy norm of a disk function is the supremum over r < 1 of the L^p
mean on the circle |z| = r; the Bergman norm integrates the p-th power of
those means against the normalized area measure 2 r dr. Both are computed
on a truncated, boundary-refined radial grid, so every reported value is a
lower bound of the untruncated norm; the status field says whether the
truncated values look settled, still growing, or cleanly divergent.

A KernelQuantity circle at r > 0 is one spectrum S from the circle
operator kernel._circle_spectra, whose inverse FFT, divided by d, gives its
N values. For p = 2 the circle's mean then comes from the spectrum by
Parseval, sqrt(sum |S_m|^2) / (N |d|), with no inverse FFT; every other p,
the circle at r = 0 and plain callables take the mean of the values.

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

from .kernel import BoundaryData, QuadSpec, _circle_spectra, _invert, _uniform_thetas, as_alpha
from .derivs import dz_dzbar_f

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


def _mean_p(samples: np.ndarray, p: float) -> float:
    """mean(|samples|^p)^(1/p), max for p = inf, as m mean((|samples|/m)^p)^(1/p) with m
    the largest magnitude: no power overflows, so it is non-finite only if a sample is."""
    mags = np.abs(np.asarray(samples))
    m = float(np.max(mags)) if mags.size else 0.0
    if math.isinf(p) or not 0.0 < m < math.inf:
        return m
    scaled = mags / m
    scaled **= p
    return m * float(np.mean(scaled) ** (1.0 / p))


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

    Supports fast whole-circle evaluation (FFT sweeps) for norm scans, and
    pointwise calls for spot checks. At the origin, dr means the directional
    radial derivative as a function of the approach angle.
    """

    def __init__(self, a, F: BoundaryData, quantity: str):
        if quantity not in QUANTITIES:
            raise ValueError(f"quantity must be one of {QUANTITIES}, got {quantity!r}")
        self.a = as_alpha(a)
        self.F = F
        self.quantity = quantity

    def circle_values(self, r: float, q: QuadSpec) -> np.ndarray:
        if r == 0.0 and self.quantity != "f":
            dz0, dzbar0 = dz_dzbar_f(self.a, self.F, 0.0, q)
            thetas = _uniform_thetas(q.angular_nodes)
            if self.quantity == "dz":
                return np.full(q.angular_nodes, dz0)
            if self.quantity == "dzbar":
                return np.full(q.angular_nodes, dzbar0)
            if self.quantity == "dr":
                return dz0 * np.exp(1j * thetas) + dzbar0 * np.exp(-1j * thetas)
            return np.zeros(q.angular_nodes, dtype=complex)
        return _invert(*_circle_spectra(self.a, self.F, r, q, (self.quantity,))[0])


def _circle_samples(f, r: float, q: QuadSpec) -> np.ndarray:
    if hasattr(f, "circle_values"):
        return f.circle_values(r, q)
    return np.asarray(f(r * np.exp(1j * _uniform_thetas(q.angular_nodes))))


def _circle_mean(f, r: float, p: float, q: QuadSpec) -> float:
    """L^p mean of f on the circle |z| = r.

    A KernelQuantity circle at r > 0 has the N values ifft(S) / d, so by
    Parseval its L^2 mean is sqrt(sum |S_m|^2) / (N |d|): no inverse FFT.
    """
    if p == 2.0 and r > 0.0 and isinstance(f, KernelQuantity):
        spec, d = _circle_spectra(f.a, f.F, r, q, (f.quantity,))[0]
        return float(np.linalg.norm(spec)) / (len(spec) * abs(d))
    return _mean_p(_circle_samples(f, r, q), p)


def _circle_means(f, radii, p: float, q: QuadSpec):
    """(radii, means) with non-finite circles dropped.

    A directional quantity can be undefined at an isolated interior point
    (df/dr at the origin); dropping that circle keeps every norm a lower
    bound without disturbing boundary growth.
    """
    kept_r, kept_m = [], []
    for r in radii:
        m = _circle_mean(f, float(r), p, q)
        if math.isfinite(m):
            kept_r.append(float(r))
            kept_m.append(m)
    if not kept_m:
        raise ValueError("no finite circle means on the radial grid")
    return np.asarray(kept_r), np.asarray(kept_m)


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


def hardy_norm(f, p: float, q: QuadSpec) -> NormEstimate:
    """Hardy-type norm: sup over the radial grid of the circle L^p means.

    f is either a callable on arrays of disk points or an object with a
    circle_values(r, q) method. The value is a lower bound of the true
    supremum; status reports whether the means have settled (converged),
    grow at 1.5x or more per decade of 1-r (diverging), or neither.
    """
    p = _check_p(p)
    radii, means = _circle_means(f, q.radial_grid, p, q)
    return NormEstimate(
        value=float(np.max(means)),
        p=p,
        r_max=float(radii[-1]),
        n_nodes=q.angular_nodes,
        status=_status_from_tail(radii, means),
    )


def _bergman_value(radii: np.ndarray, means: np.ndarray, p: float) -> float:
    """Bergman norm up to radii[-1]: the p-th root of the trapezoid of mean(r)^p
    against the area weight 2 r dr, the largest mean m for p = inf. Formed as
    m trapz((means/m)^p 2 r dr)^(1/p), as _mean_p does, so no power overflows."""
    m = float(np.max(means))
    if math.isinf(p) or not 0.0 < m < math.inf:
        return m
    g = (means / m) ** p * 2.0 * radii
    return m * float(np.sum(0.5 * (g[1:] + g[:-1]) * np.diff(radii))) ** (1.0 / p)


def bergman_norm(f, p: float, q: QuadSpec) -> NormEstimate:
    """Bergman-type norm on the truncated disk r <= r_max.

    Integrates the circle means against normalized area measure on the
    radial grid; p = inf reduces to the sup over the sampled disk. The
    status comes from divergence_probe over the nested cutoffs
    1 - 100 w, 1 - 10 w, 1 - w with w = 1 - r_max, so slow blow-up
    spread over decades is still visible.
    """
    p = _check_p(p)
    radii, means = _circle_means(f, q.radial_grid, p, q)
    value = _bergman_value(radii, means, p)
    w = 1.0 - q.r_max
    cutoffs = [1.0 - 100.0 * w, 1.0 - 10.0 * w, q.r_max]
    if cutoffs[0] <= 0.0:
        status = _status_from_tail(radii, list(means))
    else:
        probe = divergence_probe(f, p, cutoffs, kind="bergman", q=q)
        status = probe.status
    return NormEstimate(
        value=value,
        p=p,
        r_max=float(radii[-1]),
        n_nodes=q.angular_nodes,
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
        return json.dumps(asdict(self), **kwargs)


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
    eval_radii = np.asarray(sorted(set(base) | set(cut.tolist())))
    radii, means = _circle_means(f, eval_radii, p, q)

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
