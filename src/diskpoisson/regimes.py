"""Parameter-regime classification and explicit-constant inequality checks.

The (alpha, p) plane splits into three regimes that govern which partial
derivatives of a kernel extension are controlled by the boundary
derivative's L^p norm:

    Pi1: alpha > 0 with any p in [1, inf], plus alpha = 0 with 1 < p < inf.
         All four partials obey Hardy-type bounds.
    Pi2: -1 < alpha < 0 with 1 <= p < -1/alpha, plus the point (0, 1).
         Bergman-type bounds hold; Hardy-type bounds admit counterexamples.
    Pi3: -1 < alpha < 0 with p >= -1/alpha, plus the point (0, inf).
         Both norm families admit counterexamples.

    In Pi2 and Pi3 an ellipticity hypothesis on the mapping restores the
    Hardy bounds.

Only inequalities with fully explicit constants are certified numerically:
the weighted kernel mean bound, the boundary-distance integral bound, the
unit-constant angular-derivative bound, and the scaled kernel bound
|J1| <= |alpha| sup|F|. Asymptotic bounds with implicit constants are
exercised qualitatively by the divergence probes instead.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from .specfun import gamma
from .kernel import (BoundaryData, QuadSpec, _ANGULAR_CAP, _circle_spectra,
                     _distance_sq, _half_angle_sin2, _invert, as_alpha,
                     boundary_derivative)
# circle_derivs stays bound: perfbench's test_wrappers_are_all_removed asserts it is traced.
from .derivs import circle_derivs  # noqa: F401
from .norms import _means_p

__all__ = [
    "RegimeClass",
    "CertificationRecord",
    "classify",
    "check_kernel_mean_bound",
    "check_distance_integral_bound",
    "check_angular_derivative_bound",
    "check_scaled_kernel_bound",
    "certification_grid",
]

# Additive slack on each certificate's right side: _ANGULAR_SLACK for the
# angular-derivative bound, _SLACK for the others.
_SLACK = 1e-8
_ANGULAR_SLACK = 1e-6

PREDICTIONS = {
    "Pi1": ("hardy_all_partials_bounded",),
    "Pi2": (
        "bergman_bounded",
        "counterexample_exists_hardy",
        "elliptic_hypothesis_rescues",
    ),
    "Pi3": (
        "counterexample_exists_hardy",
        "counterexample_exists_bergman",
        "elliptic_hypothesis_rescues",
    ),
}


@dataclass(frozen=True)
class RegimeClass:
    """Regime label for one (alpha, p) pair with its qualitative predictions."""

    label: str
    alpha: float
    p: float
    predictions: tuple


def classify(alpha: float, p: float) -> RegimeClass:
    """Assign (alpha, p) to its regime Pi1, Pi2, or Pi3.

    p may be math.inf; the infinite case is branched on symbolically so no
    arithmetic is ever done with it. A non-finite alpha is refused.
    """
    alpha = float(alpha)
    p = float(p)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if alpha <= -1.0:
        raise ValueError(f"alpha must exceed -1, got {alpha!r}")
    if not (p >= 1.0):
        raise ValueError(f"p must satisfy 1 <= p <= inf, got {p!r}")
    is_inf = math.isinf(p)
    if alpha > 0.0:
        label = "Pi1"
    elif alpha == 0.0:
        if is_inf:
            label = "Pi3"
        elif p == 1.0:
            label = "Pi2"
        else:
            label = "Pi1"
    else:
        if is_inf or p >= -1.0 / alpha:
            label = "Pi3"
        else:
            label = "Pi2"
    return RegimeClass(label=label, alpha=alpha, p=p, predictions=PREDICTIONS[label])


@dataclass(frozen=True)
class CertificationRecord:
    """Outcome of one explicit-constant inequality check."""

    check: str
    params: dict
    lhs: float
    rhs: float
    holds: bool

    def as_dict(self) -> dict:
        return asdict(self)


def _mean_distance_power(r: float, s: float, n: int) -> float:
    """Mean of |1 - r e^{i t}|^(-s) over the n-node grid, |1 - r e^{i t}|^2 from _distance_sq."""
    return float(np.mean(_distance_sq(r, _half_angle_sin2(n)) ** (-0.5 * s)))


def _distance_record(check: str, alpha: float, r: float, q: QuadSpec, weight: float,
                     rhs: float) -> CertificationRecord:
    """The record of lhs = weight times the mean of |1 - r e^{i t}|^(-(alpha + 1)) over
    _resolved_nodes(q.angular_nodes, r) nodes, against rhs."""
    n = _resolved_nodes(q.angular_nodes, r)
    lhs = weight * _mean_distance_power(r, alpha + 1.0, n)
    return CertificationRecord(check=check, params={"alpha": alpha, "r": float(r), "nodes": n},
                               lhs=lhs, rhs=float(rhs), holds=bool(lhs <= rhs + _SLACK))


def check_kernel_mean_bound(alpha: float, r: float, q: QuadSpec) -> CertificationRecord:
    """Certify (1/2pi) int (1-r^2)^a / |1-r e^{i t}|^{a+1} dt <= Gamma(a)/Gamma((a+1)/2)^2.

    Holds for every a > 0 and r in [0, 1); the right side is the sharp
    r -> 1 limit. Left side by the trapezoid rule on a node count resolving r.
    """
    alpha = float(alpha)
    if alpha <= 0.0:
        raise ValueError(f"kernel mean bound needs alpha > 0, got {alpha!r}")
    if not 0.0 <= r < 1.0:
        raise ValueError(f"radius must lie in [0, 1), got {r!r}")
    return _distance_record("kernel_mean_bound", alpha, r, q, ((1.0 - r) * (1.0 + r)) ** alpha,
                            gamma(alpha) / gamma((alpha + 1.0) / 2.0) ** 2)


def check_distance_integral_bound(alpha: float, r: float, q: QuadSpec) -> CertificationRecord:
    """Certify int_0^{2pi} dt / |1-r e^{i t}|^{a+1} <= 3^{(a+1)/2} 2^{1-a} Gamma(-a) sqrt(pi) / Gamma(1/2-a).

    Valid for -1 < a < 0 and r in [1/2, 1); the integrand's exponent a+1
    lies in (0, 1) so the integral stays finite up to the boundary.
    """
    alpha = float(alpha)
    if not -1.0 < alpha < 0.0:
        raise ValueError(f"distance integral bound needs alpha in (-1, 0), got {alpha!r}")
    if not 0.5 <= r < 1.0:
        raise ValueError(f"radius must lie in [1/2, 1), got {r!r}")
    return _distance_record("distance_integral_bound", alpha, r, q, 2.0 * np.pi,
                            3.0 ** ((alpha + 1.0) / 2.0) / 2.0 ** (alpha - 1.0)
                            * gamma(-alpha) * gamma(0.5) / gamma(0.5 - alpha))


def _resolved_nodes(base: int, r: float) -> int:
    """Angular node count resolving the kernel at radius r: >= 32/(1-r), at most the cap."""
    want = 32.0 / max(1.0 - r, 1e-9)
    n = base
    while n < want and n < _ANGULAR_CAP:
        n *= 2
    return min(n, _ANGULAR_CAP)


def _resolved_sweeps(F: BoundaryData, q: QuadSpec):
    """Yield (F_n, radii): the radial grid split by the node count n that sweeps it.

    Closed-form data gets _resolved_nodes per radius from its own count; sampled data stays.
    """
    def nodes(r):
        return _resolved_nodes(F.n_samples, r) if F.closed_form is not None else F.n_samples
    for n, radii in itertools.groupby(q.radial_grid, key=nodes):
        yield F.resample(n), [float(r) for r in radii]


def _boundary_checks(a, F: BoundaryData, q: QuadSpec, ps=(), scaled: bool = False,
                     label: Optional[str] = None) -> list:
    """The angular-derivative records for each p in ps, then the scaled-kernel record
    when scaled: one walk of the radial grid for (alpha, F).

    Each circle is one call of the circle operator, so its kernel spectrum is built
    once. It feeds one dtheta sweep, whose magnitudes, taken and scaled once, give the
    integral mean for every p, and, when scaled and alpha != 0, one value sweep for |J1|,
    the only sweep that warns about resolution. At alpha = 0, J1 = alpha K[F] is 0 and no
    value sweep is taken.
    """
    a = as_alpha(a)
    ps = [float(p) for p in ps]
    for p in ps:
        if not (1.0 <= p < math.inf):
            raise ValueError(f"p must be finite and >= 1, got {p!r}")
    max_ratio = [0.0] * len(ps)
    sup_j1 = 0.0
    j1 = scaled and a.alpha != 0.0
    quantities = ("dtheta",) * bool(ps) + ("f",) * j1
    for F_n, radii in _resolved_sweeps(F, q) if quantities else ():
        rhs_n = _means_p(boundary_derivative(F_n).values, ps)
        for r in radii:
            spectra = _circle_spectra(a, F_n, r, q, quantities)
            if ps:
                means = _means_p(_invert(*spectra[0]), ps)
                for i, rhs in enumerate(rhs_n):
                    if rhs > 0.0:
                        max_ratio[i] = max(max_ratio[i], means[i] / rhs)
            if j1:
                sup_j1 = max(sup_j1, float(np.max(np.abs(a.alpha * _invert(*spectra[-1])))))
    common = {"boundary": label or "unnamed", "nodes": F.n_samples,
              "r_max": float(q.radial_grid[-1])}
    records = [CertificationRecord(
        check="angular_derivative_bound",
        params={"alpha": a.alpha, "p": p, **common},
        lhs=float(ratio), rhs=1.0, holds=bool(ratio <= 1.0 + _ANGULAR_SLACK),
    ) for p, ratio in zip(ps, max_ratio)]
    if scaled:
        rhs = abs(a.alpha) * float(np.max(np.abs(F.values)))
        records.append(CertificationRecord(
            check="scaled_kernel_bound", params={"alpha": a.alpha, **common},
            lhs=sup_j1, rhs=rhs, holds=bool(sup_j1 <= rhs + _SLACK),
        ))
    return records


def check_angular_derivative_bound(a, F: BoundaryData, p: float, q: QuadSpec,
                                   label: Optional[str] = None) -> CertificationRecord:
    """Certify M_p(r, df/dtheta) <= ||dF/dt||_{L^p} across the radial grid.

    The unit-constant Hardy bound for the angular derivative. A closed form is
    swept on each circle at a node count adapted to its radius (the kernel peak
    narrows like 1-r), doubled from F's sample count, the record's nodes, up to
    2^17; sampled-only boundary data is swept at its own samples.
    """
    return _boundary_checks(a, F, q, (p,), label=label)[0]


def check_scaled_kernel_bound(a, F: BoundaryData, q: QuadSpec,
                              label: Optional[str] = None) -> CertificationRecord:
    """Certify sup |J1| <= |alpha| sup |F| over the radial grid.

    J1 = alpha K_a[F] and the operator is an average against a unit-mass
    positive kernel, so the bound is the maximum principle scaled by alpha.
    """
    return _boundary_checks(a, F, q, scaled=True, label=label)[0]


KERNEL_MEAN_GRID = {
    "alphas": (0.25, 0.5, 1.0, 2.0, 5.0),
    "radii": (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99),
}

DISTANCE_INTEGRAL_GRID = {
    "alphas": (-0.9, -0.5, -0.1),
    "radii": (0.5, 0.75, 0.9, 0.99),
}


def certification_grid(q: Optional[QuadSpec] = None):
    """All kernel-mean and distance-integral checks on their standard grids."""
    if q is None:
        q = QuadSpec()
    records = []
    for alpha in KERNEL_MEAN_GRID["alphas"]:
        for r in KERNEL_MEAN_GRID["radii"]:
            records.append(check_kernel_mean_bound(alpha, r, q))
    for alpha in DISTANCE_INTEGRAL_GRID["alphas"]:
        for r in DISTANCE_INTEGRAL_GRID["radii"]:
            records.append(check_distance_integral_bound(alpha, r, q))
    return records
