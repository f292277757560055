"""Ellipticity diagnostics for derivative fields.

A sense-preserving mapping is (K, K')-elliptic when ||D_f||^2 <= K J_f + K'
holds almost everywhere. On a sampled grid only the failure of that
condition can be witnessed: min_kprime reports the smallest K' making the
inequality hold on the sample, and ellipticity_report tracks how that
number behaves as the truncation radius approaches 1. A sequence that
keeps growing (ratio >= 1.5 across the last pair of radii) for every
candidate K is evidence that no finite (K, K') pair works
(non_elliptic_trend); anything else leaves the mapping a candidate
(elliptic_candidate); grids can falsify ellipticity, never certify it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from .derivs import DerivField
from .norms import _jsonable, dfield_norms

__all__ = ["EllipticReport", "min_kprime", "ellipticity_report"]

_GROWTH_RATIO = 1.5


def min_kprime(field: DerivField, K: float) -> float:
    """Smallest K' >= 0 with ||D_f||^2 <= K J_f + K' at every sampled point."""
    if len(field.points) == 0:
        raise ValueError("empty derivative field")
    K = float(K)
    if K < 1.0:
        raise ValueError(f"K must be at least 1, got {K!r}")
    norm, _, jac = dfield_norms(field.dz, field.dzbar)
    return float(max(0.0, np.max(norm**2 - K * jac)))


def _row_grows(row: Sequence[float]) -> bool:
    v = np.asarray(row, dtype=float)
    if np.any(np.diff(v) < 0.0):
        return False
    prev, last = v[-2], v[-1]
    if prev == 0.0:
        return last > 0.0
    return last / prev >= _GROWTH_RATIO


@dataclass(frozen=True)
class EllipticReport:
    """min_kprime per (K, truncation radius) with the growth verdict."""

    k_values: tuple
    r_maxes: tuple
    rows: tuple  # of {"K": ..., "r_max": ..., "min_kprime": ...}
    verdict: str
    jac_nonpositive_fraction: float

    def table(self, K: float) -> list:
        return [row["min_kprime"] for row in self.rows if row["K"] == K]

    def to_json(self, **kwargs) -> str:
        return json.dumps(_jsonable(asdict(self)), **kwargs)


def ellipticity_report(fields: Sequence[DerivField], K_list: Sequence[float]) -> EllipticReport:
    """Track min_kprime across nested truncation radii for each K.

    fields must be at least three derivative fields with strictly
    increasing maximum radius (nested truncations of the same mapping).
    Verdict: non_elliptic_trend when min_kprime grows monotonically with a
    last-pair ratio of at least 1.5 for every K in K_list; otherwise
    elliptic_candidate (in particular when the sequence stabilizes for
    some K). The report also carries the fraction of sampled points on the
    outermost field where the Jacobian is nonpositive, since the elliptic
    condition presumes a sense-preserving mapping.
    """
    fields = list(fields)
    if len(fields) < 3:
        raise ValueError("ellipticity_report needs at least 3 nested truncation radii")
    r_maxes = [f.r_max for f in fields]
    if np.any(np.diff(r_maxes) <= 0.0):
        raise ValueError("fields must come in strictly increasing r_max order")
    K_list = [float(k) for k in K_list]
    if not K_list:
        raise ValueError("K_list must be nonempty")

    rows = []
    grows_all = True
    for K in K_list:
        row = [min_kprime(f, K) for f in fields]
        grows_all = grows_all and _row_grows(row)
        for rm, v in zip(r_maxes, row):
            rows.append({"K": K, "r_max": float(rm), "min_kprime": float(v)})

    _, _, jac = dfield_norms(fields[-1].dz, fields[-1].dzbar)
    frac = float(np.mean(jac <= 0.0))
    return EllipticReport(
        k_values=tuple(K_list),
        r_maxes=tuple(float(r) for r in r_maxes),
        rows=tuple(rows),
        verdict="non_elliptic_trend" if grows_all else "elliptic_candidate",
        jac_nonpositive_fraction=frac,
    )
