"""Partial derivatives of kernel-reproduced disk functions.

For f(z) = (1/2pi) int K_a(z e^{-it}) F(e^{it}) dt the angular derivative
is the same operator applied to dF/dt. The radial derivative splits as
r df/dr = J1 + J2 where J1 = a f (the kernel reproduces it directly) and
J2 is an integrated-by-parts pair of real-kernel integrals that stays
finite as r -> 1. The Wirtinger derivatives follow from the polar frame:

    df/dz    = (r df/dr - i df/dtheta) / (2 z)
    df/dzbar = (r df/dr + i df/dtheta) / (2 conj(z))

Every dF/dt here is kernel.boundary_derivative(F), and every spectrum of F
or dF/dt is the one memoized on it. On a circle every one of these
trapezoid sums is a product of a kernel spectrum with fft(F) or
fft(dF/dt), and kernel._circle_spectra, the one circle operator, gives
each quantity as one spectrum: J1, both J2 integrals and, for the
Wirtinger pair, i df/dtheta add up in the spectrum, and the frame factor
e^{+-i theta} is a roll by one bin. circle_derivs inverts its df/dtheta
and r df/dr spectra. At a point, kernel._point_values, the one pointwise
operator, sums f, df/dtheta and r df/dr over the same nodes. At the origin
the polar frame degenerates; there df/dz and df/dzbar are the circle
operator's limit at r = 0, exact for the quadrature sums, and the point
is flagged. Nearer than r = 1e-8 its division by r is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .kernel import (
    BoundaryData,
    QuadSpec,
    _check_polar_radius,
    _circle_spectra,
    _distance_sq,
    _invert,
    _point_values,
    _read_only,
    _read_table,
    _under_resolved,
    _write_csv,
    as_alpha,
)

__all__ = [
    "dtheta_f",
    "dr_f",
    "dz_dzbar_f",
    "sine_moment",
    "sine_moment_exact",
    "DerivField",
    "deriv_field",
    "circle_derivs",
    "write_deriv_rows",
    "write_deriv_csv",
    "read_deriv_csv",
]

FLAG_NONE = ""
FLAG_ORIGIN = "origin_fd"
FLAG_UNDER_RESOLVED = "under_resolved"


def dtheta_f(a, F: BoundaryData, z, q: QuadSpec) -> complex:
    """Angular derivative df/dtheta at z: the kernel operator applied to dF/dt."""
    return _point_values(a, F, z, q, ("dtheta",))[0]


def _wirtinger_pair(rdr, dth, z):
    """(df/dz, df/dzbar) from r df/dr and df/dtheta at z != 0 (scalar or array)."""
    return (rdr - 1j * dth) / (2.0 * z), (rdr + 1j * dth) / (2.0 * z.conjugate())


def dr_f(a, F: BoundaryData, z: complex, q: QuadSpec) -> complex:
    """Radial derivative df/dr = (J1 + J2)/r; direction-dependent at 0, refused below 1e-8."""
    r = abs(complex(z))
    if r == 0.0:
        raise ValueError("df/dr is direction-dependent at the origin")
    _check_polar_radius(r)
    return _point_values(a, F, complex(z), q, ("rdr",))[0] / r


def dz_dzbar_f(a, F: BoundaryData, z: complex, q: QuadSpec) -> tuple[complex, complex]:
    """Wirtinger derivatives (df/dz, df/dzbar) at z.

    Uses the polar-frame combination away from the origin; at z = 0 they are
    the circle operator's limit there, c_a (1 + a/2) times the boundary's
    Fourier coefficients of order 1 and -1; 0 < |z| < 1e-8 is refused.
    """
    z = complex(z)
    if z == 0.0:
        dz, dzbar = _circle_spectra(a, F, 0.0, q, ("dz", "dzbar"))
        return complex(_invert(*dz)[0]), complex(_invert(*dzbar)[0])
    _check_polar_radius(abs(z))
    dth, rdr = _point_values(a, F, z, q, ("dtheta", "rdr"))
    return _wirtinger_pair(rdr, dth, z)


# Nodes of sine_moment's Gauss-Legendre rule. They crowd toward t = 0 like (k/n)^2, so
# the rule resolves the kernel peak, of width 1 - r, while (1 - r) n^2 >= 512.
_SINE_NODES = 512
_SINE_R_MAX = 1.0 - 512.0 / (_SINE_NODES * _SINE_NODES)


@lru_cache(maxsize=1)
def _gauss_legendre_0_pi():
    """(nodes, weights) of the _SINE_NODES-point Gauss-Legendre rule on [0, pi], read-only
    and built once: numpy's leggauss costs tens of milliseconds at 512 nodes."""
    x, wts = np.polynomial.legendre.leggauss(_SINE_NODES)
    return _read_only(0.5 * math.pi * (x + 1.0)), _read_only(0.5 * math.pi * wts)


def sine_moment(a, r: float) -> float:
    """Weighted sine moment of the radial-derivative kernel.

    (1 - r^2)^a * int_0^{2pi} r |sin t| / |1 - r e^{it}|^{a+2} dt, the
    quantity controlling the J2 term. Evaluated by 512-point Gauss-Legendre
    on [0, pi], where |sin t| = sin t and the integrand is smooth.

    The rule resolves the kernel peak only for r <= 1 - 1/512; past that it
    raises ValueError. Measured against sine_moment_exact for alpha in
    (-1, 10]: within 2e-11 relative up to that radius.
    """
    a = as_alpha(a)
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    if r > _SINE_R_MAX:
        raise ValueError(f"r must satisfy (1-r) n^2 >= 512 for the {_SINE_NODES}-point rule "
                         f"to resolve the kernel peak (r <= {_SINE_R_MAX:.6g}), got {r}")
    return _sine_rule(a.alpha, r)


def _sine_rule(alpha: float, r: float) -> float:
    """The Gauss-Legendre sum behind sine_moment, at any r in [0, 1)."""
    t, w = _gauss_legendre_0_pi()
    # |1 - r e^{it}|^2 and 1 - r^2 written as in kernel._kernel_formula: no
    # cancellation as r -> 1
    dist_sq = _distance_sq(r, np.sin(0.5 * t) ** 2)
    integral = 2.0 * float(np.sum(w * r * np.sin(t) * dist_sq ** (-0.5 * (alpha + 2.0))))
    return ((1.0 - r) * (1.0 + r)) ** alpha * integral


def sine_moment_exact(alpha: float, r: float) -> float:
    """Closed form of sine_moment: (2/a)((1+r)^a - (1-r)^a), log limit at a=0."""
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    if alpha == 0.0:
        return 2.0 * math.log((1.0 + r) / (1.0 - r))
    return (2.0 / alpha) * ((1.0 + r) ** alpha - (1.0 - r) ** alpha)


def circle_derivs(a, F: BoundaryData, r: float, q: QuadSpec):
    """(df/dtheta, r df/dr) at every grid angle of the circle |z| = r.

    Cyclic-convolution evaluation of the same trapezoid sums the pointwise
    operators use: one kernel spectrum serves the df/dtheta sweep and the
    one fused spectrum of r df/dr.
    """
    dth, rdr = _circle_spectra(a, F, r, q, ("dtheta", "rdr"))
    return _invert(*dth), _invert(*rdr)


@dataclass
class DerivField:
    """Derivative samples on a polar grid: df/dtheta, df/dr, df/dz, df/dzbar.

    flags holds one string per point: "" for a clean value, "origin_fd" at
    z = 0, where df/dr is NaN and the Wirtinger pair is the operator's limit
    (the token's name predates that limit), "under_resolved" when the angular
    grid was too coarse for the point's radius.
    """

    points: np.ndarray
    dtheta: np.ndarray
    dr: np.ndarray
    dz: np.ndarray
    dzbar: np.ndarray
    flags: list = field(default_factory=list)

    def __post_init__(self) -> None:
        n = len(self.points)
        for arr in (self.dtheta, self.dr, self.dz, self.dzbar):
            if len(arr) != n:
                raise ValueError("derivative arrays must match the point count")
        if not self.flags:
            self.flags = [FLAG_NONE] * n
        if len(self.flags) != n:
            raise ValueError("flags must match the point count")

    @property
    def r_max(self) -> float:
        return float(np.max(np.abs(self.points)))

    @classmethod
    def from_wirtinger(cls, points, dz, dzbar, flags=None) -> "DerivField":
        """Build a field from closed-form Wirtinger derivatives.

        df/dtheta = i (z df/dz - zbar df/dzbar); df/dr = (z df/dz +
        zbar df/dzbar)/r, left NaN (and flagged) at the origin.
        """
        points = np.asarray(points, dtype=complex)
        dz = np.asarray(dz, dtype=complex)
        dzbar = np.asarray(dzbar, dtype=complex)
        zq = points * dz
        zbq = np.conj(points) * dzbar
        dtheta = 1j * (zq - zbq)
        r = np.abs(points)
        with np.errstate(invalid="ignore", divide="ignore"):
            dr = np.where(r > 0.0, (zq + zbq) / np.where(r > 0.0, r, 1.0),
                          complex(math.nan, math.nan))
        if flags is None:
            flags = [FLAG_ORIGIN if ri == 0.0 else FLAG_NONE for ri in r]
        return cls(points, dtheta, dr, dz, dzbar, list(flags))


def _point_flag(n: int, r: float) -> str:
    """The flag of a field point at radius r whose derivatives are sums over n nodes."""
    return FLAG_ORIGIN if r == 0.0 else FLAG_UNDER_RESOLVED if _under_resolved(n, r) else FLAG_NONE


def deriv_field(a, F: BoundaryData, q: QuadSpec, n_thetas: int = 256) -> DerivField:
    """Evaluate all four derivatives of the kernel extension on a polar grid.

    Radii come from q.radial_grid; each circle is swept at F's own N samples
    and subsampled to n_thetas output angles (which must divide N). Points
    whose radius needs more than N angular nodes are flagged under_resolved;
    the origin row holds dz_dzbar_f's limit at z = 0; 0 < r < 1e-8 is refused.
    """
    a = as_alpha(a)
    n = F.n_samples
    if n % n_thetas != 0:
        raise ValueError("n_thetas must divide the boundary's sample count")
    stride = n // n_thetas
    sel = np.arange(0, n, stride)
    thetas_out = F.thetas[sel]

    columns, flags = [], []  # one (points, dtheta, dr, dz, dzbar) per circle
    for r in q.radial_grid:
        if r == 0.0:
            dz0, dzbar0 = dz_dzbar_f(a, F, 0.0, q)
            columns.append(([0j], [0j], [complex(math.nan, math.nan)], [dz0], [dzbar0]))
            flags.append(FLAG_ORIGIN)
            continue
        _check_polar_radius(r)
        dth, rdr = circle_derivs(a, F, r, q)
        dth, rdr = dth[sel], rdr[sel]
        zs = r * np.exp(1j * thetas_out)
        columns.append((zs, dth, rdr / r, *_wirtinger_pair(rdr, dth, zs)))
        flags.extend([_point_flag(n, r)] * len(zs))
    return DerivField(*(np.concatenate(col) for col in zip(*columns)), flags)


_DERIV_CSV_HEADER = [
    "r", "theta",
    "re_dtheta", "im_dtheta",
    "re_dr", "im_dr",
    "re_dz", "im_dz",
    "re_dzbar", "im_dzbar",
    "flag",
]


def write_deriv_rows(fh, fld: DerivField) -> None:
    """Write the field as CSV rows, one per grid point, to an open stream."""
    columns = [np.abs(fld.points), np.mod(np.angle(fld.points), 2.0 * np.pi)]
    for arr in (fld.dtheta, fld.dr, fld.dz, fld.dzbar):
        columns += [np.real(arr), np.imag(arr)]
    _write_csv(fh, _DERIV_CSV_HEADER, columns, fld.flags)


def write_deriv_csv(path: str, fld: DerivField) -> None:
    """Write the field as CSV with one row per grid point."""
    with open(path, "w", newline="") as fh:
        write_deriv_rows(fh, fld)


def read_deriv_csv(path: str) -> DerivField:
    """Read a field written by write_deriv_csv; refusals name the file (and line)
    as read_boundary_csv's do, through the same table reader."""
    cols, flags = _read_table(path, _DERIV_CSV_HEADER, len(_DERIV_CSV_HEADER) - 1)
    if not np.all(np.isfinite(cols[:, :2])):
        raise ValueError(f"{path}: r and theta must be finite")
    points = cols[:, 0] * (np.cos(cols[:, 1]) + 1j * np.sin(cols[:, 1]))
    # each row's re, im pairs, viewed as complex: no arithmetic, so inf and nan pass as read
    dtheta, dr, dz, dzbar = cols[:, 2:].copy().view(complex).T
    return DerivField(points, dtheta, dr, dz, dzbar, flags)
