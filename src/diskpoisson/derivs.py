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
the polar frame degenerates; df/dz and df/dzbar fall back to central
finite differences, flagging the point.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .kernel import (
    BoundaryData,
    QuadSpec,
    _circle_spectra,
    _invert,
    _on_quad_grid,
    _point_values,
    _read_only,
    _under_resolved,
    as_alpha,
    poisson_integral,
)

__all__ = [
    "dtheta_f",
    "J1",
    "J2",
    "dr_f",
    "dz_dzbar_f",
    "fd_check",
    "sine_moment",
    "sine_moment_exact",
    "DerivField",
    "deriv_field",
    "circle_derivs",
    "write_deriv_rows",
    "write_deriv_csv",
    "read_deriv_csv",
]

_FD_H = 1e-5

FLAG_NONE = ""
FLAG_ORIGIN = "origin_fd"
FLAG_UNDER_RESOLVED = "under_resolved"


def dtheta_f(a, F: BoundaryData, z, q: QuadSpec) -> complex:
    """Angular derivative df/dtheta at z: the kernel operator applied to dF/dt."""
    return _point_values(a, F, z, q, ("dtheta",))[0]


def J1(a, F: BoundaryData, z, q: QuadSpec) -> complex:
    """First radial piece: alpha times the kernel operator itself."""
    a = as_alpha(a)
    return a.alpha * poisson_integral(a, F, z, q)


def _wirtinger_pair(rdr, dth, z):
    """(df/dz, df/dzbar) from r df/dr and df/dtheta at z != 0 (scalar or array)."""
    return (rdr - 1j * dth) / (2.0 * z), (rdr + 1j * dth) / (2.0 * z.conjugate())


def J2(a, F: BoundaryData, z: complex, q: QuadSpec) -> complex:
    """Second radial piece, the integrated-by-parts form that is finite as r -> 1.

    With z = r e^{i theta}, D(t) = |1 - r e^{it}|^2 and w = 1 - r^2:

        J2 = -(c_a w^a / pi)    int dF/dt(e^{i(t+theta)}) r sin t / D^{(a+2)/2} dt
             -(a c_a w^a / 2pi) int F(e^{i(t+theta)}) (1 - r cos t) / D^{(a+2)/2} dt

    c_a w^a / D^{(a+2)/2} is the kernel K_a(r e^{it}) over w. It is r df/dr - J1.
    """
    a = as_alpha(a)
    f, rdr = _point_values(a, F, complex(z), q, ("f", "rdr"))
    return rdr - a.alpha * f


def dr_f(a, F: BoundaryData, z: complex, q: QuadSpec) -> complex:
    """Radial derivative df/dr = (J1 + J2)/r; undefined (direction-dependent) at 0."""
    r = abs(complex(z))
    if r == 0.0:
        raise ValueError("df/dr is direction-dependent at the origin")
    return _point_values(a, F, complex(z), q, ("rdr",))[0] / r


def dz_dzbar_f(a, F: BoundaryData, z: complex, q: QuadSpec) -> tuple[complex, complex]:
    """Wirtinger derivatives (df/dz, df/dzbar) at z.

    Uses the polar-frame combination away from the origin; at z = 0 falls
    back to central finite differences in x and y with step 1e-5.
    """
    z = complex(z)
    if z == 0.0:
        fxp, fxm, fyp, fym = poisson_integral(a, F, _FD_H * np.array([1, -1, 1j, -1j]), q)
        dx, dy = (fxp - fxm) / (2.0 * _FD_H), (fyp - fym) / (2.0 * _FD_H)
        return (dx - 1j * dy) / 2.0, (dx + 1j * dy) / 2.0
    dth, rdr = _point_values(a, F, z, q, ("dtheta", "rdr"))
    return _wirtinger_pair(rdr, dth, z)


def fd_check(a, F: BoundaryData, z: complex, h: float, q: QuadSpec) -> float:
    """Max relative residual of the four derivatives against central differences.

    Differences of the quadrature values of f itself; expected O(h^2) for
    interior z. Residuals are normalized by max(1, |analytic value|).
    """
    z = complex(z)
    r = abs(z)
    if r == 0.0 or r + h > q.r_max:
        raise ValueError("fd_check needs 0 < |z| and |z| + h <= r_max")
    e = z / r  # e^{i theta}
    pts = [z + h, z - h, z + 1j * h, z - 1j * h,  # x and y
           (r + h) * e, (r - h) * e, z * np.exp(1j * h), z * np.exp(-1j * h)]  # r and theta
    fp = poisson_integral(a, F, np.array(pts), q)
    dx_fd, dy_fd, dr_fd, dth_fd = (fp[0::2] - fp[1::2]) / (2.0 * h)
    fd_wirtinger = ((dx_fd - 1j * dy_fd) / 2.0, (dx_fd + 1j * dy_fd) / 2.0)
    pairs = ((dtheta_f(a, F, z, q), dth_fd), (dr_f(a, F, z, q), dr_fd),
             *zip(dz_dzbar_f(a, F, z, q), fd_wirtinger))
    return max(abs(got - ref) / max(1.0, abs(got)) for got, ref in pairs)


@lru_cache(maxsize=8)
def _gauss_legendre_0_pi(n: int):
    """(nodes, weights) of the n-point Gauss-Legendre rule on [0, pi], read-only and
    shared per n: numpy's leggauss costs tens of milliseconds at n = 512."""
    x, wts = np.polynomial.legendre.leggauss(n)
    return _read_only(0.5 * math.pi * (x + 1.0)), _read_only(0.5 * math.pi * wts)


# The n-point rule below resolves the kernel peak, of width 1 - r, while (1 - r) n^2 >= this.
_SINE_RESOLVED = 512.0
# The largest n sine_moment accepts: numpy's leggauss holds an n x n matrix, 8 n^2 bytes.
_SINE_MAX_NODES = 4096


def sine_moment(a, r: float, n: int = 512) -> float:
    """Weighted sine moment of the radial-derivative kernel.

    (1 - r^2)^a * int_0^{2pi} r |sin t| / |1 - r e^{it}|^{a+2} dt, the
    quantity controlling the J2 term. Evaluated by Gauss-Legendre on
    [0, pi], where |sin t| = sin t and the integrand is smooth.

    The nodes crowd toward t = 0 like (k/n)^2, so the rule resolves the kernel
    peak, of width 1 - r, only while (1 - r) n^2 >= 512 (r <= 1 - 1/512 at
    n = 512); past that it raises ValueError. Measured against sine_moment_exact
    for alpha in (-1, 10]: within 2e-11 relative for n <= 1024 and 1e-9 up to
    n = 4096, where the nodes limit it; 4e-7 off at (1 - r) n^2 = 256. n past
    4096 raises ValueError before any rule is built.
    """
    a = as_alpha(a)
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    if not 1 <= n <= _SINE_MAX_NODES:
        raise ValueError(f"n must lie in [1, {_SINE_MAX_NODES}], got {n}")
    if (1.0 - r) * n * n < _SINE_RESOLVED:
        r_max = 1.0 - _SINE_RESOLVED / (n * n)
        raise ValueError(f"r must satisfy (1-r) n^2 >= {_SINE_RESOLVED:g} for the {n}-point rule "
                         f"to resolve the kernel peak (r <= {r_max:.6g}), got {r}")
    return _sine_rule(a.alpha, r, n)


def _sine_rule(alpha: float, r: float, n: int) -> float:
    """The n-point Gauss-Legendre sum behind sine_moment, at any r in [0, 1)."""
    t, w = _gauss_legendre_0_pi(n)
    # |1 - r e^{it}|^2 and 1 - r^2 written as kernel._kernel_formula writes them: no
    # cancellation as r -> 1
    dist_sq = (1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * t) ** 2
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

    flags holds one string per point: "" for a clean value, "origin_fd" when
    the Wirtinger pair came from finite differences at z = 0 (df/dr is NaN
    there), "under_resolved" when the angular grid was too coarse for the
    point's radius.
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


def deriv_field(a, F: BoundaryData, q: QuadSpec, n_thetas: int = 256) -> DerivField:
    """Evaluate all four derivatives of the kernel extension on a polar grid.

    Radii come from q.radial_grid; each circle is swept at q.angular_nodes
    and subsampled to n_thetas output angles (which must divide it). Points
    whose radius needs more than q.angular_nodes angular nodes are flagged
    under_resolved; the origin uses the finite-difference fallback.
    """
    a = as_alpha(a)
    F = _on_quad_grid(F, q)
    n = F.n_samples
    if n % n_thetas != 0:
        raise ValueError("n_thetas must divide the angular node count")
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
        dth, rdr = circle_derivs(a, F, r, q)
        dth, rdr = dth[sel], rdr[sel]
        zs = r * np.exp(1j * thetas_out)
        columns.append((zs, dth, rdr / r, *_wirtinger_pair(rdr, dth, zs)))
        point_flag = FLAG_UNDER_RESOLVED if _under_resolved(n, r) else FLAG_NONE
        flags.extend([point_flag] * len(zs))
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
    r = np.abs(fld.points)
    theta = np.mod(np.angle(fld.points), 2.0 * np.pi)
    columns = [r.tolist(), theta.tolist()]
    for arr in (fld.dtheta, fld.dr, fld.dz, fld.dzbar):
        columns += [np.real(arr).tolist(), np.imag(arr).tolist()]
    writer = csv.writer(fh)
    writer.writerow(_DERIV_CSV_HEADER)
    writer.writerows(zip(*columns, fld.flags))  # csv writes a float as its repr


def write_deriv_csv(path: str, fld: DerivField) -> None:
    """Write the field as CSV with one row per grid point."""
    with open(path, "w", newline="") as fh:
        write_deriv_rows(fh, fld)


def read_deriv_csv(path: str) -> DerivField:
    """Read a field written by write_deriv_csv.

    Every refusal is a ValueError that names the file, and the line when
    one row is at fault, as read_boundary_csv's do.
    """
    n_fields = len(_DERIV_CSV_HEADER)
    numbers = array("d")  # every field of every row but the flag, as packed doubles
    flags = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != _DERIV_CSV_HEADER:
                raise ValueError(f"{path}: unexpected derivative CSV header: {header!r}")
            for row in reader:
                if len(row) != n_fields:
                    raise ValueError(f"{path}, line {reader.line_num}: expected {n_fields} "
                                     f"fields, got {len(row)}")
                try:
                    numbers.extend([float(x) for x in row[:-1]])
                except ValueError:
                    raise ValueError(f"{path}, line {reader.line_num}: every field but the "
                                     f"flag must be a real number, got {row!r}") from None
                flags.append(row[-1])
        except csv.Error as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    cols = np.frombuffer(numbers).reshape(len(flags), n_fields - 1)
    points = np.array([r * complex(math.cos(theta), math.sin(theta))
                       for r, theta in cols[:, :2].tolist()], dtype=complex)
    dtheta, dr, dz, dzbar = (cols[:, 2 + 2 * k] + 1j * cols[:, 3 + 2 * k] for k in range(4))
    return DerivField(points, dtheta, dr, dz, dzbar, flags)
