"""Partial derivatives of kernel-reproduced disk functions.

For f(z) = (1/2pi) int K_a(z e^{-it}) F(e^{it}) dt the angular derivative
is the same operator applied to dF/dt. The radial derivative splits as
r df/dr = J1 + J2 where J1 = a f (the kernel reproduces it directly) and
J2 is an integrated-by-parts pair of real-kernel integrals that stays
finite as r -> 1. The Wirtinger derivatives follow from the polar frame:

    df/dz    = (r df/dr - i df/dtheta) / (2 z)
    df/dzbar = (r df/dr + i df/dtheta) / (2 conj(z))

Every dF/dt here is kernel.boundary_derivative(F), and every spectrum of
F or dF/dt is the one memoized on it. On a circle every one of these
trapezoid sums is a product of a kernel spectrum with fft(F) or fft(dF/dt),
and kernel._circle_spectra, the one circle operator, gives each quantity
as one spectrum: J1, both J2 integrals and, for the Wirtinger pair,
i df/dtheta add up in the spectrum, and the frame factor e^{+-i theta} is a
roll by one bin. circle_derivs inverts its df/dtheta and r df/dr spectra.
The pointwise J2 rotates dF/dt with the code that rotates F. At the origin the
polar frame degenerates; df/dz and df/dzbar fall back to central finite
differences, flagging the point.
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
    _grid_kernel,
    _grid_sin,
    _half_angle_sin2,
    _invert,
    _on_quad_grid,
    _read_only,
    _under_resolved,
    as_alpha,
    boundary_derivative,
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
    return poisson_integral(a, boundary_derivative(F), z, q)


def J1(a, F: BoundaryData, z, q: QuadSpec) -> complex:
    """First radial piece: alpha times the kernel operator itself."""
    a = as_alpha(a)
    return a.alpha * poisson_integral(a, F, z, q)


def _shifted_samples(F: BoundaryData, theta: float) -> np.ndarray:
    """Samples of F at the rotated grid t_j + theta."""
    if F.closed_form is not None:
        return np.asarray(F.closed_form(F.thetas + theta), dtype=complex)
    ks = np.fft.fftfreq(F.n_samples, d=1.0 / F.n_samples)
    return np.fft.ifft(F._spectrum() * np.exp(1j * ks * theta))


def _wirtinger_pair(rdr, dth, z):
    """(df/dz, df/dzbar) from r df/dr and df/dtheta at z != 0 (scalar or array)."""
    return (rdr - 1j * dth) / (2.0 * z), (rdr + 1j * dth) / (2.0 * z.conjugate())


def J2(a, F: BoundaryData, z: complex, q: QuadSpec) -> complex:
    """Second radial piece, the integrated-by-parts form that is finite as r -> 1.

    With z = r e^{i theta}, D(t) = |1 - r e^{it}|^2 and w = 1 - r^2:

        J2 = -(c_a w^a / pi)    int dF/dt(e^{i(t+theta)}) r sin t / D^{(a+2)/2} dt
             -(a c_a w^a / 2pi) int F(e^{i(t+theta)}) (1 - r cos t) / D^{(a+2)/2} dt

    c_a w^a / D^{(a+2)/2} is the kernel K_a(r e^{it}) over w, w is (1-r)(1+r), and
    1 - r cos t is written as (1-r) + 2r sin^2(t/2): neither cancels as r -> 1.
    """
    a = as_alpha(a)
    z = complex(z)
    r = abs(z)
    if r > q.r_max:
        raise ValueError(f"evaluation point must satisfy |z| <= r_max = {q.r_max}")
    F = _on_quad_grid(F, q)
    n = F.n_samples
    theta = math.atan2(z.imag, z.real)
    kern, w = _grid_kernel(a, r, n), (1.0 - r) * (1.0 + r)
    k1 = r * _grid_sin(n) * kern
    k2 = ((1.0 - r) + 2.0 * r * _half_angle_sin2(n)) * kern
    fdot = _shifted_samples(boundary_derivative(F), theta)
    fval = _shifted_samples(F, theta)
    dt = 2.0 * np.pi / n
    term1 = -1.0 / (np.pi * w) * np.sum(fdot * k1) * dt
    term2 = -a.alpha / (2.0 * np.pi * w) * np.sum(fval * k2) * dt
    return complex(term1 + term2)


def dr_f(a, F: BoundaryData, z: complex, q: QuadSpec) -> complex:
    """Radial derivative df/dr = (J1 + J2)/r; undefined (direction-dependent) at 0."""
    r = abs(complex(z))
    if r == 0.0:
        raise ValueError("df/dr is direction-dependent at the origin")
    return (J1(a, F, z, q) + J2(a, F, z, q)) / r


def dz_dzbar_f(a, F: BoundaryData, z: complex, q: QuadSpec) -> tuple[complex, complex]:
    """Wirtinger derivatives (df/dz, df/dzbar) at z.

    Uses the polar-frame combination away from the origin; at z = 0 falls
    back to central finite differences in x and y with step 1e-5.
    """
    z = complex(z)
    if z == 0.0:
        h = _FD_H
        fxp = poisson_integral(a, F, h, q)
        fxm = poisson_integral(a, F, -h, q)
        fyp = poisson_integral(a, F, 1j * h, q)
        fym = poisson_integral(a, F, -1j * h, q)
        dx = (fxp - fxm) / (2.0 * h)
        dy = (fyp - fym) / (2.0 * h)
        return (dx - 1j * dy) / 2.0, (dx + 1j * dy) / 2.0
    rdr = J1(a, F, z, q) + J2(a, F, z, q)
    return _wirtinger_pair(rdr, dtheta_f(a, F, z, q), z)


def fd_check(a, F: BoundaryData, z: complex, h: float, q: QuadSpec) -> float:
    """Max relative residual of the four derivatives against central differences.

    Differences of the quadrature values of f itself; expected O(h^2) for
    interior z. Residuals are normalized by max(1, |analytic value|).
    """
    z = complex(z)
    r = abs(z)
    if r == 0.0 or r + h > q.r_max:
        raise ValueError("fd_check needs 0 < |z| and |z| + h <= r_max")
    theta = math.atan2(z.imag, z.real)

    def f(p):
        return poisson_integral(a, F, p, q)

    dx_fd = (f(z + h) - f(z - h)) / (2.0 * h)
    dy_fd = (f(z + 1j * h) - f(z - 1j * h)) / (2.0 * h)
    dz_fd = (dx_fd - 1j * dy_fd) / 2.0
    dzbar_fd = (dx_fd + 1j * dy_fd) / 2.0
    dr_fd = (f((r + h) * np.exp(1j * theta)) - f((r - h) * np.exp(1j * theta))) / (2.0 * h)
    dth_fd = (f(r * np.exp(1j * (theta + h))) - f(r * np.exp(1j * (theta - h)))) / (2.0 * h)

    dth = dtheta_f(a, F, z, q)
    drv = dr_f(a, F, z, q)
    dzv, dzbarv = dz_dzbar_f(a, F, z, q)

    resid = 0.0
    for got, ref in ((dth, dth_fd), (drv, dr_fd), (dzv, dz_fd), (dzbarv, dzbar_fd)):
        resid = max(resid, abs(got - ref) / max(1.0, abs(got)))
    return resid


@lru_cache(maxsize=8)
def _gauss_legendre_0_pi(n: int):
    """(nodes, weights) of the n-point Gauss-Legendre rule on [0, pi], read-only and
    shared per n: numpy's leggauss costs tens of milliseconds at n = 512."""
    x, wts = np.polynomial.legendre.leggauss(n)
    return _read_only(0.5 * math.pi * (x + 1.0)), _read_only(0.5 * math.pi * wts)


# The n-point rule below resolves the kernel peak, of width 1 - r, while (1 - r) n^2 >= this.
_SINE_RESOLVED = 512.0


def sine_moment(a, r: float, n: int = 512) -> float:
    """Weighted sine moment of the radial-derivative kernel.

    (1 - r^2)^a * int_0^{2pi} r |sin t| / |1 - r e^{it}|^{a+2} dt, the
    quantity controlling the J2 term. Evaluated by Gauss-Legendre on
    [0, pi], where |sin t| = sin t and the integrand is smooth.

    The nodes crowd toward t = 0 like (k/n)^2, so the rule resolves the kernel
    peak, of width 1 - r, only while (1 - r) n^2 >= 512 (r <= 1 - 1/512 at
    n = 512); past that it raises ValueError. Measured against sine_moment_exact
    for alpha in (-1, 10]: within 2e-11 relative for n <= 1024 and 1e-9 up to
    n = 4096, where the nodes limit it; 4e-7 off at (1 - r) n^2 = 256.
    """
    a = as_alpha(a)
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    if (1.0 - r) * n * n < _SINE_RESOLVED:
        r_max = 1.0 - _SINE_RESOLVED / (n * n)
        raise ValueError(f"r must satisfy (1-r) n^2 >= {_SINE_RESOLVED:g} for the {n}-point rule "
                         f"to resolve the kernel peak (r <= {r_max:.6g}), got {r}")
    return _sine_rule(a.alpha, r, n)


def _sine_rule(alpha: float, r: float, n: int) -> float:
    """The n-point Gauss-Legendre sum behind sine_moment, at any r in [0, 1)."""
    t, w = _gauss_legendre_0_pi(n)
    # |1 - r e^{it}|^2 and 1 - r^2 written as _grid_kernel writes them: no cancellation as r -> 1
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
