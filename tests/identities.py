"""The paper's radial-derivative identity and the reference kernel, for the tests.

r df/dr = J1 + J2, where J1 = alpha f and J2 is the integrated-by-parts pair of
real-kernel integrals that stays finite as r -> 1. J2 is written out here as a
trapezoid sum with kernel_K, the kernel written as the paper writes it, so the
tests check the library's r df/dr against code that shares nothing with its
operators but poisson_integral (in J1) and boundary_derivative. fd_check
checks all four derivatives against central differences of f.
"""

import numpy as np

from diskpoisson.derivs import dr_f, dtheta_f, dz_dzbar_f
from diskpoisson.kernel import (
    BoundaryData,
    QuadSpec,
    _uniform_thetas,
    as_alpha,
    boundary_derivative,
    poisson_integral,
)


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


def J1(a, F: BoundaryData, z, q: QuadSpec) -> complex:
    """First radial piece: alpha times the kernel operator itself."""
    a = as_alpha(a)
    return a.alpha * poisson_integral(a, F, z, q)


def J2(a, F: BoundaryData, z: complex, q: QuadSpec) -> complex:
    """Second radial piece at a scalar z, the integrated-by-parts form that is finite as
    r -> 1, summed by the trapezoid rule over F's own samples.

    With z = r e^{i theta}, D(t) = |1 - r e^{it}|^2 and w = 1 - r^2:

        J2 = -(c_a w^a / pi)    int dF/dt(e^{i(t+theta)}) r sin t / D^{(a+2)/2} dt
             -(a c_a w^a / 2pi) int F(e^{i(t+theta)}) (1 - r cos t) / D^{(a+2)/2} dt

    c_a w^a / D^{(a+2)/2} is the kernel K_a(r e^{it}) over w.
    """
    a = as_alpha(a)
    z = complex(z)
    n, r = F.n_samples, abs(z)
    t = _uniform_thetas(n) - np.angle(z)
    K = kernel_K(a, z * np.exp(-1j * _uniform_thetas(n)))
    dF = boundary_derivative(F).values
    return complex(-np.sum(2.0 * r * np.sin(t) * K * dF
                           + a.alpha * (1.0 - r * np.cos(t)) * K * F.values) / (n * (1.0 - r * r)))


def fd_check(a, F: BoundaryData, z: complex, h: float, q: QuadSpec) -> float:
    """Max relative residual of the four derivatives against central differences.

    Differences of the quadrature values of f itself; expected O(h^2) for
    interior z, 0 < |z| and |z| + h <= q.r_max. Residuals are normalized by
    max(1, |analytic value|).
    """
    z = complex(z)
    r = abs(z)
    e = z / r  # e^{i theta}
    pts = [z + h, z - h, z + 1j * h, z - 1j * h,  # x and y
           (r + h) * e, (r - h) * e, z * np.exp(1j * h), z * np.exp(-1j * h)]  # r and theta
    fp = poisson_integral(a, F, np.array(pts), q)
    dx_fd, dy_fd, dr_fd, dth_fd = (fp[0::2] - fp[1::2]) / (2.0 * h)
    fd_wirtinger = ((dx_fd - 1j * dy_fd) / 2.0, (dx_fd + 1j * dy_fd) / 2.0)
    pairs = ((dtheta_f(a, F, z, q), dth_fd), (dr_f(a, F, z, q), dr_fd),
             *zip(dz_dzbar_f(a, F, z, q), fd_wirtinger))
    return max(abs(got - ref) / max(1.0, abs(got)) for got, ref in pairs)
