"""The paper's radial-derivative identity and the reference kernel, for the tests.

r df/dr = J1 + J2, where J1 = alpha f and J2 is the integrated-by-parts pair of
real-kernel integrals that stays finite as r -> 1. J2 is written out here as a
trapezoid sum with kernel_K, the kernel written as the paper writes it, so the
tests check the library's r df/dr against code that shares nothing with its
operators but poisson_integral (in J1) and boundary_derivative. fd_check
checks all four derivatives against central differences of f. harmonic_sums
is the alpha = 0 oracle: the Poisson kernel's modes are r^|k|, so f and its
partials are power sums of the samples' spectrum, summed here in long double.
mirror spreads a half band of spectrum bins over all N, the oracle the tests
hold the circle operator's spectra to.
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


def mirror(plus: np.ndarray, n: int, minus=None) -> np.ndarray:
    """All n bins of a spectrum from its half band of L <= n/2 + 1 bins: bin k < L is
    plus[k], bin n-k (0 < k < min(L, n/2)) is minus[k], or plus[k] when minus is None (an
    even spectrum), and the bins between are 0. For a real, even k of even length n,
    fft(k) is mirror(rfft(k).real, n): one real FFT gives the whole spectrum."""
    out = np.zeros(n, dtype=plus.dtype)
    out[:len(plus)] = plus
    k = min(len(plus), n // 2)
    out[:-k:-1] = (plus if minus is None else minus)[1:k]
    return out


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



def harmonic_sums(F: BoundaryData, rho, theta) -> dict:
    """The alpha = 0 extension of F's samples and its partials at the points rho e^{i theta}
    (long-double arrays or scalars), as power sums summed in long double over the signed
    frequencies -N/2 < k <= N/2 of X = fft(F) / N and G = fft(dF/dt) / N, G_0 taken as 0:

        f = sum_k X_k rho^|k| w_k,    df/dtheta = sum_k G_k rho^|k| w_k,

    with w_k = e^{ik theta}, but cos(N theta / 2) for the Nyquist bin k = N/2. r df/dr and
    df/dr take G_k with the weights -i sign(k) rho^|k| and -i sign(k) rho^(|k|-1) (|k| X_k
    when G_k = ik X_k), df/dz their terms k > 0 times e^{-i theta} and df/dzbar their terms
    k < 0 times e^{i theta}. Returns {name: complex128 array}, one value per point."""
    n = F.n_samples
    X, G = ((np.fft.fft(H.values) / n).astype(np.clongdouble)
            for H in (F, boundary_derivative(F)))
    G[0] = 0.0
    k = np.arange(-(n // 2) + 1, n // 2 + 1)
    xk, gk, kl = X[k], G[k], k.astype(np.longdouble)
    ak = np.abs(kl)
    rho, theta = (np.atleast_1d(np.asarray(v, dtype=np.longdouble)).reshape(-1, 1)
                  for v in (rho, theta))
    waves = np.exp(1j * kl * theta)
    waves[:, -1] = np.cos(0.5 * n * theta[:, 0])
    powers = rho ** ak * waves
    d_terms = -1j * np.sign(kl) * gk * rho ** np.maximum(ak - 1, 0) * waves  # 0 at k = 0
    out = {
        "f": (xk * powers).sum(axis=1),
        "dtheta": (gk * powers).sum(axis=1),
        "rdr": (-1j * np.sign(kl) * gk * powers).sum(axis=1),
        "dr": d_terms.sum(axis=1),
        "dz": (d_terms * (k > 0)).sum(axis=1) * np.exp(-1j * theta[:, 0]),
        "dzbar": (d_terms * (k < 0)).sum(axis=1) * np.exp(1j * theta[:, 0]),
    }
    return {name: v.astype(complex) for name, v in out.items()}
