"""Acceptance suite: ten end-to-end criteria, one printed pass/fail line each.

Run with -s to see the per-criterion lines on passing runs; pytest shows
them automatically for any failing criterion.
"""

import math
import warnings

import numpy as np
import pytest

from diskpoisson.derivs import (
    circle_derivs,
    sine_moment,
    sine_moment_exact,
)
from diskpoisson.elliptic import ellipticity_report
from diskpoisson.kernel import (
    BoundaryData,
    QuadSpec,
    ResolutionWarning,
    boundary_derivative,
    poisson_integral,
)
from diskpoisson.mappings import (
    HypMonomial,
    log_series_boundary,
    log_series_field,
    phase_boundary,
    phase_field,
)
from diskpoisson.norms import (
    KernelQuantity,
    bergman_norm,
    divergence_probe,
    hardy_norm,
    integral_mean,
    lp_norm_circle,
)
from diskpoisson.regimes import certification_grid
from diskpoisson.specfun import beta_integral, gamma, gauss_value, hyp2f1
from diskpoisson.derivs import DerivField
from identities import J1, J2

Q = QuadSpec()


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _bundled_boundaries():
    return [
        ("hyp-monomial", HypMonomial(-0.5, 1).boundary(2048)),
        ("piecewise-phase", phase_boundary(2048)),
        ("log-series", log_series_boundary(2048)),
    ]


def test_criterion_01_hypergeometric_oracle():
    rng = np.random.default_rng(7)
    pts = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, 50)) * np.exp(
        2j * np.pi * rng.uniform(0.0, 1.0, 50))
    worst = 0.0
    for alpha in (-0.9, -0.5, -0.1):
        for n in (1, 2, 3):
            m = HypMonomial(alpha=alpha, n=n)
            F = m.boundary(Q.angular_nodes)
            for z in pts:
                got = poisson_integral(alpha, F, complex(z), Q)
                want = m.value(complex(z))
                worst = max(worst, abs(got - want) / abs(want))
    _verdict(1, "hypergeometric oracle", worst <= 1e-6,
             f"max rel err {worst:.2e} over 9 parameter pairs x 50 points")


def test_criterion_02_harmonic_degeneration():
    worst = 0.0
    for n in range(1, 9):
        F = BoundaryData.from_function(
            lambda t, n=n: np.exp(1j * n * np.asarray(t)), Q.angular_nodes,
            deriv=lambda t, n=n: 1j * n * np.exp(1j * n * np.asarray(t)))
        for k in range(20):
            r = 0.9 * (k + 1) / 20.0
            theta = 2.0 * np.pi * k / 20.0
            z = r * complex(math.cos(theta), math.sin(theta))
            got = poisson_integral(0.0, F, z, Q)
            want = (r ** n) * complex(math.cos(n * theta), math.sin(n * theta))
            worst = max(worst, abs(got - want))
    _verdict(2, "harmonic degeneration", worst <= 1e-8,
             f"max abs err {worst:.2e} for exponents 1..8")


def test_criterion_03_radial_derivative_split():
    F = BoundaryData.from_function(
        lambda t: np.exp(1j * np.asarray(t)) + 0.3 * np.exp(-2j * np.asarray(t)) + 0.7,
        Q.angular_nodes,
        deriv=lambda t: 1j * np.exp(1j * np.asarray(t))
        - 0.6j * np.exp(-2j * np.asarray(t)),
    )
    h = 1e-4
    radii = np.linspace(0.08, 0.85, 10)
    angles = 2.0 * np.pi * (np.arange(10) + 0.37) / 10.0
    worst = 0.0
    checked = 0
    for alpha in (-0.5, 0.0, 1.0):
        for r in radii:
            for theta in angles:
                z = r * complex(math.cos(theta), math.sin(theta))
                got = J1(alpha, F, z, Q) + J2(alpha, F, z, Q)
                fp = poisson_integral(alpha, F, (r + h) * np.exp(1j * theta), Q)
                fm = poisson_integral(alpha, F, (r - h) * np.exp(1j * theta), Q)
                ref = r * (fp - fm) / (2.0 * h)
                worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
                checked += 1
    _verdict(3, "radial derivative split", worst <= 1e-6,
             f"max scaled residual {worst:.2e} vs finite differences "
             f"at {checked} grid points")


def _resolved_nodes(base: int, r: float, cap: int = 1 << 17) -> int:
    want = 32.0 / max(1.0 - r, 1e-9)
    n = base
    while n < want and n < cap:
        n *= 2
    return n


def test_criterion_04_angular_derivative_bound():
    worst = -np.inf
    for name, F in _bundled_boundaries():
        can_resample = F.closed_form is not None
        for alpha in (-0.5, 0.0, 1.0):
            cache = {}
            for r in Q.radial_grid:
                n_eff = (_resolved_nodes(Q.angular_nodes, float(r))
                         if can_resample else F.n_samples)
                if n_eff not in cache:
                    F_eff = F.resample(n_eff) if can_resample else F
                    q_eff = QuadSpec(angular_nodes=n_eff, r_max=Q.r_max,
                                     radial_grid=Q.radial_grid)
                    rhs = {p: lp_norm_circle(boundary_derivative(F_eff), p)
                           for p in (1.0, 2.0, 4.0)}
                    cache[n_eff] = (F_eff, q_eff, rhs)
                F_eff, q_eff, rhs = cache[n_eff]
                dth, _ = circle_derivs(alpha, F_eff, float(r), q_eff)
                for p in (1.0, 2.0, 4.0):
                    worst = max(worst, integral_mean(dth, float(r), p) - rhs[p])
    _verdict(4, "angular derivative bound", worst <= 1e-6,
             f"max of M_p(r, df/dtheta) - ||dF/dt||_p is {worst:.2e} "
             "over 3 boundaries x 3 alphas x p in {1,2,4} x full radial grid")


def test_criterion_05_certification_grid():
    records = certification_grid(Q)
    bad = [rec for rec in records if not rec.holds]
    _verdict(5, "certification grid", not bad,
             f"{len(records) - len(bad)}/{len(records)} checks hold "
             "at additive slack 1e-8")


def test_criterion_06_sine_moment_closed_form():
    worst = 0.0
    for alpha in (-0.5, 0.0, 1.0):
        for r in (0.25, 0.5, 0.9):
            got = sine_moment(alpha, r)
            want = sine_moment_exact(alpha, r)
            worst = max(worst, abs(got - want) / abs(want))
    _verdict(6, "sine moment closed form", worst <= 1e-6,
             f"max rel err {worst:.2e} on 3 alphas x 3 radii")


def test_criterion_07_divergence_regime_map():
    m = HypMonomial(-0.5, 1)
    cutoffs = (0.9, 0.99, 0.999)
    picks = {"dz": 0, "dzbar": 1, "dr": 2}
    problems = []
    expos = []
    for quantity in ("dr", "dz", "dzbar"):
        fn = lambda z, i=picks[quantity]: m.derivs(z, tol=1e-12)[i]
        for p in (1.0, 2.0):
            rep = divergence_probe(fn, p=p, cutoffs=cutoffs, kind="hardy", q=Q,
                                   quantity=quantity, alpha=-0.5)
            if not rep.diverging:
                problems.append(f"hardy {quantity} p={p} not diverging")
            if rep.exponent is None or abs(rep.exponent - (-0.5)) > 0.05:
                problems.append(f"hardy {quantity} p={p} exponent {rep.exponent}")
            else:
                expos.append(rep.exponent)
    fn = lambda z: m.derivs(z, tol=1e-12)[1]
    for p, want_div in ((1.0, False), (1.5, False), (2.0, True), (3.0, True)):
        rep = divergence_probe(fn, p=p, cutoffs=cutoffs, kind="bergman", q=Q,
                               quantity="dzbar", alpha=-0.5)
        if rep.diverging != want_div:
            problems.append(f"bergman dzbar p={p} diverging={rep.diverging}")
    detail = ("; ".join(problems) if problems else
              f"hardy exponents in [{min(expos):.3f}, {max(expos):.3f}], "
              "bergman split at p = 2")
    _verdict(7, "divergence regime map", not problems, detail)


def test_criterion_08_norm_inclusion_chain():
    worst_bh = -np.inf
    worst_pp = -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        for name, F in _bundled_boundaries():
            for alpha in (-0.5, 0.0, 1.0):
                kq = KernelQuantity(alpha, F, "f")
                hv = {p: hardy_norm(kq, p, Q).value for p in (1.0, 2.0, 4.0)}
                bv = {p: bergman_norm(kq, p, Q).value for p in (1.0, 2.0, 4.0)}
                for p in (1.0, 2.0, 4.0):
                    worst_bh = max(worst_bh, bv[p] - hv[p])
                for p1, p2 in ((1.0, 2.0), (2.0, 4.0)):
                    worst_pp = max(worst_pp, hv[p1] - hv[p2])
    ok = worst_bh <= 1e-9 and worst_pp <= 1e-9
    _verdict(8, "norm inclusion chain", ok,
             f"max Bergman-minus-Hardy {worst_bh:.2e}, "
             f"max p-chain violation {worst_pp:.2e}, slack 1e-9")


def _nested_fields(builder, radii, n_thetas=64):
    fields = []
    pts: list = []
    for r in radii:
        thetas = 2.0 * np.pi * np.arange(n_thetas) / n_thetas
        pts = pts + list(r * np.exp(1j * thetas))
        fields.append(builder(np.asarray(pts, dtype=complex)))
    return fields


def test_criterion_09_ellipticity_falsification():
    k_list = (1.0, 10.0, 100.0)
    m = HypMonomial(-0.5, 1)
    verdicts = {}
    verdicts["identity"] = ellipticity_report(
        _nested_fields(
            lambda pts: DerivField.from_wirtinger(
                pts, np.ones(len(pts), dtype=complex),
                np.zeros(len(pts), dtype=complex)),
            (0.25, 0.5, 0.75)),
        k_list).verdict
    verdicts["hyp-monomial"] = ellipticity_report(
        _nested_fields(lambda pts: m.field(pts, tol=1e-6),
                       (1.0 - 1e-3, 1.0 - 1e-4, 1.0 - 1e-5, 1.0 - 1e-6)),
        k_list).verdict
    verdicts["log-series"] = ellipticity_report(
        _nested_fields(lambda pts: log_series_field(pts, n_trunc=50000),
                       (0.9, 0.99, 0.999)),
        k_list).verdict
    verdicts["piecewise-phase"] = ellipticity_report(
        _nested_fields(phase_field, (0.9, 0.99, 0.999)),
        k_list).verdict
    ok = (verdicts["identity"] == "elliptic_candidate"
          and verdicts["hyp-monomial"] == "non_elliptic_trend"
          and verdicts["log-series"] == "non_elliptic_trend"
          and verdicts["piecewise-phase"] == "non_elliptic_trend")
    _verdict(9, "ellipticity falsification", ok, f"verdicts: {verdicts}")


def test_criterion_10_special_function_suite():
    problems = []

    worst = 0.0
    for x in np.arange(-9.75, 30.0, 0.25):
        if x <= 0.0 and float(x) == math.floor(x):
            continue
        worst = max(worst, abs(gamma(float(x)) - math.gamma(float(x)))
                    / abs(math.gamma(float(x))))
    if worst > 1e-12:
        problems.append(f"gamma vs stdlib rel {worst:.2e}")

    worst = 0.0
    for x in (0.1, 0.3, 0.5, 0.7, 0.9, -0.25, -1.75, -4.5):
        lhs = gamma(x) * gamma(1.0 - x)
        rhs = math.pi / math.sin(math.pi * x)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    if worst > 1e-10:
        problems.append(f"reflection identity rel {worst:.2e}")

    worst = 0.0
    for a, b, c in ((1.25, 2.25, 3.0), (0.5, 0.75, 2.0), (-0.25, 1.5, 2.5)):
        for x in (0.5, 0.8, 0.9, 0.94):
            direct = hyp2f1(a, b, c, x)
            transformed = (1.0 - x) ** (c - a - b) * hyp2f1(c - a, c - b, c, x)
            worst = max(worst, abs(direct - transformed) / abs(direct))
    if worst > 1e-9:
        problems.append(f"Euler transformation rel {worst:.2e}")

    def series_at_one(a, b, c, terms=20000):
        term, total = 1.0, 1.0
        for k in range(terms):
            term *= (a + k) * (b + k) / ((1.0 + k) * (c + k))
            total += term
        return total

    worst = 0.0
    for a, b, c in ((0.5, 0.25, 3.0), (-0.25, 0.5, 3.5), (1.0, 0.5, 4.0)):
        got = gauss_value(a, b, c)
        want = series_at_one(a, b, c)
        worst = max(worst, abs(got - want) / abs(want))
    if worst > 1e-8:
        problems.append(f"summation at x=1 vs partial sums rel {worst:.2e}")

    nodes, weights = np.polynomial.legendre.leggauss(200)
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    worst = 0.0
    for s, t in ((1.0, 2.0), (2.0, 3.0), (0.0, 4.0), (3.0, 0.0)):
        quad = float(np.sum(w * (1.0 - u) ** s * u ** t))
        worst = max(worst, abs(beta_integral(s, t) - quad) / quad)
    if worst > 1e-10:
        problems.append(f"beta integral vs quadrature rel {worst:.2e}")
    worst = 0.0
    for s, t in ((0.5, 1.5), (-0.5, 2.0), (3.3, 0.7)):
        want = (math.gamma(s + 1.0) * math.gamma(t + 1.0)
                / math.gamma(s + t + 2.0))
        worst = max(worst, abs(beta_integral(s, t) - want) / want)
    if worst > 1e-12:
        problems.append(f"beta integral vs stdlib gamma rel {worst:.2e}")

    _verdict(10, "special function suite", not problems,
             "; ".join(problems) if problems else
             "gamma, reflection, transformation, summation, beta all "
             "within module tolerances")
