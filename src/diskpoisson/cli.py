"""Command line front end.

Subcommands: eval (field values or derivative fields), norm (growth
probes), regime (parameter classification), verify (certification
suites), example (bundled boundary data), report (bundled summary).

Exit status: 0 on success with every certification holding, 1 when any
certification fails, 2 on a usage or domain error. JSON reports are
emitted with sorted keys and fixed indentation so identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Optional, Sequence

import numpy as np

from .derivs import (
    DerivField,
    _point_flag,
    deriv_field,
    dz_dzbar_f,
    sine_moment,
    sine_moment_exact,
    write_deriv_rows,
)
from .elliptic import ellipticity_report
from .kernel import (
    BoundaryData,
    QuadSpec,
    _ANGULAR_CAP,
    _uniform_thetas,
    _write_csv,
    circle_poisson_values,
    poisson_integral,
    read_boundary_csv,
    write_boundary_csv,
)
from .mappings import (
    HypMonomial,
    _SERIES_TERM_CAP,
    _log_series_circle,
    _phase_circle,
    log_series_boundary,
    phase_boundary,
)
from .norms import (
    KernelQuantity,
    QUANTITIES,
    _finite_means,
    _growth_report,
    _mean_p,
    _plan_probe,
    divergence_probe,
)
from .regimes import (
    CertificationRecord,
    _boundary_checks,
    certification_grid,
    classify,
)

__all__ = ["UsageError", "main", "run"]

EXAMPLE_IDS = {
    "hyp-monomial": "4.1",
    "piecewise-phase": "4.2",
    "log-series": "4.3",
}
_ALIAS_TO_ID = {alias: name for name, alias in EXAMPLE_IDS.items()}


class UsageError(Exception):
    """A violated command precondition; the message names it."""


def _quad(ns: argparse.Namespace) -> QuadSpec:
    return QuadSpec(angular_nodes=ns.nodes, r_max=ns.r_max)


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


def _emit(write, output: Optional[str]) -> None:
    """write(stream) to the file output, or else to sys.stdout as bound at this call
    (pytest's capsys and redirect_stdout rebind it)."""
    if output is None:
        write(sys.stdout)
    else:
        with open(output, "w") as fh:
            write(fh)


def _emit_json(payload, output: Optional[str]) -> None:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    _emit(lambda fh: fh.write(text), output)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


def _parse_cutoffs(raw: str, r_max: float) -> tuple:
    try:
        cut = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"cutoffs must be a comma-separated list of reals, got {raw!r}")
    _require(len(cut) >= 3, "cutoffs must list at least 3 radii (probe precondition)")
    _require(0.0 < cut[0] and all(a < b for a, b in zip(cut, cut[1:])) and cut[-1] <= r_max,
             f"cutoffs must be strictly increasing in (0, r-max = {r_max}], got {raw!r}")
    return cut


def _default_cutoffs(r_max: float) -> tuple:
    """The cutoffs of norm without --cutoffs: 0.9, 0.99, 0.999 up to the default r-max,
    and below r-max = 0.999 the nested 1 - 100w, 1 - 10w, r-max (w = 1 - r-max) that a
    norm's status probes (norms._norm), refused where 1 - 100w <= 0."""
    if r_max >= 0.999:
        return (0.9, 0.99, 0.999)
    w = 1.0 - r_max
    _require(1.0 - 100.0 * w > 0.0,
             f"r-max = {r_max} leaves no default cutoffs 1 - 100w, 1 - 10w, r-max "
             "(w = 1 - r-max) in (0, r-max]; give them with --cutoffs")
    return (1.0 - 100.0 * w, 1.0 - 10.0 * w, r_max)


def _parse_points(raw_points: Sequence[str], r_max: float) -> np.ndarray:
    pts = []
    for raw in raw_points:
        toks = raw.split(",")
        if len(toks) != 2:
            raise UsageError(f"each --point must be 'r,theta', got {raw!r}")
        try:
            r, theta = float(toks[0]), float(toks[1])
        except ValueError:
            raise UsageError(f"each --point must be 'r,theta' with real entries, got {raw!r}")
        _require(math.isfinite(r) and math.isfinite(theta),
                 f"each --point must have a finite r and theta, got {raw!r}")
        _require(r >= 0.0, f"point radius must be nonnegative, got {r}")
        pts.append(r * complex(math.cos(theta), math.sin(theta)) if r > 0.0 else 0j)
    pts = np.asarray(pts, dtype=complex)
    _require(float(np.max(np.abs(pts))) <= r_max, f"eval points must satisfy |z| <= r_max = {r_max}")
    return pts


def _load_boundary(ns: argparse.Namespace) -> tuple:
    """(label, BoundaryData) from --boundary (its own samples) or --example options (built
    at --samples, which 4.3's default n_trunc reads, and resampled to --nodes)."""
    if ns.boundary is not None:
        return os.path.basename(ns.boundary), read_boundary_csv(ns.boundary)
    return ns.example, _build_example(ns, ns.example)[1].resample(ns.nodes)


def _resolve_example_id(raw: str) -> str:
    name = _ALIAS_TO_ID.get(raw, raw)
    if name not in EXAMPLE_IDS:
        known = ", ".join(f"{k} (alias {v})" for k, v in EXAMPLE_IDS.items())
        raise UsageError(f"unknown example id {raw!r}; known: {known}")
    return name


# The options each bundled example is built from; _check_args checks these alone.
_EXAMPLE_OPTIONS = {
    "hyp-monomial": ("samples", "alpha", "n"),
    "piecewise-phase": ("samples",),
    "log-series": ("samples", "n_trunc"),
}


def _build_example(ns: argparse.Namespace, name: str) -> tuple:
    """(params dict, BoundaryData) for the bundled example name, from options
    _check_args has checked."""
    samples = ns.samples
    if name == "hyp-monomial":
        m = HypMonomial(alpha=ns.alpha, n=ns.n)
        return {"alpha": ns.alpha, "n": ns.n, "samples": samples}, m.boundary(samples)
    if name == "piecewise-phase":
        return {"samples": samples}, phase_boundary(samples)
    F = log_series_boundary(samples, ns.n_trunc)
    used = ns.n_trunc if ns.n_trunc is not None else min(4096, samples // 2 - 1)
    return {"samples": samples, "n_trunc": used}, F


def _example_facts(name: str, params: dict, F: BoundaryData) -> dict:
    if name == "hyp-monomial":
        m = HypMonomial(alpha=params["alpha"], n=params["n"])
        return {
            "boundary_constant": m.boundary_constant(),
            "e1_limit": m.e1_limit(),
        }
    if name == "piecewise-phase":
        return {
            "deriv_sup_norm": (math.pi + 1.0) / math.pi,
            "deriv_l1_mean": 1.0,
            "corner_nodes": [0, F.n_samples // 2],  # theta = 0 and pi
        }
    return {
        "boundary_sup": float(np.max(np.abs(F.values))),
        "n_trunc": params["n_trunc"],
    }


# -- subcommands --------------------------------------------------------


def _cmd_eval(ns: argparse.Namespace) -> int:
    F = read_boundary_csv(ns.boundary)
    q = QuadSpec(r_max=ns.r_max)  # a CSV boundary is swept at its own sample count
    raw_points = ns.point or []
    _require(bool(raw_points) != ns.grid,
             "eval needs exactly one of --point (repeatable) or --grid")

    if ns.field:
        _require(ns.format != "json",
                 "derivative fields are CSV only; drop --format json")
        if ns.grid:
            fld = deriv_field(ns.alpha, F, q, n_thetas=ns.grid_thetas)
        else:
            pts = _parse_points(raw_points, q.r_max)
            dz, dzbar = np.array([dz_dzbar_f(ns.alpha, F, complex(z), q) for z in pts]).T
            flags = [_point_flag(ns.alpha, F.n_samples, abs(z)) for z in pts]
            fld = DerivField.from_wirtinger(pts, dz, dzbar, flags)
        _emit(lambda fh: write_deriv_rows(fh, fld), ns.output)
        return 0

    if ns.grid:
        n_th = ns.grid_thetas
        _require(F.n_samples % n_th == 0,
                 f"grid-thetas must divide the boundary's {F.n_samples} samples")
        stride = F.n_samples // n_th
        vals = np.concatenate([circle_poisson_values(ns.alpha, F, float(r), q)[::stride]
                               for r in q.radial_grid])
        columns = (np.repeat(q.radial_grid, n_th),
                   np.tile(_uniform_thetas(n_th), len(q.radial_grid)), vals.real, vals.imag)
    else:
        pts = _parse_points(raw_points, q.r_max)
        vals = poisson_integral(ns.alpha, F, pts, q)
        columns = (np.abs(pts), np.mod(np.angle(pts), 2.0 * np.pi), vals.real, vals.imag)

    keys = ("r", "theta", "re", "im")
    if ns.format == "csv":
        _emit(lambda fh: _write_csv(fh, keys, columns), ns.output)
    else:
        rows = zip(*(c.tolist() for c in columns))
        _emit_json({"alpha": ns.alpha, "nodes": F.n_samples,
                    "values": [dict(zip(keys, row)) for row in rows]}, ns.output)
    return 0


def _growth_row(rep, kind: str) -> dict:
    """A GrowthReport as a JSON row, tagged with its norm kind."""
    return dict(asdict(rep), kind=kind)


def _cmd_norm(ns: argparse.Namespace) -> int:
    label, F = _load_boundary(ns)
    rep = divergence_probe(KernelQuantity(ns.alpha, F, ns.quantity), p=ns.p, cutoffs=ns.cutoffs,
                           kind=ns.kind, q=_quad(ns), quantity=ns.quantity, alpha=ns.alpha)
    payload = _growth_row(rep, ns.kind)
    payload["boundary"] = label
    _emit_json(payload, ns.output)
    return 0


def _cmd_regime(ns: argparse.Namespace) -> int:
    rc = classify(ns.alpha, ns.p)
    _emit_json({
        "label": rc.label,
        "alpha": rc.alpha,
        "p": rc.p,
        "predictions": sorted(rc.predictions),
    }, ns.output)
    return 0


_BUNDLED_ALPHAS = (-0.5, 0.0, 1.0)
_BUNDLED_PS = (1.0, 2.0, 4.0)


def _bundled_boundaries(samples: int = 2048) -> list:
    return [
        ("hyp-monomial", HypMonomial(alpha=-0.5, n=1).boundary(samples)),
        ("piecewise-phase", phase_boundary(samples)),
        ("log-series", log_series_boundary(samples)),
    ]


def _inequality_records(q: QuadSpec) -> list:
    """The certification grid, then per (boundary, alpha) the angular-derivative
    records for every bundled p and the scaled-kernel record: one radial pass each."""
    records = certification_grid(q)
    for label, F in _bundled_boundaries(q.angular_nodes):
        for alpha in _BUNDLED_ALPHAS:
            records.extend(_boundary_checks(alpha, F, q, _BUNDLED_PS, scaled=True, label=label))
    return records


def _oracle_records(q: QuadSpec, seed: int) -> list:
    records = []
    rng = np.random.default_rng(seed)
    for alpha in (-0.9, -0.5, -0.1):
        for n in (1, 2, 3):
            m = HypMonomial(alpha=alpha, n=n)
            pts = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, 50)) * np.exp(
                2j * np.pi * rng.uniform(0.0, 1.0, 50))
            want = m.value(pts)
            F = m.boundary(q.angular_nodes)
            got = poisson_integral(alpha, F, pts, q)
            worst = float(np.max(np.abs(got - want) / np.maximum(1e-30, np.abs(want))))
            records.append(CertificationRecord(
                check="kernel_extension_oracle",
                params={"alpha": alpha, "n": n, "points": 50, "seed": seed,
                        "nodes": q.angular_nodes},
                lhs=worst, rhs=1e-6, holds=bool(worst <= 1e-6),
            ))

    k = np.arange(20)
    radii, thetas = 0.9 * (k + 1) / 20.0, 2.0 * np.pi * k / 20.0
    for n in range(1, 9):
        F = BoundaryData.from_function(
            lambda t, n=n: np.exp(1j * n * np.asarray(t)), q.angular_nodes,
            deriv=lambda t, n=n: 1j * n * np.exp(1j * n * np.asarray(t)))
        got = poisson_integral(0.0, F, radii * np.exp(1j * thetas), q)
        worst = float(np.max(np.abs(got - radii ** n * np.exp(1j * n * thetas))))
        records.append(CertificationRecord(
            check="harmonic_power",
            params={"alpha": 0.0, "n": n, "nodes": q.angular_nodes},
            lhs=worst, rhs=1e-8, holds=bool(worst <= 1e-8),
        ))

    for alpha in _BUNDLED_ALPHAS:
        for r in (0.25, 0.5, 0.9):
            got = sine_moment(alpha, r)
            want = sine_moment_exact(alpha, r)
            rel = abs(got - want) / abs(want)
            records.append(CertificationRecord(
                check="sine_moment_identity",
                params={"alpha": alpha, "r": r},
                lhs=rel, rhs=1e-6, holds=bool(rel <= 1e-6),
            ))
    return records


def _cmd_verify(ns: argparse.Namespace) -> int:
    q = _quad(ns)
    records = []
    if ns.suite in ("inequalities", "all"):
        records.extend(_inequality_records(q))
    if ns.suite in ("oracle", "all"):
        records.extend(_oracle_records(q, ns.seed))
    all_hold = all(rec.holds for rec in records)
    _emit_json({
        "suite": ns.suite,
        "n_records": len(records),
        "all_hold": all_hold,
        "records": [rec.as_dict() for rec in records],
    }, ns.output)
    return 0 if all_hold else 1


def _cmd_example(ns: argparse.Namespace) -> int:
    name = ns.example_id
    params, F = _build_example(ns, name)
    payload = {
        "id": name,
        "alias": EXAMPLE_IDS[name],
        "params": params,
        "samples": F.n_samples,
        "facts": _example_facts(name, params, F),
    }
    if ns.export is not None:
        write_boundary_csv(ns.export, F)
        payload["export"] = ns.export
    _emit_json(payload, ns.output)
    return 0


def _nested_fields(circle, radii: Sequence[float]) -> list:
    """Nested polar-circle fields: field k covers radii[:k+1].

    circle(r, pts) gives (df/dz, df/dzbar) at the 64 uniform points pts of
    |z| = r; each circle is built once and the fields concatenate them.
    """
    thetas = _uniform_thetas(64)
    circles, fields = [], []
    for r in radii:
        pts = r * np.exp(1j * thetas)
        circles.append((pts, *circle(r, pts)))
        fields.append(DerivField.from_wirtinger(*(np.concatenate(c) for c in zip(*circles))))
    return fields


def _ellipticity_summaries(k_list: Sequence[float]) -> list:
    m = HypMonomial(alpha=-0.5, n=1)
    outer = (0.9, 0.99, 0.999)
    table = (  # (example, circle builder, nested radii)
        ("hyp-monomial", lambda r, pts: m.derivs(pts)[:2],
         (1.0 - 1e-3, 1.0 - 1e-4, 1.0 - 1e-5, 1.0 - 1e-6)),
        ("piecewise-phase", lambda r, pts: _phase_circle(r, len(pts)), outer),
        ("log-series", lambda r, pts: _log_series_circle(r, len(pts), 50000), outer),
        ("identity", lambda r, pts: (np.ones_like(pts), np.zeros_like(pts)),
         (0.25, 0.5, 0.75)),
    )
    return [{"example": name,
             "report": asdict(ellipticity_report(_nested_fields(circle, radii), k_list))}
            for name, circle, radii in table]


# (quantity, kind, p) of the report's divergence rows, in output order.
_DIVERGENCE_ROWS = (
    [(quantity, "hardy", p) for quantity in ("dr", "dz", "dzbar") for p in (1.0, 2.0)]
    + [("dzbar", "bergman", p) for p in (1.0, 1.5, 2.0, 3.0)]
)


def _divergence_summaries(q: QuadSpec) -> list:
    """The rows of _DIVERGENCE_ROWS, each equal to divergence_probe of its
    component of HypMonomial.derivs. Every row probes the same circles, so
    each circle is evaluated once and every row takes its mean from it."""
    m = HypMonomial(alpha=-0.5, n=1)
    picks = {"dz": 0, "dzbar": 1, "dr": 2}
    plans = [_plan_probe(p, (0.9, 0.99, 0.999), kind, q) for _, kind, p in _DIVERGENCE_ROWS]
    radii = plans[0][2]
    unit = np.exp(1j * _uniform_thetas(q.angular_nodes))
    means = np.empty((len(plans), len(radii)))
    for j, r in enumerate(radii):
        circle = m.derivs(float(r) * unit)
        for i, (quantity, _, p) in enumerate(_DIVERGENCE_ROWS):
            means[i, j] = _mean_p(circle[picks[quantity]], p)
    return [_growth_row(_growth_report(*_finite_means(radii, row), p, cut, kind,
                                       quantity, -0.5), kind)
            for row, (quantity, kind, _), (p, cut, _, _) in zip(means, _DIVERGENCE_ROWS, plans)]


_REGIME_SAMPLES = (
    (-0.9, 1.0), (-0.5, 1.0), (-0.5, 2.0), (-0.1, 12.0),
    (0.0, 1.0), (0.0, 2.0), (0.0, math.inf),
    (0.5, 3.0), (1.0, 2.0),
)


def _cmd_report(ns: argparse.Namespace) -> int:
    q = _quad(ns)
    records = _inequality_records(q)
    records.extend(_oracle_records(q, ns.seed))
    failures = [rec.as_dict() for rec in records if not rec.holds]
    regimes = []
    for alpha, p in _REGIME_SAMPLES:
        rc = classify(alpha, p)
        regimes.append({"alpha": alpha, "p": p, "label": rc.label,
                        "predictions": sorted(rc.predictions)})
    payload = {
        "certifications": {
            "n_records": len(records),
            "all_hold": not failures,
            "failures": failures,
        },
        "regimes": regimes,
        "divergence": _divergence_summaries(q),
        "ellipticity": _ellipticity_summaries((1.0, 10.0, 100.0)),
    }
    _emit_json(payload, ns.output)
    return 0 if not failures else 1


# -- argument parsing ----------------------------------------------------


def _add_common(sp, handler, *shared) -> None:
    sp.set_defaults(handler=handler)
    if "--nodes" in shared:
        sp.add_argument("--nodes", type=int, default=2048,
                        help=f"angular quadrature nodes (even, 16 to {_ANGULAR_CAP})")
    if "--r-max" in shared:
        sp.add_argument("--r-max", type=float, default=0.999,
                        help="outermost radius of the radial grid")
    sp.add_argument("--output", default=None, help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diskpoisson",
        description="Weighted Poisson extensions on the unit disk: "
                    "evaluation, growth probes, and inequality certification.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="evaluate the kernel extension of a boundary CSV")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--boundary", required=True, help="CSV with header theta,re,im")
    sp.add_argument("--point", action="append", default=None, metavar="R,THETA")
    sp.add_argument("--grid", action="store_true",
                    help="evaluate on the full polar grid")
    sp.add_argument("--grid-thetas", type=int, default=64,
                    help="output angles per circle (must divide the CSV's sample count)")
    sp.add_argument("--field", action="store_true",
                    help="emit all four partial derivatives as CSV")
    sp.add_argument("--format", choices=("json", "csv"), default=None,
                    help="json for values (default), csv for tables")
    _add_common(sp, _cmd_eval, "--r-max")

    sp = sub.add_parser("norm", help="growth probe of a Hardy or Bergman norm")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--p", type=float, required=True, help="norm order; 'inf' allowed")
    sp.add_argument("--quantity", choices=QUANTITIES, default="f")
    sp.add_argument("--kind", choices=("hardy", "bergman"), default="hardy")
    sp.add_argument("--cutoffs", default=None,
                    help="at least 3 strictly increasing radii in (0, r-max] (default "
                         "0.9,0.99,0.999; below r-max 0.999, 1-100w,1-10w,r-max with "
                         "w = 1 - r-max)")
    sp.add_argument("--boundary", default=None, help="CSV with header theta,re,im")
    sp.add_argument("--example", default=None, help="bundled example id or alias")
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--n-trunc", type=int, default=None)
    sp.add_argument("--samples", type=int, default=2048)
    _add_common(sp, _cmd_norm, "--nodes", "--r-max")

    sp = sub.add_parser("regime", help="classify (alpha, p) and list predictions")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--p", type=float, required=True, help="norm order; 'inf' allowed")
    _add_common(sp, _cmd_regime)

    sp = sub.add_parser("verify", help="run a certification suite")
    sp.add_argument("--suite", choices=("inequalities", "oracle", "all"),
                    default="inequalities")
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp, _cmd_verify, "--nodes", "--r-max")

    sp = sub.add_parser("example", help="describe or export a bundled example")
    sp.add_argument("--id", required=True, dest="example_id",
                    help="hyp-monomial (4.1), piecewise-phase (4.2), log-series (4.3)")
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--n-trunc", type=int, default=None)
    sp.add_argument("--samples", type=int, default=2048)
    sp.add_argument("--export", default=None, help="write the boundary CSV here")
    _add_common(sp, _cmd_example)

    sp = sub.add_parser("report", help="bundled summary: certifications, regimes, probes")
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp, _cmd_report, "--nodes", "--r-max")

    return ap


def _check_count(name: str, value: int) -> None:
    """Node and sample counts: even, at least 16, at most the angular cap."""
    _require(value >= 16 and value % 2 == 0,
             f"{name} must be an even integer >= 16, got {value}")
    _require(value <= _ANGULAR_CAP, f"{name} must be at most {_ANGULAR_CAP}, got {value}")


def _check_args(ns: argparse.Namespace) -> None:
    """Check every argument the command reads before any work, and fill the derived
    defaults in ns: the output format (csv with --field, else json), the parsed
    cutoffs, the resolved example id and hyp-monomial's default alpha. Example options
    are checked where an example is built, and only those its id reads.
    """
    if "nodes" in ns:
        _check_count("nodes", ns.nodes)
    if "r_max" in ns:
        _require(0.0 < ns.r_max <= 1.0 - 1e-6,
                 f"r-max must lie in (0, 1 - 1e-6], got {ns.r_max}")
    reads = ()  # the example options read
    if ns.command == "example":
        ns.example_id = _resolve_example_id(ns.example_id)
        reads = _EXAMPLE_OPTIONS[ns.example_id]
    elif ns.command == "norm":
        _require(ns.boundary is None or ns.example is None,
                 "--boundary and --example are mutually exclusive")
        _require(ns.boundary is not None or ns.example is not None,
                 "a boundary source is required: --boundary CSV or --example ID")
        if ns.example is not None:
            ns.example = _resolve_example_id(ns.example)
            reads = _EXAMPLE_OPTIONS[ns.example]
    if "alpha" in ns and ns.alpha is not None and (ns.command != "example" or "alpha" in reads):
        _require(math.isfinite(ns.alpha), f"alpha must be finite, got {ns.alpha}")
        _require(ns.alpha > -1.0, f"alpha must exceed -1, got {ns.alpha}")
    if "p" in ns:
        _require(ns.p >= 1.0, f"p must satisfy 1 <= p <= inf, got {ns.p}")
    if "cutoffs" in ns:
        ns.cutoffs = (_parse_cutoffs(ns.cutoffs, ns.r_max) if ns.cutoffs
                      else _default_cutoffs(ns.r_max))
    if "samples" in reads:
        _check_count("samples", ns.samples)
    if "n_trunc" in reads and ns.n_trunc is not None:
        _require(ns.n_trunc >= 2, f"n-trunc must be >= 2, got {ns.n_trunc}")
        _require(ns.n_trunc <= _SERIES_TERM_CAP,
                 f"n-trunc must be at most {_SERIES_TERM_CAP}, got {ns.n_trunc}")
    if "n" in reads:  # hyp-monomial
        ns.alpha = -0.5 if ns.alpha is None else ns.alpha
        _require(-1.0 < ns.alpha < 0.0, f"hyp-monomial needs alpha in (-1, 0), got {ns.alpha}")
        _require(ns.n >= 1, f"hyp-monomial needs n >= 1, got {ns.n}")
    if "seed" in ns:
        _require(ns.seed >= 0, f"seed must be >= 0, got {ns.seed}")
    if "grid_thetas" in ns:
        _require(ns.grid_thetas >= 1, f"grid-thetas must be >= 1, got {ns.grid_thetas}")
    if "format" in ns and ns.format is None:
        ns.format = "csv" if ns.field else "json"


def run(ns: argparse.Namespace) -> int:
    """Check the parsed arguments, then run their subcommand; returns the exit status."""
    _check_args(ns)
    return ns.handler(ns)


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    try:
        return run(ap.parse_args(argv))
    except (UsageError, ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
