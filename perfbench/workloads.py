"""The three workloads as fixed operation lists, and how the worker runs them.

An operation is one CLI invocation (``cli.main(argv)`` in-process) or one
public API call. ``plan`` turns (workload, seed) into a list of plain
dicts, so the parent process can check outputs without importing the
program; ``API_CALLS`` holds the worker-side code of each API operation.

The seed moves only the evaluation angles of the closed-form calls in
``near_boundary``, the 30 ``eval --point`` points in ``sampled_csv`` and
the ``report --seed`` argument; the amount of work stays the same.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("report", "near_boundary", "sampled_csv")

# near_boundary
HYP_PARAMS = [(a, n) for a in (-0.9, -0.5, -0.1) for n in (1, 3)]
SWEEP_RADII = (0.99, 0.999, 0.9999)
SWEEP_NODES = 2048
POINTS_PER_RADIUS = 8
PROBE_EXAMPLES = (("4.1", -0.5), ("4.2", 0.0), ("4.3", 0.0))
PROBE_QUANTITIES = (("f", "hardy"), ("dr", "hardy"), ("dzbar", "bergman"))
PROBE_P = 2.0
# (cutoffs, --r-max, --nodes); None keeps the CLI default (r-max 0.999,
# 2048 nodes). The resolved node counts meet N >= 8/(1 - last cutoff).
PROBE_SETTINGS = (
    ((0.9, 0.99, 0.999), None, None),
    ((0.9, 0.99, 0.999), None, 8192),
    ((0.99, 0.999, 0.9999), 0.9999, None),
    ((0.99, 0.999, 0.9999), 0.9999, 81920),
)
DEFAULT_NODES = 2048
DEFAULT_SAMPLES = 2048


def _probe_included(example: str, quantity: str, nodes) -> bool:
    """Leave out the resolved probes that alone would take most of a pass.

    At 81920 nodes a derivative probe takes 4 s (21 s for the log series,
    whose closed-form derivative is re-evaluated on every circle); at 8192
    nodes the log-series derivative probes take 1.4 s each.
    """
    if nodes == 81920 and quantity != "f":
        return False
    if nodes == 8192 and example == "4.3" and quantity != "f":
        return False
    return True


# sampled_csv
CSV_EXAMPLES = ("4.2", "4.3")
CSV_SAMPLES = (2048, 8192)
CSV_ALPHA = 0.0
FIELD_THETAS = 256
GRID_THETAS = 64  # the CLI default for --grid-thetas
EVAL_POINTS = 30
EVAL_POINT_RMAX = 0.999
CSV_NORM_CUTOFFS = (0.99, 0.999, 0.9999)
CSV_NORM_RMAX = 0.9999


def _fmt(x: float) -> str:
    return repr(float(x))


def _plan_report(seed: int) -> list:
    return [{
        "id": "report",
        "kind": "cli",
        "argv": ["report", "--seed", str(seed), "--output", "{dir}/report.json"],
        "outputs": ["report.json"],
        "check": {"type": "report", "seed": seed},
    }]


def _plan_near_boundary(seed: int) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    for alpha, n in HYP_PARAMS:
        tag = f"hyp[a={alpha},n={n}]"
        common = {"alpha": alpha, "n": n}
        ops.append({"id": f"{tag}.boundary", "kind": "api", "call": "hyp_boundary",
                    "args": dict(common, samples=SWEEP_NODES),
                    "check": {"type": "none"}})
        for r in SWEEP_RADII:
            for quantity in ("f", "dzbar"):
                ops.append({
                    "id": f"{tag}.sweep_{quantity}.r{r}", "kind": "api", "call": "sweep",
                    "args": dict(common, r=r, quantity=quantity, nodes=SWEEP_NODES),
                    "check": {"type": "hyp_sweep", **common, "r": r,
                              "quantity": quantity, "nodes": SWEEP_NODES},
                })
        for r in SWEEP_RADII:
            thetas = [float(t) for t in rng.uniform(0.0, 2.0 * np.pi, POINTS_PER_RADIUS)]
            for call in ("hyp_value", "hyp_derivs"):
                ops.append({
                    "id": f"{tag}.{call}.r{r}", "kind": "api", "call": call,
                    "args": dict(common, r=r, thetas=thetas),
                    "check": {"type": call, **common, "r": r, "thetas": thetas},
                    "defect": "hyp2f1-convergence" if r >= 0.999 else None,
                })
    for cutoffs, r_max, nodes in PROBE_SETTINGS:
        for example, alpha in PROBE_EXAMPLES:
            for quantity, kind in PROBE_QUANTITIES:
                if not _probe_included(example, quantity, nodes):
                    continue
                name = (f"norm[{example},{quantity},{kind},cut={cutoffs[-1]},"
                        f"nodes={nodes or DEFAULT_NODES}]")
                out = f"op{len(ops):03d}.norm.json"
                argv = ["norm", "--alpha", _fmt(alpha), "--p", _fmt(PROBE_P),
                        "--quantity", quantity, "--kind", kind, "--example", example,
                        "--cutoffs", ",".join(_fmt(c) for c in cutoffs)]
                if r_max is not None:
                    argv += ["--r-max", _fmt(r_max)]
                if nodes is not None:
                    argv += ["--nodes", str(nodes)]
                ops.append({
                    "id": name, "kind": "cli", "argv": argv, "stdout": out,
                    "outputs": [out],
                    "check": {"type": "norm_example", "example": example, "alpha": alpha,
                              "quantity": quantity, "kind": kind, "p": PROBE_P,
                              "cutoffs": list(cutoffs),
                              "r_max": r_max if r_max is not None else 0.999,
                              "nodes": nodes or DEFAULT_NODES,
                              "samples": DEFAULT_SAMPLES, "file": out},
                })
    return ops


def _plan_sampled_csv(seed: int) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    for example in CSV_EXAMPLES:
        for samples in CSV_SAMPLES:
            tag = f"csv[{example},{samples}]"
            stem = f"ex{example.replace('.', '_')}_{samples}"
            src = {"example": example, "samples": samples, "alpha": CSV_ALPHA}
            boundary = f"{stem}.boundary.csv"
            ops.append({
                "id": f"{tag}.export", "kind": "cli",
                "argv": ["example", "--id", example, "--samples", str(samples),
                         "--export", "{dir}/" + boundary],
                "stdout": f"{stem}.example.json",
                "outputs": [boundary, f"{stem}.example.json"],
                "check": {"type": "export", **src, "file": boundary},
            })
            base = ["eval", "--alpha", _fmt(CSV_ALPHA), "--boundary", "{dir}/" + boundary]
            ops.append({
                "id": f"{tag}.eval_field", "kind": "cli",
                "argv": base + ["--grid", "--field", "--grid-thetas", str(FIELD_THETAS),
                                "--output", "{dir}/" + f"{stem}.field.csv"],
                "outputs": [f"{stem}.field.csv"],
                "check": {"type": "field_csv", **src, "file": f"{stem}.field.csv",
                          "thetas": FIELD_THETAS},
            })
            # As written in the README: no --nodes, so the stride is sized
            # for 2048 nodes whatever the sample count.
            ops.append({
                "id": f"{tag}.eval_grid", "kind": "cli",
                "argv": base + ["--grid", "--format", "csv"],
                "stdout": f"{stem}.grid.csv", "outputs": [f"{stem}.grid.csv"],
                "check": {"type": "grid_csv", **src, "file": f"{stem}.grid.csv",
                          "thetas": GRID_THETAS},
                "defect": "grid-stride" if samples != DEFAULT_NODES else None,
            })
            radii = EVAL_POINT_RMAX * np.sqrt(rng.uniform(0.0, 1.0, EVAL_POINTS))
            angles = rng.uniform(0.0, 2.0 * np.pi, EVAL_POINTS)
            argv = list(base)
            for r, t in zip(radii, angles):
                argv += ["--point", f"{_fmt(r)},{_fmt(t)}"]
            ops.append({
                "id": f"{tag}.eval_points", "kind": "cli", "argv": argv,
                "stdout": f"{stem}.points.json", "outputs": [f"{stem}.points.json"],
                "check": {"type": "points_json", **src, "file": f"{stem}.points.json",
                          "radii": radii.tolist(), "angles": angles.tolist()},
            })
            ops.append({
                "id": f"{tag}.norm", "kind": "cli",
                "argv": ["norm", "--alpha", _fmt(CSV_ALPHA), "--p", _fmt(PROBE_P),
                         "--quantity", "dzbar", "--kind", "hardy",
                         "--boundary", "{dir}/" + boundary,
                         "--r-max", _fmt(CSV_NORM_RMAX),
                         "--cutoffs", ",".join(_fmt(c) for c in CSV_NORM_CUTOFFS)],
                "stdout": f"{stem}.norm.json", "outputs": [f"{stem}.norm.json"],
                "check": {"type": "norm_csv", **src, "quantity": "dzbar", "kind": "hardy",
                          "p": PROBE_P, "cutoffs": list(CSV_NORM_CUTOFFS),
                          "r_max": CSV_NORM_RMAX, "file": f"{stem}.norm.json"},
            })
            ops.append({
                "id": f"{tag}.read_field", "kind": "api", "call": "read_deriv_csv",
                "args": {"file": f"{stem}.field.csv"},
                "check": {"type": "read_field", "file": f"{stem}.field.csv"},
            })
    return ops


def plan(workload: str, seed: int) -> list:
    """The operation list of one pass of a workload."""
    planners = {
        "report": _plan_report,
        "near_boundary": _plan_near_boundary,
        "sampled_csv": _plan_sampled_csv,
    }
    if workload not in planners:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return planners[workload](seed)


# --- worker side: the API operations ---------------------------------------
# Each takes the imported package, a per-pass state dict, the pass directory
# and the op's args, and returns a dict of arrays that the parent checks.


def _hyp_boundary(dp, state, workdir, alpha, n, samples):
    state[("F", alpha, n)] = dp.HypMonomial(alpha=alpha, n=n).boundary(samples)
    return {}


def _sweep(dp, state, workdir, alpha, n, r, quantity, nodes):
    F = state[("F", alpha, n)]
    q = dp.QuadSpec(angular_nodes=nodes, r_max=max(SWEEP_RADII))
    if quantity == "f":
        values = dp.circle_poisson_values(alpha, F, r, q)
    else:
        values = dp.KernelQuantity(alpha, F, quantity).circle_values(r, q)
    return {"values": np.asarray(values)}


def _points(r, thetas):
    return r * np.exp(1j * np.asarray(thetas))


def _hyp_value(dp, state, workdir, alpha, n, r, thetas):
    return {"f": np.asarray(dp.HypMonomial(alpha=alpha, n=n).value(_points(r, thetas)))}


def _hyp_derivs(dp, state, workdir, alpha, n, r, thetas):
    dz, dzbar, dr = dp.HypMonomial(alpha=alpha, n=n).derivs(_points(r, thetas))
    return {"dz": np.asarray(dz), "dzbar": np.asarray(dzbar), "dr": np.asarray(dr)}


def _read_deriv_csv(dp, state, workdir, file):
    fld = dp.read_deriv_csv(f"{workdir}/{file}")
    return {"points": fld.points, "dtheta": fld.dtheta, "dr": fld.dr,
            "dz": fld.dz, "dzbar": fld.dzbar}


API_CALLS = {
    "hyp_boundary": _hyp_boundary,
    "sweep": _sweep,
    "hyp_value": _hyp_value,
    "hyp_derivs": _hyp_derivs,
    "read_deriv_csv": _read_deriv_csv,
}
