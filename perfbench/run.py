"""diskpoisson benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload report --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, as a table

Run from anywhere; the program is imported from ``src/`` next to this
directory. Every pass of a workload runs in a fresh single-threaded
worker process (``worker.py``), so no cache of the program outlives a
pass. Passes repeat while another, with the check of its outputs, fits in
``--seconds``; at least five worker processes are started per run, so
``setup_s`` is a median.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced ones, plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Details (host
facts, every operation's verdict, the spans of the last traced pass) go
to ``.bench_build/perfbench/`` in the repository root.
"""

from __future__ import annotations

import os

# Pin every thread pool before numpy is imported, here and in the workers.
PINNED_ENV = {
    "DISKPOISSON_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import scoring  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
RUN_TIMEOUT = 170.0

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_ops_frac", "ratio"),
    ("digits.r0.99", "digits"),
    ("digits.r0.999", "digits"),
    ("digits.r0.9999", "digits"),
]

# (metric, unit, source); source is ("span", name, field), ("counter", key),
# ("ratio", numerator key, denominator key) or ("pass", traced wall_s or
# overhead_s).
PER_LAYER = [
    ("mappings.closed_form.calls", "count", ("span", "mappings.closed_form", "calls")),
    ("mappings.closed_form.samples", "count", ("counter", "mappings.closed_form.samples")),
    ("mappings.closed_form.self_s", "s", ("span", "mappings.closed_form", "self_s")),
    ("mappings.HypMonomial.value.errors", "count",
     ("span", "mappings.HypMonomial.value", "errors")),
    ("mappings.HypMonomial.derivs.self_s", "s", ("span", "mappings.HypMonomial.derivs", "self_s")),
    ("mappings.log_series_field.self_s", "s", ("span", "mappings.log_series_field", "self_s")),
    ("mappings.phase_field.self_s", "s", ("span", "mappings.phase_field", "self_s")),
    ("specfun.hyp2f1.calls", "count", ("span", "specfun.hyp2f1", "calls")),
    ("specfun.hyp2f1.self_s", "s", ("span", "specfun.hyp2f1", "self_s")),
    ("specfun.hyp2f1.errors", "count", ("span", "specfun.hyp2f1", "errors")),
    ("specfun.hyp2f1.cache_hit_ratio", "ratio",
     ("ratio", "specfun.hyp2f1.cache_hits", "specfun.hyp2f1.cache_lookups")),
    ("kernel.BoundaryData.from_function.calls", "count",
     ("span", "kernel.BoundaryData.from_function", "calls")),
    ("kernel.BoundaryData.from_function.samples", "count",
     ("counter", "kernel.BoundaryData.from_function.samples")),
    ("kernel.BoundaryData.resample.calls", "count",
     ("span", "kernel.BoundaryData.resample", "calls")),
    ("kernel.BoundaryData.resample.hit_ratio", "ratio",
     ("ratio", "kernel.BoundaryData.resample.hits", "kernel.BoundaryData.resample.calls")),
    ("kernel.boundary_derivative.calls", "count", ("span", "kernel.boundary_derivative", "calls")),
    ("kernel.boundary_derivative.self_s", "s", ("span", "kernel.boundary_derivative", "self_s")),
    ("kernel.kernel_K.self_s", "s", ("span", "kernel.kernel_K", "self_s")),
    ("kernel.circle_poisson_values.calls", "count",
     ("span", "kernel.circle_poisson_values", "calls")),
    ("kernel.circle_poisson_values.nodes", "count",
     ("counter", "kernel.circle_poisson_values.nodes")),
    ("kernel.circle_poisson_values.self_s", "s",
     ("span", "kernel.circle_poisson_values", "self_s")),
    ("kernel.poisson_integral.kernel_evals", "count",
     ("counter", "kernel.poisson_integral.kernel_evals")),
    ("kernel.resolution_warnings", "count", ("counter", "kernel.resolution_warnings")),
    ("kernel.read_boundary_csv.self_s", "s", ("span", "kernel.read_boundary_csv", "self_s")),
    ("kernel.write_boundary_csv.bytes", "bytes", ("counter", "kernel.write_boundary_csv.bytes")),
    ("derivs.circle_derivs.calls", "count", ("span", "derivs.circle_derivs", "calls")),
    ("derivs.circle_derivs.nodes", "count", ("counter", "derivs.circle_derivs.nodes")),
    ("derivs.circle_derivs.self_s", "s", ("span", "derivs.circle_derivs", "self_s")),
    ("derivs.sine_moment.self_s", "s", ("span", "derivs.sine_moment", "self_s")),
    ("derivs.deriv_field.self_s", "s", ("span", "derivs.deriv_field", "self_s")),
    ("derivs.write_deriv_rows.self_s", "s", ("span", "derivs.write_deriv_rows", "self_s")),
    ("derivs.write_deriv_rows.bytes", "bytes", ("counter", "derivs.write_deriv_rows.bytes")),
    ("derivs.read_deriv_csv.self_s", "s", ("span", "derivs.read_deriv_csv", "self_s")),
    ("norms.divergence_probe.calls", "count", ("span", "norms.divergence_probe", "calls")),
    ("norms.divergence_probe.self_s", "s", ("span", "norms.divergence_probe", "self_s")),
    ("norms.KernelQuantity.circle_values.calls", "count",
     ("span", "norms.KernelQuantity.circle_values", "calls")),
    ("regimes.check_angular_derivative_bound.self_s", "s",
     ("span", "regimes.check_angular_derivative_bound", "self_s")),
    ("regimes.check_scaled_kernel_bound.self_s", "s",
     ("span", "regimes.check_scaled_kernel_bound", "self_s")),
    ("regimes.certification_grid.self_s", "s", ("span", "regimes.certification_grid", "self_s")),
    ("regimes.records", "count", ("counter", "regimes.records")),
    ("regimes.records_holding", "count", ("counter", "regimes.records_holding")),
    ("elliptic.ellipticity_report.self_s", "s", ("span", "elliptic.ellipticity_report", "self_s")),
    ("cli.run.self_s", "s", ("span", "cli.run", "self_s")),
    ("cli.output_bytes", "bytes", ("counter", "cli.output_bytes")),
    ("trace.wall_s", "s", ("pass", "wall_s")),
    ("trace.overhead_s", "s", ("pass", "overhead_s")),
]


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# --- host facts ---------------------------------------------------------------


def host_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import mpmath
    import numpy
    commit = None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
            commit = out[1]  # only when the root itself is a git checkout
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "diskpoisson")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "pinned_env": PINNED_ENV,
    }


# --- one run ------------------------------------------------------------------


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.ops = workloads.plan(workload, seed)
        self.base = os.path.join(ROOT, ".bench_build", "perfbench")
        self.workdir = os.path.join(self.base, f"run-{workload}-{seed}-{os.getpid()}")
        self.checker = checks.Checker()
        self.setups: list = []
        self.passes: list = []  # dicts: traced, wall_s, peak_rss_mb, verdicts, result
        self._started = _monotonic()

    def _spawn(self, index: int, traced: bool, setup_only: bool) -> dict:
        pdir = os.path.join(self.workdir, f"pass{index:02d}")
        os.makedirs(pdir)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--workdir", pdir, "--trace", str(int(traced))]
        if setup_only:
            cmd.append("--setup-only")
        timeout = max(1.0, RUN_TIMEOUT - (_monotonic() - self._started))
        spawned = _monotonic()
        try:
            proc = subprocess.run(cmd, cwd=pdir, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded the {RUN_TIMEOUT:.0f} s run limit")
        if proc.returncode != 0:
            raise BenchError(f"worker exited with status {proc.returncode}:\n{proc.stderr[-2000:]}")
        with open(os.path.join(pdir, "result.json")) as fh:
            result = json.load(fh)
        self.setups.append(result["ready"] - spawned)
        result["dir"] = pdir
        return result

    def _check(self, result: dict) -> list:
        return [self.checker.check(op, rec, result["dir"])
                for op, rec in zip(self.ops, result["ops"])]

    def execute(self) -> dict:
        os.makedirs(self.workdir)
        try:
            index, last = 0, {}
            min_passes = 2 if self.trace else 1
            while True:
                traced = self.trace and index % 2 == 1
                begun = _monotonic()
                result = self._spawn(index, traced, setup_only=False)
                verdicts = self._check(result)
                self.passes.append({
                    "traced": traced,
                    "wall_s": sum(rec["seconds"] for rec in result["ops"]),
                    "peak_rss_mb": result["peak_rss_mb"],
                    "verdicts": verdicts,
                    "result": result,
                })
                last[traced] = _monotonic() - begun  # the pass and its check
                index += 1
                if index < min_passes:
                    continue
                nxt = self.trace and index % 2 == 1
                if _monotonic() - self._started + last.get(nxt, last[traced]) > self.seconds:
                    break
            while len(self.setups) < SETUP_SAMPLES:
                self._spawn(index, False, setup_only=True)
                index += 1
            return self._summarise()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def _summarise(self) -> dict:
        attempted, failed, known, unexpected = scoring.count_failures(
            [op["id"] for op in self.ops], [p["verdicts"] for p in self.passes])
        untraced = [p for p in self.passes if not p["traced"]]
        op_seconds = self._op_seconds(untraced)
        wall = sum(op_seconds.values())
        if self.trace:
            metrics = self._layer_metrics(wall)
        else:
            metrics = {
                "setup_s": statistics.median(self.setups),
                "wall_s": wall,
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
                "ok_ops_frac": scoring.ok_fraction(attempted, failed),
            }
            # The answers are deterministic, so one pass scores them.
            metrics.update(scoring.digits_by_bucket(
                e for v in untraced[0]["verdicts"] for e in v.errors))
        units = dict(END_TO_END) if not self.trace else {m: u for m, u, _ in PER_LAYER}
        return {
            "correct": not unexpected,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            "detail": {
                "passes": [{"traced": p["traced"], "wall_s": p["wall_s"],
                            "peak_rss_mb": p["peak_rss_mb"]} for p in self.passes],
                "setup_samples": self.setups,
                "known_defects_hit": known,
                "unexpected_failures": unexpected,
                "op_digits": {op["id"]: scoring.digits_by_bucket(v.errors)
                              for op, v in zip(self.ops, untraced[0]["verdicts"]) if v.errors},
                "op_seconds": op_seconds,
                "op_warnings": {rec["id"]: rec["warnings"]
                                for rec in untraced[0]["result"]["ops"] if rec["warnings"]},
            },
        }

    def _op_seconds(self, passes) -> dict:
        """Median time of each operation over the passes; wall_s is their sum."""
        return {op["id"]: statistics.median(p["result"]["ops"][i]["seconds"] for p in passes)
                for i, op in enumerate(self.ops)}

    def _layer_metrics(self, untraced_wall: float) -> dict:
        traced = [p for p in self.passes if p["traced"]]
        first = traced[0]["result"]
        spans = [p["result"]["spans"] for p in traced]
        counters = dict(first["counters"])
        counters["specfun.hyp2f1.cache_lookups"] = (
            counters.get("specfun.hyp2f1.cache_hits", 0)
            + counters.get("specfun.hyp2f1.cache_misses", 0))
        counters["kernel.BoundaryData.resample.calls"] = first["spans"].get(
            "kernel.BoundaryData.resample", {}).get("calls", 0)
        counters["kernel.resolution_warnings"] = sum(
            rec["warnings"].get("ResolutionWarning", 0) for rec in first["ops"])
        counters["cli.output_bytes"] = sum(
            os.path.getsize(os.path.join(traced[0]["result"]["dir"], f))
            for op in self.ops if op["kind"] == "cli" for f in op.get("outputs", ())
            if os.path.exists(os.path.join(traced[0]["result"]["dir"], f)))
        traced_wall = sum(self._op_seconds(traced).values())
        out = {}
        for name, _, source in PER_LAYER:
            kind = source[0]
            if kind == "span":
                vals = [s.get(source[1], {}).get(source[2], 0) for s in spans]
                out[name] = statistics.median(vals) if source[2].endswith("_s") else vals[0]
            elif kind == "counter":
                out[name] = counters.get(source[1], 0)
            elif kind == "ratio":
                den = counters.get(source[2], 0)
                out[name] = counters.get(source[1], 0) / den if den else 0.0
            elif source[1] == "wall_s":
                out[name] = traced_wall
            else:
                out[name] = traced_wall - untraced_wall
        # Keep the spans of the last traced pass.
        keep = os.path.join(self.base, f"{self.workload}-seed{self.seed}.spans.jsonl")
        shutil.copyfile(os.path.join(traced[-1]["result"]["dir"], "spans.jsonl"), keep)
        return out


def _print_table(workload: str, summary: dict) -> None:
    print(f"== {workload}: attempted {summary['attempted']}, failed {summary['failed']}, "
          f"correct {summary['correct']}")
    for name, m in summary["metrics"].items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    hits = list(summary["detail"]["known_defects_hit"].values())
    for tag in sorted(set(hits)):
        print(f"  known defect {tag} ({hits.count(tag)} operations): {checks.KNOWN_DEFECTS[tag]}")
    for op_id, why in summary["detail"]["unexpected_failures"].items():
        print(f"  UNEXPECTED FAILURE {op_id}: {why}")


def _save(summary: dict, host: dict, workload: str, seed: int, trace: bool) -> None:
    base = os.path.join(ROOT, ".bench_build", "perfbench")
    path = os.path.join(base, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(dict(summary, host=host, workload=workload, seed=seed), fh, indent=1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "diskpoisson", "__init__.py")):
        print(f"error: no program to measure: {ROOT}/src/diskpoisson is missing", file=sys.stderr)
        return 2
    host = host_facts()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    try:
        for name in names:
            summaries[name] = Run(name, args.seed, args.seconds, bool(args.trace)).execute()
            _save(summaries[name], host, name, args.seed, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"host": host}))
    for name, summary in summaries.items():
        _print_table(name, summary)
    if args.workload != "all":
        summary = summaries[args.workload]
        print(json.dumps({k: summary[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
