"""One pass of one workload, in a fresh process.

Run by ``run.py``; not meant to be called by hand. Imports the program
from ``src/`` next to this directory, records the monotonic time at which
it is ready for the first operation, runs the operation list (each
operation timed on its own, with its warnings counted) and writes
``result.json`` plus the outputs of the API operations into the pass
directory. With ``--trace 1`` the spans of every public function are
recorded and written too.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import warnings

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _run_cli(cli, op, workdir):
    argv = [a.replace("{dir}", workdir) for a in op["argv"]]
    stdout = op.get("stdout")
    if stdout is None:
        return cli.main(argv)
    with open(os.path.join(workdir, stdout), "w") as fh:
        with contextlib.redirect_stdout(fh):
            rc = cli.main(argv)
        fh.flush()
    return rc


def _peak_rss_mb() -> float:
    """High-water resident memory of this process image, in MiB.

    VmHWM starts afresh at exec; ru_maxrss would also carry the parent's
    resident size at fork time.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _hyp2f1_cache_info(dp):
    cached = getattr(dp.specfun, "_hyp2f1_cached", None)
    info = getattr(cached, "cache_info", None)
    return info() if info is not None else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import diskpoisson as dp
    from diskpoisson import cli

    if not os.path.abspath(dp.__file__).startswith(SRC + os.sep):
        print(f"diskpoisson imported from {dp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    ops = workloads.plan(args.workload, args.seed)
    ready = _monotonic()

    result = {"ready": ready, "ops": []}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
            cache_before = _hyp2f1_cache_info(dp)
        state: dict = {}
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            result["ops"].append(_run_op(dp, cli, op, i, state, args.workdir))
        if tracer is not None:
            tracer.uninstall()
            cache_after = _hyp2f1_cache_info(dp)
            result["counters"] = dict(tracer.counters)
            if cache_before is not None and cache_after is not None:
                result["counters"]["specfun.hyp2f1.cache_hits"] = cache_after.hits - cache_before.hits
                result["counters"]["specfun.hyp2f1.cache_misses"] = (
                    cache_after.misses - cache_before.misses)
            from spans import aggregate
            result["spans"] = aggregate(tracer.spans)
            tracer.dump(os.path.join(args.workdir, "spans.jsonl"))
    result["peak_rss_mb"] = _peak_rss_mb()
    with open(os.path.join(args.workdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


def _run_op(dp, cli, op, i, state, workdir):
    rec = {"i": i, "id": op["id"], "rc": None, "error": None, "warnings": {}}
    out = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            if op["kind"] == "cli":
                rec["rc"] = _run_cli(cli, op, workdir)
            else:
                out = workloads.API_CALLS[op["call"]](dp, state, workdir, **op["args"])
        except SystemExit as exc:  # argparse refusing a command exits with status 2
            rec["rc"] = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # a failed operation is counted, not fatal
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["seconds"] = time.perf_counter() - t0
    for w in caught:
        name = w.category.__name__
        rec["warnings"][name] = rec["warnings"].get(name, 0) + 1
    if out:
        np.savez(os.path.join(workdir, f"op{i:03d}.npz"), **out)
    return rec


if __name__ == "__main__":
    sys.exit(main())
