"""Tests of the benchmark's own arithmetic and of its tracer.

    python3 -m pytest perfbench/tests -q
"""

import math
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import references  # noqa: E402
import scoring  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


# --- self time ----------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf():
        clock.advance(1.0)

    def middle():
        clock.advance(2.0)
        leaf()
        leaf()

    def top():
        clock.advance(4.0)
        middle()
        clock.advance(8.0)

    leaf = tracer.wrap("leaf", leaf)
    middle = tracer.wrap("middle", middle)
    top = tracer.wrap("top", top)
    top()
    agg = spans.aggregate(tracer.spans)
    assert agg["top"] == {"calls": 1, "errors": 0, "total_s": 16.0, "self_s": 12.0}
    assert agg["middle"]["total_s"] == 4.0 and agg["middle"]["self_s"] == 2.0
    assert agg["leaf"]["calls"] == 2 and agg["leaf"]["self_s"] == 2.0
    parents = {s[0]: s[3] for s in tracer.spans}
    assert parents["top"] is None and tracer.spans[parents["middle"]][0] == "top"


def test_span_records_errors_and_op():
    tracer = spans.Tracer()
    tracer.op = 7

    def boom():
        raise ArithmeticError("no")

    boom = tracer.wrap("boom", boom)
    with pytest.raises(ArithmeticError):
        boom()
    (span,) = tracer.spans
    assert span[4] == 7 and span[5] is True
    assert spans.aggregate(tracer.spans)["boom"]["errors"] == 1


# --- digits -------------------------------------------------------------------


def test_digits_tracks_minus_log10_and_clips():
    assert scoring.digits(1e-6) == pytest.approx(6.0, abs=1e-6)
    assert abs(scoring.digits(0.1) - 1.0) < 0.05
    assert scoring.digits(0.0) == 15.0
    assert scoring.digits(1e-30) == 15.0
    assert scoring.digits(1.0) == pytest.approx(math.log10(2.0))
    assert scoring.digits(8.1) == scoring.digits(1.0)


def test_unanswered_radius_scores_zero():
    got = scoring.digits_by_bucket([(0.5, 1e-9), (0.99, 1e-4), (0.9985, 0.26),
                                    (0.9995, math.inf), (0.99999, 1e-3)])
    assert got["digits.r0.99"] == pytest.approx(4.0, abs=1e-4)
    assert got["digits.r0.999"] == pytest.approx(math.log10(1 + 1 / 0.26))
    assert got["digits.r0.9999"] == 0.0


# --- failed operations --------------------------------------------------------


def _verdict(failed=False, defect="", reason=""):
    return checks.Verdict(failed, reason, defect=defect)


def test_failure_counting_over_passes():
    ids = ["a", "b", "c", "d"]
    one = [_verdict(), _verdict(True, "grid-stride", "grid"), _verdict(True, "", "exit status 2"),
           _verdict()]
    attempted, failed, known, unexpected = scoring.count_failures(ids, [one, one, one])
    assert (attempted, failed) == (12, 6)
    assert known == {"b": "grid-stride"} and unexpected == {"c": "exit status 2"}
    assert scoring.ok_fraction(attempted, failed) == 0.5
    with pytest.raises(ValueError):
        scoring.ok_fraction(0, 0)


def test_checker_classifies_failures():
    checker = checks.Checker()
    op = {"id": "x", "kind": "api", "check": {"type": "none"}, "defect": "hyp2f1-convergence"}
    raised = checker.check(op, {"i": 0, "error": "ConvergenceError: cap"}, ".")
    assert raised.failed and raised.defect == "hyp2f1-convergence"
    other = checker.check(op, {"i": 0, "error": "ValueError: nope"}, ".")
    assert other.failed and not other.defect
    refused = checker.check({"id": "y", "kind": "cli", "check": {"type": "none"}},
                            {"i": 1, "rc": 2}, ".")
    assert refused.failed and refused.reason == "exit status 2"
    assert not checker.check(op, {"i": 0, "rc": None}, ".").failed


def test_refused_cli_flag_is_a_failed_operation(tmp_path):
    import diskpoisson
    from diskpoisson import cli

    op = {"id": "bogus", "kind": "cli", "argv": ["eval", "--no-such-flag"],
          "check": {"type": "none"}}
    rec = worker._run_op(diskpoisson, cli, op, 0, {}, str(tmp_path))
    assert rec["rc"] == 2 and rec["error"] is None
    verdict = checks.Checker().check(op, rec, str(tmp_path))
    assert verdict.failed and verdict.reason == "exit status 2" and not verdict.defect


# --- references ---------------------------------------------------------------


def test_series_reference_folds_frequencies_exactly():
    ref = references.log_series_ref(40)
    r, n = 0.7, 16  # degree 40 > n, so frequencies alias on the grid
    got = ref.circle("f", r, n)
    want = ref.points("f", r * references.np.exp(2j * math.pi * references.np.arange(n) / n))
    assert references.np.max(references.np.abs(got - want)) < 1e-13


# --- the traced run leaves nothing behind ---------------------------------------


def _bindings(modules):
    snap = {}
    for mod in modules:
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    snap[(mod.__name__, name, attr)] = member
    return snap


def test_wrappers_are_all_removed():
    import diskpoisson
    from diskpoisson import cli, derivs, kernel, mappings, norms, regimes, specfun

    modules = [diskpoisson, cli, derivs, kernel, mappings, norms, regimes, specfun]
    before = _bindings(modules)
    tracer = spans.Tracer()
    with tracer:
        assert getattr(regimes.circle_derivs, "_perfbench_span", False)
        assert getattr(cli.deriv_field, "_perfbench_span", False)
        assert getattr(mappings.hyp2f1, "_perfbench_span", False)
        assert getattr(vars(mappings.HypMonomial)["value"], "_perfbench_span", False)
        F = kernel.BoundaryData.from_function(lambda t: 0j * t + 1.0, 32)
        F.resample(64)
        F.resample(64)
    assert _bindings(modules) == before
    agg = spans.aggregate(tracer.spans)
    assert agg["kernel.BoundaryData.resample"]["calls"] == 2
    assert tracer.counters["kernel.BoundaryData.resample.hits"] == 1
    assert agg[spans.CLOSED_FORM]["calls"] == 4  # two builds, each samples and validates
    assert tracer.counters[spans.CLOSED_FORM + ".samples"] == 2 * 32 + 2 * 64
