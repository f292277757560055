"""The benchmark's own arithmetic: digit scores and failure counts."""

from __future__ import annotations

import math

BUCKETS = (0.99, 0.999, 0.9999)


def bucket(r: float):
    """The smallest bucket radius at or above r; None beyond the last."""
    for b in BUCKETS:
        if r <= b * (1.0 + 1e-12):
            return b
    return None


def digits(err) -> float:
    """Correct decimal digits of an answer with relative error err.

    log10(1 + 1/err), clipped to 15, equals -log10(err) to within 0.05 for
    err <= 0.1. Errors of 1 or more score log10(2) ~ 0.3, so every answer
    that is wrong in its leading digit scores the same; an unanswered
    value (err None) scores 0.
    """
    if err is None:
        return 0.0
    if err == 0.0:
        return 15.0
    return min(15.0, math.log10(1.0 + 1.0 / min(err, 1.0)))


def digits_by_bucket(errors) -> dict:
    """Lowest digits per radius bucket over (radius, error) pairs.

    Non-finite errors are failed answers, not scored ones; a bucket with
    no answered value scores 0.
    """
    out = {b: None for b in BUCKETS}
    for r, err in errors:
        b = bucket(r)
        if b is None or not math.isfinite(err):
            continue
        d = digits(err)
        out[b] = d if out[b] is None else min(out[b], d)
    return {f"digits.r{b}": (0.0 if d is None else d) for b, d in out.items()}


def count_failures(op_ids, passes):
    """(attempted, failed, known, unexpected) over the verdicts of every pass.

    ``passes`` holds one list of verdicts per pass, aligned with op_ids.
    known and unexpected map an operation id to its defect tag or reason.
    """
    attempted = failed = 0
    known, unexpected = {}, {}
    for verdicts in passes:
        for op_id, v in zip(op_ids, verdicts, strict=True):
            attempted += 1
            if v.failed:
                failed += 1
                if v.defect:
                    known[op_id] = v.defect
                else:
                    unexpected[op_id] = v.reason
    return attempted, failed, known, unexpected


def ok_fraction(attempted: int, failed: int) -> float:
    """Share of attempted operations that did not fail (1 - failed_ops_frac)."""
    if attempted < 1:
        raise ValueError("no operation attempted")
    return 1.0 - failed / attempted
