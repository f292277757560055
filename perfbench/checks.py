"""Correctness checks of one operation's outputs, run in the parent process.

``Checker.check`` returns a ``Verdict``: whether the operation failed,
why, and the relative errors of its answered values by radius, from which
``digits.*`` are scored. An operation fails when it raised, exited
non-zero, returned a non-finite value, or fails its check:

* outputs the program presents as resolved must be within ``TOL`` of the
  independent reference. Resolved means closed-form evaluation, or a
  quadrature whose node count N meets the program's own criterion
  N >= 8/(1-r); below it the program warns, and the value is scored by
  ``digits`` only;
* labels (radii, angles, row counts), CSV round trips and the report's
  records and verdicts must match exactly.

``KNOWN_DEFECTS`` names the failures the program had when the benchmark
was defined. They still count as failed operations; only a failure
outside this list makes a run incorrect.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import references as R


TOL = 0.1
LABEL_TOL = 1e-12
SAMPLE_TOL = 1e-10

KNOWN_DEFECTS = {
    "hyp2f1-convergence": "HypMonomial.value/.derivs raise ConvergenceError from r = 0.999 on",
    "grid-stride": "eval --grid without --nodes strides a non-2048-sample CSV as if it had "
                   "2048 samples, so values land at the wrong angles",
}

FIELD_HEADER = ["r", "theta", "re_dtheta", "im_dtheta", "re_dr", "im_dr",
                "re_dz", "im_dz", "re_dzbar", "im_dzbar", "flag"]

REPORT_RECORDS = 129
REPORT_DIVERGENCE = [
    ("dr", "hardy", 1.0, "diverging"), ("dr", "hardy", 2.0, "diverging"),
    ("dz", "hardy", 1.0, "diverging"), ("dz", "hardy", 2.0, "diverging"),
    ("dzbar", "hardy", 1.0, "diverging"), ("dzbar", "hardy", 2.0, "diverging"),
    ("dzbar", "bergman", 1.0, "lower_bound_only"),
    ("dzbar", "bergman", 1.5, "lower_bound_only"),
    ("dzbar", "bergman", 2.0, "diverging"),
    ("dzbar", "bergman", 3.0, "diverging"),
]
REPORT_DIVERGENCE_CUTOFFS = (0.9, 0.99, 0.999)
# The piecewise-phase map stays a candidate: grids cannot falsify it.
REPORT_ELLIPTICITY = {
    "hyp-monomial": "non_elliptic_trend",
    "piecewise-phase": "elliptic_candidate",
    "log-series": "non_elliptic_trend",
    "identity": "elliptic_candidate",
}
REPORT_HYP = (-0.5, 1)
REPORT_HYP_RADII = (1.0 - 1e-3, 1.0 - 1e-4, 1.0 - 1e-5, 1.0 - 1e-6)


class CheckFailed(Exception):
    pass


@dataclass
class Verdict:
    failed: bool
    reason: str = ""
    errors: list = field(default_factory=list)  # (radius, relative error)
    defect: str = ""  # the known defect this failure is an instance of


def resolved(nodes: int, r: float) -> bool:
    return r < 1.0 and nodes >= 8.0 / (1.0 - r)


class Checker:
    def __init__(self):
        self._hyp: dict = {}
        self._series: dict = {}
        self._samples: dict = {}

    # -- references ----------------------------------------------------------

    def hyp(self, alpha, n) -> R.HypRef:
        key = (float(alpha), int(n))
        if key not in self._hyp:
            self._hyp[key] = R.HypRef(*key)
        return self._hyp[key]

    def series(self, example: str, samples: int) -> R.SeriesRef:
        key = (example, samples)
        if key not in self._series:
            if example == "4.2":
                self._series[key] = R.phase_ref()
            elif example == "4.3":
                self._series[key] = R.log_series_ref(samples // 2 - 1)
            else:
                raise ValueError(example)
        return self._series[key]

    def boundary_samples(self, example: str, samples: int) -> np.ndarray:
        """The boundary function at the uniform angles 2 pi j / samples."""
        key = (example, samples)
        if key not in self._samples:
            t = 2.0 * np.pi * np.arange(samples) / samples
            if example == "4.2":
                self._samples[key] = R.phase_values(t)
            else:
                self._samples[key] = R.log_series_values(t, samples // 2 - 1) + 0j
        return self._samples[key]

    def sup_boundary(self, example, samples) -> float:
        return float(np.max(np.abs(self.boundary_samples(example, samples))))

    # -- entry point ---------------------------------------------------------

    def check(self, op: dict, rec: dict, workdir: str) -> Verdict:
        if rec.get("error"):
            v = Verdict(True, rec["error"])
        elif rec.get("rc") not in (None, 0):
            v = Verdict(True, f"exit status {rec['rc']}")
        else:
            v = Verdict(False)
            try:
                getattr(self, "_check_" + op["check"]["type"])(op["check"], op, rec, workdir, v)
            except CheckFailed as exc:
                v.failed, v.reason = True, str(exc)
            except (OSError, ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
                v.failed, v.reason = True, f"unreadable output: {type(exc).__name__}: {exc}"
        if v.failed and op.get("defect") and _matches_defect(op["defect"], v):
            v.defect = op["defect"]
        return v

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _judge(v: Verdict, r: float, err: float, is_resolved: bool, what: str):
        v.errors.append((float(r), float(err)))
        if not math.isfinite(err):
            raise CheckFailed(f"{what}: non-finite value at r={r}")
        if is_resolved and err > TOL:
            raise CheckFailed(f"{what}: relative error {err:.3g} > {TOL} at r={r}")

    @staticmethod
    def _npz(workdir, rec):
        with np.load(os.path.join(workdir, f"op{rec['i']:03d}.npz")) as data:
            return {k: data[k] for k in data.files}

    # -- near_boundary ---------------------------------------------------------

    def _check_none(self, c, op, rec, workdir, v):
        pass

    def _check_hyp_sweep(self, c, op, rec, workdir, v):
        got = self._npz(workdir, rec)["values"]
        if got.shape != (c["nodes"],):
            raise CheckFailed(f"sweep returned shape {got.shape}")
        h = self.hyp(c["alpha"], c["n"])
        ref = h.circle(c["quantity"], c["r"], c["nodes"])
        err = R.rel_err(got, ref, h.circle_modulus(c["quantity"], c["r"]))
        self._judge(v, c["r"], err, resolved(c["nodes"], c["r"]), "sweep")

    def _check_hyp_value(self, c, op, rec, workdir, v):
        self._hyp_points(c, rec, workdir, v, ("f",))

    def _check_hyp_derivs(self, c, op, rec, workdir, v):
        self._hyp_points(c, rec, workdir, v, ("dz", "dzbar", "dr"))

    def _hyp_points(self, c, rec, workdir, v, quantities):
        out = self._npz(workdir, rec)
        h = self.hyp(c["alpha"], c["n"])
        z = c["r"] * np.exp(1j * np.asarray(c["thetas"]))
        err = max(R.rel_err(out[q], h.points(q, z), h.circle_modulus(q, c["r"]))
                  for q in quantities)
        self._judge(v, c["r"], err, True, "closed form")

    def _probe_reference(self, c, nodes):
        """Norm values at the cutoffs from exact circle means on `nodes` angles."""
        q, p = c["quantity"], c["p"]
        if c.get("example") == "4.1":
            h = self.hyp(c["alpha"], 1)
            mean = lambda r: h.circle_modulus(q, r)  # constant modulus
        else:
            s = self.series(c["example"], c["samples"])
            mean = lambda r: R.lp_mean(s.circle(q, r, nodes), p)
        return R.probe_values(mean, p, c["cutoffs"], c["r_max"], c["kind"])

    def _check_probe(self, c, got, nodes, v, what):
        ref = self._probe_reference(c, nodes)
        if len(got) != len(ref):
            raise CheckFailed(f"{what}: {len(got)} values, want {len(ref)}")
        for cut, g, r in zip(c["cutoffs"], got, ref):
            self._judge(v, cut, R.rel_err(g, r, abs(r)), resolved(nodes, cut), what)

    def _check_norm_example(self, c, op, rec, workdir, v):
        with open(os.path.join(workdir, c["file"])) as fh:
            payload = json.load(fh)
        self._check_probe(c, payload["values"], c["nodes"], v, "norm probe")

    # -- sampled_csv -----------------------------------------------------------

    def _check_export(self, c, op, rec, workdir, v):
        rows = _read_csv(os.path.join(workdir, c["file"]), ["theta", "re", "im"])
        n = c["samples"]
        if len(rows) != n:
            raise CheckFailed(f"export has {len(rows)} rows, want {n}")
        arr = np.asarray(rows, dtype=float)
        want_t = 2.0 * np.pi * np.arange(n) / n
        if np.max(np.abs(arr[:, 0] - want_t)) > LABEL_TOL:
            raise CheckFailed("export angles are not the uniform grid")
        ref = self.boundary_samples(c["example"], n)
        if R.rel_err(arr[:, 1] + 1j * arr[:, 2], ref, 1.0) > SAMPLE_TOL:
            raise CheckFailed("exported samples disagree with the boundary function")

    def _check_field_csv(self, c, op, rec, workdir, v):
        rows = _read_csv(os.path.join(workdir, c["file"]), FIELD_HEADER)
        radii = R.radial_grid(0.999)
        nt = c["thetas"]
        want = 1 + (len(radii) - 1) * nt
        if len(rows) != want:
            raise CheckFailed(f"field has {len(rows)} rows, want {want}")
        num = _numeric(rows, 10)
        s = self.series(c["example"], c["samples"])
        origin = num[0]
        if origin[0] != 0.0 or rows[0][10] != "origin_fd" or not np.all(np.isfinite(origin[6:10])):
            raise CheckFailed("field origin row is malformed")
        thetas = 2.0 * np.pi * np.arange(nt) / nt
        for k, r in enumerate(radii[1:]):
            block = num[1 + k * nt: 1 + (k + 1) * nt]
            if (np.max(np.abs(block[:, 0] - r)) > LABEL_TOL
                    or np.max(np.abs(block[:, 1] - thetas)) > LABEL_TOL):
                raise CheckFailed(f"field rows at r={r} carry the wrong labels")
            err = 0.0
            for j, q in enumerate(("dtheta", "dr", "dz", "dzbar")):
                ref = s.circle(q, r, nt)
                got = block[:, 2 + 2 * j] + 1j * block[:, 3 + 2 * j]
                err = max(err, R.rel_err(got, ref, float(np.max(np.abs(ref)))))
            self._judge(v, r, err, resolved(c["samples"], r), "field")

    def _check_grid_csv(self, c, op, rec, workdir, v):
        rows = _read_csv(os.path.join(workdir, c["file"]), ["r", "theta", "re", "im"])
        radii = R.radial_grid(0.999)
        nt = c["thetas"]
        if len(rows) != len(radii) * nt:
            raise CheckFailed(f"grid has {len(rows)} rows, want {len(radii) * nt}")
        num = np.asarray(rows, dtype=float)
        s = self.series(c["example"], c["samples"])
        scale = self.sup_boundary(c["example"], c["samples"])
        thetas = 2.0 * np.pi * np.arange(nt) / nt
        for k, r in enumerate(radii):
            block = num[k * nt:(k + 1) * nt]
            if (np.max(np.abs(block[:, 0] - r)) > LABEL_TOL
                    or np.max(np.abs(block[:, 1] - thetas)) > LABEL_TOL):
                raise CheckFailed(f"grid rows at r={r} carry the wrong labels")
            err = R.rel_err(block[:, 2] + 1j * block[:, 3], s.circle("f", r, nt), scale)
            self._judge(v, r, err, resolved(c["samples"], r), "grid")

    def _check_points_json(self, c, op, rec, workdir, v):
        with open(os.path.join(workdir, c["file"])) as fh:
            values = json.load(fh)["values"]
        radii, angles = np.asarray(c["radii"]), np.asarray(c["angles"])
        if len(values) != len(radii):
            raise CheckFailed(f"{len(values)} point values, want {len(radii)}")
        s = self.series(c["example"], c["samples"])
        scale = self.sup_boundary(c["example"], c["samples"])
        for row, r, t in zip(values, radii, angles):
            if abs(row["r"] - r) > LABEL_TOL or abs(row["theta"] - t) > LABEL_TOL:
                raise CheckFailed(f"point ({r}, {t}) is labelled ({row['r']}, {row['theta']})")
            ref = s.points("f", np.asarray([r * np.exp(1j * t)]))
            err = R.rel_err(complex(row["re"], row["im"]), ref, scale)
            self._judge(v, r, err, resolved(c["samples"], r), "point")

    def _check_norm_csv(self, c, op, rec, workdir, v):
        with open(os.path.join(workdir, c["file"])) as fh:
            payload = json.load(fh)
        self._check_probe(c, payload["values"], c["samples"], v, "norm probe")

    def _check_read_field(self, c, op, rec, workdir, v):
        out = self._npz(workdir, rec)
        rows = _read_csv(os.path.join(workdir, c["file"]), None)
        num = _numeric(rows, 10)
        points = np.asarray([r * complex(math.cos(t), math.sin(t)) for r, t in num[:, :2]])
        want = {"points": points}
        for j, q in enumerate(("dtheta", "dr", "dz", "dzbar")):
            want[q] = num[:, 2 + 2 * j] + 1j * num[:, 3 + 2 * j]
        for key, arr in want.items():
            if not np.array_equal(out[key], arr, equal_nan=True):
                raise CheckFailed(f"read_deriv_csv round trip changed {key}")

    # -- report ------------------------------------------------------------------

    def _check_report(self, c, op, rec, workdir, v):
        with open(os.path.join(workdir, "report.json")) as fh:
            rep = json.load(fh)
        cert = rep["certifications"]
        if cert["n_records"] != REPORT_RECORDS or not cert["all_hold"] or cert["failures"]:
            raise CheckFailed(f"certifications: {cert['n_records']} records, "
                              f"all_hold={cert['all_hold']}")
        got = [(d["quantity"], d["kind"], d["p"], d["status"]) for d in rep["divergence"]]
        if got != REPORT_DIVERGENCE:
            raise CheckFailed(f"divergence verdicts changed: {got}")
        verdicts = {e["example"]: e["report"]["verdict"] for e in rep["ellipticity"]}
        if verdicts != REPORT_ELLIPTICITY:
            raise CheckFailed(f"ellipticity verdicts changed: {verdicts}")
        h = self.hyp(*REPORT_HYP)
        for d in rep["divergence"]:
            q = d["quantity"]
            ref = R.probe_values(lambda r: h.circle_modulus(q, r), d["p"],
                                 REPORT_DIVERGENCE_CUTOFFS, 0.999, d["kind"],
                                 drop_origin=(q == "dr"))
            for cut, g, r in zip(REPORT_DIVERGENCE_CUTOFFS, d["values"], ref):
                self._judge(v, cut, R.rel_err(g, r, abs(r)), True, f"divergence {q}")
        hyp_rows = next(e["report"]["rows"] for e in rep["ellipticity"]
                        if e["example"] == "hyp-monomial")
        for row in hyp_rows:
            ref, scale = self._min_kprime(h, row["K"], row["r_max"])
            self._judge(v, row["r_max"], R.rel_err(row["min_kprime"], ref, scale), True,
                        "ellipticity")

    @staticmethod
    def _min_kprime(h, K, r_max):
        """(min K', scale) over the nested circles up to r_max; moduli are constant."""
        best, scale = 0.0, 0.0
        for r in REPORT_HYP_RADII:
            if r > r_max * (1.0 + 1e-12):
                break
            dz, dzbar = h.circle_modulus("dz", r), h.circle_modulus("dzbar", r)
            norm2 = (dz + dzbar) ** 2
            best = max(best, norm2 - K * (dz * dz - dzbar * dzbar))
            scale = max(scale, norm2)
        return best, max(best, scale)


def _read_csv(path, header):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader)
        if header is not None and first != header:
            raise CheckFailed(f"{os.path.basename(path)}: header {first}")
        return list(reader)


def _numeric(rows, ncols):
    """The first ncols columns of CSV rows as floats; an empty field is NaN."""
    values = (float(x or "nan") for row in rows for x in row[:ncols])
    return np.fromiter(values, float).reshape(-1, ncols)


def _matches_defect(tag: str, v: Verdict) -> bool:
    if tag == "hyp2f1-convergence":
        return v.reason.startswith("ConvergenceError")
    if tag == "grid-stride":
        return v.reason.startswith("grid: relative error")
    return False
