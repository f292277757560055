"""Property tests of the input contract: fuzzed argv and fuzzed boundary CSV text.

Any argv of numbers exits 0 or 2 and never raises; exit 2 prints one
`error:` line. Any CSV text either reads as BoundaryData (or, through the
field reader, as a DerivField) or is refused with a ValueError that names
the file. The table reader under both returns the numbers (bit for bit) and
labels of the reference per-row loop, or its refusal, except on the inputs
where the two are documented to differ.
"""

import contextlib
import csv
import io
import math
from itertools import islice

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diskpoisson.cli import main
from diskpoisson.derivs import _DERIV_CSV_HEADER, DerivField, read_deriv_csv
from diskpoisson.kernel import _ANGULAR_CAP, BoundaryData, _read_table, read_boundary_csv
from reference_csv import read_table

# Reals of every kind argparse accepts for a float option, out-of-range ones included.
reals = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-3.0, max_value=3.0),
    st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
)
# Node and sample counts out of range: odd, too small, negative or above the cap.
bad_counts = st.one_of(st.integers(min_value=-64, max_value=64),
                       st.integers(min_value=_ANGULAR_CAP + 1, max_value=1 << 62))
small_counts = st.sampled_from([16, 32, 64])  # valid counts stay small, so a run is quick
# option: (values in range, values out of range)
OPTIONS = {
    "alpha": (st.floats(min_value=-0.99, max_value=1.0), reals),
    "p": (st.sampled_from([1.0, 1.5, 2.0, math.inf]), reals),
    "samples": (small_counts, bad_counts),
    "nodes": (small_counts, bad_counts),
    "r-max": (st.sampled_from([0.9, 0.99, 0.999]), reals),
    "cutoffs": (st.sampled_from(["0.5,0.7,0.9", "0.6,0.7,0.8,0.9"]),
                st.lists(reals, max_size=5).map(lambda c: ",".join(map(repr, c)))),
    "n": (st.integers(1, 4), st.integers(-3, 400)),
    "n-trunc": (st.integers(2, 40), st.integers(-3, 1)),
    "id": (st.sampled_from(["4.1", "4.2", "4.3", "hyp-monomial"]), st.sampled_from(["4.4", ""])),
}
COMMANDS = {
    "regime": ("alpha", "p"),
    "example": ("id", "alpha", "samples", "n", "n-trunc"),
    "norm": ("id", "alpha", "p", "cutoffs", "r-max", "nodes", "samples", "n", "n-trunc"),
}


@st.composite
def argvs(draw):
    """A subcommand with every option in range except for up to two drawn ones."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    broken = draw(st.sets(st.sampled_from(COMMANDS[command]), max_size=2))
    argv = [command]
    for name in COMMANDS[command]:
        value = draw(OPTIONS[name][name in broken])
        if name == "id" and command == "norm":
            name = "example"
        # One token, so argparse never reads a value such as -inf as an option.
        argv.append(f"--{name}={value if isinstance(value, str) else repr(value)}")
    if command == "norm":
        argv += ["--quantity", draw(st.sampled_from(["f", "dtheta", "dr", "dz", "dzbar"])),
                 "--kind", draw(st.sampled_from(["hardy", "bergman"]))]
    return argv


@settings(max_examples=60, deadline=None)
@given(argvs())
def test_argv_exits_0_or_2_with_a_named_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), argv
    if code == 2:
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())
        assert out.getvalue() == ""
    else:
        assert out.getvalue().startswith("{")


fields = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(min_value=-10, max_value=10).map(str),
    st.sampled_from(["", " ", "np.float64(0.0)", "1e999", "nan", "0x1p-3", "1,5", '"2"',
                     "1_0", '"-0.5"', '"1e3"x', '"a,b"', "\u0661"]),
    st.text(alphabet="0123456789.-+eEinf \"'\r\n,", max_size=8),
)
FIELD_HEADER = ",".join(_DERIV_CSV_HEADER)
headers = st.sampled_from(["theta,re,im", " theta , re , im ", "theta,re", "x,y,z", "",
                           FIELD_HEADER, FIELD_HEADER.replace(",flag", "")])
flags = st.sampled_from(["", "origin_fd", "under_resolved", '"a,b"', 'x"'])


@st.composite
def csv_texts(draw):
    kind = draw(st.sampled_from(["uniform", "field", "rows", "text"]))
    if kind == "text":
        return draw(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=200))
    if kind in ("uniform", "field"):
        # A uniform boundary grid or derivative rows (ten reals and a flag), under
        # their own header half the time, occasionally with one field fuzzed.
        n = draw(st.integers(min_value=1, max_value=24)) * 2
        if kind == "uniform":
            header = "theta,re,im"
            rows = [[repr(6.283185307179586 * j / n), repr(draw(st.floats(-2.0, 2.0))), "0.0"]
                    for j in range(n)]
        else:
            header = FIELD_HEADER
            rows = [[repr(draw(st.floats(-2.0, 2.0))) for _ in range(10)] + [draw(flags)]
                    for _ in range(n)]
        header = draw(st.one_of(st.just(header), headers))
        if draw(st.booleans()):
            rows[draw(st.integers(0, n - 1))][draw(st.integers(0, len(rows[0]) - 1))] = draw(fields)
    else:
        header = draw(headers)
        rows = draw(st.lists(st.lists(fields, min_size=0, max_size=4), max_size=20))
    lines = [",".join(row) for row in rows]
    if lines and draw(st.booleans()):
        # one line changed: a trailing comma, a blank line before it, or every cell quoted
        at = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["comma", "blank", "quote"]))
        if edit == "comma":
            lines[at] += ","
        elif edit == "blank":
            lines.insert(at, "")
        else:
            lines[at] = ",".join(f'"{cell}"' for cell in rows[at])
    return "\n".join([header] + lines) + "\n"


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts(), reader=st.sampled_from([(read_boundary_csv, BoundaryData),
                                                 (read_deriv_csv, DerivField)]))
def test_csv_reads_or_names_the_file(tmp_path, text, reader):
    read, kind = reader
    path = tmp_path / "fuzz.csv"
    path.write_text(text, encoding="utf-8", newline="")
    try:
        got = read(str(path))
    except ValueError as exc:
        assert str(path) in str(exc), str(exc)
    else:
        assert isinstance(got, kind)


TABLES = {  # name: (header, numbers per row, row cap) of each table the program reads
    "boundary": (("theta", "re", "im"), 3, _ANGULAR_CAP),
    "field": (tuple(_DERIV_CSV_HEADER), 10, None),
}


def _outcome(read, path, header, n_numbers, cap):
    """("read", the numbers' shape and bits, labels) or ("refused", message) of one reader."""
    try:
        numbers, labels = read(str(path), header, n_numbers, cap)
    except ValueError as exc:
        return "refused", str(exc)
    return "read", numbers.shape, numbers.view(np.int64).tolist(), labels


def _documented_difference(path, n_numbers) -> bool:
    """Whether the file holds an input the two readers are documented to treat
    differently: a blank line (skipped, where the loop refused it), or a number
    that float() reads but that has an underscore or a digit outside ASCII
    (refused, where the loop read it)."""
    def float_only(cell):
        try:
            float(cell)
        except ValueError:
            return False
        return "_" in cell or not cell.strip().isascii()

    with open(path, newline="") as fh:
        try:
            for row in islice(csv.reader(fh), 1, None):
                if not row or any(map(float_only, row[:n_numbers])):
                    return True
        except (csv.Error, UnicodeDecodeError):
            pass
    return False


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts(), table=st.sampled_from(sorted(TABLES)))
def test_table_reader_matches_the_reference_loop(tmp_path, text, table):
    header, n_numbers, cap = TABLES[table]
    path = tmp_path / "fuzz.csv"
    path.write_text(text, encoding="utf-8", newline="")
    got = _outcome(_read_table, path, header, n_numbers, cap)
    want = _outcome(read_table, path, header, n_numbers, cap)
    if got != want:
        assert _documented_difference(path, n_numbers), (text, got, want)
