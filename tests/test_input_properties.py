"""Property tests of the input contract: fuzzed argv and fuzzed boundary CSV text.

Any argv of numbers exits 0 or 2 and never raises; exit 2 prints one
`error:` line. Any CSV text either reads as BoundaryData (or, through the
field reader, as a DerivField) or is refused with a ValueError that names
the file.
"""

import contextlib
import io
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diskpoisson.cli import main
from diskpoisson.derivs import _DERIV_CSV_HEADER, DerivField, read_deriv_csv
from diskpoisson.kernel import _ANGULAR_CAP, BoundaryData, read_boundary_csv

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
    st.sampled_from(["", " ", "np.float64(0.0)", "1e999", "nan", "0x1p-3", "1,5", '"2"']),
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
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


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
