"""Compare the command-line outputs of two diskpoisson source trees.

    python tools/output_battery.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the diskpoisson package (a
checkout's src/). Each command of a fixed list runs once per tree, in its own
subprocess with that tree on PYTHONPATH, and the script prints one line per
command: "identical" when its stdout (and the file an --export writes) is
byte-for-byte the same, else the largest change of a printed number relative to
the command's largest finite |value|, or "text differs" when more than numbers
changed. Each line ends with both exit codes; both stderr texts follow when they
differ. The boundary CSVs that eval and norm read are the old tree's exports
and the malformed files written next to them, so both trees read the same files.

The exit status is 0 when every command is identical in stdout, exit code and
stderr, 1 when any differs (as diff's is), and 2 on a usage error.

The summary line counts the verdicts and names the largest relative change
with its command, so a change that moves numbers at rounding level can quote
one figure.

The list: report (seeds 0, 1, 7) and verify --suite all, and both again with
--nodes 1024, so the bundled boundaries are built at a node count other than
2048 (report at seed 0); verify --suite inequalities --nodes 256, whose
kernel-mean and distance-integral sums must resolve r = 0.99 on their own;
example --id 4.1 --n 150 and --alpha -0.9 --n 169, Gauss sums whose Gamma
arguments pass x = 142; example --export of
4.1, 4.2 and 4.3 (2048 samples; 4.2 and 4.3 also 8192); on each exported CSV at
alpha -0.5, 0 and 0.7, eval --grid, eval --grid --field, eval --point (4
points), eval --point --field and norm --boundary (5 quantities x hardy,
bergman); the same norm --boundary lines on 4.2 exported at 1000 samples, a
node count that is not a power of two, from a boundary with a corner, so its
Nyquist bin holds energy, and eval --point 0,0 --point 0.5,0.7 --field on that
CSV, so the origin's limit is compared at that count too; regime at (alpha, p)
= (-0.5, 2), (0, 1), (0, inf) and (0.5, 3); and norm --example of 4.1 (alpha
-0.5), 4.2 (0.7) and 4.3 (0), each quantity and kind, with --nodes 8192 and
with --r-max 0.9999, for f and dzbar (hardy) built at --samples 1024 and swept
at --nodes 4096, where
4.3's n_trunc follows --samples, and for f (hardy) swept at --nodes 81920 with
--r-max 0.9999; eval --point 1e-200,2 --field at alpha 0.5 on the 4.1
CSV, a radius the polar frame cannot divide by; and eval --alpha 0 --point 0.5,0
on each malformed boundary CSV of MALFORMED (a 16-sample grid of F = 1 with a
short row, a non-numeric cell, a blank line, a trailing comma, no rows under
the header, a quoted cell, or a number written 1_0), so that refusals are
compared by exit code and stderr; and, on F = 1 at 256 samples (ONE), eval
--alpha 0 --point 0.99609375,0 and norm --alpha 0 --p 2 --quantity f --kind
hardy --r-max 0.996, at r = 1 - 1/256, where the trapezoid kernel aliases and
the Poisson kernel's exact modes give 1. (norm --example 4.3 --alpha 0
--quantity dz --kind hardy --r-max 0.9999, whose verdict the aliases make, is
one of the norm --example lines above.) Then norm --example 4.3 --alpha 0 --p 2
--quantity f --kind hardy with --r-max 0.996 and with --r-max 0.5, both without
--cutoffs, so the default cutoffs below the default r-max are compared by exit
code and output.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import tempfile

QUANTITIES = ("f", "dtheta", "dr", "dz", "dzbar")
KINDS = ("hardy", "bergman")
ALPHAS = ("-0.5", "0", "0.7")
EXPORTS = (("4.1", 2048), ("4.2", 2048), ("4.2", 8192), ("4.3", 2048), ("4.3", 8192))
NORM_EXPORT = ("4.2", 1000)  # no eval --grid on it: 64 --grid-thetas do not divide it
POINTS = ("0,0", "0.5,0.7", "0.9,2", "0.999,1")
EXAMPLE_ALPHAS = (("4.1", "-0.5"), ("4.2", "0.7"), ("4.3", "0"))
REGIMES = (("-0.5", "2"), ("0", "1"), ("0", "inf"), ("0.5", "3"))  # (alpha, p)

_GRID = [f"{2.0 * math.pi * j / 16!r},1.0,0.0" for j in range(16)]  # F = 1 at 16 samples
MALFORMED = {  # file name: the rows under the header theta,re,im
    "short-row.csv": _GRID[:3] + ["0.5,1.0"] + _GRID[4:],
    "non-numeric.csv": _GRID[:3] + [_GRID[3].replace("1.0", "one")] + _GRID[4:],
    "blank-line.csv": _GRID[:3] + [""] + _GRID[3:],
    "trailing-comma.csv": _GRID[:3] + [_GRID[3] + ","] + _GRID[4:],
    "header-only.csv": [],
    "quoted-cell.csv": _GRID[:3] + [_GRID[3].replace("1.0", '"1.0"')] + _GRID[4:],
    "underscore.csv": _GRID[:3] + [_GRID[3].replace("1.0", "1_0")] + _GRID[4:],
}
ONE = "one-256.csv"  # F = 1 at 256 samples, well formed
WRITTEN = {**MALFORMED, ONE: [f"{2.0 * math.pi * j / 256!r},1.0,0.0" for j in range(256)]}

NUMBER = re.compile(rb"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def csv_name(example: str, samples: int) -> str:
    return f"{example}-{samples}.csv"


def commands(csv_dir: str):
    """The argv lists of the battery; every --export comes before a read of its CSV."""
    for seed in ("0", "1", "7"):
        yield ["report", "--seed", seed]
    yield ["verify", "--suite", "all"]
    yield ["verify", "--suite", "all", "--nodes", "1024"]
    yield ["report", "--nodes", "1024", "--seed", "0"]
    yield ["verify", "--suite", "inequalities", "--nodes", "256"]
    yield ["example", "--id", "4.1", "--n", "150"]
    yield ["example", "--id", "4.1", "--alpha", "-0.9", "--n", "169"]
    for example, samples in EXPORTS + (NORM_EXPORT,):
        yield ["example", "--id", example, "--samples", str(samples),
               "--export", csv_name(example, samples)]
    for example, samples in EXPORTS:
        boundary = os.path.join(csv_dir, csv_name(example, samples))
        for alpha in ALPHAS:
            base = ["--alpha", alpha, "--boundary", boundary]
            points = [tok for point in POINTS for tok in ("--point", point)]
            yield ["eval", *base, "--grid"]
            yield ["eval", *base, "--grid", "--field"]
            yield ["eval", *base, *points]
            yield ["eval", *base, *points, "--field"]
            for quantity in QUANTITIES:
                for kind in KINDS:
                    yield ["norm", *base, "--p", "2", "--quantity", quantity, "--kind", kind]
    for alpha in ALPHAS:
        base = ["--alpha", alpha, "--boundary", os.path.join(csv_dir, csv_name(*NORM_EXPORT))]
        for quantity in QUANTITIES:
            for kind in KINDS:
                yield ["norm", *base, "--p", "2", "--quantity", quantity, "--kind", kind]
        yield ["eval", *base, "--point", "0,0", "--point", "0.5,0.7", "--field"]
    for alpha, p in REGIMES:
        yield ["regime", "--alpha", alpha, "--p", p]
    yield ["eval", "--alpha", "0.5", "--boundary", os.path.join(csv_dir, csv_name("4.1", 2048)),
           "--point", "1e-200,2", "--field"]
    for name in MALFORMED:
        yield ["eval", "--alpha", "0", "--boundary", os.path.join(csv_dir, name),
               "--point", "0.5,0"]
    one = ["--alpha", "0", "--boundary", os.path.join(csv_dir, ONE)]
    yield ["eval", *one, "--point", "0.99609375,0"]
    yield ["norm", *one, "--p", "2", "--quantity", "f", "--kind", "hardy", "--r-max", "0.996",
           "--cutoffs", "0.9,0.99,0.996"]
    for r_max in ("0.996", "0.5"):  # no --cutoffs: the default ones follow --r-max
        yield ["norm", "--example", "4.3", "--alpha", "0", "--p", "2", "--quantity", "f",
               "--kind", "hardy", "--r-max", r_max]
    for example, alpha in EXAMPLE_ALPHAS:
        for quantity in QUANTITIES:
            for kind in KINDS:
                base = ["norm", "--example", example, "--alpha", alpha, "--p", "2",
                        "--quantity", quantity, "--kind", kind]
                yield base + ["--nodes", "8192"]
                yield base + ["--r-max", "0.9999", "--cutoffs", "0.99,0.999,0.9999"]
        for quantity in ("f", "dzbar"):
            yield ["norm", "--example", example, "--alpha", alpha, "--p", "2",
                   "--quantity", quantity, "--kind", "hardy", "--samples", "1024",
                   "--nodes", "4096"]
        yield ["norm", "--example", example, "--alpha", alpha, "--p", "2", "--quantity", "f",
               "--kind", "hardy", "--nodes", "81920", "--r-max", "0.9999",
               "--cutoffs", "0.99,0.999,0.9999"]


def run(src: str, workdir: str, argv: list) -> tuple:
    """(exit code, stdout plus any exported file, stderr) of argv with src on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-m", "diskpoisson.cli", *argv], cwd=workdir,
                          env=env, capture_output=True)
    out = proc.stdout
    if "--export" in argv:
        with open(os.path.join(workdir, argv[argv.index("--export") + 1]), "rb") as fh:
            out += b"\0" + fh.read()
    return proc.returncode, out, proc.stderr.decode(errors="replace")


def compare(old: bytes, new: bytes) -> str:
    """"identical", "text differs", or the largest change of a number over the largest
    finite |value| of old."""
    if old == new:
        return "identical"
    if NUMBER.sub(b"#", old) != NUMBER.sub(b"#", new):
        return "text differs"
    a = [float(tok) for tok in NUMBER.findall(old)]
    b = [float(tok) for tok in NUMBER.findall(new)]
    change = max(abs(x - y) for x, y in zip(a, b) if x != y)
    scale = max((abs(x) for x in a if math.isfinite(x)), default=0.0)
    return f"rel {change / scale:.2g}" if scale > 0.0 else f"abs {change:.2g}"


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: python tools/output_battery.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old_src, new_src = argv
    with tempfile.TemporaryDirectory() as tmp:
        old_dir, new_dir = os.path.join(tmp, "old"), os.path.join(tmp, "new")
        os.mkdir(old_dir)
        os.mkdir(new_dir)
        for name, rows in WRITTEN.items():
            with open(os.path.join(old_dir, name), "w", newline="") as fh:
                fh.write("\n".join(["theta,re,im", *rows]) + "\n")
        tally = {}
        largest = (0.0, None)  # (relative change, command) of the largest "rel" verdict
        status = 0
        for cmd in commands(old_dir):
            old_code, old_out, old_err = run(old_src, old_dir, cmd)
            new_code, new_out, new_err = run(new_src, new_dir, cmd)
            verdict = compare(old_out, new_out)
            if verdict != "identical" or old_code != new_code or old_err != new_err:
                status = 1
            tally[verdict.split()[0]] = tally.get(verdict.split()[0], 0) + 1
            shown = " ".join(os.path.basename(tok) if tok.startswith(old_dir) else tok
                             for tok in cmd)
            if verdict.startswith("rel ") and float(verdict.split()[1]) > largest[0]:
                largest = (float(verdict.split()[1]), shown)
            print(f"{verdict:<14} exit {old_code}/{new_code}  {shown}", flush=True)
            if old_err != new_err:
                for label, err in (("old", old_err), ("new", new_err)):
                    for line in err.splitlines() or ["(empty)"]:
                        print(f"    {label} stderr: {line}")
        summary = ", ".join(f"{k} {v}" for k, v in sorted(tally.items()))
        if largest[1] is not None:
            summary += f"; largest rel {largest[0]:.2g} in {largest[1]}"
        print("summary: " + summary)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
