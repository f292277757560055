"""The CSV table reader as a per-row loop, the tests' reference for kernel._read_table.

read_table is csv.reader, float() of each number and a packed array('d'),
row by row: the program's reader before np.loadtxt parsed the rows. Its
numbers and labels, or its refusal, are what the program's reader is
checked against, except where the two are documented to differ: the
program skips blank lines, refuses numbers written with underscores
("1_0") or with digits outside ASCII, which float() reads, and reads a
cell longer than csv.reader's field limit (131,072 characters).
"""

import csv
from array import array
from itertools import islice

import numpy as np


def read_table(path, header, n_numbers, cap=None):
    """(numbers, labels) of a CSV file under header, as kernel._read_table returns them;
    each refusal is a ValueError naming the file (and the line of a faulty row)."""
    names = ",".join(header)
    labelled = len(header) > n_numbers
    numbers = array("d")
    labels = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None or [h.strip() for h in first] != list(header):
                raise ValueError(f"{path}: expected header {names}, got {first!r}")
            for row in islice(reader, cap):
                if len(row) != len(header):
                    raise ValueError(f"{path}, line {reader.line_num}: expected "
                                     f"{len(header)} fields {names}, got {len(row)}")
                try:
                    numbers.extend(map(float, row[:n_numbers]))
                except ValueError:
                    raise ValueError(f"{path}, line {reader.line_num}: "
                                     f"{','.join(header[:n_numbers])} must be real "
                                     f"numbers, got {row!r}") from None
                if labelled:
                    labels.append(row[-1])
            if next(reader, None) is not None:  # only after cap rows
                raise ValueError(f"{path}, line {reader.line_num}: more than "
                                 f"{cap} samples (the angular node cap)")
        except csv.Error as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return np.frombuffer(numbers).reshape(-1, n_numbers), labels
