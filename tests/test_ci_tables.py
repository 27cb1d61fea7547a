"""Checks on two tables of the CI's command-line examples, run in process.

Each test runs the same argv as the CI's `clean symqfi ...` line through
cli.main, which must return 0 with an empty stderr (a `nan row:` line
fails it, and the suite's filterwarnings turns a numpy RuntimeWarning into
an error, as the CI's step does), and then asserts what the CI asserted
on the table.
"""

import csv
import math

from symqfi import cli


def run_clean(capsys, argv):
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""


def table(path):
    with open(path, encoding="utf-8") as handle:
        return list(csv.DictReader(line for line in handle if not line.startswith("#")))


def test_fully_dephased_cells_read_alpha_0_and_exactly_0(tmp_path, capsys):
    # fully dephased cells, whose frames are all diagonal: alpha 0 and F_phase exactly 0
    out = tmp_path / "late.csv"
    run_clean(capsys, ["scan-time", "--family", "ghz,dicke_symmetric,product_plus", "--n", "12",
                       "--t-list", "0.5,2,10", "--optimize-alpha", "--out", str(out)])
    rows = table(out)
    assert len(rows) == 9
    for row in rows:
        assert float(row["alpha"]) == 0.0 and float(row["F_phase"]) == 0.0, row


def test_huge_finite_angles_are_finite_rows(tmp_path, capsys):
    # a finite angle whose rotation phases overflow a float is no error:
    # the rotation takes it modulo 4 pi, so three finite rows
    out = tmp_path / "huge.csv"
    run_clean(capsys, ["scan-rotation", "--family", "ghz", "--n", "8", "--t-list", "1e-3",
                       "--alpha-max", "1e308", "--alpha-count", "3", "--out", str(out)])
    rows = table(out)
    assert [float(row["alpha"]) for row in rows] == [0.0, 5e307, 1e308], rows
    assert all(math.isfinite(float(row["F_phase"])) for row in rows), rows
