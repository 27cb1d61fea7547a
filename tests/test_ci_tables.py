"""The command-line tables that reproduce the paper, built in process and checked.

Each test runs its argv through cli.main, which must return 0 with an empty
stderr (a `nan row:` line fails it, and the suite's filterwarnings turns a
numpy RuntimeWarning into an error), and then asserts what it states on the
table.  The one-route tests re-run sampled rows of eight tables through
`scan-time --alpha` and through `scheme_qfi(build_probe(spec))`, with cold
caches as a fresh process has them, and one row per table in a fresh
interpreter.
"""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symqfi as sq
from symqfi import cli
from symqfi.cli import DEFAULT_GAMMA_DELTA_B, DEFAULT_TAU_C
from symqfi.steady_forms import ghz_qfi_analytic

from caches import cold_caches

NOISE = sq.NoiseParams(DEFAULT_GAMMA_DELTA_B, DEFAULT_TAU_C)
SRC = str(Path(sq.__file__).resolve().parent.parent)
SPLIT = ["--n", "8", "--n1", "4", "--k1", "2", "--k2", "2"]
SPLIT10 = ["--n", "10", "--n1", "4", "--k1", "2", "--k2", "3"]
ROTATION20 = ["--t-list", "1e-3,1e-2", "--alpha-min", "-20", "--alpha-max", "20",
              "--alpha-count", "41"]


def run_clean(capsys, argv):
    """cli.main(argv)'s stdout, after asserting exit 0 and an empty stderr."""
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


def rows_of(lines):
    return list(csv.DictReader(line for line in lines if not line.startswith("#")))


def table(path):
    with open(path, encoding="utf-8") as handle:
        return rows_of(handle)


def count(text):
    return int(text) if text else None


@pytest.mark.parametrize("argv", [
    ["scan-time", "--scheme", "di_spin_echo", "--family", "ghz_bipartite,bsd,product_plus",
     *SPLIT, "--format", "jsonl", "--out", "echo.jsonl"],
    # non-ProductState probes under spin echo and repeat: one block per basis vector
    ["scan-time", "--scheme", "di_spin_echo", "--family", "dfs_optimal", "--n", "8",
     "--t-min", "1e-5", "--t-max", "10", "--t-count", "12"],
    ["scan-time", "--scheme", "di_repeat", "--family", "dfs_optimal", "--n", "8",
     "--t-min", "1e-5", "--t-max", "10", "--t-count", "12"],
], ids=["echo-jsonl", "dfs-spin-echo", "dfs-repeat"])
def test_table_is_clean(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    run_clean(capsys, argv)


# (table, argv that writes it, scan-time flags that re-run a row, sampled rows)
ONE_ROUTE_TABLES = [
    ("opt.csv", ["scan-time", "--family", "ghz,dicke_symmetric", "--n", "12",
                 "--t-list", "1e-3,1e-2,3e-2", "--optimize-alpha"], [], lambda rows: rows),
    # the only optimizer table above n = 40
    ("opt100.csv", ["scan-time", "--family", "ghz,dicke_symmetric,product_plus", "--n", "100",
                    "--t-list", "1e-4,1e-3,1e-2", "--optimize-alpha"], [], lambda rows: rows),
    # both partition-2 factors, GHZ(4) and Dicke(4, 2), take the parity sectors
    ("repeat.csv", ["scan-time", "--scheme", "di_repeat", "--family",
                    "ghz_bipartite,bsd,product_plus", *SPLIT, "--t-list", "1e-3,1e-2",
                    "--optimize-alpha"], ["--scheme", "di_repeat", *SPLIT], lambda rows: rows),
    # di_ideal's generator is not constant on a block; the optimizer's bound,
    # from the kernel's symmetric root, runs there too
    ("ideal.csv", ["scan-time", "--scheme", "di_ideal", "--family",
                   "ghz_bipartite,bsd,product_plus", *SPLIT, "--t-list", "1e-3,1e-2,0.5",
                   "--optimize-alpha"], ["--scheme", "di_ideal", *SPLIT], lambda rows: rows),
    # the stacked scan-rotation
    ("fig_rotation.csv", ["scan-rotation", "--family", "ghz", "--n", "8",
                          "--t-list", "1e-4,3e-3,1e-2,3e-2", "--alpha-count", "181"], [],
     lambda rows: rows[:8] + rows[8::97]),
    # 40 times per probe: every cell after a probe's first reads the grid
    # rotations the optimizer keeps from the earlier ones
    ("opt40.csv", ["scan-time", "--family", "ghz,dicke_symmetric,product_plus", "--n", "16",
                   "--t-min", "1e-4", "--t-max", "1", "--t-count", "40", "--optimize-alpha"], [],
     lambda rows: rows[1::6]),
    # alpha crosses +-4 pi, past which the rotation takes its angle modulo 4 pi;
    # rows 40 and 41 are the first family's alpha = 0
    ("rot20.csv", ["scan-rotation", "--family", "ghz,dicke_symmetric,product_plus", "--n", "10",
                   *ROTATION20], [], lambda rows: rows[::9] + rows[40:42]),
    ("rot20_repeat.csv", ["scan-rotation", "--scheme", "di_repeat", "--family",
                          "bsd,ghz_bipartite", *SPLIT10, *ROTATION20],
     ["--scheme", "di_repeat", *SPLIT10], lambda rows: rows[::9] + rows[40:42]),
]


@pytest.mark.parametrize("name, argv, flags, sample", ONE_ROUTE_TABLES,
                         ids=[name for name, *_ in ONE_ROUTE_TABLES])
def test_one_rotation_route(tmp_path, capsys, name, argv, flags, sample):
    # scan-time at a row's alpha, family and T prints that row's F_phase digit
    # for digit, alpha = 0 included, and so does the Python API's
    # scheme_qfi(build_probe(spec)), as it runs scan's set-up
    out = tmp_path / name
    cold_caches()
    run_clean(capsys, [*argv, "--out", str(out)])
    rows = sample(table(out))
    assert any(float(row["alpha"]) == 0.0 for row in rows), name
    assert name == "ideal.csv" or any(float(row["alpha"]) != 0.0 for row in rows), name

    def again(row):
        return ["scan-time", *flags, "--family", row["family"], "--n", row["n"],
                "--t-list", row["T"], "--alpha", row["alpha"]]

    for row in rows:
        cold_caches()
        rerun = rows_of(run_clean(capsys, again(row)).splitlines())
        assert [r["F_phase"] for r in rerun] == [row["F_phase"]], (name, row, rerun)
        spec = sq.ProbeSpec(sq.ProbeFamily(row["family"]), int(row["n"]), n1=count(row["n1"]),
                            k1=count(row["k1"]), k2=count(row["k2"]), alpha=float(row["alpha"]))
        scheme = sq.SchemeSpec(sq.SchemeKind(row["scheme"]), NOISE)
        f_phase = sq.scheme_qfi(sq.build_probe(spec), scheme, float(row["T"]))[0]
        assert f"{f_phase:.17g}" == row["F_phase"], (name, row, f_phase)
    # one row, rotated where the table has one, in a fresh interpreter
    row = next((row for row in rows if float(row["alpha"]) != 0.0), rows[0])
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "symqfi.cli", *again(row)], capture_output=True,
                         text=True, env=env, check=False)
    assert (run.returncode, run.stderr) == (0, ""), run.stderr
    rerun = rows_of(run.stdout.splitlines())
    assert [r["F_phase"] for r in rerun] == [row["F_phase"]], (name, row, rerun)


def test_fig_time_ghz_rows_follow_the_decay_law(tmp_path, capsys):
    # the README's fig_time.csv: each GHZ row meets n^2 exp(-n^2 C(T)) at
    # every T, also the late ones that once read exactly 0 from T = 5.5e-3
    out = tmp_path / "fig_time.csv"
    run_clean(capsys, ["scan-time", "--family", "ghz,dicke_symmetric,product_plus", "--n", "8",
                       "--t-min", "1e-4", "--t-max", "1", "--t-count", "40", "--out", str(out)])
    rows = [row for row in table(out) if row["family"] == "ghz"]
    assert len(rows) == 40
    for row in rows:
        ref = ghz_qfi_analytic(8, float(row["T"]), NOISE)
        assert abs(float(row["F_phase"]) - ref) <= 1e-12 * ref, row
    assert sum(0 < float(row["F_phase"]) < 1e-30 for row in rows) >= 5


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
