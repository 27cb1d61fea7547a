import json
import math
from dataclasses import fields

import pytest

from symqfi import cli
from symqfi.cli import RunConfig, main
from symqfi.collective_basis import GeneratorLabel, SymmetricBasis, generator
from symqfi.qfi import max_qfi_bound
from symqfi.steady_forms import ghz_qfi_analytic
from symqfi.dephasing import NoiseParams


def run_cli(args):
    return main(list(args))


def read_table(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# units:")
    header = lines[1].split(",")
    return header, [line.split(",") for line in lines[2:]]


class TestScanTime:
    def test_writes_csv_with_expected_columns(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run_cli(["scan-time", "--family", "ghz", "--n", "4",
                        "--t-min", "1e-4", "--t-max", "1e-2", "--t-count", "4",
                        "--out", str(out)])
        assert code == 0
        header, rows = read_table(out)
        assert header == ["scheme", "family", "n", "n1", "k1", "k2", "alpha", "T",
                          "F_phase", "F_freq", "alpha_opt_flag"]
        assert len(rows) == 4

    def test_values_match_engine(self, tmp_path):
        out = tmp_path / "scan.csv"
        run_cli(["scan-time", "--family", "ghz", "--n", "8",
                 "--t-list", "1e-4,1e-3", "--out", str(out)])
        _, rows = read_table(out)
        noise = NoiseParams(2 * math.pi * 50, 1.0)
        for row in rows:
            T, f_phase = float(row[7]), float(row[8])
            assert f_phase == pytest.approx(ghz_qfi_analytic(8, T, noise), rel=1e-9)
            assert float(row[9]) == pytest.approx(T * T * f_phase, rel=1e-12)

    def test_deterministic_bytes(self, tmp_path):
        args = ["scan-time", "--family", "ghz,dicke_symmetric", "--n", "8",
                "--t-min", "1e-4", "--t-max", "1", "--t-count", "5"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(args + ["--out", str(out1)])
        run_cli(args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_di_table_bounds_and_steady_plateaus(self, tmp_path):
        out = tmp_path / "scan.csv"
        run_cli(["scan-time", "--scheme", "di_ideal",
                 "--family", "ghz_bipartite,bsd,product_plus",
                 "--n", "8", "--n1", "4", "--k1", "2", "--k2", "2",
                 "--t-min", "1e-4", "--t-max", "10", "--t-count", "6",
                 "--out", str(out)])
        _, rows = read_table(out)
        bound = 16.0  # (n - n1)^2 for the partition-2 generator
        assert rows
        for row in rows:
            assert float(row[8]) <= bound + 1e-9
        # rows at the last grid time sit on the steady plateaus 8, 6, 2
        last = {row[1]: float(row[8]) for row in rows if row[7] == "10"}
        assert last["ghz_bipartite"] == pytest.approx(8.0, rel=1e-9)
        assert last["bsd"] == pytest.approx(6.0, rel=1e-9)
        assert last["product_plus"] == pytest.approx(2.0, rel=1e-9)

    def test_dead_coherence_is_an_exact_zero_without_warnings(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert run_cli(["scan-time", "--family", "ghz", "--n", "8", "--gamma-delta-b", "1e150",
                        "--t-list", "1e7", "--out", str(out)]) == 0
        _, rows = read_table(out)
        assert [row[8] for row in rows] == ["0"]
        assert capsys.readouterr().err == ""

    def test_nan_row_reason_on_stderr(self, capsys):
        assert run_cli(["scan-time", "--family", "ghz", "--n", "4", "--t-list=-1,0.1"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[2:] == ["standard,ghz,4,,,,0,-1,nan,nan,0",
                                                 "standard,ghz,4,,,,0,0.10000000000000001,0,0,0"]
        [line] = captured.err.splitlines()
        assert "scheme=standard family=ghz n=4" in line and "T=-1" in line
        assert "time must be finite and nonnegative" in line

    def test_jsonl_writes_an_overflowing_frequency_as_infinity(self, tmp_path):
        # T^2 F overflows past T ~ 1.3e154; the CSV row reads "inf"
        out = tmp_path / "scan.jsonl"
        args = ["scan-time", "--scheme", "di_ideal", "--family", "product_plus", "--n", "4",
                "--n1", "2", "--t-list", "1e160"]
        assert run_cli(args + ["--format", "jsonl", "--out", str(out)]) == 0
        [row] = [json.loads(line) for line in out.read_text().splitlines()[1:]]
        assert row["F_freq"] == math.inf
        assert run_cli(args + ["--out", str(tmp_path / "scan.csv")]) == 0
        _, [csv_row] = read_table(tmp_path / "scan.csv")
        assert float(csv_row[9]) == math.inf
        assert cli._fmt_json(-math.inf) == "-Infinity"
        assert json.loads(cli._fmt_json(-math.inf)) == -math.inf

    def test_optimize_alpha_flag(self, tmp_path):
        out = tmp_path / "scan.csv"
        run_cli(["scan-time", "--family", "product_plus", "--n", "6",
                 "--t-list", "1e-3", "--optimize-alpha", "--out", str(out)])
        _, rows = read_table(out)
        assert rows[0][6] == "0" and rows[0][10] == "1"

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family=ghz\nn=4  # probe size\nt_list=1e-3\n")
        out = tmp_path / "scan.csv"
        assert run_cli(["scan-time", "--config", str(cfg), "--n", "6",
                        "--out", str(out)]) == 0
        _, rows = read_table(out)
        assert rows[0][2] == "6"  # flag wins over the file


def test_consecutive_calls_share_no_state(tmp_path):
    first, second, third = tmp_path / "a.jsonl", tmp_path / "b.csv", tmp_path / "c.csv"
    assert run_cli(["steady-map", "--n", "4", "--format", "jsonl", "--out", str(first)]) == 0
    assert run_cli(["steady-map", "--n", "5", "--out", str(second)]) == 0
    assert run_cli(["scan-time", "--family", "ghz", "--n", "3", "--t-list", "1e-3",
                    "--out", str(third)]) == 0
    records = [json.loads(line) for line in first.read_text().splitlines()[1:]]
    assert {r["k"] for r in records} == set(range(5))
    header, rows = read_table(second)
    assert header == ["k", "max_qfi", "n1", "k1"]
    assert {int(row[0]) for row in rows} == set(range(6))
    _, rows = read_table(third)
    assert [row[:8] for row in rows] == [["standard", "ghz", "3", "", "", "", "0", "0.001"]]
    assert cli._parser() is cli._parser()


class TestScanRotation:
    def test_symmetry_dataset(self, tmp_path):
        out = tmp_path / "rot.jsonl"
        run_cli(["scan-rotation", "--family", "ghz", "--n", "8",
                 "--t-list", "1e-4,3e-3,1e-2,3e-2",
                 "--alpha-min", "0", "--alpha-max", str(math.pi),
                 "--alpha-count", "21", "--format", "jsonl", "--out", str(out)])
        rows = [json.loads(line) for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 21 * 4
        by_key = {(r["alpha"], r["T"]): r["F_phase"] for r in rows}
        alphas = sorted({r["alpha"] for r in rows})
        for T in (1e-4, 3e-3, 1e-2, 3e-2):
            for alpha in alphas:
                mirrored = by_key[(alphas[-1] - alpha, T)]
                assert by_key[(alpha, T)] == pytest.approx(mirrored,
                                                           rel=1e-9, abs=1e-9)


class TestSteadyMap:
    def test_n50_map(self, tmp_path):
        out = tmp_path / "map.csv"
        assert run_cli(["steady-map", "--n", "50", "--out", str(out)]) == 0
        header, rows = read_table(out)
        assert header == ["k", "max_qfi", "n1", "k1"]
        best = max(rows, key=lambda r: float(r[1]))
        by_k = {}
        for row in rows:
            by_k.setdefault(int(row[0]), []).append(row)
        assert float(by_k[25][0][1]) == pytest.approx(float(best[1]), rel=1e-9)
        assert any(r[2] == "25" and r[3] == "12" for r in by_k[25])

    def test_small_n_values(self, tmp_path):
        out = tmp_path / "map.csv"
        run_cli(["steady-map", "--n", "8", "--out", str(out)])
        _, rows = read_table(out)
        k4 = [r for r in rows if r[0] == "4"]
        assert len(k4) == 1
        assert float(k4[0][1]) == pytest.approx(6.0, rel=1e-9)


class TestErrors:
    def test_empty_time_grid_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run_cli(["scan-time", "--family", "ghz", "--n", "4",
                        "--t-count", "0", "--out", str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_times_are_config_errors(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run_cli(["scan-time", "--scheme", "standard", "--family", "ghz", "--n", "4",
                        "--t-list", "0.1,nan,inf", "--out", str(out)])
        assert code == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_angle_is_config_error(self, capsys):
        assert run_cli(["scan-time", "--family", "ghz", "--n", "4", "--alpha", "nan"]) == 1
        assert "finite" in capsys.readouterr().err

    def test_failed_write_keeps_existing_output(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "scan.csv"
        out.write_text("earlier results\n")

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("symqfi.cli.os.replace", failing_replace)
        assert run_cli(["scan-time", "--family", "ghz", "--n", "4", "--t-list", "1e-3",
                        "--out", str(out)]) == 1
        assert f"error: cannot write {out}: disk full" in capsys.readouterr().err
        assert out.read_text() == "earlier results\n"
        assert [p.name for p in tmp_path.iterdir()] == ["scan.csv"]
        monkeypatch.undo()
        assert run_cli(["scan-time", "--family", "ghz", "--n", "4", "--t-list", "1e-3",
                        "--out", str(out)]) == 0
        assert out.read_text().startswith("# units:")
        assert [p.name for p in tmp_path.iterdir()] == ["scan.csv"]

    def test_missing_output_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert run_cli(["scan-time", "--family", "ghz", "--n", "4", "--t-list", "1e-3",
                        "--out", str(out)]) == 1
        assert f"error: cannot write {out}:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_format_refused_before_scanning(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=xml\n")

        def no_scan(*args, **kwargs):
            raise AssertionError("scan ran before the format was checked")

        monkeypatch.setattr("symqfi.cli.scan", no_scan)
        assert run_cli(["scan-time", "--config", str(cfg), "--family", "ghz", "--n", "4"]) == 1
        assert "format must be 'csv' or 'jsonl'" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--gamma-delta-b", "1e200"],
                                       ["--gamma-delta-b", "1e150", "--t-list", "1,1e10"]])
    def test_overflowing_noise_is_config_error(self, tmp_path, capsys, flags):
        out = tmp_path / "x.csv"
        assert run_cli(["scan-time", "--family", "ghz", "--n", "4", "--out", str(out)]
                       + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflows" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--t-max", "0"], ["--t-max", "-1"], ["--t-min=-1e-3"], ["--t-max", "inf"],
        ["--t-min", "nan"], ["--t-scale", "lin", "--t-max", "inf"],
        ["--t-scale", "lin", "--t-min=-inf"], ["--t-scale", "lin", "--t-max", "nan"],
    ])
    def test_bad_time_grid_bounds(self, tmp_path, capsys, flags):
        out = tmp_path / "x.csv"
        assert run_cli(["scan-time", "--family", "ghz", "--n", "4", "--out", str(out)]
                       + flags) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "grid" in line
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--alpha-max", "inf"], ["--alpha-min", "nan"],
                                       ["--alpha-min=-inf"]])
    def test_non_finite_alpha_grid_bounds(self, capsys, flags):
        assert run_cli(["scan-rotation", "--family", "ghz", "--n", "4", "--t-list", "1e-3"]
                       + flags) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: alpha grid bounds must be finite")

    @pytest.mark.parametrize("command, flags, err", [
        ("scan-time", ["--t-scale", "lin", "--t-min", "-1e308", "--t-max", "1e308"],
         "error: times must be finite, got nan"),
        ("scan-rotation", ["--t-list", "1e-3", "--alpha-min", "-1e308", "--alpha-max", "1e308"],
         "error: rotation angle must be finite, got alpha=nan"),
        ("scan-time", ["--t-min", "1e-3", "--t-max", "1.7976931348623157e308", "--t-count", "3"],
         "error: times must be finite, got inf"),
    ], ids=["lin-time-span", "alpha-span", "log-time-top"])
    def test_overflowing_grid_is_one_error_line(self, capsys, command, flags, err):
        # finite bounds whose grid overflows: numpy must not warn before the error
        assert run_cli([command, "--family", "ghz", "--n", "2", *flags]) == 1
        assert capsys.readouterr().err.splitlines() == [err]

    @pytest.mark.parametrize("given", [["--t-mi", "-1e-3"], ["--t-mi=-1e-3"],
                                       ["--t-mi", "1e-3"], ["--t-mi=1e-3"]],
                             ids=["space-negative", "equals-negative", "space", "equals"])
    def test_abbreviated_flag_is_refused(self, capsys, given):
        # key x_y is flag --x-y, and only that
        assert run_cli(["scan-time", "--family", "ghz", "--n", "2", *given]) == 1
        captured = capsys.readouterr()
        assert "unrecognized arguments: " + " ".join(given) in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("source, key, bad", [
        *((source, key, bad) for source in ("flag", "file")
          for key, bad in (("n", "abc"), ("t_count", "1.5"), ("t_min", "soon"))),
        ("file", "optimize_alpha", "maybe"),  # the flag takes no value
    ])
    def test_bad_value_is_one_line_naming_its_key(self, tmp_path, capsys, source, key, bad):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={bad}\n")
        given = ["--config", str(cfg)] if source == "file" else ["--" + key.replace("_", "-"), bad]
        assert run_cli(["scan-time", "--family", "ghz", *given]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: bad value for {key}: {bad!r}"]
        assert captured.out == ""

    def test_unknown_family(self, capsys):
        assert run_cli(["scan-time", "--family", "bell", "--n", "4"]) == 1
        assert "unknown family" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["scan-time", "scan-rotation"])
    @pytest.mark.parametrize("family", ["product_plus", "bsd"])
    def test_unknown_scheme_reported_before_the_family_needs(self, capsys, command, family):
        # neither family's missing n1 is reported: the scheme is resolved first
        assert run_cli([command, "--scheme", "bogus", "--family", family, "--n", "4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown scheme 'bogus' (valid: ")
        assert "n1" not in err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("qubits=4\n")
        assert run_cli(["scan-time", "--config", str(cfg)]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_threads_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "old.cfg"
        cfg.write_text("family=ghz\nthreads=2\n")
        assert run_cli(["scan-time", "--config", str(cfg)]) == 1
        assert "unknown config key 'threads'" in capsys.readouterr().err

    def test_bad_subcommand(self, capsys):
        assert run_cli(["render-plots"]) == 1

    def test_missing_bsd_counts(self, capsys):
        assert run_cli(["scan-time", "--scheme", "di_ideal", "--family", "bsd",
                        "--n", "8", "--n1", "4"]) == 1


@pytest.mark.parametrize("form", ["space", "equals"])
@pytest.mark.parametrize("command, flag, value, code, err", [
    ("scan-time", "--t-min", "-1e-3", 0,
     "nan row: scheme=standard family=ghz n=2 alpha=0 T=-0.001: time must be finite"),
    ("scan-time", "--t-list", "-1,0.1", 0,
     "nan row: scheme=standard family=ghz n=2 alpha=0 T=-1: time must be finite"),
    ("scan-time", "--t-min", "-inf", 1, "error: time grid bounds must be finite, got -inf"),
    ("scan-rotation", "--alpha-min", "-inf", 1,
     "error: alpha grid bounds must be finite, got -inf"),
], ids=["t-min-exponent", "t-list", "t-min-inf", "alpha-min-inf"])
def test_negative_flag_value_is_the_flags_value(capsys, form, command, flag, value, code, err):
    # argparse alone takes -1e-3 or -inf for an option: --x v must act as --x=v
    given = [flag, value] if form == "space" else [f"{flag}={value}"]
    assert run_cli([command, "--family", "ghz", "--n", "2", "--t-scale", "lin",
                    "--t-count", "2", "--alpha-count", "2", *given]) == code
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith(err)
    if code == 0:
        assert float(captured.out.splitlines()[2].split(",")[7]) == float(value.split(",")[0])


COMMANDS = ["scan-time", "scan-rotation", "steady-map", "verify"]
# a config value and a different flag value for every key, by annotation
SAMPLE_VALUES = {"int": ("3", "5"), "float": ("0.25", "0.5"), "str": ("a", "b"),
                 "format": ("jsonl", "csv"), "t_scale": ("lin", "log")}


class TestOptionTable:
    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("field", fields(RunConfig), ids=lambda f: f.name)
    def test_each_key_is_a_flag_that_overrides_the_file(self, tmp_path, command, field):
        key, kind = field.name, field.type.split(" | ")[0]
        flag = "--" + key.replace("_", "-")
        if kind == "bool":
            in_file, from_file, flag_args, from_flag = "0", False, [flag], True
        else:
            in_file, in_flag = SAMPLE_VALUES.get(key, SAMPLE_VALUES[kind])
            convert = {"int": int, "float": float, "str": str}[kind]
            from_file, flag_args, from_flag = convert(in_file), [flag, in_flag], convert(in_flag)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={in_file}\n")

        def parse(*extra):
            args = cli._parser().parse_args([command, "--config", str(cfg), *extra])
            return getattr(cli._build_config(args), key)

        assert parse() == from_file
        assert parse(*flag_args) == from_flag

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("key, bad, message", [
        ("format", "xml", "error: format must be 'csv' or 'jsonl', got 'xml'"),
        ("t_scale", "bogus", "error: t_scale must be 'lin' or 'log', got 'bogus'"),
    ], ids=["format", "t_scale"])
    def test_bad_choice_refused_alike_from_flag_and_file(self, tmp_path, capsys, command, key,
                                                         bad, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={bad}\n")
        for source in (["--config", str(cfg)], ["--" + key.replace("_", "-"), bad]):
            assert run_cli([command, "--n", "4", *source]) == 1
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [message]
            assert captured.out == ""


class TestVerify:
    def test_passes_and_exit_zero(self, capsys):
        assert run_cli(["verify"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        checks = [l for l in lines if l.startswith(("PASS", "FAIL"))]
        assert len(checks) == 6
        assert all(l.startswith("PASS") for l in checks)

    def test_failing_check_exits_two(self, monkeypatch, capsys):
        monkeypatch.setitem(cli.VERIFY_CHECKS, "spin-echo-variance",
                            lambda: (2.0, "forced failure"))
        assert run_cli(["verify"]) == 2
        lines = capsys.readouterr().out.splitlines()
        fails = [l for l in lines if l.startswith("FAIL")]
        assert fails == ["FAIL spin-echo-variance: normalized deviation 2.000e+00 "
                         "(<= 1 required; forced failure)"]
        assert sum(l.startswith("PASS") for l in lines) == 5
        assert lines[-1] == "1 verification check(s) failed"


def test_generator_bound_helper():
    g = generator(SymmetricBasis(8), GeneratorLabel.SZ_TOTAL)
    assert max_qfi_bound(g) == pytest.approx(64.0)
