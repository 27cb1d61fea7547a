import json
import math

import pytest

from symqfi import SchemeKind, build_probe, scheme_qfi

import census


def test_twenty_cells_read_as_scheme_qfi_and_compare_identical(tmp_path, capsys):
    lines = [census.record(cell) for cell in census.cells(5, 20)]
    kinds = {line["kind"] for line in lines}
    assert len(kinds) == 4 and any("opt" in line for line in lines)
    assert any(line["n"] > census.MAX_N for line in lines)  # the sparse tier
    for line in lines:
        scheme, spec, T = census.spec_of(line)
        assert line["error"] is None, line
        # scan's value is scheme_qfi's on the probe build_probe makes, bit for bit
        assert scheme_qfi(build_probe(spec), scheme, T)[0].hex() == line["F"], line
    path = tmp_path / "census.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    assert census.main(["--seed", "5", "--cells", "20", "--against", str(path)]) == 0
    none = "standard 0, di_ideal 0, di_spin_echo 0, di_repeat 0"
    assert capsys.readouterr().out.splitlines() == [
        "identical: 20 of 20 cells", "worst relative move: 0.0",
        "worst relative move where |F| >= 1e-12 n^2: 0.0",
        f"moved by route: parity sectors 0, full frame 0; by kind: {none}"]
    # one value moved in its last bit is found, with its move
    i = next(i for i, line in enumerate(lines) if float.fromhex(line["F"]) > 0)
    moved = dict(lines[i], F=(float.fromhex(lines[i]["F"]) * (1 + 2 ** -52)).hex())
    identical, worst, where = census.compare(lines, lines[:i] + [moved] + lines[i + 1:])
    assert identical == 19 and where == lines[i] and 0 < worst < 3e-16
    # the tally counts moved cells by the route their set-up takes, and by kind;
    # seed 5's third cell is a standard Dicke probe, whose frames split by parity
    j = 2
    assert (lines[j]["kind"], lines[j]["family"]) == ("standard", "dicke_symmetric")
    assert (census.route(lines[i]), census.route(lines[j])) == ("full frame", "parity sectors")
    other = dict(lines[j], F=(1.0).hex())
    reference = [moved if k == i else other if k == j else line for k, line in enumerate(lines)]
    kinds = {kind: int(kind in (lines[i]["kind"], "standard")) for kind in
             ("standard", "di_ideal", "di_spin_echo", "di_repeat")}
    assert census.tally(lines, reference) == (
        "moved by route: parity sectors 1, full frame 1; by kind: "
        + ", ".join(f"{kind} {count}" for kind, count in kinds.items()))


def test_optimum_never_below_the_grid_maximum():
    # optimize_rotation against every one of its 201 grid angles evaluated,
    # at n up to 100; its documented window is 1e-9 |F| + 1e-11 n^2
    lines = [census.record(cell) for cell in census.cells(20, 400) if cell["optimize"]]
    assert len(lines) > 40 and sum(line["n"] > census.MAX_N for line in lines) >= 4
    assert {line["kind"] for line in lines} == {kind.value for kind in SchemeKind}
    for line in lines:
        f_opt, f_grid = (float.fromhex(line[key][1]) for key in ("opt", "grid"))
        assert f_opt >= f_grid - (1e-9 * abs(f_grid) + 1e-11 * line["n"] ** 2), line


def test_a_moved_cell_is_judged_in_mpmath(tmp_path, capsys):
    # seed 5's second cell is the partition-2 factor Dicke-rotated |+>^6 of
    # a product_plus split under spin echo; a reference 1e-6 off loses
    lines = [census.record(cell) for cell in census.cells(5, 2)]
    line = lines[1]
    assert (line["kind"], line["family"], line["n"], line["n1"]) == ("di_spin_echo",
                                                                     "product_plus", 7, 1)
    moved = dict(line, F=(float.fromhex(line["F"]) * (1 + 1e-6)).hex())
    path = tmp_path / "census.jsonl"
    path.write_text(json.dumps(lines[0]) + "\n" + json.dumps(moved) + "\n")
    assert census.main(["--seed", "5", "--cells", "2", "--against", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "identical: 1 of 2 cells" and len(out) == 5, out
    assert out[2].startswith("worst relative move where |F| >= 1e-12 n^2: 9.9999"), out[2]
    assert out[3] == ("moved by route: parity sectors 0, full frame 1; by kind: "
                      "standard 0, di_ideal 0, di_spin_echo 1, di_repeat 0")
    assert out[4].startswith('verdict {"kind": "di_spin_echo", "family": "product_plus", "n": 7, ')
    assert out[4].endswith(": this tree closer"), out[4]
    # the mpmath value it prints lies within 1e-12 of this tree's
    exact = float(out[4].split("mpmath ")[1].split(",")[0])
    assert abs(exact - float.fromhex(line["F"])) <= 1e-12 * exact
    # a cell without one Dicke-sector factor, dfs_optimal's, gets no verdict
    assert lines[0]["family"] == "dfs_optimal"
    assert census.verdict(dict(lines[0], F=moved["F"]), lines[0]) is None


def test_scaled_worst_move_is_not_hidden_by_floor_level_values():
    # a floor-level F moved by half and an O(1) F moved by 1e-6: the plain
    # worst move is the first, the one among |F| >= 1e-12 n^2 the second
    lines = [census.record(cell) for cell in census.cells(5, 20)]
    i = next(i for i, line in enumerate(lines) if float.fromhex(line["F"]) > 0.1)
    j = next(j for j in range(len(lines)) if j != i and "opt" not in lines[j])
    floor = dict(lines[j], F=(1e-30).hex())
    lines[j] = dict(floor, F=(1.5e-30).hex())
    moved = dict(lines[i], F=(float.fromhex(lines[i]["F"]) * (1 + 1e-6)).hex())
    reference = [moved if k == i else floor if k == j else line for k, line in enumerate(lines)]
    identical, worst, where = census.compare(lines, reference)
    assert identical == 18 and where == lines[j] and worst == pytest.approx(1 / 3)
    identical, worst, where = census.compare(lines, reference, census.SCALE)
    assert identical == 18 and where == lines[i] and 0.9e-6 < worst < 1.1e-6
    # a value within the scale in one tree only still counts, as does a nan
    n = lines[j]["n"]
    lines[j] = dict(floor, F=(2e-12 * n * n).hex())
    assert census.compare(lines, reference, census.SCALE)[2] == lines[j]
    lines[j] = dict(floor, F=math.nan.hex())
    assert census.compare(lines, reference, census.SCALE)[1] == math.inf
