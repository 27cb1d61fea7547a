import json

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
    assert capsys.readouterr().out.splitlines() == ["identical: 20 of 20 cells",
                                                    "worst relative move: 0.0"]
    # one value moved in its last bit is found, with its move
    i = next(i for i, line in enumerate(lines) if float.fromhex(line["F"]) > 0)
    moved = dict(lines[i], F=(float.fromhex(lines[i]["F"]) * (1 + 2 ** -52)).hex())
    identical, worst, where = census.compare(lines, lines[:i] + [moved] + lines[i + 1:])
    assert identical == 19 and where == lines[i] and 0 < worst < 3e-16


def test_optimum_never_below_the_grid_maximum():
    # optimize_rotation against every one of its 201 grid angles evaluated,
    # at n up to 100; its documented window is 1e-9 |F| + 1e-11 n^2
    lines = [census.record(cell) for cell in census.cells(20, 400) if cell["optimize"]]
    assert len(lines) > 40 and sum(line["n"] > census.MAX_N for line in lines) >= 4
    assert {line["kind"] for line in lines} == {kind.value for kind in SchemeKind}
    for line in lines:
        f_opt, f_grid = (float.fromhex(line[key][1]) for key in ("opt", "grid"))
        assert f_opt >= f_grid - (1e-9 * abs(f_grid) + 1e-11 * line["n"] ** 2), line
