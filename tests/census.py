"""Seeded census of scan and optimize_rotation values, for comparing two trees bit for bit.

    PYTHONPATH=src python tests/census.py --seed 1 --cells 2000 > before.jsonl
    PYTHONPATH=other/src python tests/census.py --seed 1 --cells 2000 --against before.jsonl

The seed draws each cell: a scheme kind, a family that kind takes (every
rotatable family, split or not, and dfs_optimal), n <= 40 or, in a sparse
tier of about one cell in twenty, n from 41..100, T log-uniform over
1e-5..10 s and alpha, exactly 0, uniform over -20..20 rad or
log-uniform up to 1e308 with either sign (dfs_optimal at 0 only).  Each
cell is one JSON line with the inputs, scan's F_phase as float.hex and
its error; about one rotatable cell in ten also holds optimize_rotation's
(alpha, F) and the first maximum (alpha, F) over the optimizer's whole
201-angle grid, every angle evaluated, as float.hex.  With --against FILE
the lines are not written: the cells are compared with FILE's, and the
count of identical cells and the worst relative move of a value are
printed, the latter also among values whose F (an alpha's F for an
alpha) reads at least 1e-12 n^2 in either tree, the benchmark oracle's
absolute scale, so a move of an O(1) value is not hidden behind the
large relative moves of floor-level ones; then the moved cells counted
by route (parity sectors or full frame, as the cell's set-up decides)
and by kind, then a verdict on up to 20 cells whose F moved and whose
signal state is one Dicke-sector factor under collective dephasing
(standard unsplit probes, and the partition-2 factor of split probes
under spin echo and repeat): oracles.collective_qfi_mp's value, at 30
digits below the kernel's smallest entry, and which tree lies closer to
it.  The exit status is 1 if any cell moved.  Bits depend on BLAS and
numpy, so compare two trees on one machine.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import math
import random
import sys

import numpy as np

from symqfi import (NoiseParams, ProbeFamily, ProbeSpec, SchemeKind, SchemeSpec, optimize_rotation,
                    scan, schemes)
from symqfi.collective_basis import ProductState
from symqfi.dephasing import phase_variance_c

import oracles

NOISE = NoiseParams(2.0 * math.pi * 50.0, 1.0)
MAX_N = 40
# the sparse tier: about one cell in twenty draws n from here instead
SPARSE_N = (41, 100)
SPARSE_SHARE = 0.05
OUTPUTS = ("F", "error", "opt", "grid")  # the keys a line adds to its cell's
VERDICTS = 20  # moved cells judged in mpmath, at most
SCALE = 1e-12  # times n^2: the smallest |F| the second worst move counts
SPLIT_FAMILIES = ("ghz_bipartite", "bsd", "product_plus", "dfs_optimal")
UNSPLIT_FAMILIES = ("ghz", "dicke_symmetric", "product_plus")


def _alpha(rng: random.Random) -> float:
    u = rng.random()
    if u < 0.2:
        return 0.0
    if u < 0.85:
        return rng.uniform(-20.0, 20.0)
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(0.0, 308.0)


def cells(seed: int, count: int):
    """count cells drawn from seed, each a dict of the census line's inputs."""
    rng = random.Random(f"census:{seed}")
    for _ in range(count):
        kind = rng.choice([k.value for k in SchemeKind])
        split = kind != "standard" or rng.random() < 0.5
        family = rng.choice(SPLIT_FAMILIES if split else UNSPLIT_FAMILIES)
        n = rng.randint(*SPARSE_N) if rng.random() < SPARSE_SHARE else rng.randint(2, MAX_N)
        if family in ("dicke_symmetric", "dfs_optimal"):
            n -= n % 2
        n1 = k1 = k2 = None
        if split:
            n1 = n // 2 if family == "dfs_optimal" else rng.randint(1, n - 1)
        if family == "bsd":
            k1, k2 = rng.randint(0, n1), rng.randint(0, n - n1)
        alpha = 0.0 if family == "dfs_optimal" else _alpha(rng)
        T = 10.0 ** rng.uniform(-5.0, 1.0)
        optimize = family != "dfs_optimal" and rng.random() < 0.1
        yield dict(kind=kind, family=family, n=n, n1=n1, k1=k1, k2=k2, alpha=alpha.hex(),
                   T=T.hex(), optimize=optimize)


def spec_of(cell: dict) -> tuple[SchemeSpec, ProbeSpec, float]:
    spec = ProbeSpec(ProbeFamily(cell["family"]), cell["n"], n1=cell["n1"], k1=cell["k1"],
                     k2=cell["k2"], alpha=float.fromhex(cell["alpha"]))
    return SchemeSpec(SchemeKind(cell["kind"]), NOISE), spec, float.fromhex(cell["T"])


def record(cell: dict) -> dict:
    """The census line of a cell: its inputs, scan's F and error and, if asked, the optimum."""
    scheme, spec, T = spec_of(cell)
    row = scan(scheme, [spec], [T])[0]
    line = dict(cell, F=row.f_phase.hex(), error=row.error)
    if cell["optimize"]:
        line["opt"] = [x.hex() for x in optimize_rotation(spec, scheme, T)]
        line["grid"] = [x.hex() for x in grid_maximum(scheme, spec, T)]
    return line


def grid_maximum(scheme: SchemeSpec, spec: ProbeSpec, T: float) -> tuple[float, float]:
    """The first maximum (alpha, F) over every _GRID angle of _ProbeSetup.qfi, no bound."""
    values = schemes._spec_setup(spec, scheme.kind).qfi(scheme.noise, T)
    best = int(np.argmax(values))
    return float(schemes._GRID[best]), float(values[best])


def _values(line: dict) -> list[tuple[float, float]]:
    """Each value of a line beside the F it belongs to: its own, or its alpha's."""
    f = float.fromhex(line["F"])
    values = [(f, f)]
    for alpha, value in (line[key] for key in ("opt", "grid") if key in line):
        value = float.fromhex(value)
        values += [(float.fromhex(alpha), value), (value, value)]
    return values


def _move(a: float, b: float) -> float:
    """Relative move from a to b: 0 where the bits agree, inf where one is nan."""
    if a.hex() == b.hex():
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(lines: list[dict], reference: list[dict],
            scale: float = 0.0) -> tuple[int, float, dict | None]:
    """(identical cells, worst relative move, the cell that moved most) against reference.

    A move counts where the value's F reads at least scale n^2 in either
    tree, or nan: every move at scale 0.
    """
    if len(lines) != len(reference):
        raise ValueError(f"{len(lines)} cells against {len(reference)} in the reference")
    identical, worst, where = 0, 0.0, None
    for line, ref in zip(lines, reference):
        inputs = {key: value for key, value in line.items() if key not in OUTPUTS}
        if any(ref.get(key) != value for key, value in inputs.items()):
            raise ValueError(f"cell {inputs} differs from the reference's: another seed?")
        if line == ref:
            identical += 1
            continue
        floor = scale * line["n"] ** 2
        moves = [_move(a, b) for (a, fa), (b, fb) in zip(_values(ref), _values(line))
                 if not (abs(fa) < floor and abs(fb) < floor)]
        if max(moves, default=0.0) >= worst:
            worst, where = max(moves, default=0.0), line
    return identical, worst, where


def tally(lines: list[dict], reference: list[dict]) -> str:
    """The cells that moved against reference, counted by route and by kind."""
    moved = [line for line, ref in zip(lines, reference) if line != ref]
    routes = collections.Counter(route(line) for line in moved)
    kinds = collections.Counter(line["kind"] for line in moved)
    return (f"moved by route: parity sectors {routes['parity sectors']}, "
            f"full frame {routes['full frame']}; by kind: "
            + ", ".join(f"{kind.value} {kinds[kind.value]}" for kind in SchemeKind))


def route(line: dict) -> str:
    """'parity sectors' where the cell's set-up splits its frames by the reflection, else
    'full frame'."""
    scheme, spec, _ = spec_of(line)
    return "parity sectors" if schemes._spec_setup(spec, scheme.kind).parity else "full frame"


def verdict(line: dict, ref: dict) -> str | None:
    """The mpmath value of a cell whose F moved, and which tree lies closer to it.

    None unless the cell's F is one Dicke-sector factor's QFI under
    collective dephasing, the state collective_qfi_mp takes: a standard
    unsplit probe, or a split ProductState's partition-2 factor under
    spin echo or repeat, whose kernel is exp(-C(T) dm2^2 / 2).
    """
    scheme, spec, T = spec_of(line)
    probe, offset = schemes._base_probe(spec)
    if scheme.kind is SchemeKind.STANDARD and spec.n1 is None:
        factor = probe
    elif scheme.kind in schemes._PER_VECTOR_KINDS and isinstance(probe, ProductState):
        factor = probe.parts[1]
    else:
        return None
    here, there = float.fromhex(line["F"]), float.fromhex(ref["F"])
    if here.hex() == there.hex() or math.isnan(here) or math.isnan(there):
        return None
    # 30 digits below the kernel's smallest entry exp(-C n^2 / 2), which a
    # late frame's eigenvalue gaps are of; past the float range, 330
    n = factor.basis.n
    digits = min(math.ceil(phase_variance_c(T, NOISE) * n * n / (2 * math.log(10))), 330)
    exact = float(oracles.collective_qfi_mp(factor.amplitudes.real.tolist(), offset + spec.alpha,
                                            T, NOISE.gamma_delta_b, NOISE.tau_c, dps=30 + digits))
    errors = abs(here - exact), abs(there - exact)
    closer = ("this tree" if errors[0] < errors[1]
              else "the reference" if errors[1] < errors[0] else "neither")
    inputs = {key: line[key] for key in ("kind", "family", "n", "n1", "k1", "k2")}
    return (f"verdict {json.dumps(inputs)} alpha={float.fromhex(line['alpha'])!r} T={T!r}: "
            f"mpmath {exact!r}, this tree {here!r}, reference {there!r}: {closer} closer")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cells", type=int, required=True)
    parser.add_argument("--against", metavar="FILE",
                        help="compare with a census of the same seed and count")
    args = parser.parse_args(argv)
    if args.against is None:
        for cell in cells(args.seed, args.cells):
            print(json.dumps(record(cell)), flush=True)
        return 0
    with open(args.against, encoding="utf-8") as handle:
        reference = [json.loads(line) for line in handle if line.strip()]
    lines = [record(cell) for cell in cells(args.seed, args.cells)]
    identical, worst, where = compare(lines, reference)
    print(f"identical: {identical} of {len(lines)} cells")
    print(f"worst relative move: {worst!r}" + (f" at {json.dumps(where)}" if where else ""))
    _, worst, where = compare(lines, reference, SCALE)
    print(f"worst relative move where |F| >= {SCALE!r} n^2: {worst!r}"
          + (f" at {json.dumps(where)}" if where else ""))
    print(tally(lines, reference))
    verdicts = (verdict(line, ref) for line, ref in zip(lines, reference))
    for said in itertools.islice(filter(None, verdicts), VERDICTS):
        print(said)
    return 0 if identical == len(lines) else 1


if __name__ == "__main__":
    sys.exit(main())
