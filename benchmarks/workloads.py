"""Seeded inputs, operations and oracle checks of the three benchmark workloads.

A workload is an endless sequence of rounds of cells; one cell is one
operation on the public symqfi API.  Every round holds the same schemes,
families, sizes and time bands in the same pairings, so the amount of work
in a run does not depend on the seed and the spread between runs measures
the program rather than the draw.  The seed picks everything else: the
order, which pairings of three or more meet (through seeded Latin squares),
the split, excitation numbers, time within its band and output format.

This module does not import symqfi; callers pass the imported package in.
"""

from __future__ import annotations

import json
import math
import os
import random

GAMMA_DELTA_B = 2.0 * math.pi * 50.0
TAU_C = 1.0

# exp(-C/2) < 1e-43 at C(T) >= 200: every coherence between different total
# excitation numbers is gone and the dephased state equals its steady limit
# far below the 1e-9 tolerance of the closed forms
PLATEAU_C = 200.0

RTOL = 1e-9

DI_SCHEMES = ("di_ideal", "di_spin_echo", "di_repeat")
DI_FAMILIES = ("bsd", "ghz_bipartite", "product_plus")
STANDARD_FAMILIES = ("ghz", "dicke_symmetric", "product_plus")

# Every round of a workload holds the same cells in the same pairings of
# scheme, family, size and time band (the cost of a cell depends on all four),
# so each round does the same work whatever the seed.
DI_DENSE_SIZES = (32, 38, 44)
STANDARD_OPT_SIZES = (12, 16, 20)
DI_OPT_SIZES = (8, 9, 10)
TIME_RANGES = {"di_dense": (1e-4, 10.0), "rotation_opt": (1e-4, 1.0)}


def _di_cell(rng: random.Random, scheme: str, family: str, n: int, T: float) -> dict:
    n1 = n // 2 + rng.choice((-1, 0, 1))  # near-even split
    cell = dict(scheme=scheme, family=family, n=n, n1=n1, k1=None, k2=None, T=T)
    if family == "bsd":
        cell.update(k1=rng.randint(0, n1), k2=rng.randint(0, n - n1))
    return cell


def _band_times(rng: random.Random, bands: list[int], lo: float, hi: float) -> list[float]:
    """A log-uniform time inside band k of three equal log-width bands of [lo, hi], per entry."""
    a, b = math.log10(lo), math.log10(hi)
    width = (b - a) / 3
    return [10.0 ** (a + (k + rng.random()) * width) for k in bands]


def di_dense_rounds(seed: int):
    """Single DI cells at n = 32, 38, 44 (bipartite dimension 288..529), T over 1e-4..10 s.

    A round is every (scheme, family, n) triple once.  The time band of each
    comes from a seeded 3x3x3 Latin cube, so any two of scheme, family, n and
    band meet in every pairing equally often.
    """
    rng = random.Random(f"di_dense:{seed}")
    while True:
        a, b, c = (rng.sample(range(3), 3) for _ in range(3))
        triples = [(scheme, family, n, (a[i] + b[j] + c[k]) % 3)
                   for i, scheme in enumerate(DI_SCHEMES) for j, family in enumerate(DI_FAMILIES)
                   for k, n in enumerate(DI_DENSE_SIZES)]
        rng.shuffle(triples)
        times = _band_times(rng, [band for *_, band in triples], *TIME_RANGES["di_dense"])
        yield [_di_cell(rng, scheme, family, n, T) for (scheme, family, n, _), T in zip(triples, times)]


def rotation_opt_rounds(seed: int):
    """Rotation-optimized cells: standard probes at n = 12, 16, 20, DI probes at n = 8, 9, 10.

    A round is every (family, n) pair of both kinds once.  Two seeded
    orthogonal 3x3 Latin squares over (family, n) set the DI scheme and the
    time band of each cell, so each scheme and each band occurs once per
    family and once per size, and every (scheme, band) pair occurs once.
    """
    rng = random.Random(f"rotation_opt:{seed}")
    while True:
        cells, bands = [], []
        for kind, families, sizes in (("standard", STANDARD_FAMILIES, STANDARD_OPT_SIZES),
                                      ("di", DI_FAMILIES, DI_OPT_SIZES)):
            a, b = rng.sample(range(3), 3), rng.sample(range(3), 3)
            for i, family in enumerate(families):
                for j, n in enumerate(sizes):
                    if kind == "standard":
                        cells.append(dict(scheme="standard", family=family, n=n, n1=None,
                                          k1=None, k2=None, T=None))
                    else:
                        cells.append(_di_cell(rng, DI_SCHEMES[(a[i] + b[j]) % 3], family, n, None))
                    bands.append((a[i] + 2 * b[j]) % 3)
        order = list(range(len(cells)))
        rng.shuffle(order)
        cells = [cells[i] for i in order]
        times = _band_times(rng, [bands[i] for i in order], *TIME_RANGES["rotation_opt"])
        for cell, T in zip(cells, times):
            cell["T"] = T
        yield cells


def steady_map_rounds(seed: int):
    """steady-map CLI jobs at n = 16..40, each written as CSV or JSON lines."""
    rng = random.Random(f"steady_map:{seed}")
    while True:
        sizes = list(range(16, 41))
        rng.shuffle(sizes)
        yield [dict(n=n, format=rng.choice(("csv", "jsonl"))) for n in sizes]


class Oracle:
    """Comparisons against closed forms; keeps the worst normalized deviation.

    A deviation of at most 1 means |value - ref| <= atol + rtol |ref|.
    """

    def __init__(self):
        self.max_norm_dev = 0.0

    def close(self, value: float, ref: float, atol: float, rtol: float = RTOL) -> bool:
        dev = abs(value - ref) / (atol + rtol * abs(ref))
        self.max_norm_dev = max(self.max_norm_dev, dev)
        return dev <= 1.0


def _noise(sq):
    return sq.NoiseParams(GAMMA_DELTA_B, TAU_C)


def _qfi_bound(sq, cell: dict) -> float:
    """max_qfi_bound of the cell's signal generator."""
    if cell["scheme"] == "standard":
        g = sq.generator(sq.SymmetricBasis(cell["n"]), sq.GeneratorLabel.SZ_TOTAL)
    else:
        basis = sq.BipartiteSymmetricBasis(cell["n1"], cell["n"] - cell["n1"])
        g = sq.generator(basis, sq.GeneratorLabel.SZ_PARTITION2)
    return sq.max_qfi_bound(g)


def _closed_form(sq, cell: dict) -> float | None:
    """Exact phase QFI of the unrotated probe, where steady_forms gives one."""
    n, n1, T = cell["n"], cell["n1"], cell["T"]
    noise = _noise(sq)
    c = sq.phase_variance_c(T, noise)
    family, scheme = cell["family"], cell["scheme"]
    if scheme == "standard":
        return sq.ghz_qfi_analytic(n, T, noise) if family == "ghz" else None
    if scheme == "di_ideal":
        if c < PLATEAU_C:
            return None
        if family == "bsd":
            return sq.bsd_steady_qfi(sq.SplitChoice(n, n1, cell["k1"], cell["k1"] + cell["k2"]))
        if family == "product_plus":
            return sq.product_steady_qfi(n, n1)
        if family == "ghz_bipartite" and 2 * n1 == n:
            return sq.ghz_bipartite_steady_qfi(n)
        return None
    if family == "ghz_bipartite":
        # spin echo and independent repeats factorize per partition, so a GHZ
        # pair decays like an n2-qubit GHZ probe in the standard scheme
        n2 = n - n1
        return n2 * n2 * math.exp(-n2 * n2 * c)
    return None


class ScanWorkload:
    """One symqfi.scan call per cell, with or without rotation optimization."""

    def __init__(self, rounds, optimize_alpha: bool):
        self.rounds = rounds
        self.optimize_alpha = optimize_alpha

    def warm_up(self, sq) -> None:
        """Fill the Wigner-d cache for every size the cells use and run one small
        cell per scheme kind."""
        for n in range(1, 24):
            sq.wigner_d_matrix(n, 0.1)
        noise = _noise(sq)
        for kind in ("standard",) + DI_SCHEMES:
            n1 = None if kind == "standard" else 2
            probe = sq.ProbeSpec(sq.ProbeFamily.PRODUCT_PLUS, 4, n1=n1, alpha=0.3)
            sq.scan(sq.SchemeSpec(sq.SchemeKind(kind), noise), [probe], times=(1e-3,))

    def prepare(self, sq, cell: dict):
        scheme = sq.SchemeSpec(sq.SchemeKind(cell["scheme"]), _noise(sq))
        probe = sq.ProbeSpec(sq.ProbeFamily(cell["family"]), cell["n"], n1=cell["n1"],
                             k1=cell["k1"], k2=cell["k2"])
        times = (cell["T"],)
        optimize = self.optimize_alpha
        return lambda: sq.scan(scheme, [probe], times=times, optimize_alpha=optimize)

    def check(self, sq, cell: dict, rows, oracle: Oracle) -> str | None:
        """None when the rows are right, else the reason they are not."""
        if len(rows) != 1:
            return f"expected one row, got {len(rows)}"
        row = rows[0]
        if row.error is not None:
            return f"error row: {row.error}"
        f = row.f_phase
        if not (math.isfinite(f) and math.isfinite(row.f_freq)):
            return f"non-finite QFI {f!r}, {row.f_freq!r}"
        n = cell["n"]
        bound = _qfi_bound(sq, cell)
        if not 0.0 <= f <= bound * (1.0 + RTOL):
            return f"QFI {f!r} outside [0, {bound!r}]"
        ref = _closed_form(sq, cell)
        if ref is None:
            return None
        floor = 1e-11 * n * n  # absolute part of the optimizer's tie window
        if self.optimize_alpha:
            if not 0.0 <= row.alpha <= math.pi / 2:
                return f"alpha_opt {row.alpha!r} outside [0, pi/2]"
            # the optimum can only beat the unrotated probe, up to the tie window
            if f < ref - (RTOL * abs(ref) + floor):
                return f"optimized QFI {f!r} below the unrotated closed form {ref!r}"
            return None
        if not oracle.close(f, ref, atol=1e-12 * n * n):
            return f"QFI {f!r} differs from closed form {ref!r}"
        return None


class SteadyMapWorkload:
    """One in-process `symqfi steady-map` job per cell, written to a file."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self._count = 0
        self.rounds = steady_map_rounds

    def warm_up(self, sq) -> None:
        """Fill the rotation-weight cache up to n = 40 and run one small job."""
        for n1 in range(41):
            sq.block_probabilities(sq.SplitChoice(40, n1, 0, 0))
        path = os.path.join(self.out_dir, "warm-up.csv")
        if sq.cli.main(["steady-map", "--n", "4", "--out", path]) != 0:
            raise RuntimeError("steady-map warm-up job failed")

    def output_path(self, index: int, cell: dict) -> str:
        return os.path.join(self.out_dir, f"map-{index}.{cell['format']}")

    def prepare(self, sq, cell: dict):
        path = self.output_path(self._count, cell)
        self._count += 1
        argv = ["steady-map", "--n", str(cell["n"]), "--out", path, "--format", cell["format"]]
        return lambda: (sq.cli.main(argv), path)

    def check(self, sq, cell: dict, output, oracle: Oracle) -> str | None:
        code, path = output
        if code != 0:
            return f"steady-map exited with {code}"
        n = cell["n"]
        best: dict[int, float] = {}
        with open(path, encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines() if not line.startswith("#")]
        if cell["format"] == "csv":
            records = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        else:
            records = [json.loads(line) for line in lines]
        for rec in records:
            best[int(rec["k"])] = float(rec["max_qfi"])
        if sorted(best) != list(range(n + 1)):
            return f"map rows cover k = {sorted(best)}, expected 0..{n}"
        values = list(best.values())
        if not all(math.isfinite(v) and 0.0 <= v <= n * n for v in values):
            return "map value non-finite or outside [0, n^2]"
        for k in range(n // 2 + 1):
            if not oracle.close(best[k], best[n - k], atol=1e-12 * n * n):
                return f"map not symmetric: F(k={k}) = {best[k]!r}, F(k={n - k}) = {best[n - k]!r}"
        if n % 4 == 0 and not oracle.close(max(values), n * (n + 4) / 16, atol=1e-12 * n * n):
            return f"map maximum {max(values)!r} differs from n(n+4)/16"
        return None


def make_workload(name: str, out_dir: str):
    if name == "di_dense":
        return ScanWorkload(di_dense_rounds, optimize_alpha=False)
    if name == "rotation_opt":
        return ScanWorkload(rotation_opt_rounds, optimize_alpha=True)
    if name == "steady_map":
        return SteadyMapWorkload(out_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOAD_NAMES = ("di_dense", "rotation_opt", "steady_map")
