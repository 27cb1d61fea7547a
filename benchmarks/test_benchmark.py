"""Self-tests of the benchmark; run with `python3 -m pytest benchmarks`."""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from worker import (check_all, import_symqfi, make_reference_pass, pace_factors,  # noqa: E402
                    percentile, tail_percentile)

sq = import_symqfi()


def _first_cells(name: str, seed: int, rounds: int = 3) -> list[dict]:
    workload = workloads.make_workload(name, out_dir=".")
    return list(itertools.chain.from_iterable(itertools.islice(workload.rounds(seed), rounds)))


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    assert _first_cells(name, 7) == _first_cells(name, 7)
    assert _first_cells(name, 7) != _first_cells(name, 8)


def _band(name: str, cell: dict) -> int | None:
    if name not in workloads.TIME_RANGES:
        return None
    lo, hi = (math.log10(t) for t in workloads.TIME_RANGES[name])
    return int(3 * (math.log10(cell["T"]) - lo) / (hi - lo))


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_every_round_holds_the_same_pairings(name):
    rounds = list(itertools.islice(workloads.make_workload(name, out_dir=".").rounds(3), 6))
    keyed = [[dict(cell, band=_band(name, cell)) for cell in cells] for cells in rounds]
    for keys in itertools.combinations(("scheme", "family", "n", "band"), 2):
        pairs = [sorted(tuple(str(cell.get(k)) for k in keys) for cell in cells) for cells in keyed]
        assert all(p == pairs[0] for p in pairs), keys


@pytest.mark.parametrize("cell", [
    dict(scheme="di_ideal", family="product_plus", n=8, n1=4, k1=None, k2=None, T=1.0),
    dict(scheme="di_ideal", family="bsd", n=9, n1=4, k1=1, k2=3, T=2.0),
    dict(scheme="di_spin_echo", family="ghz_bipartite", n=8, n1=3, k1=None, k2=None, T=1e-3),
])
def test_perturbed_qfi_is_counted_as_failed(cell):
    workload = workloads.make_workload("di_dense", out_dir=".")
    rows = workload.prepare(sq, cell)()
    assert check_all(sq, workload, [(cell, rows)], workloads.Oracle()) == []
    bad = [dataclasses.replace(rows[0], f_phase=rows[0].f_phase * (1 + 1e-7))]
    assert len(check_all(sq, workload, [(cell, bad)], workloads.Oracle())) == 1


def test_raised_operation_is_counted_as_failed():
    workload = workloads.make_workload("di_dense", out_dir=".")
    cell = _first_cells("di_dense", 1, rounds=1)[0]
    assert len(check_all(sq, workload, [(cell, ValueError("boom"))], workloads.Oracle())) == 1


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50
    assert tail_percentile(99) == 50
    assert tail_percentile(100) == 90
    assert tail_percentile(999) == 90
    assert tail_percentile(1000) == 99
    assert tail_percentile(10_000) == pytest.approx(99.9)


def test_percentile_is_the_harrell_davis_estimate():
    stats = pytest.importorskip("scipy.stats")
    values = np.sort(np.random.default_rng(0).exponential(size=137))
    n = len(values)
    for p in (10, 50, 90):
        q = p / 100
        weights = np.diff(stats.beta.cdf(np.arange(n + 1) / n, q * (n + 1), (1 - q) * (n + 1)))
        assert percentile(values, p) == pytest.approx(weights @ values, rel=1e-6)
    assert percentile([2.5] * 40, 90) == pytest.approx(2.5, rel=1e-12)


def test_pace_factors_scale_to_the_reference_host():
    ref = 3e-3
    # reference speed, then a host at half speed, then one passing from half to full
    assert pace_factors([ref, ref, 2 * ref, 2 * ref, ref], ref, half_width=0) == pytest.approx(
        [1.0, 2 / 3, 0.5, 2 / 3])
    # a stretched pass slows the factor of every operation within half_width of it
    factors = pace_factors([ref] * 5 + [7 * ref] + [ref] * 5, ref, half_width=2)
    assert factors == pytest.approx([1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1.0, 1.0])


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_every_workload_has_a_reference_pass(name):
    assert make_reference_pass(name)() > 0.0
