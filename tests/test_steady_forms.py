import math

import mpmath
import numpy as np
import pytest

from symqfi.collective_basis import (BipartiteSymmetricBasis, PureState, SymmetricBasis,
                                     wigner_d_matrix)
from symqfi.dephasing import NoiseParams
from symqfi.qfi import spectral_qfi
from symqfi.schemes import ProbeFamily, ProbeSpec, SchemeKind, SchemeSpec, build_probe, scheme_qfi
from symqfi.steady_forms import (
    SplitChoice,
    _rotation_weights,
    _split_quadrants,
    _steady_qfi,
    block_probabilities,
    bsd_steady_qfi,
    dfs_piecewise_qfi,
    ghz_bipartite_steady_qfi,
    ghz_qfi_analytic,
    optimize_bsd_split,
    product_steady_qfi,
)

import oracles

NOISE = NoiseParams(2 * math.pi * 50, 1.0)


def brute_force_split(n):
    """The splitting optimum by one bsd_steady_qfi call per (k, n1, k1)."""
    table = []
    for k in range(n + 1):
        evaluated = []
        for n1 in range(n + 1):
            for k1 in range(max(0, k - (n - n1)), min(k, n1) + 1):
                evaluated.append((bsd_steady_qfi(SplitChoice(n, n1, k1, k)), n1, k1))
        best = max(f for f, _, _ in evaluated)
        tie = best - 1e-9 * max(abs(best), 1.0)
        table.append((k, best, tuple(sorted((n1, k1) for f, n1, k1 in evaluated if f >= tie))))
    return table


def fold(m):
    """Index of each excitation 0..m in the half 0..m/2 that its reflection m - k shares."""
    k = np.arange(m + 1)
    return np.minimum(k, m - k)


def split_grids(n):
    """bsd_steady_qfi of every (k1, k2) at every split n1 = 0..n, as grids[n1][k1, k2].

    Read from the quadrants of _split_quadrants: by reflecting k1 and k2,
    and for n1 > n/2 as the transpose of split n - n1.
    """
    grids = [None] * (n + 1)
    for s, k1, k2, f in _split_quadrants(n):
        for n1 in np.unique(s).tolist():
            n2, at = n - n1, s == n1
            quadrant = np.full((n1 // 2 + 1, n2 // 2 + 1), np.nan)
            quadrant[k1[at], k2[at]] = f[at]
            grids[n1] = quadrant[fold(n1)][:, fold(n2)]
            grids[n2] = grids[n1].T
    return grids


def all_split_optimum(n):
    """The splitting optimum from the grid of every n1, both halves read."""
    table = []
    grids = split_grids(n)
    for k in range(n + 1):
        evaluated = [(grid[k1, k - k1], n1, k1) for n1, grid in enumerate(grids)
                     for k1 in range(max(0, k - (n - n1)), min(k, n1) + 1)]
        best = max(f for f, _, _ in evaluated)
        tie = best - 1e-9 * max(abs(best), 1.0)
        table.append((k, best, tuple(sorted((n1, k1) for f, n1, k1 in evaluated if f >= tie))))
    return table


def full_split_grid(n, n1):
    """A split's grid by the unreduced contraction: every k1, k2 and block k'."""
    n2 = n - n1
    w1, w2 = _rotation_weights(n1), _rotation_weights(n2)
    m2 = (np.arange(n2 + 1) - n2 / 2)[:, None]
    v1 = w2 * m2
    padded = np.zeros((n1 + n + 1, 3, n2 + 1))
    padded[n1:n1 + n2 + 1] = np.stack([w2, v1, v1 * m2], axis=1)
    shift = np.arange(n + 1) - np.arange(n1 + 1)[:, None] + n1
    moments = np.tensordot(w1, padded[shift], axes=(0, 0))
    return _steady_qfi(*np.moveaxis(moments, (2, 1), (0, 1)))


def dense_steady_qfi(spec):
    """Steady-state QFI of a bipartite probe: the dense oracle's block projection."""
    probe = build_probe(spec)
    basis = probe.basis
    rho = oracles.block_project(np.outer(probe.amplitudes, probe.amplitudes.conj()),
                                basis.n1, basis.n2)
    return spectral_qfi(rho, basis.partition2_weights())


class TestGhzAnalytic:
    def test_zero_time(self):
        for n in (2, 5, 8):
            assert ghz_qfi_analytic(n, 0.0, NOISE) == pytest.approx(n * n)

    def test_matches_pipeline(self):
        probe = build_probe(ProbeSpec(ProbeFamily.GHZ, 8))
        standard = SchemeSpec(SchemeKind.STANDARD, NOISE)
        for T in np.logspace(-5, 0, 10):
            got = scheme_qfi(probe, standard, float(T))[0]
            assert got == pytest.approx(ghz_qfi_analytic(8, float(T), NOISE),
                                        rel=1e-9, abs=1e-12)

    def test_monotone_decreasing(self):
        times = np.logspace(-5, 1, 30)
        values = [ghz_qfi_analytic(6, float(t), NOISE) for t in times]
        assert all(b <= a for a, b in zip(values, values[1:]))


class TestProductSteady:
    def test_half_split(self):
        assert product_steady_qfi(8, 4) == pytest.approx(2.0)  # n/4

    def test_empty_partition(self):
        assert product_steady_qfi(8, 0) == 0.0

    def test_uneven_split(self):
        assert product_steady_qfi(8, 3) == pytest.approx(15 / 8)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            product_steady_qfi(8, 9)

    def test_no_qubits(self):
        with pytest.raises(ValueError):
            product_steady_qfi(0, 0)


class TestGhzBipartiteSteady:
    def test_values(self):
        assert ghz_bipartite_steady_qfi(8) == pytest.approx(8.0)
        assert ghz_bipartite_steady_qfi(4) == pytest.approx(2.0)

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            ghz_bipartite_steady_qfi(7)

    def test_matches_pipeline(self):
        numeric = dense_steady_qfi(ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 8, n1=4))
        assert numeric == pytest.approx(ghz_bipartite_steady_qfi(8), abs=1e-10)


class TestDfsPiecewise:
    def test_balanced_maximum(self):
        assert dfs_piecewise_qfi(8, 4, 4) == 16.0  # n^2/4

    def test_no_excitations(self):
        assert dfs_piecewise_qfi(8, 4, 0) == 0.0

    def test_middle_branch(self):
        assert dfs_piecewise_qfi(8, 2, 3) == 4.0  # n1^2 branch

    def test_mirror_branch(self):
        assert dfs_piecewise_qfi(8, 6, 3) == 4.0  # (n - n1)^2 branch

    def test_high_excitation_branch(self):
        assert dfs_piecewise_qfi(8, 4, 7) == 1.0  # (n - k)^2

    def test_two_entry_state_reaches_it(self):
        # the equal superposition of the basis vectors (k - r, r) with the
        # largest and smallest partition-2 excitation r a total of k allows,
        # dephasing-free under DI_IDEAL; r_max = r_min gives one basis vector
        di = SchemeSpec(SchemeKind.DI_IDEAL, NOISE)
        for n in range(2, 9):
            for n1 in range(1, n):
                n2 = n - n1
                basis = BipartiteSymmetricBasis(n1, n2)
                for k in range(n + 1):
                    rs = {min(k, n2), max(0, k - n1)}
                    amps = np.zeros(basis.dimension, dtype=complex)
                    for r in rs:
                        amps[(k - r) * (n2 + 1) + r] = math.sqrt(1 / len(rs))
                    probe = PureState(basis, amps)
                    expected = dfs_piecewise_qfi(n, n1, k)
                    for T in (0.0, 1e-3, 0.1, 50.0):
                        assert scheme_qfi(probe, di, T)[0] == pytest.approx(
                            expected, rel=1e-14, abs=1e-14), (n, n1, k, T)

    def test_every_branch_consistent(self):
        for n in (5, 8):
            for n1 in range(n + 1):
                for k in range(n + 1):
                    value = dfs_piecewise_qfi(n, n1, k)
                    lo, hi = min(n1, n - n1), max(n1, n - n1)
                    if k <= lo:
                        assert value == k * k
                    elif k > hi:
                        assert value == (n - k) ** 2
                    else:
                        assert value == lo * lo


class TestSplitChoice:
    def test_valid(self):
        c = SplitChoice(8, 4, 2, 4)
        assert c.n2 == 4 and c.k2 == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            SplitChoice(8, 4, 5, 5)   # k1 > n1
        with pytest.raises(ValueError):
            SplitChoice(8, 4, 3, 2)   # k1 > k
        with pytest.raises(ValueError):
            SplitChoice(8, 6, 0, 4)   # k2 > n2


def ghz_probe(n):
    return ProbeSpec(ProbeFamily.GHZ, n)


def bsd_probe(n, n1, k1, k2):
    return ProbeSpec(ProbeFamily.BSD, n, n1, k1, k2)


def wigner_d(n):
    return wigner_d_matrix(n, 0.3).tolist()


# every count argument of the closed forms, the Dicke bases, the probe specs
# and the Wigner-d matrix follows one rule: bools, floats, strings and None are refused, and a
# numpy integer gives the same value as the Python int
COUNT_ARGUMENTS = [
    (SplitChoice, (8, 4, 2, 4)),
    (product_steady_qfi, (8, 2)),
    (dfs_piecewise_qfi, (8, 4, 2)),
    (ghz_bipartite_steady_qfi, (8,)),
    (SymmetricBasis, (8,)),
    (BipartiteSymmetricBasis, (4, 4)),
    (ghz_probe, (8,)),
    (bsd_probe, (8, 4, 2, 2)),
    (wigner_d, (8,)),
]
COUNT_CALLS = [(f, args, i) for f, args in COUNT_ARGUMENTS for i in range(len(args))]
COUNT_IDS = [f"{f.__name__}-{i}" for f, _, i in COUNT_CALLS]


@pytest.mark.parametrize("bad", [True, 2.0, 2.5, "2", None])
@pytest.mark.parametrize("f, args, i", COUNT_CALLS, ids=COUNT_IDS)
def test_non_integer_count_rejected(f, args, i, bad):
    with pytest.raises(ValueError):
        f(*args[:i], bad, *args[i + 1:])


@pytest.mark.parametrize("f, args, i", COUNT_CALLS, ids=COUNT_IDS)
def test_numpy_integer_count_accepted(f, args, i):
    assert f(*args[:i], np.int64(args[i]), *args[i + 1:]) == f(*args)


class TestBlockProbabilities:
    def test_product_case_is_binomial(self):
        for n, n1 in ((6, 2), (8, 4)):
            p = block_probabilities(SplitChoice(n, n1, 0, 0))
            ref = np.array([math.comb(n, kp) for kp in range(n + 1)]) / 2 ** n
            np.testing.assert_allclose(p, ref, atol=1e-13)

    def test_trivial_partition_is_rotated_column(self):
        from symqfi.collective_basis import wigner_d_matrix
        n, k = 6, 2
        p = block_probabilities(SplitChoice(n, n, k, k))
        column = wigner_d_matrix(n, math.pi / 2)[:, k] ** 2
        np.testing.assert_allclose(p, column, atol=1e-13)

    def test_normalized_random_choices(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            n = int(rng.integers(2, 21))
            n1 = int(rng.integers(0, n + 1))
            k1 = int(rng.integers(0, n1 + 1))
            k2 = int(rng.integers(0, n - n1 + 1))
            p = block_probabilities(SplitChoice(n, n1, k1, k1 + k2))
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p >= -1e-15)


class TestBsdSteady:
    def test_optimal_probe_value(self):
        assert bsd_steady_qfi(SplitChoice(8, 4, 2, 4)) == pytest.approx(6.0, rel=1e-12)

    def test_product_reduction(self):
        for n, n1 in ((6, 2), (8, 4), (8, 3), (7, 5)):
            got = bsd_steady_qfi(SplitChoice(n, n1, 0, 0))
            assert got == pytest.approx(product_steady_qfi(n, n1), rel=1e-11)

    def test_matches_numeric_pipeline_randomized(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            n1 = int(rng.integers(1, n))
            k1 = int(rng.integers(0, n1 + 1))
            k2 = int(rng.integers(0, n - n1 + 1))
            closed = bsd_steady_qfi(SplitChoice(n, n1, k1, k1 + k2))
            numeric = dense_steady_qfi(ProbeSpec(ProbeFamily.BSD, n, n1=n1, k1=k1, k2=k2))
            assert closed == pytest.approx(numeric, rel=1e-9, abs=1e-12)

    def test_identity_for_balanced_quarter_filling(self):
        for n in range(4, 68, 4):
            got = bsd_steady_qfi(SplitChoice(n, n // 2, n // 4, n // 2))
            assert got == pytest.approx(n * (n + 4) / 16, rel=1e-9)

    def test_noiseless_is_twice_steady(self):
        # halving under dephasing, for the product and GHZ-pair probes
        di = SchemeSpec(SchemeKind.DI_IDEAL, NOISE)
        for family, kwargs, steady in (
                (ProbeFamily.PRODUCT_PLUS, dict(n1=4), 2.0),
                (ProbeFamily.GHZ_BIPARTITE, dict(n1=4), 8.0)):
            probe = build_probe(ProbeSpec(family, 8, **kwargs))
            noiseless = scheme_qfi(probe, di, 0.0)[0]
            assert noiseless == pytest.approx(2 * steady, rel=1e-9)


class TestOptimizeSplit:
    def test_small_case(self):
        table = optimize_bsd_split(8)
        best = max(table, key=lambda r: r.max_qfi)
        assert best.max_qfi == pytest.approx(6.0, rel=1e-9)
        assert (4, 2) in table[4].argmax

    def test_global_structure_n50(self):
        table = optimize_bsd_split(50)
        overall = max(r.max_qfi for r in table)
        # the symmetric-excitation record attains the global optimum
        assert table[25].max_qfi == pytest.approx(overall, rel=1e-9)
        assert (25, 12) in table[25].argmax

    def test_symmetry_in_total_excitation_n50(self):
        table = optimize_bsd_split(50)
        for k in range(51):
            assert table[k].max_qfi == pytest.approx(table[50 - k].max_qfi, rel=1e-9)

    def test_excitation_argmax_symmetry_n50(self):
        table = optimize_bsd_split(50)
        for k in range(26):
            assert any(k1 == k // 2 for _, k1 in table[k].argmax)
        for k in range(25, 51):
            assert any(n1 - k1 == (50 - k) // 2 for n1, k1 in table[k].argmax)

    def test_odd_k_keeps_ties(self):
        table = optimize_bsd_split(50)
        assert len(table[25].argmax) > 1
        assert table[25].argmax == tuple(sorted(table[25].argmax))

    @pytest.mark.parametrize("n", [*range(2, 25), 50])
    def test_matches_brute_force(self, n):
        table = optimize_bsd_split(n)
        assert [r.k for r in table] == list(range(n + 1))
        for record, (k, best, argmax) in zip(table, brute_force_split(n)):
            assert record.argmax == argmax, k
            assert abs(record.max_qfi - best) <= 4e-15 * max(abs(best), 1.0), k

    @pytest.mark.parametrize("n", [64, 100, 160])
    def test_paper_optimum_at_large_n(self, n):
        # the best splitting of a symmetric Dicke state: n(n+4)/16 at (n/2, n/4)
        table = optimize_bsd_split(n)
        record = table[n // 2]
        assert record.max_qfi == pytest.approx(n * (n + 4) / 16, rel=1e-9, abs=0)
        assert (n // 2, n // 4) in record.argmax
        assert record.max_qfi == max(r.max_qfi for r in table)

    @pytest.mark.parametrize("n", [16, 24, 32, 40])
    def test_records_match_high_precision_judge(self, n):
        # each record's maximum at its first maximizing split, against a
        # 50-digit evaluation of the block moments (worst 3.4e-15 relative,
        # at n = 40, k = 0)
        for record in optimize_bsd_split(n):
            n1, k1 = record.argmax[0]
            ref = float(oracles.bsd_steady_qfi_mp(n1, k1, n - n1, record.k - k1))
            assert abs(record.max_qfi - ref) <= 1e-14 * max(abs(ref), 1.0), record

    @pytest.mark.parametrize("n", range(2, 17))
    def test_grid_matches_single_cells(self, n):
        for n1, grid in enumerate(split_grids(n)):
            assert grid.shape == (n1 + 1, n - n1 + 1)
            for (k1, k2), f in np.ndenumerate(grid):
                ref = bsd_steady_qfi(SplitChoice(n, n1, k1, k1 + k2))
                assert abs(f - ref) <= 1e-12 * max(abs(ref), 1.0), (n1, k1, k2)

    @pytest.mark.parametrize("n", [*range(2, 65), 100])
    def test_matches_all_split_evaluation(self, n):
        table = optimize_bsd_split(n)
        for record, (k, best, argmax) in zip(table, all_split_optimum(n), strict=True):
            assert record.k == k
            assert record.argmax == argmax, k
            assert abs(record.max_qfi - best) <= 4e-15 * max(abs(best), 1.0), k

    @pytest.mark.parametrize("n", [*range(2, 65), 100])
    def test_mirror_pairs_tie_exactly(self, n):
        # exchanging the partitions maps (n1, k1) to (n - n1, k - k1)
        grids = split_grids(n)
        for record in optimize_bsd_split(n):
            k, argmax = record.k, set(record.argmax)
            for n1, k1 in argmax:
                assert (n - n1, k - k1) in argmax, (k, n1, k1)
                value = grids[n1][k1, k - k1]
                assert value == grids[n - n1][k - k1, k1], (k, n1, k1)
                assert value >= record.max_qfi - 1e-9 * max(record.max_qfi, 1.0)

    @pytest.mark.parametrize("n", [*range(2, 65), 100])
    def test_tie_window_decides_nothing(self, n):
        # each record keeps exactly the splits that read the maximum bit for
        # bit, and every other split sits more than the 1e-9 window below it,
        # so the window's width changes no record (the closest split sits
        # 8.8e-7 relative below, at n = 100, k = 37)
        grids = split_grids(n)
        for record in optimize_bsd_split(n):
            k, best = record.k, record.max_qfi
            values = {(n1, k1): grids[n1][k1, k - k1] for n1 in range(n + 1)
                      for k1 in range(max(0, k - (n - n1)), min(k, n1) + 1)}
            assert record.argmax == tuple(s for s, f in values.items() if f == best), k
            below = [f for f in values.values() if f != best]
            if below:
                assert best - max(below) > 1e-9 * max(abs(best), 1.0), k

    def test_grid_mirrors_the_exchanged_split(self):
        # the exchanged split, contracted over the other partition
        for n in range(1, 41):
            for n1, grid in enumerate(split_grids(n)):
                mirror = full_split_grid(n, n - n1).T
                assert np.all(np.abs(grid - mirror) <= 1e-12 * np.maximum(np.abs(grid), 1.0)), \
                    (n, n1)

    @pytest.mark.parametrize("n", [*range(1, 13), 31, 40, 64])
    def test_rotation_weights_match_high_precision_judge(self, n):
        w = _rotation_weights(n)
        assert np.array_equal(w, w[::-1]) and np.array_equal(w, w[:, ::-1])
        with mpmath.workdps(50):
            d = oracles.wigner_d_half_pi_mp(n)
            error = max(abs(mpmath.mpf(float(w[kp, k])) - d[kp][k] ** 2)
                        for kp in range(n + 1) for k in range(n + 1))
        assert error <= 1e-15, float(error)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_reduced_grid_matches_full_contraction(self, n):
        # s2 - s1^2/s0 cancels from terms of size 4<m2^2> per column k2, so
        # the tolerance scales with it: at n = 40 both contractions sit up to
        # ~1.4e-13 from a 50-digit evaluation, and a GEMM with FMA rounds the
        # full one's mirror blocks k', n - k' differently; the splits n1 > n/2
        # are their transposes (see test_grid_mirrors_the_exchanged_split)
        for n1, grid in enumerate(split_grids(n)[:n // 2 + 1]):
            full = full_split_grid(n, n1)
            m2 = np.arange(n - n1 + 1) - (n - n1) / 2
            scale = np.maximum(np.abs(full), 4 * (m2 * m2) @ _rotation_weights(n - n1))
            assert np.all(np.abs(grid - full) <= 4e-15 * np.maximum(scale, 1.0)), n1
            assert np.array_equal(grid, grid[::-1]) and np.array_equal(grid, grid[:, ::-1]), n1
            if 2 * n1 == n:
                assert np.array_equal(grid, grid.T)

    @pytest.mark.parametrize("n", [*range(2, 65), 100])
    def test_map_reflects_in_total_excitation(self, n):
        # reflecting both partitions maps (n1, k1) at k to (n1, n1 - k1) at n - k
        table = optimize_bsd_split(n)
        for record in table:
            mirror = table[n - record.k]
            assert record.max_qfi == mirror.max_qfi, record.k
            assert mirror.argmax == tuple(sorted((n1, n1 - k1) for n1, k1 in record.argmax)), \
                record.k

    @pytest.mark.parametrize("bad", [8.0, True, "8", None, 8.5])
    def test_non_integer_qubit_count_rejected(self, bad):
        with pytest.raises(ValueError):
            optimize_bsd_split(bad)

    def test_numpy_integer_qubit_count_accepted(self):
        assert optimize_bsd_split(np.int64(8)) == optimize_bsd_split(8)

    def test_grid_is_never_negative(self):
        # s2 - s1^2/s0 cancels below 0 on some blocks (down to -6e-14 at
        # n=35, n1=0); a conditional variance cannot be negative
        assert bsd_steady_qfi(SplitChoice(5, 1, 0, 2)) >= 0.0
        for n in range(2, 41):
            for n1, grid in enumerate(split_grids(n)):
                assert grid.min() >= 0.0, (n, n1)
