"""Closed-form steady-state and decay results, usable as independent oracles.

Everything here is evaluated without building density matrices, so these
functions cross-check the numeric pipeline (and scale to qubit numbers the
pipeline never touches).  Notation: n qubits split n1 | n2 = n - n1, k1/k2
excitations prepared per partition, k = k1 + k2 total, and k' the total
excitation number labelling a steady-state block.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .collective_basis import wigner_d_matrix
from .dephasing import NoiseParams, phase_variance_c

# steady-state blocks below this probability carry no weight and an
# undefined conditional variance, so they are skipped
BLOCK_PROBABILITY_FLOOR = 1e-15


@dataclass(frozen=True)
class SplitChoice:
    """A bipartite splitting with per-partition excitation numbers."""

    n: int
    n1: int
    k1: int
    k: int

    def __post_init__(self):
        if not 0 <= self.n1 <= self.n:
            raise ValueError(f"partition size n1={self.n1} outside 0..{self.n}")
        if not 0 <= self.k1 <= min(self.k, self.n1):
            raise ValueError(f"k1={self.k1} outside 0..min(k={self.k}, n1={self.n1})")
        if self.k - self.k1 > self.n - self.n1:
            raise ValueError(
                f"partition 2 cannot hold k2={self.k - self.k1} excitations "
                f"with {self.n - self.n1} qubits"
            )

    @property
    def n2(self) -> int:
        return self.n - self.n1

    @property
    def k2(self) -> int:
        return self.k - self.k1


def ghz_qfi_analytic(n: int, T: float, p: NoiseParams) -> float:
    """Phase QFI n^2 * exp(-n^2 C(T)) of an n-qubit GHZ probe at time T."""
    return n * n * math.exp(-n * n * phase_variance_c(T, p))


def product_steady_qfi(n: int, n1: int) -> float:
    """Steady-state differential-scheme QFI n1(n - n1)/n of the |+>^n probe."""
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    if not 0 <= n1 <= n:
        raise ValueError(f"partition size n1={n1} outside 0..{n}")
    return n1 * (n - n1) / n


def ghz_bipartite_steady_qfi(n: int) -> float:
    """Steady-state QFI n^2/8 of the equal-split GHZ ⊗ GHZ probe."""
    if n % 2:
        raise ValueError(f"equal splitting requires an even qubit count, got {n}")
    return n * n / 8


def dfs_piecewise_qfi(n: int, n1: int, k: int) -> float:
    """Best QFI of a fixed-excitation (dephasing-free) state for a given split.

    The optimum pairs the extremal partition-2 weights reachable with k
    total excitations, which caps at min(n1, n2)^2 in the middle range.
    """
    if not 0 <= n1 <= n:
        raise ValueError(f"partition size n1={n1} outside 0..{n}")
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside 0..{n}")
    lo, hi = min(n1, n - n1), max(n1, n - n1)
    if k <= lo:
        return float(k * k)
    if k <= hi:
        return float(lo * lo)
    return float((n - k) * (n - k))


@lru_cache(maxsize=None)
def _rotation_weights(n: int) -> np.ndarray:
    """Squared pi/2 Wigner-d matrix; column k is the excitation distribution
    of the rotated Dicke state with k excitations."""
    if n == 0:
        w = np.ones((1, 1))
    else:
        d = wigner_d_matrix(n, math.pi / 2)
        w = d * d
    w.setflags(write=False)
    return w


def _block_moments(c: SplitChoice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-block moments of the partition-2 weight for a rotated BSD probe.

    Entry k' of the convolution sums over all (q, k'-q) consistent with the
    partition sizes, which is exactly the valid index range.
    """
    w1 = _rotation_weights(c.n1)[:, c.k1]
    w2 = _rotation_weights(c.n2)[:, c.k2]
    m2 = np.arange(c.n2 + 1) - c.n2 / 2
    s0 = np.convolve(w1, w2)
    s1 = np.convolve(w1, w2 * m2)
    s2 = np.convolve(w1, w2 * m2 * m2)
    return s0, s1, s2


def block_probabilities(c: SplitChoice) -> np.ndarray:
    """Probability of each total-excitation block k' = 0..n for a BSD probe."""
    return _block_moments(c)[0]


def _steady_qfi(s0: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Four times the weight-summed conditional variance s2 - s1^2/s0 over
    the blocks k' on the first axis, skipping blocks below the floor; a
    term that cancels below 0 is clamped, as no variance is negative."""
    keep = s0 > BLOCK_PROBABILITY_FLOOR
    var = s2 - np.divide(s1 ** 2, s0, out=np.zeros_like(s0), where=keep)
    return 4.0 * np.sum(np.where(keep, np.maximum(var, 0.0, out=var), 0.0), axis=0)


def bsd_steady_qfi(c: SplitChoice) -> float:
    """Steady-state QFI of a rotated bipartite Dicke probe.

    Four times the probability-weighted conditional variance of the
    partition-2 weight across the surviving fixed-excitation blocks.
    """
    return float(_steady_qfi(*_block_moments(c)))


def _split_grid(n: int, n1: int) -> np.ndarray:
    """bsd_steady_qfi of every (k1, k2) at split n1, as grid[k1, k2].

    The moments of all pairs come from one contraction over the partition-1
    excitation q: V[q, k', j, k2] = W2[k' - q, k2] m2^j, zero where k' - q
    falls outside 0..n2, summed against W1[q, k1].
    """
    n2 = n - n1
    w1, w2 = _rotation_weights(n1), _rotation_weights(n2)
    m2 = (np.arange(n2 + 1) - n2 / 2)[:, None]
    v1 = w2 * m2
    padded = np.zeros((n1 + n + 1, 3, n2 + 1))
    padded[n1:n1 + n2 + 1] = np.stack([w2, v1, v1 * m2], axis=1)
    shift = np.arange(n + 1) - np.arange(n1 + 1)[:, None] + n1
    moments = np.tensordot(w1, padded[shift], axes=(0, 0))
    return _steady_qfi(*np.moveaxis(moments, (2, 1), (0, 1)))


def _all_split_grids(n: int) -> list[np.ndarray]:
    """_split_grid(n, n1) for every n1 = 0..n, evaluated for n1 <= n/2 only.

    Within a steady block m1 + m2 is fixed, so both partitions have the same
    conditional variance and exchanging them leaves the QFI unchanged:
    grid(n1)[k1, k2] = grid(n - n1)[k2, k1].  The splits n1 <= n/2 contract
    over the smaller partition; the others are their transposes, and the
    equal split is filled from its upper triangle, so each mirror pair reads
    bit-identical values.
    """
    half = n // 2
    grids = [_split_grid(n, n1) for n1 in range(half + 1)]
    if n % 2 == 0:
        grids[half] = np.triu(grids[half]) + np.triu(grids[half], 1).T
    return grids + [grids[n - n1].T for n1 in range(half + 1, n + 1)]


@dataclass(frozen=True)
class SplitOptimum:
    """Best steady-state QFI at fixed total excitation number k."""

    k: int
    max_qfi: float
    argmax: tuple[tuple[int, int], ...]  # (n1, k1) pairs, lexicographic


def optimize_bsd_split(n: int) -> list[SplitOptimum]:
    """Exhaustive scan of all splittings, one optimum record per k = 0..n.

    All maximizers within a 1e-9 relative tie window are kept; equivalent
    splittings occur for odd k, and the mirror pairs (n1, k1), (n - n1,
    k - k1) among them tie exactly (see _all_split_grids).
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"qubit count must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"need at least two qubits to split, got n={n}")
    f, n1s, k1s, ks = [], [], [], []
    for n1, grid in enumerate(_all_split_grids(n)):
        k1, k2 = np.indices(grid.shape)
        f.append(grid.ravel())
        n1s.append(np.full(grid.size, n1))
        k1s.append(k1.ravel())
        ks.append((k1 + k2).ravel())
    f, n1s, k1s, ks = map(np.concatenate, (f, n1s, k1s, ks))
    best = np.full(n + 1, -np.inf)
    np.maximum.at(best, ks, f)
    tie = best - 1e-9 * np.maximum(np.abs(best), 1.0)
    winners = np.flatnonzero(f >= tie[ks])
    winners = winners[np.lexsort((k1s[winners], n1s[winners], ks[winners]))]
    pairs = np.stack([n1s[winners], k1s[winners]], axis=1)
    groups = np.split(pairs, np.cumsum(np.bincount(ks[winners], minlength=n + 1))[:-1])
    return [SplitOptimum(k=k, max_qfi=float(best[k]), argmax=tuple(map(tuple, group.tolist())))
            for k, group in enumerate(groups)]
