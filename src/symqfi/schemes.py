"""End-to-end estimation pipelines for the supported probe families.

STANDARD interrogates all qubits with the total z-spin; the differential
(DI) kinds split the ensemble in two, let only partition 2 collect signal
phase, and differ in how the shared noise is realized: DI_IDEAL (one noise
sample on everything), DI_SPIN_ECHO (partition 1 flipped halfway), and
DI_REPEAT (independent noise samples per partition).

The signal unitary itself commutes with the noise and with its own
generator, so it never changes the QFI and is not applied to the state.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .collective_basis import (
    BipartiteSymmetricBasis,
    ProductState,
    PureState,
    RotatedState,
    _require_angle,
    _require_integer,
    _require_real,
    _rotated,
    _rotated_amplitudes,
    dicke_state,
    ghz_state,
    plus_product_state,
    rotate_y,
)
from .dephasing import (NoiseParams, _collective_row, dephasing_kernel, phase_variance_c,
                        spin_echo_weights_variance)
from .qfi import frequency_from_phase, parity_qfi, spectral_qfi


class ProbeFamily(Enum):
    PRODUCT_PLUS = "product_plus"
    GHZ = "ghz"
    DICKE_SYMMETRIC = "dicke_symmetric"
    BSD = "bsd"
    GHZ_BIPARTITE = "ghz_bipartite"
    DFS_OPTIMAL = "dfs_optimal"


_BIPARTITE_ONLY = (ProbeFamily.BSD, ProbeFamily.GHZ_BIPARTITE, ProbeFamily.DFS_OPTIMAL)


@dataclass(frozen=True)
class ProbeSpec:
    """Parameters selecting one probe state.

    n1 splits the ensemble (bipartite families; optional for PRODUCT_PLUS),
    k1/k2 are the per-partition excitation numbers (BSD only), and alpha is
    the collective rotation applied on top of the family's base state, any
    finite real number.
    """

    family: ProbeFamily
    n: int
    n1: int | None = None
    k1: int | None = None
    k2: int | None = None
    alpha: float = 0.0

    def __post_init__(self):
        f, n, n1 = self.family, self.n, self.n1
        if not isinstance(f, ProbeFamily):
            raise ValueError(f"family must be a ProbeFamily, got {f!r}")
        _require_integer("qubit count", n)
        for name in ("n1", "k1", "k2"):
            if getattr(self, name) is not None:
                _require_integer(name, getattr(self, name))
        if n < 1:
            raise ValueError(f"need at least one qubit, got n={n}")
        _require_angle("alpha", self.alpha)
        if f in _BIPARTITE_ONLY or (f is ProbeFamily.PRODUCT_PLUS and n1 is not None):
            if f is ProbeFamily.DFS_OPTIMAL and n1 is None:
                if n % 2:
                    raise ValueError("dfs_optimal requires an even qubit count")
                object.__setattr__(self, "n1", n // 2)
                n1 = self.n1
            if n1 is None:
                raise ValueError(f"{f.value} requires a partition size n1")
            if not 1 <= n1 <= n - 1:
                raise ValueError(f"partition size n1={n1} outside 1..{n - 1}")
        elif n1 is not None:
            raise ValueError(f"{f.value} does not take a partition size")
        if f is ProbeFamily.BSD:
            if self.k1 is None or self.k2 is None:
                raise ValueError("bsd requires excitation counts k1 and k2")
            if not 0 <= self.k1 <= n1:
                raise ValueError(f"k1={self.k1} outside 0..{n1}")
            if not 0 <= self.k2 <= n - n1:
                raise ValueError(f"k2={self.k2} outside 0..{n - n1}")
        elif self.k1 is not None or self.k2 is not None:
            raise ValueError(f"{f.value} does not take excitation counts")
        if f is ProbeFamily.DICKE_SYMMETRIC and n % 2:
            raise ValueError("dicke_symmetric requires an even qubit count")
        if f is ProbeFamily.DFS_OPTIMAL:
            if n % 2 or self.n1 != n // 2:
                raise ValueError("dfs_optimal requires an even split n1 = n/2")
            if self.alpha != 0.0:
                raise ValueError("dfs_optimal has no rotation parameter")


class SchemeKind(Enum):
    STANDARD = "standard"
    DI_IDEAL = "di_ideal"
    DI_SPIN_ECHO = "di_spin_echo"
    DI_REPEAT = "di_repeat"


@dataclass(frozen=True)
class SchemeSpec:
    """Estimation scheme: kind and noise parameters; scan takes the times."""

    kind: SchemeKind
    noise: NoiseParams

    def __post_init__(self):
        if not isinstance(self.kind, SchemeKind):
            raise ValueError(f"scheme kind must be a SchemeKind, got {self.kind!r}")
        if not isinstance(self.noise, NoiseParams):
            raise ValueError(f"noise must be a NoiseParams, got {self.noise!r}")


@dataclass(frozen=True)
class ScanResult:
    """One evaluated (probe, time) cell; error rows carry NaN values."""

    scheme: str
    family: str
    n: int
    n1: int | None
    k1: int | None
    k2: int | None
    alpha: float
    T: float
    f_phase: float
    f_freq: float
    alpha_optimized: bool
    error: str | None = None


def _dfs_state(n1: int, n2: int) -> PureState:
    """dfs_optimal's entangled probe (|0, n2> + |n1, 0>) / sqrt(2), partitions of n1 and n2."""
    basis = BipartiteSymmetricBasis(n1, n2)
    amps = np.zeros(basis.dimension, dtype=complex)
    amps[[n2, n1 * (n2 + 1)]] = 1.0 / math.sqrt(2.0)  # (q, r) = (0, n2) and (n1, 0)
    return PureState(basis, amps)


def _factor_keys(spec: ProbeSpec) -> tuple[tuple, float]:
    """The _factor keys of spec's unrotated probe, partition 1's first, and its start angle.

    A split rotatable family's probe is the product of one factor per
    partition, an unsplit one's is one factor, and dfs_optimal's is the
    entangled _dfs_state, offset 0; spec's probe is this one rotated by
    offset + spec.alpha.
    """
    f, n, n1 = spec.family, spec.n, spec.n1
    if f is ProbeFamily.DFS_OPTIMAL:
        return ((_dfs_state, n1, n - n1),), 0.0
    sizes = (n,) if n1 is None else (n1, n - n1)
    if f is ProbeFamily.PRODUCT_PLUS:
        return tuple((plus_product_state, m) for m in sizes), 0.0
    if f is ProbeFamily.GHZ or f is ProbeFamily.GHZ_BIPARTITE:
        return tuple((ghz_state, m) for m in sizes), 0.0
    if f is ProbeFamily.DICKE_SYMMETRIC:
        return ((dicke_state, n, n // 2),), math.pi / 2
    return ((dicke_state, n1, spec.k1), (dicke_state, n - n1, spec.k2)), math.pi / 2


def _base_probe(spec: ProbeSpec) -> tuple[PureState, float]:
    """Unrotated probe of spec's family and the angle its rotation starts from (_factor_keys)."""
    keys, offset = _factor_keys(spec)
    parts = [_factor(*key)[0] for key in keys]
    return (parts[0] if len(parts) == 1 else ProductState(*parts)), offset


def build_probe(spec: ProbeSpec) -> PureState:
    """Construct the probe state selected by spec."""
    probe, offset = _base_probe(spec)
    return rotate_y(probe, offset + spec.alpha)


def _parity_eigenstate(state: PureState) -> bool:
    """Whether the collective pi rotation about y maps state to +-state.

    It maps |D_n^k> to +-(-1)^k |D_n^(n-k)> in each partition, reversing a
    flattened basis, so the exact test is a_(n-k) (-1)^k = +-a_k.
    """
    amps, basis = state.amplitudes, state.basis
    if basis.n % 2:  # then a_k = (-1)^n a_k = -a_k: no state passes
        return False
    flipped = np.where(basis.excitations() % 2, -amps[::-1], amps[::-1])
    return not np.count_nonzero(flipped - amps) or not np.count_nonzero(flipped + amps)


def _described(state: PureState) -> tuple[PureState, bool, bytes | None]:
    """state, its _parity_eigenstate flag and its amplitudes as float64 bytes if they are real."""
    amps = state.amplitudes
    return state, _parity_eigenstate(state), \
        None if np.count_nonzero(amps.imag) else amps.real.tobytes()


@functools.lru_cache(maxsize=1024)
def _factor(build: Callable, *counts: int) -> tuple[PureState, bool, bytes]:
    """_described(build(*counts)): a base factor, validated once, with its parity and bytes.

    build is plus_product_state, ghz_state, dicke_state or _dfs_state, so
    every probe and split with this factor, in either partition, shares
    the entry and its refusal is build's.  An entry holds the state's
    complex and real amplitudes, 24 d bytes for d amplitudes, and about
    0.8 KB of objects: at most 1024 (24 d + 800) bytes, 3.3 MB for factors
    of up to 100 qubits.  A _dfs_state's d is the bipartite (n1 + 1)(n2 + 1),
    62 KB at n = 100, but there is one per even n.
    """
    return _described(build(*counts))


# frame entries G * d^2 per stack of a qfi call (128 KiB an array)
_CHUNK_ENTRIES = 2 ** 14
# the uniform grid of angles the rotation search starts from
_GRID = np.linspace(0.0, math.pi / 2, 201)
_GRID.flags.writeable = False


@functools.lru_cache(maxsize=64)
def _grid_rotations(amps: bytes, offset: float) -> np.ndarray:
    """_rotated(amps, offset + _GRID), read-only.

    amps holds one factor's real amplitudes as float64 bytes.  The grid
    depends on the probe alone, so every time and scheme of a probe share
    an entry of len(_GRID) * (m + 1) floats for a factor of m qubits.
    """
    rows = _rotated(np.frombuffer(amps), offset + _GRID)
    rows.flags.writeable = False
    return rows


@functools.lru_cache(maxsize=1024)
def _start_rotation(amps: bytes, start: float) -> np.ndarray:
    """_rotated(amps, np.array([start])), read-only: one factor at its start angle.

    amps holds a factor's d real amplitudes as float64 bytes; every probe
    with this factor shares the row.  An entry takes at most 16 d + 512
    bytes (key, row and objects), so the cache at most 1024 times that:
    2.2 MB for factors of n <= 100, 43 MB for plain bipartite states of
    n = 100 (d = 2601).
    """
    row = _rotated(np.frombuffer(amps), np.array([start]))
    row.flags.writeable = False
    return row


_PER_VECTOR_KINDS = (SchemeKind.DI_SPIN_ECHO, SchemeKind.DI_REPEAT)


@functools.lru_cache(maxsize=64)
def _block_layout(basis, kind: SchemeKind) -> tuple:
    """The blocks of a signal state on basis under kind, read-only (see _ProbeSetup).

    Returns (per_vector, index, m1, g, ref, dg, dg.any(), nk, mid, step),
    shared by every probe of the same shape; spin echo and repeat reach it
    only for a bipartite state that is no ProductState.  An entry holds at
    most five arrays of d = basis.dimension entries, 40 d bytes and about
    1 KB of objects: at most 1.2 MB over the 64 entries at n <= 40, 6.7 MB
    at n <= 100.
    """
    per_vector = kind in _PER_VECTOR_KINDS
    # the signal acts on the whole state under STANDARD, else on partition 2
    g = basis.z_weights() if kind is SchemeKind.STANDARD else basis.partition2_weights()
    if per_vector:  # one block per basis vector; g is partition 2's weight
        index, m1 = np.arange(basis.dimension), basis.partition1_weights()
    else:  # one block per total excitation number k, collective noise on k
        index, m1 = basis.excitations(), None
    nk = len(g) if per_vector else basis.n + 1
    ref = np.empty(nk)
    ref[index] = g  # g at one entry of each block
    dg = g - ref[index]
    for x in (index, g, ref, dg, m1):
        if x is not None:
            x.flags.writeable = False
    # an eigenstate has even n: block n/2 is its own mirror image; the frame
    # of a rotatable probe holds at most its n + 1 excitation blocks
    return (per_vector, index, m1, g, ref, dg, bool(dg.any()), nk, nk // 2,
            max(1, _CHUNK_ENTRIES // (basis.n + 1) ** 2))


def _moduli(rows: list[np.ndarray]) -> np.ndarray:
    """Squared moduli of the states whose factors' (G, d) amplitude stacks are rows."""
    if len(rows) == 2:
        rows = [(rows[0][:, :, None] * rows[1][:, None, :]).reshape(len(rows[0]), -1)]
    return np.abs(rows[0]) ** 2


class _ProbeSetup:
    """The time-free half of a cell: probe turned about y by offset plus many angles, under kind.

    qfi adds the time.  scheme_qfi builds one at angle 0 (_probe_setup);
    scan and optimize_rotation share theirs across times, cells and
    splits (_signal_setup).  Its arrays are read-only; the blocks
    (_block_layout), base factors (_factor) and start rotations
    (_start_rotation) are cached apart.  factors holds (record, start) per
    factor of the signal state, record being _described's (state, parity,
    bytes).  frames0, frames(p0) kept read-only from qfi's first call on
    p0, lets every time of an unrotated cell reuse its blocks, roots and
    means: at most four arrays of n + 1 entries and about 1 KB of objects.

    The kind picks the signal state and its generator diagonal g.  Spin
    echo and repeat kernels factorize per partition with partition 2's
    factor exp(-C(T) dm2^2 / 2), so a ProductState carries the QFI of its
    partition-2 factor, with its total z-spin, under collective
    dephasing: STANDARD's set-up of that factor.  The other kinds take the
    whole probe.  The kernel picks the blocks: collective dephasing scales
    P_j rho P_k by exp(-C(T)(j - k)^2 / 2) for the total-excitation
    projectors P_k (index maps each basis vector to its k), and spin echo
    and repeat on any other state take one block per basis vector, whose
    partition weights m1 and g the kernel reads.  ref holds g at one entry
    of each block and dg = g - ref[index].

    Each factor, a ProductState's two or the state itself, is a base
    rotated by offset plus the angle a RotatedState carries (else 0),
    through _rotated_amplitudes as in rotate_y; a bipartite state that is
    no ProductState, such as dfs_optimal's, is taken at angle 0 only.  p0
    holds the probabilities at the start angles, from _start_rotation's
    rows where a factor is real.  Amplitudes enter by modulus only: a
    diagonal phase commutes with the noise and the generator.

    parity: the frames are collective blocks with v = None and every base
    is an eigenstate of the collective pi rotation about y, so is every
    such rotation of the signal state, decided on the bases, whose
    amplitudes carry no rounding of a rotation: w_k = w_(n-k), and each
    frame splits into the sectors of the reflection k -> n - k, which takes
    G to -G (Cantoni and Butler, Linear Algebra Appl. 13, 275, 1976): the
    even one spanned by (e_k + e_(n-k)) / sqrt(2), k < n/2, and e_(n/2),
    the odd one by (e_k - e_(n-k)) / sqrt(2).  parity_qfi takes them, the
    matrices sqrt(w_j w_k) (K[j, k] +- K[j, n - k]) from the lower half of
    w (_kernel).  step angles fill 2^14 frame entries.
    """

    def __init__(self, kind: SchemeKind, basis, product: bool, factors: list[tuple],
                 offset: float = 0.0):
        self.kind, self.offset = kind, offset
        (self.per_vector, self.index, self.m1, self.g, self.ref, self.dg, varies, self.nk,
         self.mid, self.step) = _block_layout(basis, kind)
        self.entangled = isinstance(basis, BipartiteSymmetricBasis) and not product
        # each factor as its unrotated base, the angle it starts from and its real bytes
        self.factors = [(f, start, amps) for (f, _, amps), start in factors]
        self.parity = (not self.per_vector and not varies
                       and all(parity for (_, parity, _), _ in factors))
        self.p0 = None
        if not (self.entangled and offset):
            self.p0 = _moduli([_rotated_amplitudes(f.amplitudes, start + np.zeros(1))
                               if amps is None else _start_rotation(amps, start)
                               for f, start, amps in self.factors])
            self.p0.flags.writeable = False
        self.frames0 = None  # frames(p0), kept read-only from qfi's first call on p0

    def probabilities(self, alphas: np.ndarray | None = None) -> np.ndarray:
        """Squared amplitude moduli p, shape (G, D), of the signal state at G angles.

        No angles means the _GRID angles, whose factor rotations
        _grid_rotations keeps across cells (for real bases).  One zero
        angle hands out p0 itself, by which qfi knows its kept frames
        apply; more zeros a copy per angle.
        """
        if self.entangled and (alphas is None or np.count_nonzero(self.offset + alphas)):
            raise ValueError("a bipartite probe that is no ProductState rotates at angle 0 only")
        if alphas is None:
            return _moduli([_grid_rotations(amps, start) for _, start, amps in self.factors])
        if not np.count_nonzero(alphas):
            return self.p0 if len(alphas) == 1 else self.p0.repeat(len(alphas), axis=0)
        return _moduli([_rotated_amplitudes(f.amplitudes, start + alphas)
                        for f, start, _ in self.factors])

    def qfi(self, noise: NoiseParams, T: float, alphas: np.ndarray | None = None,
            rows=slice(None)) -> np.ndarray:
        """Phase QFI at time T at each angle of alphas, or at the _GRID angles at rows.

        The one route to a QFI, which scan, scheme_qfi and
        optimize_rotation take.  T enters only through the kernel's
        variances: var2 = C(T), and var1 = C(T) under repeat,
        spin_echo_weights_variance(1, 0) under spin echo (its dm1 dm2 term
        cancels), 0 under collective noise, which takes the total
        excitation number as partition 2's weight.  Angles go in stacks of
        step.  Each of frames(p) takes the matrix sqrt(w_j w_k) K[j, k] as
        root * root * K on its occupied blocks ks and its spectral_qfi, or
        with parity the two sector matrices and parity_qfi; where each
        sector holds one block, their gap 2 w_k K[k, n - k] goes in as is,
        free of the cancellation of (1 + K) / 2 - (1 - K) / 2.

        K is taken once per occupied set and time: _collective_row's
        exp(-C(T) d^2 / 2) gathered by the blocks' distances (_distances),
        dephasing_kernel's floats, or that kernel for per-vector blocks.
        p0, handed out for one zero angle, takes the frames kept from its
        first use, so each later time of an unrotated probe pays for C(T),
        one exp over n + 1 distances, a gather and the spectral step.
        """
        var1, var2, row, kernels = _cell_kernels(
            self, noise, _require_real("time", T, "finite and nonnegative"))
        if alphas is None:  # the grid, taken once per cell (bound may have)
            grid = kernels.get(None)
            if grid is None:
                grid = kernels[None] = self.probabilities()
            stack = grid[rows]
        else:
            stack = np.asarray(alphas, float)
        out = np.empty(len(stack))
        for i in range(0, len(stack), self.step):
            part = stack[i:i + self.step]
            p = part if alphas is None else self.probabilities(part)
            if p is self.p0 and self.frames0 is None:
                self.frames0 = self.frames(p)
                for x in (x for frame in self.frames0 for x in frame[1:] if x is not None):
                    x.flags.writeable = False
            values = out[i:i + len(part)]
            for at, ks, root, g_bar, v in self.frames0 if p is self.p0 else self.frames(p):
                key = ks.tobytes()
                kernel = kernels.get(key)
                if kernel is None:
                    kernel = kernels[key] = self._kernel(ks, var1, var2, row, self.parity)
                if self.parity:
                    even, odd, mirrored = kernel
                    low = root[..., :len(odd)]
                    gap = 2.0 * low * low * mirrored[0, :len(odd)] if len(ks) == 1 else None
                    values[at] = parity_qfi(root[..., :, None] * root[..., None, :] * even,
                                            low[..., :, None] * low[..., None, :] * odd, g_bar, gap)
                else:
                    values[at] = spectral_qfi(root[..., :, None] * root[..., None, :] * kernel,
                                              g_bar, v)
        return out

    def bound(self, noise: NoiseParams, T: float, alphas: np.ndarray | None = None) -> np.ndarray:
        """An upper bound U on qfi at time T at each angle of alphas, the _GRID's if None.

        The QFI is four times the convex roof of the variance (Toth and
        Petz, Phys. Rev. A 87, 032324, 2013), so any decomposition of the
        dephased state bounds it.  With B = K^(1/2) the symmetric root of
        the kernel K on all blocks, B B^T = K, the dephased state is the
        mixture of the unnormalized vectors B[k_i, l] psi_i over l, so
        U = 4 sum_l (s2_l - s1_l^2 / s0_l) with s_j = (p g^j) @ (B o B)[k_i].
        With an all-ones kernel (T = 0) it is the pure QFI 4 Var(g), and
        with the identity kernel the steady-state QFI.
        """
        var1, var2, row, kernels = _cell_kernels(
            self, noise, _require_real("time", T, "finite and nonnegative"))
        mu, vectors = np.linalg.eigh(self._kernel(np.arange(self.nk), var1, var2, row))
        root = (vectors * np.sqrt(np.maximum(mu, 0.0))) @ vectors.T
        y, g, p = (root * root)[self.index], self.g, self.probabilities(alphas)
        if alphas is None:
            kernels[None] = p
        pg = p * g
        s0, s1, s2 = p @ y, pg @ y, (pg * g) @ y
        spread = s2 - np.divide(s1 * s1, s0, out=np.zeros(s0.shape), where=s0 > 0)
        return 4.0 * spread.sum(axis=-1)

    def _kernel(self, ks: np.ndarray, var1: float, var2: float, row: np.ndarray | None,
                parity: bool = False):
        """The kernel K on the blocks ks or, with parity (lower-half ks), (even, odd, mirrored)."""
        if row is None:
            return dephasing_kernel(self.m1[ks], self.g[ks], var1, var2)
        full = row[_distances(ks.tobytes(), self.nk - 1 if parity else -1)]
        if not parity:
            return full
        size, d = len(ks), np.count_nonzero(ks < self.mid)
        direct, mirrored = full[:, :size], full[:, size:]
        even = direct + mirrored
        if d < size:  # the middle block, last in ks, pairs with no mirror
            even[-1, :] = even[:, -1] = math.sqrt(2.0) * direct[:, -1]
            even[-1, -1] = direct[-1, -1]
        return even, direct[:d, :d] - mirrored[:d, :d], mirrored

    def frames(self, p: np.ndarray) -> list[tuple]:
        """The time-free frames of a stack p, shape (G, D): (rows, ks, root, g_bar, v) each.

        The frames are spectral_qfi's: the normalized blocks P_k psi / ||P_k psi||
        occupied in any state of the frame's rows of p, ks, with
        root = sqrt(w[ks]) for w_k = ||P_k psi||^2, and the mean g_bar[ks]
        and variance v[ks] of g in each block.  Both are taken about ref,
        so where g is constant on a block g_bar is exact and v is 0 (v =
        None if 0 on every block).  Where the blocks are the basis
        vectors, g_bar is g itself.  A state that leaves a block of its
        stack empty takes its own frame, so no value depends on the rest
        of the stack.  With parity, ks are lower-half blocks and g_bar
        holds those with an odd partner, the first len(odd) of them.
        """
        index, nk, mid = self.index, self.nk, self.mid
        if index.size == nk:  # index is arange(nk): w = p, g_bar = g and v = 0
            w, g_bar, v = p, self.g, None
        else:
            idx = index + nk * np.arange(len(p))[:, None] if p.size > index.size else index
            flat = idx.ravel()
            w = np.bincount(flat, p.ravel())
            occupied = w > 0

            def block_mean(x):
                return np.divide(np.bincount(flat, (p * x).ravel()), w, out=np.zeros(w.shape),
                                 where=occupied)

            mu = block_mean(self.dg)
            # the centered form is a sum of squares; E[g^2] - g_bar^2 can cancel below 0
            c = self.dg - mu[idx]
            shape = p.shape[:-1] + (nk,)
            v, w = (x.reshape(shape) for x in (block_mean(c * c), w))
            g_bar = self.ref + mu.reshape(shape)  # no frame takes an empty block
        if self.parity:  # the lower half holds every block or its mirror image
            w, g_bar = w[..., :mid + 1], g_bar[..., :mid + 1]
        occupied = w > 0
        union = occupied.any(axis=0)
        if len(occupied) == 1 or occupied[:, union].all():
            return [self._frame(slice(None), w, g_bar, v, union)]
        # a state on fewer blocks, as at theta = 0, takes its own frame
        full = occupied[:, union].all(axis=1)
        parts = [(slice(r, r + 1), occupied[r]) for r in np.flatnonzero(~full)]
        if full.any():
            parts.append((full, union))
        return [self._frame(rows, w[rows], g_bar if g_bar.ndim == 1 else g_bar[rows],
                            v if v is None else v[rows], blocks) for rows, blocks in parts]

    def _frame(self, rows, w, g_bar, v, blocks) -> tuple:
        ks = np.flatnonzero(blocks)
        # take keeps a stack C-ordered, so each frame meets BLAS as it does alone
        root = np.sqrt(np.take(w, ks, axis=-1))
        g_ks = ks[:np.count_nonzero(ks < self.mid)] if self.parity else ks
        return (rows, ks, root, np.take(g_bar, g_ks, axis=-1),
                np.take(v, ks, axis=-1) if v is not None and v.any() else None)

@functools.lru_cache(maxsize=1)
def _cell_kernels(setup: _ProbeSetup, noise: NoiseParams, T: float) -> tuple:
    """(var1, var2, row, kernels): what the qfi calls of setup's cell at time T share.

    The variances, the kernel by distance (None for per-vector
    blocks) and, filled by qfi, its kernel per occupied set and, under
    None, the grid's probabilities.  The next cell replaces it.
    """
    var2 = phase_variance_c(T, noise)
    if not setup.per_vector:
        return 0.0, var2, _collective_row(var2, setup.nk - 1), {}
    var1 = var2 if setup.kind is SchemeKind.DI_REPEAT \
        else spin_echo_weights_variance(1.0, 0.0, T, noise)
    return var1, var2, None, {}


@functools.lru_cache(maxsize=64)
def _distances(ks: bytes, n: int) -> np.ndarray:
    """|j - k| over the blocks ks (np.intp bytes), read-only: a collective kernel's gather index.

    With n >= 0 the columns go on to the mirror images n - k (parity).
    Set-ups, times and stacks on these blocks share an entry of s^2 or
    2 s^2 integers: at most 16.5 KB at n = 44, 1.1 MB over 64 entries,
    5.3 MB at n = 100.  di_dense's 4 050 cells of seed 1 use 31, 88 KB.
    """
    ks = np.frombuffer(ks, dtype=np.intp)
    index = np.abs(np.subtract.outer(ks, ks if n < 0 else np.concatenate([ks, n - ks])))
    index.flags.writeable = False
    return index


def _require_bipartite(kind: SchemeKind, basis) -> None:
    if kind is not SchemeKind.STANDARD and not isinstance(basis, BipartiteSymmetricBasis):
        raise ValueError(f"{kind.value} requires a bipartite probe")


def _probe_setup(probe: PureState, kind: SchemeKind, offset: float = 0.0) -> _ProbeSetup:
    """The set-up of any probe turned about y by offset, under kind, as scheme_qfi takes it."""
    _require_bipartite(kind, probe.basis)
    if isinstance(probe, ProductState) and kind in _PER_VECTOR_KINDS:
        # partition 2's factor in collective blocks with its total z-spin
        kind, probe = SchemeKind.STANDARD, probe.parts[1]
    product = isinstance(probe, ProductState)
    factors = [(_described(f.base), offset + f.angle) if isinstance(f, RotatedState)
               else (_described(f), offset) for f in (probe.parts if product else (probe,))]
    return _ProbeSetup(kind, probe.basis, product, factors, offset)


def _spec_setup(spec: ProbeSpec, kind: SchemeKind) -> _ProbeSetup:
    """The set-up scan and optimize_rotation take for spec: its unrotated probe under kind.

    Spin echo and repeat read a split probe's partition-2 factor as
    STANDARD reads it unsplit (_ProbeSetup), so both kinds and every split
    share STANDARD's set-up of it; partition 1's factor is still built,
    and refused, for each spec.
    """
    keys, offset = _factor_keys(spec)
    if len(keys) == 2 and kind in _PER_VECTOR_KINDS:
        _factor(*keys[0])
        return _signal_setup(SchemeKind.STANDARD, keys[1:], offset)
    return _signal_setup(kind, keys, offset)


@functools.lru_cache(maxsize=1024)
def _signal_setup(kind: SchemeKind, keys: tuple, offset: float) -> _ProbeSetup:
    """The _ProbeSetup of the signal state whose factors' _factor keys are keys, from offset.

    Two keys make a ProductState, one the state itself.  The key holds no
    alpha, spec, factor or kind the blocks do not read (spin echo and
    repeat on a split probe come as STANDARD on partition 2's factor), so
    every angle, time and split of a signal state shares an entry.  The
    4 050 di_dense cells of seed 1 take 637 set-ups and hit 3 413 times
    (2 424 with 64 entries).  An entry holds p0 (8 d bytes),
    the kept frames (at most 32 (n + 1) bytes) and about 2 KB of objects:
    at most 7.9 MB over 1024 entries at n <= 44 (d <= 529), 27 MB at
    n = 100.
    """
    factors = [_factor(*key) for key in keys]
    if len(factors) == 2:
        basis = BipartiteSymmetricBasis(*(f.basis.n for f, _, _ in factors))
    else:
        basis = factors[0][0].basis
        _require_bipartite(kind, basis)
    return _ProbeSetup(kind, basis, len(factors) == 2, [(f, offset) for f in factors], offset)


def scheme_qfi(probe: PureState, scheme: SchemeSpec, T: float) -> tuple[float, float]:
    """Phase and frequency QFI of a probe after evolving for time T.

    scan's route at angle 0 (_ProbeSetup.qfi): the dephased probe is
    diagonalized in the smallest orthonormal frame that holds it, without
    the dense density matrix.  Where the generator is constant on every
    block, as under STANDARD, a probe whose coherences between blocks have
    died reads exactly 0.0.  A probe from build_probe keeps its unrotated
    factors and angle, so it reads scan's value for its spec, bit for bit.
    """
    setup = _probe_setup(probe, scheme.kind)
    f_phase = float(setup.qfi(scheme.noise, T, np.zeros(1))[0])
    return f_phase, frequency_from_phase(f_phase, T)


# interior angles per refinement round: the next bracket spans two of the
# round's eight spacings, a quarter of the current one
_ROUND_ANGLES = 7


def optimize_rotation(spec: ProbeSpec, scheme: SchemeSpec, T: float) -> tuple[float, float]:
    """Maximize the phase QFI of spec's probe over the rotation angle alpha in [0, pi/2].

    spec.alpha is ignored: the search covers the whole range from the
    family's base state.  A family without a rotation (dfs_optimal) raises
    ValueError.  Uniform 201-point grid scan, then stacked refinement of the
    bracket around the best grid point: each round takes 7 equally spaced
    interior angles and keeps the neighbours of their first maximum,
    evaluating all but the centre where that is the last round's best
    angle bit for bit (a row's F does not depend on its stack), until the
    bracket is at most 1e-6 rad wide or a round reads one value at all 7
    angles (as a fully dephased landscape does, exactly 0 everywhere).
    Numerical ties, within 1e-9|F| + 1e-11 n^2 of the best value, resolve
    to the smallest angle; the result is never more than that window below
    the best grid value.  So where the first near-maximal grid angle is 0,
    the search stops after one round unless that round reads above F(0)
    plus its window: the round samples [0, pi/400] every pi/3200, and the
    tests check that no narrower peak beside 0 rises above that bound.

    Grid angles go alpha = 0 first, then in decreasing order of _ProbeSetup's
    bound U, the variance bound of one mixture over the kernel's symmetric
    root: the first batch is alpha = 0 and the angle of largest U.  After
    each batch, with f_max the best F so far and U_bar the larger of f_max
    and the largest U not yet visited, the search stops once the first
    angle i that is either visited with F >= f_max - window(f_max) or
    unvisited with U + window(U) >= f_max - window(f_max) is visited with
    F >= U_bar - window(U_bar).  f - window(f) rises with f, and no F
    exceeds U + window(U), so no angle before i is near-maximal; no F
    exceeds U beyond rounding, so the grid maximum is at most U_bar and i
    is near-maximal.  Thus i is the whole grid's first near-maximal angle.
    An unvisited angle with U + window(U) below f_max - window(f_max) can
    neither be i nor raise U_bar, so the next batch holds only the others,
    at most step of them: a prefix of the rest, as U decreases along it.
    Once they are visited the rule holds.
    """
    if spec.family is ProbeFamily.DFS_OPTIMAL:
        raise ValueError("dfs_optimal has no rotation parameter")
    setup, noise = _spec_setup(spec, scheme.kind), scheme.noise

    # tie window: relative part for flat optima, absolute part for landscapes
    # that have fully decohered to numerical-noise level
    def window(f: float) -> float:
        return 1e-9 * abs(f) + 1e-11 * spec.n * spec.n

    upper = setup.bound(noise, T)
    reach = upper + window(upper)  # no F above it
    # alpha = 0 wins every tie, so it goes first, the rest by decreasing bound
    order = np.concatenate([[0], 1 + np.argsort(-upper[1:], kind="stable")])
    values = np.full(len(_GRID), -math.inf)  # until visited
    start, size = 0, 2  # alpha = 0 and the largest bound
    while start < len(order):  # the whole grid visited, the rule holds with t_hi = t_lo
        rows = np.sort(order[start:start + size])
        values[rows] = setup.qfi(noise, T, rows=rows)
        start += size
        rest = order[start:]
        f_max = float(values.max())
        u_bar = max(f_max, float(upper[rest].max(initial=-math.inf)))
        # an infinite bound leaves t_hi nan, which no F reaches
        t_lo, t_hi = f_max - window(f_max), u_bar - window(u_bar)
        # angles that may still lie within the grid maximum's window
        best = int(np.argmax(np.where(values > -math.inf, values, reach) >= t_lo))
        if values[best] >= t_hi:
            break  # the first of them is near-maximal, whatever the rest hold
        # the angles not ruled out lead the rest; no other can be that first
        # angle or raise U_bar (a nan t_lo rules out none)
        size = min(setup.step, int(np.count_nonzero(~(reach[rest] < t_lo))))
    a_ref, f_ref = _GRID[best], values[best]
    left, right = _GRID[max(best - 1, 0)], _GRID[min(best + 1, len(_GRID) - 1)]
    # alpha = 0 wins every tie, so there only a first round above F(0)'s window
    # can move the result; later rounds would look for a narrower peak
    settled = values[0] + window(values[0]) if best == 0 else -math.inf
    while right - left > 1e-6:
        points = np.linspace(left, right, _ROUND_ANGLES + 2)
        angles = points[1:-1]
        # the centre is mostly the last best angle, bit for bit, whose F is known
        inner = np.full(_ROUND_ANGLES, f_ref)
        fresh = angles != a_ref
        inner[fresh] = setup.qfi(noise, T, angles[fresh])
        i = int(np.argmax(inner))  # first maximum
        a_ref, f_ref, left, right = points[i + 1], inner[i], points[i], points[i + 2]
        if inner[i] == inner.min() or inner[i] <= settled:
            break  # a flat round has no maximum to narrow down; 0 is settled
        settled = -math.inf  # only the first round can settle 0

    # the grid point before best is below f_max's window, so it is no candidate
    candidates = sorted([(float(_GRID[best]), float(values[best])), (float(a_ref), float(f_ref))])
    f_best = max(v for _, v in candidates)
    # the smallest angle within the window; the one holding f_best always is
    return next((a, v) for a, v in candidates if v >= f_best - window(f_best))


def scan(scheme: SchemeSpec, probes: list[ProbeSpec], times,
         optimize_alpha: bool = False) -> list[ScanResult]:
    """Evaluate every (probe, time) pair, probe-major then time-minor.

    Domain errors become flagged NaN rows instead of aborting the whole
    scan; a time that is no finite real number raises ValueError.  A
    group, the probes that differ only in alpha, takes one set-up
    (_spec_setup) and one call per time: a _ProbeSetup.qfi stack of their
    angles, bit for bit the one-angle values, or, under optimize_alpha,
    where each probe is a group and its alpha is ignored,
    optimize_rotation.  A call's error is every cell's, and a set-up's
    every cell's at every time: no refusal depends on alpha, only on the
    kind, T, family or split.
    """
    times = tuple(_require_real("times", t) for t in times)
    if not probes or not times:
        raise ValueError("scan needs at least one probe and one time")
    groups: dict = {}  # probe indices by everything but alpha
    for i, spec in enumerate(probes):
        key = i if optimize_alpha else (spec.family, spec.n, spec.n1, spec.k1, spec.k2)
        groups.setdefault(key, []).append(i)
    rows = {}  # by (probe index, time index)
    for members in groups.values():
        spec, alphas = probes[members[0]], [probes[i].alpha for i in members]
        stack = np.array(alphas, dtype=float)
        setup = refused = None
        if not optimize_alpha:
            try:  # one set-up for all times; its error is every cell's
                setup = _spec_setup(spec, scheme.kind)
            except ValueError as exc:
                refused = str(exc)
        for j, T in enumerate(times):
            error = refused
            if error is None:
                try:
                    if optimize_alpha:
                        cells = [optimize_rotation(spec, scheme, T)]
                    else:
                        cells = zip(alphas, setup.qfi(scheme.noise, T, stack).tolist())
                    cells = [(a, f, frequency_from_phase(f, T), None) for a, f in cells]
                except ValueError as exc:
                    error = str(exc)
            if error is not None:
                cells = [(a, math.nan, math.nan, error) for a in alphas]
            for i, (alpha, f_phase, f_freq, error) in zip(members, cells):
                p = probes[i]  # its own counts: an int and a numpy int share a group
                rows[i, j] = ScanResult(scheme.kind.value, p.family.value, p.n, p.n1, p.k1, p.k2,
                                        alpha, T, f_phase, f_freq, optimize_alpha, error)
    return [rows[i, j] for i in range(len(probes)) for j in range(len(times))]
