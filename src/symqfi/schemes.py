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

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .collective_basis import (
    BipartiteSymmetricBasis,
    ProductState,
    PureState,
    _require_integer,
    _rotated,
    dicke_state,
    ghz_state,
    plus_product_state,
    rotate_y,
)
from .dephasing import (NoiseParams, dephasing_kernel, phase_variance_c,
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
    the collective rotation applied on top of the family's base state.
    """

    family: ProbeFamily
    n: int
    n1: int | None = None
    k1: int | None = None
    k2: int | None = None
    alpha: float = 0.0

    def __post_init__(self):
        f, n, n1 = self.family, self.n, self.n1
        _require_integer("qubit count", n)
        for name in ("n1", "k1", "k2"):
            if getattr(self, name) is not None:
                _require_integer(name, getattr(self, name))
        if n < 1:
            raise ValueError(f"need at least one qubit, got n={n}")
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, numbers.Real):
            raise ValueError(f"rotation angle must be a real number, got alpha={self.alpha!r}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"rotation angle must be finite, got alpha={self.alpha!r}")
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


def _rotatable_parts(spec: ProbeSpec) -> tuple[PureState, float]:
    """Unrotated probe of a rotatable family and the angle its rotation starts from.

    A split family's probe is a ProductState with one factor per partition;
    spec's probe is this one rotated by offset + spec.alpha.
    """
    f, n, n1 = spec.family, spec.n, spec.n1
    sizes = (n,) if n1 is None else (n1, n - n1)
    if f is ProbeFamily.PRODUCT_PLUS:
        parts, offset = [plus_product_state(m) for m in sizes], 0.0
    elif f is ProbeFamily.GHZ or f is ProbeFamily.GHZ_BIPARTITE:
        parts, offset = [ghz_state(m) for m in sizes], 0.0
    elif f is ProbeFamily.DICKE_SYMMETRIC:
        parts, offset = [dicke_state(n, n // 2)], math.pi / 2
    elif f is ProbeFamily.BSD:
        parts, offset = [dicke_state(n1, spec.k1), dicke_state(n - n1, spec.k2)], math.pi / 2
    else:
        raise ValueError(f"{f.value} has no rotation parameter")
    return (parts[0] if len(parts) == 1 else ProductState(*parts)), offset


def build_probe(spec: ProbeSpec) -> PureState:
    """Construct the probe state selected by spec."""
    if spec.family is ProbeFamily.DFS_OPTIMAL:
        n1, n2 = spec.n1, spec.n - spec.n1
        basis = BipartiteSymmetricBasis(n1, n2)
        amps = np.zeros(basis.dimension, dtype=complex)
        amps[0 * (n2 + 1) + n2] = 1.0 / math.sqrt(2.0)  # (q, r) = (0, n2)
        amps[n1 * (n2 + 1) + 0] = 1.0 / math.sqrt(2.0)  # (q, r) = (n1, 0)
        return PureState(basis, amps)
    probe, offset = _rotatable_parts(spec)
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


def _cell(probe: PureState, scheme: SchemeSpec, T: float, rotations: bool = False
          ) -> tuple[PureState, Callable[[np.ndarray], float | np.ndarray]]:
    """Per-cell set-up: the state whose QFI scheme measures, and its QFI.

    The scheme kind picks the signal state, its generator diagonal g and
    dephasing_kernel's partition variances: var2 = C(T) always, and var1 =
    C(T) under repeat, spin_echo_weights_variance(1, 0) under spin echo
    (its dm1 dm2 term cancels) and 0 under collective noise, whose kernel
    takes the total excitation number as partition 2's weight.  Spin echo
    and repeat kernels thus factorize per partition with partition 2's
    factor exp(-C(T) dm2^2 / 2), so a ProductState carries the QFI of its
    partition-2 factor, with its total z-spin, under collective dephasing.
    The kernel picks the blocks: collective dephasing scales P_j rho P_k by
    exp(-C(T)(j - k)^2 / 2) for the total-excitation projectors P_k, and
    spin echo and repeat take one block per basis vector.

    qfi maps squared amplitude moduli p, shape (D,) or a stack (G, D), to
    the QFI of spectral_qfi frames: the normalized blocks P_k psi / ||P_k psi||
    occupied in any state of the stack, the matrix sqrt(w_j w_k) kernel[j, k]
    with w_k = ||P_k psi||^2, and the mean g_bar[k] and variance v[k] of g in
    block k.  Both are taken about g at one entry of the block, so where g
    is constant on a block g_bar is exact and v is 0 (v = None if 0 on every
    block).  A block empty in one state of a stack is a zero row and column.

    With rotations, p holds probabilities of probe rotated about y.  Where
    the frames are collective blocks with v = None and probe is an
    eigenstate of the collective pi rotation about y, so is every rotation
    of it: w_k = w_(n-k), and each frame splits into the sectors of the
    reflection k -> n - k, which takes G to -G (Cantoni and Butler, Linear
    Algebra Appl. 13, 275, 1976): the even one spanned by
    (e_k + e_(n-k)) / sqrt(2), k < n/2, and e_(n/2), the odd one by
    (e_k - e_(n-k)) / sqrt(2).  parity_qfi takes them, the matrices
    sqrt(w_j w_k) (K[j, k] +- K[j, n - k]) from the lower half of w.
    """
    kind, noise = scheme.kind, scheme.noise
    if kind is not SchemeKind.STANDARD and not isinstance(probe.basis, BipartiteSymmetricBasis):
        raise ValueError(f"{kind.value} requires a bipartite probe")
    state, var2 = probe, phase_variance_c(T, noise)
    per_vector = kind in (SchemeKind.DI_SPIN_ECHO, SchemeKind.DI_REPEAT)
    if per_vector and isinstance(probe, ProductState):
        state, per_vector = probe.parts[1], False
    basis = state.basis
    g = basis.z_weights() if kind is SchemeKind.STANDARD or state is not probe \
        else basis.partition2_weights()

    # the blocks, and the partition weights and variances the kernel sees on each
    if per_vector:  # one block per basis vector; g is partition 2's weight
        index, m1, m2 = np.arange(basis.dimension), basis.partition1_weights(), g
        var1 = var2 if kind is SchemeKind.DI_REPEAT \
            else spin_echo_weights_variance(1.0, 0.0, T, noise)
    else:  # one block per total excitation number k, collective noise on k
        index, m1, m2 = basis.excitations(), np.zeros(basis.n + 1), np.arange(basis.n + 1)
        var1 = 0.0
    nk = len(m2)
    ref = np.empty(nk)
    ref[index] = g  # g at one entry of each block
    dg = g - ref[index]
    parity = rotations and not per_vector and not dg.any() and _parity_eigenstate(state)
    mid = nk // 2  # an eigenstate has even n: block n/2 is its own mirror image
    kernels = {}  # kernel on each set of occupied blocks; a stack's chunks share them

    def sectors(ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        both = np.concatenate([ks, nk - 1 - ks])  # the blocks and their mirror images
        kernel = dephasing_kernel(m1[both], m2[both], var1, var2)
        size, d = len(ks), np.count_nonzero(ks < mid)
        direct, mirrored = kernel[:size, :size], kernel[:size, size:]
        even = direct + mirrored
        if d < size:  # the middle block, last in ks, pairs with no mirror
            even[-1, :] = even[:, -1] = math.sqrt(2.0) * direct[:, -1]
            even[-1, -1] = direct[-1, -1]
        return even, direct[:d, :d] - mirrored[:d, :d]

    def qfi(p: np.ndarray):
        if index.size == nk:  # index is arange(nk): w = p, g_bar = g and v = 0
            w, g_bar, v = p, np.where(p > 0, g, 0.0), None
        else:
            idx = index + nk * np.arange(len(p))[:, None] if p.size > index.size else index
            flat = idx.ravel()
            w = np.bincount(flat, p.ravel())
            occupied = w > 0

            def block_mean(x):
                return np.divide(np.bincount(flat, (p * x).ravel()), w, out=np.zeros(w.shape),
                                 where=occupied)

            mu = block_mean(dg)
            # the centered form is a sum of squares; E[g^2] - g_bar^2 can cancel below 0
            c = dg - mu[idx]
            shape = p.shape[:-1] + (nk,)
            v, w, occupied = (x.reshape(shape) for x in (block_mean(c * c), w, occupied))
            # g_bar stays 0 on a block that is empty in one state of a stack
            g_bar = np.add(ref, mu.reshape(shape), out=np.zeros(shape), where=occupied)
        if parity:  # the lower half holds every block or its mirror image
            w, g_bar = w[..., :mid + 1], g_bar[..., :mid + 1]
        ks = np.flatnonzero((w > 0).reshape(-1, w.shape[-1]).any(axis=0))
        # take keeps a stack C-ordered, so each frame meets BLAS as it does alone
        root = np.sqrt(np.take(w, ks, axis=-1))
        key = ks.tobytes()
        if key not in kernels:
            kernels[key] = sectors(ks) if parity else dephasing_kernel(m1[ks], m2[ks], var1, var2)
        if parity:
            even, odd = kernels[key]
            d = len(odd)
            return parity_qfi(root[..., :, None] * root[..., None, :] * even,
                              root[..., :d, None] * root[..., None, :d] * odd,
                              np.take(g_bar, ks[:d], axis=-1))
        return spectral_qfi(root[..., :, None] * root[..., None, :] * kernels[key],
                            np.take(g_bar, ks, axis=-1),
                            np.take(v, ks, axis=-1) if v is not None and v.any() else None)

    return state, qfi


def scheme_qfi(probe: PureState, scheme: SchemeSpec, T: float) -> tuple[float, float]:
    """Phase and frequency QFI of a probe after evolving for time T.

    The dephased probe is diagonalized in the smallest orthonormal frame
    that holds it, without building the dense density matrix: the scheme
    kind picks the kernel, and the kernel picks the frame's blocks (see
    _cell).  Where the generator is constant on every block, as under
    STANDARD, a probe whose coherences between blocks have died reads
    exactly 0.0.  Amplitudes enter by modulus only: a diagonal phase
    commutes with the noise and with the generator, so it cannot change
    the QFI.
    """
    state, qfi = _cell(probe, scheme, T)
    amps = np.abs(state.amplitudes)
    f_phase = qfi(amps * amps)
    return f_phase, frequency_from_phase(f_phase, T)


# largest stack G * d^2 of frame entries evaluated at once (128 KiB per array)
_CHUNK_ENTRIES = 2 ** 14


def _rotation_qfi(spec: ProbeSpec, scheme: SchemeSpec,
                  T: float) -> Callable[[np.ndarray], np.ndarray]:
    """Phase QFI of spec's probe at every rotation angle of an array, for one cell.

    Each factor goes through _rotated, as in rotate_y, and the product
    amplitudes are squared as scheme_qfi squares them.  Every rotatable
    probe is a product state and stays one, so _cell's set-up for the
    unrotated probe serves all G angles, whose frames go to spectral_qfi,
    or in the parity sectors to parity_qfi, as one stack.  scan evaluates
    a single angle here too, so a value is scan's bit for bit unless the
    stack pads that angle's frame with blocks occupied only at other angles
    (alpha = 0 of a GHZ probe).
    """
    probe, offset = _rotatable_parts(spec)
    state, qfi = _cell(probe, scheme, T, rotations=True)
    parts = state.parts if isinstance(state, ProductState) else (state,)
    # the frame of a rotatable probe holds at most its n + 1 excitation blocks
    step = max(1, _CHUNK_ENTRIES // (state.basis.n + 1) ** 2)

    def probabilities(theta: np.ndarray) -> np.ndarray:
        amps = [_rotated(part.amplitudes.real, theta) for part in parts]
        if len(amps) == 2:
            amps = [(amps[0][:, :, None] * amps[1][:, None, :]).reshape(len(theta), -1)]
        return amps[0] * amps[0]

    def evaluate(alphas: np.ndarray) -> np.ndarray:
        theta = offset + np.asarray(alphas, dtype=float)
        return np.concatenate([qfi(probabilities(theta[i:i + step]))
                               for i in range(0, len(theta), step)])

    return evaluate


# angles of the uniform grid the search starts from
_GRID_ANGLES = 201
# interior angles per refinement round: the next bracket spans two of the
# round's eight spacings, a quarter of the current one
_ROUND_ANGLES = 7


def optimize_rotation(spec: ProbeSpec, scheme: SchemeSpec, T: float) -> tuple[float, float]:
    """Maximize the phase QFI of spec's probe over the rotation angle alpha in [0, pi/2].

    spec.alpha is ignored: the search covers the whole range from the
    family's base state.  A family without a rotation (dfs_optimal) raises
    ValueError.  Uniform 201-point grid scan, then stacked refinement of the
    bracket around the best grid point: each round evaluates 7 equally
    spaced interior angles in one call and keeps the neighbours of their
    first maximum, until the bracket is at most 1e-6 rad wide or a round
    reads one value at all 7 angles (as a fully dephased landscape does,
    exactly 0 everywhere).  Numerical ties, within 1e-9|F| + 1e-11 n^2 of
    the best value, resolve to the smallest angle; the result is never more
    than that window below the best grid value.  So where the first
    near-maximal grid angle is 0, the search stops after one round unless
    that round reads above F(0) plus its window: the round samples
    [0, pi/400] every pi/3200, and the tests check that no narrower peak
    beside 0 rises above that bound.
    """
    evaluate = _rotation_qfi(spec, scheme, T)

    # tie window: relative part for flat optima, absolute part for landscapes
    # that have fully decohered to numerical-noise level
    def window(f: float) -> float:
        return 1e-9 * abs(f) + 1e-11 * spec.n * spec.n

    alphas = np.linspace(0.0, math.pi / 2, _GRID_ANGLES)
    values = evaluate(alphas)
    f_max = float(values.max())
    best = int(np.argmax(values >= f_max - window(f_max)))  # first near-maximal point
    a_ref, f_ref = alphas[best], values[best]
    left, right = alphas[max(best - 1, 0)], alphas[min(best + 1, len(alphas) - 1)]
    # alpha = 0 wins every tie, so there only a first round above F(0)'s window
    # can move the result; later rounds would look for a narrower peak
    settled = values[0] + window(values[0]) if best == 0 else -math.inf
    while right - left > 1e-6:
        points = np.linspace(left, right, _ROUND_ANGLES + 2)
        inner = evaluate(points[1:-1])
        i = int(np.argmax(inner))  # first maximum
        a_ref, f_ref, left, right = points[i + 1], inner[i], points[i], points[i + 2]
        if inner[i] == inner.min() or inner[i] <= settled:
            break  # a flat round has no maximum to narrow down; 0 is settled
        settled = -math.inf  # only the first round can settle 0

    # the grid point before best is below f_max's window, so it is no candidate
    candidates = sorted([(float(alphas[best]), float(values[best])), (float(a_ref), float(f_ref))])
    f_best = max(v for _, v in candidates)
    # the smallest angle within the window; the one holding f_best always is
    return next((a, v) for a, v in candidates if v >= f_best - window(f_best))


def _evaluate_cell(scheme: SchemeSpec, probe: ProbeSpec, T: float,
                   optimize_alpha: bool) -> ScanResult:
    base = dict(scheme=scheme.kind.value, family=probe.family.value, n=probe.n,
                n1=probe.n1, k1=probe.k1, k2=probe.k2)
    try:
        alpha = probe.alpha
        if optimize_alpha:
            alpha, f_phase = optimize_rotation(probe, scheme, T)
        elif probe.family is ProbeFamily.DFS_OPTIMAL:
            f_phase = scheme_qfi(build_probe(probe), scheme, T)[0]
        else:  # the optimizer's evaluator, at the one angle
            f_phase = float(_rotation_qfi(probe, scheme, T)(np.array([alpha]))[0])
        f_freq = frequency_from_phase(f_phase, T)
        return ScanResult(**base, alpha=alpha, T=T, f_phase=f_phase, f_freq=f_freq,
                          alpha_optimized=optimize_alpha)
    except ValueError as exc:
        return ScanResult(**base, alpha=probe.alpha, T=T, f_phase=math.nan,
                          f_freq=math.nan, alpha_optimized=optimize_alpha, error=str(exc))


def scan(scheme: SchemeSpec, probes: list[ProbeSpec], times,
         optimize_alpha: bool = False) -> list[ScanResult]:
    """Evaluate every (probe, time) pair, probe-major then time-minor.

    Domain errors in single cells become flagged NaN rows instead of
    aborting the whole scan; a non-finite time raises ValueError.  With
    optimize_alpha, each probe's alpha is ignored and optimize_rotation
    picks the angle per cell.
    """
    times = tuple(float(t) for t in times)
    bad = [t for t in times if not math.isfinite(t)]
    if bad:
        raise ValueError(f"times must be finite, got {bad[0]!r}")
    if not probes or not times:
        raise ValueError("scan needs at least one probe and one time")
    return [_evaluate_cell(scheme, probe, T, optimize_alpha)
            for probe in probes for T in times]
