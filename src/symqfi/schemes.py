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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .collective_basis import (
    BipartiteSymmetricBasis,
    GeneratorLabel,
    PureState,
    dicke_state,
    generator,
    ghz_state,
    plus_product_state,
    rotate_y,
    tensor_bipartite,
)
from .dephasing import NoiseParams, NoiseVariant, dephasing_kernel
from .qfi import frequency_from_phase, spectral_qfi


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
        if n < 1:
            raise ValueError(f"need at least one qubit, got n={n}")
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


_VARIANT_FOR_KIND = {
    SchemeKind.DI_SPIN_ECHO: NoiseVariant.SPIN_ECHO,
    SchemeKind.DI_REPEAT: NoiseVariant.INDEPENDENT_REPEAT,
}


def _finite_times(times) -> tuple[float, ...]:
    times = tuple(float(t) for t in times)
    bad = [t for t in times if not math.isfinite(t)]
    if bad:
        raise ValueError(f"times must be finite, got {bad[0]!r}")
    return times


@dataclass(frozen=True)
class SchemeSpec:
    """Estimation scheme: kind, noise parameters, and a default time grid."""

    kind: SchemeKind
    noise: NoiseParams
    times: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "times", _finite_times(self.times))


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


def build_probe(spec: ProbeSpec) -> PureState:
    """Construct the probe state selected by spec."""
    f, n, n1, alpha = spec.family, spec.n, spec.n1, spec.alpha
    if f is ProbeFamily.PRODUCT_PLUS:
        if n1 is None:
            return rotate_y(plus_product_state(n), alpha)
        return tensor_bipartite(rotate_y(plus_product_state(n1), alpha),
                                rotate_y(plus_product_state(n - n1), alpha))
    if f is ProbeFamily.GHZ:
        return rotate_y(ghz_state(n), alpha)
    if f is ProbeFamily.DICKE_SYMMETRIC:
        return rotate_y(dicke_state(n, n // 2), math.pi / 2 + alpha)
    if f is ProbeFamily.BSD:
        return tensor_bipartite(rotate_y(dicke_state(n1, spec.k1), math.pi / 2 + alpha),
                                rotate_y(dicke_state(n - n1, spec.k2), math.pi / 2 + alpha))
    if f is ProbeFamily.GHZ_BIPARTITE:
        return tensor_bipartite(rotate_y(ghz_state(n1), alpha),
                                rotate_y(ghz_state(n - n1), alpha))
    if f is ProbeFamily.DFS_OPTIMAL:
        basis = BipartiteSymmetricBasis(n1, n - n1)
        amps = np.zeros(basis.dimension, dtype=complex)
        n2 = n - n1
        amps[0 * (n2 + 1) + n2] = 1.0 / math.sqrt(2.0)  # (q, r) = (0, n2)
        amps[n1 * (n2 + 1) + 0] = 1.0 / math.sqrt(2.0)  # (q, r) = (n1, 0)
        return PureState(basis, amps)
    raise ValueError(f"unknown probe family {f!r}")


# A second Schmidt coefficient at most this large is rounding in a product
# state: numpy.kron of two unit vectors leaves it near 1e-16.
PRODUCT_TOL = 1e-13


def _block_frame(amps: np.ndarray, k: np.ndarray, g: np.ndarray, T: float,
                 noise: NoiseParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collectively dephased probe in the frame of its excitation blocks.

    amps are nonnegative amplitudes, k the total excitation number and g
    the generator's diagonal on each basis vector.  Collective dephasing
    scales P_j rho P_k by exp(-C(T)(j - k)^2 / 2), so the state stays in
    the span of the normalized blocks P_k psi / ||P_k psi||, with the
    matrix sqrt(w_j w_k) exp(-C(T)(j - k)^2 / 2), w_k = ||P_k psi||^2.
    g maps block k into itself, with mean g_bar[k] and variance v[k] in it.
    """
    p = amps * amps
    w = np.bincount(k, p)
    occupied = w > 0
    g_bar = np.divide(np.bincount(k, p * g), w, out=np.zeros_like(w), where=occupied)
    # the centered form is a sum of squares; E[g^2] - g_bar^2 can cancel below 0
    v = np.divide(np.bincount(k, p * (g - g_bar[k]) ** 2), w, out=np.zeros_like(w),
                  where=occupied)
    ks = np.flatnonzero(occupied)
    root = np.sqrt(w[ks])
    return np.outer(root, root) * dephasing_kernel(0.0, ks, T, noise), g_bar[ks], v[ks]


def _variant_frame(amps: np.ndarray, basis: BipartiteSymmetricBasis, g: np.ndarray,
                   T: float, noise: NoiseParams, variant: NoiseVariant):
    """Probe under spin-echo or repeat dephasing, in the smallest exact frame.

    Both kernels factorize into one factor per partition, and partition 2's
    is exp(-C(T) dm2^2 / 2): for spin echo the dm1 dm2 term of
    spin_echo_weights_variance cancels and 2 C(T/2) + the cross covariance
    term add up to C(T).  A product probe therefore carries the QFI of its
    partition-2 factor under collective dephasing at C(T).  Any other probe
    is taken in the frame of its support.
    """
    _, s, vt = np.linalg.svd(amps.reshape(basis.n1 + 1, basis.n2 + 1))
    if s[1] <= PRODUCT_TOL:
        r = np.arange(basis.n2 + 1)
        return _block_frame(np.abs(vt[0]), r, r - basis.n2 / 2, T, noise)
    support = np.flatnonzero(amps)
    kernel = dephasing_kernel(basis.partition1_weights()[support],
                              basis.partition2_weights()[support], T, noise, variant)
    a = amps[support]
    return np.outer(a, a) * kernel, g[support], None


def scheme_qfi(probe: PureState, scheme: SchemeSpec, T: float) -> tuple[float, float]:
    """Phase and frequency QFI of a probe after evolving for time T.

    The dephased probe is diagonalized in the smallest orthonormal frame
    that holds it, without building the dense density matrix: the
    normalized total-excitation blocks for STANDARD and DI_IDEAL (the
    occupied Dicke states on an unsplit ensemble), partition 2's Dicke
    states for DI_SPIN_ECHO and DI_REPEAT on a product probe, and the
    probe's support otherwise.  Amplitudes enter by modulus only: a diagonal
    phase commutes with the noise and with the generator, so it cannot
    change the QFI.
    """
    basis, kind = probe.basis, scheme.kind
    if kind is SchemeKind.STANDARD:
        label = GeneratorLabel.SZ_TOTAL
    elif isinstance(basis, BipartiteSymmetricBasis):
        label = GeneratorLabel.SZ_PARTITION2
    else:
        raise ValueError(f"{kind.value} requires a bipartite probe")
    g = generator(basis, label).diagonal
    amps = np.abs(probe.amplitudes)
    if kind in _VARIANT_FOR_KIND:
        frame = _variant_frame(amps, basis, g, T, scheme.noise, _VARIANT_FOR_KIND[kind])
    else:
        frame = _block_frame(amps, basis.excitations(), g, T, scheme.noise)
    f_phase = spectral_qfi(*frame)
    return f_phase, frequency_from_phase(f_phase, T)


def _golden_section_max(f, lo: float, hi: float, tol: float = 1e-6) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def optimize_rotation(family: ProbeFamily, n: int, scheme: SchemeSpec, T: float,
                      grid: int = 201, n1: int | None = None,
                      k1: int | None = None, k2: int | None = None) -> tuple[float, float]:
    """Maximize the phase QFI over the rotation angle alpha in [0, pi/2].

    Uniform grid scan followed by golden-section refinement (1e-6 rad)
    around the best grid point; numerical ties resolve to the smallest
    angle.
    """
    if family is ProbeFamily.DFS_OPTIMAL:
        raise ValueError("dfs_optimal has no rotation parameter")
    if grid < 2:
        raise ValueError(f"grid must have at least 2 points, got {grid}")

    def f_of(alpha: float) -> float:
        spec = ProbeSpec(family, n, n1=n1, k1=k1, k2=k2, alpha=alpha)
        return scheme_qfi(build_probe(spec), scheme, T)[0]

    # tie window: relative part for flat optima, absolute part for landscapes
    # that have fully decohered to numerical-noise level
    def window(f: float) -> float:
        return 1e-9 * abs(f) + 1e-11 * n * n

    alphas = np.linspace(0.0, math.pi / 2, grid)
    values = np.array([f_of(a) for a in alphas])
    f_max = float(values.max())
    best = int(np.argmax(values >= f_max - window(f_max)))  # first near-maximal point
    lo = alphas[max(best - 1, 0)]
    hi = alphas[min(best + 1, grid - 1)]
    a_ref, f_ref = _golden_section_max(f_of, float(lo), float(hi))

    candidates = sorted([(float(lo), float(values[max(best - 1, 0)])),
                         (float(alphas[best]), float(values[best])),
                         (a_ref, f_ref)])
    f_best = max(v for _, v in candidates)
    for a, v in candidates:
        if v >= f_best - window(f_best):
            return a, v
    return candidates[-1]


def _evaluate_cell(scheme: SchemeSpec, probe: ProbeSpec, T: float,
                   optimize_alpha: bool, alpha_grid: int) -> ScanResult:
    base = dict(scheme=scheme.kind.value, family=probe.family.value, n=probe.n,
                n1=probe.n1, k1=probe.k1, k2=probe.k2)
    try:
        if optimize_alpha:
            alpha, f_phase = optimize_rotation(probe.family, probe.n, scheme, T,
                                               grid=alpha_grid, n1=probe.n1,
                                               k1=probe.k1, k2=probe.k2)
            f_freq = frequency_from_phase(f_phase, T)
        else:
            alpha = probe.alpha
            f_phase, f_freq = scheme_qfi(build_probe(probe), scheme, T)
        return ScanResult(**base, alpha=alpha, T=T, f_phase=f_phase, f_freq=f_freq,
                          alpha_optimized=optimize_alpha)
    except ValueError as exc:
        return ScanResult(**base, alpha=probe.alpha, T=T, f_phase=math.nan,
                          f_freq=math.nan, alpha_optimized=optimize_alpha, error=str(exc))


def scan(scheme: SchemeSpec, probes: list[ProbeSpec], times=None,
         optimize_alpha: bool = False, alpha_grid: int = 201) -> list[ScanResult]:
    """Evaluate every (probe, time) pair, probe-major then time-minor.

    Domain errors in single cells become flagged NaN rows instead of
    aborting the whole scan; a non-finite time raises ValueError.
    """
    times = scheme.times if times is None else _finite_times(times)
    if not probes or not times:
        raise ValueError("scan needs at least one probe and one time")
    return [_evaluate_cell(scheme, probe, T, optimize_alpha, alpha_grid)
            for probe in probes for T in times]
