"""Collective Gaussian phase-noise channels and their steady-state limit.

The noise is a fluctuating level splitting, identical for all qubits, with
zero mean and an exponentially decaying autocorrelation of correlation time
tau_c (Ornstein-Uhlenbeck statistics).  Averaging over the Gaussian phase
accumulated up to time T multiplies every density-matrix element between
basis vectors of z-weights m and m' by exp[-(m - m')^2 C(T) / 2], with

    C(T) = (gamma_delta_b * tau_c)^2 * (exp(-T/tau_c) + T/tau_c - 1).

C(T) is normalized so that the phase collected with a uniform unit weight
over [0, T] has variance exactly C(T); all channel variants below share
that normalization.  As T grows, every coherence between different total
excitation numbers dies and the channel approaches the block projection
implemented exactly by :func:`steady_state`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .collective_basis import BipartiteSymmetricBasis, StateMatrix


@dataclass(frozen=True)
class NoiseParams:
    """Collective phase-noise parameters.

    gamma_delta_b: fluctuation strength as an angular frequency (rad/s).
    tau_c: correlation time of the fluctuations (s).
    """

    gamma_delta_b: float
    tau_c: float

    def __post_init__(self):
        for name, value in (("gamma_delta_b", self.gamma_delta_b), ("tau_c", self.tau_c)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be strictly positive and finite, got {value!r}")
        scale = self.gamma_delta_b * self.tau_c
        if not math.isfinite(scale * scale):
            raise ValueError(f"(gamma_delta_b * tau_c)^2 overflows: gamma_delta_b="
                             f"{self.gamma_delta_b!r}, tau_c={self.tau_c!r}")


class NoiseVariant(Enum):
    IDEAL_COLLECTIVE = "ideal_collective"
    SPIN_ECHO = "spin_echo"
    INDEPENDENT_REPEAT = "independent_repeat"


def _exp_decay_remainder(x: float) -> float:
    """exp(-x) + x - 1, evaluated without cancellation for small x >= 0."""
    if x < 1e-3:
        # x^2/2 * (1 - x/3 + x^2/12 - x^3/60 + x^4/360), next term ~ x^5/2520
        return 0.5 * x * x * (1.0 + x * (-1.0 / 3 + x * (1.0 / 12 + x * (-1.0 / 60 + x / 360))))
    return math.expm1(-x) + x


def _check_time(T: float) -> None:
    if not (math.isfinite(T) and T >= 0):
        raise ValueError(f"time must be finite and nonnegative, got {T!r}")


def phase_variance_c(T: float, p: NoiseParams) -> float:
    """Variance C(T) of the collectively accumulated noise phase at time T."""
    _check_time(T)
    c = (p.gamma_delta_b * p.tau_c) ** 2 * _exp_decay_remainder(T / p.tau_c)
    if not math.isfinite(c):
        raise ValueError(f"noise phase variance overflows at T={T!r}")
    return c


def apply_collective_dephasing(rho: StateMatrix, T: float, p: NoiseParams) -> StateMatrix:
    """Average a state over the collective noise phase accumulated up to T.

    Matrix elements between z-weights m, m' shrink by exp[-(m-m')^2 C(T)/2];
    the diagonal (and every fixed-excitation block's internal structure with
    equal total weight) is untouched, so trace and Hermiticity are exact.
    """
    kernel = dephasing_kernel(0.0, rho.basis.z_weights(), T, p)
    return StateMatrix(rho.basis, rho.matrix * kernel)


def steady_state(rho: StateMatrix) -> StateMatrix:
    """Infinite-time limit of collective dephasing, as an exact block projection.

    Every element between basis vectors of different total excitation number
    is zeroed; elements within a fixed-excitation block survive unchanged.
    """
    k = rho.basis.excitations()
    keep = k[:, None] == k[None, :]
    return StateMatrix(rho.basis, np.where(keep, rho.matrix, 0.0))


def spin_echo_weights_variance(a, b, T: float, p: NoiseParams):
    """Variance of the phase a*g*(I1 - I2) + b*g*(I1 + I2) under the noise kernel.

    I1 and I2 are the field integrals over [0, T/2] and [T/2, T] and g is the
    coupling, so weight a sees the echoed (sign-flipped second half) window
    and weight b the plain window.  Normalization matches C(T): the uniform
    case a=0, b=1 returns exactly C(T).

    Closed form: with v = C(T/2) and the half-window cross covariance
    c = (gamma_delta_b*tau_c)^2 * (1 - exp(-T/(2 tau_c)))^2 / 2,

        Var = (a+b)^2 v + (b-a)^2 v + 2 (a+b)(b-a) c.

    Accepts scalar or array weights (broadcast elementwise).
    """
    _check_time(T)
    x = T / (2.0 * p.tau_c)
    scale = (p.gamma_delta_b * p.tau_c) ** 2
    v = scale * _exp_decay_remainder(x)
    c = 0.5 * scale * math.expm1(-x) ** 2
    s = np.asarray(a) + np.asarray(b)
    d = np.asarray(b) - np.asarray(a)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        out = (s * s + d * d) * v + 2.0 * (s * d) * c
    if not np.isfinite(out).all():
        raise ValueError(f"noise phase variance overflows at T={T!r}")
    return float(out) if out.ndim == 0 else out


def ou_variance_quadrature(a: float, b: float, T: float, p: NoiseParams,
                           nodes: int = 1025) -> float:
    """Reference evaluation of :func:`spin_echo_weights_variance` by quadrature.

    Integrates the exponential kernel over [0, T]^2 with the piecewise
    constant weight (a+b on the first half, b-a on the second), using a
    Richardson-extrapolated trapezoid rule on each constant-weight block.
    Slow; exists only to cross-check the closed form.
    """
    _check_time(T)
    if T == 0:
        return 0.0

    def block(t0, t1, s0, s1, m):
        t = np.linspace(t0, t1, m)
        s = np.linspace(s0, s1, m)
        wt = np.full(m, (t1 - t0) / (m - 1))
        wt[0] *= 0.5
        wt[-1] *= 0.5
        ws = np.full(m, (s1 - s0) / (m - 1))
        ws[0] *= 0.5
        ws[-1] *= 0.5
        kern = 0.5 * p.gamma_delta_b ** 2 * np.exp(-np.abs(t[:, None] - s[None, :]) / p.tau_c)
        return wt @ kern @ ws

    def total(m):
        h = 0.5 * T
        i11 = block(0.0, h, 0.0, h, m)
        i22 = block(h, T, h, T, m)
        i12 = block(0.0, h, h, T, m)
        return (a + b) ** 2 * i11 + (b - a) ** 2 * i22 + 2.0 * (a + b) * (b - a) * i12

    fine = total(nodes)
    coarse = total((nodes - 1) // 2 + 1)
    return (4.0 * fine - coarse) / 3.0


def dephasing_kernel(m1, m2, T: float, p: NoiseParams,
                     variant: NoiseVariant = NoiseVariant.IDEAL_COLLECTIVE) -> np.ndarray:
    """Factors exp(-Var/2) by which dephasing up to T scales each coherence.

    m1 and m2 hold the z-weight of every basis vector in partition 1 and in
    partition 2 (pass m1 = 0 for an unsplit ensemble); entry [i, j] belongs
    to the coherence between basis vectors i and j.  With dm1, dm2 their
    weight differences, Var is C(T) (dm1 + dm2)^2 for IDEAL_COLLECTIVE,
    :func:`spin_echo_weights_variance` (dm1, dm2) for SPIN_ECHO and
    C(T) (dm1^2 + dm2^2) for INDEPENDENT_REPEAT.  The kernel is real,
    symmetric, positive semidefinite and has a unit diagonal, so the
    Hadamard product with a state is again a state of the same trace.
    """
    d1 = np.subtract.outer(m1, m1)
    d2 = np.subtract.outer(m2, m2)
    if variant is NoiseVariant.IDEAL_COLLECTIVE:
        dm = d1 + d2
        var = phase_variance_c(T, p) * (dm * dm)
    elif variant is NoiseVariant.SPIN_ECHO:
        var = spin_echo_weights_variance(d1, d2, T, p)
    elif variant is NoiseVariant.INDEPENDENT_REPEAT:
        var = phase_variance_c(T, p) * (d1 * d1 + d2 * d2)
    else:
        raise ValueError(f"unknown noise variant {variant!r}")
    return np.exp(-0.5 * var)


def apply_variant_dephasing(rho: StateMatrix, T: float, p: NoiseParams,
                            variant: NoiseVariant) -> StateMatrix:
    """Apply one of the channel realizations to a bipartite state.

    IDEAL_COLLECTIVE: both partitions see the same noise (delegates to
    :func:`apply_collective_dephasing`).  SPIN_ECHO: partition 1 is flipped
    at T/2, so its noise weight changes sign over the second half.
    INDEPENDENT_REPEAT: the two partitions see independent noise samples,
    so their suppression factors multiply.
    """
    if variant is NoiseVariant.IDEAL_COLLECTIVE:
        return apply_collective_dephasing(rho, T, p)
    if not isinstance(rho.basis, BipartiteSymmetricBasis):
        raise ValueError(f"{variant.value} dephasing requires a bipartite basis")
    kernel = dephasing_kernel(rho.basis.partition1_weights(), rho.basis.partition2_weights(),
                              T, p, variant)
    return StateMatrix(rho.basis, rho.matrix * kernel)
