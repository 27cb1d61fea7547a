"""Collective Gaussian phase noise: its statistics and its dephasing kernel.

The noise is a fluctuating level splitting, identical for all qubits, with
zero mean and an exponentially decaying autocorrelation of correlation time
tau_c (Ornstein-Uhlenbeck statistics).  Averaging over the Gaussian phase
accumulated up to time T multiplies every density-matrix element between
basis vectors of z-weights m and m' by exp[-(m - m')^2 C(T) / 2], with

    C(T) = (gamma_delta_b * tau_c)^2 * (exp(-T/tau_c) + T/tau_c - 1).

C(T) is normalized so that the phase collected with a uniform unit weight
over [0, T] has variance exactly C(T), and :func:`spin_echo_weights_variance`
shares that normalization.  This module holds the noise statistics and
the factors :func:`dephasing_kernel` by which two per-partition phase
variances scale each coherence; the scheme kind picks the two variances,
and the QFI pipeline applies the kernel in its own frames.  As T grows,
every coherence between different total excitation numbers dies, and the
collective kernel becomes the indicator of equal total excitation number,
exactly once exp(-C(T)/2) underflows to 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .collective_basis import _require_real


@dataclass(frozen=True)
class NoiseParams:
    """Collective phase-noise parameters.

    gamma_delta_b: fluctuation strength as an angular frequency (rad/s).
    tau_c: correlation time of the fluctuations (s).
    """

    gamma_delta_b: float
    tau_c: float

    def __post_init__(self):
        for name in ("gamma_delta_b", "tau_c"):
            value = getattr(self, name)
            real = _require_real(name, value, "strictly positive and finite")
            if not real > 0:
                raise ValueError(f"{name} must be strictly positive and finite, got {value!r}")
            object.__setattr__(self, name, real)
        scale = self.gamma_delta_b * self.tau_c
        if not math.isfinite(scale * scale):
            raise ValueError(f"(gamma_delta_b * tau_c)^2 overflows: gamma_delta_b="
                             f"{self.gamma_delta_b!r}, tau_c={self.tau_c!r}")


# 1/(k+2)! for k = 21 down to 0, the highest first for Horner's rule
_REMAINDER_SERIES = tuple(1 / math.factorial(k + 2) for k in reversed(range(22)))


def _exp_decay_remainder(x: float) -> float:
    """exp(-x) + x - 1 for x >= 0, within about 2.5e-16 relative.

    Below 1 it is the series x^2 sum_{k<22} (-x)^k / (k+2)!, whose terms
    shrink with alternating sign, so nothing cancels and the first omitted
    one is below 5e-24 of the sum.  From 1 on, expm1(-x) + x is at least
    e^-1 of x, so the sum loses under two bits.
    """
    if x < 1.0:
        s = 0.0
        for c in _REMAINDER_SERIES:
            s = c - x * s
        return x * x * s
    return math.expm1(-x) + x


def _check_time(T: float) -> None:
    if not _require_real("time", T, "finite and nonnegative") >= 0:
        raise ValueError(f"time must be finite and nonnegative, got {T!r}")


def phase_variance_c(T: float, p: NoiseParams) -> float:
    """Variance C(T) of the collectively accumulated noise phase at time T."""
    _check_time(T)
    c = (p.gamma_delta_b * p.tau_c) ** 2 * _exp_decay_remainder(T / p.tau_c)
    if not math.isfinite(c):
        raise ValueError(f"noise phase variance overflows at T={T!r}")
    return c


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


def dephasing_kernel(m1, m2, var1: float, var2: float) -> np.ndarray:
    """Factors exp(-(var1 dm1^2 + var2 dm2^2) / 2) by which dephasing scales each coherence.

    m1 and m2 hold the z-weight of every basis vector in partition 1 and in
    partition 2; entry [i, j] belongs to the coherence between basis vectors
    i and j, whose weights differ by dm1 and dm2.  var1 and var2 are the
    phase variances that a unit weight in each partition collects:
    (C(T), C(T)) for independent repeats, (spin_echo_weights_variance(1, 0),
    C(T)) for a spin echo on partition 1, whose dm1 dm2 term cancels, and
    (0, C(T)) for collective noise, with m2 the total weight.  The kernel
    is real, symmetric, positive semidefinite and has a unit diagonal, so
    the Hadamard product with a state is again a state of the same trace.
    """
    _check_variance("var1", var1)
    _check_variance("var2", var2)
    d1 = np.subtract.outer(m1, m1)
    d2 = np.subtract.outer(m2, m2)
    # a sum of two nonnegative terms can overflow only to +inf, and
    # exp(-inf) = 0 is the exact kernel value there
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * (var1 * (d1 * d1) + var2 * (d2 * d2)))


def _collective_row(var: float, n: int) -> np.ndarray:
    """exp(-var d^2 / 2) at d = 0..n, read-only: the collective kernel by distance.

    Entry [i, j] of dephasing_kernel(zeros, m2, 0.0, var) for integer
    weights m2 is entry |m2[i] - m2[j]| of this row, bit for bit: the
    partition-1 term adds an exact 0, and halving is exact, so var times
    the cached -d^2 / 2 is -(var d^2) / 2 wherever exp reads below 1.0.
    """
    _check_variance("var2", var)
    # exp(-750) is already 0, so the cap changes no entry and keeps var d^2 finite
    row = np.exp(min(var, 1500.0) * _half_squares(n))
    row.flags.writeable = False
    return row


@functools.lru_cache(maxsize=64)
def _half_squares(n: int) -> np.ndarray:
    """-d^2 / 2 at d = 0..n, read-only."""
    d = np.arange(n + 1)
    row = -0.5 * (d * d)
    row.flags.writeable = False
    return row


def _check_variance(name: str, var: float) -> None:
    if not (math.isfinite(var) and var >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {var!r}")
