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

import math
from dataclasses import dataclass

import numpy as np


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
    for name, var in (("var1", var1), ("var2", var2)):
        if not (math.isfinite(var) and var >= 0):
            raise ValueError(f"{name} must be finite and nonnegative, got {var!r}")
    d1 = np.subtract.outer(m1, m1)
    d2 = np.subtract.outer(m2, m2)
    # a sum of two nonnegative terms can overflow only to +inf, and
    # exp(-inf) = 0 is the exact kernel value there
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * (var1 * (d1 * d1) + var2 * (d2 * d2)))
