"""Quantum Fisher information from the spectral decomposition of the state.

For a state rho = sum_a lambda_a |a><a| and a phase generated by G, the QFI
for the phase is

    F = 4 * sum_{a<b} (lambda_a - lambda_b)^2 / (lambda_a + lambda_b) |<a|G|b>|^2,

which reduces to 4*Var(G) on pure states.  :func:`spectral_qfi` evaluates
it from the state's matrix in any orthonormal frame that holds the state's
support.  Frequency estimation over an interrogation time T carries
F_freq = T^2 * F, and 1/F lower-bounds the variance of any unbiased
estimator.
"""

from __future__ import annotations

import numpy as np

# an eigenvalue below this means spectral_qfi was not given a state
EIGENVALUE_FLOOR = -1e-10
# relative floor on eigenvalue-pair sums in spectral_qfi, looked up at each call
EPS_SUM = 1e-12


def spectral_qfi(m: np.ndarray, g_bar: np.ndarray,
                 v: np.ndarray | None = None) -> float | np.ndarray:
    """Phase QFI of a state from its matrix m in an orthonormal frame e_k.

    The frame must hold the state's support, and the generator G must be
    diagonal on it, <e_j|G|e_k> = g_bar[k] delta_jk.  What G moves out of
    the frame must be mutually orthogonal over k, with squared norms
    v[k] = ||(1 - sum_j |e_j><e_j|) G e_k||^2; v = None means G maps the
    frame into itself.  With m = U diag(lambda) U^dag,

        F = 2 sum_ab (lambda_a - lambda_b)^2 / (lambda_a + lambda_b) |(U^dag g_bar U)_ab|^2
            + 4 sum_a lambda_a sum_k |U_ka|^2 v[k],

    where the second sum collects the pairs between the support and the
    rest of the space (the rank-deficient form of Liu, Yuan, Lu and Wang,
    J. Phys. A 53, 023001, 2020).  Eigenvalue pairs whose sum falls below
    EPS_SUM * max(lambda) are excluded, a vector outside the frame counting
    as eigenvalue 0: their analytic contribution is zero but the ratio is
    0/0 in floating point.  An eigenvalue below EIGENVALUE_FLOOR means m is not
    a state and raises ValueError; tiny negative ones are clamped to zero.

    m may carry leading stack axes, shape (..., d, d) with g_bar and v of
    shape (..., d); every matrix is then treated on its own and the result
    is an array of shape (...).  A single (d, d) matrix gives a float.
    """
    lam, u = np.linalg.eigh(m)
    lam_min = lam.min()  # eigh sorts ascending, so this is the first of some matrix
    if lam_min < EIGENVALUE_FLOOR:
        raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {lam_min!r}")
    lam = np.maximum(lam, 0.0)
    floor = EPS_SUM * lam[..., -1:]  # the largest eigenvalue of each matrix
    overlaps = (u.conj().swapaxes(-1, -2) * g_bar[..., None, :]) @ u
    col, row = lam[..., :, None], lam[..., None, :]
    sums = col + row
    diffs = col - row
    weights = np.zeros(sums.shape)
    np.divide(diffs * diffs, sums, out=weights, where=sums > floor[..., None])
    # full double sum counts each a<b pair twice, hence the factor 2 not 4
    f = 2.0 * (weights * np.abs(overlaps) ** 2).sum(axis=(-2, -1))
    if v is not None:
        f += 4.0 * (np.where(lam > floor, lam, 0.0)
                    * (v[..., None, :] @ np.abs(u) ** 2)[..., 0, :]).sum(axis=-1)
    return float(f) if f.ndim == 0 else f


def frequency_from_phase(f_phase: float, T: float) -> float:
    """Frequency QFI T^2 * f_phase of a run of length T.

    Exactly 0 when f_phase is 0, also where T^2 overflows to infinity.
    """
    return T * T * f_phase if f_phase else 0.0


def max_qfi_bound(g: np.ndarray) -> float:
    """Largest phase QFI any state can reach with a generator of diagonal g.

    Equals the squared span (max g - min g)^2 of the weights; saturated by
    an equal superposition of the extremal eigenvectors.
    """
    span = float(np.max(g) - np.min(g))
    return span * span
