"""Quantum Fisher information from the spectral decomposition of the state.

For a state rho = sum_a lambda_a |a><a| and a phase generated by G, the QFI
for the phase is

    F = 4 * sum_{a<b} (lambda_a - lambda_b)^2 / (lambda_a + lambda_b) |<a|G|b>|^2,

which reduces to 4*Var(G) on pure states.  :func:`spectral_qfi` evaluates
it from the state's matrix in any orthonormal frame that holds the state's
support, and :func:`parity_qfi` from the two sectors of a frame that a
reflection taking G to -G splits.  Both call one kernel, which takes one
sector or two and holds one copy of each step.  Its overlap product is
the full frame's (U^dag o g) @ V weighted by |.|^2, V = U for one sector:
for two sectors, U^T (g V) weighted by o * o is the same sum in another
rounding order, and one form spares the kernel a branch on its caller.
Frequency estimation over an interrogation time T carries F_freq = T^2 * F,
and 1/F lower-bounds the variance of any unbiased estimator.
"""

from __future__ import annotations

import numpy as np

# an eigenvalue below this means the kernel was not given a state
EIGENVALUE_FLOOR = -1e-10
# relative floor on eigenvalue-pair sums in the kernel, looked up at each call
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

    A stack whose off-diagonal entries are all exactly 0 and whose
    diagonal is finite is read without eigh: its eigenvalues are its
    diagonal, refused below EIGENVALUE_FLOOR as above.  It commutes with
    G, so it reads exactly 0 with v = None, and otherwise the second sum
    alone, added in eigh's ascending order of the eigenvalues.

    The arrays are read C-ordered: their layout would pick the BLAS
    routes, and so the last bits.
    """
    return _frame_qfi((m,), g_bar, v)


def parity_qfi(m_even: np.ndarray, m_odd: np.ndarray, g: np.ndarray,
               gap: np.ndarray | None = None) -> float | np.ndarray:
    """Phase QFI of a frame split into the even and odd sectors of a reflection.

    The frame is one of spectral_qfi's with v = None, and the reflection
    commutes with the state and takes G to -G.  m_even and m_odd are the
    real state matrix on orthonormal even and odd vectors, paired so that
    <even_i|G|odd_j> = g[j] delta_ij is the only part of G.  With
    m_even = U diag(lambda) U^T and m_odd = V diag(mu) V^T,

        F = 4 sum_ab (lambda_a - mu_b)^2 / (lambda_a + mu_b) |(U^T g V)_ab|^2,

    with g on the first len(g) rows of U.  spectral_qfi's floors, stacks
    and C-ordered reads hold, EPS_SUM relative to the largest eigenvalue of
    either sector.  Two diagonal sectors are read without eigh: exactly 0
    where their diagonals agree, as the frame is then diagonal.  There gap,
    shape (..., len(g)), if given, is lambda_i - mu_i for each odd vector
    and its partner, known without the cancellation of their difference
    (as 2 w_k K[k, n - k] where each sector holds one block), and a
    nonzero gap overrides equal diagonals.
    """
    return _frame_qfi((m_even, m_odd), g, gap=gap)


def _frame_qfi(sectors: tuple, g: np.ndarray, v: np.ndarray | None = None,
               gap: np.ndarray | None = None) -> float | np.ndarray:
    """The spectral pair sum of a frame of one sector, or of two that G couples.

    One sector (spectral_qfi): G maps it into itself, and the product holds
    both orders of each pair.  Two (parity_qfi): G couples the first len(g)
    vectors of the first sector to the second, and each pair appears once.
    A diagonal sector is its own eigensystem, so G pairs each vector with
    its partner alone, through g; with v, one diagonal sector gives
    4 sum_k lambda_k v[k] alone, summed in eigh's ascending order.
    """
    g = np.ascontiguousarray(g)
    v = None if v is None else np.ascontiguousarray(v)
    d = g.shape[-1]
    diagonal, matrices = True, []
    for m in sectors:  # each read C-ordered: nothing nonzero off its diagonal, which is finite
        matrices.append(m := np.ascontiguousarray(m))
        x = m.diagonal(0, -2, -1)
        diagonal = (diagonal and np.count_nonzero(m) == np.count_nonzero(x)
                    and np.count_nonzero(np.isfinite(x)) == x.size)
    spectra = []
    for m in matrices:
        lam, u = (m.diagonal(0, -2, -1).real, None) if diagonal else np.linalg.eigh(m)
        if lam.size and lam.min() < EIGENVALUE_FLOOR:
            raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {lam.min()!r}")
        spectra.append((lam, u))
    (lam, u), (mu, w) = spectra[0], spectra[-1]
    # G couples nothing, or the frame is diagonal: one diagonal sector, or two whose partners agree
    if not d or diagonal and v is None and (mu is lam or (lam[..., :d] == mu).all()
                                            and (gap is None or not np.count_nonzero(gap))):
        return 0.0 if lam.ndim == 1 else np.zeros(lam.shape[:-1])
    lams, top = [], None
    for x, vectors in spectra:  # eigh sorts a spectrum: its largest eigenvalue is its last entry
        lams.append(x := np.maximum(x, 0.0))
        largest = x[..., -1:] if vectors is not None else x.max(axis=-1, keepdims=True)
        top = largest if top is None else np.maximum(top, largest)
    lam, mu = lams[0], lams[-1]
    floor = EPS_SUM * top
    if diagonal and v is not None:  # G pairs each vector with itself: the pair sum is 0
        order = np.argsort(lam, axis=-1, kind="stable")
        lam = np.take_along_axis(lam, order, -1)
        f = 4.0 * (np.where(lam > floor, lam, 0.0) * np.take_along_axis(v, order, -1)).sum(axis=-1)
        return float(f) if f.ndim == 0 else f
    if diagonal:  # each pair is a vector and its partner, and gap, if given, their difference
        col, row, overlaps = lam[..., :d, None], mu[..., :, None], g[..., :, None]
        diffs = col - row if gap is None else gap[..., :, None]
    else:
        col, row = lam[..., :, None], mu[..., None, :]
        overlaps = (u.conj().swapaxes(-1, -2)[..., :d] * g[..., None, :]) @ w
        diffs = col - row
    sums = col + row
    weights = np.zeros(sums.shape)
    np.divide(diffs * diffs, sums, out=weights, where=sums > floor[..., None])
    f = 2.0 * len(sectors) * (weights * np.abs(overlaps) ** 2).sum(axis=(-2, -1))
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
