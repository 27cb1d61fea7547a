"""Independent reference constructions used to cross-check the package.

Everything here works in the full 2^n computational-basis space, by
direct numerical quadrature, on dense matrices over the bipartite Dicke
basis, or in 40- to 50-digit arithmetic, deliberately sharing no code with the
package: nothing here imports symqfi.

The dense Gaussian dephasing takes the noise statistics as three numbers
from the caller, the coefficients of the phase variance

    Var = var11 dm1^2 + 2 var12 dm1 dm2 + var22 dm2^2

in the z-weight differences dm1, dm2 of partitions 1 and 2, and builds
its kernel exp(-Var/2) itself.  The tests take the coefficients from the
package's variance functions, which the quadrature oracle here anchors:
(C, C, C) for collective noise, (C, 0, C) for independent samples per
partition, and for spin echo var11 = Var(1, 0), var22 = Var(0, 1) and
var12 = (Var(1, 1) - Var(1, 0) - Var(0, 1)) / 2.
"""

import itertools
import math

import mpmath
import numpy as np
from scipy.linalg import expm

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def bit_weights(n):
    """Excitation z-weight (popcount - n/2) of every computational basis state."""
    counts = np.array([bin(j).count("1") for j in range(2 ** n)])
    return counts - n / 2


def dicke_full(n, k):
    """Dicke state with k excitations as a full 2^n vector."""
    vec = np.zeros(2 ** n)
    for positions in itertools.combinations(range(n), k):
        vec[sum(1 << p for p in positions)] = 1.0
    return vec / np.linalg.norm(vec)


def sym_projector(n):
    """Rows are the Dicke states: maps the full space onto the symmetric sector."""
    return np.array([dicke_full(n, k) for k in range(n + 1)])


def ghz_full(n):
    vec = np.zeros(2 ** n)
    vec[0] = vec[-1] = 1.0 / math.sqrt(2.0)
    return vec


def plus_full(n):
    return np.full(2 ** n, 2.0 ** (-n / 2))


def sz_full(n):
    """Collective z generator in the excitation-weight convention, as a diagonal."""
    return bit_weights(n)


def sy_full(n):
    """Collective y spin sum(sigma_y^(i))/2 as a dense 2^n matrix."""
    total = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(n):
        op = np.eye(1)
        for j in range(n):
            op = np.kron(op, SIGMA_Y if j == i else np.eye(2))
        total += 0.5 * op
    return total


def rotation_full(n, angle):
    """exp(-i * angle * Sy) over the full space, via the Pade matrix exponential."""
    return expm(-1j * angle * sy_full(n))


def wigner_d_half_pi_mp(n, dps=50):
    """Wigner-d matrix d^{n/2}(pi/2)[k', k] at dps digits, from the finite sum.

    With m = k - n/2 and m' = k' - n/2, the Wigner sum over s of
    (-1)^(m'-m+s) cos(b/2)^(2j+m-m'-2s) sin(b/2)^(m'-m+2s) / ((j+m-s)! s!
    (m'-m+s)! (j-m'-s)!) times sqrt((j+m')! (j-m')! (j+m)! (j-m)!) has every
    trigonometric power equal to 2^(-n/2) at b = pi/2, and its factorials
    regroup into the binomials C(k, s) C(n-k, k'-k+s).  The sum is then an
    exact integer, so the only roundings are the final square root and
    products at dps digits.  Signs follow the textbook convention; the
    squared weights do not depend on it.  Returned as nested lists [k'][k]
    of mpf.
    """
    with mpmath.workdps(dps):
        rows = []
        for kp in range(n + 1):
            row = []
            for k in range(n + 1):
                total = sum((-1) ** (kp - k + s) * math.comb(k, s) * math.comb(n - k, kp - k + s)
                            for s in range(max(0, k - kp), min(k, n - kp) + 1))
                scale = mpmath.sqrt(mpmath.mpf(math.comb(n, k)) / (math.comb(n, kp) * 2 ** n))
                row.append(total * scale)
            rows.append(row)
        return rows


def dephase_full(rho_full, c, weights):
    """Elementwise Gaussian dephasing multiplier on a full-space density matrix."""
    dm = weights[:, None] - weights[None, :]
    return rho_full * np.exp(-0.5 * c * dm * dm)


def bipartite_levels(n1, n2):
    """Excitation numbers (q, r) of the bipartite Dicke basis |D_n1^q>|D_n2^r>,
    flattened row-major (q-major); n1 = 0 gives an unsplit ensemble of n2 qubits."""
    q = np.repeat(np.arange(n1 + 1), n2 + 1)
    r = np.tile(np.arange(n2 + 1), n1 + 1)
    return q, r


def dephase_bipartite(rho, n1, n2, var11, var12, var22):
    """Gaussian dephasing of a dense matrix over the bipartite Dicke basis.

    Entry [i, j] is scaled by exp(-Var/2) with Var the phase variance of the
    module docstring at the partition weight differences of i and j.
    """
    q, r = bipartite_levels(n1, n2)
    d1 = (q[:, None] - q[None, :]).astype(float)
    d2 = (r[:, None] - r[None, :]).astype(float)
    var = var11 * d1 * d1 + 2.0 * var12 * d1 * d2 + var22 * d2 * d2
    return rho * np.exp(-0.5 * var)


def block_project(rho, n1, n2):
    """Infinite-time limit of collective dephasing: every entry between basis
    vectors of different total excitation number q + r is zeroed."""
    q, r = bipartite_levels(n1, n2)
    k = q + r
    return np.where(k[:, None] == k[None, :], rho, 0.0)


def ou_variance_trapezoid(a, b, T, gamma_delta_b, tau_c, num=2001):
    """Trapezoid-rule double integral of the noise kernel with the echo weight.

    The weight is a+b on [0, T/2] and b-a on [T/2, T]; the kernel is
    (gamma_delta_b^2 / 2) exp(-|t-t'|/tau_c), matching the normalization in
    which the uniform unit weight gives C(T).  num must be odd so that T/2
    and the diagonal fall on grid nodes.
    """
    if T == 0:
        return 0.0
    if num % 2 == 0:
        raise ValueError("need an odd node count so T/2 is a grid point")
    t = np.linspace(0.0, T, num)
    w = np.where(t < T / 2, a + b, b - a).astype(float)
    # averaging the two one-sided limits at the jump node cancels the O(h)
    # errors of the two adjacent cells, keeping the rule second order
    w[num // 2] = b
    quad = np.full(num, T / (num - 1))
    quad[0] *= 0.5
    quad[-1] *= 0.5
    kern = 0.5 * gamma_delta_b ** 2 * np.exp(-np.abs(t[:, None] - t[None, :]) / tau_c)
    wq = w * quad
    return float(wq @ kern @ wq)


def ou_variance_trapezoid_extrapolated(a, b, T, gamma_delta_b, tau_c, num=2001):
    """Richardson extrapolation of the trapezoid oracle (h and 2h grids)."""
    fine = ou_variance_trapezoid(a, b, T, gamma_delta_b, tau_c, num)
    coarse = ou_variance_trapezoid(a, b, T, gamma_delta_b, tau_c, (num - 1) // 2 + 1)
    return (4.0 * fine - coarse) / 3.0


def qfi_dense_mp(rho, g, dps=40):
    """Phase QFI of a dense real symmetric state matrix under the diagonal
    generator g, diagonalized at dps digits.

    mpmath.eigsy gives rho = U diag(lambda) U^T, a negative eigenvalue (the
    rounding of rho's entries) counts as 0, and the pair formula

        F = 2 sum_ab (lambda_a - lambda_b)^2 / (lambda_a + lambda_b) (U^T g U)_ab^2

    runs over every pair with lambda_a + lambda_b > 0, with no relative
    floor on the sum.
    """
    rho = np.asarray(rho)
    if np.iscomplexobj(rho):
        if rho.imag.any():
            raise ValueError("eigsy needs a real symmetric matrix")
        rho = rho.real
    d = len(g)
    with mpmath.workdps(dps):
        lam, u = mpmath.eigsy(mpmath.matrix(rho.tolist()))
        lam = [max(x, 0) for x in lam]
        overlaps = u.T * mpmath.diag([float(x) for x in g]) * u
        total = mpmath.fsum((lam[a] - lam[b]) ** 2 / (lam[a] + lam[b]) * overlaps[a, b] ** 2
                            for a in range(d) for b in range(d) if lam[a] + lam[b] > 0)
        return float(2 * total)
