"""Independent reference constructions used to cross-check the package.

Everything here works in the full 2^n computational-basis space, by
direct numerical quadrature, on dense matrices over the bipartite Dicke
basis, or in 30- to 50-digit arithmetic, deliberately sharing no code with the
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


def wigner_d_mp(n, angle, dps=30):
    """Wigner-d matrix of spin n/2 at any angle, as nested lists [k'][k] of mpf.

    Entry [k', k] is the textbook d^{n/2}_{m m'}(angle) with m = k - n/2 and
    m' = k' - n/2: in the Dicke basis <D^{k+1}| Sy |D^k> = +(i/2) sqrt((k+1)(n-k)),
    the negative of the textbook <m+1| Jy |m>, so exp(-i angle Sy) is the
    textbook d at -angle, the transpose of d_{m'm}.  The finite sum over s of

        (-1)^(k-k'+s) cos(b/2)^(n+k'-k-2s) sin(b/2)^(k-k'+2s)
            sqrt(k! (n-k)! k'! (n-k')!) / ((k'-s)! s! (k-k'+s)! (n-k-s)!)

    has terms up to about C(n, n/2)^2 that cancel to a result of order 1, so
    it runs at dps digits plus one per power of ten of that size.
    """
    f = math.factorial
    with mpmath.workdps(dps + 2 * len(str(math.comb(n, n // 2)))):
        cos, sin = mpmath.cos(mpmath.mpf(angle) / 2), mpmath.sin(mpmath.mpf(angle) / 2)
        rows = []
        for kp in range(n + 1):
            row = []
            for k in range(n + 1):
                root = mpmath.sqrt(mpmath.mpf(f(k) * f(n - k) * f(kp) * f(n - kp)))
                total = mpmath.fsum(
                    (-1) ** (k - kp + s) * cos ** (n + kp - k - 2 * s) * sin ** (k - kp + 2 * s)
                    / (f(kp - s) * f(s) * f(k - kp + s) * f(n - k - s))
                    for s in range(max(0, kp - k), min(kp, n - k) + 1))
                row.append(+(root * total))
            rows.append(row)
    return rows


def collective_qfi_mp(amps, angle, T, gamma_delta_b, tau_c, dps=30):
    """Phase QFI of a rotated Dicke-basis state under collective dephasing, at dps digits.

    amps are the n+1 amplitudes of the unrotated state (numbers or mpf),
    rotated by exp(-i angle Sy) through wigner_d_mp.  C(T) is the
    Ornstein-Uhlenbeck closed form (gamma_delta_b tau_c)^2 (exp(-T/tau_c)
    + T/tau_c - 1), the state's matrix is a_j a_k exp(-C (j-k)^2 / 2), the
    generator is k - n/2, and the pair formula of qfi_dense_mp runs on
    mpmath.eigsy's eigensystem with no floor on the pair sums.  angle, T
    and the noise parameters are taken as the exact values of the floats
    given.
    """
    n = len(amps) - 1
    d = wigner_d_mp(n, angle, dps)
    with mpmath.workdps(dps):
        a = [mpmath.fsum(x * mpmath.mpf(y) for x, y in zip(row, amps)) for row in d]
        x = mpmath.mpf(T) / mpmath.mpf(tau_c)
        c = (mpmath.mpf(gamma_delta_b) * mpmath.mpf(tau_c)) ** 2 * (mpmath.exp(-x) + x - 1)
        rho = mpmath.matrix(n + 1, n + 1)
        for j in range(n + 1):
            for k in range(n + 1):
                rho[j, k] = a[j] * a[k] * mpmath.exp(-c * (j - k) ** 2 / 2)
        lam, u = mpmath.eigsy(rho)
        lam = [max(v, 0) for v in lam]
        overlaps = u.T * mpmath.diag([mpmath.mpf(k) - mpmath.mpf(n) / 2 for k in range(n + 1)]) * u
        total = mpmath.fsum((lam[i] - lam[j]) ** 2 / (lam[i] + lam[j]) * overlaps[i, j] ** 2
                            for i in range(n + 1) for j in range(n + 1) if lam[i] + lam[j] > 0)
        return 2 * total


def bsd_steady_qfi_mp(n1, k1, n2, k2, dps=50):
    """Steady-state QFI of the pi/2-rotated bipartite Dicke probe at dps digits.

    The probe is D_n1^k1 (x) D_n2^k2 rotated by pi/2 about y.  Its weights
    are w1[q] = d^{n1/2}(pi/2)[q, k1]^2 and w2[r] = d^{n2/2}(pi/2)[r, k2]^2
    from wigner_d_half_pi_mp.  Collective dephasing keeps the blocks of
    fixed total excitation q + r = k'.  In block k', let s_j be the sum of
    w1[q] w2[r] (r - n2/2)^j.  The QFI is four times the sum over blocks of
    s2 - s1^2/s0, the conditional variance of partition 2's weight, with
    empty blocks skipped.  At dps digits the difference does not cancel.
    """
    with mpmath.workdps(dps):
        d1, d2 = wigner_d_half_pi_mp(n1, dps), wigner_d_half_pi_mp(n2, dps)
        total = mpmath.mpf(0)
        for kp in range(n1 + n2 + 1):
            s0 = s1 = s2 = mpmath.mpf(0)
            for q in range(max(0, kp - n2), min(n1, kp) + 1):
                w = d1[q][k1] ** 2 * d2[kp - q][k2] ** 2
                m2 = mpmath.mpf(kp - q) - mpmath.mpf(n2) / 2
                s0, s1, s2 = s0 + w, s1 + w * m2, s2 + w * m2 * m2
            if s0 > 0:
                total += s2 - s1 * s1 / s0
        return 4 * total


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
