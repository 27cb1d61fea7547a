import math

import numpy as np
import pytest

from symqfi.collective_basis import (
    BipartiteSymmetricBasis,
    SymmetricBasis,
    ghz_state,
    plus_product_state,
    tensor_bipartite,
)
from symqfi.dephasing import (
    NoiseParams,
    dephasing_kernel,
    phase_variance_c,
    spin_echo_weights_variance,
)
from symqfi.qfi import spectral_qfi
from symqfi.schemes import ProbeFamily, ProbeSpec, build_probe

import oracles

DEFAULTS = NoiseParams(gamma_delta_b=2 * math.pi * 50, tau_c=1.0)
LATE = 50 * DEFAULTS.tau_c  # exp(-C(T)/2) underflows: the kernel is exactly 0 off the blocks


def variances(T, p=DEFAULTS):
    """dephasing_kernel's (var1, var2) under each noise realization at time T."""
    c = phase_variance_c(T, p)
    return {"collective": (0.0, c),
            "spin_echo": (spin_echo_weights_variance(1.0, 0.0, T, p), c),
            "repeat": (c, c)}


REALIZATIONS = list(variances(0.0))


def kernel_on(basis, T, realization="collective"):
    """dephasing_kernel between every pair of vectors of a basis; collective
    noise weighs the total weight (m1 = 0)."""
    if isinstance(basis, SymmetricBasis):
        m1, m2 = 0.0, basis.z_weights()
    elif realization == "collective":
        m1, m2 = 0.0, basis.partition1_weights() + basis.partition2_weights()
    else:
        m1, m2 = basis.partition1_weights(), basis.partition2_weights()
    return dephasing_kernel(m1, m2, *variances(T)[realization])


def random_bipartite_state(rng, n1, n2):
    """Random mixture of a few random pure states on the bipartite basis."""
    dim = BipartiteSymmetricBasis(n1, n2).dimension
    mat = np.zeros((dim, dim), dtype=complex)
    weights = rng.dirichlet(np.ones(3))
    for w in weights:
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        mat += w * np.outer(psi, psi.conj())
    return mat


class TestNoiseParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            NoiseParams(0.0, 1.0)
        with pytest.raises(ValueError):
            NoiseParams(1.0, -2.0)
        with pytest.raises(ValueError):
            NoiseParams(math.inf, 1.0)

    def test_rejects_overflowing_scale(self):
        with pytest.raises(ValueError, match="overflows"):
            NoiseParams(1e200, 1.0)


class TestPhaseVariance:
    def test_zero_time(self):
        assert phase_variance_c(0.0, DEFAULTS) == 0.0

    def test_small_time_quadratic_limit(self):
        T = 1e-6
        limit = (DEFAULTS.gamma_delta_b * T) ** 2 / 2
        assert phase_variance_c(T, DEFAULTS) == pytest.approx(limit, rel=1e-4)

    def test_value_at_one_correlation_time(self):
        # (2*pi*50)^2 * exp(-1), against a 40-digit evaluation of the formula
        import mpmath
        with mpmath.workdps(40):
            reference = float((2 * mpmath.pi * 50) ** 2
                              * (mpmath.exp(-1) + 1 - 1))
        assert reference == pytest.approx(36308.24551655961, rel=1e-13)
        assert phase_variance_c(1.0, DEFAULTS) == pytest.approx(reference, rel=1e-13)

    def test_monotone_nondecreasing(self):
        times = np.logspace(-8, 2, 60)
        values = [phase_variance_c(float(t), DEFAULTS) for t in times]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            phase_variance_c(-1e-9, DEFAULTS)

    def test_overflow_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            phase_variance_c(1e10, NoiseParams(1e150, 1.0))

    def test_tiny_argument_stability(self):
        # series branch must agree with the direct branch at the crossover
        p = NoiseParams(1.0, 1.0)
        lo = phase_variance_c(1e-3 * (1 - 1e-9), p)
        hi = phase_variance_c(1e-3 * (1 + 1e-9), p)
        assert lo == pytest.approx(hi, rel=1e-9)



class TestCollectiveDephasing:
    def test_ghz_coherence_decay(self):
        n, T = 6, 0.002
        kernel = kernel_on(SymmetricBasis(n), T)
        d = math.exp(-0.5 * n * n * phase_variance_c(T, DEFAULTS))
        assert kernel[0, n] == pytest.approx(d, rel=1e-12)
        assert kernel[0, 0] == 1.0

    def test_zero_time_identity(self):
        psi = plus_product_state(5)
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        np.testing.assert_array_equal(rho * kernel_on(psi.basis, 0.0), rho)

    def test_diagonal_states_invariant(self):
        # unit diagonal
        rng = np.random.default_rng(7)
        rho = np.diag(rng.dirichlet(np.ones(5)).astype(complex))
        for T in (0.01, 1.0, 40.0):
            np.testing.assert_array_equal(rho * kernel_on(SymmetricBasis(4), T), rho)

    def test_matches_full_space_oracle(self):
        c = phase_variance_c(0.004, DEFAULTS)
        for n in (2, 3, 5):
            proj = oracles.sym_projector(n)
            psi = plus_product_state(n)
            rho_full = np.outer(proj.T @ psi.amplitudes, (proj.T @ psi.amplitudes).conj())
            ref = proj @ oracles.dephase_full(rho_full, c, oracles.bit_weights(n)) @ proj.T
            out = np.outer(psi.amplitudes, psi.amplitudes.conj()) * kernel_on(psi.basis, 0.004)
            np.testing.assert_allclose(out, ref, atol=1e-12)
        # split ensembles: collective noise weighs all n qubits, independent
        # repeats weigh each partition's qubits with their own sample
        for n1, n2 in ((2, 1), (2, 3)):
            proj = np.kron(oracles.sym_projector(n1), oracles.sym_projector(n2))
            psi = tensor_bipartite(plus_product_state(n1), plus_product_state(n2))
            rho_full = np.outer(proj.T @ psi.amplitudes, (proj.T @ psi.amplitudes).conj())
            w1 = np.repeat(oracles.bit_weights(n1), 2 ** n2)
            w2 = np.tile(oracles.bit_weights(n2), 2 ** n1)
            refs = {"collective": oracles.dephase_full(rho_full, c, w1 + w2),
                    "repeat": oracles.dephase_full(oracles.dephase_full(rho_full, c, w1), c, w2)}
            for realization, ref in refs.items():
                out = (np.outer(psi.amplitudes, psi.amplitudes.conj())
                       * kernel_on(psi.basis, 0.004, realization))
                np.testing.assert_allclose(out, proj @ ref @ proj.T, atol=1e-12)

    def test_trace_and_hermiticity_preserved_exactly(self):
        rng = np.random.default_rng(3)
        rho = random_bipartite_state(rng, 3, 2)
        for realization in REALIZATIONS:
            out = rho * kernel_on(BipartiteSymmetricBasis(3, 2), 0.8, realization)
            # diagonal untouched bitwise, so the trace is preserved exactly
            np.testing.assert_array_equal(np.diag(out), np.diag(rho))
            assert out.trace() == rho.trace()
            # the real symmetric multiplier cannot amplify the Hermiticity defect
            defect_in = np.max(np.abs(rho - rho.conj().T))
            defect_out = np.max(np.abs(out - out.conj().T))
            assert defect_out <= defect_in

    def test_complete_positivity_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n1 = int(rng.integers(1, 5))
            n2 = int(rng.integers(1, 9 - n1))
            rho = random_bipartite_state(rng, n1, n2)
            T = float(rng.uniform(0, 3))
            realization = rng.choice(REALIZATIONS)
            kernel = kernel_on(BipartiteSymmetricBasis(n1, n2), T, realization)
            assert np.linalg.eigvalsh(kernel)[0] >= -1e-10
            assert np.linalg.eigvalsh(rho * kernel)[0] >= -1e-10

    def test_long_time_limit_equals_steady_projection(self):
        # verify's bsd-oracle-equivalence check reads scheme_qfi at this T as
        # the exact steady state
        for n in range(2, 13):
            for n1 in range(1, n):
                basis = BipartiteSymmetricBasis(n1, n - n1)
                indicator = oracles.block_project(np.ones((basis.dimension,) * 2), n1, n - n1)
                np.testing.assert_array_equal(kernel_on(basis, LATE), indicator)

    def test_qfi_monotone_under_dephasing(self):
        times = np.logspace(-5, 0, 25)
        probes = [
            build_probe(ProbeSpec(ProbeFamily.GHZ, 8)),
            build_probe(ProbeSpec(ProbeFamily.DICKE_SYMMETRIC, 8)),
            build_probe(ProbeSpec(ProbeFamily.PRODUCT_PLUS, 8)),
        ]
        for probe in probes:
            w = probe.basis.z_weights()
            rho = np.outer(probe.amplitudes, probe.amplitudes.conj())
            values = [spectral_qfi(rho * kernel_on(probe.basis, float(t)), w) for t in times]
            assert all(later <= earlier + 1e-9
                       for earlier, later in zip(values, values[1:]))


class TestSteadyState:
    """The collective kernel at late times is the block projection."""

    def test_ghz_pair_eigenvalues(self):
        psi = tensor_bipartite(ghz_state(4), ghz_state(4))
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        lam = np.linalg.eigvalsh(rho * kernel_on(psi.basis, LATE))[::-1]
        np.testing.assert_allclose(lam[:3], [0.5, 0.25, 0.25], atol=1e-12)
        np.testing.assert_allclose(lam[3:], 0.0, atol=1e-12)

    def test_fixed_excitation_state_untouched(self):
        psi = build_probe(ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8))
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        np.testing.assert_array_equal(rho * kernel_on(psi.basis, LATE), rho)

    def test_diagonal_untouched(self):
        rng = np.random.default_rng(13)
        rho = np.diag(rng.dirichlet(np.ones(9)).astype(complex))
        for realization in REALIZATIONS:
            kernel = kernel_on(BipartiteSymmetricBasis(2, 2), LATE, realization)
            np.testing.assert_array_equal(rho * kernel, rho)

    def test_symmetric_basis_steady_is_diagonal(self):
        np.testing.assert_array_equal(kernel_on(SymmetricBasis(6), LATE), np.eye(7))


class TestSpinEchoVariance:
    def test_pure_second_partition_reduces_to_c(self):
        for T in (0.01, 0.7, 3.0):
            got = spin_echo_weights_variance(0.0, 2.0, T, DEFAULTS)
            assert got == pytest.approx(4 * phase_variance_c(T, DEFAULTS), rel=1e-12)

    def test_zero_time(self):
        assert spin_echo_weights_variance(1.0, 2.0, 0.0, DEFAULTS) == 0.0

    def test_overflow_rejected(self):
        p = NoiseParams(1e150, 1.0)
        for a, b in ((0.0, 1.0), (np.zeros((2, 2)), np.ones((2, 2)))):
            with pytest.raises(ValueError, match="overflows"):
                spin_echo_weights_variance(a, b, 1e10, p)

    def test_equal_weights_frozen_field_limit(self):
        # echoed part cancels a static field; variance -> (2b)^2 C(T/2)
        b, T = 1.5, 1e-6
        got = spin_echo_weights_variance(b, b, T, DEFAULTS)
        assert got == pytest.approx(4 * b * b * phase_variance_c(T / 2, DEFAULTS),
                                    rel=1e-12)
        small_t = (2 * b) ** 2 * (DEFAULTS.gamma_delta_b * T / 2) ** 2 / 2
        assert got == pytest.approx(small_t, rel=1e-4)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 1.0), (1.0, 2.0),
                                     (2.0, -1.0), (-3.0, 2.0), (1.5, 0.5)])
    @pytest.mark.parametrize("T", [0.001, 0.05, 0.5, 2.0, 5.0])
    def test_against_trapezoid_oracle(self, a, b, T):
        closed = spin_echo_weights_variance(a, b, T, DEFAULTS)
        oracle = oracles.ou_variance_trapezoid_extrapolated(
            a, b, T, DEFAULTS.gamma_delta_b, DEFAULTS.tau_c)
        assert closed == pytest.approx(oracle, rel=1e-6, abs=1e-12)

    def test_tight_against_trapezoid_oracle(self):
        for a, b, T in ((1.0, 2.0, 0.3), (2.0, -1.0, 1.7)):
            closed = spin_echo_weights_variance(a, b, T, DEFAULTS)
            oracle = oracles.ou_variance_trapezoid_extrapolated(
                a, b, T, DEFAULTS.gamma_delta_b, DEFAULTS.tau_c)
            assert closed == pytest.approx(oracle, rel=1e-8)

    def test_against_adaptive_quadrature(self):
        # third route: scipy adaptive integration over the four blocks
        from scipy.integrate import dblquad
        a, b, T = 1.0, 2.0, 0.8
        gb, tc = DEFAULTS.gamma_delta_b, DEFAULTS.tau_c

        def kernel(t, s):
            return 0.5 * gb * gb * math.exp(-abs(t - s) / tc)

        val = 0.0
        for (lo1, hi1, w1) in ((0, T / 2, a + b), (T / 2, T, b - a)):
            for (lo2, hi2, w2) in ((0, T / 2, a + b), (T / 2, T, b - a)):
                block, _ = dblquad(kernel, lo1, hi1, lo2, hi2, epsrel=1e-9)
                val += w1 * w2 * block
        assert spin_echo_weights_variance(a, b, T, DEFAULTS) == pytest.approx(
            val, rel=1e-7)



class TestVariantChannels:
    def test_repeat_kills_all_coherences(self):
        psi = build_probe(ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 8, n1=4))
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        kernel = kernel_on(psi.basis, LATE, "repeat")
        np.testing.assert_array_equal(kernel, np.eye(psi.basis.dimension))
        assert spectral_qfi(rho * kernel, psi.basis.partition2_weights()) < 1e-6

    def test_ideal_on_fixed_excitation_state(self):
        psi = build_probe(ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8))
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        np.testing.assert_array_equal(rho * kernel_on(psi.basis, 2.0), rho)

    def test_spin_echo_zero_time_identity(self):
        basis = BipartiteSymmetricBasis(4, 4)
        kernel = kernel_on(basis, 0.0, "spin_echo")
        np.testing.assert_array_equal(kernel, np.ones((basis.dimension,) * 2))

    def test_spin_echo_matches_elementwise_formula(self):
        # at these times no entry underflows, so a wrong partition-1 weight
        # or a surviving cross term moves the kernel far beyond rounding
        basis = BipartiteSymmetricBasis(2, 3)
        d1 = np.subtract.outer(basis.partition1_weights(), basis.partition1_weights())
        d2 = np.subtract.outer(basis.partition2_weights(), basis.partition2_weights())
        for T in (1e-4, 1e-3, 1e-2):
            var = spin_echo_weights_variance(d1, d2, T, DEFAULTS)
            np.testing.assert_allclose(kernel_on(basis, T, "spin_echo"),
                                       np.exp(-0.5 * var), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("realization, m1", [("collective", 0.0), ("repeat", [0, 8]),
                                                 ("spin_echo", [0, 8])],
                             ids=["collective", "repeat", "spin_echo"])
    def test_overflowing_variance_gives_the_exact_zero(self, realization, m1):
        # C(1e7) ~ 1e307 is finite; C * 8^2 overflows, and exp(-inf) = 0
        var1, var2 = variances(1e7, NoiseParams(1e150, 1.0))[realization]
        kernel = dephasing_kernel(m1, [0, 8], var1, var2)
        np.testing.assert_array_equal(kernel, np.eye(2))

    @pytest.mark.parametrize("var1, var2", [(-1e-3, 1.0), (1.0, -2.0), (math.nan, 1.0),
                                            (1.0, math.nan), (1.0, math.inf)])
    def test_negative_or_non_finite_variance_refused(self, var1, var2):
        with pytest.raises(ValueError, match="must be finite and nonnegative"):
            dephasing_kernel([0, 1], [0, 1], var1, var2)
