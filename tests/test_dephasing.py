import math

import numpy as np
import pytest

from symqfi.collective_basis import (
    BipartiteSymmetricBasis,
    GeneratorLabel,
    StateMatrix,
    SymmetricBasis,
    generator,
    ghz_state,
    plus_product_state,
    tensor_bipartite,
)
from symqfi.dephasing import (
    NoiseParams,
    NoiseVariant,
    apply_collective_dephasing,
    apply_variant_dephasing,
    ou_variance_quadrature,
    phase_variance_c,
    spin_echo_weights_variance,
    steady_state,
)
from symqfi.qfi import qfi_phase
from symqfi.schemes import ProbeFamily, ProbeSpec, build_probe

import oracles

DEFAULTS = NoiseParams(gamma_delta_b=2 * math.pi * 50, tau_c=1.0)


def random_bipartite_state(rng, n1, n2):
    """Random mixture of a few random pure states on the bipartite basis."""
    basis = BipartiteSymmetricBasis(n1, n2)
    dim = basis.dimension
    mat = np.zeros((dim, dim), dtype=complex)
    weights = rng.dirichlet(np.ones(3))
    for w in weights:
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        mat += w * np.outer(psi, psi.conj())
    return StateMatrix(basis, mat)


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
        n = 6
        rho = ghz_state(n).density_matrix()
        T = 0.002
        out = apply_collective_dephasing(rho, T, DEFAULTS)
        d = math.exp(-0.5 * n * n * phase_variance_c(T, DEFAULTS))
        assert out.matrix[0, n] == pytest.approx(0.5 * d, rel=1e-12)
        assert out.matrix[0, 0] == pytest.approx(0.5, rel=1e-15)

    def test_zero_time_identity(self):
        rho = plus_product_state(5).density_matrix()
        out = apply_collective_dephasing(rho, 0.0, DEFAULTS)
        np.testing.assert_array_equal(out.matrix, rho.matrix)

    def test_diagonal_states_invariant(self):
        rng = np.random.default_rng(7)
        probs = rng.dirichlet(np.ones(5))
        rho = StateMatrix(SymmetricBasis(4), np.diag(probs.astype(complex)))
        for T in (0.01, 1.0, 40.0):
            out = apply_collective_dephasing(rho, T, DEFAULTS)
            np.testing.assert_array_equal(out.matrix, rho.matrix)

    def test_matches_full_space_oracle(self):
        for n in (2, 3, 5):
            proj = oracles.sym_projector(n)
            psi = plus_product_state(n)
            rho_full = np.outer(proj.T @ psi.amplitudes, (proj.T @ psi.amplitudes).conj())
            c = phase_variance_c(0.004, DEFAULTS)
            ref = proj @ oracles.dephase_full(rho_full, c, oracles.bit_weights(n)) @ proj.T
            out = apply_collective_dephasing(psi.density_matrix(), 0.004, DEFAULTS)
            np.testing.assert_allclose(out.matrix, ref, atol=1e-12)

    def test_trace_and_hermiticity_preserved_exactly(self):
        rng = np.random.default_rng(3)
        rho = random_bipartite_state(rng, 3, 2)
        out = apply_collective_dephasing(rho, 0.8, DEFAULTS)
        # diagonal untouched bitwise, so the trace is preserved exactly
        np.testing.assert_array_equal(np.diag(out.matrix), np.diag(rho.matrix))
        assert out.matrix.trace() == rho.matrix.trace()
        # the real symmetric multiplier cannot amplify the Hermiticity defect
        defect_in = np.max(np.abs(rho.matrix - rho.matrix.conj().T))
        defect_out = np.max(np.abs(out.matrix - out.matrix.conj().T))
        assert defect_out <= defect_in

    def test_complete_positivity_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n1 = int(rng.integers(1, 5))
            n2 = int(rng.integers(1, 9 - n1))
            rho = random_bipartite_state(rng, n1, n2)
            T = float(rng.uniform(0, 3))
            variant = rng.choice(list(NoiseVariant))
            out = apply_variant_dephasing(rho, T, DEFAULTS, variant)
            assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-10

    def test_long_time_limit_equals_steady_projection(self):
        rng = np.random.default_rng(5)
        for n1, n2 in ((1, 1), (2, 3), (4, 4)):
            rho = random_bipartite_state(rng, n1, n2)
            late = apply_collective_dephasing(rho, 50 * DEFAULTS.tau_c, DEFAULTS)
            np.testing.assert_allclose(late.matrix, steady_state(rho).matrix,
                                       atol=1e-10)

    def test_qfi_monotone_under_dephasing(self):
        times = np.logspace(-5, 0, 25)
        probes = [
            build_probe(ProbeSpec(ProbeFamily.GHZ, 8)),
            build_probe(ProbeSpec(ProbeFamily.DICKE_SYMMETRIC, 8)),
            build_probe(ProbeSpec(ProbeFamily.PRODUCT_PLUS, 8)),
        ]
        for probe in probes:
            g = generator(probe.basis, GeneratorLabel.SZ_TOTAL)
            rho = probe.density_matrix()
            values = [qfi_phase(apply_collective_dephasing(rho, float(t), DEFAULTS), g)
                      for t in times]
            assert all(later <= earlier + 1e-9
                       for earlier, later in zip(values, values[1:]))


class TestSteadyState:
    def test_ghz_pair_eigenvalues(self):
        rho = tensor_bipartite(ghz_state(4), ghz_state(4)).density_matrix()
        lam = np.linalg.eigvalsh(steady_state(rho).matrix)[::-1]
        np.testing.assert_allclose(lam[:3], [0.5, 0.25, 0.25], atol=1e-12)
        np.testing.assert_allclose(lam[3:], 0.0, atol=1e-12)

    def test_fixed_excitation_state_untouched(self):
        rho = build_probe(ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8)).density_matrix()
        np.testing.assert_array_equal(steady_state(rho).matrix, rho.matrix)

    def test_diagonal_untouched(self):
        rng = np.random.default_rng(13)
        probs = rng.dirichlet(np.ones(9))
        rho = StateMatrix(SymmetricBasis(8), np.diag(probs.astype(complex)))
        np.testing.assert_array_equal(steady_state(rho).matrix, rho.matrix)

    def test_symmetric_basis_steady_is_diagonal(self):
        rho = plus_product_state(6).density_matrix()
        out = steady_state(rho).matrix
        np.testing.assert_allclose(out, np.diag(np.diag(out)))


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

    def test_against_package_quadrature(self):
        for a, b, T in ((1.0, 2.0, 0.3), (2.0, -1.0, 1.7)):
            closed = spin_echo_weights_variance(a, b, T, DEFAULTS)
            assert closed == pytest.approx(ou_variance_quadrature(a, b, T, DEFAULTS),
                                           rel=1e-8)

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
        rho = build_probe(ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 8, n1=4)).density_matrix()
        out = apply_variant_dephasing(rho, 50 * DEFAULTS.tau_c, DEFAULTS,
                                      NoiseVariant.INDEPENDENT_REPEAT)
        np.testing.assert_allclose(out.matrix, np.diag(np.diag(out.matrix)), atol=1e-300)
        g = generator(rho.basis, GeneratorLabel.SZ_PARTITION2)
        assert qfi_phase(out, g) < 1e-6

    def test_ideal_on_fixed_excitation_state(self):
        rho = build_probe(ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8)).density_matrix()
        out = apply_variant_dephasing(rho, 2.0, DEFAULTS, NoiseVariant.IDEAL_COLLECTIVE)
        np.testing.assert_array_equal(out.matrix, rho.matrix)

    def test_spin_echo_zero_time_identity(self):
        rho = build_probe(ProbeSpec(ProbeFamily.BSD, 8, n1=4, k1=2, k2=2)).density_matrix()
        out = apply_variant_dephasing(rho, 0.0, DEFAULTS, NoiseVariant.SPIN_ECHO)
        np.testing.assert_array_equal(out.matrix, rho.matrix)

    def test_spin_echo_matches_elementwise_formula(self):
        rng = np.random.default_rng(17)
        rho = random_bipartite_state(rng, 2, 2)
        basis = rho.basis
        T = 0.4
        out = apply_variant_dephasing(rho, T, DEFAULTS, NoiseVariant.SPIN_ECHO)
        m1, m2 = basis.partition1_weights(), basis.partition2_weights()
        for i in range(basis.dimension):
            for j in range(basis.dimension):
                var = spin_echo_weights_variance(m1[i] - m1[j], m2[i] - m2[j], T,
                                                 DEFAULTS)
                assert out.matrix[i, j] == pytest.approx(
                    rho.matrix[i, j] * math.exp(-0.5 * var), abs=1e-15)

    def test_variants_need_bipartite_basis(self):
        rho = ghz_state(4).density_matrix()
        for variant in (NoiseVariant.SPIN_ECHO, NoiseVariant.INDEPENDENT_REPEAT):
            with pytest.raises(ValueError):
                apply_variant_dephasing(rho, 0.1, DEFAULTS, variant)

    def test_ideal_variant_delegates(self):
        rho = build_probe(ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 6, n1=3)).density_matrix()
        a = apply_variant_dephasing(rho, 0.02, DEFAULTS, NoiseVariant.IDEAL_COLLECTIVE)
        b = apply_collective_dephasing(rho, 0.02, DEFAULTS)
        np.testing.assert_array_equal(a.matrix, b.matrix)
