import math

import numpy as np
import pytest

from symqfi.collective_basis import (
    BipartiteSymmetricBasis,
    GeneratorLabel,
    PureState,
    StateMatrix,
    SymmetricBasis,
    generator,
    ghz_state,
)
from symqfi.dephasing import NoiseParams, phase_variance_c
from symqfi.qfi import (
    cramer_rao_bound,
    max_qfi_bound,
    qfi_frequency,
    qfi_phase,
    repeated_frequency_precision,
    spectral_qfi,
)

import oracles

DEFAULTS = NoiseParams(2 * math.pi * 50, 1.0)


def dephased_ghz(n, T) -> StateMatrix:
    """GHZ state under collective dephasing up to T, through the dense oracle."""
    psi = ghz_state(n).amplitudes
    c = phase_variance_c(T, DEFAULTS)
    return StateMatrix(SymmetricBasis(n),
                       oracles.dephase_bipartite(np.outer(psi, psi.conj()), 0, n, c, c, c))


def random_pure(rng, basis) -> PureState:
    psi = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
    return PureState(basis, psi / np.linalg.norm(psi))


def random_mixed(rng, basis, rank=3) -> StateMatrix:
    mat = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    for w in rng.dirichlet(np.ones(rank)):
        psi = random_pure(rng, basis).amplitudes
        mat += w * np.outer(psi, psi.conj())
    mat = 0.5 * (mat + mat.conj().T)
    return StateMatrix(basis, mat)


class TestSpectralQfi:
    # spectral_qfi is the one eigendecomposition in the package; StateMatrix
    # validation keeps qfi_phase from ever reaching its positivity refusal
    G_BAR = np.array([-1.5, -0.5, 0.5, 1.5])

    @staticmethod
    def frame_matrix(eigenvalues):
        u = np.linalg.qr(np.random.default_rng(31).normal(size=(4, 4)))[0]
        return (u * np.asarray(eigenvalues)) @ u.T

    def test_negative_eigenvalue_refused(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            spectral_qfi(self.frame_matrix([0.6, 0.3, 0.2, -0.1]), self.G_BAR)

    def test_tiny_negative_eigenvalue_clamped_to_zero(self):
        clamped = spectral_qfi(self.frame_matrix([0.5, 0.3, 0.2, -1e-12]), self.G_BAR)
        zero = spectral_qfi(self.frame_matrix([0.5, 0.3, 0.2, 0.0]), self.G_BAR)
        assert zero > 0
        assert clamped == pytest.approx(zero, rel=1e-10)

    @staticmethod
    def random_frames(rng, size, d):
        """size random PSD frame matrices, some of them rank-deficient, with
        traces from 1 down to 1e-14 (each matrix's eps_sum floor scales with
        its own largest eigenvalue), and random block means and variances."""
        a = rng.normal(size=(size, d, d))
        a[::3, :, : d // 2] = 0.0
        m = a @ np.swapaxes(a, -1, -2)
        m /= np.trace(m, axis1=-2, axis2=-1)[:, None, None]
        m *= 10.0 ** -rng.integers(0, 15, size=size)[:, None, None]
        return m, rng.normal(size=(size, d)), rng.uniform(0.0, 2.0, size=(size, d))

    def test_stack_matches_single_calls(self):
        rng = np.random.default_rng(37)
        for d in range(1, 13):
            m, g_bar, v = self.random_frames(rng, 7, d)
            for variances in (v, None):
                stacked = spectral_qfi(m, g_bar, variances)
                assert isinstance(stacked, np.ndarray) and stacked.shape == (7,)
                for i in range(7):
                    single = spectral_qfi(m[i], g_bar[i], None if variances is None
                                          else variances[i])
                    assert isinstance(single, float)
                    assert stacked[i] == pytest.approx(single, rel=1e-15, abs=0.0)

    def test_one_negative_matrix_refuses_the_stack(self):
        m = np.stack([self.frame_matrix([0.4, 0.3, 0.2, 0.1]),
                      self.frame_matrix([0.6, 0.3, 0.2, -0.1]),
                      self.frame_matrix([0.7, 0.2, 0.1, 0.0])])
        with pytest.raises(ValueError, match="not positive semidefinite"):
            spectral_qfi(m, np.tile(self.G_BAR, (3, 1)))


class TestQfiPhase:
    def test_pure_ghz_reaches_heisenberg(self):
        for n in (2, 5, 8):
            rho = ghz_state(n).density_matrix()
            g = generator(rho.basis, GeneratorLabel.SZ_TOTAL)
            assert qfi_phase(rho, g) == pytest.approx(n * n, rel=1e-12)

    def test_dephased_ghz_decay_squared(self):
        n, T = 8, 0.0005
        rho = dephased_ghz(n, T)
        g = generator(rho.basis, GeneratorLabel.SZ_TOTAL)
        d = math.exp(-0.5 * n * n * phase_variance_c(T, DEFAULTS))
        assert qfi_phase(rho, g) == pytest.approx(n * n * d * d, rel=1e-9)

    def test_maximally_mixed_is_useless(self):
        basis = SymmetricBasis(5)
        rho = StateMatrix(basis, np.eye(6) / 6)
        g = generator(basis, GeneratorLabel.SZ_TOTAL)
        assert qfi_phase(rho, g) == pytest.approx(0.0, abs=1e-12)

    def test_rotated_dicke_scaling(self):
        from symqfi.collective_basis import dicke_state, rotate_y
        for n in (4, 8):
            rho = rotate_y(dicke_state(n, n // 2), math.pi / 2).density_matrix()
            g = generator(rho.basis, GeneratorLabel.SZ_TOTAL)
            assert qfi_phase(rho, g) == pytest.approx(n * (n + 2) / 2, rel=1e-12)

    def test_basis_mismatch_rejected(self):
        rho = ghz_state(4).density_matrix()
        g = generator(SymmetricBasis(5), GeneratorLabel.SZ_TOTAL)
        with pytest.raises(ValueError):
            qfi_phase(rho, g)

    def test_pure_states_equal_four_variances(self):
        rng = np.random.default_rng(31)
        bases = [SymmetricBasis(n) for n in range(1, 11)] \
            + [BipartiteSymmetricBasis(2, 3), BipartiteSymmetricBasis(4, 4)]
        count = 0
        while count < 200:
            basis = bases[count % len(bases)]
            psi = random_pure(rng, basis)
            labels = [GeneratorLabel.SZ_TOTAL]
            if isinstance(basis, BipartiteSymmetricBasis):
                labels.append(GeneratorLabel.SZ_PARTITION2)
            for label in labels:
                g = generator(basis, label)
                mean = float((np.abs(psi.amplitudes) ** 2 @ g.diagonal).real)
                second = float((np.abs(psi.amplitudes) ** 2 @ (g.diagonal ** 2)).real)
                expected = 4 * (second - mean * mean)
                got = qfi_phase(psi.density_matrix(), g)
                assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)
            count += 1

    def test_convexity(self):
        rng = np.random.default_rng(37)
        basis = SymmetricBasis(6)
        g = generator(basis, GeneratorLabel.SZ_TOTAL)
        for _ in range(20):
            rho1 = random_mixed(rng, basis)
            rho2 = random_mixed(rng, basis)
            p = float(rng.uniform())
            mix = StateMatrix(basis, p * rho1.matrix + (1 - p) * rho2.matrix)
            assert qfi_phase(mix, g) <= (p * qfi_phase(rho1, g)
                                         + (1 - p) * qfi_phase(rho2, g) + 1e-9)

    def test_bounded_by_generator_span(self):
        rng = np.random.default_rng(41)
        for basis in (SymmetricBasis(7), BipartiteSymmetricBasis(3, 4)):
            g = generator(basis, GeneratorLabel.SZ_TOTAL)
            bound = max_qfi_bound(g)
            for _ in range(25):
                rho = random_mixed(rng, basis, rank=2)
                assert qfi_phase(rho, g) <= bound + 1e-9

    def test_invariant_under_signal_unitary(self):
        rng = np.random.default_rng(43)
        basis = SymmetricBasis(5)
        g = generator(basis, GeneratorLabel.SZ_TOTAL)
        rho = random_mixed(rng, basis)
        base = qfi_phase(rho, g)
        for phi in (0.3, 1.0, 2.7):
            phases = np.exp(-1j * phi * g.diagonal)
            conj = StateMatrix(basis, (phases[:, None] * rho.matrix) * phases.conj()[None, :])
            assert qfi_phase(conj, g) == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_stable_over_eps_sum_range(self):
        n = 8
        g = generator(SymmetricBasis(n), GeneratorLabel.SZ_TOTAL)
        for T in (1e-4, 1e-3, 1e-2):
            rho = dephased_ghz(n, T)
            values = [qfi_phase(rho, g, eps_sum=e) for e in (1e-14, 1e-12, 1e-10)]
            assert max(values) - min(values) <= 1e-8 * (1 + max(values))


class TestFrequencyAndBounds:
    def test_frequency_zero_time(self):
        rho = ghz_state(4).density_matrix()
        g = generator(rho.basis, GeneratorLabel.SZ_TOTAL)
        assert qfi_frequency(rho, g, 0.0) == 0.0

    def test_frequency_ghz_decay(self):
        n, T = 6, 0.003
        rho = dephased_ghz(n, T)
        g = generator(rho.basis, GeneratorLabel.SZ_TOTAL)
        d = math.exp(-0.5 * n * n * phase_variance_c(T, DEFAULTS))
        assert qfi_frequency(rho, g, T) == pytest.approx(T * T * n * n * d * d, rel=1e-9)

    def test_frequency_is_time_squared_scaling(self):
        rho = ghz_state(4).density_matrix()
        g = generator(rho.basis, GeneratorLabel.SZ_TOTAL)
        f = qfi_phase(rho, g)
        assert qfi_frequency(rho, g, 2.0) == pytest.approx(4 * f, rel=1e-12)

    def test_cramer_rao(self):
        assert cramer_rao_bound(64.0) == pytest.approx(1 / 64)
        assert cramer_rao_bound(1.0) == 1.0
        assert cramer_rao_bound(2.0) == 0.5
        assert cramer_rao_bound(0.0) == math.inf
        assert cramer_rao_bound(-3.0) == math.inf

    def test_repeated_precision(self):
        # single shot: t_total = T gives back the frequency QFI
        assert repeated_frequency_precision(64.0, 0.5, 0.5) == pytest.approx(16.0)
        n, T = 8, 0.002
        d = math.exp(-0.5 * n * n * phase_variance_c(T, DEFAULTS))
        f = n * n * d * d
        assert repeated_frequency_precision(f, T, 10.0) == pytest.approx(10.0 * T * f)
        one = repeated_frequency_precision(5.0, 0.1, 1.0)
        assert repeated_frequency_precision(5.0, 0.1, 2.0) == pytest.approx(2 * one)

    def test_repeated_precision_domain(self):
        with pytest.raises(ValueError):
            repeated_frequency_precision(1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            repeated_frequency_precision(1.0, 0.0, 1.0)

    @pytest.mark.parametrize("args", [(math.nan, 0.5, 1.0), (1.0, 0.5, math.inf),
                                      (math.inf, 0.5, 1.0), (1.0, math.nan, 1.0),
                                      (1.0, 0.5, math.nan)])
    def test_repeated_precision_refuses_non_finite(self, args):
        with pytest.raises(ValueError, match="must be finite"):
            repeated_frequency_precision(*args)

    def test_max_qfi_bound_values(self):
        for n in (2, 8):
            g = generator(SymmetricBasis(n), GeneratorLabel.SZ_TOTAL)
            assert max_qfi_bound(g) == pytest.approx(n * n)
        for n1 in (2, 3, 5):
            basis = BipartiteSymmetricBasis(n1, 8 - n1)
            g = generator(basis, GeneratorLabel.SZ_PARTITION2)
            assert max_qfi_bound(g) == pytest.approx((8 - n1) ** 2)
        from symqfi.collective_basis import Generator
        flat = Generator(SymmetricBasis(3), np.full(4, 2.5), GeneratorLabel.SZ_TOTAL)
        assert max_qfi_bound(flat) == 0.0
