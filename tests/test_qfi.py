import math

import numpy as np
import pytest

from symqfi import qfi
from symqfi.collective_basis import (
    BipartiteSymmetricBasis,
    PureState,
    SymmetricBasis,
    ghz_state,
)
from symqfi.dephasing import NoiseParams, phase_variance_c
from symqfi.qfi import frequency_from_phase, max_qfi_bound, spectral_qfi

import oracles

DEFAULTS = NoiseParams(2 * math.pi * 50, 1.0)


def dephased_ghz(n, T) -> np.ndarray:
    """GHZ state under collective dephasing up to T, through the dense oracle."""
    psi = ghz_state(n).amplitudes
    c = phase_variance_c(T, DEFAULTS)
    return oracles.dephase_bipartite(np.outer(psi, psi.conj()), 0, n, c, c, c)


def random_pure(rng, basis) -> PureState:
    psi = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
    return PureState(basis, psi / np.linalg.norm(psi))


def random_mixed(rng, basis, rank=3) -> np.ndarray:
    mat = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    for w in rng.dirichlet(np.ones(rank)):
        psi = random_pure(rng, basis).amplitudes
        mat += w * np.outer(psi, psi.conj())
    return 0.5 * (mat + mat.conj().T)


class TestSpectralQfi:
    # spectral_qfi is the one eigendecomposition in the package, and its
    # positivity refusal is the package's one check that a matrix is a state
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
            psi = ghz_state(n).amplitudes
            w = SymmetricBasis(n).z_weights()
            assert spectral_qfi(np.outer(psi, psi.conj()), w) == pytest.approx(n * n, rel=1e-12)

    def test_dephased_ghz_decay_squared(self):
        n, T = 8, 0.0005
        d = math.exp(-0.5 * n * n * phase_variance_c(T, DEFAULTS))
        assert spectral_qfi(dephased_ghz(n, T), SymmetricBasis(n).z_weights()) \
            == pytest.approx(n * n * d * d, rel=1e-9)

    def test_maximally_mixed_is_useless(self):
        rho = np.eye(6, dtype=complex) / 6
        assert spectral_qfi(rho, SymmetricBasis(5).z_weights()) == pytest.approx(0.0, abs=1e-12)

    def test_rotated_dicke_scaling(self):
        from symqfi.collective_basis import dicke_state, rotate_y
        for n in (4, 8):
            psi = rotate_y(dicke_state(n, n // 2), math.pi / 2).amplitudes
            w = SymmetricBasis(n).z_weights()
            assert spectral_qfi(np.outer(psi, psi.conj()), w) \
                == pytest.approx(n * (n + 2) / 2, rel=1e-12)

    def test_pure_states_equal_four_variances(self):
        rng = np.random.default_rng(31)
        bases = [SymmetricBasis(n) for n in range(1, 11)] \
            + [BipartiteSymmetricBasis(2, 3), BipartiteSymmetricBasis(4, 4)]
        count = 0
        while count < 200:
            basis = bases[count % len(bases)]
            psi = random_pure(rng, basis).amplitudes
            weights = [basis.z_weights()]
            if isinstance(basis, BipartiteSymmetricBasis):
                weights.append(basis.partition2_weights())
            for w in weights:
                mean = float((np.abs(psi) ** 2 @ w).real)
                second = float((np.abs(psi) ** 2 @ (w ** 2)).real)
                expected = 4 * (second - mean * mean)
                got = spectral_qfi(np.outer(psi, psi.conj()), w)
                assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)
            count += 1

    def test_convexity(self):
        rng = np.random.default_rng(37)
        basis = SymmetricBasis(6)
        w = basis.z_weights()
        for _ in range(20):
            rho1 = random_mixed(rng, basis)
            rho2 = random_mixed(rng, basis)
            p = float(rng.uniform())
            mix = p * rho1 + (1 - p) * rho2
            assert spectral_qfi(mix, w) <= (p * spectral_qfi(rho1, w)
                                            + (1 - p) * spectral_qfi(rho2, w) + 1e-9)

    def test_bounded_by_generator_span(self):
        rng = np.random.default_rng(41)
        for basis in (SymmetricBasis(7), BipartiteSymmetricBasis(3, 4)):
            w = basis.z_weights()
            bound = max_qfi_bound(w)
            for _ in range(25):
                rho = random_mixed(rng, basis, rank=2)
                assert spectral_qfi(rho, w) <= bound + 1e-9

    def test_invariant_under_signal_unitary(self):
        rng = np.random.default_rng(43)
        basis = SymmetricBasis(5)
        w = basis.z_weights()
        rho = random_mixed(rng, basis)
        base = spectral_qfi(rho, w)
        for phi in (0.3, 1.0, 2.7):
            phases = np.exp(-1j * phi * w)
            conj = (phases[:, None] * rho) * phases.conj()[None, :]
            assert spectral_qfi(conj, w) == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_stable_over_eps_sum_range(self, monkeypatch):
        n = 8
        w = SymmetricBasis(n).z_weights()
        for T in (1e-4, 1e-3, 1e-2):
            rho = dephased_ghz(n, T)
            values = []
            for e in (1e-14, 1e-12, 1e-10):
                monkeypatch.setattr(qfi, "EPS_SUM", e)
                values.append(spectral_qfi(rho, w))
            assert max(values) - min(values) <= 1e-8 * (1 + max(values))


class TestFrequencyAndBounds:
    def test_frequency_zero_time(self):
        psi = ghz_state(4).amplitudes
        f = spectral_qfi(np.outer(psi, psi.conj()), SymmetricBasis(4).z_weights())
        assert frequency_from_phase(f, 0.0) == 0.0

    def test_frequency_ghz_decay(self):
        n, T = 6, 0.003
        f = spectral_qfi(dephased_ghz(n, T), SymmetricBasis(n).z_weights())
        d = math.exp(-0.5 * n * n * phase_variance_c(T, DEFAULTS))
        assert frequency_from_phase(f, T) == pytest.approx(T * T * n * n * d * d, rel=1e-9)

    def test_frequency_is_time_squared_scaling(self):
        psi = ghz_state(4).amplitudes
        f = spectral_qfi(np.outer(psi, psi.conj()), SymmetricBasis(4).z_weights())
        assert frequency_from_phase(f, 2.0) == pytest.approx(4 * f, rel=1e-12)

    def test_max_qfi_bound_values(self):
        for n in (2, 8):
            assert max_qfi_bound(SymmetricBasis(n).z_weights()) == pytest.approx(n * n)
        for n1 in (2, 3, 5):
            basis = BipartiteSymmetricBasis(n1, 8 - n1)
            assert max_qfi_bound(basis.partition2_weights()) == pytest.approx((8 - n1) ** 2)
        assert max_qfi_bound(np.full(4, 2.5)) == 0.0
