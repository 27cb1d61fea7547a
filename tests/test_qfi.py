import math

import numpy as np
import pytest

from symqfi import qfi, schemes
from symqfi.collective_basis import (
    BipartiteSymmetricBasis,
    PureState,
    SymmetricBasis,
    ghz_state,
)
from symqfi.dephasing import NoiseParams, phase_variance_c
from symqfi.qfi import frequency_from_phase, max_qfi_bound, parity_qfi, spectral_qfi
from symqfi.schemes import ProbeFamily, ProbeSpec, SchemeKind, SchemeSpec, scan
from symqfi.steady_forms import product_steady_qfi

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

    @staticmethod
    def diagonal_frames(rng, size, d):
        """size exactly diagonal frames, about a third of their entries 0."""
        w = rng.uniform(size=(size, d)) * (rng.uniform(size=(size, d)) > 0.3)
        return w[..., :, None] * np.eye(d), rng.normal(size=(size, d)), w

    def test_diagonal_frame_reads_exactly_zero(self, monkeypatch):
        # a diagonal frame commutes with the generator: with v = None, 0.0 without eigh
        monkeypatch.setattr(np.linalg, "eigh", None)
        rng = np.random.default_rng(53)
        for d in range(1, 13):
            m, g_bar, _ = self.diagonal_frames(rng, 5, d)
            stacked = spectral_qfi(m, g_bar)
            assert isinstance(stacked, np.ndarray) and stacked.shape == (5,)
            assert (stacked == 0.0).all()
            for i in range(5):
                single = spectral_qfi(m[i], g_bar[i])
                assert isinstance(single, float) and single == 0.0

    def test_negative_diagonal_entry_refused(self):
        rng = np.random.default_rng(59)
        for d in range(1, 13):
            m, g_bar, _ = self.diagonal_frames(rng, 3, d)
            m[1, d - 1, d - 1] = -1e-9
            # eigh's smallest eigenvalue of a diagonal frame is its smallest entry
            message = r"not positive semidefinite: min eigenvalue (np\.float64\()?-1e-09\b"
            with pytest.raises(ValueError, match=message):
                spectral_qfi(m, g_bar)
            with pytest.raises(ValueError, match=message):
                spectral_qfi(m[1], g_bar[1])

    @staticmethod
    def eigh_route(m, v):
        """The general branch's value on a diagonal frame: eigh's eigenpairs, whose
        pair sum is exactly 0, and the v term over eigh's ascending eigenvalues."""
        lam, u = np.linalg.eigh(m)
        lam = np.maximum(lam, 0.0)
        kept = np.where(lam > qfi.EPS_SUM * lam[..., -1:], lam, 0.0)
        return 4.0 * (kept * (v[..., None, :] @ np.abs(u) ** 2)[..., 0, :]).sum(axis=-1)

    def test_diagonal_frame_with_variances_skips_eigh(self, monkeypatch):
        # a diagonal frame is its own eigensystem: with v, F = 4 sum_k w_k v_k,
        # summed in eigh's ascending order, which reads eigh's bits where the
        # diagonal has no ties (zeros, whose terms are 0, aside); some entries
        # sit below the EPS_SUM floor, which drops them as eigh's route does
        rng = np.random.default_rng(61)
        frames = []
        for d in range(1, 13):
            m, g_bar, w = self.diagonal_frames(rng, 4, d)
            m[1] *= 10.0 ** -rng.integers(0, 16, size=d)[:, None]
            frames.append((m, g_bar, rng.uniform(0.0, 2.0, size=(4, d))))
        expected = [self.eigh_route(m, v) for m, _, v in frames]
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape))
        for (m, g_bar, v), ref in zip(frames, expected):
            stacked = spectral_qfi(m, g_bar, v)
            assert stacked.tobytes() == ref.tobytes()
            for i in range(4):
                single = spectral_qfi(m[i], g_bar[i], v[i])
                assert isinstance(single, float) and single == ref[i]
            # two diagonal sectors, each a diagonal frame of its own
            diag = m.diagonal(0, -2, -1)
            sectors = (m, diag[:, 1:, None] * np.eye(len(diag[0]) - 1))
            stacked = parity_qfi(*sectors, g_bar[:, 1:])
            assert stacked.shape == (4,)
            assert [parity_qfi(*(x[i] for x in sectors), g_bar[i, 1:]) for i in range(4)] == \
                list(stacked)
        assert calls == []
        # a steady-state anchor through scan: di_ideal's split |+>^44 at
        # n1 = 22 once every coherence between excitation blocks is 0 reads
        # n/4 exactly; summed in index order it read 11.000000000000002
        ideal = SchemeSpec(SchemeKind.DI_IDEAL, DEFAULTS)
        row = scan(ideal, [ProbeSpec(ProbeFamily.PRODUCT_PLUS, 44, n1=22)], [10.0])[0]
        assert row.f_phase == product_steady_qfi(44, 22) == 11.0
        assert calls == []


def parity_bases(n):
    """Columns: the even vectors (e_k + e_(n-k)) / sqrt(2), k < n/2, and e_(n/2), and the
    odd vectors (e_k - e_(n-k)) / sqrt(2), k < n/2, of the reflection k -> n - k (n even)."""
    h = n // 2
    even, odd = np.zeros((n + 1, h + 1)), np.zeros((n + 1, h))
    for k in range(h):
        even[k, k] = even[n - k, k] = odd[k, k] = math.sqrt(0.5)
        odd[n - k, k] = -math.sqrt(0.5)
    even[h, h] = 1.0
    return even, odd


def centrosymmetric_frames(rng, size, n):
    """size random PSD (n+1)-frames that commute with the reflection k -> n - k,
    some of them rank-deficient, with traces from 1 down to 1e-14."""
    a = rng.normal(size=(size, n + 1, n + 1))
    a[::3, :, : n // 2] = 0.0
    m = a @ np.swapaxes(a, -1, -2)
    m = m + m[:, ::-1, ::-1]
    m /= np.trace(m, axis1=-2, axis2=-1)[:, None, None]
    return m * 10.0 ** -rng.integers(0, 15, size=size)[:, None, None]


class TestParityQfi:
    """parity_qfi on a frame split by the reflection, against spectral_qfi on the frame."""

    @staticmethod
    def sectors(m, n):
        even, odd = parity_bases(n)
        return even.T @ m @ even, odd.T @ m @ odd, SymmetricBasis(n).z_weights()[: n // 2]

    def test_matches_the_whole_frame(self):
        rng = np.random.default_rng(71)
        for n in range(2, 21, 2):
            m = centrosymmetric_frames(rng, 6, n)
            got = parity_qfi(*self.sectors(m, n))
            assert isinstance(got, np.ndarray) and got.shape == (6,)
            for i in range(6):
                ref = spectral_qfi(m[i], SymmetricBasis(n).z_weights())
                single = parity_qfi(*self.sectors(m[i], n))
                assert isinstance(single, float) and single == pytest.approx(got[i], rel=1e-15)
                assert got[i] == pytest.approx(ref, rel=1e-10, abs=1e-12 * n * n), (n, i)

    def test_diagonal_sectors_skip_eigh(self, monkeypatch):
        # diagonal sectors pair each odd vector with its even partner; equal
        # diagonals are a diagonal frame, which commutes with G: exactly 0
        monkeypatch.setattr(np.linalg, "eigh", None)
        lam, mu, g = np.array([0.5, 0.3, 0.2]), np.array([0.1, 0.3]), np.array([-2.0, -1.0])
        expected = 4.0 * ((0.5 - 0.1) ** 2 / 0.6 * 4.0 + 0.0)
        assert parity_qfi(np.diag(lam), np.diag(mu), g) == pytest.approx(expected, rel=1e-15)
        same = parity_qfi(np.diag(lam)[None], np.diag(lam[:2])[None], g[None])
        assert same.shape == (1,) and same[0] == 0.0
        assert parity_qfi(np.diag(lam[:1]), np.zeros((0, 0)), np.zeros(0)) == 0.0

    def test_diagonal_sectors_take_the_gap_given(self, monkeypatch):
        # (1 +- K) / 2 with K = 1e-20: equal diagonals in floats, but not in fact
        monkeypatch.setattr(np.linalg, "eigh", None)
        k, g = 1e-20, np.array([-4.0])
        even, odd = np.array([[(1 + k) / 2]]), np.array([[(1 - k) / 2]])
        assert parity_qfi(even, odd, g) == 0.0
        assert parity_qfi(even, odd, g, np.array([k])) == pytest.approx(4 * k * k * 16, rel=1e-15)
        assert parity_qfi(even[None], odd[None], g[None], np.zeros((1, 1)))[0] == 0.0
        # where the difference is exact, it is the gap, bit for bit
        lam, mu, g = np.array([0.5, 0.3, 0.2]), np.array([0.1, 0.3]), np.array([-2.0, -1.0])
        assert parity_qfi(np.diag(lam), np.diag(mu), g, lam[:2] - mu) == \
            parity_qfi(np.diag(lam), np.diag(mu), g)

    def test_floor_spans_both_sectors(self, monkeypatch):
        # the odd sector holds the largest eigenvalue, 1, the even one 1e-2:
        # with EPS_SUM = 1e-3 the pair of sum 0.9e-3 is dropped and that of
        # 1.1e-3 kept, where a floor on the even sector alone would keep both
        monkeypatch.setattr(qfi, "EPS_SUM", 1e-3)
        g = np.array([-1.5, -0.5])
        u, w = (np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
                for t in (0.3, 1.1))
        for pair_sum, kept in ((0.9e-3, False), (1.1e-3, True)):
            lam, mu = np.array([0.75 * pair_sum, 1e-2]), np.array([0.25 * pair_sum, 1.0])
            # diagonal sectors pair even vector i with odd vector i only
            expected = 4.0 * (1e-2 - 1.0) ** 2 / (1e-2 + 1.0) * g[1] ** 2
            expected += kept * 4.0 * (0.5 * pair_sum) ** 2 / pair_sum * g[0] ** 2
            got = parity_qfi(np.diag(lam), np.diag(mu), g)
            assert got == pytest.approx(expected, rel=1e-15), (pair_sum, got, expected)
            # rotated sectors pair every even vector with every odd one, through U^T g V
            sums = lam[:, None] + mu[None, :]
            terms = (lam[:, None] - mu[None, :]) ** 2 / sums * (u.T @ (g[:, None] * w)) ** 2
            expected = 4.0 * terms[sums > 1e-3].sum()
            assert (abs(expected - 4.0 * terms.sum()) > 1e-5 * expected) != kept
            got = parity_qfi((u * lam) @ u.T, (w * mu) @ w.T, g)
            assert got == pytest.approx(expected, rel=1e-10), (pair_sum, got, expected)

    def test_negative_eigenvalue_in_either_sector_refused(self):
        u = np.linalg.qr(np.random.default_rng(73).normal(size=(3, 3)))[0]
        good, bad = (u * [0.5, 0.3, 0.2]) @ u.T, (u * [0.5, 0.3, -1e-9]) @ u.T
        g = np.array([-1.5, -0.5, 0.5])
        for m_even, m_odd in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="not positive semidefinite"):
                parity_qfi(m_even, m_odd, g)


class TestInputLayout:
    """A value does not depend on the memory layout of the arrays it is read from."""

    @staticmethod
    def layouts(x):
        doubled = np.repeat(x, 2, axis=0)
        return np.asfortranarray(x), doubled[::2], x.copy()

    @staticmethod
    def recorded(monkeypatch, name, cells, angles):
        calls = []
        real = getattr(schemes, name)
        monkeypatch.setattr(schemes, name, lambda *args: calls.append(args) or real(*args))
        for scheme, spec, T in cells:
            schemes._spec_setup(spec, scheme.kind).qfi(scheme.noise, T, angles)
        return calls

    def test_spectral_qfi_reads_every_layout_alike(self, monkeypatch):
        # four DI_IDEAL bsd stacks whose F-ordered v once took another BLAS
        # route in the v @ |U|^2 product, with other last bits
        ideal = SchemeSpec(SchemeKind.DI_IDEAL, DEFAULTS)
        splits = ((14, 7, 4, 2), (14, 13, 2, 1), (18, 13, 8, 3), (26, 6, 1, 1))
        cells = [(ideal, ProbeSpec(ProbeFamily.BSD, n, n1=n1, k1=k1, k2=k2), 3e-3)
                 for n, n1, k1, k2 in splits]
        angles = np.array([0.20857756992473636, 0.012437460108611484, 1.0861615200635726,
                           2.9500969354390336, 1.3279527753641647])
        stacks = self.recorded(monkeypatch, "spectral_qfi", cells, angles)
        assert len(stacks) == 4
        for m, g_bar, v in stacks:
            base = spectral_qfi(m.copy(), g_bar.copy(), v.copy())
            for i, arg in enumerate((m, g_bar, v)):
                for layout in self.layouts(arg):
                    args = [m, g_bar, v]
                    args[i] = layout
                    assert np.array_equal(spectral_qfi(*args), base)

    def test_parity_qfi_reads_every_layout_alike(self, monkeypatch):
        standard = SchemeSpec(SchemeKind.STANDARD, DEFAULTS)
        cells = [(standard, ProbeSpec(family, n), T) for n in (12, 20)
                 for family in (ProbeFamily.GHZ, ProbeFamily.DICKE_SYMMETRIC) for T in (1e-3, 1e-2)]
        stacks = self.recorded(monkeypatch, "parity_qfi", cells,
                               np.random.default_rng(79).uniform(0.0, math.pi, 5))
        assert len(stacks) == 8
        for m_even, m_odd, g, gap in stacks:
            assert gap is None  # rotated frames hold more than one block per sector
            base = parity_qfi(m_even.copy(), m_odd.copy(), g.copy())
            for i, arg in enumerate((m_even, m_odd, g)):
                for layout in self.layouts(arg):
                    args = [m_even, m_odd, g, gap]
                    args[i] = layout
                    assert np.array_equal(parity_qfi(*args), base)


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
