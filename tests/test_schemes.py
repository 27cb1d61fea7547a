import dataclasses
import math

import mpmath
import numpy as np
import pytest

from symqfi import schemes
from symqfi.collective_basis import (
    BipartiteSymmetricBasis,
    ProductState,
    PureState,
    SymmetricBasis,
    _sy_eigensystem,
    dicke_state,
    ghz_state,
    rotate_y,
)
from symqfi.dephasing import NoiseParams, phase_variance_c, spin_echo_weights_variance
from symqfi.qfi import frequency_from_phase, max_qfi_bound, spectral_qfi
from symqfi.schemes import (
    ProbeFamily,
    ProbeSpec,
    SchemeKind,
    SchemeSpec,
    _rotation_qfi,
    build_probe,
    optimize_rotation,
    scan,
    scheme_qfi,
)
from symqfi.steady_forms import SplitChoice, bsd_steady_qfi, ghz_qfi_analytic

import oracles

NOISE = NoiseParams(2 * math.pi * 50, 1.0)
STANDARD = SchemeSpec(SchemeKind.STANDARD, NOISE)
DI_IDEAL = SchemeSpec(SchemeKind.DI_IDEAL, NOISE)
DI_ECHO = SchemeSpec(SchemeKind.DI_SPIN_ECHO, NOISE)
DI_REPEAT = SchemeSpec(SchemeKind.DI_REPEAT, NOISE)


def oracle_variances(kind: SchemeKind, T: float) -> tuple[float, float, float]:
    """(var11, var12, var22) of the phase variance that kind's noise gives,
    from the package's variance functions; the oracle builds the kernel."""
    c = phase_variance_c(T, NOISE)
    if kind is SchemeKind.DI_SPIN_ECHO:
        v10, v01, v11 = (spin_echo_weights_variance(a, b, T, NOISE)
                         for a, b in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)))
        return v10, (v11 - v10 - v01) / 2, v01
    if kind is SchemeKind.DI_REPEAT:
        return c, 0.0, c
    return c, c, c


def split_sizes(basis) -> tuple[int, int]:
    """Partition sizes (n1, n2) of a basis, (0, n) for an unsplit one."""
    if isinstance(basis, BipartiteSymmetricBasis):
        return basis.n1, basis.n2
    return 0, basis.n


def dense_qfi(probe: PureState, scheme: SchemeSpec, T: float) -> float:
    """The dense oracle: full density matrix, the oracle's kernel, spectral_qfi."""
    rho = np.outer(probe.amplitudes, probe.amplitudes.conj())
    out = oracles.dephase_bipartite(rho, *split_sizes(probe.basis),
                                    *oracle_variances(scheme.kind, T))
    basis = probe.basis
    w = basis.z_weights() if scheme.kind is SchemeKind.STANDARD else basis.partition2_weights()
    return spectral_qfi(out, w)


def steady_qfi(probe: PureState) -> float:
    """Partition-2 QFI of a bipartite probe's block projection, the oracle's steady state."""
    rho = oracles.block_project(np.outer(probe.amplitudes, probe.amplitudes.conj()),
                                *split_sizes(probe.basis))
    return spectral_qfi(rho, probe.basis.partition2_weights())


def assert_matches_dense(probe: PureState, scheme: SchemeSpec, T: float):
    fast = scheme_qfi(probe, scheme, T)[0]
    ref = dense_qfi(probe, scheme, T)
    n = probe.basis.n
    assert abs(fast - ref) <= 1e-9 * abs(ref) + 1e-12 * n * n, (scheme.kind, probe.basis, T)


def oracle_cells(rng):
    """Every scheme and family at every split for n <= 9 and n = 12, 16, 24,
    unrotated and at a random angle (BSD excitation numbers drawn per split)."""
    for n in (*range(1, 10), 12, 16, 24):
        for alpha in (0.0, float(rng.uniform(0.0, math.pi))):
            yield STANDARD, ProbeSpec(ProbeFamily.GHZ, n, alpha=alpha)
            yield STANDARD, ProbeSpec(ProbeFamily.PRODUCT_PLUS, n, alpha=alpha)
            if n % 2 == 0:
                yield STANDARD, ProbeSpec(ProbeFamily.DICKE_SYMMETRIC, n, alpha=alpha)
            for scheme in (DI_IDEAL, DI_ECHO, DI_REPEAT):
                for n1 in range(1, n):
                    k1, k2 = int(rng.integers(n1 + 1)), int(rng.integers(n - n1 + 1))
                    yield scheme, ProbeSpec(ProbeFamily.GHZ_BIPARTITE, n, n1=n1, alpha=alpha)
                    yield scheme, ProbeSpec(ProbeFamily.PRODUCT_PLUS, n, n1=n1, alpha=alpha)
                    yield scheme, ProbeSpec(ProbeFamily.BSD, n, n1=n1, k1=k1, k2=k2,
                                            alpha=alpha)
                    if alpha == 0.0 and 2 * n1 == n:
                        yield scheme, ProbeSpec(ProbeFamily.DFS_OPTIMAL, n)


def judge_cells(rng):
    """Every scheme and family once at n <= 6 (dense dimension <= 16), at a
    random angle, split and BSD excitation numbers."""
    def angle():
        return float(rng.uniform(0.0, math.pi))

    for scheme in (STANDARD, DI_IDEAL, DI_ECHO, DI_REPEAT):
        if scheme is STANDARD:
            yield scheme, ProbeSpec(ProbeFamily.GHZ, int(rng.integers(2, 7)), alpha=angle())
            yield scheme, ProbeSpec(ProbeFamily.PRODUCT_PLUS, int(rng.integers(2, 7)),
                                    alpha=angle())
            yield scheme, ProbeSpec(ProbeFamily.DICKE_SYMMETRIC, 2 * int(rng.integers(1, 4)),
                                    alpha=angle())
        for family in (ProbeFamily.GHZ_BIPARTITE, ProbeFamily.PRODUCT_PLUS, ProbeFamily.BSD):
            n = int(rng.integers(2, 7))
            n1 = int(rng.integers(1, n))
            counts = (dict(k1=int(rng.integers(n1 + 1)), k2=int(rng.integers(n - n1 + 1)))
                      if family is ProbeFamily.BSD else {})
            yield scheme, ProbeSpec(family, n, n1=n1, alpha=angle(), **counts)
        yield scheme, ProbeSpec(ProbeFamily.DFS_OPTIMAL, 2 * int(rng.integers(1, 4)))


class TestProbeSpec:
    def test_bsd_requires_split_and_counts(self):
        with pytest.raises(ValueError):
            ProbeSpec(ProbeFamily.BSD, 8)
        with pytest.raises(ValueError):
            ProbeSpec(ProbeFamily.BSD, 8, n1=4)
        with pytest.raises(ValueError):
            ProbeSpec(ProbeFamily.BSD, 8, n1=4, k1=5, k2=2)

    def test_dicke_needs_even_count(self):
        with pytest.raises(ValueError):
            ProbeSpec(ProbeFamily.DICKE_SYMMETRIC, 7)

    def test_dfs_defaults_to_half_split(self):
        spec = ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8)
        assert spec.n1 == 4
        with pytest.raises(ValueError):
            ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8, n1=3)
        with pytest.raises(ValueError):
            ProbeSpec(ProbeFamily.DFS_OPTIMAL, 7)
        with pytest.raises(ValueError):
            ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8, alpha=0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ProbeSpec(ProbeFamily.GHZ, 4, alpha=bad)

    @pytest.mark.parametrize("bad", [True, False, np.True_, "0.1", None, 1j])
    def test_non_real_angle_rejected(self, bad):
        # a bool would reach the row as alpha=True, written as 1 or true
        with pytest.raises(ValueError, match="real number"):
            ProbeSpec(ProbeFamily.GHZ, 4, alpha=bad)

    def test_plain_families_reject_split(self):
        with pytest.raises(ValueError):
            ProbeSpec(ProbeFamily.GHZ, 8, n1=4)
        with pytest.raises(ValueError):
            ProbeSpec(ProbeFamily.GHZ, 8, k1=2)


class TestBuildProbe:
    def test_ghz_unrotated(self):
        probe = build_probe(ProbeSpec(ProbeFamily.GHZ, 8))
        np.testing.assert_allclose(probe.amplitudes, ghz_state(8).amplitudes)

    def test_dicke_probe_definition(self):
        probe = build_probe(ProbeSpec(ProbeFamily.DICKE_SYMMETRIC, 8))
        ref = rotate_y(dicke_state(8, 4), math.pi / 2)
        np.testing.assert_allclose(probe.amplitudes, ref.amplitudes, atol=1e-14)

    def test_dfs_state_amplitudes(self):
        probe = build_probe(ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8))
        amps = probe.amplitudes.reshape(5, 5)
        s = 1 / math.sqrt(2)
        assert amps[0, 4] == pytest.approx(s)
        assert amps[4, 0] == pytest.approx(s)
        assert np.count_nonzero(amps) == 2

    def test_rotated_ghz(self):
        probe = build_probe(ProbeSpec(ProbeFamily.GHZ, 8, alpha=0.3))
        ref = rotate_y(ghz_state(8), 0.3)
        np.testing.assert_allclose(probe.amplitudes, ref.amplitudes, atol=1e-14)

    def test_rotating_a_split_probe_keeps_its_factors(self):
        # so scheme_qfi takes partition 2's frame, as for the probe built at that angle
        for spec in (ProbeSpec(ProbeFamily.BSD, 8, n1=3, k1=1, k2=2),
                     ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 7, n1=4),
                     ProbeSpec(ProbeFamily.PRODUCT_PLUS, 6, n1=2)):
            for alpha in (0.3, 1.1):
                rotated = rotate_y(build_probe(spec), alpha)
                assert isinstance(rotated, ProductState)
                built = build_probe(dataclasses.replace(spec, alpha=alpha))
                for T in (1e-4, 1e-3, 1e-2):
                    assert scheme_qfi(rotated, DI_REPEAT, T)[0] == pytest.approx(
                        scheme_qfi(built, DI_REPEAT, T)[0], rel=1e-12)

    def test_product_split_matches_whole(self):
        # collective rotation factorizes, so the split product state is the
        # same physical state as the unsplit one
        whole = build_probe(ProbeSpec(ProbeFamily.PRODUCT_PLUS, 6, alpha=0.2))
        split = build_probe(ProbeSpec(ProbeFamily.PRODUCT_PLUS, 6, n1=2, alpha=0.2))
        basis = split.basis
        assert isinstance(basis, BipartiteSymmetricBasis)
        total = np.zeros(7, dtype=complex)
        block = split.amplitudes.reshape(3, 5)
        for q in range(3):
            for r in range(5):
                # Dicke overlap between split and joint excitation sectors
                w = math.sqrt(math.comb(2, q) * math.comb(4, r) / math.comb(6, q + r))
                total[q + r] += w * block[q, r]
        np.testing.assert_allclose(total, whole.amplitudes, atol=1e-12)


class TestSchemeQfi:
    def test_standard_ghz_matches_closed_form(self):
        probe = build_probe(ProbeSpec(ProbeFamily.GHZ, 8))
        for T in (0.0, 1e-4, 3e-3, 0.1):
            got = scheme_qfi(probe, STANDARD, T)[0]
            assert got == pytest.approx(ghz_qfi_analytic(8, T, NOISE),
                                        rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("family,kwargs,expected", [
        (ProbeFamily.GHZ_BIPARTITE, dict(n1=4), 16.0),
        (ProbeFamily.BSD, dict(n1=4, k1=2, k2=2), 12.0),
        (ProbeFamily.PRODUCT_PLUS, dict(n1=4), 4.0),
    ])
    def test_di_noiseless_values(self, family, kwargs, expected):
        probe = build_probe(ProbeSpec(family, 8, **kwargs))
        assert scheme_qfi(probe, DI_IDEAL, 0.0)[0] == pytest.approx(expected, rel=1e-9)

    def test_di_long_time_equals_steady_projection(self):
        for family, kwargs in ((ProbeFamily.GHZ_BIPARTITE, dict(n1=4)),
                               (ProbeFamily.BSD, dict(n1=4, k1=1, k2=3)),
                               (ProbeFamily.PRODUCT_PLUS, dict(n1=3))):
            probe = build_probe(ProbeSpec(family, 8, **kwargs))
            late = scheme_qfi(probe, DI_IDEAL, 50 * NOISE.tau_c)[0]
            assert late == pytest.approx(steady_qfi(probe), rel=1e-9, abs=1e-12)

    def test_di_steady_qfi_is_symmetric_under_partition_exchange(self):
        # m1 + m2 is fixed on a steady block, so Var(m1) = Var(m2) there; the
        # pipeline imports nothing from steady_forms, whose split optimizer
        # relies on this identity
        late = 50 * NOISE.tau_c
        for n in range(2, 9):
            for n1 in range(1, n):
                for k1 in range(n1 + 1):
                    for k2 in range(n - n1 + 1):
                        f = scheme_qfi(build_probe(ProbeSpec(
                            ProbeFamily.BSD, n, n1=n1, k1=k1, k2=k2)), DI_IDEAL, late)[0]
                        mirror = scheme_qfi(build_probe(ProbeSpec(
                            ProbeFamily.BSD, n, n1=n - n1, k1=k2, k2=k1)), DI_IDEAL, late)[0]
                        assert abs(f - mirror) <= 1e-12 * max(abs(f), 1.0), (n, n1, k1, k2)

    def test_dead_coherences_give_an_exact_zero(self):
        # at 50 tau_c every coherence between blocks is exactly 0, so the
        # state commutes with the generator: under standard its total z-spin
        # is constant on every excitation block, and under spin echo and
        # repeat a product probe is left with partition 2's Dicke states
        cells = []
        for alpha in (0.3, 0.7, 1.1, 2.4):
            for n in range(2, 9):
                cells += [(STANDARD, ProbeSpec(ProbeFamily.GHZ, n, alpha=alpha)),
                          (STANDARD, ProbeSpec(ProbeFamily.PRODUCT_PLUS, n, alpha=alpha))]
                if n % 2 == 0:
                    cells.append((STANDARD, ProbeSpec(ProbeFamily.DICKE_SYMMETRIC, n,
                                                      alpha=alpha)))
                for n1 in range(1, n):
                    specs = [ProbeSpec(ProbeFamily.GHZ_BIPARTITE, n, n1=n1, alpha=alpha),
                             ProbeSpec(ProbeFamily.PRODUCT_PLUS, n, n1=n1, alpha=alpha)]
                    specs += [ProbeSpec(ProbeFamily.BSD, n, n1=n1, k1=k1, k2=k2, alpha=alpha)
                              for k1 in range(n1 + 1) for k2 in range(n - n1 + 1)]
                    cells += [(scheme, spec) for scheme in (STANDARD, DI_ECHO, DI_REPEAT)
                              for spec in specs]
        assert len(cells) == 5616
        late = 50 * NOISE.tau_c
        nonzero = [(scheme.kind, spec) for scheme, spec in cells
                   if scheme_qfi(build_probe(spec), scheme, late) != (0.0, 0.0)]
        assert not nonzero, (len(nonzero), nonzero[:3])

    def test_di_needs_bipartite_probe(self):
        probe = build_probe(ProbeSpec(ProbeFamily.GHZ, 8))
        with pytest.raises(ValueError):
            scheme_qfi(probe, DI_IDEAL, 0.1)

    def test_frequency_of_a_dead_probe_is_zero_at_huge_times(self):
        # T^2 overflows to inf; inf * 0 would be NaN
        assert scheme_qfi(ghz_state(4), STANDARD, 1e300) == (0.0, 0.0)
        rows = scan(STANDARD, [ProbeSpec(ProbeFamily.GHZ, 4)], times=[1e300],
                    optimize_alpha=True)
        assert (rows[0].f_phase, rows[0].f_freq, rows[0].error) == (0.0, 0.0, None)
        assert frequency_from_phase(0.0, 1e300) == 0.0

    def test_frequency_is_time_squared(self):
        probe = build_probe(ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 8, n1=4))
        f_phase, f_freq = scheme_qfi(probe, DI_IDEAL, 3.0)
        assert f_freq == pytest.approx(9.0 * f_phase, rel=1e-12)


class TestFramesAgainstDense:
    """scheme_qfi diagonalizes in reduced frames; the dense oracle channels judge them."""

    def test_every_scheme_and_family_matches_the_dense_channels(self):
        # split rotatable probes carry their factors; under spin echo and
        # repeat a plain PureState copy of one takes the support frame instead
        rng = np.random.default_rng(2)
        for scheme, spec in oracle_cells(rng):
            T = float(10.0 ** rng.uniform(-5.0, math.log10(30.0)))
            probe = build_probe(spec)
            split = spec.n1 is not None and spec.family is not ProbeFamily.DFS_OPTIMAL
            assert isinstance(probe, ProductState) == split, spec
            assert_matches_dense(probe, scheme, T)
            if split and scheme in (DI_ECHO, DI_REPEAT) and spec.n <= 9:
                assert_matches_dense(PureState(probe.basis, probe.amplitudes), scheme, T)

    def test_every_scheme_and_family_matches_the_40_digit_judge(self):
        # the dense oracle above still takes its spectral step from the
        # package; this judge diagonalizes the oracle's matrix in mpmath,
        # with no floor on the pair sums
        for scheme, spec in judge_cells(np.random.default_rng(7)):
            probe = build_probe(spec)
            n1, n2 = split_sizes(probe.basis)
            q, r = oracles.bipartite_levels(n1, n2)
            g = q + r if scheme.kind is SchemeKind.STANDARD else r
            rho = np.outer(probe.amplitudes, probe.amplitudes.conj())
            for T in (1e-3, 0.1):
                dense = oracles.dephase_bipartite(rho, n1, n2, *oracle_variances(scheme.kind, T))
                ref = oracles.qfi_dense_mp(dense, g)
                fast = scheme_qfi(probe, scheme, T)[0]
                assert abs(fast - ref) <= 1e-10 * abs(ref) + 1e-12 * spec.n ** 2, \
                    (scheme.kind, spec, T, fast, ref)
        # a fig_time.csv cell whose tiny eigenvalue pairs only qfi.EPS_SUM's
        # floor keeps out: without it the QFI reads 1.3e-6 relative off, which
        # the absolute part of the tolerance above would swallow
        probe, T = build_probe(ProbeSpec(ProbeFamily.DICKE_SYMMETRIC, 8)), 0.011253355826007646
        q, r = oracles.bipartite_levels(0, 8)
        rho = np.outer(probe.amplitudes, probe.amplitudes.conj())
        ref = oracles.qfi_dense_mp(
            oracles.dephase_bipartite(rho, 0, 8, *oracle_variances(SchemeKind.STANDARD, T)), q + r)
        fast = scheme_qfi(probe, STANDARD, T)[0]
        assert abs(fast - ref) <= 1e-9 * abs(ref), (fast, ref)

    def test_complex_and_entangled_probes_match_the_dense_channels(self):
        rng = np.random.default_rng(5)
        for basis in (SymmetricBasis(5), BipartiteSymmetricBasis(2, 3),
                      BipartiteSymmetricBasis(4, 3)):
            schemes = (STANDARD,) if isinstance(basis, SymmetricBasis) \
                else (STANDARD, DI_IDEAL, DI_ECHO, DI_REPEAT)
            for _ in range(5):
                psi = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
                probe = PureState(basis, psi / np.linalg.norm(psi))
                for scheme in schemes:
                    for T in (0.0, 3e-4, 3e-3, 1.0):
                        assert_matches_dense(probe, scheme, T)

    def test_phases_on_a_product_modulus_match_the_dense_channels(self):
        # entangled through its signs only, and a plain PureState, so it takes
        # the support frame; a diagonal phase commutes with the noise and the
        # generator, so its QFI is that of the product of its moduli
        rng = np.random.default_rng(7)
        basis = BipartiteSymmetricBasis(3, 4)
        a, b = rng.uniform(0.1, 1.0, size=4), rng.uniform(0.1, 1.0, size=5)
        modulus = np.kron(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        probe = PureState(basis, modulus * rng.choice([-1.0, 1.0], size=basis.dimension))
        for scheme in (DI_ECHO, DI_REPEAT):
            for T in (1e-4, 1e-3, 1e-2):
                assert_matches_dense(probe, scheme, T)

    def test_spin_echo_and_repeat_ghz_pair_decay_like_partition_2(self):
        for scheme in (DI_ECHO, DI_REPEAT):
            for n, n1 in ((8, 4), (9, 2), (30, 13), (60, 35)):
                n2 = n - n1
                probe = build_probe(ProbeSpec(ProbeFamily.GHZ_BIPARTITE, n, n1=n1))
                for T in np.logspace(-6, 0, 13):
                    c = phase_variance_c(float(T), NOISE)
                    assert scheme_qfi(probe, scheme, float(T))[0] == pytest.approx(
                        n2 * n2 * math.exp(-n2 * n2 * c), rel=1e-9, abs=1e-12 * n * n)

    @pytest.mark.parametrize("n", [80, 120, 200])
    def test_di_ideal_plateau_matches_bsd_closed_form(self, n):
        for n1, k1, k2 in ((n // 2, n // 4, n // 4), (n // 3, n // 6, n // 2),
                           (n // 4, 1, n // 3)):
            probe = build_probe(ProbeSpec(ProbeFamily.BSD, n, n1=n1, k1=k1, k2=k2))
            late = scheme_qfi(probe, DI_IDEAL, 50 * NOISE.tau_c)[0]
            closed = bsd_steady_qfi(SplitChoice(n, n1, k1, k1 + k2))
            assert late == pytest.approx(closed, rel=1e-9, abs=1e-12 * n * n)

    @pytest.mark.parametrize("n", range(2, 81, 2))
    def test_dfs_optimal_support_frame(self, n):
        # (q, r) = (0, h) and (h, 0) with h = n/2: one coherence, scaled by
        # exp(-Var/2); the per-basis-vector frame far beyond the dense oracle
        h = n // 2
        probe = build_probe(ProbeSpec(ProbeFamily.DFS_OPTIMAL, n))
        for T in (0.0, 1e-4, 1e-3, 0.01, 1.0, 25.0):
            assert scheme_qfi(probe, DI_IDEAL, T)[0] == pytest.approx(h * h, abs=1e-10)
            variances = {DI_ECHO: spin_echo_weights_variance(h, -h, T, NOISE),
                         DI_REPEAT: 2.0 * h * h * phase_variance_c(T, NOISE)}
            for scheme, var in variances.items():
                assert scheme_qfi(probe, scheme, T)[0] == pytest.approx(
                    h * h * math.exp(-var), rel=1e-12, abs=1e-12)

    def test_uneven_ghz_pairs_never_negative(self):
        times = [0.0, *np.logspace(-5, 1.5, 25)]
        for n in range(3, 13):
            for n1 in range(1, n):
                if 2 * n1 == n:
                    continue
                for alpha in (0.0, 0.7):
                    probe = build_probe(ProbeSpec(ProbeFamily.GHZ_BIPARTITE, n, n1=n1,
                                                  alpha=alpha))
                    assert all(scheme_qfi(probe, DI_IDEAL, float(T))[0] >= 0.0
                               for T in times)


class TestOptimizeRotation:
    def test_product_angle_is_zero(self):
        for T in np.logspace(-4, 0, 10):
            alpha, _ = optimize_rotation(ProbeSpec(ProbeFamily.PRODUCT_PLUS, 8), STANDARD,
                                         float(T))
            assert alpha == 0.0

    def test_ghz_noiseless_maximum(self):
        alpha, f = optimize_rotation(ProbeSpec(ProbeFamily.GHZ, 8), STANDARD, 0.0)
        assert alpha == 0.0
        assert f == pytest.approx(64.0, rel=1e-9)

    def test_ghz_regression_at_finite_time(self):
        # engine regression numbers, locked from a dense-grid run
        alpha, f = optimize_rotation(ProbeSpec(ProbeFamily.GHZ, 8), STANDARD, 0.01)
        assert alpha > 1e-3
        assert alpha == pytest.approx(0.8969288749493659, abs=1e-5)
        assert f == pytest.approx(0.011752786210922472, rel=1e-7)

    def test_spec_angle_is_ignored(self):
        rotated = ProbeSpec(ProbeFamily.GHZ, 8, alpha=0.7)
        assert optimize_rotation(rotated, STANDARD, 0.01) == \
            optimize_rotation(ProbeSpec(ProbeFamily.GHZ, 8), STANDARD, 0.01)

    def test_dfs_has_no_angle(self):
        with pytest.raises(ValueError):
            optimize_rotation(ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8), DI_IDEAL, 0.0)

    def test_optimum_reaches_the_brute_force_maximum(self):
        # judge of the grid search and its stacked refinement: the maximum over a
        # 20001-point grid, at small frames so the grids stay cheap
        alphas = np.linspace(0.0, math.pi / 2, 20001)
        cells = [(STANDARD, ProbeSpec(ProbeFamily.GHZ, 8)),
                 (STANDARD, ProbeSpec(ProbeFamily.DICKE_SYMMETRIC, 6)),
                 (STANDARD, ProbeSpec(ProbeFamily.PRODUCT_PLUS, 5))]
        for scheme in (STANDARD, DI_IDEAL, DI_ECHO, DI_REPEAT):
            cells += [(scheme, ProbeSpec(ProbeFamily.BSD, 5, n1=2, k1=1, k2=2)),
                      (scheme, ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 5, n1=2)),
                      (scheme, ProbeSpec(ProbeFamily.PRODUCT_PLUS, 5, n1=3))]
        for scheme, spec in cells:
            for T in (3e-4, 3e-3, 0.03):
                brute = float(_rotation_qfi(spec, scheme, T)(alphas).max())
                _, f = optimize_rotation(spec, scheme, T)
                assert f >= brute - (1e-9 * abs(f) + 1e-11 * spec.n ** 2), (scheme.kind, spec, T)

    def test_result_is_within_the_window_of_the_grid_maximum(self):
        # the grid point before the first near-maximal one lies below the
        # window of the grid maximum, and must not win as the smallest angle
        alphas = np.linspace(0.0, math.pi / 2, 201)
        cells = [(STANDARD, ProbeSpec(ProbeFamily.GHZ, n)) for n in (4, 8, 11, 16)]
        cells += [(scheme, ProbeSpec(ProbeFamily.GHZ_BIPARTITE, n, n1=n // 2))
                  for scheme in (DI_ECHO, DI_REPEAT) for n in (8, 12)]
        for scheme, spec in cells:
            for T in (0.019, 0.02, 0.021):
                g_max = float(_rotation_qfi(spec, scheme, T)(alphas).max())
                _, f = optimize_rotation(spec, scheme, T)
                assert f >= g_max - (1e-9 * g_max + 1e-11 * spec.n ** 2), (scheme.kind, spec, T)

    def test_decohered_landscape_ties_to_zero(self):
        # every grid value is rounding noise below the absolute part of the
        # tie window, 1e-11 n^2, and the largest sits near pi/2
        values = _rotation_qfi(ProbeSpec(ProbeFamily.PRODUCT_PLUS, 12), STANDARD, 0.05)(
            np.linspace(0.0, math.pi / 2, 201))
        assert 0.0 < values.max() < 1e-11 * 12 ** 2
        assert int(np.argmax(values)) > 100
        alpha, f = optimize_rotation(ProbeSpec(ProbeFamily.PRODUCT_PLUS, 12), STANDARD, 0.05)
        assert alpha == 0.0
        assert f == values[0]

    @pytest.mark.parametrize("rise, first", [(5e-10, True), (5e-9, False)])
    def test_flat_top_ties_to_its_first_angle(self, monkeypatch, rise, first):
        # a plateau of 100 on [0.5, 1.1] rising by rise relative to a peak at
        # 0.8: within the relative window 1e-9 it is one tie and its first
        # grid point wins; above it, the first point near the peak does
        def landscape(spec, scheme, T):
            def evaluate(alphas):
                a = np.asarray(alphas, dtype=float)
                top = 100.0 * (1.0 + rise * (1.0 - (a - 0.8) ** 2 / 0.09))
                return np.where((a >= 0.5) & (a <= 1.1), top, 10.0)
            return evaluate

        monkeypatch.setattr(schemes, "_rotation_qfi", landscape)
        alpha, f = optimize_rotation(ProbeSpec(ProbeFamily.GHZ, 8), STANDARD, 0.01)
        grid = np.linspace(0.0, math.pi / 2, 201)
        if first:
            assert alpha == grid[grid >= 0.5][0]
        else:
            assert 0.6 < alpha < 0.8
            assert alpha in grid
        assert f == landscape(None, None, None)(np.array([alpha]))[0]

    @pytest.mark.parametrize("landscape, target, rounds", [
        (lambda a: 100.0 - 50.0 * (a - 0.6032) ** 2, 0.6032, 7),  # a peak between grid points
        (lambda a: 10.0 + a, math.pi / 2, 7),  # rising up to the end of the range
        (np.zeros_like, 0.0, 1),  # fully dephased: one round holds no maximum to narrow down
        (lambda a: 100.0 - a, 0.0, 1),  # falls from zero: one round below F(0) settles it
    ], ids=["off-grid-peak", "rising-edge", "flat", "falls-from-zero"])
    def test_refinement_precision_and_call_budget(self, monkeypatch, landscape, target, rounds):
        # after the grid, a few stacked rounds reach the optimum within the
        # search tolerance, without one-angle calls and never past pi/2
        sizes = []

        def evaluator(spec, scheme, T):
            def evaluate(alphas):
                sizes.append(len(alphas))
                return landscape(np.asarray(alphas, dtype=float))
            return evaluate

        monkeypatch.setattr(schemes, "_rotation_qfi", evaluator)
        alpha, f = optimize_rotation(ProbeSpec(ProbeFamily.GHZ, 8), STANDARD, 0.01)
        assert abs(alpha - target) <= 1e-6
        assert alpha <= math.pi / 2
        assert f == landscape(np.array([alpha]))[0]
        assert sizes == [201] + [7] * rounds

    def test_fully_dephased_cells_skip_eigh(self, monkeypatch):
        # every frame of these cells is exactly diagonal, with v = None; the
        # rotations' cached Sy eigensystems are taken before counting
        for n in (12, 4):
            _sy_eigensystem(n)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
        assert optimize_rotation(ProbeSpec(ProbeFamily.GHZ, 12), STANDARD, 2.0) == (0.0, 0.0)
        probe = build_probe(ProbeSpec(ProbeFamily.PRODUCT_PLUS, 8, n1=4, alpha=0.3))
        assert scheme_qfi(probe, DI_ECHO, 2.0) == (0.0, 0.0)
        assert calls == []

    def test_no_peak_beside_zero_escapes_the_first_round(self):
        # premise of the one-round stop at alpha = 0: where the grid's first
        # near-maximal angle is 0, no angle of a fine grid over the first
        # round's bracket [0, pi/400] reads above F(0) plus its tie window
        grid = np.linspace(0.0, math.pi / 2, 201)
        fine = np.linspace(0.0, math.pi / 400, 513)
        cells = [(STANDARD, ProbeSpec(family, n)) for n in (8, 16, 24, 32)
                 for family in (ProbeFamily.GHZ, ProbeFamily.DICKE_SYMMETRIC,
                                ProbeFamily.PRODUCT_PLUS)]
        cells += [(scheme, spec) for scheme in (DI_IDEAL, DI_ECHO, DI_REPEAT) for n in (8, 12)
                  for spec in (ProbeSpec(ProbeFamily.GHZ_BIPARTITE, n, n1=n // 2),
                               ProbeSpec(ProbeFamily.PRODUCT_PLUS, n, n1=n // 2),
                               ProbeSpec(ProbeFamily.BSD, n, n1=n // 2, k1=n // 4, k2=n // 4),
                               ProbeSpec(ProbeFamily.BSD, n, n1=n // 4, k1=1, k2=n // 2))]
        checked = 0
        for scheme, spec in cells:
            def window(f):
                return 1e-9 * abs(f) + 1e-11 * spec.n ** 2

            for T in (1e-4, 1e-3, 1e-2, 0.02):
                evaluate = _rotation_qfi(spec, scheme, T)
                values = evaluate(grid)
                f_max = float(values.max())
                if values[0] < f_max - window(f_max):
                    continue  # the first near-maximal grid angle is not 0
                checked += 1
                f_zero = float(values[0])
                assert evaluate(fine).max() <= f_zero + window(f_zero), (scheme.kind, spec, T)
        assert checked >= 90

    def test_refinement_beats_grid(self, monkeypatch):
        spec = ProbeSpec(ProbeFamily.GHZ, 8)
        monkeypatch.setattr(schemes, "_GRID_ANGLES", 41)
        alpha_c, f_c = optimize_rotation(spec, STANDARD, 0.001)
        monkeypatch.setattr(schemes, "_GRID_ANGLES", 401)
        alpha_f, f_f = optimize_rotation(spec, STANDARD, 0.001)
        assert f_c <= f_f + 1e-9 * f_f
        assert abs(alpha_c - alpha_f) < 2e-3


def rotatable_cells(rng, sizes):
    """Every rotatable family under every kind that takes it: the unsplit
    families under STANDARD and the bipartite ones at every split under all
    four kinds (BSD excitation numbers drawn per split)."""
    for n in sizes:
        yield STANDARD, ProbeSpec(ProbeFamily.GHZ, n)
        yield STANDARD, ProbeSpec(ProbeFamily.PRODUCT_PLUS, n)
        if n % 2 == 0:
            yield STANDARD, ProbeSpec(ProbeFamily.DICKE_SYMMETRIC, n)
        for n1 in range(1, n):
            k1, k2 = int(rng.integers(n1 + 1)), int(rng.integers(n - n1 + 1))
            for scheme in (STANDARD, DI_IDEAL, DI_ECHO, DI_REPEAT):
                yield scheme, ProbeSpec(ProbeFamily.GHZ_BIPARTITE, n, n1=n1)
                yield scheme, ProbeSpec(ProbeFamily.PRODUCT_PLUS, n, n1=n1)
                yield scheme, ProbeSpec(ProbeFamily.BSD, n, n1=n1, k1=k1, k2=k2)


def assert_evaluator_matches_pipeline(spec: ProbeSpec, scheme: SchemeSpec, T: float,
                                      alphas: np.ndarray):
    stacked = _rotation_qfi(spec, scheme, T)(alphas)
    n = spec.n
    for alpha, value in zip(alphas, stacked):
        probe = build_probe(dataclasses.replace(spec, alpha=float(alpha)))
        ref = scheme_qfi(probe, scheme, T)[0]
        assert abs(value - ref) <= 1e-9 * abs(ref) + 1e-12 * n * n, (scheme.kind, spec, T, alpha)


class TestRotationEvaluator:
    """optimize_rotation evaluates all angles of a cell in one stacked pass;
    scheme_qfi(build_probe(spec)) at each angle is its oracle."""

    def test_matches_the_pipeline_at_every_split(self):
        rng = np.random.default_rng(13)
        for scheme, spec in rotatable_cells(rng, range(1, 10)):
            T = float(10.0 ** rng.uniform(-5.0, math.log10(30.0)))
            alphas = np.array([0.0, math.pi / 2, *rng.uniform(0.0, math.pi, 3)])
            assert_evaluator_matches_pipeline(spec, scheme, T, alphas)

    def test_chunked_grid_matches_the_pipeline(self):
        # frames of 41, 31 and 41 blocks take 9, 17 and 9 angles per chunk
        alphas = np.linspace(0.0, math.pi / 2, 23)
        for scheme, spec in ((STANDARD, ProbeSpec(ProbeFamily.DICKE_SYMMETRIC, 40)),
                             (DI_IDEAL, ProbeSpec(ProbeFamily.BSD, 30, n1=13, k1=4, k2=9)),
                             (DI_REPEAT, ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 70, n1=30))):
            for T in (3e-4, 3e-3):
                assert_evaluator_matches_pipeline(spec, scheme, T, alphas)

    def test_scan_reproduces_the_evaluator_bit_for_bit(self):
        # one rotation kernel: at a grid angle alpha != 0, and at the optimizer's
        # alpha != 0, scan's value is the stacked evaluator's exactly.  At alpha = 0
        # a GHZ probe occupies a few blocks only, and the stack pads its frame
        # with the blocks other angles occupy: those cells agree to a bound
        # measured over 2 000 of them (2.7e-13 |F| where F > 1e-6, 4.9e-19 below)
        rng = np.random.default_rng(11)
        classes = {}
        for scheme, spec in rotatable_cells(rng, (2, 5, 8, 12, 17, 24)):
            key = (scheme.kind, spec.family, spec.n1 is None)
            classes.setdefault(key, []).append((scheme, spec))
        assert len(classes) == 15  # 3 unsplit families, 3 split ones under 4 kinds
        grid = np.linspace(0.0, math.pi / 2, 201)
        compared = optimized = 0
        for cells in classes.values():
            for pick in rng.choice(len(cells), min(8, len(cells)), replace=False):
                scheme, spec = cells[pick]
                T = float(10.0 ** rng.uniform(-4.0, math.log10(3e-2)))
                values = _rotation_qfi(spec, scheme, T)(grid)
                at = rng.choice(np.arange(1, len(grid)), 4, replace=False)
                rows = scan(scheme, [dataclasses.replace(spec, alpha=float(grid[i])) for i in at],
                            [T])
                assert [row.f_phase for row in rows] == list(values[at]), (scheme.kind, spec, T)
                compared += len(at)
                f_zero = scan(scheme, [spec], [T])[0].f_phase
                assert abs(f_zero - values[0]) <= 1e-12 * abs(f_zero) + 1e-18, (spec, T)
                alpha, f_opt = optimize_rotation(spec, scheme, T)
                if alpha != 0.0:
                    optimized += 1
                    probe = dataclasses.replace(spec, alpha=alpha)
                    assert scan(scheme, [probe], [T])[0].f_phase == f_opt, (scheme.kind, spec, T)
        assert compared == 448 and optimized >= 25

    @pytest.mark.parametrize("scheme", [DI_IDEAL, DI_ECHO, DI_REPEAT])
    def test_unsplit_probe_is_an_error_row(self, scheme):
        probes = [ProbeSpec(ProbeFamily.GHZ, 6), ProbeSpec(ProbeFamily.PRODUCT_PLUS, 6),
                  ProbeSpec(ProbeFamily.DICKE_SYMMETRIC, 6)]
        rows = scan(scheme, probes, times=[0.01], optimize_alpha=True)
        for row in rows:
            assert row.error == f"{scheme.kind.value} requires a bipartite probe"
            assert math.isnan(row.f_phase) and math.isnan(row.f_freq)


def parity_cells(rng, sizes):
    """Every family and kind whose frames split into parity sectors: under
    STANDARD, GHZ and Dicke probes and their even splits; under spin echo and
    repeat, a GHZ or k2 = n2/2 Dicke partition 2 of even size (split drawn per n)."""
    for n in sizes:
        if n % 2 == 0:
            yield STANDARD, ProbeSpec(ProbeFamily.GHZ, n)
            yield STANDARD, ProbeSpec(ProbeFamily.DICKE_SYMMETRIC, n)
            if n >= 4:
                n1 = 2 * int(rng.integers(1, n // 2))
                yield STANDARD, ProbeSpec(ProbeFamily.GHZ_BIPARTITE, n, n1=n1)
                yield STANDARD, ProbeSpec(ProbeFamily.BSD, n, n1=n1, k1=n1 // 2, k2=(n - n1) // 2)
        if n >= 3:
            for scheme in (DI_ECHO, DI_REPEAT):
                n2 = 2 * int(rng.integers(1, (n - 1) // 2 + 1))
                n1 = n - n2
                yield scheme, ProbeSpec(ProbeFamily.GHZ_BIPARTITE, n, n1=n1)
                yield scheme, ProbeSpec(ProbeFamily.BSD, n, n1=n1, k1=int(rng.integers(n1 + 1)),
                                        k2=n2 // 2)


def count_calls(monkeypatch, name):
    calls = []
    real = getattr(schemes, name)
    monkeypatch.setattr(schemes, name, lambda *args: calls.append(1) or real(*args))
    return calls


class TestParitySectors:
    """Probes that the collective pi rotation about y maps to themselves: their
    frames split into the reflection's even and odd sectors, taken by
    parity_qfi.  The full frame, scheme_qfi on the same rotated amplitudes,
    is the oracle."""

    def test_census_matches_the_full_frame(self, monkeypatch):
        rng = np.random.default_rng(23)
        calls = count_calls(monkeypatch, "parity_qfi")
        times = np.geomspace(1e-5, 10.0, 7)
        compared = 0
        for scheme, spec in parity_cells(rng, range(2, 25)):
            for T in times:
                rotated = dataclasses.replace(spec, alpha=float(rng.uniform(0.0, math.pi)))
                sector = scan(scheme, [rotated], [float(T)])[0].f_phase
                full = scheme_qfi(build_probe(rotated), scheme, float(T))[0]
                assert abs(sector - full) <= 1e-11 * abs(full) + 1e-13 * spec.n ** 2, \
                    (scheme.kind, rotated, T, sector, full)
                compared += 1
        assert compared == len(calls) == 938

    def test_other_cells_take_the_full_frame(self, monkeypatch):
        calls = count_calls(monkeypatch, "parity_qfi")
        cells = [(STANDARD, ProbeSpec(ProbeFamily.PRODUCT_PLUS, 8)),
                 (STANDARD, ProbeSpec(ProbeFamily.GHZ, 7)),
                 (STANDARD, ProbeSpec(ProbeFamily.GHZ, 9)),
                 (STANDARD, ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 8, n1=3)),
                 (STANDARD, ProbeSpec(ProbeFamily.BSD, 8, n1=4, k1=1, k2=2))]
        for scheme in (DI_IDEAL, DI_ECHO, DI_REPEAT):
            cells += [(scheme, ProbeSpec(ProbeFamily.PRODUCT_PLUS, 8, n1=4)),
                      (scheme, ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 8, n1=3)),
                      (scheme, ProbeSpec(ProbeFamily.BSD, 8, n1=4, k1=2, k2=1))]
        cells += [(DI_IDEAL, ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 8, n1=4)),
                  (DI_IDEAL, ProbeSpec(ProbeFamily.BSD, 8, n1=4, k1=2, k2=2))]
        for scheme, spec in cells:
            for alpha in (0.0, 0.7):
                scan(scheme, [dataclasses.replace(spec, alpha=alpha)], [1e-3, 1e-2])
            optimize_rotation(spec, scheme, 3e-3)
        for scheme in (STANDARD, DI_IDEAL, DI_ECHO, DI_REPEAT):
            scan(scheme, [ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8)], [1e-3, 1e-2])
        assert calls == []
        # and the cells beside them do take the sectors
        for scheme, spec in ((STANDARD, ProbeSpec(ProbeFamily.GHZ, 8)),
                             (DI_ECHO, ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 8, n1=4)),
                             (DI_REPEAT, ProbeSpec(ProbeFamily.BSD, 8, n1=4, k1=1, k2=2))):
            scan(scheme, [spec], [1e-3])
        assert len(calls) == 3

    def test_unrotated_standard_ghz_meets_the_decay_law(self, monkeypatch):
        # at alpha = 0 the sectors are 1 x 1: (1 +- exp(-C n^2 / 2)) / 2
        calls = count_calls(monkeypatch, "parity_qfi")
        for n in (2, 8, 16, 40):
            for T in (0.0, 1e-5, 1e-4, 3e-4, 1e-3, 3e-3, 0.1):
                got = scan(STANDARD, [ProbeSpec(ProbeFamily.GHZ, n)], [T])[0].f_phase
                assert got == pytest.approx(ghz_qfi_analytic(n, T, NOISE),
                                            rel=1e-9, abs=1e-12 * n * n), (n, T)
        assert len(calls) == 28

    def test_both_routes_against_the_30_digit_judge(self):
        # rotated standard GHZ and Dicke probes, the rotation, C(T), the kernel
        # and the eigensystem all at 30 digits; worst relative deviation
        # measured: 1.1e-10 for both routes where F > 1e-6, and 6.8e-9 for the
        # sectors against 9.5e-8 for the full frame at F ~ 1e-19 (T = 0.03)
        rng = np.random.default_rng(17)
        for n in (12, 16, 20):
            ghz, dicke = [0] * (n + 1), [0] * (n + 1)
            ghz[0] = ghz[n] = mpmath.sqrt(mpmath.mpf(1) / 2)
            dicke[n // 2] = 1
            for family, amps, offset in ((ProbeFamily.GHZ, ghz, 0.0),
                                         (ProbeFamily.DICKE_SYMMETRIC, dicke, math.pi / 2)):
                for T in (1e-3, 1e-2, 3e-2):
                    for alpha in rng.uniform(0.05, math.pi / 2, 2):
                        spec = ProbeSpec(family, n, alpha=float(alpha))
                        ref = float(oracles.collective_qfi_mp(amps, offset + float(alpha), T,
                                                              NOISE.gamma_delta_b, NOISE.tau_c))
                        rtol = 1e-9 if ref > 1e-6 else 1e-6
                        for got in (scan(STANDARD, [spec], [T])[0].f_phase,
                                    scheme_qfi(build_probe(spec), STANDARD, T)[0]):
                            assert abs(got - ref) <= rtol * ref, (family, n, T, alpha, got, ref)


class TestScan:
    def test_single_cell(self):
        rows = scan(STANDARD, [ProbeSpec(ProbeFamily.GHZ, 4)], times=[0.0])
        assert len(rows) == 1
        assert rows[0].f_phase == pytest.approx(16.0, rel=1e-9)
        assert rows[0].error is None

    def test_probe_major_time_minor_order(self):
        probes = [ProbeSpec(ProbeFamily.GHZ, 4), ProbeSpec(ProbeFamily.PRODUCT_PLUS, 4)]
        rows = scan(STANDARD, probes, times=[0.0, 0.1])
        assert [(r.family, r.T) for r in rows] == [
            ("ghz", 0.0), ("ghz", 0.1), ("product_plus", 0.0), ("product_plus", 0.1)]

    def test_cell_errors_flagged_not_raised(self):
        probes = [ProbeSpec(ProbeFamily.GHZ, 4), ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 4, n1=2)]
        rows = scan(DI_IDEAL, probes, times=[0.1])
        assert math.isnan(rows[0].f_phase) and rows[0].error is not None
        assert rows[1].error is None

    @pytest.mark.parametrize("scheme, spec, twin", [
        (STANDARD, ProbeSpec(ProbeFamily.GHZ, 8), ProbeSpec(ProbeFamily.GHZ, np.int64(8))),
        (DI_IDEAL, ProbeSpec(ProbeFamily.BSD, 8, n1=4, k1=2, k2=2),
         ProbeSpec(ProbeFamily.BSD, np.int64(8), n1=np.int64(4), k1=np.int32(2), k2=np.uint8(2))),
    ])
    def test_numpy_integer_counts_scan_like_ints(self, scheme, spec, twin):
        rows, twin_rows = scan(scheme, [spec], [0.0, 0.01]), scan(scheme, [twin], [0.0, 0.01])
        assert [r.error for r in twin_rows] == [None, None]
        assert [r.f_phase for r in twin_rows] == [r.f_phase for r in rows]

    def test_negative_time_flagged(self):
        rows = scan(STANDARD, [ProbeSpec(ProbeFamily.GHZ, 4)], times=[-1.0, 0.0])
        assert rows[0].error is not None
        assert rows[1].error is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_time_raises(self, bad):
        with pytest.raises(ValueError, match="finite"):
            scan(STANDARD, [ProbeSpec(ProbeFamily.GHZ, 4)], times=[0.1, bad])

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            scan(STANDARD, [], times=[0.1])
        with pytest.raises(ValueError):
            scan(STANDARD, [ProbeSpec(ProbeFamily.GHZ, 4)], times=[])

    @pytest.mark.parametrize("kind", [SchemeKind.DI_IDEAL, SchemeKind.DI_SPIN_ECHO,
                                      SchemeKind.DI_REPEAT])
    def test_overflowing_noise_variance_flagged(self, kind):
        # (gamma_delta_b tau_c)^2 = 1e300 is finite, C(1e10) is not, and a
        # kernel entry exp(-0 * inf / 2) would be NaN
        scheme = SchemeSpec(kind, NoiseParams(1e150, 1.0))
        rows = scan(scheme, [ProbeSpec(ProbeFamily.DFS_OPTIMAL, 6)], times=[1.0, 1e10])
        assert rows[0].error is None
        assert math.isnan(rows[1].f_phase) and "overflows" in rows[1].error

    @pytest.mark.parametrize("kind", [SchemeKind.DI_SPIN_ECHO, SchemeKind.DI_REPEAT])
    def test_overflowing_kernel_exponent_gives_zero(self, kind):
        # C(1e7) ~ 1e307 is finite, C * 4^2 is not: every coherence of the
        # probe is exactly exp(-inf) = 0, so the cell is a valid zero
        scheme = SchemeSpec(kind, NoiseParams(1e150, 1.0))
        rows = scan(scheme, [ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8)], times=[1e7])
        assert (rows[0].f_phase, rows[0].f_freq, rows[0].error) == (0.0, 0.0, None)

    def test_optimized_scan_records_angle(self):
        rows = scan(STANDARD, [ProbeSpec(ProbeFamily.GHZ, 8)], times=[0.01],
                    optimize_alpha=True)
        assert rows[0].alpha_optimized
        assert rows[0].alpha == pytest.approx(0.8969288749493659, abs=1e-4)

    def test_spin_echo_rows_decay(self):
        probe = ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 8, n1=4)
        rows = scan(DI_ECHO, [probe], times=list(np.logspace(-5, 1, 25)))
        values = [r.f_phase for r in rows]
        assert values[-1] < 1e-3 * values[0]


@pytest.fixture(scope="module")
def curves():
    """Phase QFI over 25 log-spaced times for every scheme and family at
    n <= 8, unrotated and at alpha = 0.4, with the generator's bound.
    BSD takes one balanced and one uneven excitation pair per split."""
    times = np.logspace(-5, 1, 25)
    out = []
    for n in range(1, 9):
        for alpha in (0.0, 0.4):
            cells = [(STANDARD, ProbeSpec(ProbeFamily.GHZ, n, alpha=alpha)),
                     (STANDARD, ProbeSpec(ProbeFamily.PRODUCT_PLUS, n, alpha=alpha))]
            if n % 2 == 0:
                cells.append((STANDARD, ProbeSpec(ProbeFamily.DICKE_SYMMETRIC, n, alpha=alpha)))
            for scheme in (DI_IDEAL, DI_ECHO, DI_REPEAT):
                for n1 in range(1, n):
                    n2 = n - n1
                    cells += [(scheme, ProbeSpec(ProbeFamily.GHZ_BIPARTITE, n, n1=n1, alpha=alpha)),
                              (scheme, ProbeSpec(ProbeFamily.PRODUCT_PLUS, n, n1=n1, alpha=alpha)),
                              (scheme, ProbeSpec(ProbeFamily.BSD, n, n1=n1, k1=n1 // 2,
                                                 k2=n2 // 2, alpha=alpha)),
                              (scheme, ProbeSpec(ProbeFamily.BSD, n, n1=n1, k1=0,
                                                 k2=(n2 + 1) // 2, alpha=alpha))]
                if alpha == 0.0 and n % 2 == 0:
                    cells.append((scheme, ProbeSpec(ProbeFamily.DFS_OPTIMAL, n)))
            for scheme, spec in cells:
                probe = build_probe(spec)
                bound = max_qfi_bound(probe.basis.z_weights() if scheme is STANDARD
                                      else probe.basis.partition2_weights())
                values = [scheme_qfi(probe, scheme, float(t))[0] for t in times]
                out.append((scheme, spec, values, bound))
    return out


class TestSchemeProperties:
    def test_phase_qfi_nonincreasing_in_time(self, curves):
        # Gaussian dephasing composes and commutes with the generator for
        # these kinds, so a later state is a processed earlier one
        kinds = set()
        for scheme, spec, values, _ in curves:
            if scheme is DI_ECHO:
                continue
            kinds.add(scheme.kind)
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-12 * a, (scheme.kind, spec)
        assert kinds == {SchemeKind.STANDARD, SchemeKind.DI_IDEAL, SchemeKind.DI_REPEAT}

    def test_qfi_within_generator_bound(self, curves):
        assert {scheme.kind for scheme, *_ in curves} == set(SchemeKind)
        for scheme, spec, values, bound in curves:
            assert max(values) <= bound * (1 + 1e-12), (scheme.kind, spec)

    def test_rotation_symmetry_about_half_pi(self):
        for alpha in (0.2, 0.9, 1.4):
            f1 = scheme_qfi(build_probe(ProbeSpec(ProbeFamily.GHZ, 8, alpha=alpha)),
                            STANDARD, 1e-3)[0]
            f2 = scheme_qfi(build_probe(ProbeSpec(ProbeFamily.GHZ, 8,
                                                  alpha=math.pi - alpha)),
                            STANDARD, 1e-3)[0]
            assert f1 == pytest.approx(f2, rel=1e-9, abs=1e-9)

    def test_small_time_ordering(self):
        # optimized GHZ leads, optimized Dicke next, bare product last; holds
        # up to the GHZ/Dicke crossing near T ~ 6e-4 at these parameters
        for T in (1e-4, 2e-4, 4e-4):
            f_ghz = optimize_rotation(ProbeSpec(ProbeFamily.GHZ, 8), STANDARD, T)[1]
            f_dicke = optimize_rotation(ProbeSpec(ProbeFamily.DICKE_SYMMETRIC, 8),
                                        STANDARD, T)[1]
            f_prod = scheme_qfi(build_probe(ProbeSpec(ProbeFamily.PRODUCT_PLUS, 8)),
                                STANDARD, T)[0]
            assert f_ghz >= f_dicke >= f_prod

    def test_standard_frequency_has_interior_maximum(self):
        times = np.logspace(-5, 1, 40)
        probe = build_probe(ProbeSpec(ProbeFamily.GHZ, 8))
        freqs = [scheme_qfi(probe, STANDARD, float(t))[1] for t in times]
        peak = int(np.argmax(freqs))
        assert 0 < peak < len(freqs) - 1

    def test_di_frequency_nondecreasing(self):
        times = np.logspace(-5, 1, 40)
        for family, kwargs in ((ProbeFamily.GHZ_BIPARTITE, dict(n1=4)),
                               (ProbeFamily.BSD, dict(n1=4, k1=2, k2=2)),
                               (ProbeFamily.PRODUCT_PLUS, dict(n1=4))):
            probe = build_probe(ProbeSpec(family, 8, **kwargs))
            freqs = [scheme_qfi(probe, DI_IDEAL, float(t))[1] for t in times]
            assert all(b >= a - 1e-9 for a, b in zip(freqs, freqs[1:]))

    def test_di_phase_nonincreasing_and_above_steady(self):
        times = np.logspace(-5, 1, 30)
        cases = [
            (ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 8, n1=4), 8.0),
            (ProbeSpec(ProbeFamily.PRODUCT_PLUS, 8, n1=3), 3 * 5 / 8),
            (ProbeSpec(ProbeFamily.BSD, 8, n1=4, k1=2, k2=2), 6.0),
        ]
        for spec, ref in cases:
            probe = build_probe(spec)
            values = [scheme_qfi(probe, DI_IDEAL, float(t))[0] for t in times]
            assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
            assert all(v >= ref - 1e-9 for v in values)

    def test_repeat_scheme_decays_to_zero(self):
        for family, kwargs in ((ProbeFamily.GHZ_BIPARTITE, dict(n1=4)),
                               (ProbeFamily.BSD, dict(n1=4, k1=2, k2=2)),
                               (ProbeFamily.PRODUCT_PLUS, dict(n1=4)),
                               (ProbeFamily.DFS_OPTIMAL, {})):
            probe = build_probe(ProbeSpec(family, 8, **kwargs))
            assert scheme_qfi(probe, DI_REPEAT, 50 * NOISE.tau_c)[0] < 1e-6

    def test_unequal_ghz_split_steady_qfi_vanishes(self):
        probe = build_probe(ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 8, n1=3))
        assert steady_qfi(probe) < 1e-10

    def test_dfs_probe_time_invariant(self):
        probe = build_probe(ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8))
        for T in (0.0, 0.01, 1.0, 25.0):
            assert scheme_qfi(probe, DI_IDEAL, T)[0] == pytest.approx(16.0, abs=1e-10)
