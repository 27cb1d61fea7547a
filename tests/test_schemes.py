import math

import numpy as np
import pytest

from symqfi.collective_basis import (
    BipartiteSymmetricBasis,
    GeneratorLabel,
    PureState,
    StateMatrix,
    SymmetricBasis,
    dicke_state,
    generator,
    ghz_state,
    rotate_y,
)
from symqfi.dephasing import (
    NoiseParams,
    NoiseVariant,
    apply_collective_dephasing,
    apply_variant_dephasing,
    phase_variance_c,
    spin_echo_weights_variance,
    steady_state,
)
from symqfi.qfi import qfi_frequency, qfi_phase
from symqfi.schemes import (
    ProbeFamily,
    ProbeSpec,
    SchemeKind,
    SchemeSpec,
    build_probe,
    optimize_rotation,
    scan,
    scheme_qfi,
)
from symqfi.steady_forms import SplitChoice, bsd_steady_qfi, ghz_qfi_analytic

NOISE = NoiseParams(2 * math.pi * 50, 1.0)
STANDARD = SchemeSpec(SchemeKind.STANDARD, NOISE)
DI_IDEAL = SchemeSpec(SchemeKind.DI_IDEAL, NOISE)
DI_ECHO = SchemeSpec(SchemeKind.DI_SPIN_ECHO, NOISE)
DI_REPEAT = SchemeSpec(SchemeKind.DI_REPEAT, NOISE)
_VARIANT = {SchemeKind.DI_IDEAL: NoiseVariant.IDEAL_COLLECTIVE,
            SchemeKind.DI_SPIN_ECHO: NoiseVariant.SPIN_ECHO,
            SchemeKind.DI_REPEAT: NoiseVariant.INDEPENDENT_REPEAT}


def dense_qfi(probe: PureState, scheme: SchemeSpec, T: float) -> float:
    """The dense oracle: full density matrix, public channel, qfi_phase."""
    rho = probe.density_matrix()
    if scheme.kind is SchemeKind.STANDARD:
        return qfi_phase(apply_collective_dephasing(rho, T, scheme.noise),
                         generator(rho.basis, GeneratorLabel.SZ_TOTAL))
    out = apply_variant_dephasing(rho, T, scheme.noise, _VARIANT[scheme.kind])
    return qfi_phase(out, generator(rho.basis, GeneratorLabel.SZ_PARTITION2))


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


class TestSchemeSpec:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_times_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SchemeSpec(SchemeKind.STANDARD, NOISE, times=(0.1, bad))


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
            g = generator(probe.basis, GeneratorLabel.SZ_PARTITION2)
            ref = qfi_phase(steady_state(probe.density_matrix()), g)
            assert late == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_di_needs_bipartite_probe(self):
        probe = build_probe(ProbeSpec(ProbeFamily.GHZ, 8))
        with pytest.raises(ValueError):
            scheme_qfi(probe, DI_IDEAL, 0.1)

    def test_frequency_of_a_dead_probe_is_zero_at_huge_times(self):
        # T^2 overflows to inf; inf * 0 would be NaN
        assert scheme_qfi(ghz_state(4), STANDARD, 1e300) == (0.0, 0.0)
        rows = scan(STANDARD, [ProbeSpec(ProbeFamily.GHZ, 4)], times=[1e300],
                    optimize_alpha=True, alpha_grid=11)
        assert (rows[0].f_phase, rows[0].f_freq, rows[0].error) == (0.0, 0.0, None)
        mixed = StateMatrix(SymmetricBasis(4), np.eye(5) / 5)
        g = generator(mixed.basis, GeneratorLabel.SZ_TOTAL)
        assert qfi_frequency(mixed, g, 1e300) == 0.0

    def test_frequency_is_time_squared(self):
        probe = build_probe(ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 8, n1=4))
        f_phase, f_freq = scheme_qfi(probe, DI_IDEAL, 3.0)
        assert f_freq == pytest.approx(9.0 * f_phase, rel=1e-12)


class TestFramesAgainstDense:
    """scheme_qfi diagonalizes in reduced frames; the dense channels are the oracle."""

    def test_every_scheme_and_family_matches_the_dense_channels(self):
        rng = np.random.default_rng(2)
        for scheme, spec in oracle_cells(rng):
            T = float(10.0 ** rng.uniform(-5.0, math.log10(30.0)))
            assert_matches_dense(build_probe(spec), scheme, T)

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
        # entangled through its signs only: a diagonal phase commutes with the
        # noise and the generator, so the factorized partition-2 frame applies
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

    def test_dfs_optimal_support_frame(self):
        # (q, r) = (0, 4) and (4, 0): one coherence, scaled by exp(-Var/2)
        probe = build_probe(ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8))
        for T in (0.0, 1e-4, 1e-3, 0.01, 1.0, 25.0):
            assert scheme_qfi(probe, DI_IDEAL, T)[0] == pytest.approx(16.0, abs=1e-10)
            variances = {DI_ECHO: spin_echo_weights_variance(4.0, -4.0, T, NOISE),
                         DI_REPEAT: 32.0 * phase_variance_c(T, NOISE)}
            for scheme, var in variances.items():
                assert scheme_qfi(probe, scheme, T)[0] == pytest.approx(
                    16.0 * math.exp(-var), rel=1e-12, abs=1e-12)

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
            alpha, _ = optimize_rotation(ProbeFamily.PRODUCT_PLUS, 8, STANDARD, float(T))
            assert alpha == 0.0

    def test_ghz_noiseless_maximum(self):
        alpha, f = optimize_rotation(ProbeFamily.GHZ, 8, STANDARD, 0.0)
        assert alpha == 0.0
        assert f == pytest.approx(64.0, rel=1e-9)

    def test_ghz_regression_at_finite_time(self):
        # engine regression numbers, locked from a dense-grid run
        alpha, f = optimize_rotation(ProbeFamily.GHZ, 8, STANDARD, 0.01)
        assert alpha > 1e-3
        assert alpha == pytest.approx(0.8969288749493659, abs=1e-5)
        assert f == pytest.approx(0.011752786210922472, rel=1e-7)

    def test_dfs_has_no_angle(self):
        with pytest.raises(ValueError):
            optimize_rotation(ProbeFamily.DFS_OPTIMAL, 8, DI_IDEAL, 0.0)

    def test_refinement_beats_grid(self):
        alpha_c, f_c = optimize_rotation(ProbeFamily.GHZ, 8, STANDARD, 0.001, grid=41)
        alpha_f, f_f = optimize_rotation(ProbeFamily.GHZ, 8, STANDARD, 0.001, grid=401)
        assert f_c <= f_f + 1e-9 * f_f
        assert abs(alpha_c - alpha_f) < 2e-3


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

    def test_optimized_scan_records_angle(self):
        rows = scan(STANDARD, [ProbeSpec(ProbeFamily.GHZ, 8)], times=[0.01],
                    optimize_alpha=True, alpha_grid=101)
        assert rows[0].alpha_optimized
        assert rows[0].alpha == pytest.approx(0.8969288749493659, abs=1e-4)

    def test_spin_echo_rows_decay(self):
        probe = ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 8, n1=4)
        rows = scan(DI_ECHO, [probe], times=list(np.logspace(-5, 1, 25)))
        values = [r.f_phase for r in rows]
        assert values[-1] < 1e-3 * values[0]


class TestSchemeProperties:
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
            f_ghz = optimize_rotation(ProbeFamily.GHZ, 8, STANDARD, T)[1]
            f_dicke = optimize_rotation(ProbeFamily.DICKE_SYMMETRIC, 8, STANDARD, T)[1]
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
        g = generator(probe.basis, GeneratorLabel.SZ_PARTITION2)
        assert qfi_phase(steady_state(probe.density_matrix()), g) < 1e-10

    def test_dfs_probe_time_invariant(self):
        probe = build_probe(ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8))
        for T in (0.0, 0.01, 1.0, 25.0):
            assert scheme_qfi(probe, DI_IDEAL, T)[0] == pytest.approx(16.0, abs=1e-10)
