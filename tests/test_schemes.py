import dataclasses
import math
import sys

import mpmath
import numpy as np
import pytest

from symqfi import dephasing, schemes
from symqfi.collective_basis import (
    PLUS_MAX_N,
    BipartiteSymmetricBasis,
    ProductState,
    PureState,
    RotatedState,
    SymmetricBasis,
    _rotated,
    _sy_eigensystem,
    dicke_state,
    ghz_state,
    rotate_y,
    wigner_d_matrix,
)
from symqfi.dephasing import (NoiseParams, _collective_row, dephasing_kernel, phase_variance_c,
                              spin_echo_weights_variance)
from symqfi.qfi import frequency_from_phase, max_qfi_bound, spectral_qfi
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

import oracles
from caches import cold_caches

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

    @pytest.mark.parametrize("bad", ["ghz", None, SchemeKind.STANDARD])
    def test_family_must_be_a_probe_family(self, bad):
        # refused at construction, not later in build_probe
        with pytest.raises(ValueError, match="ProbeFamily"):
            ProbeSpec(bad, 8)

    def test_plain_families_reject_split(self):
        with pytest.raises(ValueError):
            ProbeSpec(ProbeFamily.GHZ, 8, n1=4)
        with pytest.raises(ValueError):
            ProbeSpec(ProbeFamily.GHZ, 8, k1=2)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(n=0), "need at least one qubit, got n=0"),
        (dict(n=8, n1=8), "partition size n1=8 outside 1..7"),
        (dict(n=8, n1=0), "partition size n1=0 outside 1..7"),
        (dict(n=8, n1=3, k1=1, k2=6), "k2=6 outside 0..5"),
        (dict(n=8, n1=3, k1=1, k2=-1), "k2=-1 outside 0..5"),
    ], ids=["no-qubit", "n1-high", "n1-low", "k2-high", "k2-low"])
    def test_counts_out_of_range(self, kwargs, message):
        family = ProbeFamily.GHZ if "n1" not in kwargs else \
            ProbeFamily.BSD if "k1" in kwargs else ProbeFamily.GHZ_BIPARTITE
        with pytest.raises(ValueError) as info:
            ProbeSpec(family, **kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize("alpha", [5e307, -5e307, 1e308])
    def test_huge_angle_reads_its_reduced_angle(self, alpha):
        # no finite angle is refused: its rotation phases, up to alpha n/2,
        # overflow at n = 8, and the angle reads the F of its exact reduction
        # modulo 4 pi, the rotation's period
        [row] = scan(STANDARD, [ProbeSpec(ProbeFamily.GHZ, 8, alpha=alpha)], [1e-3])
        reduced = ProbeSpec(ProbeFamily.GHZ, 8, alpha=oracles.reduced_angle_mp(alpha))
        assert row.error is None and row.f_phase == scan(STANDARD, [reduced], [1e-3])[0].f_phase

    def test_large_finite_angle_still_evaluates(self):
        # 1e300 is -2.1838724841522326 modulo 4 pi, where F reads 10.14366333889204,
        # oracles.collective_qfi_mp's 30-digit value rounded to a float
        for alpha in (1e8, 1e10, 1e300):
            spec = ProbeSpec(ProbeFamily.GHZ, 8, alpha=alpha)
            [row] = scan(STANDARD, [spec], [1e-3])
            f_phase, _ = scheme_qfi(build_probe(spec), STANDARD, 1e-3)
            assert row.error is None and row.f_phase == f_phase
        assert oracles.reduced_angle_mp(1e300) == -2.1838724841522326
        assert row.f_phase == 10.14366333889204


class TestSchemeSpec:
    def test_kind_and_noise_must_be_their_types(self):
        # a string kind would match no SchemeKind test and take the di_ideal
        # frames: scheme_qfi would read 10.7685 for ghz_bipartite(8, 4) at
        # T = 1e-3 instead of the standard 11.0740
        with pytest.raises(ValueError, match="SchemeKind"):
            SchemeSpec("standard", NOISE)
        with pytest.raises(ValueError, match="SchemeKind"):
            SchemeSpec(None, NOISE)
        with pytest.raises(ValueError, match="NoiseParams"):
            SchemeSpec(SchemeKind.STANDARD, (NOISE.gamma_delta_b, NOISE.tau_c))
        with pytest.raises(ValueError, match="NoiseParams"):
            SchemeSpec(SchemeKind.DI_IDEAL, None)


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
        # plain complex and entangled states; complex single-partition states
        # rotated by rotate_y, whose real and imaginary parts turn apart; and
        # product states whose factors turned by different angles, complex
        # ones and parity eigenstates (GHZ, symmetric Dicke) among them
        rng = np.random.default_rng(5)
        kinds = (STANDARD, DI_IDEAL, DI_ECHO, DI_REPEAT)
        times = (0.0, 3e-4, 3e-3, 1.0)

        def random_state(basis):
            psi = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
            return PureState(basis, psi / np.linalg.norm(psi))

        def angle():
            return float(rng.uniform(-math.pi, math.pi))

        for basis in (SymmetricBasis(5), BipartiteSymmetricBasis(2, 3),
                      BipartiteSymmetricBasis(4, 3)):
            schemes = (STANDARD,) if isinstance(basis, SymmetricBasis) else kinds
            for _ in range(5):
                probe = random_state(basis)
                for scheme in schemes:
                    for T in times:
                        assert_matches_dense(probe, scheme, T)
        for n in (5, 6):
            for _ in range(3):
                probe = rotate_y(random_state(SymmetricBasis(n)), angle())
                assert isinstance(probe, RotatedState) and probe.amplitudes.imag.any()
                for T in times:
                    assert_matches_dense(probe, STANDARD, T)
        for n1, n2 in ((2, 3), (4, 3), (2, 4)):
            pairs = [(random_state(SymmetricBasis(n1)), random_state(SymmetricBasis(n2)))
                     for _ in range(2)]
            pairs.append((ghz_state(n1), dicke_state(n2, n2 // 2)))
            for a, b in pairs:
                probe = ProductState(rotate_y(a, angle()), rotate_y(b, angle()))
                for scheme in kinds:
                    for T in times:
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


def rotation_setup(spec: ProbeSpec, scheme: SchemeSpec) -> schemes._ProbeSetup:
    """The set-up scan and optimize_rotation take: spec's unrotated probe, from its
    family's offset."""
    return schemes._spec_setup(spec, scheme.kind)


def rotation_qfi(spec: ProbeSpec, scheme: SchemeSpec, T: float):
    """_ProbeSetup.qfi as scan calls it, as a function of the angles alone."""
    setup = rotation_setup(spec, scheme)
    return lambda alphas: setup.qfi(scheme.noise, T, np.asarray(alphas, dtype=float))


def fake_landscape(monkeypatch, landscape, sizes=None):
    """Patch _ProbeSetup so that its qfi reads a landscape F(alpha) at the
    angles it is given (the grid's at rows if none are) and its bound is
    +inf, so the optimizer visits every grid angle; sizes records the angles
    per qfi call."""
    def qfi(setup, noise, T, alphas=None, rows=slice(None)):
        angles = schemes._GRID[rows] if alphas is None else np.asarray(alphas, dtype=float)
        if sizes is not None:
            sizes.append(len(angles))
        return landscape(angles)

    monkeypatch.setattr(schemes._ProbeSetup, "qfi", qfi)
    monkeypatch.setattr(schemes._ProbeSetup, "bound", unbounded)


def unbounded(setup, noise, T, alphas=None):
    """A _ProbeSetup.bound stand-in that rules out no angle."""
    return np.full(len(schemes._GRID if alphas is None else alphas), math.inf)


def patch_qfi(monkeypatch, wrap):
    """Patch _ProbeSetup.qfi with wrap(real, setup, noise, T, alphas, rows)."""
    real = schemes._ProbeSetup.qfi

    def qfi(setup, noise, T, alphas=None, rows=slice(None)):
        return wrap(real, setup, noise, T, alphas, rows)

    monkeypatch.setattr(schemes._ProbeSetup, "qfi", qfi)


def counted_calls(monkeypatch):
    """Patch _ProbeSetup.qfi so that each call appends its angle count to the returned list."""
    sizes = []

    def wrap(real, *args):
        values = real(*args)
        sizes.append(len(values))
        return values

    patch_qfi(monkeypatch, wrap)
    return sizes


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
                brute = float(rotation_qfi(spec, scheme, T)(alphas).max())
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
                g_max = float(rotation_qfi(spec, scheme, T)(alphas).max())
                _, f = optimize_rotation(spec, scheme, T)
                assert f >= g_max - (1e-9 * g_max + 1e-11 * spec.n ** 2), (scheme.kind, spec, T)

    def test_decohered_landscape_ties_to_zero(self):
        # every grid value is rounding noise below the absolute part of the
        # tie window, 1e-11 n^2, and the largest sits near pi/2
        values = rotation_qfi(ProbeSpec(ProbeFamily.PRODUCT_PLUS, 12), STANDARD, 0.05)(
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
        def landscape(a):
            top = 100.0 * (1.0 + rise * (1.0 - (a - 0.8) ** 2 / 0.09))
            return np.where((a >= 0.5) & (a <= 1.1), top, 10.0)

        fake_landscape(monkeypatch, landscape)
        alpha, f = optimize_rotation(ProbeSpec(ProbeFamily.GHZ, 8), STANDARD, 0.01)
        grid = np.linspace(0.0, math.pi / 2, 201)
        if first:
            assert alpha == grid[grid >= 0.5][0]
        else:
            assert 0.6 < alpha < 0.8
            assert alpha in grid
        assert f == landscape(np.array([alpha]))[0]

    @pytest.mark.parametrize("landscape, target, rounds", [
        # a peak between grid points
        (lambda a: 100.0 - 50.0 * (a - 0.6032) ** 2, 0.6032, [7, 6, 6, 6, 6, 6, 6]),
        # rising up to the end of the range
        (lambda a: 10.0 + a, math.pi / 2, [7, 6, 6, 7, 6, 6, 6]),
        (np.zeros_like, 0.0, [7]),  # fully dephased: one round holds no maximum to narrow down
        (lambda a: 100.0 - a, 0.0, [7]),  # falls from zero: one round below F(0) settles it
    ], ids=["off-grid-peak", "rising-edge", "flat", "falls-from-zero"])
    def test_refinement_precision_and_call_budget(self, monkeypatch, landscape, target, rounds):
        # after the grid, a few stacked rounds reach the optimum within the
        # search tolerance, without one-angle calls and never past pi/2; the
        # grid goes in a first batch of 2 angles (alpha = 0 and the largest
        # bound) and one chunk of the rest, and a round skips its centre
        # where that is the last best angle bit for bit
        sizes = []
        fake_landscape(monkeypatch, landscape, sizes)
        alpha, f = optimize_rotation(ProbeSpec(ProbeFamily.GHZ, 8), STANDARD, 0.01)
        assert abs(alpha - target) <= 1e-6
        assert alpha <= math.pi / 2
        assert f == landscape(np.array([alpha]))[0]
        assert sizes == [2, 199] + rounds

    def test_no_round_reevaluates_a_known_angle(self, monkeypatch):
        # a round's centre, where it is the last best angle bit for bit,
        # keeps the F known there and is not evaluated again; every angle a
        # round evaluates is new, and reads its one-angle F, which a full
        # round of 7 would read too, so the optimum is the one full rounds give
        rng = np.random.default_rng(43)
        cells = list(rotatable_cells(rng, range(2, 13)))
        picks = rng.choice(len(cells), 150, replace=False)
        times = 10.0 ** rng.uniform(-4.0, -1.0, len(picks))
        rounds = []  # [angles, values] per refinement round

        def recorded(real, setup, noise, T, alphas, rows):
            values = real(setup, noise, T, alphas, rows)
            if alphas is not None:
                rounds.append([np.array(alphas), values])
            return values

        skipped = total = 0
        for i, T in zip(picks, times):
            scheme, spec = cells[i]
            rounds.clear()
            patch_qfi(monkeypatch, recorded)
            alpha, f = optimize_rotation(spec, scheme, float(T))
            monkeypatch.undo()
            angles = np.concatenate([a for a, _ in rounds])
            assert len(np.unique(angles)) == len(angles), (scheme.kind, spec, T)
            assert not np.isin(angles, schemes._GRID).any(), (scheme.kind, spec, T)
            evaluate = rotation_qfi(spec, scheme, float(T))
            one = np.array([evaluate(np.array([a]))[0] for a in angles])
            assert one.tobytes() == np.concatenate([v for _, v in rounds]).tobytes()
            assert evaluate(np.array([alpha]))[0] == f, (scheme.kind, spec, T)
            skipped += sum(len(a) < 7 for a, _ in rounds[1:])
            total += len(rounds) - 1
        assert total >= 150 and skipped >= 0.7 * total

    def test_fully_dephased_cells_skip_eigh(self, monkeypatch):
        # every frame of these cells is exactly diagonal, with v = None, so
        # no frame is diagonalized: the one eigh is the optimizer bound's, of
        # GHZ(12)'s 13 x 13 kernel, here exactly the identity; the rotations'
        # cached Sy eigensystems are taken before counting
        for n in (12, 4):
            _sy_eigensystem(n)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.copy()) or eigh(m))
        assert optimize_rotation(ProbeSpec(ProbeFamily.GHZ, 12), STANDARD, 2.0) == (0.0, 0.0)
        probe = build_probe(ProbeSpec(ProbeFamily.PRODUCT_PLUS, 8, n1=4, alpha=0.3))
        assert scheme_qfi(probe, DI_ECHO, 2.0) == (0.0, 0.0)
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.eye(13))

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
                evaluate = rotation_qfi(spec, scheme, T)
                values = evaluate(grid)
                f_max = float(values.max())
                if values[0] < f_max - window(f_max):
                    continue  # the first near-maximal grid angle is not 0
                checked += 1
                f_zero = float(values[0])
                assert evaluate(fine).max() <= f_zero + window(f_zero), (scheme.kind, spec, T)
        assert checked >= 90

    def test_grid_bound_holds_on_every_kind_and_family(self):
        # premise of the pruned grid: no computed F exceeds _ProbeSetup's bound U,
        # the variance bound of the mixture over the kernel's symmetric
        # root, plus U's tie window, on the grid and at random angles; the
        # worst (F - U) / window(U) measured over 300 such cells was 3.7e-5,
        # where a fully dephased frame reads rounding-level F and U
        rng = np.random.default_rng(29)
        classes = {}
        for n in (*range(2, 65), 100):
            for scheme, spec in rotatable_cells(rng, [n]):
                key = (scheme.kind, spec.family, spec.n1 is None, n == 100)
                classes.setdefault(key, []).append((scheme, spec))
        assert len(classes) == 30  # 15 kind x family classes, at n <= 64 and at n = 100
        grid = np.linspace(0.0, math.pi / 2, 201)
        for (*_, large), cells in classes.items():
            for pick in rng.choice(len(cells), 1 if large else 4, replace=False):
                scheme, spec = cells[pick]
                T = float(10.0 ** rng.uniform(-5.0, 1.0))
                setup = rotation_setup(spec, scheme)
                alphas = np.concatenate([grid, rng.uniform(0.0, math.pi, 8)])
                upper = setup.bound(scheme.noise, T, alphas)
                values = setup.qfi(scheme.noise, T, alphas)
                assert (values <= upper + 1e-9 * upper + 1e-11 * spec.n ** 2).all(), \
                    (scheme.kind, spec, T)

    def test_bound_is_the_pure_qfi_at_zero_time(self):
        # at T = 0 the m x m kernel is all ones, of rank one; its symmetric
        # root has every entry 1 / sqrt(m), so the mixture's components
        # share one distribution and U is 4 Var(g), the pure QFI; worst
        # measured deviation 4.8e-15 n^2
        rng = np.random.default_rng(37)
        classes = {}
        for n in range(2, 25):
            for scheme, spec in rotatable_cells(rng, [n]):
                key = (scheme.kind, spec.family, spec.n1 is None, n)
                classes.setdefault(key, []).append((scheme, spec))
        assert len(classes) == 15 * 23 - 11  # dicke_symmetric at even n only
        grid = np.linspace(0.0, math.pi / 2, 201)
        for cells in classes.values():
            scheme, spec = cells[rng.integers(len(cells))]
            setup = rotation_setup(spec, scheme)
            assert np.abs(setup.bound(scheme.noise, 0.0, grid) - setup.qfi(scheme.noise, 0.0, grid)
                          ).max() <= 1e-12 * spec.n ** 2, (scheme.kind, spec)

    def test_pruned_grid_gives_the_whole_grid_answer(self, monkeypatch):
        # the grid visited by the bound and the grid visited whole give the
        # same (alpha, F) bit for bit, while the bound skips angles; late
        # times, where the stop rests on the mixture bound, included
        rng = np.random.default_rng(31)
        cells = list(rotatable_cells(rng, range(2, 13)))
        picks = list(rng.choice(len(cells), 240, replace=False))
        for n in (16, 20):
            large = list(rotatable_cells(rng, [n]))
            picks += [len(cells) + i for i in rng.choice(len(large), 20, replace=False)]
            cells += large
        times = 10.0 ** rng.uniform(-5.0, 1.0, len(picks))
        rows = []

        def counted(real, *args):
            values = real(*args)
            rows.append(len(values))
            return values

        visited = {}
        for bounded in (True, False):
            patch_qfi(monkeypatch, counted)
            if not bounded:
                monkeypatch.setattr(schemes._ProbeSetup, "bound", unbounded)
            rows.clear()
            visited[bounded] = [optimize_rotation(cells[i][1], cells[i][0], float(T))
                                for i, T in zip(picks, times)], sum(rows)
            monkeypatch.undo()
        assert visited[True][0] == visited[False][0]
        assert visited[True][1] < 0.2 * visited[False][1]

    def test_early_product_probe_visits_one_batch(self, monkeypatch):
        # at C(T) ~ 0.05 the dephased |+>^20 sits near its bound at alpha = 0,
        # so alpha = 0 and the angle of largest bound rule out the other 199
        sizes = counted_calls(monkeypatch)
        alpha, _ = optimize_rotation(ProbeSpec(ProbeFamily.PRODUCT_PLUS, 20), STANDARD, 1e-3)
        assert alpha == 0.0
        assert sizes == [2, 7]

    def test_middle_band_product_probe_visits_four_batches(self, monkeypatch):
        # at C(T) ~ 5 the mixture over the kernel's symmetric root follows
        # the dephased |+>^20 closely enough to rule out 88 of the 201 grid
        # angles; the first batch is alpha = 0 and the angle of largest bound
        sizes = counted_calls(monkeypatch)
        alpha, _ = optimize_rotation(ProbeSpec(ProbeFamily.PRODUCT_PLUS, 20), STANDARD, 1e-2)
        assert alpha == 0.0
        assert sizes == [2, 37, 37, 37, 7]

    @pytest.mark.parametrize("scheme, spec, T", [
        (STANDARD, ProbeSpec(ProbeFamily.GHZ, 16), 0.03),
        (DI_IDEAL, ProbeSpec(ProbeFamily.BSD, 10, n1=5, k1=2, k2=3), 0.5),
    ], ids=["standard-ghz", "di_ideal-bsd"])
    def test_late_cells_settle_on_the_first_grid_batch(self, monkeypatch, scheme, spec, T):
        # late in the decay the mixture bound falls to the steady-state QFI
        # (di_ideal, whose kernel is here the identity) or to rounding
        # (standard): alpha = 0, visited first, is then near-maximal whatever
        # the other angles hold
        sizes = counted_calls(monkeypatch)
        alpha, _ = optimize_rotation(spec, scheme, T)
        assert alpha == 0.0
        assert sizes == [2, 7]

    def test_mixture_bound_is_the_steady_qfi_under_an_identity_kernel(self):
        # at T = 50 tau_c every coherence between excitation blocks has
        # underflowed to 0, so the kernel's symmetric root is the identity
        # and the mixture is the block decomposition: U is the steady-state QFI
        T, checked = 50.0 * NOISE.tau_c, 0
        for n in range(2, 13):
            for n1 in range(1, n):
                for k1 in range(n1 + 1):
                    for k2 in range(n - n1 + 1):
                        spec = ProbeSpec(ProbeFamily.BSD, n, n1=n1, k1=k1, k2=k2)
                        upper = rotation_setup(spec, DI_IDEAL).bound(NOISE, T, np.zeros(1))[0]
                        closed = bsd_steady_qfi(SplitChoice(n, n1, k1, k1 + k2))
                        assert abs(upper - closed) <= 1e-12 * n * n, (spec, upper, closed)
                        checked += 1
        assert checked == sum((n1 + 1) * (n - n1 + 1) for n in range(2, 13) for n1 in range(1, n))

    def test_only_the_optimizer_factors_the_kernel(self, monkeypatch):
        # the bound's root of the kernel is taken on the first bound call, by
        # an eigh of the kernel on every block, whose diagonal is all ones (a
        # frame's or a parity sector's holds block weights, which sum to at
        # most 1 over at least two blocks); scan at given angles and
        # scheme_qfi never call bound
        calls = []
        eigh = np.linalg.eigh

        def counted(m):
            if m.ndim == 2 and len(m) > 1 and (np.diagonal(m) == 1.0).all():
                calls.append(m.shape)
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        times = (1e-4, 1e-2, 2.0)
        for scheme in (STANDARD, DI_IDEAL, DI_ECHO, DI_REPEAT):
            probes = [ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 8, n1=4, alpha=0.3),
                      ProbeSpec(ProbeFamily.BSD, 8, n1=3, k1=1, k2=2, alpha=0.7),
                      ProbeSpec(ProbeFamily.PRODUCT_PLUS, 8, n1=4),
                      ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8)]
            if scheme is STANDARD:
                probes += [ProbeSpec(ProbeFamily.GHZ, 8, alpha=0.2),
                           ProbeSpec(ProbeFamily.DICKE_SYMMETRIC, 8)]
            assert all(row.error is None for row in scan(scheme, probes, times))
            for spec in probes:
                for T in times:
                    scheme_qfi(build_probe(spec), scheme, T)
        assert calls == []
        optimize_rotation(ProbeSpec(ProbeFamily.GHZ, 8), STANDARD, 1e-2)
        assert calls == [(9, 9)]

    def test_refinement_beats_grid(self, monkeypatch):
        spec = ProbeSpec(ProbeFamily.GHZ, 8)

        def optimize_on_grid(angles):
            # the cached grid rotations belong to the grid they were taken on
            monkeypatch.setattr(schemes, "_GRID", np.linspace(0.0, math.pi / 2, angles))
            schemes._grid_rotations.cache_clear()
            try:
                return optimize_rotation(spec, STANDARD, 0.001)
            finally:
                schemes._grid_rotations.cache_clear()

        alpha_c, f_c = optimize_on_grid(41)
        alpha_f, f_f = optimize_on_grid(401)
        assert f_c <= f_f + 1e-9 * f_f
        assert abs(alpha_c - alpha_f) < 2e-3


class TestGridRotations:
    """The optimizer's grid rotations, kept per factor across cells."""

    def test_rows_are_the_rotation_kernel_bit_for_bit(self):
        grid = np.linspace(0.0, math.pi / 2, 201)
        for m in (1, 2, 7, 12, 20):
            for part, offset in ((ghz_state(m), 0.0), (dicke_state(m, m // 2), math.pi / 2),
                                 (dicke_state(m, 0), 0.0)):
                amps = part.amplitudes.real.copy()
                rows = schemes._grid_rotations(amps.tobytes(), offset)
                assert rows.shape == (len(grid), m + 1)
                assert rows.tobytes() == _rotated(amps, offset + grid).tobytes(), (m, offset)

    def test_entries_are_read_only_and_bounded(self):
        schemes._grid_rotations.cache_clear()
        amps = ghz_state(2).amplitudes.real.tobytes()
        rows = schemes._grid_rotations(amps, 0.0)
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0
        assert schemes._grid_rotations(amps, 0.0) is rows
        for offset in np.linspace(0.1, 1.0, 70):
            schemes._grid_rotations(amps, float(offset))
        info = schemes._grid_rotations.cache_info()
        assert info.maxsize == 64 and info.currsize == 64
        schemes._grid_rotations.cache_clear()

    def test_warm_scan_equals_cold_cells_bit_for_bit(self):
        # one optimized scan over 40 times reuses each factor's grid rows;
        # each of its rows equals a cell optimized alone with the cache empty
        times = np.logspace(-4.0, 0.0, 40)
        split = [ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 8, n1=4),
                 ProbeSpec(ProbeFamily.PRODUCT_PLUS, 8, n1=3),
                 ProbeSpec(ProbeFamily.BSD, 8, n1=4, k1=1, k2=2)]
        unsplit = [ProbeSpec(ProbeFamily.GHZ, 8), ProbeSpec(ProbeFamily.PRODUCT_PLUS, 8),
                   ProbeSpec(ProbeFamily.DICKE_SYMMETRIC, 8)]

        def bits(rows):
            return [(row.alpha.hex(), row.f_phase.hex(), row.error) for row in rows]

        for scheme in (STANDARD, DI_IDEAL, DI_ECHO, DI_REPEAT):
            probes = split + unsplit if scheme is STANDARD else split
            schemes._grid_rotations.cache_clear()
            warm = scan(scheme, probes, times, optimize_alpha=True)
            assert schemes._grid_rotations.cache_info().hits >= 39 * len(probes)
            cold = []
            for probe in probes:
                for T in times:
                    cold_caches()
                    cold += scan(scheme, [probe], [T], optimize_alpha=True)
            assert bits(warm) == bits(cold), scheme.kind
        schemes._grid_rotations.cache_clear()


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
    stacked = rotation_qfi(spec, scheme, T)(alphas)
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

    def test_entangled_bipartite_probe_is_taken_at_angle_0_only(self):
        # dfs_optimal's probe is no ProductState: its flattened vector is no
        # Dicke sector, so any rotation of it, the grid included, is refused
        probe, offset = schemes._base_probe(ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8))
        message = "a bipartite probe that is no ProductState rotates at angle 0 only"
        for alphas, start in ((np.array([0.3]), 0.0), (np.array([0.0, 0.3]), 0.0),
                              (np.zeros(1), 0.3)):
            with pytest.raises(ValueError) as info:
                schemes._probe_setup(probe, DI_IDEAL.kind, start).qfi(DI_IDEAL.noise, 1e-3, alphas)
            assert str(info.value) == message
        probabilities = schemes._probe_setup(probe, DI_IDEAL.kind).probabilities
        with pytest.raises(ValueError) as info:
            probabilities()
        assert str(info.value) == message
        # at angle 0 the route is scheme_qfi's, and the dense channel judges it
        setup = schemes._probe_setup(probe, DI_IDEAL.kind)
        at_zero = float(setup.qfi(DI_IDEAL.noise, 1e-3, np.zeros(1))[0])
        assert at_zero == scheme_qfi(probe, DI_IDEAL, 1e-3)[0]
        assert at_zero == pytest.approx(dense_qfi(probe, DI_IDEAL, 1e-3), rel=1e-9)

    def test_scan_reproduces_the_evaluator_bit_for_bit(self):
        # one rotation kernel: at every grid angle, alpha = 0 included, and at
        # the optimizer's alpha, scan's value is the stacked evaluator's exactly.
        # At alpha = 0 a GHZ probe occupies a few blocks only and takes its own
        # frame, not one padded with the blocks other angles occupy
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
                values = rotation_qfi(spec, scheme, T)(grid)
                at = rng.choice(np.arange(1, len(grid)), 4, replace=False)
                rows = scan(scheme, [dataclasses.replace(spec, alpha=float(grid[i])) for i in at],
                            [T])
                assert [row.f_phase for row in rows] == list(values[at]), (scheme.kind, spec, T)
                compared += len(at)
                assert scan(scheme, [spec], [T])[0].f_phase == values[0], (scheme.kind, spec, T)
                alpha, f_opt = optimize_rotation(spec, scheme, T)
                optimized += alpha != 0.0
                probe = dataclasses.replace(spec, alpha=alpha)
                assert scan(scheme, [probe], [T])[0].f_phase == f_opt, (scheme.kind, spec, T)
        assert compared == 448 and optimized >= 25

    def test_scan_is_the_pipeline_bit_for_bit_at_every_angle(self):
        # build_probe's probe keeps its unrotated factors and angle, so
        # scheme_qfi runs scan's set-up on the same bases from the same angle
        # and decides parity on them: unrotated GHZ probes and dfs_optimal,
        # then random angles under every kind and rotatable family
        kinds = (STANDARD, DI_IDEAL, DI_ECHO, DI_REPEAT)
        times = [0.0, *np.geomspace(1e-5, 10.0, 13).tolist()]
        cells = [(STANDARD, ProbeSpec(ProbeFamily.GHZ, n)) for n in range(1, 25)]
        cells += [(scheme, ProbeSpec(ProbeFamily.GHZ_BIPARTITE, n, n1=n1))
                  for scheme in kinds for n in range(2, 13) for n1 in range(1, n)]
        cells += [(scheme, ProbeSpec(ProbeFamily.DFS_OPTIMAL, n))
                  for scheme in kinds for n in range(2, 13, 2)]
        for scheme, spec in cells:
            probe = build_probe(spec)
            assert [row.f_phase for row in scan(scheme, [spec], times)] == \
                [scheme_qfi(probe, scheme, T)[0] for T in times], (scheme.kind, spec)
        rng = np.random.default_rng(43)
        rotatable = list(rotatable_cells(rng, range(1, 17)))
        classes = set()
        for i in rng.choice(len(rotatable), 240, replace=False):
            scheme, spec = rotatable[i]
            # |alpha| log-uniform up to 1e308, reduced modulo 4 pi past 4 pi
            alpha = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 308.0))
            spec = dataclasses.replace(spec, alpha=alpha)
            T = float(10.0 ** rng.uniform(-5.0, 0.5))
            assert scheme_qfi(build_probe(spec), scheme, T)[0] == \
                scan(scheme, [spec], [T])[0].f_phase, (scheme.kind, spec, T)
            classes.add((scheme.kind, spec.family, spec.n1 is None))
        assert len(classes) == 15  # 3 unsplit families, 3 split ones under 4 kinds

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
    parity_qfi.  The full frame, taken where the parity test is patched to
    refuse every state, is the oracle."""

    def test_census_matches_the_full_frame(self, monkeypatch):
        # calls counts the sector evaluations, the oracle's full frames not
        rng = np.random.default_rng(23)
        calls = count_calls(monkeypatch, "parity_qfi")
        times = np.geomspace(1e-5, 10.0, 7)
        compared = 0
        for scheme, spec in parity_cells(rng, range(2, 25)):
            for T in times:
                rotated = dataclasses.replace(spec, alpha=float(rng.uniform(0.0, math.pi)))
                sector = scan(scheme, [rotated], [float(T)])[0].f_phase
                with monkeypatch.context() as patched:
                    patched.setattr(schemes, "_parity_eigenstate", lambda state: False)
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
        for scheme in (DI_IDEAL, DI_ECHO, DI_REPEAT):
            scan(scheme, [ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8)], [1e-3, 1e-2])
        assert calls == []
        # and the cells beside them do take the sectors; the standard
        # dfs_optimal probe sits in block n/2 alone and still reads exactly 0
        for scheme, spec in ((STANDARD, ProbeSpec(ProbeFamily.GHZ, 8)),
                             (DI_ECHO, ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 8, n1=4)),
                             (DI_REPEAT, ProbeSpec(ProbeFamily.BSD, 8, n1=4, k1=1, k2=2))):
            scan(scheme, [spec], [1e-3])
        assert len(calls) == 3
        rows = scan(STANDARD, [ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8)], [1e-3, 1e-2])
        assert [row.f_phase for row in rows] == [0.0, 0.0] and len(calls) == 5

    def test_unrotated_standard_ghz_meets_the_decay_law(self, monkeypatch):
        # at alpha = 0 the sectors are 1 x 1: (1 +- exp(-C n^2 / 2)) / 2
        calls = count_calls(monkeypatch, "parity_qfi")
        for n in (2, 8, 16, 40):
            for T in (0.0, 1e-5, 1e-4, 3e-4, 1e-3, 3e-3, 0.1):
                got = scan(STANDARD, [ProbeSpec(ProbeFamily.GHZ, n)], [T])[0].f_phase
                assert got == pytest.approx(ghz_qfi_analytic(n, T, NOISE),
                                            rel=1e-9, abs=1e-12 * n * n), (n, T)
        assert len(calls) == 28

    def test_unrotated_ghz_follows_the_decay_law_to_underflow(self):
        # one block per sector: parity_qfi takes lambda - mu = 2 w_0 K[0, n],
        # not the difference of (1 +- K[0, n]) / 2, which read exactly 0 once
        # K[0, n] fell below about 1e-16; the same for partition 2's GHZ(n2)
        # under spin echo and repeat.  Times run past where n^2 C(T) = 745
        times = list(np.geomspace(1e-5, 0.1, 150))
        tiny = sys.float_info.min
        late = 0
        for n in range(2, 17, 2):
            cells = [(STANDARD, ProbeSpec(ProbeFamily.GHZ, n))]
            cells += [(scheme, ProbeSpec(ProbeFamily.GHZ_BIPARTITE, n + 3, n1=3))
                      for scheme in (DI_ECHO, DI_REPEAT)]
            for scheme, spec in cells:
                for row in scan(scheme, [spec], times):
                    ref = ghz_qfi_analytic(n, row.T, NOISE)
                    assert abs(row.f_phase - ref) <= 1e-14 * max(ref, tiny), \
                        (scheme.kind, n, row.T, row.f_phase, ref)
                    late += 0 < ref < 1e-16 * n * n
        assert late > 300

    def test_late_ghz_against_the_50_digit_decay_law(self):
        # n^2 exp(-n^2 C(T)) with C(T) at 50 digits, not ghz_qfi_analytic's
        # float C(T): a relative error e of C(T) moves F by n^2 C e, so GHZ
        # n = 30 at T = 2.85e-3 s (n^2 C = 358) read 1.4e-11 off while C(T)
        # was 4e-14 off.  With C(T) within 4e-16 the bound below holds
        times = np.geomspace(1e-4, 0.05, 40)
        for n in (8, 16, 30):
            for row in scan(STANDARD, [ProbeSpec(ProbeFamily.GHZ, n)], times):
                with mpmath.workdps(50):
                    x = mpmath.mpf(row.T) / NOISE.tau_c
                    c = ((mpmath.mpf(NOISE.gamma_delta_b) * NOISE.tau_c) ** 2
                         * (mpmath.exp(-x) + x - 1))
                    if n * n * c > 700:  # F underflows
                        continue
                    ref = n * n * mpmath.exp(-n * n * c)
                    bound = (2e-15 + 1e-15 * n * n * c) * ref
                    assert abs(row.f_phase - ref) <= bound, (n, row.T, row.f_phase, float(ref))

    def test_both_frames_against_the_30_digit_judge(self, monkeypatch):
        # rotated standard GHZ and Dicke probes, the rotation, C(T), the kernel
        # and the eigensystem all at 30 digits; worst relative deviation
        # measured: 1.1e-10 for both frames where F > 1e-6, and 6.8e-9 for the
        # sectors against 9.5e-8 for the full frame at F ~ 1e-19 (T = 0.03).
        # At n = 12 and 16 the same rotated state is also partition 2's factor
        # of a split probe, ghz_bipartite or bsd with k2 = n / 2, under spin
        # echo and repeat, whose kernel is exp(-C(T) dm2^2 / 2): the same value,
        # measured within 3.9e-12 where F > 1e-6, and 2.4e-12 for the sectors
        # against 9.5e-8 for the full frame at F ~ 1e-19.  The full frame is
        # scheme_qfi's with the parity test refused
        rng = np.random.default_rng(17)
        for n in (12, 16, 20):
            ghz, dicke = [0] * (n + 1), [0] * (n + 1)
            ghz[0] = ghz[n] = mpmath.sqrt(mpmath.mpf(1) / 2)
            dicke[n // 2] = 1
            for family, amps, offset, split in (
                    (ProbeFamily.GHZ, ghz, 0.0, ProbeSpec(ProbeFamily.GHZ_BIPARTITE, n + 3, n1=3)),
                    (ProbeFamily.DICKE_SYMMETRIC, dicke, math.pi / 2,
                     ProbeSpec(ProbeFamily.BSD, n + 3, n1=3, k1=1, k2=n // 2))):
                for T in (1e-3, 1e-2, 3e-2):
                    for alpha in rng.uniform(0.05, math.pi / 2, 2):
                        ref = float(oracles.collective_qfi_mp(amps, offset + float(alpha), T,
                                                              NOISE.gamma_delta_b, NOISE.tau_c))
                        rtol = 1e-9 if ref > 1e-6 else 1e-6
                        cells = [(STANDARD, ProbeSpec(family, n, alpha=float(alpha)))]
                        if n < 20:
                            cells += [(scheme, dataclasses.replace(split, alpha=float(alpha)))
                                      for scheme in (DI_ECHO, DI_REPEAT)]
                        for scheme, spec in cells:
                            sector = scan(scheme, [spec], [T])[0].f_phase
                            with monkeypatch.context() as patched:
                                patched.setattr(schemes, "_parity_eigenstate", lambda state: False)
                                full = scheme_qfi(build_probe(spec), scheme, T)[0]
                            for got in (sector, full):
                                assert abs(got - ref) <= rtol * ref, \
                                    (scheme.kind, spec, T, got, ref)


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

    def test_probes_that_differ_in_alpha_share_one_call_per_time(self, monkeypatch):
        # the angles of each probe go as one stack per time, and each row is
        # the one a one-probe scan writes, in the same order
        alphas = [0.0, *np.linspace(-0.3, math.pi, 12), 0.0, 0.7]
        probes = [ProbeSpec(ProbeFamily.GHZ, 8, alpha=float(a)) for a in alphas]
        probes += [ProbeSpec(ProbeFamily.PRODUCT_PLUS, 6, alpha=0.4),
                   ProbeSpec(ProbeFamily.DFS_OPTIMAL, 6)]
        probes += [ProbeSpec(ProbeFamily.BSD, 7, n1=3, k1=1, k2=2, alpha=float(a))
                   for a in alphas[::-3]]
        times = [0.0, 1e-3, 3e-2]
        # one set-up for each of the four probes, singletons included, and one
        # call per time for each set-up that holds; under spin echo the set-up
        # of the unsplit GHZ and product stacks is refused, and its error is
        # the error row of each of their 15 + 1 cells at every time
        for scheme, n_calls, n_errors in ((STANDARD, 12, 0), (DI_ECHO, 6, 48)):
            alone = [row for probe in probes for row in scan(scheme, [probe], times)]
            setups = count_calls(monkeypatch, "_spec_setup")
            calls = counted_calls(monkeypatch)
            rows = scan(scheme, probes, times)
            assert len(setups) == 4
            assert len(calls) == n_calls
            monkeypatch.undo()
            assert [(r.family, r.alpha, r.T, r.error) for r in rows] == \
                [(r.family, r.alpha, r.T, r.error) for r in alone]
            assert [r.f_phase for r in rows if r.error is None] == \
                [r.f_phase for r in alone if r.error is None]
            assert sum(r.error is not None for r in rows) == n_errors

    def test_a_stack_that_raises_writes_its_error_into_every_cell(self, monkeypatch):
        probes = [ProbeSpec(ProbeFamily.GHZ, 6, alpha=a) for a in (0.0, 0.4, 1.0)]
        alone = [scan(STANDARD, [probe], [-1.0, 0.01]) for probe in probes]
        rows = scan(STANDARD, probes, [-1.0, 0.01])  # C(-1) is refused for the whole stack
        assert [r.error is None for r in rows] == [False, True] * 3
        assert [r.error for r in rows[::2]] == [pair[0].error for pair in alone]
        assert [r.f_phase for r in rows[1::2]] == [pair[1].f_phase for pair in alone]
        def refuse_stacks(real, setup, noise, T, alphas, rows):
            values = real(setup, noise, T, alphas, rows)  # a refused time raises first
            if len(alphas) > 1:
                raise ValueError("refused stack")
            return values

        # no cell goes alone: the stack's error is each of its cells' error row
        patch_qfi(monkeypatch, refuse_stacks)
        rows = scan(STANDARD, probes, [-1.0, 0.01])
        assert [(r.alpha, r.T, r.error) for r in rows] == \
            [(p.alpha, T, error) for p in probes
             for T, error in ((-1.0, alone[0][0].error), (0.01, "refused stack"))]
        assert all(math.isnan(r.f_phase) and math.isnan(r.f_freq) for r in rows)

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


# an int beyond the float range, and one whose repr passes the digit limit
# int-to-str conversion has by default (4300 digits, Python 3.11 and later)
HUGE = 10 ** 400
HUGER = 10 ** 5000
HUGER_SHOWN = ("<int of 16610 bits>" if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)()
               <= 5000 else repr(HUGER))
GHZ_4 = [ProbeSpec(ProbeFamily.GHZ, 4)]


class TestRealInputs:
    """One boundary for real inputs: a bool, a non-real value, a non-finite one
    or an int beyond the float range is a ValueError in each caller's wording."""

    @pytest.mark.parametrize("message, f, args", [
        (f"rotation angle must be finite, got alpha={HUGE!r}",
         ProbeSpec, (ProbeFamily.GHZ, 8, None, None, None, HUGE)),
        (f"rotation angle must be finite, got angle={HUGE!r}", rotate_y, (ghz_state(8), HUGE)),
        (f"rotation angle must be finite, got angle={-HUGE!r}", wigner_d_matrix, (8, -HUGE)),
        (f"gamma_delta_b must be strictly positive and finite, got {HUGE!r}",
         NoiseParams, (HUGE, 1.0)),
        (f"times must be finite, got {HUGE!r}", scan, (STANDARD, GHZ_4, [0.1, HUGE])),
        (f"time must be finite and nonnegative, got {HUGE!r}", phase_variance_c, (HUGE, NOISE)),
        (f"time must be finite and nonnegative, got {HUGE!r}",
         scheme_qfi, (ghz_state(4), STANDARD, HUGE)),
        ("times must be a real number, got True", scan, (STANDARD, GHZ_4, [True])),
        ("times must be a real number, got '0.1'", scan, (STANDARD, GHZ_4, ["0.1"])),
        ("times must be a real number, got (0.1+0j)", scan, (STANDARD, GHZ_4, [0.1 + 0j])),
        ("gamma_delta_b must be a real number, got True", NoiseParams, (True, 1.0)),
        ("tau_c must be a real number, got '1'", NoiseParams, (1.0, "1")),
        ("time must be a real number, got True", phase_variance_c, (True, NOISE)),
    ], ids=["spec-alpha-huge", "rotate-huge", "wigner-d-huge", "noise-huge", "scan-time-huge",
            "variance-time-huge", "scheme-qfi-time-huge", "scan-time-bool", "scan-time-str",
            "scan-time-complex", "noise-bool", "noise-str", "variance-time-bool"])
    def test_message(self, message, f, args):
        with pytest.raises(ValueError) as info:
            f(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("message, f, args", [
        (f"rotation angle must be finite, got alpha={HUGER_SHOWN}",
         ProbeSpec, (ProbeFamily.GHZ, 4, None, None, None, HUGER)),
        (f"gamma_delta_b must be strictly positive and finite, got {HUGER_SHOWN}",
         NoiseParams, (HUGER, 1.0)),
        (f"times must be finite, got {HUGER_SHOWN}", scan, (STANDARD, GHZ_4, [0.1, HUGER])),
    ], ids=["spec-alpha", "noise", "scan-time"])
    def test_message_past_the_digit_limit(self, message, f, args):
        # repr of an int past the limit raises; the message shows its size instead
        with pytest.raises(ValueError) as info:
            f(*args)
        assert str(info.value) == message

    def test_numpy_reals_enter_as_floats(self):
        noise = NoiseParams(np.float64(2.0), np.int64(3))
        assert (type(noise.gamma_delta_b), type(noise.tau_c)) == (float, float)
        assert noise == NoiseParams(2.0, 3.0)
        rows = scan(STANDARD, GHZ_4, [np.float32(0.5), np.int64(0), 10 ** 300])
        assert [(type(r.T), r.T) for r in rows] == [(float, 0.5), (float, 0.0), (float, 1e300)]


class TestProbeSetup:
    """scan and optimize_rotation take each spec's time-free set-up from a
    cache keyed by the kind and the signal state's factors, and add the
    time per cell; a set-up takes its factors from a cache keyed by family
    and counts, its blocks from a cache keyed by shape and kind, and each
    real factor at its start angle from a cache keyed by the factor."""

    BSD_SPLIT = [ProbeSpec(ProbeFamily.BSD, 10, n1=4, k1=k1, k2=k2)
                 for k1 in range(5) for k2 in range(7)]

    @staticmethod
    def bits(rows):
        return [(r.family, r.alpha, r.T, r.f_phase.hex(), r.error) for r in rows]

    def test_multi_time_scan_equals_one_time_scans(self):
        times = [0.0, 1e-5, 1e-3, 1.3e-2, 0.3, 10.0]
        alphas = (0.0, 0.7, -13.0)
        split = [ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 8, n1=3, alpha=a) for a in alphas]
        split += [ProbeSpec(ProbeFamily.BSD, 8, n1=4, k1=1, k2=3, alpha=a) for a in alphas]
        split += [ProbeSpec(ProbeFamily.PRODUCT_PLUS, 7, n1=3, alpha=a) for a in alphas]
        split += [ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8)]
        unsplit = [ProbeSpec(family, n, alpha=a) for family, n in (
            (ProbeFamily.GHZ, 7), (ProbeFamily.DICKE_SYMMETRIC, 8), (ProbeFamily.PRODUCT_PLUS, 6))
            for a in alphas]
        for scheme in (STANDARD, DI_IDEAL, DI_ECHO, DI_REPEAT):
            probes = split + unsplit  # the DI kinds refuse the unsplit ones at set-up
            alone = []
            for spec in probes:
                for T in times:
                    cold_caches()
                    alone += scan(scheme, [spec], [T])
            cold_caches()
            cold = scan(scheme, probes, times)
            warm = scan(scheme, probes, times)
            assert self.bits(cold) == self.bits(alone), scheme.kind
            assert self.bits(warm) == self.bits(alone), scheme.kind
            assert sum(r.error is not None for r in alone) == \
                (0 if scheme is STANDARD else len(unsplit) * len(times))
        cold_caches()

    def test_probe_cache_is_bounded_and_read_only(self):
        cold_caches()
        # 1 127 partition-2 Dicke factors under spin echo, beside one partition-1 factor
        for n2 in range(1, 47):
            for k2 in range(n2 + 1):
                schemes._spec_setup(ProbeSpec(ProbeFamily.BSD, n2 + 1, n1=1, k1=0, k2=k2),
                                    SchemeKind.DI_SPIN_ECHO)
        for cache in (schemes._signal_setup, schemes._factor):
            info = cache.cache_info()
            assert info.maxsize == 1024 and info.currsize == 1024
        for spec, kind in ((ProbeSpec(ProbeFamily.BSD, 8, n1=3, k1=1, k2=2, alpha=0.4),
                            SchemeKind.DI_IDEAL),
                           (ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8), SchemeKind.DI_SPIN_ECHO)):
            setup = schemes._spec_setup(spec, kind)
            # no alpha in the key: every angle of the spec shares the entry
            assert schemes._spec_setup(dataclasses.replace(spec, alpha=0.0), kind) is setup
            arrays = [setup.index, setup.g, setup.ref, setup.dg, setup.p0]
            arrays += [setup.m1] if setup.per_vector else []
            arrays += [factor.amplitudes for factor, _, _ in setup.factors]
            for x in arrays:
                assert not x.flags.writeable
                with pytest.raises(ValueError):
                    x.flat[0] = 1.0
            for factor, _, amps in setup.factors:
                assert amps == factor.amplitudes.real.tobytes()
        cold_caches()

    # every split of the DI families at n <= 8
    DI_SPLITS = [ProbeSpec(ProbeFamily.BSD, n, n1=n1, k1=k1, k2=k2)
                 for n in range(2, 9) for n1 in range(1, n)
                 for k1 in range(n1 + 1) for k2 in range(n - n1 + 1)]
    DI_SPLITS += [ProbeSpec(family, n, n1=n1) for n in range(2, 9) for n1 in range(1, n)
                  for family in (ProbeFamily.GHZ_BIPARTITE, ProbeFamily.PRODUCT_PLUS)]

    def test_splits_share_the_signal_setup_bit_for_bit(self):
        # spin echo and repeat read partition 2's factor alone, so every
        # split with that factor takes one set-up, p0 and kept frames
        # included; each spec reads the same bits warm, its set-up built
        # by another split, as cold
        times = [0.0, 1e-3, 2e-2]
        for scheme in (DI_IDEAL, DI_ECHO, DI_REPEAT):
            alone = []
            for spec in self.DI_SPLITS:
                cold_caches()
                alone += scan(scheme, [spec], times)
            for order in (self.DI_SPLITS, self.DI_SPLITS[::-1]):
                cold_caches()
                warm = scan(scheme, order, times)
                if order is not self.DI_SPLITS:
                    warm = [row for i in reversed(range(len(order)))
                            for row in warm[i * len(times):(i + 1) * len(times)]]
                assert self.bits(warm) == self.bits(alone), scheme.kind
            assert all(r.error is None for r in alone)
            setups = {}
            for spec in self.DI_SPLITS:
                key = (spec.family, spec.n - spec.n1, spec.k2)
                setups.setdefault(key, set()).add(id(schemes._spec_setup(spec, scheme.kind)))
            shared = scheme is not DI_IDEAL
            assert all(len(ids) == 1 for ids in setups.values()) == shared, scheme.kind
        cold_caches()

    def test_one_method_reads_alike_on_every_path_at_zero(self):
        # every kind on every split at n <= 8, and the unsplit probes under
        # standard: scan's kept frames, scheme_qfi's fresh set-up and a stack
        # of zeros, which takes fresh frames, read the same floats
        times = [0.0, 1e-3, 2e-2, 0.3]
        cells = [(scheme, spec) for scheme in (STANDARD, DI_IDEAL, DI_ECHO, DI_REPEAT)
                 for spec in self.DI_SPLITS + [ProbeSpec(ProbeFamily.DFS_OPTIMAL, n)
                                               for n in range(2, 9, 2)]]
        cells += [(STANDARD, ProbeSpec(family, n)) for n in range(1, 9)
                  for family in (ProbeFamily.GHZ, ProbeFamily.PRODUCT_PLUS)]
        cells += [(STANDARD, ProbeSpec(ProbeFamily.DICKE_SYMMETRIC, n)) for n in range(2, 9, 2)]
        cold_caches()
        for scheme, spec in cells:
            kept = [r.f_phase for r in scan(scheme, [spec], times)]
            probe, setup = build_probe(spec), schemes._spec_setup(spec, scheme.kind)
            for T, value in zip(times, kept):
                assert scheme_qfi(probe, scheme, T)[0].hex() == value.hex(), (scheme.kind, spec, T)
                stacked = setup.qfi(scheme.noise, T, np.zeros(3))
                assert stacked.tobytes() == np.full(3, value).tobytes(), (scheme.kind, spec, T)
        assert len(cells) == 4 * len(self.DI_SPLITS) + 16 + 16 + 4
        cold_caches()

    def test_spin_echo_repeat_and_standard_share_one_factor_setup(self):
        # a split ProductState under spin echo or repeat is partition 2's
        # factor in collective blocks with its total z-spin, which is what
        # standard reads of that factor unsplit: one set-up object and one
        # layout for the three kinds, reading the values the kinds read
        # with set-ups of their own, bit for bit
        times = [0.0, 1e-3, 1.3e-2, 0.3]
        expected = {  # F at the four times
            ProbeFamily.GHZ: ["0x1.1ffffffffffffp+5", "0x1.861fce547d0f9p+2",
                              "0x1.dc435dc1818cep-427", "0x0.0p+0"],
            ProbeFamily.DICKE_SYMMETRIC: ["0x1.7fffffffffffep+4", "0x1.2e5410df2b3ddp+3",
                                          "0x1.6350511b52d03p-46", "0x0.0p+0"],
            ProbeFamily.PRODUCT_PLUS: ["0x1.8000000000000p+2", "0x1.281cfdacf5513p+2",
                                       "0x1.bd2134a8149acp-12", "0x0.0p+0"]}
        splits = {ProbeFamily.GHZ: ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 10, n1=4),
                  ProbeFamily.DICKE_SYMMETRIC: ProbeSpec(ProbeFamily.BSD, 10, n1=4, k1=1, k2=3),
                  ProbeFamily.PRODUCT_PLUS: ProbeSpec(ProbeFamily.PRODUCT_PLUS, 10, n1=4)}
        cold_caches()
        for family, split in splits.items():
            setup = schemes._spec_setup(ProbeSpec(family, 6), SchemeKind.STANDARD)
            for kind in schemes._PER_VECTOR_KINDS:
                assert schemes._spec_setup(split, kind) is setup, (family, kind)
            for scheme, spec in ((STANDARD, ProbeSpec(family, 6)), (DI_ECHO, split),
                                 (DI_REPEAT, split)):
                rows = scan(scheme, [spec], times)
                assert [r.f_phase.hex() for r in rows] == expected[family], (scheme.kind, spec)
        assert schemes._signal_setup.cache_info().currsize == 3
        assert schemes._block_layout.cache_info().currsize == 1
        cold_caches()

    def test_partition_1_is_refused_beside_a_shared_setup(self):
        # a split product_plus whose partition 1 overflows keeps its refusal
        # under spin echo and repeat, though its partition-2 set-up is cached
        cold_caches()
        big = PLUS_MAX_N + 1
        message = (f"product_plus needs n <= {PLUS_MAX_N}: C(n, n/2) overflows a float "
                   f"at n={big}")
        small = ProbeSpec(ProbeFamily.PRODUCT_PLUS, 3, n1=2)
        probes = [small, ProbeSpec(ProbeFamily.PRODUCT_PLUS, big + 1, n1=big),
                  ProbeSpec(ProbeFamily.PRODUCT_PLUS, big + 1, n1=1), small]
        for scheme in (DI_IDEAL, DI_ECHO, DI_REPEAT):
            for _ in range(2):
                rows = scan(scheme, probes, [1e-3])
                assert [r.error for r in rows] == [None, message, message, None], scheme.kind
                assert math.isnan(rows[1].f_phase) and math.isnan(rows[2].f_phase)
                assert rows[3].f_phase == rows[0].f_phase
        cold_caches()

    def test_cold_caches_empties_every_cache_of_the_setup_route(self):
        scan(DI_ECHO, [ProbeSpec(ProbeFamily.BSD, 8, n1=3, k1=1, k2=2)], [1e-3])
        optimize_rotation(ProbeSpec(ProbeFamily.GHZ, 8), STANDARD, 1e-3)
        caches = {name: value for module in (schemes, dephasing)
                  for name, value in vars(module).items() if hasattr(value, "cache_info")}
        route = {"_signal_setup", "_factor", "_block_layout", "_start_rotation", "_grid_rotations",
                 "_cell_kernels", "_distances", "_half_squares"}
        assert route <= set(caches)
        assert all(caches[name].cache_info().currsize > 0 for name in route)
        cold_caches()
        assert {name: value.cache_info().currsize for name, value in caches.items()} == \
            dict.fromkeys(caches, 0)

    def test_collective_row_is_the_kernel_bit_for_bit(self):
        # C from 0 through the window where exp(-C d^2 / 2) is subnormal at
        # some d <= 40 to where C d^2 overflows and the entry is exactly 0
        n, tiny = 40, np.finfo(float).tiny
        ks = np.arange(n + 1)
        rng = np.random.default_rng(3)
        found = set()
        for C in (0.0, 5e-324, 1e-12, 0.3, 2 * 700 / n ** 2, 2 * 720 / n ** 2, 2 * 740 / n ** 2,
                  2 * 746 / n ** 2, 1.0, 1e3, 1e306, np.finfo(float).max):
            row = _collective_row(C, n)
            assert not row.flags.writeable
            found.update(("subnormal" if 0 < x < tiny else "zero" if x == 0 else "normal")
                         for x in row)
            for blocks in (ks, np.sort(rng.choice(ks, 9, replace=False)),
                           np.concatenate([ks[:5], n - ks[:5]])):  # a parity sector's
                gathered = row[np.abs(np.subtract.outer(blocks, blocks))]
                kernel = dephasing_kernel(np.zeros(len(blocks)), blocks, 0.0, C)
                assert gathered.tobytes() == kernel.tobytes(), C
        assert found == {"normal", "subnormal", "zero"}
        # up to n = 5000 a sparse set of distances, through the subnormal
        # window, the variances about the row's cap and the overflow of C d^2
        for size in (1, 7, 300, 5000):
            dists = np.unique(np.geomspace(1, size, 60).astype(int))
            blocks = np.concatenate([[0], dists])
            window = 2 * np.linspace(600, 800, 41)[:, None] / dists ** 2
            for C in [*np.unique(window), 1499.9, 1500.0, 1500.1, 1e300, np.finfo(float).max]:
                row = _collective_row(float(C), size)
                kernel = dephasing_kernel(np.zeros(len(blocks)), blocks, 0.0, float(C))
                assert row[blocks].tobytes() == kernel[0].tobytes(), (size, C)
        for bad in (-1e-300, math.inf, math.nan):
            with pytest.raises(ValueError) as info:
                _collective_row(bad, n)
            assert str(info.value) == f"var2 must be finite and nonnegative, got {bad!r}"

    def test_layout_cache_is_shared_bounded_and_read_only(self):
        cold_caches()
        for kind in SchemeKind:
            setups = [schemes._spec_setup(spec, kind) for spec in self.BSD_SPLIT]
            # every (k1, k2) of the split shares one entry under each kind
            assert all(s.index is setups[0].index and s.g is setups[0].g for s in setups), kind
        # spin echo and repeat read partition 2's factor as standard does: one entry
        info = schemes._block_layout.cache_info()
        assert info.currsize == 3 and info.misses == 3
        for n in range(1, 70):
            layout = schemes._block_layout(SymmetricBasis(n), SchemeKind.STANDARD)
            for x in layout[1:6]:
                if x is not None:
                    assert not x.flags.writeable
                    with pytest.raises(ValueError):
                        x.flat[0] = 1.0
        info = schemes._block_layout.cache_info()
        assert info.maxsize == 64 and info.currsize == 64
        cold_caches()

    def test_factor_rows_are_the_rotation_kernel_bit_for_bit(self):
        cold_caches()
        specs = [ProbeSpec(ProbeFamily.GHZ, 7), ProbeSpec(ProbeFamily.DICKE_SYMMETRIC, 8),
                 ProbeSpec(ProbeFamily.PRODUCT_PLUS, 6), ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8)]
        specs += [ProbeSpec(family, 9, n1=4, k1=k1, k2=k2)
                  for family, k1, k2 in ((ProbeFamily.GHZ_BIPARTITE, None, None),
                                         (ProbeFamily.PRODUCT_PLUS, None, None),
                                         (ProbeFamily.BSD, 0, 3), (ProbeFamily.BSD, 4, 2))]
        seen = set()
        for spec in specs:
            kind = SchemeKind.DI_IDEAL if spec.n1 is not None else SchemeKind.STANDARD
            rotated = [] if spec.family is ProbeFamily.DFS_OPTIMAL else [0.7, -13.0]
            for setup in [schemes._spec_setup(spec, kind)] + [
                    schemes._probe_setup(build_probe(dataclasses.replace(spec, alpha=a)), kind)
                    for a in rotated]:
                for factor, start, _ in setup.factors:
                    amps = factor.amplitudes
                    row = schemes._start_rotation(amps.real.tobytes(), start)
                    assert not row.flags.writeable
                    with pytest.raises(ValueError):
                        row[0, 0] = 1.0
                    expected = schemes._rotated_amplitudes(amps, start + np.zeros(1))
                    assert row.tobytes() == expected.tobytes(), (spec, start)
                    if start == 0.0:  # the input comes back unrotated
                        assert row.tobytes() == amps.real.tobytes(), spec
                    seen.add(start == 0.0)
        assert seen == {True, False}
        amps = ghz_state(1).amplitudes.real.tobytes()
        for start in np.linspace(0.1, 1.0, 1100):
            schemes._start_rotation(amps, float(start))
        info = schemes._start_rotation.cache_info()
        assert info.maxsize == 1024 and info.currsize == 1024
        cold_caches()

    def test_complex_factor_takes_the_rotation_kernel(self, monkeypatch):
        cold_caches()
        calls = []
        kernel = schemes._rotated_amplitudes

        def counted(amps, theta):
            calls.append(amps)
            return kernel(amps, theta)

        monkeypatch.setattr(schemes, "_rotated_amplitudes", counted)
        phased = np.array([0.6, 0.0, 0.8j, 0.0, 0.0])  # no parity eigenstate, nor its moduli
        probe = PureState(SymmetricBasis(4), phased)
        f_phase = scheme_qfi(probe, STANDARD, 1e-3)[0]
        assert len(calls) == 1 and calls[0] is probe.amplitudes
        assert schemes._start_rotation.cache_info().currsize == 0
        # a diagonal phase leaves the QFI alone: the moduli read the same bits
        moduli = PureState(SymmetricBasis(4), np.abs(phased))
        assert scheme_qfi(moduli, STANDARD, 1e-3)[0].hex() == f_phase.hex()
        assert len(calls) == 1 and schemes._start_rotation.cache_info().currsize == 1
        # a product takes the kernel for its complex factor, a cached row for the other
        scheme_qfi(ProductState(PureState(SymmetricBasis(2), [0.6, 0.0, 0.8j]), dicke_state(3, 1)),
                   DI_IDEAL, 1e-3)
        assert len(calls) == 2 and calls[1].shape == (3,)
        assert schemes._start_rotation.cache_info().currsize == 2
        cold_caches()

    def test_split_scan_equals_one_spec_scans_cold_and_warm(self):
        times = [0.0, 1e-3, 1.3e-2, 0.3]
        for scheme in (STANDARD, DI_IDEAL, DI_ECHO, DI_REPEAT):
            alone = []
            for spec in self.BSD_SPLIT:
                cold_caches()
                alone += scan(scheme, [spec], times)
            direct = [scheme_qfi(build_probe(spec), scheme, T)[0].hex()
                      for spec in self.BSD_SPLIT for T in times]
            cold_caches()
            cold = scan(scheme, self.BSD_SPLIT, times)
            warm = scan(scheme, self.BSD_SPLIT, times)
            assert self.bits(cold) == self.bits(alone), scheme.kind
            assert self.bits(warm) == self.bits(alone), scheme.kind
            assert [r.f_phase.hex() for r in cold] == direct, scheme.kind
            assert all(r.error is None for r in cold)
        cold_caches()

    # one probe of every family each kind takes, parity frames included:
    # ghz(8), dicke_symmetric(8) and, under spin echo and repeat, the
    # partition-2 factors GHZ(4) and Dicke(4, 2)
    UNROTATED = [ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 8, n1=4),
                 ProbeSpec(ProbeFamily.BSD, 8, n1=4, k1=1, k2=2),
                 ProbeSpec(ProbeFamily.PRODUCT_PLUS, 7, n1=3), ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8)]
    UNSPLIT = [ProbeSpec(ProbeFamily.GHZ, 8), ProbeSpec(ProbeFamily.DICKE_SYMMETRIC, 8),
               ProbeSpec(ProbeFamily.PRODUCT_PLUS, 6)]
    FORTY = [0.0] + list(np.logspace(-5, 1, 39))

    @staticmethod
    def counted_frames(monkeypatch):
        """Count _ProbeSetup.frames calls, by whether they take the set-up's p0."""
        calls = []
        frames = schemes._ProbeSetup.frames

        def counted(setup, p):
            calls.append(p is setup.p0)
            return frames(setup, p)

        monkeypatch.setattr(schemes._ProbeSetup, "frames", counted)
        return calls

    def test_forty_time_scan_keeps_the_unrotated_frames(self, monkeypatch):
        calls = self.counted_frames(monkeypatch)
        for scheme in (STANDARD, DI_IDEAL, DI_ECHO, DI_REPEAT):
            probes = self.UNROTATED + (self.UNSPLIT if scheme is STANDARD else [])
            for spec in probes:
                alone = []
                for T in self.FORTY:
                    cold_caches()
                    alone += scan(scheme, [spec], [T])
                direct = [scheme_qfi(build_probe(spec), scheme, T)[0].hex() for T in self.FORTY]
                cold_caches()
                calls.clear()
                cold = scan(scheme, [spec], self.FORTY)
                warm = scan(scheme, [spec], self.FORTY)
                # one frames call on p0 for the set-up, across both scans' 80 cells
                assert calls == [True], (scheme.kind, spec)
                assert self.bits(cold) == self.bits(alone), (scheme.kind, spec)
                assert self.bits(warm) == self.bits(alone), (scheme.kind, spec)
                assert [r.f_phase.hex() for r in cold] == direct, (scheme.kind, spec)
                assert all(r.error is None for r in cold)
                # a fresh set-up takes its frames again
                cold_caches()
                calls.clear()
                assert self.bits(scan(scheme, [spec], self.FORTY)) == self.bits(alone)
                assert calls == [True], (scheme.kind, spec)
        cold_caches()

    def test_kept_frames_are_read_only_and_p0_is_handed_out(self):
        cold_caches()
        for spec, kind in ((ProbeSpec(ProbeFamily.GHZ, 8), SchemeKind.STANDARD),
                           (ProbeSpec(ProbeFamily.BSD, 8, n1=3, k1=1, k2=2), SchemeKind.DI_IDEAL),
                           (ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8), SchemeKind.DI_SPIN_ECHO)):
            setup = schemes._spec_setup(spec, kind)
            assert setup.probabilities(np.zeros(1)) is setup.p0
            twice = setup.probabilities(np.zeros(2))
            assert twice is not setup.p0 and np.array_equal(twice, setup.p0.repeat(2, axis=0))
            assert setup.frames0 is None  # kept from the first use only
            setup.qfi(NOISE, 1e-3, np.zeros(1))
            kept = setup.frames0
            assert len(kept) == 1 and kept[0][0] == slice(None)
            for x in kept[0][1:]:
                if x is not None:
                    assert not x.flags.writeable
                    with pytest.raises(ValueError):
                        x.flat[0] = 1.0
            setup.qfi(NOISE, 3e-2, np.zeros(1))
            assert setup.frames0 is kept
        cold_caches()

    def test_rotated_and_duplicate_stacks_take_fresh_frames(self, monkeypatch):
        calls = self.counted_frames(monkeypatch)
        times = self.FORTY[::8]
        for scheme, spec in ((STANDARD, ProbeSpec(ProbeFamily.GHZ, 8)),
                             (STANDARD, ProbeSpec(ProbeFamily.DICKE_SYMMETRIC, 8)),
                             (DI_IDEAL, ProbeSpec(ProbeFamily.BSD, 8, n1=3, k1=1, k2=2)),
                             (DI_REPEAT, ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 8, n1=4))):
            for alphas in ((0.0, 0.0), (0.4,), (0.0, 0.4)):
                probes = [dataclasses.replace(spec, alpha=a) for a in alphas]
                alone = []
                for p in probes:
                    cold_caches()
                    alone += [r.f_phase.hex() for r in scan(scheme, [p], times)]
                cold_caches()
                calls.clear()
                rows = scan(scheme, probes, times)
                # probe-major rows, one frames call per time on a stack that is not p0
                assert [r.f_phase.hex() for r in rows] == alone, (scheme.kind, alphas)
                assert calls == [False] * len(times), (scheme.kind, alphas)
        cold_caches()

    def test_entangled_probe_with_an_offset_keeps_its_refusal(self, monkeypatch):
        calls = self.counted_frames(monkeypatch)
        probe, _ = schemes._base_probe(ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8))
        setup = schemes._probe_setup(probe, SchemeKind.DI_IDEAL, 0.3)
        assert setup.p0 is None
        for _ in range(2):
            with pytest.raises(ValueError, match="rotates at angle 0 only"):
                setup.qfi(NOISE, 1e-3, np.zeros(1))
        assert calls == [] and setup.frames0 is None
        # scan's set-up of the same probe has offset 0, and no error rows
        rows = scan(DI_IDEAL, [ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8)], [1e-3, 1e-2])
        assert all(r.error is None for r in rows) and calls == [True]
        cold_caches()
