import math

import mpmath
import numpy as np
import pytest

from symqfi.collective_basis import (
    BipartiteSymmetricBasis,
    GeneratorLabel,
    ProductState,
    PureState,
    SymmetricBasis,
    _rotated,
    dicke_state,
    generator,
    ghz_state,
    plus_product_state,
    rotate_y,
    wigner_d_matrix,
)

import oracles


class TestBases:
    def test_symmetric_dimensions_and_weights(self):
        basis = SymmetricBasis(4)
        assert basis.dimension == 5
        np.testing.assert_allclose(basis.z_weights(), [-2, -1, 0, 1, 2])
        np.testing.assert_array_equal(basis.excitations(), [0, 1, 2, 3, 4])

    def test_symmetric_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SymmetricBasis(0)

    def test_bipartite_dimensions_and_weights(self):
        basis = BipartiteSymmetricBasis(1, 1)
        assert basis.dimension == 4
        # flattened (q, r) order: (0,0), (0,1), (1,0), (1,1)
        np.testing.assert_allclose(basis.z_weights(), [-1, 0, 0, 1])
        np.testing.assert_allclose(basis.partition2_weights(), [-0.5, 0.5, -0.5, 0.5])
        np.testing.assert_array_equal(basis.excitations(), [0, 1, 1, 2])

    def test_bipartite_odd_weights(self):
        basis = BipartiteSymmetricBasis(3, 2)
        assert basis.n == 5
        assert basis.dimension == 12
        m = basis.z_weights()
        assert m[0] == -2.5 and m[-1] == 2.5


class TestStateConstructors:
    def test_dicke_basis_vector(self):
        state = dicke_state(2, 1)
        np.testing.assert_allclose(state.amplitudes, [0, 1, 0])

    def test_dicke_probe_n8(self):
        state = dicke_state(8, 4)
        assert state.amplitudes[4] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_dicke_single_qubit_ground(self):
        np.testing.assert_allclose(dicke_state(1, 0).amplitudes, [1, 0])

    def test_dicke_out_of_range(self):
        with pytest.raises(ValueError):
            dicke_state(4, 5)
        with pytest.raises(ValueError):
            dicke_state(4, -1)

    @pytest.mark.parametrize("bad", [True, False, 2.0, 1.5, "2", None])
    def test_dicke_non_integer_count_refused(self, bad):
        with pytest.raises(ValueError, match="excitation count must be an integer"):
            dicke_state(4, bad)

    def test_dicke_numpy_integer_count_accepted(self):
        np.testing.assert_array_equal(dicke_state(4, np.int64(2)).amplitudes,
                                      dicke_state(4, 2).amplitudes)

    def test_ghz_single_qubit_is_plus(self):
        np.testing.assert_allclose(ghz_state(1).amplitudes,
                                   plus_product_state(1).amplitudes)

    def test_ghz_n8_entries(self):
        amps = ghz_state(8).amplitudes
        s = 1 / math.sqrt(2)
        np.testing.assert_allclose([amps[0], amps[8]], [s, s])
        assert np.count_nonzero(amps) == 2

    def test_ghz_norm(self):
        assert abs(np.linalg.norm(ghz_state(3).amplitudes) - 1) < 1e-12

    def test_plus_product_small(self):
        np.testing.assert_allclose(plus_product_state(1).amplitudes,
                                   [1 / math.sqrt(2), 1 / math.sqrt(2)])
        # expanding (|0>+|1>)^(x2) and projecting on the Dicke vectors
        np.testing.assert_allclose(plus_product_state(2).amplitudes,
                                   [0.5, 1 / math.sqrt(2), 0.5], atol=1e-15)

    def test_plus_product_n8_middle_amplitude(self):
        assert plus_product_state(8).amplitudes[4] == pytest.approx(
            math.sqrt(70) / 16, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 16])
    def test_constructors_normalized(self, n):
        for state in (ghz_state(n), plus_product_state(n), dicke_state(n, n // 2)):
            assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            PureState(SymmetricBasis(1), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_amplitudes_rejected(self, bad):
        with pytest.raises(ValueError):
            PureState(SymmetricBasis(1), np.array([bad, 0.0]))


class TestWignerD:
    def test_single_qubit_quarter_turn(self):
        s = 1 / math.sqrt(2)
        np.testing.assert_allclose(wigner_d_matrix(1, math.pi / 2),
                                   [[s, -s], [s, s]], atol=1e-15)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_zero_angle_is_identity(self, n):
        np.testing.assert_allclose(wigner_d_matrix(n, 0.0), np.eye(n + 1), atol=1e-15)

    def test_matches_matrix_exponential_oracle(self):
        # dense Pade exponential in the full 16-dim space, projected down
        proj = oracles.sym_projector(4)
        full = proj @ oracles.rotation_full(4, math.pi / 2) @ proj.T
        np.testing.assert_allclose(wigner_d_matrix(4, math.pi / 2), full.real,
                                   atol=1e-12)
        assert np.max(np.abs(full.imag)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 7, 20, 50])
    @pytest.mark.parametrize("theta", [0.0, math.pi / 4, math.pi / 2, math.pi])
    def test_orthogonality(self, n, theta):
        d = wigner_d_matrix(n, theta)
        assert np.max(np.abs(d.T @ d - np.eye(n + 1))) < 1e-12

    @pytest.mark.parametrize("n", [3, 11, 30])
    def test_row_sum_of_squares(self, n):
        d = wigner_d_matrix(n, 1.1)
        np.testing.assert_allclose(np.sum(d * d, axis=1), np.ones(n + 1), atol=1e-12)

    def test_corner_sign_convention(self):
        for n in (2, 5, 12):
            for theta in (0.3, 1.5, 3.0):
                assert wigner_d_matrix(n, theta)[0, 0] > 0


class TestRotations:
    def test_zero_angle_identity(self):
        state = ghz_state(5)
        np.testing.assert_allclose(rotate_y(state, 0.0).amplitudes, state.amplitudes,
                                   atol=1e-15)

    def test_two_quarter_turns_equal_half_turn(self):
        state = dicke_state(6, 2)
        twice = rotate_y(rotate_y(state, math.pi / 2), math.pi / 2)
        once = rotate_y(state, math.pi)
        np.testing.assert_allclose(twice.amplitudes, once.amplitudes, atol=1e-13)

    def test_norm_preserved(self):
        state = rotate_y(plus_product_state(7), 0.37)
        assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-12

    def test_plus_product_is_rotated_ground(self):
        # |+>^n is the ground Dicke state swung onto the +x axis
        for n in (1, 2, 6):
            rotated = rotate_y(dicke_state(n, 0), math.pi / 2)
            np.testing.assert_allclose(rotated.amplitudes,
                                       plus_product_state(n).amplitudes, atol=1e-13)

    def test_rotated_dicke_probe(self):
        probe = rotate_y(dicke_state(8, 4), math.pi / 2)
        full = oracles.sym_projector(8) @ oracles.rotation_full(8, math.pi / 2) \
            @ oracles.dicke_full(8, 4)
        np.testing.assert_allclose(probe.amplitudes, full, atol=1e-12)

    def test_bipartite_rotation_factorizes(self):
        # a ProductState rotates factor by factor; a plain state on the same
        # basis takes one Wigner-d block per partition
        product = ProductState(ghz_state(3), plus_product_state(2))
        split = rotate_y(product, 0.71)
        joint = rotate_y(PureState(product.basis, product.amplitudes), 0.71)
        assert isinstance(split, ProductState) and not isinstance(joint, ProductState)
        np.testing.assert_allclose(joint.amplitudes, split.amplitudes, atol=1e-13)

    def test_complex_amplitudes_rotate_exactly(self):
        # (|0> + i|n>)/sqrt(2) keeps its imaginary part: single-partition through
        # the kernel, plain-bipartite through one Wigner-d block per partition
        for n1, n2 in ((0, 5), (2, 3)):
            n = n1 + n2
            basis = SymmetricBasis(n) if n1 == 0 else BipartiteSymmetricBasis(n1, n2)
            amps = np.zeros(basis.dimension, dtype=complex)
            amps[0], amps[-1] = 1 / math.sqrt(2), 1j / math.sqrt(2)
            full_state = np.zeros(2 ** n, dtype=complex)  # |0..0> and |1..1>
            full_state[0], full_state[-1] = amps[0], amps[-1]
            proj = oracles.sym_projector(n) if n1 == 0 else \
                np.kron(oracles.sym_projector(n1), oracles.sym_projector(n2))
            for theta in (0.4, math.pi / 2, 2.3):
                rotated = rotate_y(PureState(basis, amps), theta)
                full = proj @ oracles.rotation_full(n, theta) @ full_state
                assert np.abs(rotated.amplitudes.imag).max() > 0.1
                np.testing.assert_allclose(rotated.amplitudes, full, atol=1e-13)

    def test_kernel_matches_the_mp_wigner_d(self):
        # GHZ, Dicke and |+> amplitudes rotated by the kernel, against the finite
        # Wigner sum at 30 digits; the worst error measured is 6.5e-15
        for n in (8, 16, 24, 32):
            states = (ghz_state(n), dicke_state(n, n // 2), plus_product_state(n))
            for theta in (0.3, 0.9, math.pi / 2, math.pi / 2 + 0.3, 2.4, math.pi):
                d = oracles.wigner_d_mp(n, theta)
                for state in states:
                    amps = state.amplitudes.real
                    exact = [float(mpmath.fsum(x * a for x, a in zip(row, amps))) for row in d]
                    np.testing.assert_allclose(_rotated(amps, np.array([theta]))[0], exact,
                                               rtol=0, atol=1e-14, err_msg=f"n={n} theta={theta}")


class TestTensorAndGenerator:
    def test_ghz_pair(self):
        state = ProductState(ghz_state(4), ghz_state(4))
        amps = state.amplitudes.reshape(5, 5)
        expected = np.zeros((5, 5))
        for q in (0, 4):
            for r in (0, 4):
                expected[q, r] = 0.5
        np.testing.assert_allclose(amps, expected, atol=1e-15)

    def test_bsd_amplitudes_factorize(self):
        left = rotate_y(dicke_state(4, 2), math.pi / 2)
        right = rotate_y(dicke_state(4, 2), math.pi / 2)
        state = ProductState(left, right)
        assert state.parts == (left, right)
        np.testing.assert_array_equal(state.amplitudes,
                                      np.kron(left.amplitudes, right.amplitudes))

    def test_tensor_of_basis_vectors(self):
        state = ProductState(dicke_state(2, 1), dicke_state(3, 0))
        assert np.count_nonzero(state.amplitudes) == 1
        assert state.amplitudes[1 * 4 + 0] == 1.0

    def test_product_refuses_a_bipartite_factor(self):
        pair = ProductState(ghz_state(1), ghz_state(1))
        with pytest.raises(ValueError, match="ProductState expects two single-partition states"):
            ProductState(pair, ghz_state(2))

    def test_generator_total(self):
        np.testing.assert_array_equal(generator(SymmetricBasis(2), GeneratorLabel.SZ_TOTAL),
                                      [-1, 0, 1])

    def test_generator_partition2(self):
        basis = BipartiteSymmetricBasis(1, 1)
        g = generator(basis, GeneratorLabel.SZ_PARTITION2)
        np.testing.assert_array_equal(g, [-0.5, 0.5, -0.5, 0.5])
        np.testing.assert_array_equal(g, basis.partition2_weights())

    def test_generator_total_bipartite_corner(self):
        basis = BipartiteSymmetricBasis(4, 4)
        g = generator(basis, GeneratorLabel.SZ_TOTAL)
        assert g[0] == -4.0
        np.testing.assert_array_equal(g, basis.z_weights())

    def test_partition2_needs_bipartite(self):
        with pytest.raises(ValueError):
            generator(SymmetricBasis(3), GeneratorLabel.SZ_PARTITION2)


class TestBruteForceEquivalence:
    """Everything built in the symmetric sector must match the full 2^n space."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_states(self, n):
        proj = oracles.sym_projector(n)
        np.testing.assert_allclose(ghz_state(n).amplitudes, proj @ oracles.ghz_full(n),
                                   atol=1e-12)
        np.testing.assert_allclose(plus_product_state(n).amplitudes,
                                   proj @ oracles.plus_full(n), atol=1e-12)
        for k in range(n + 1):
            np.testing.assert_allclose(dicke_state(n, k).amplitudes,
                                       proj @ oracles.dicke_full(n, k), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_rotation_matrix(self, n):
        proj = oracles.sym_projector(n)
        for theta in (0.4, math.pi / 2, 2.2):
            full = proj @ oracles.rotation_full(n, theta) @ proj.T
            np.testing.assert_allclose(wigner_d_matrix(n, theta), full.real, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_total_generator(self, n):
        proj = oracles.sym_projector(n)
        full = proj @ np.diag(oracles.sz_full(n)) @ proj.T
        ours = np.diag(generator(SymmetricBasis(n), GeneratorLabel.SZ_TOTAL))
        np.testing.assert_allclose(ours, full, atol=1e-12)
