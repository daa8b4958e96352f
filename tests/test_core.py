import numpy as np
import pytest

from qoctl import core
from qoctl.core import (BlochVector, ControlledHamiltonian, Liouvillian,
                        Operator, QuantumState, bloch_vector, commutator,
                        from_bloch, hilbert_schmidt_distance,
                        hilbert_schmidt_overlap, purity, tensor_product)

from conftest import random_density, random_hermitian, random_ket


class TestOperator:
    def test_hermitian_flag(self):
        assert core.sigma_x().hermitian
        assert not Operator([[0, 1], [0, 0]]).hermitian

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Operator(np.zeros((2, 3)))

    def test_immutability(self):
        op = core.sigma_z()
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    def test_json_round_trip(self, rng):
        op = random_hermitian(rng, 3)
        back = Operator.from_json(op.to_json())
        assert back.isclose(op, atol=0.0)

    def test_json_entries_are_re_im_pairs_row_major(self):
        op = Operator([[1, 2j], [-2j, 3]])
        d = op.to_dict()
        assert d["dim"] == 2
        assert d["entries"][0][1] == [0.0, 2.0]


class TestTensorAndCommutator:
    def test_identity_tensor(self):
        eye2 = core.identity(2)
        assert tensor_product(eye2, eye2).isclose(core.identity(4))

    def test_sx_sx_antidiagonal(self):
        got = tensor_product(core.sigma_x(), core.sigma_x())
        assert got.isclose(Operator(np.fliplr(np.eye(4))))

    def test_sz_sx_block_diagonal(self):
        got = tensor_product(core.sigma_z(), core.sigma_x())
        sx = core.sigma_x().matrix
        expected = np.block([[sx, np.zeros((2, 2))],
                             [np.zeros((2, 2)), -sx]])
        assert got.isclose(Operator(expected))

    def test_pauli_commutators(self, paulis):
        sx, sy, sz = paulis
        assert commutator(sx, sy).isclose(2j * sz)
        assert commutator(sz, sx).isclose(2j * sy)
        assert commutator(sx, sx).isclose(Operator(np.zeros((2, 2))))

    def test_commutator_dim_mismatch(self):
        with pytest.raises(core.DimensionMismatchError):
            commutator(core.sigma_x(), core.identity(3))

    def test_tensor_associative_and_dim_multiplicative(self, rng):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        c = random_hermitian(rng, 2)
        left = tensor_product(tensor_product(a, b), c)
        right = tensor_product(a, tensor_product(b, c))
        assert left.dim == 12
        assert np.max(np.abs(left.matrix - right.matrix)) <= 1e-14

    def test_jacobi_identity(self, rng):
        a, b, c = (random_hermitian(rng, 4) for _ in range(3))
        total = (commutator(a, commutator(b, c)).matrix
                 + commutator(b, commutator(c, a)).matrix
                 + commutator(c, commutator(a, b)).matrix)
        assert np.max(np.abs(total)) <= 1e-12


class TestQuantumState:
    def test_ket_norm_enforced(self):
        with pytest.raises(ValueError):
            QuantumState.from_ket([1.0, 1.0])

    def test_density_invariants_enforced(self):
        with pytest.raises(ValueError):
            QuantumState.from_density([[0.5, 0.5], [0.4, 0.5]])  # not herm
        with pytest.raises(ValueError):
            QuantumState.from_density([[0.9, 0.0], [0.0, 0.3]])  # trace != 1
        with pytest.raises(ValueError):
            QuantumState.from_density([[1.5, 0], [0, -0.5]])  # negative

    def test_to_density(self):
        psi = core.basis_ket(2, 0)
        rho = psi.to_density()
        assert rho.is_density
        assert np.allclose(rho.rho, [[1, 0], [0, 0]])

    def test_variant_access_errors(self):
        with pytest.raises(core.StateVariantError):
            core.basis_ket(2, 0).rho
        with pytest.raises(core.StateVariantError):
            core.maximally_mixed(2).ket

    def test_json_round_trip(self, rng):
        rho = random_density(rng, 3)
        back = QuantumState.from_json(rho.to_json())
        assert np.max(np.abs(back.rho - rho.rho)) == 0.0

    def test_from_dict_rejects_unknown_kind(self):
        data = dict(core.maximally_mixed(2).to_dict(), kind="bogus")
        with pytest.raises(ValueError, match="unknown state variant"):
            QuantumState.from_dict(data)

    @pytest.mark.parametrize("state", [core.basis_ket(2, 0),
                                       core.maximally_mixed(2)],
                             ids=["ket", "density"])
    def test_from_dict_rejects_entries_contradicting_dim(self, state):
        assert QuantumState.from_dict(state.to_dict()).dim == 2
        with pytest.raises(ValueError, match="contradicts dim=5"):
            QuantumState.from_dict(dict(state.to_dict(), dim=5))


class TestBlochVector:
    def test_maximally_mixed_is_origin(self):
        r = bloch_vector(core.maximally_mixed(2))
        assert r.norm == pytest.approx(0.0, abs=1e-15)

    def test_pole_state_single_z_component(self):
        r = bloch_vector(core.basis_ket(2, 0).to_density())
        nonzero = np.nonzero(np.abs(r.components) > 1e-14)[0]
        # Gell-Mann ordering for N=2: (x-like, y-like, z-like)
        assert list(nonzero) == [2]
        assert r.components[2] == pytest.approx(1 / np.sqrt(2))

    def test_round_trip_two_qubits(self, rng):
        rho = random_density(rng, 4)
        back = from_bloch(bloch_vector(rho))
        assert np.max(np.abs(back.rho - rho.rho)) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_round_trip_all_dims(self, rng, dim):
        rho = random_density(rng, dim)
        back = from_bloch(bloch_vector(rho))
        assert np.max(np.abs(back.rho - rho.rho)) <= 1e-12

    def test_pure_state_norm(self, rng):
        # Orthonormal operator basis: pure states sit at sqrt(1 - 1/N).
        for dim in (2, 3, 4):
            r = bloch_vector(random_ket(rng, dim).to_density())
            assert r.norm == pytest.approx(np.sqrt(1 - 1 / dim), abs=1e-10)

    def test_component_count_enforced(self):
        with pytest.raises(ValueError):
            BlochVector(2, np.zeros(4))

    def test_basis_orthonormal(self):
        for dim in (2, 3, 4):
            basis = core.gellmann_basis(dim)
            assert len(basis) == dim * dim - 1
            for i, a in enumerate(basis):
                assert abs(np.trace(a)) <= 1e-14
                assert np.max(np.abs(a - a.conj().T)) <= 1e-14
                for j, b in enumerate(basis):
                    expected = 1.0 if i == j else 0.0
                    assert np.trace(a @ b).real == pytest.approx(
                        expected, abs=1e-13)


class TestStateMetrics:
    def test_purity_limits(self, rng):
        assert purity(random_ket(rng, 3).to_density()) == pytest.approx(1.0)
        assert purity(core.maximally_mixed(4)) == pytest.approx(0.25)
        assert purity(QuantumState.from_density(np.diag([0.75, 0.25]))) \
            == pytest.approx(0.625)

    def test_overlap_trivial_cases(self, rng):
        pure = random_ket(rng, 2).to_density()
        assert hilbert_schmidt_overlap(pure, pure) == pytest.approx(1.0)
        mixed = core.maximally_mixed(2)
        assert hilbert_schmidt_overlap(mixed, mixed) == pytest.approx(0.5)

    def test_overlap_matches_bloch_decomposition(self, rng):
        for _ in range(20):
            a = random_density(rng, 2)
            b = random_density(rng, 2)
            ra = bloch_vector(a).components
            rb = bloch_vector(b).components
            assert hilbert_schmidt_overlap(a, b) == pytest.approx(
                0.5 + ra @ rb, abs=1e-12)

    def test_overlap_of_state_with_itself_is_purity(self, rng):
        rho = random_density(rng, 3)
        assert hilbert_schmidt_overlap(rho, rho) == pytest.approx(
            purity(rho), abs=1e-13)

    def test_distance_trivial_cases(self):
        p0 = core.basis_ket(2, 0).to_density()
        p1 = core.basis_ket(2, 1).to_density()
        assert hilbert_schmidt_distance(p0, p0) == 0.0
        assert hilbert_schmidt_distance(p0, p1) == pytest.approx(1.0)

    def test_distance_algebraic_identity(self, rng):
        for _ in range(10):
            a = random_density(rng, 3)
            b = random_density(rng, 3)
            expected = (purity(a) + purity(b)) / 2 - hilbert_schmidt_overlap(a, b)
            assert hilbert_schmidt_distance(a, b) == pytest.approx(
                expected, abs=1e-12)

    def test_dim_mismatch(self, rng):
        with pytest.raises(core.DimensionMismatchError):
            hilbert_schmidt_overlap(random_density(rng, 2),
                                    random_density(rng, 3))


class TestControlledHamiltonian:
    def test_contiguous_indices_enforced(self):
        with pytest.raises(ValueError):
            ControlledHamiltonian(core.sigma_z(), [(core.sigma_x(), 1)])

    def test_dims_shared(self):
        with pytest.raises(core.DimensionMismatchError):
            ControlledHamiltonian(core.identity(3), [(core.sigma_x(), 0)])

    def test_non_hermitian_drift_rejected(self):
        # the ket series would exponentiate [[0, 1], [0, 0]] into a
        # non-unitary step, and the gradient's eigh read it as sigma_x
        with pytest.raises(ValueError, match="Hermitian"):
            ControlledHamiltonian(Operator([[0, 1], [0, 0]]),
                                  [(core.sigma_x(), 0)])

    def test_non_hermitian_coupling_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            ControlledHamiltonian(core.sigma_z(),
                                  [(core.sigma_x(), 0),
                                   (Operator([[0, 1], [0, 0]]), 1)])

    def test_non_finite_entries_named_before_hermiticity(self):
        # a NaN entry also fails the Hermitian check, which names a symptom
        nan = Operator([[np.nan, 0], [0, 1]])
        with pytest.raises(ValueError, match="drift Hamiltonian has "
                                             "non-finite entries"):
            ControlledHamiltonian(nan, [(core.sigma_x(), 0)])
        with pytest.raises(ValueError, match="coupling operator of control "
                                             "0 has non-finite entries"):
            ControlledHamiltonian(core.sigma_z(), [(nan, 0)])

    def test_at_assembles_sum(self):
        h = ControlledHamiltonian(core.sigma_z(), [(core.sigma_x(), 0),
                                                   (core.sigma_y(), 1)])
        got = h.at([2.0, -1.0])
        expected = (core.sigma_z().matrix + 2 * core.sigma_x().matrix
                    - core.sigma_y().matrix)
        assert np.allclose(got.matrix, expected)

    def test_shared_index_sums_operators(self):
        h = ControlledHamiltonian(core.sigma_z(), [(core.sigma_x(), 0),
                                                   (core.sigma_y(), 0)])
        assert h.n_controls == 1
        stack = h.coupling_stack
        assert stack.shape == (1, 2, 2)
        assert np.allclose(stack[0],
                           core.sigma_x().matrix + core.sigma_y().matrix)
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 1.0
        empty = ControlledHamiltonian(core.sigma_z(), []).coupling_stack
        assert empty.shape == (0, 2, 2)
        assert not empty.flags.writeable

    def test_real_model_keeps_real_arrays(self):
        # zero imaginary parts everywhere: the step Hamiltonians stay real
        real = ControlledHamiltonian(core.sigma_z(), [(core.sigma_x(), 0)])
        assert real.drift_matrix.dtype == np.float64
        assert real.coupling_stack.dtype == np.float64
        assert not real.drift_matrix.flags.writeable
        mixed = ControlledHamiltonian(core.sigma_z(), [(core.sigma_y(), 0)])
        assert mixed.drift_matrix.dtype == mixed.coupling_stack.dtype \
            == np.complex128
        assert np.array_equal(mixed.drift_matrix, core.sigma_z().matrix)

    def test_liouvillian_dim_check(self):
        h = ControlledHamiltonian(core.sigma_z(), [])
        with pytest.raises(core.DimensionMismatchError):
            Liouvillian(h, [core.identity(3)])
