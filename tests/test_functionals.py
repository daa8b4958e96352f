import numpy as np
import pytest

from qoctl import core
from qoctl.core import (Operator, QuantumState, hilbert_schmidt_distance,
                        hilbert_schmidt_overlap)
from qoctl.functionals import (CostSpec, NonUnitaryError,
                               bichromatic_population,
                               bichromatic_visibility, bloch_match_cost,
                               canonical_gate, j_gate, j_state_to_state,
                               local_invariants, pe_distance, quantum_beats,
                               three_state_gate_fidelity, three_state_report,
                               verification_states, weyl_coordinates)

from conftest import (CONCURRENCE_CHECKS, boundary_shell_gates,
                      dressed_canonical_gate, is_perfect_entangler,
                      max_output_concurrence, random_density, random_ket,
                      random_unitary)

CNOT = Operator([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
CPHASE_PI = Operator(np.diag([1, 1, 1, -1]).astype(complex))


def random_local_dressing(rng):
    """(k1 x k2) for Haar-random single-qubit unitaries."""
    return np.kron(random_unitary(rng, 2), random_unitary(rng, 2))


class TestStateToState:
    def test_trivial_values(self, rng):
        psi = random_ket(rng, 3)
        assert j_state_to_state(psi, psi) == pytest.approx(1.0)
        assert j_state_to_state(core.basis_ket(2, 0), core.basis_ket(2, 1)) \
            == 0.0
        plus = QuantumState.from_ket(np.array([1.0, 1.0]) / np.sqrt(2))
        assert j_state_to_state(plus, core.basis_ket(2, 0)) \
            == pytest.approx(0.5)


class TestGateCost:
    def test_exact_gate_zero(self):
        assert j_gate(CNOT, CNOT) == pytest.approx(0.0, abs=1e-14)

    def test_global_phase_penalized(self):
        flipped = Operator(np.exp(1j * np.pi) * CNOT.matrix)
        assert j_gate(flipped, CNOT) == pytest.approx(2.0)
        assert j_gate(flipped, CNOT, phase_insensitive=True) \
            == pytest.approx(0.0, abs=1e-12)

    def test_random_unitary_matches_direct_arithmetic(self, rng):
        u = Operator(random_unitary(rng, 4))
        expected = 1.0 - np.trace(CNOT.matrix.conj().T @ u.matrix).real / 4.0
        assert j_gate(u, CNOT) == pytest.approx(expected, abs=1e-12)

    def test_projected_subspace(self, rng):
        # gate on the first 2 of 3 levels; realized acts on the full space
        u_full = np.eye(3, dtype=complex)
        u_full[:2, :2] = random_unitary(rng, 2)
        gate = Operator(u_full[:2, :2])
        assert j_gate(Operator(u_full), gate) == pytest.approx(0.0, abs=1e-12)

    def test_non_unitary_rejected(self):
        with pytest.raises(NonUnitaryError):
            j_gate(CNOT, Operator(np.diag([1.0, 0.5, 1.0, 1.0])))


class TestLocalInvariants:
    def test_identity_value(self):
        assert np.allclose(local_invariants(core.identity(4)), [1, 0, 3],
                           atol=1e-12)

    def test_cnot_equals_cphase(self):
        gi = local_invariants(CNOT)
        gj = local_invariants(CPHASE_PI)
        assert np.max(np.abs(gi - gj)) <= 1e-10
        assert np.allclose(gi, [0, 0, 1], atol=1e-10)

    def test_invariance_under_local_dressing(self, rng):
        u = random_unitary(rng, 4)
        base = local_invariants(Operator(u))
        for _ in range(10):
            dressed = random_local_dressing(rng) @ u \
                @ random_local_dressing(rng)
            assert np.max(np.abs(local_invariants(Operator(dressed))
                                 - base)) <= 1e-10


class TestWeylCoordinates:
    def test_identity_at_origin(self):
        w = weyl_coordinates(core.identity(4))
        assert np.allclose(w.as_array(), [0, 0, 0], atol=1e-12)

    def test_cnot_at_point_l(self):
        w = weyl_coordinates(CNOT)
        assert np.allclose(w.as_array(), [np.pi / 2, 0, 0], atol=1e-10)

    def test_same_class_same_coordinates(self):
        wn = weyl_coordinates(CNOT)
        wp = weyl_coordinates(CPHASE_PI)
        assert np.max(np.abs(wn.as_array() - wp.as_array())) <= 1e-10

    def test_construct_then_extract_round_trip(self, rng):
        for _ in range(25):
            c1 = rng.uniform(0, np.pi / 2)
            c2 = rng.uniform(0, min(c1, np.pi - c1))
            c3 = rng.uniform(0, c2)
            got = weyl_coordinates(canonical_gate(c1, c2, c3)).as_array()
            assert np.max(np.abs(got - [c1, c2, c3])) <= 1e-8

    def test_canonicalization_idempotent(self, rng):
        u = random_unitary(rng, 4)
        w1 = weyl_coordinates(Operator(u))
        w2 = weyl_coordinates(canonical_gate(*w1.as_array()))
        assert np.max(np.abs(w1.as_array() - w2.as_array())) <= 1e-8

    def test_dressing_leaves_coordinates(self, rng):
        u = random_unitary(rng, 4)
        base = weyl_coordinates(Operator(u)).as_array()
        dressed = random_local_dressing(rng) @ u @ random_local_dressing(rng)
        got = weyl_coordinates(Operator(dressed)).as_array()
        assert np.max(np.abs(got - base)) <= 1e-8

    @pytest.mark.parametrize("c3", [1e-13, -1e-13, 0.0])
    @pytest.mark.parametrize("c1_over_pi", [0.3, 0.7])
    def test_c3_face_fold_ignores_roundoff(self, c1_over_pi, c3):
        # (c1, c2, 0) and (pi - c1, c2, 0) are one class on the c3 = 0 face;
        # a round-off-size c3 of either sign must not pick the side
        w = weyl_coordinates(canonical_gate(c1_over_pi * np.pi, 0.2 * np.pi,
                                            c3))
        assert w == weyl_coordinates(canonical_gate(0.3 * np.pi, 0.2 * np.pi,
                                                    0.0))
        assert abs(w.c1 / np.pi - 0.3) <= 1e-10
        assert w.c3 == 0.0 and np.copysign(1.0, w.c3) == 1.0


class TestPerfectEntangler:
    def test_cnot_is_perfect_entangler(self, rng):
        w = weyl_coordinates(CNOT)
        assert pe_distance(w) == 0.0
        # brute-force confirmation: CNOT takes a separable state to a
        # maximally entangled one
        c = max_output_concurrence(CNOT.matrix, rng)
        assert c >= 1 - 1e-9

    def test_identity_is_not(self):
        w = weyl_coordinates(core.identity(4))
        assert pe_distance(w) > 0.3
        # exact distance from O to the L-Q-P plane c1 + c2 = pi/2
        assert pe_distance(w) == pytest.approx(np.pi / (2 * np.sqrt(2)))

    def test_swap_is_not(self):
        swap = Operator([[1, 0, 0, 0], [0, 0, 1, 0],
                         [0, 1, 0, 0], [0, 0, 0, 1]])
        w = weyl_coordinates(swap)
        assert np.allclose(w.as_array() / np.pi, [0.5, 0.5, 0.5], atol=1e-9)
        assert pe_distance(w) > 0.0

    def test_membership_matches_concurrence_oracle(self, rng):
        # the exact test decides membership on 200 random gates and on the
        # boundary shell, with no margin; the Nelder-Mead concurrence
        # search confirms the test physically on gates far from the
        # boundary.  The acceptance suite runs 1000 random gates.
        gates = [(random_unitary(rng, 4), None) for _ in range(200)] \
            + boundary_shell_gates(rng)
        for u, inside in gates:
            exact = is_perfect_entangler(u)
            assert (pe_distance(weyl_coordinates(Operator(u))) == 0.0) \
                == exact
            assert inside is None or exact == inside
        for c, inside in CONCURRENCE_CHECKS:
            u = dressed_canonical_gate(rng, np.pi * np.array(c))
            assert is_perfect_entangler(u) == inside
            assert (max_output_concurrence(u, rng) >= 1 - 1e-6) == inside

    def test_distance_zero_iff_membership(self, rng):
        for _ in range(50):
            u = random_unitary(rng, 4)
            w = weyl_coordinates(Operator(u))
            assert (pe_distance(w) == 0.0) == w.in_perfect_entangler


class TestVerificationStates:
    def test_qubit_spectrum(self):
        vset = verification_states(2)
        assert np.allclose(vset.spectrum, [2 / 3, 1 / 3])

    def test_rho_p_unbiased(self):
        vset = verification_states(2)
        for i in range(2):
            p = core.basis_ket(2, i).to_density().rho
            assert np.trace(vset.rho_p.rho @ p).real \
                == pytest.approx(0.5)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_all_states_valid_densities(self, n):
        vset = verification_states(n)  # construction validates invariants
        gaps = -np.diff(vset.spectrum)
        assert np.min(gaps) >= 1 / (2 * n ** 2)
        for i in range(n):
            p = core.basis_ket(n, i).to_density().rho
            assert np.trace(vset.rho_p.rho @ p).real > 0


def conjugation(u: np.ndarray):
    def channel(state: QuantumState) -> QuantumState:
        return QuantumState._wrap("density", u @ state.rho @ u.conj().T)
    return channel


def full_basis_process_fidelity(channel_mat, gate: np.ndarray) -> float:
    """Oracle: normalized superoperator overlap over a complete orthonormal
    operator basis (N^2 Liouville-basis elements)."""
    n = gate.shape[0]
    basis = [np.eye(n, dtype=complex) / np.sqrt(n)]
    basis.extend(core.gellmann_basis(n))
    acc = 0.0
    for b in basis:
        target = gate @ b @ gate.conj().T
        acc += np.trace(target.conj().T @ channel_mat(b)).real
    return acc / n ** 2


class TestThreeStateFidelity:
    def test_exact_gate_gives_one(self, rng):
        vset = verification_states(4)
        u = random_unitary(rng, 4)
        fid = three_state_gate_fidelity(conjugation(u), Operator(u), vset)
        assert fid == pytest.approx(1.0, abs=1e-12)

    def test_different_class_below_one(self):
        vset = verification_states(4)
        fid = three_state_gate_fidelity(conjugation(CNOT.matrix),
                                        core.identity(4), vset)
        assert fid < 0.9

    def test_matches_process_fidelity_for_unitary_channels(self, rng):
        # The reconstruction makes the three-state figure coincide with
        # the full-Liouville-basis process fidelity on unitary channels,
        # so rankings trivially agree.
        vset = verification_states(4)
        gate = Operator(random_unitary(rng, 4))
        for _ in range(25):
            v = random_unitary(rng, 4)
            f3 = three_state_gate_fidelity(conjugation(v), gate, vset)
            fp = full_basis_process_fidelity(
                lambda m: v @ m @ v.conj().T, gate.matrix)
            assert f3 == pytest.approx(fp, abs=1e-8)

    def test_detects_basis_preserving_corruption(self, rng):
        # Dephasing in the rho_B eigenbasis leaves sigma_B untouched; the
        # consistency factors must still push the fidelity below one.
        vset = verification_states(2)

        def channel(state):
            rho = state.rho.copy()
            rho[0, 1] *= 0.5
            rho[1, 0] *= 0.5
            return QuantumState._wrap("density", rho)

        fid = three_state_gate_fidelity(channel, core.identity(2), vset)
        assert fid < 1.0 - 1e-3

    def test_report_exposes_per_state_numbers(self, rng):
        vset = verification_states(2)
        u = random_unitary(rng, 2)
        report = three_state_report(conjugation(u), Operator(u), vset)
        assert set(report.per_state) == {"basis", "phases", "unitality"}
        assert report.combined == pytest.approx(report.unitary_part,
                                                abs=1e-12)


class TestBlochMatchCost:
    def qubit_along(self, length, direction=(0, 0, 1.0)):
        d = np.asarray(direction, float)
        d = d / np.linalg.norm(d)
        rho = 0.5 * (np.eye(2) + length * (
            d[0] * core.sigma_x().matrix + d[1] * core.sigma_y().matrix
            + d[2] * core.sigma_z().matrix))
        return QuantumState.from_density(rho)

    def test_zero_iff_equal(self, rng):
        rho = random_density(rng, 2)
        assert bloch_match_cost(rho, rho) == pytest.approx(0.0, abs=1e-12)
        other = random_density(rng, 2)
        if np.max(np.abs(other.rho - rho.rho)) > 1e-6:
            assert bloch_match_cost(rho, other) > 0

    def test_overpure_state_pathology(self):
        # Collinear Bloch vectors |r2| > |r1| > |r_t|: the HS overlap
        # prefers the over-pure state; the matching cost and the HS
        # distance prefer the closer one.
        target = self.qubit_along(0.4)
        rho1 = self.qubit_along(0.6)
        rho2 = self.qubit_along(0.95)
        assert hilbert_schmidt_overlap(rho2, target) \
            > hilbert_schmidt_overlap(rho1, target)
        assert bloch_match_cost(rho1, target) < bloch_match_cost(rho2, target)
        assert hilbert_schmidt_distance(rho1, target) \
            < hilbert_schmidt_distance(rho2, target)

    def test_collinear_ordering_matches_hs_distance(self, rng):
        target = self.qubit_along(0.3)
        lengths = rng.uniform(0, 0.99, size=20)
        costs = [bloch_match_cost(self.qubit_along(l), target)
                 for l in lengths]
        dists = [hilbert_schmidt_distance(self.qubit_along(l), target)
                 for l in lengths]
        assert np.array_equal(np.argsort(costs), np.argsort(dists))

    def test_random_pairs_rank_agreement(self, rng):
        # The two orderings are distinct functionals (the angle term is not
        # weighted by |r||r_t| as the distance expansion would demand), so
        # exact ordering equivalence is impossible; the agreement rate on
        # random pairs was measured at build time (0.84) and frozen.
        target = random_density(rng, 2)
        agree = 0
        n_pairs = 1000
        for _ in range(n_pairs):
            a = random_density(rng, 2)
            b = random_density(rng, 2)
            cost_order = bloch_match_cost(a, target) \
                < bloch_match_cost(b, target)
            dist_order = hilbert_schmidt_distance(a, target) \
                < hilbert_schmidt_distance(b, target)
            agree += cost_order == dist_order
        assert agree / n_pairs >= 0.80

    def test_maximally_mixed_target_length_only(self, rng):
        target = core.maximally_mixed(2)
        c_short = bloch_match_cost(self.qubit_along(0.2), target)
        c_long = bloch_match_cost(self.qubit_along(0.8), target)
        assert 0 < c_short < c_long


class TestBichromaticFormula:
    def test_single_pathway_phase_independent(self):
        vals = [bichromatic_population(1.0, 0.8, 0.7, 0.0, phi)
                for phi in np.linspace(0, 2 * np.pi, 7)]
        assert np.max(np.abs(np.diff(vals))) <= 1e-14

    def test_symmetric_full_visibility(self):
        c = 1 / np.sqrt(2)
        vals = np.array([bichromatic_population(1.0, 1.0, c, c, phi)
                         for phi in np.linspace(0, 2 * np.pi, 101)])
        assert vals.min() == pytest.approx(0.0, abs=1e-12)
        assert bichromatic_visibility(1.0, 1.0, c, c) == pytest.approx(1.0)

    def test_visibility_formula(self):
        # exact cosine fit (the functional form has 3 parameters)
        c1, c2 = np.sqrt(0.7), np.sqrt(0.3) * np.exp(0.4j)
        om1, om2 = 1.0, 0.6
        phis = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        vals = np.array([bichromatic_population(om1, om2, c1, c2, phi)
                         for phi in phis])
        design = np.stack([np.ones_like(phis), np.cos(phis),
                           np.sin(phis)], axis=1)
        a0, ac, a_s = np.linalg.lstsq(design, vals, rcond=None)[0]
        vis = np.hypot(ac, a_s) / a0
        assert vis == pytest.approx(bichromatic_visibility(om1, om2, c1, c2),
                                    abs=1e-10)


class TestQuantumBeats:
    def test_single_moment_constant(self):
        t = np.linspace(0, 10, 50)
        vals = quantum_beats(1.2, 0.0, 0.0, 0.8, t)
        assert np.ptp(vals) == 0.0

    def test_equal_moments_full_contrast(self):
        # extremes at the analytic times where the cosine is +-1
        beat = 0.8
        assert quantum_beats(1.0, 1.0, 0.0, beat, np.pi / beat) \
            == pytest.approx(0.0, abs=1e-12)
        assert quantum_beats(1.0, 1.0, 0.0, beat, 2 * np.pi / beat) \
            == pytest.approx(2.0, abs=1e-12)

    def test_period(self):
        e_a, e_b = 0.3, 1.1
        t = np.linspace(0, 2 * np.pi / (e_b - e_a), 5)
        vals = quantum_beats(0.7, 0.4, e_a, e_b, t)
        assert vals[0] == pytest.approx(vals[-1])


class TestCostSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CostSpec(kind="energy")
