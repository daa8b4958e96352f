import numpy as np
import pytest
from scipy.linalg import expm

from qoctl import _kernels, core
from qoctl.core import ControlledHamiltonian, Liouvillian, Operator
from qoctl.dynamics import (ControlField, TimeGrid, Trajectory,
                            bloch_precession, expectation,
                            gkls_generator_parts, midpoint_derivative,
                            propagate_density, propagate_ket,
                            propagate_operator_sequence, reduced_gkls_parts,
                            step_hamiltonians)
from qoctl.scenarios import reset_model

from conftest import random_density, random_hermitian, random_ket


def tls_rabi(grid, rabi0, detuning=0.0):
    """Static-detuning driven qubit: H = -(delta/2) sz - (O0 S/2) sx."""
    h = ControlledHamiltonian(-0.5 * detuning * core.sigma_z(),
                              [(core.sigma_x(), 0)])
    field = ControlField.constant(grid, -0.5 * rabi0)
    return h, [field]


class TestTimeGrid:
    def test_staggered_grids(self):
        grid = TimeGrid(0.0, 1.0, 5)
        assert grid.dt == pytest.approx(0.25)
        assert np.allclose(grid.times, [0, 0.25, 0.5, 0.75, 1.0])
        assert np.allclose(grid.midpoints, [0.125, 0.375, 0.625, 0.875])

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0.0, 10)

    @pytest.mark.parametrize("t0, tf, nt, cause", [
        (float("nan"), 1.0, 3, "tf must exceed t0"),
        (0.0, float("inf"), 3, "step inf"),
        (-float("inf"), 0.0, 3, "step inf"),
        (-1e308, 1e308, 11, "step inf"),
        (0.0, 5e-324, 11, "step 0.0"),
        (0.0, 1e-310, 2, "step 1e-310"),
        # at 1e16 the floats are 2 apart: the midpoints 1e16 + 0.5,
        # + 1.5, + 2.5 round to 1e16, 1e16 + 2, 1e16 + 2
        (1e16, 1e16 + 4, 5, "midpoints do not increase strictly"),
    ])
    def test_unresolvable_grid_named(self, t0, tf, nt, cause):
        # rejected by name, before any numpy warning can fire
        with pytest.raises(ValueError, match="TimeGrid") as info:
            TimeGrid(t0, tf, nt)
        assert cause in str(info.value)

    def test_field_length_enforced(self):
        grid = TimeGrid(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            ControlField(grid, np.zeros(5))


class TestKetPropagation:
    def test_stationary_state_phase(self):
        omega0 = 1.3
        grid = TimeGrid(0.0, 10.0, 401)
        h = ControlledHamiltonian(0.5 * omega0 * core.sigma_z(), [])
        traj = propagate_ket(h, [], grid, core.basis_ket(2, 0))
        pops = traj.populations()
        assert np.max(np.abs(pops[:, 0] - 1.0)) <= 1e-12
        expected = np.exp(-0.5j * omega0 * grid.times)
        assert np.max(np.abs(traj.array[:, 0] - expected)) <= 1e-10

    def test_resonant_rabi_oscillation(self):
        # Closed-form oracle: P1(t) = sin^2(O0 t / 2) on resonance.
        rabi0 = 2 * np.pi
        grid = TimeGrid(0.0, 10.0, 2001)  # 10 Rabi periods
        h, fields = tls_rabi(grid, rabi0)
        traj = propagate_ket(h, fields, grid, core.basis_ket(2, 0))
        oracle = np.sin(0.5 * rabi0 * grid.times) ** 2
        assert np.max(np.abs(traj.populations()[:, 1] - oracle)) <= 1e-6

    def test_detuned_rabi_oscillation(self):
        # Generalized Rabi formula as oracle.
        rabi0, delta = 1.0, 0.7
        omega = np.hypot(rabi0, delta)
        grid = TimeGrid(0.0, 20.0, 4001)
        h, fields = tls_rabi(grid, rabi0, delta)
        traj = propagate_ket(h, fields, grid, core.basis_ket(2, 0))
        oracle = (rabi0 / omega) ** 2 * np.sin(0.5 * omega * grid.times) ** 2
        assert np.max(np.abs(traj.populations()[:, 1] - oracle)) <= 1e-8

    def test_norm_conservation_long_run(self):
        grid = TimeGrid(0.0, 100.0, 5001)
        h, fields = tls_rabi(grid, 1.0, 0.3)
        traj = propagate_ket(h, fields, grid, core.basis_ket(2, 0))
        assert traj.max_norm_drift() <= 1e-9

    def test_backward_round_trip(self, rng):
        grid = TimeGrid(0.0, 5.0, 501)
        h = ControlledHamiltonian(random_hermitian(rng, 3),
                                  [(random_hermitian(rng, 3), 0)])
        field = ControlField(grid, np.sin(grid.midpoints))
        psi0 = random_ket(rng, 3)
        fwd = propagate_ket(h, [field], grid, psi0)
        back = propagate_ket(h, [field], grid, fwd.final, "backward")
        assert np.max(np.abs(back.array[0] - psi0.ket)) <= 1e-9
        # the same Hamiltonian as an explicit midpoint sequence
        mats = [h.drift.matrix + u * h.coupling_stack[0]
                for u in field.samples]
        seq = propagate_operator_sequence(mats, grid, psi0)
        assert np.max(np.abs(seq.array - fwd.array)) <= 1e-9
        back = propagate_operator_sequence(mats, grid, seq.final, "backward")
        assert np.max(np.abs(back.array - seq.array)) <= 1e-9

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_operator_sequence_is_the_ket_path(self, rng, dim, direction):
        # a given Hamiltonian stack is stepped by the kernel propagate_ket
        # builds its own steps with: the same numbers, over several blocks
        # and with steps that need double-angle steps, and for a real model
        # in real arithmetic on both paths (its realification would scale
        # some steps by other powers of two)
        nt = 2 * _kernels.block_rows(dim) + 6
        grid = TimeGrid(0.0, 0.01 * (nt - 1), nt)
        for dtype in (complex, float):
            ops = [random_hermitian(rng, dim) for _ in range(3)]
            if dtype is float:
                ops = [Operator(op.matrix.real) for op in ops]
            h = ControlledHamiltonian(ops[0], [(ops[1], 0), (ops[2], 1)])
            assert h.coupling_stack.dtype == dtype
            fields = [ControlField(grid, 100.0 * rng.normal(size=nt - 1))
                      for _ in range(2)]
            psi0 = random_ket(rng, dim)
            ref = propagate_ket(h, fields, grid, psi0, direction)
            got = propagate_operator_sequence(
                step_hamiltonians(h, fields, grid), grid, psi0, direction)
            assert np.array_equal(got.array, ref.array)

    def test_control_count_mismatch(self):
        grid = TimeGrid(0.0, 1.0, 11)
        h, _ = tls_rabi(grid, 1.0)
        with pytest.raises(ValueError):
            propagate_ket(h, [], grid, core.basis_ket(2, 0))

    def test_grid_mismatch(self):
        grid = TimeGrid(0.0, 1.0, 11)
        other = TimeGrid(0.0, 2.0, 11)
        h, _ = tls_rabi(grid, 1.0)
        with pytest.raises(ValueError):
            propagate_ket(h, [ControlField.constant(other, 1.0)], grid,
                          core.basis_ket(2, 0))

    def test_second_order_convergence(self):
        # Midpoint sampling of a continuously varying drive: halving dt
        # shrinks the terminal error by ~4 against a fine-grid reference.
        omega_l, rabi0, tf = 20.0, 1.0, 3.0
        psi0 = core.basis_ket(2, 0)

        def run(nt):
            grid = TimeGrid(0.0, tf, nt)
            h = ControlledHamiltonian(0.5 * omega_l * core.sigma_z(),
                                      [(core.sigma_x(), 0)])
            field = ControlField(grid,
                                 rabi0 * np.cos(omega_l * grid.midpoints))
            return propagate_ket(h, [field], grid, psi0).array[-1]

        ref = run(40961)
        err_coarse = np.linalg.norm(run(641) - ref)
        err_fine = np.linalg.norm(run(1281) - ref)
        ratio = err_coarse / err_fine
        assert 3.5 <= ratio <= 4.5


class TestSampling:
    def test_step_hamiltonians_match_single_samples(self, rng):
        # two couplings share control 1
        grid = TimeGrid(0.0, 1.0, 8)
        h = ControlledHamiltonian(
            random_hermitian(rng, 3),
            [(random_hermitian(rng, 3), 0),
             (random_hermitian(rng, 3), 1),
             (random_hermitian(rng, 3), 1)])
        fields = [ControlField(grid, rng.normal(size=7)) for _ in range(2)]
        hams = step_hamiltonians(h, fields, grid)
        for k in range(grid.nt - 1):
            assert np.allclose(hams[k], h.at(
                [f.samples[k] for f in fields]).matrix, rtol=0, atol=1e-12)

    def test_midpoint_derivative(self):
        t = TimeGrid(0.0, 1.0, 11).midpoints
        d = midpoint_derivative(np.stack([t ** 2, -t], axis=1), 0.1)
        # central differences are exact for a quadratic inside
        assert np.allclose(d[1:-1, 0], 2 * t[1:-1], rtol=0, atol=1e-12)
        assert np.allclose(d[:, 1], -1.0, rtol=0, atol=1e-12)
        assert midpoint_derivative(np.array([3.0]), 0.1).tolist() == [0.0]


class TestDensityPropagation:
    def test_decay_closed_form(self):
        gamma = 0.37
        grid = TimeGrid(0.0, 10.0, 1001)
        h = ControlledHamiltonian(core.sigma_z(), [])
        liou = Liouvillian(h, [np.sqrt(gamma) * core.sigma_minus()])
        rho0 = core.basis_ket(2, 1).to_density()
        traj = propagate_density(liou, [], grid, rho0)
        oracle = np.exp(-gamma * grid.times)
        assert np.max(np.abs(traj.populations()[:, 1] - oracle)) <= 1e-8
        assert traj.max_norm_drift() <= 1e-10
        assert traj.min_eigenvalue() >= -1e-9

    def test_pure_dephasing_closed_form(self):
        # GKLS with L = sqrt(g) sz: populations frozen, coherence decays
        # at rate 2 g (closed form d rho01/dt = -2 g rho01).
        gamma = 0.25
        grid = TimeGrid(0.0, 4.0, 801)
        h = ControlledHamiltonian(0.7 * core.sigma_z(), [])
        liou = Liouvillian(h, [np.sqrt(gamma) * core.sigma_z()])
        rho0 = core.QuantumState.from_density([[0.6, 0.2], [0.2, 0.4]])
        traj = propagate_density(liou, [], grid, rho0)
        pops = traj.populations()
        assert np.max(np.abs(pops[:, 0] - 0.6)) <= 1e-10
        coherence = np.abs(traj.array[:, 0, 1])
        oracle = 0.2 * np.exp(-2.0 * gamma * grid.times)
        assert np.max(np.abs(coherence - oracle)) <= 1e-8

    def test_unitary_limit_matches_ket(self, rng):
        grid = TimeGrid(0.0, 3.0, 301)
        h = ControlledHamiltonian(random_hermitian(rng, 2),
                                  [(core.sigma_x(), 0)])
        field = ControlField(grid, np.cos(grid.midpoints))
        psi0 = random_ket(rng, 2)
        liou = Liouvillian(h, [])
        traj_rho = propagate_density(liou, [field], grid, psi0.to_density())
        traj_psi = propagate_ket(h, [field], grid, psi0)
        lifted = np.einsum("ki,kj->kij", traj_psi.array,
                           traj_psi.array.conj())
        assert np.max(np.abs(traj_rho.array - lifted)) <= 1e-10

    def test_backward_adjoint_pairing(self, rng):
        # The Hilbert-Schmidt pairing <chi(t), rho(t)> is constant when the
        # co-state runs backward under the adjoint generator.
        gamma = 0.2
        grid = TimeGrid(0.0, 2.0, 201)
        h = ControlledHamiltonian(core.sigma_z(), [(core.sigma_x(), 0)])
        field = ControlField(grid, np.sin(2 * grid.midpoints))
        liou = Liouvillian(h, [np.sqrt(gamma) * core.sigma_minus()])
        rho0 = core.basis_ket(2, 1).to_density()
        fwd = propagate_density(liou, [field], grid, rho0)
        target = random_hermitian(rng, 2).matrix
        target_state = core.QuantumState._wrap("density", target)
        bwd = propagate_density(liou, [field], grid, target_state, "backward")
        pairings = np.einsum("kij,kij->k", bwd.array.conj(), fwd.array)
        assert np.max(np.abs(pairings - pairings[0])) <= 1e-10


def dense_density_loop(liou, fields, grid, rho0, direction):
    """The dense complex path: ``expm`` of the vectorized ``N^2 x N^2``
    generator per step, or of its conjugate transpose backward."""
    gen0, gens = gkls_generator_parts(liou)
    if direction == "backward":
        gen0, gens = gen0.conj().T, np.conj(np.transpose(gens, (0, 2, 1)))
    n_mid, dim = grid.nt - 1, rho0.dim
    out = np.empty((n_mid + 1, dim * dim), dtype=complex)
    order = range(n_mid) if direction == "forward" \
        else range(n_mid - 1, -1, -1)
    out[0 if direction == "forward" else n_mid] = rho0.rho.reshape(-1)
    for k in order:
        gen = gen0 + sum(f.samples[k] * g for f, g in zip(fields, gens))
        step = expm(grid.dt * gen)
        src, dst = (k, k + 1) if direction == "forward" else (k + 1, k)
        out[dst] = step @ out[src]
    return Trajectory(grid, "density", out.reshape(-1, dim, dim))


def reset_case(rng):
    """The qubit-reset model (weak sigma_z x sigma_z parity symmetry)."""
    h, jumps, rho0, target, _ = reset_model(0.15)
    grid = TimeGrid(0.0, np.pi / 0.3, 61)
    field = ControlField(grid, 0.9 + 0.3 * np.sin(grid.midpoints))
    return Liouvillian(h, jumps), [field], grid, rho0, target


def random_case(rng):
    """A qutrit with random drift, control and jumps: no symmetry."""
    h = ControlledHamiltonian(random_hermitian(rng, 3),
                              [(random_hermitian(rng, 3), 0)])
    jumps = [Operator(0.3 * (rng.normal(size=(3, 3))
                             + 1j * rng.normal(size=(3, 3))))
             for _ in range(2)]
    grid = TimeGrid(0.0, 2.0, 81)
    field = ControlField(grid, np.cos(3.0 * grid.midpoints))
    return (Liouvillian(h, jumps), [field], grid, random_density(rng, 3),
            random_density(rng, 3))


def steady_case(rng):
    """A decaying qubit from its ground state: the state's orbit under the
    generator is one-dimensional, the co-state's under its adjoint is not."""
    h = ControlledHamiltonian(core.sigma_z(), [(core.sigma_z(), 0)])
    grid = TimeGrid(0.0, 2.0, 41)
    field = ControlField(grid, np.sin(grid.midpoints))
    rho0 = core.basis_ket(2, 0).to_density()
    return (Liouvillian(h, [np.sqrt(0.3) * core.sigma_minus()]), [field],
            grid, rho0, rho0)


class TestReducedGKLS:
    """The real reduced-basis stepping against the dense complex path."""

    @pytest.mark.parametrize("case, dim", [(reset_case, 8),
                                           (random_case, 9),
                                           (steady_case, 2)])
    def test_dimension(self, rng, case, dim):
        liou, _, _, rho0, target = case(rng)
        gen0, gens, basis = reduced_gkls_parts(liou, [rho0.rho, target.rho])
        assert gen0.shape == (dim, dim) and gens.shape == (1, dim, dim)
        assert gen0.dtype == gens.dtype == np.float64
        assert np.allclose(basis.conj().T @ basis, np.eye(dim), atol=1e-14)
        # the subspace is invariant: the dense parts and their adjoints map
        # it into itself
        full0, fulls = gkls_generator_parts(liou)
        for full, part in zip((full0,) + tuple(fulls), (gen0,) + tuple(gens)):
            assert np.max(np.abs(full @ basis - basis @ part)) <= 1e-12
            assert np.max(np.abs(full.conj().T @ basis
                                 - basis @ part.T)) <= 1e-12

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("case", [reset_case, random_case, steady_case])
    def test_matches_dense_path(self, rng, case, direction):
        liou, fields, grid, rho0, _ = case(rng)
        got = propagate_density(liou, fields, grid, rho0, direction)
        ref = dense_density_loop(liou, fields, grid, rho0, direction)
        assert np.max(np.abs(got.array - ref.array)) <= 1e-10

    @pytest.mark.parametrize("case", [reset_case, random_case])
    def test_invariants_unchanged(self, rng, case):
        liou, fields, grid, rho0, _ = case(rng)
        got = propagate_density(liou, fields, grid, rho0)
        ref = dense_density_loop(liou, fields, grid, rho0, "forward")
        assert got.max_norm_drift() <= 1e-12
        assert abs(got.max_norm_drift() - ref.max_norm_drift()) <= 1e-12
        assert abs(got.min_eigenvalue() - ref.min_eigenvalue()) <= 1e-10


class TestExpectation:
    def test_trivial_values(self):
        assert expectation(core.sigma_z(), core.basis_ket(2, 0)) \
            == pytest.approx(1.0)
        assert expectation(core.sigma_x(), core.maximally_mixed(2)) \
            == pytest.approx(0.0)

    def test_hermitian_gives_real(self, rng):
        op = random_hermitian(rng, 3)
        val = expectation(op, random_ket(rng, 3))
        assert isinstance(val, float)
        raw = np.vdot(random_ket(rng, 3).ket, np.zeros(3))  # noqa: F841
        psi = random_ket(rng, 3)
        assert abs(np.vdot(psi.ket, op.matrix @ psi.ket).imag) <= 1e-13

    def test_dim_mismatch(self):
        with pytest.raises(core.DimensionMismatchError):
            expectation(core.identity(3), core.basis_ket(2, 0))

    def test_density_trajectory_matches_each_state(self, rng):
        grid = TimeGrid(0.0, 2.0, 101)
        h = ControlledHamiltonian(random_hermitian(rng, 3),
                                  [(random_hermitian(rng, 3), 0)])
        liou = Liouvillian(h, [0.3 * Operator(np.diag([1.0, 1.0], 1))])
        field = ControlField(grid, np.sin(grid.midpoints))
        traj = propagate_density(liou, [field], grid, random_density(rng, 3))
        general = Operator(rng.normal(size=(3, 3))
                           + 1j * rng.normal(size=(3, 3)))
        for op in (random_hermitian(rng, 3), general):
            vals = traj.expectations(op)
            assert np.iscomplexobj(vals) != op.hermitian
            ref = [expectation(op, traj.state(k)) for k in range(len(traj))]
            assert np.max(np.abs(vals - ref)) <= 1e-13


class TestBlochPrecession:
    def test_precession_about_z(self):
        omega = 2.0
        grid = TimeGrid(0.0, 5.0, 2001)
        out = bloch_precession(lambda t: (0.0, 0.0, omega), (1, 0, 0), grid)
        # dr/dt = r x Omega rotates x toward -y for Omega along +z
        expected_x = np.cos(omega * grid.times)
        expected_y = -np.sin(omega * grid.times)
        assert np.max(np.abs(out[:, 0] - expected_x)) <= 1e-9
        assert np.max(np.abs(out[:, 1] - expected_y)) <= 1e-9

    def test_parallel_is_fixed_point(self):
        grid = TimeGrid(0.0, 3.0, 301)
        out = bloch_precession(lambda t: (0.0, 0.0, 1.7), (0, 0, 0.5), grid)
        assert np.max(np.abs(out - out[0])) == 0.0

    def test_norm_conserved(self):
        grid = TimeGrid(0.0, 10.0, 4001)
        out = bloch_precession(lambda t: (np.cos(t), 0.4, np.sin(3 * t)),
                               (0.6, 0.0, 0.8), grid)
        norms = np.linalg.norm(out, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-9

    def test_matches_full_propagation(self, rng):
        # Oracle: full TLS propagation.  For H = a.sigma the Pauli vector
        # obeys dr/dt = 2 a x r, i.e. r x Omega with Omega = -2a.
        grid = TimeGrid(0.0, 4.0, 4001)

        def coeffs(t):
            return np.array([0.4 * np.cos(1.5 * t), 0.2, 0.5 * np.sin(t)])

        h = ControlledHamiltonian(
            Operator(np.zeros((2, 2))),
            [(core.sigma_x(), 0), (core.sigma_y(), 1), (core.sigma_z(), 2)])
        fields = [ControlField(grid, np.array([coeffs(t)[j]
                                               for t in grid.midpoints]))
                  for j in range(3)]
        psi0 = random_ket(rng, 2)
        traj = propagate_ket(h, fields, grid, psi0)
        paulis = [core.sigma_x(), core.sigma_y(), core.sigma_z()]
        r_ref = np.stack([traj.expectations(p) for p in paulis], axis=1)
        out = bloch_precession(lambda t: -2.0 * coeffs(t), r_ref[0], grid)
        assert np.max(np.abs(out - r_ref)) <= 1e-8


class TestTrajectoryExport:
    def test_csv_columns(self, tmp_path):
        grid = TimeGrid(0.0, 1.0, 5)
        h, fields = tls_rabi(grid, 1.0)
        traj = propagate_ket(h, fields, grid, core.basis_ket(2, 0))
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time,pop_0,pop_1"
        assert len(lines) == 6
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0 and first[1] == 1.0
