import numpy as np
import pytest

from qoctl import core
from qoctl.core import ControlledHamiltonian, Operator
from qoctl.dynamics import (ControlField, TimeGrid, propagate_ket,
                            propagate_operator_sequence)
from qoctl.frames import (ChirpResolutionError, ThreeLevelDriveSpec,
                          TwoLevelDriveSpec, chirped_field, rotating_frame,
                          rwa_three_level, rwa_two_level)


def drive_spec(grid, omega0, omegaL, rabi0, shape=None):
    shape = shape if shape is not None else ControlField.constant(grid, 1.0)
    return TwoLevelDriveSpec(omega0=omega0, omegaL=omegaL, rabi0=rabi0,
                             shape=shape)


class TestRotatingFrame:
    def test_zero_phases_identity(self, rng):
        grid = TimeGrid(0.0, 1.0, 11)
        h = ControlledHamiltonian(core.sigma_z(), [(core.sigma_x(), 0)])
        field = ControlField(grid, np.sin(grid.midpoints))
        seq = rotating_frame(h, [field], grid,
                             theta=lambda t: (0.0, 0.0),
                             theta_dot=lambda t: (0.0, 0.0))
        for k, t in enumerate(grid.midpoints):
            assert np.max(np.abs(seq[k] - h.at([np.sin(t)]).matrix)) <= 1e-14

    @pytest.mark.parametrize("other", [TimeGrid(0.0, 1.0, 6),
                                       TimeGrid(0.0, 2.0, 11)],
                             ids=["shorter", "same_nt"])
    def test_field_on_another_grid_rejected(self, other):
        h = ControlledHamiltonian(core.sigma_z(), [(core.sigma_x(), 0)])
        field = ControlField(other, np.sin(other.midpoints))
        with pytest.raises(ValueError, match="grid"):
            rotating_frame(h, [field], TimeGrid(0.0, 1.0, 11),
                           theta=lambda t: (0.0, 0.0),
                           theta_dot=lambda t: (0.0, 0.0))

    def test_missing_derivative(self):
        grid = TimeGrid(0.0, 1.0, 11)
        h = ControlledHamiltonian(core.sigma_z(), [])
        with pytest.raises(TypeError):
            rotating_frame(h, [], grid, theta=lambda t: (0.0, 0.0))

    def test_tls_offdiagonal_factors(self):
        # theta = (0, omega0 t) leaves e^{+-i(omega_L -+ omega0) t} factors
        # on the off-diagonals of the lab-frame drive.
        omega0, omegaL = 5.0, 4.5
        grid = TimeGrid(0.0, 2.0, 401)
        spec = drive_spec(grid, omega0, omegaL, rabi0=0.4)
        h, fields = spec.lab_hamiltonian()
        seq = rotating_frame(
            h, fields, grid,
            theta=lambda t: (0.0, omega0 * t),
            theta_dot=lambda t: (0.0, omega0))
        t = grid.midpoints
        lab_coupling = -0.4 * np.cos(omegaL * t)
        # H'_{01} = H_{01} e^{i(theta_0 - theta_1)} = H_{01} e^{-i omega0 t}
        expected = lab_coupling * np.exp(-1j * omega0 * t)
        got = seq[:, 0, 1]
        assert np.max(np.abs(got - expected)) <= 1e-12
        # diagonal of the rotated drift: (-omega0/2) - (0, omega0)
        assert seq[0, 1, 1] == pytest.approx(0.5 * omega0 - omega0)

    def test_population_equivalence_oracle(self):
        # Populations from lab-frame and rotated-frame propagation agree;
        # both are O(dt^2) discretizations, so the grid is taken fine.
        omega0, omegaL, rabi0 = 1.0, 0.8, 0.5
        grid = TimeGrid(0.0, 4.0, 60001)
        spec = drive_spec(grid, omega0, omegaL, rabi0)
        h, fields = spec.lab_hamiltonian()
        psi0 = core.basis_ket(2, 0)
        lab = propagate_ket(h, fields, grid, psi0)
        seq = rotating_frame(h, fields, grid,
                             theta=lambda t: (0.5 * omega0 * t,
                                              -0.5 * omega0 * t),
                             theta_dot=lambda t: (0.5 * omega0,
                                                  -0.5 * omega0))
        rotated = propagate_operator_sequence(seq, grid, psi0)
        diff = np.abs(lab.populations() - rotated.populations())
        assert np.max(diff) <= 1e-9


class TestRwaTwoLevel:
    def test_resonant_rabi(self):
        rabi0 = 1.0
        grid = TimeGrid(0.0, 4 * np.pi, 2001)
        spec = drive_spec(grid, omega0=50.0, omegaL=50.0, rabi0=rabi0)
        res = rwa_two_level(spec, frame="carrier")
        traj = propagate_ket(res.hamiltonian, res.fields, grid,
                             core.basis_ket(2, 0))
        oracle = np.sin(0.5 * rabi0 * grid.times) ** 2
        assert np.max(np.abs(traj.populations()[:, 1] - oracle)) <= 1e-9
        assert res.validity_ratio == pytest.approx(50.0)

    def test_static_detuning_form(self):
        grid = TimeGrid(0.0, 1.0, 11)
        spec = drive_spec(grid, omega0=10.0, omegaL=9.0, rabi0=2.0)
        res = rwa_two_level(spec, frame="carrier")
        h = res.hamiltonian.at([f.samples[0] for f in res.fields])
        delta = 1.0
        expected = -0.5 * (delta * core.sigma_z().matrix
                           + 2.0 * core.sigma_x().matrix)
        assert np.max(np.abs(h.matrix - expected)) <= 1e-12

    def test_instantaneous_frame_one_sample(self):
        # one midpoint: the phase derivative is zero, so the detuning is
        # not shifted
        grid = TimeGrid(0.0, 1.0, 2)
        spec = TwoLevelDriveSpec(omega0=10.0, omegaL=9.0, rabi0=2.0,
                                 shape=ControlField.constant(grid, 1.0),
                                 phase=ControlField.constant(grid, 0.7))
        res = rwa_two_level(spec, frame="instantaneous")
        assert res.fields[0].samples.tolist() == [-0.5 * spec.detuning]

    def test_zero_shape_free_evolution(self):
        grid = TimeGrid(0.0, 5.0, 101)
        spec = drive_spec(grid, 10.0, 9.5, 1.3,
                          shape=ControlField.constant(grid, 0.0))
        res = rwa_two_level(spec, frame="carrier")
        traj = propagate_ket(res.hamiltonian, res.fields, grid,
                             core.basis_ket(2, 0))
        assert np.max(np.abs(traj.populations()[:, 1])) <= 1e-14

    def test_frames_agree_with_each_other(self):
        # carrier / drift / instantaneous RWA frames give the same
        # populations (exactly the same physics, different bookkeeping).
        grid = TimeGrid(0.0, 6.0, 12001)
        spec = drive_spec(grid, omega0=40.0, omegaL=39.7, rabi0=0.8)
        psi0 = core.basis_ket(2, 0)
        pops = {}
        for frame in ("carrier", "drift", "instantaneous"):
            res = rwa_two_level(spec, frame=frame)
            traj = propagate_ket(res.hamiltonian, res.fields, grid, psi0)
            pops[frame] = traj.populations()
        assert np.max(np.abs(pops["carrier"] - pops["drift"])) <= 1e-6
        assert np.max(np.abs(pops["carrier"]
                             - pops["instantaneous"])) <= 1e-6

    @pytest.mark.parametrize("ratio,tol", [(100.0, 1e-3)])
    def test_lab_vs_rwa_final_populations(self, ratio, tol):
        assert rwa_error(ratio) <= tol

    def test_rwa_error_decreases_with_ratio(self):
        errs = [rwa_error(r) for r in (10.0, 30.0, 100.0)]
        assert errs[0] > errs[1] > errs[2]


def rwa_error(ratio, periods=2.0):
    """Final-population deviation between lab-frame and RWA propagation.

    Compared after a whole number of Rabi periods, where the residual RWA
    error dominates (at intermediate times the Bloch-Siegert frequency
    shift, a known beyond-RWA effect, adds a transient of order
    Omega^2 t / omega0).
    """
    rabi0 = 1.0
    omega0 = ratio * rabi0
    tf = periods * 2 * np.pi / rabi0
    nt = int(160 * omega0 * tf / (2 * np.pi)) + 1
    grid = TimeGrid(0.0, tf, nt)
    spec = drive_spec(grid, omega0, omega0, rabi0)
    psi0 = core.basis_ket(2, 0)
    lab_h, lab_fields = spec.lab_hamiltonian()
    lab = propagate_ket(lab_h, lab_fields, grid, psi0)
    res = rwa_two_level(spec, frame="carrier")
    rwa = propagate_ket(res.hamiltonian, res.fields, grid, psi0)
    return float(np.max(np.abs(lab.populations()[-1]
                               - rwa.populations()[-1])))


class TestRwaThreeLevel:
    def test_no_drive_diagonal(self):
        grid = TimeGrid(0.0, 1.0, 11)
        zero = ControlField.constant(grid, 0.0)
        spec = ThreeLevelDriveSpec(energies=(0.0, 10.0, 19.0),
                                   rabi=(zero, zero),
                                   carriers=(10.5, 8.7))
        h, fields = rwa_three_level(spec)
        got = h.at([0.0, 0.0]).matrix
        d1 = 10.5 - 10.0
        d2p = d1 + (8.7 - 9.0)
        assert np.allclose(np.diag(got), [0.0, d1, d2p])
        assert np.max(np.abs(got - np.diag(np.diag(got)))) == 0.0

    def test_one_photon_resonance_zero_diagonal(self):
        grid = TimeGrid(0.0, 1.0, 11)
        f1 = ControlField.constant(grid, 0.4)
        f2 = ControlField.constant(grid, 0.6)
        spec = ThreeLevelDriveSpec(energies=(0.0, 10.0, 19.0),
                                   rabi=(f1, f2), carriers=(10.0, 9.0))
        h, fields = rwa_three_level(spec)
        got = h.at([f.samples[0] for f in fields]).matrix
        assert np.allclose(np.diag(got), 0.0)
        assert got[0, 1] == pytest.approx(0.2)
        assert got[1, 2] == pytest.approx(0.3)
        assert got[0, 2] == 0.0

    def test_weak_drive_matches_lab_frame(self):
        # Oracle: full lab-frame propagation with carriers 100x the Rabi
        # frequencies; populations agree within 1e-2.
        rabi_peak = 0.1
        omega21, omega32 = 20.0, 12.0
        grid = TimeGrid(0.0, 24.0, 24001)
        env = ControlField(grid, rabi_peak
                           * np.sin(np.pi * grid.midpoints / 24.0) ** 2)
        spec = ThreeLevelDriveSpec(energies=(0.0, omega21, omega21 + omega32),
                                   rabi=(env, env),
                                   carriers=(omega21, omega32))
        psi0 = core.basis_ket(3, 0)
        h_rwa, f_rwa = rwa_three_level(spec)
        rwa = propagate_ket(h_rwa, f_rwa, grid, psi0)
        h_lab, f_lab = spec.lab_hamiltonian()
        lab = propagate_ket(h_lab, f_lab, grid, psi0)
        assert np.max(np.abs(rwa.populations() - lab.populations())) <= 1e-2


class TestChirpedField:
    def test_zero_chirp_plain_carrier(self):
        grid = TimeGrid(0.0, 1.0, 201)
        shape = ControlField.constant(grid, 1.0)
        field = chirped_field(2.0, shape, omegaL=10.0, alpha=0.0)
        expected = 2.0 * np.cos(10.0 * grid.midpoints)
        assert np.allclose(field.samples, expected)

    def test_zero_crossing_spacing_shrinks(self):
        grid = TimeGrid(0.0, 20.0, 40001)
        shape = ControlField.constant(grid, 1.0)
        field = chirped_field(1.0, shape, omegaL=10.0, alpha=0.4)
        s = field.samples
        crossings = grid.midpoints[:-1][np.diff(np.sign(s)) != 0]
        spacing = np.diff(crossings)
        assert np.all(np.diff(spacing) < 1e-12)

    def test_under_resolved_refusal(self):
        grid = TimeGrid(0.0, 10.0, 51)
        shape = ControlField.constant(grid, 1.0)
        with pytest.raises(ChirpResolutionError) as err:
            chirped_field(1.0, shape, omegaL=40.0, alpha=1.0)
        assert err.value.required_nt > 51

    def test_landau_zener_via_chirp_matches_detuning_model(self):
        # A linearly chirped lab-frame pulse sweeps the instantaneous
        # detuning at rate 2*alpha; the RWA linear-detuning model is the
        # oracle for the final populations.
        omega0, rabi0, alpha = 60.0, 1.0, 0.25
        tf = 24.0
        nt = 120001
        grid = TimeGrid(-tf / 2, tf / 2, nt)
        shape = ControlField.constant(grid, 1.0)
        # carrier resonant at t=0: phase omega0 t + alpha t^2
        h_lab = ControlledHamiltonian(-0.5 * omega0 * core.sigma_z(),
                                      [(core.sigma_x(), 0)])
        lab_field = -1.0 * chirped_field(rabi0, shape, omega0, alpha)
        lab = propagate_ket(h_lab, [lab_field], grid, core.basis_ket(2, 0))
        # RWA model in the instantaneous frame: detuning -phi_dot = -2 a t
        h_rwa = ControlledHamiltonian(
            Operator(np.zeros((2, 2))),
            [(core.sigma_z(), 0), (core.sigma_x(), 1)])
        fields = [ControlField(grid, 0.5 * 2.0 * alpha * grid.midpoints),
                  ControlField(grid, np.full(nt - 1, -0.5 * rabi0))]
        rwa = propagate_ket(h_rwa, fields, grid, core.basis_ket(2, 0))
        final_lab = lab.populations()[-1]
        final_rwa = rwa.populations()[-1]
        assert np.max(np.abs(final_lab - final_rwa)) <= 1e-2
