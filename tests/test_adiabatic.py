import numpy as np
import pytest

from qoctl import core
from qoctl.adiabatic import (CONTINUITY_MIN_OVERLAP, DegenerateCrossingError,
                             DetuningConditionError, _max_overlap_assignment,
                             adiabaticity_margin, counterdiabatic_generic,
                             counterdiabatic_tls, dressed_frame, landau_zener,
                             mixing_angles, stirap_dark_state)
from qoctl.core import ControlledHamiltonian, Liouvillian, Operator
from qoctl.dynamics import (ControlField, TimeGrid, propagate_density,
                            propagate_ket, step_hamiltonians)
from qoctl.frames import ThreeLevelDriveSpec, rwa_three_level

from conftest import random_hermitian


def static_detuning_problem(grid, rabi_samples, detuning_samples):
    """H = -(Delta sz + Omega sx)/2 as drift-free controlled Hamiltonian."""
    h = ControlledHamiltonian(Operator(np.zeros((2, 2))),
                              [(core.sigma_z(), 0), (core.sigma_x(), 1)])
    fields = [ControlField(grid, -0.5 * np.asarray(detuning_samples)),
              ControlField(grid, -0.5 * np.asarray(rabi_samples))]
    return h, fields


def stirap_pulses(grid, rabi0, tau, delay, order):
    tc = 0.5 * (grid.t0 + grid.tf)
    pump_c = tc + delay / 2 if order == "counterintuitive" else tc - delay / 2
    stokes_c = tc - delay / 2 if order == "counterintuitive" else tc + delay / 2
    t = grid.midpoints
    pump = rabi0 * np.exp(-0.5 * ((t - pump_c) / tau) ** 2)
    stokes = rabi0 * np.exp(-0.5 * ((t - stokes_c) / tau) ** 2)
    return ControlField(grid, pump), ControlField(grid, stokes)


def optimal_dressed_frame(h, fields, grid):
    """``dressed_frame``'s arithmetic with scipy's optimal assignment:
    energies, vectors and flagged steps."""
    from scipy.optimize import linear_sum_assignment
    energies, vectors = np.linalg.eigh(step_hamiltonians(h, fields, grid))
    n_steps, dim = energies.shape
    lead = vectors[0][np.argmax(np.abs(vectors[0]), axis=0), np.arange(dim)]
    vectors[0] /= lead / np.abs(lead)
    flagged = []
    for k in range(1, n_steps):
        overlap = np.abs(vectors[k - 1].conj().T @ vectors[k])
        perm = linear_sum_assignment(-overlap)[1]
        w, v = energies[k, perm], vectors[k][:, perm]
        matched = overlap[np.arange(dim), perm]
        scale = max(1.0, float(np.max(np.abs(w))))
        if np.min(matched) < CONTINUITY_MIN_OVERLAP or \
                np.min(np.diff(np.sort(w)), initial=np.inf) < 1e-10 * scale:
            flagged.append(k)
        inner = np.einsum("in,in->n", vectors[k - 1].conj(), v)
        phases = np.where(np.abs(inner) > 0, inner / np.abs(inner), 1.0)
        energies[k] = w
        vectors[k] = v / phases[None, :]
    return energies, vectors, tuple(flagged)


class TestDressedFrame:
    def test_frame_matches_optimal_assignment(self):
        # up to its first flagged step a frame is bitwise the one that
        # scipy's optimal assignment tracks, on 2 to 16 levels
        rng = np.random.default_rng(37)
        grid = TimeGrid(0.0, 1.0, 201)
        unflagged = 0
        for dim in range(2, 17):
            for _ in range(2):
                h = ControlledHamiltonian(random_hermitian(rng, dim),
                                          [(random_hermitian(rng, dim), 0)])
                phase = rng.uniform(0.0, 2 * np.pi)
                fields = [ControlField(grid, 3.0 * np.sin(
                    2 * np.pi * grid.midpoints + phase))]
                frame = dressed_frame(h, fields, grid)
                energies, vectors, flagged = optimal_dressed_frame(
                    h, fields, grid)
                assert frame.flagged_steps[:1] == flagged[:1]
                stop = (flagged + (grid.nt - 1,))[0]
                assert np.array_equal(frame.energies[:stop], energies[:stop])
                assert np.array_equal(frame.vectors[:stop], vectors[:stop])
                unflagged += not flagged
        assert unflagged > 0

    def test_two_levels_match_optimal_assignment_everywhere(self, rng):
        # for two levels greedy is optimal at flagged steps too
        cross_grid = TimeGrid(-1.0, 1.0, 12)
        crossing = (ControlledHamiltonian(Operator(np.zeros((2, 2))),
                                          [(core.sigma_z(), 0)]),
                    [ControlField(cross_grid, cross_grid.midpoints)],
                    cross_grid)
        lz_grid = TimeGrid(-4.0, 4.0, 101)
        problems = [crossing, (*landau_zener(lz_grid, 0.8, 1.0), lz_grid)]
        grid = TimeGrid(0.0, 1.0, 201)
        for _ in range(4):
            h = ControlledHamiltonian(random_hermitian(rng, 2),
                                      [(random_hermitian(rng, 2), 0)])
            problems.append((h, [ControlField(grid, 3.0 * np.sin(
                2 * np.pi * grid.midpoints))], grid))
        for h, fields, grid in problems:
            frame = dressed_frame(h, fields, grid)
            energies, vectors, flagged = optimal_dressed_frame(
                h, fields, grid)
            assert frame.flagged_steps == flagged
            assert np.array_equal(frame.energies, energies)
            assert np.array_equal(frame.vectors, vectors)
        assert dressed_frame(*crossing).flagged_steps

    def test_constant_overlap_matched_in_order(self):
        for n in range(1, 17):
            assert np.array_equal(
                _max_overlap_assignment(np.full((n, n), 0.5)), np.arange(n))

    def test_one_level(self):
        grid = TimeGrid(0.0, 1.0, 5)
        h = ControlledHamiltonian(Operator([[1.0]]),
                                  [(Operator([[2.0]]), 0)])
        frame = dressed_frame(h, [ControlField(grid, grid.midpoints)], grid)
        assert np.allclose(frame.energies[:, 0], 1.0 + 2 * grid.midpoints)
        assert np.array_equal(frame.vectors, np.ones((4, 1, 1)))
        assert frame.flagged_steps == ()
        assert frame.gaps().tolist() == [np.inf] * 4

    def test_static_hamiltonian_constant_frame(self, rng):
        grid = TimeGrid(0.0, 1.0, 21)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = ControlledHamiltonian(Operator(0.5 * (m + m.conj().T)), [])
        frame = dressed_frame(h, [], grid)
        assert np.max(np.abs(frame.energies - frame.energies[0])) <= 1e-12
        assert np.max(np.abs(frame.vectors - frame.vectors[0])) <= 1e-12
        assert frame.flagged_steps == ()

    def test_tls_generalized_rabi_eigenvalues(self):
        grid = TimeGrid(0.0, 1.0, 11)
        delta, om = 0.8, 1.1
        h, fields = static_detuning_problem(
            grid, np.full(10, om), np.full(10, delta))
        frame = dressed_frame(h, fields, grid)
        gen = 0.5 * np.hypot(delta, om)
        assert np.allclose(sorted(frame.energies[0]), [-gen, gen])

    def test_landau_zener_avoided_crossing_gap(self):
        gap = 0.6
        grid = TimeGrid(-10.0, 10.0, 2001)
        h, fields = landau_zener(grid, gap, 1.0)
        frame = dressed_frame(h, fields, grid)
        gaps = frame.gaps()
        assert np.min(gaps) == pytest.approx(gap, rel=1e-3)
        # continuity ordering keeps each branch smooth through the crossing
        jumps = np.max(np.abs(np.diff(frame.energies, axis=0)))
        assert jumps < 0.05

    def test_eigenvalues_match_direct_diagonalization(self):
        grid = TimeGrid(-4.0, 4.0, 101)
        h, fields = landau_zener(grid, 0.8, 1.0)
        frame = dressed_frame(h, fields, grid)
        amps = np.stack([f.samples for f in fields], axis=1)
        for k in range(grid.nt - 1):
            direct = np.linalg.eigvalsh(h.at(amps[k]).matrix)
            assert np.max(np.abs(np.sort(frame.energies[k]) - direct)) \
                <= 1e-12

    @pytest.mark.parametrize("other", [TimeGrid(0.0, 1.0, 6),
                                       TimeGrid(0.0, 2.0, 11)],
                             ids=["shorter", "same_nt"])
    def test_field_on_another_grid_rejected(self, other):
        h, fields = landau_zener(other, 0.5, 1.0)
        with pytest.raises(ValueError, match="grid"):
            dressed_frame(h, fields, TimeGrid(0.0, 1.0, 11))

    def test_exact_crossing_is_flagged(self):
        # no coupling: the two levels cross for real at t = 0
        grid = TimeGrid(-1.0, 1.0, 12)
        h = ControlledHamiltonian(Operator(np.zeros((2, 2))),
                                  [(core.sigma_z(), 0)])
        fields = [ControlField(grid, grid.midpoints)]
        frame = dressed_frame(h, fields, grid)
        assert len(frame.flagged_steps) >= 1
        with pytest.raises(DegenerateCrossingError):
            counterdiabatic_generic(frame)


class TestAdiabaticityMargin:
    def test_constant_hamiltonian_zero_margin(self):
        grid = TimeGrid(0.0, 5.0, 101)
        h, fields = static_detuning_problem(grid, np.full(100, 1.0),
                                            np.full(100, 0.5))
        frame = dressed_frame(h, fields, grid)
        angles = mixing_angles(ControlField.constant(grid, 1.0),
                               ControlField.constant(grid, 0.5))
        margin = adiabaticity_margin(frame, angles)
        assert np.max(np.abs(margin.samples)) <= 1e-12

    def test_mixing_angle_matches_hamiltonian(self):
        # tan(theta) = 2|W_ab| / (E_a - E_b) against the matrix entries of
        # H = +(Delta sz + Omega sx)/2.
        grid = TimeGrid(0.0, 1.0, 6)
        om, delta = 1.3, 0.9
        angles = mixing_angles(ControlField.constant(grid, om),
                               ControlField.constant(grid, delta))
        ham = 0.5 * (delta * core.sigma_z().matrix
                     + om * core.sigma_x().matrix)
        expected = 2 * abs(ham[0, 1]) / (ham[0, 0] - ham[1, 1])
        assert np.tan(angles.theta.samples[0]) == pytest.approx(expected)

    def test_one_sample_zero_derivative(self):
        grid = TimeGrid(0.0, 1.0, 2)
        angles = mixing_angles(ControlField.constant(grid, 1.3),
                               ControlField.constant(grid, 0.9))
        assert angles.theta_dot.tolist() == [0.0]

    def test_slow_gaussian_pulse_adiabatic_return(self):
        # Propagation oracle: small margin and the state returns to the
        # initial bare state.
        delta, om0, tf, tau = 1.0, 2.0, 56.0, 7.0
        grid = TimeGrid(0.0, tf, 4001)
        om = om0 * np.exp(-0.5 * ((grid.midpoints - tf / 2) / tau) ** 2)
        h, fields = static_detuning_problem(grid, om, np.full(4000, delta))
        frame = dressed_frame(h, fields, grid)
        angles = mixing_angles(ControlField(grid, om),
                               ControlField.constant(grid, delta))
        margin = adiabaticity_margin(frame, angles)
        assert np.max(margin.samples) < 0.05
        psi0 = core.basis_ket(2, 0)
        traj = propagate_ket(h, fields, grid, psi0)
        fid = abs(np.vdot(psi0.ket, traj.array[-1])) ** 2
        assert fid > 0.999

    def test_fast_sweep_diabatic_transition(self):
        # margin > 1 somewhere -> appreciable diabatic transition
        rate, gap = 50.0, 1.0
        grid = TimeGrid(-0.8, 0.8, 4001)
        h, fields = landau_zener(grid, gap, rate)
        frame = dressed_frame(h, fields, grid)
        angles = mixing_angles(
            ControlField.constant(grid, gap),
            ControlField(grid, rate * grid.midpoints),
            rabi_dot=np.zeros(4000), detuning_dot=np.full(4000, rate))
        assert np.max(adiabaticity_margin(frame, angles).samples) > 1.0
        th0 = np.arctan2(gap, rate * grid.t0)
        lower0 = np.array([-np.sin(th0 / 2), np.cos(th0 / 2)], dtype=complex)
        traj = propagate_ket(h, fields, grid,
                             core.QuantumState.from_ket(lower0))
        thf = np.arctan2(gap, rate * grid.tf)
        upperf = np.array([np.cos(thf / 2), np.sin(thf / 2)], dtype=complex)
        p_dia = abs(np.vdot(upperf, traj.array[-1])) ** 2
        assert p_dia > 0.1

    def test_zero_gap_reports_infinity(self):
        grid = TimeGrid(-1.0, 1.0, 12)
        h = ControlledHamiltonian(Operator(np.zeros((2, 2))),
                                  [(core.sigma_z(), 0)])
        fields = [ControlField(grid, grid.midpoints)]
        frame = dressed_frame(h, fields, grid)
        angles = mixing_angles(ControlField.constant(grid, 0.0),
                               ControlField(grid, grid.midpoints))
        margin = adiabaticity_margin(frame, angles)
        assert np.isinf(margin.samples).any() or \
            np.max(margin.samples) < np.inf  # no exception either way


class TestCounterdiabaticTls:
    def test_constant_controls_zero_drive(self):
        grid = TimeGrid(0.0, 2.0, 21)
        ucd = counterdiabatic_tls(ControlField.constant(grid, 1.0),
                                  ControlField.constant(grid, 0.4))
        assert np.max(np.abs(ucd.samples)) <= 1e-12

    def test_linear_sweep_lorentzian_closed_form(self):
        # Symbolic oracle: theta_dot/2 = -(g e/2) / (g^2 + e^2 t^2)
        g, rate = 0.7, 1.3
        grid = TimeGrid(-5.0, 5.0, 1001)
        t = grid.midpoints
        ucd = counterdiabatic_tls(
            ControlField.constant(grid, g),
            ControlField(grid, rate * t),
            rabi_dot=np.zeros(1000), detuning_dot=np.full(1000, rate))
        oracle = -(g * rate / 2) / (g ** 2 + (rate * t) ** 2)
        assert np.max(np.abs(ucd.samples - oracle)) <= 1e-12

    @pytest.mark.parametrize("rate", [0.5, 5.0, 50.0])
    def test_cd_suppresses_nonadiabatic_transitions(self, rate):
        # Propagation oracle: with H + H_CD the instantaneous-eigenstate
        # infidelity stays below 1e-6 at every grid point, for sweep rates
        # spanning a factor 100.
        infid = lz_cd_max_infidelity(rate, with_cd=True)
        assert infid < 1e-6

    def test_dressed_population_not_constant_without_cd(self):
        assert lz_cd_max_infidelity(5.0, with_cd=False) > 0.1


def lz_cd_max_infidelity(rate, gap=1.0, span=20.0, nt=4001, with_cd=True):
    """Max instantaneous-eigenstate infidelity along a linear sweep."""
    T = 2 * span / rate
    grid = TimeGrid(-T / 2, T / 2, nt)
    ucd = counterdiabatic_tls(
        ControlField.constant(grid, gap),
        ControlField(grid, rate * grid.midpoints),
        rabi_dot=np.zeros(nt - 1), detuning_dot=np.full(nt - 1, rate))
    h = ControlledHamiltonian(
        Operator(np.zeros((2, 2))),
        [(core.sigma_z(), 0), (core.sigma_x(), 1), (core.sigma_y(), 2)])
    fields = [ControlField(grid, 0.5 * rate * grid.midpoints),
              ControlField.constant(grid, 0.5 * gap),
              ucd if with_cd else ControlField.constant(grid, 0.0)]
    theta = np.arctan2(gap, rate * grid.times)
    upper = np.stack([np.cos(theta / 2), np.sin(theta / 2)], axis=1)
    psi0 = core.QuantumState.from_ket(upper[0])
    traj = propagate_ket(h, fields, grid, psi0)
    overlap = np.einsum("ki,ki->k", upper.astype(complex).conj(), traj.array)
    return float(np.max(1.0 - np.abs(overlap) ** 2))


class TestCounterdiabaticGeneric:
    def test_static_hamiltonian_zero(self):
        grid = TimeGrid(0.0, 1.0, 21)
        h, fields = static_detuning_problem(grid, np.full(20, 1.0),
                                            np.full(20, 0.7))
        frame = dressed_frame(h, fields, grid)
        seq = counterdiabatic_generic(frame)
        assert np.max(np.abs(seq)) <= 1e-10

    def test_matches_two_level_closed_form(self):
        g, rate = 1.0, 1.2
        grid = TimeGrid(-6.0, 6.0, 12001)
        h, fields = landau_zener(grid, g, rate)
        frame = dressed_frame(h, fields, grid)
        seq = counterdiabatic_generic(frame)
        got = seq[:, 0, 1].imag
        # H_CD = (theta_dot/2) sigma_y has (0,1) entry -i theta_dot / 2
        ucd = counterdiabatic_tls(
            ControlField.constant(grid, g),
            ControlField(grid, rate * grid.midpoints),
            rabi_dot=np.zeros(12000), detuning_dot=np.full(12000, rate))
        interior = slice(1, -1)  # one-sided ends are first-order only
        assert np.max(np.abs(-got[interior] - ucd.samples[interior])) <= 1e-6
        hermit = np.max(np.abs(seq - np.conj(np.swapaxes(seq, 1, 2))))
        assert hermit <= 1e-12

    def test_stirap_cd_drives_forbidden_transition(self):
        grid = TimeGrid(0.0, 20.0, 2001)
        pump, stokes = stirap_pulses(grid, 12.0, 2.5, 3.0,
                                     "counterintuitive")
        spec = ThreeLevelDriveSpec(energies=(0.0, 30.0, 60.0),
                                   rabi=(pump, stokes),
                                   carriers=(30.0, 30.0))
        h, fields = rwa_three_level(spec)
        frame = dressed_frame(h, fields, grid)
        seq = counterdiabatic_generic(frame)
        peak_13 = np.max(np.abs(seq[:, 0, 2]))
        assert peak_13 > 1e-3


class TestStirapDarkState:
    def spec_for(self, grid, pump, stokes):
        return ThreeLevelDriveSpec(energies=(0.0, 30.0, 60.0),
                                   rabi=(pump, stokes),
                                   carriers=(30.0, 30.0))

    def test_pump_off_dark_is_level_one(self):
        grid = TimeGrid(0.0, 1.0, 11)
        spec = self.spec_for(grid, ControlField.constant(grid, 0.0),
                             ControlField.constant(grid, 2.0))
        darks = stirap_dark_state(spec)
        assert np.abs(darks.array[:, 0]).min() >= 1.0 - 1e-12

    def test_stokes_off_dark_is_level_three(self):
        grid = TimeGrid(0.0, 1.0, 11)
        spec = self.spec_for(grid, ControlField.constant(grid, 2.0),
                             ControlField.constant(grid, 0.0))
        darks = stirap_dark_state(spec)
        assert np.abs(darks.array[:, 2]).min() >= 1.0 - 1e-12

    def test_counterintuitive_order_rotates_dark_state(self):
        grid = TimeGrid(0.0, 20.0, 2001)
        pump, stokes = stirap_pulses(grid, 12.0, 2.5, 3.0,
                                     "counterintuitive")
        darks = stirap_dark_state(self.spec_for(grid, pump, stokes))
        pops = np.abs(darks.array) ** 2
        assert pops[0, 0] > 0.99          # starts at |1>
        assert pops[-1, 2] > 0.99         # ends at |3>
        assert np.max(pops[:, 1]) <= 1e-20  # never touches |2>

    def test_detuning_condition_error(self):
        grid = TimeGrid(0.0, 1.0, 11)
        spec = ThreeLevelDriveSpec(energies=(0.0, 30.0, 60.0),
                                   rabi=(ControlField.constant(grid, 1.0),
                                         ControlField.constant(grid, 1.0)),
                                   carriers=(30.5, 30.0))
        with pytest.raises(DetuningConditionError):
            stirap_dark_state(spec)


class TestStirapWithDecay:
    @pytest.mark.parametrize("order,check", [
        ("counterintuitive", lambda p3: p3 >= 0.99),
        ("intuitive", lambda p3: p3 < 0.5),
    ])
    def test_pulse_ordering(self, order, check):
        # Full open-system propagation with decay on the intermediate level.
        grid = TimeGrid(0.0, 20.0, 2001)
        pump, stokes = stirap_pulses(grid, 12.0, 2.5, 3.0, order)
        spec = ThreeLevelDriveSpec(energies=(0.0, 30.0, 60.0),
                                   rabi=(pump, stokes),
                                   carriers=(30.0, 30.0))
        h, fields = rwa_three_level(spec)
        jump = np.zeros((3, 3), dtype=complex)
        jump[0, 1] = 1.0
        liou = Liouvillian(h, [Operator(jump)])
        rho0 = core.basis_ket(3, 0).to_density()
        traj = propagate_density(liou, fields, grid, rho0)
        assert check(traj.populations()[-1, 2])
        assert traj.max_norm_drift() <= 1e-10
        assert traj.min_eigenvalue() >= -1e-9


class TestLandauZenerFormula:
    def test_diabatic_probability_matches_formula(self):
        # Dressed-basis projection converges to the asymptotic formula.
        for adiab in (0.1, 0.5, 1.0, 2.0, 3.0):
            oracle = np.exp(-np.pi * adiab / 2)
            sim = lz_diabatic_probability(adiab)
            assert abs(sim - oracle) / oracle <= 0.02


def lz_diabatic_probability(adiab, rate=1.0, span=60.0, nt=40001):
    gap = np.sqrt(adiab * rate)
    grid = TimeGrid(-span / rate, span / rate, nt)
    h, fields = landau_zener(grid, gap, rate)
    th0 = np.arctan2(gap, rate * grid.t0)
    thf = np.arctan2(gap, rate * grid.tf)
    lower0 = np.array([-np.sin(th0 / 2), np.cos(th0 / 2)], dtype=complex)
    upperf = np.array([np.cos(thf / 2), np.sin(thf / 2)], dtype=complex)
    traj = propagate_ket(h, fields, grid, core.QuantumState.from_ket(lower0))
    return float(abs(np.vdot(upperf, traj.array[-1])) ** 2)


def test_dressed_csv_export(tmp_path):
    from qoctl.adiabatic import dressed_csv
    grid = TimeGrid(-4.0, 4.0, 101)
    h, fields = landau_zener(grid, 0.8, 1.0)
    frame = dressed_frame(h, fields, grid)
    theta0 = np.arctan2(0.8, -4.0)
    lower0 = np.array([-np.sin(theta0 / 2), np.cos(theta0 / 2)],
                      dtype=complex)
    traj = propagate_ket(h, fields, grid, core.QuantumState.from_ket(lower0))
    path = tmp_path / "dressed.csv"
    dressed_csv(frame, traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time,energy_0,energy_1,pop_0,pop_1"
    assert len(lines) == grid.nt  # one row per midpoint plus header
    first = [float(x) for x in lines[1].split(",")]
    assert first[3] + first[4] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("other", [TimeGrid(-4.0, 4.0, 51),
                                   TimeGrid(-8.0, 8.0, 101),
                                   TimeGrid(-4.0, 4.0, 201)],
                         ids=["shorter", "same_nt", "longer"])
def test_dressed_csv_rejects_trajectory_on_another_grid(tmp_path, other):
    from qoctl.adiabatic import dressed_csv
    grid = TimeGrid(-4.0, 4.0, 101)
    frame = dressed_frame(*landau_zener(grid, 0.8, 1.0), grid)
    h, fields = landau_zener(other, 0.8, 1.0)
    traj = propagate_ket(h, fields, other, core.basis_ket(2, 0))
    path = tmp_path / "dressed.csv"
    with pytest.raises(ValueError, match="grid"):
        dressed_csv(frame, traj, path)
    assert not path.exists()
