import io
import json
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm as dense_expm
from scipy.linalg import expm_frechet

from qoctl import _kernels, core, shapes
from qoctl.core import ControlledHamiltonian, Operator, tensor_product
from qoctl.dynamics import (ControlField, TimeGrid, gkls_generator_parts,
                            propagate_density, propagate_ket,
                            vectorize_density)
from qoctl.functionals import (CostSpec, canonical_gate, pe_distance,
                               three_state_gate_fidelity,
                               verification_states, weyl_coordinates)
from qoctl.optimize import (ControlProblem, KrotovSettings, Parametrization,
                            evaluate_cost, fields_to_csv,
                            gradient_free_search, grape_concurrent,
                            grape_gradient, hybrid_optimize, krotov_ensemble)
from qoctl.optimize import _engine
from qoctl.scenarios import reset_model

from conftest import random_density, random_ket, random_unitary
from random_models import PROPERTY, models


def tls_transfer_problem(nt=501, tf=3 * np.pi):
    grid = TimeGrid(0.0, tf, nt)
    h = ControlledHamiltonian(Operator(np.zeros((2, 2))),
                              [(core.sigma_x(), 0)])
    problem = ControlProblem(h, grid, [core.basis_ket(2, 0)],
                             CostSpec("state_to_state",
                                      target=core.basis_ket(2, 1)))
    return problem


def two_qubit_gate_problem(nt=401, tf=2.0):
    drift = tensor_product(core.sigma_x(), core.sigma_x())
    h = ControlledHamiltonian(
        drift, [(tensor_product(core.sigma_z(), core.identity(2)), 0),
                (tensor_product(core.identity(2), core.sigma_z()), 1)])
    grid = TimeGrid(0.0, tf, nt)
    basis = [core.basis_ket(4, k) for k in range(4)]
    target = canonical_gate(np.pi / 2, 0, 0)  # CNOT class, det = 1
    return ControlProblem(h, grid, basis, CostSpec("gate", target=target))


def realized_gate(problem, fields):
    cols = [propagate_ket(problem.hamiltonian, fields, problem.grid,
                          core.basis_ket(problem.hamiltonian.dim, k)
                          ).array[-1]
            for k in range(problem.hamiltonian.dim)]
    return Operator(np.stack(cols, axis=1))


class TestKrotovStateToState:
    def test_already_optimal_guess_stops_immediately(self):
        # pi pulse is exactly optimal: the update vanishes by stationarity
        problem = tls_transfer_problem()
        grid = problem.grid
        amp = np.pi / (grid.tf - grid.t0) / 2.0  # H = -(O/2)sx convention
        guess = [ControlField.constant(grid, -amp)]
        j0 = evaluate_cost(problem, guess)
        assert j0 <= 1e-12
        rec = krotov_ensemble(problem, guess, KrotovSettings(
            max_iters=50, j_threshold=1e-10))
        assert len(rec.iterations) == 1
        assert rec.converged_reason == "j_threshold"
        assert np.allclose(rec.final_fields[0].samples, guess[0].samples)

    def test_tls_transfer_converges_fast(self):
        problem = tls_transfer_problem()
        guess = [ControlField.constant(problem.grid, 0.1)]
        start = time.perf_counter()
        rec = krotov_ensemble(problem, guess,
                              KrotovSettings(lambda_=1.0, max_iters=50,
                                             j_threshold=1e-3))
        elapsed = time.perf_counter() - start
        assert rec.final_j <= 1e-3       # fidelity >= 0.999
        assert len(rec.iterations) - 1 <= 50
        assert elapsed < 5.0
        assert rec.monotonic()

    def test_update_pinned_at_endpoints(self):
        problem = tls_transfer_problem()
        guess = [ControlField.constant(problem.grid, 0.1)]
        rec = krotov_ensemble(problem, guess, KrotovSettings(max_iters=10))
        assert rec.final_fields[0].samples[0] == guess[0].samples[0]
        assert rec.final_fields[0].samples[-1] == guess[0].samples[-1]

    def test_wrong_grid_is_an_error(self):
        problem = tls_transfer_problem()
        other = TimeGrid(0.0, 1.0, problem.grid.nt)
        with pytest.raises(ValueError):
            krotov_ensemble(problem, [ControlField.constant(other, 0.1)],
                            KrotovSettings())

    def test_jsonl_stream(self):
        problem = tls_transfer_problem(nt=101)
        stream = io.StringIO()
        krotov_ensemble(problem, [ControlField.constant(problem.grid, 0.1)],
                        KrotovSettings(max_iters=3), log_stream=stream)
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) >= 2
        row = json.loads(lines[1])
        assert set(row) == {"iter", "J_tf", "running_cost", "wall_ms"}

    def test_update_shape_validation(self):
        # on one midpoint the update shape cannot vanish at both ends
        problem = tls_transfer_problem(nt=2)
        guess = [ControlField.constant(problem.grid, 0.1)]
        for optimizer in (krotov_ensemble, grape_concurrent):
            with pytest.raises(ValueError, match="vanish at both ends"):
                optimizer(problem, guess, KrotovSettings())

    def test_running_cost_value(self):
        problem = tls_transfer_problem(nt=101)
        guess = [ControlField.constant(problem.grid, 0.1)]
        settings = KrotovSettings(lambda_=1.5, max_iters=1)
        rec = krotov_ensemble(problem, guess, settings)
        assert rec.final_j < rec.iterations[0].j_tf  # the step was accepted
        grid = problem.grid
        shape = settings.shape_for(grid)
        delta = rec.final_fields[0].samples - guess[0].samples
        active = shape > 0
        expected = settings.lambda_ * np.sum(
            delta[active] ** 2 / shape[active]) * grid.dt / (grid.tf - grid.t0)
        assert expected > 0
        assert rec.iterations[1].running_cost == pytest.approx(expected,
                                                               rel=1e-12)

    @pytest.mark.parametrize("optimizer", [krotov_ensemble,
                                           grape_concurrent])
    def test_non_finite_guess_is_an_error(self, optimizer):
        problem = tls_transfer_problem(nt=101)
        guess = [ControlField.constant(problem.grid, np.nan)]
        with pytest.raises(FloatingPointError, match="guess field"):
            optimizer(problem, guess, KrotovSettings(max_iters=3))


class TestKrotovEnsemble:
    def test_two_qubit_cnot_class(self):
        problem = two_qubit_gate_problem()
        guess = [shapes.sin2_ramp(problem.grid, 0.5, 0.1),
                 shapes.sin2_ramp(problem.grid, -0.3, 0.1)]
        rec = krotov_ensemble(problem, guess,
                              KrotovSettings(lambda_=2.0, max_iters=800,
                                             j_threshold=2e-7))
        assert rec.monotonic()
        assert rec.final_j <= 2e-7
        gate = realized_gate(problem, rec.final_fields)
        assert pe_distance(weyl_coordinates(gate)) < 1e-3

    def test_gate_under_dephasing_improves(self):
        # regression bound frozen from the first build: improvement 0.51
        gamma = 0.01
        gate = Operator(dense_expm(-1j * np.pi / 4
                                   * core.sigma_y().matrix))
        vset = verification_states(2)
        h = ControlledHamiltonian(Operator(np.zeros((2, 2))),
                                  [(core.sigma_x(), 0),
                                   (core.sigma_y(), 1)])
        grid = TimeGrid(0.0, 4.0, 201)
        problem = ControlProblem(
            h, grid, [vset.rho_b, vset.rho_p, vset.rho_id],
            CostSpec("gate", target=gate),
            jump_operators=(np.sqrt(gamma) * core.sigma_z(),))
        guess = [shapes.sin2_ramp(grid, 0.05, 0.1),
                 shapes.sin2_ramp(grid, 0.0, 0.1)]

        def channel_for(fields):
            liou = problem.liouvillian()

            def channel(state):
                return propagate_density(liou, fields, grid, state).final
            return channel

        f_guess = three_state_gate_fidelity(channel_for(guess), gate, vset)
        rec = krotov_ensemble(problem, guess,
                              KrotovSettings(lambda_=0.5, max_iters=80))
        f_opt = three_state_gate_fidelity(channel_for(rec.final_fields),
                                          gate, vset)
        assert rec.monotonic()
        assert f_opt - f_guess >= 0.05


def qubit_reset_problem(nt=41):
    coupling = 0.15
    h, jumps, rho0, target, resonance = reset_model(coupling)
    grid = TimeGrid(0.0, np.pi / (2 * coupling), nt)
    problem = ControlProblem(h, grid, [rho0],
                             CostSpec("state_to_state", target=target),
                             jump_operators=jumps)
    return problem, [ControlField.constant(grid, 0.9 * resonance)]


def fresh_passes(engine, amps):
    """Forward states and co-states of ``amps`` from two kernel passes that
    exponentiate every step afresh, both with the field's generator: the
    backward pass applies the adjoints of its steps."""
    dt = engine.grid.dt
    if engine.problem.is_open:
        gen0, gens = engine.gen0, engine.gens
        fwd = _kernels.propagate_pwc_dm(gen0, gens, amps, dt, engine.rho0, 1)
        chi = _kernels.propagate_pwc_dm(gen0, gens, amps, dt,
                                        engine.chi_boundary(fwd[-1]), -1)
    else:
        drift, coups = engine.drift, engine.coups
        fwd = _kernels.propagate_pwc_ket(drift, coups, amps, dt, engine.psi0,
                                         1)
        chi = _kernels.propagate_pwc_ket(drift, coups, amps, dt,
                                         engine.chi_boundary(fwd[-1]), -1)
    return fwd, chi


def step_loop_gradient(problem, amps):
    """The exact discrete gradient one step, control and member at a time,
    from fresh passes: ``expm_frechet`` of each step's generator along each
    control's part (``-i H dt`` along ``-i C_j dt`` for kets)."""
    engine = _engine(problem)
    fwd, chi = fresh_passes(engine, amps)
    dt = problem.grid.dt
    grad = np.zeros_like(amps)
    for k in range(amps.shape[0]):
        for j in range(amps.shape[1]):
            if problem.is_open:
                gen = engine.gen0 + np.tensordot(amps[k], engine.gens, 1)
                part = engine.gens[j]
            else:
                gen = -1j * (engine.drift
                             + np.tensordot(amps[k], engine.coups, 1))
                part = -1j * engine.coups[j]
            dstep = expm_frechet(gen * dt, part * dt, compute_expm=False)
            acc = sum(np.vdot(chi[k + 1, m], dstep @ fwd[k, m]).real
                      for m in range(fwd.shape[1]))
            grad[k, j] = -2.0 * acc / fwd.shape[1]
    return grad


def recomputing_krotov(problem, guess, settings):
    """Krotov without step reuse: every iteration's co-states come from a
    fresh backward propagation of the current field."""
    engine = _engine(problem)
    amps = np.stack([f.samples for f in guess], axis=1)
    shape = settings.shape_for(problem.grid)
    lam = settings.lambda_
    fwd = fresh_passes(engine, amps)[0]
    j_history = [engine.cost_value(fwd[-1])]
    for _ in range(settings.max_iters):
        chi = fresh_passes(engine, amps)[1]
        trial_amps = amps.copy()
        trial, _ = engine.krotov_forward(trial_amps, chi, shape / lam)
        j_new = engine.cost_value(trial[-1])
        if j_new > j_history[-1]:
            lam *= 2.0
            j_history.append(j_history[-1])
        else:
            amps, fwd = trial_amps, trial
            j_history.append(j_new)
    return np.array(j_history), amps


class TestKrotovStepReuse:
    """The backward pass reuses the step operators of the last accepted
    forward pass instead of exponentiating the same field again."""

    SETTINGS = KrotovSettings(lambda_=0.05, max_iters=20)

    @pytest.mark.parametrize("kind", ["reset", "gate"])
    def test_matches_recomputed_costates(self, kind):
        if kind == "reset":
            problem, guess = qubit_reset_problem()
        else:
            problem = two_qubit_gate_problem(nt=41)
            guess = [shapes.sin2_ramp(problem.grid, 0.5, 0.1),
                     shapes.sin2_ramp(problem.grid, -0.3, 0.1)]
        rec = krotov_ensemble(problem, guess, self.SETTINGS)
        j_ref, amps_ref = recomputing_krotov(problem, guess, self.SETTINGS)
        assert len(rec.iterations) == self.SETTINGS.max_iters + 1
        if kind == "reset":
            # a rejected trial must leave the reused co-states valid
            assert np.any(np.diff(rec.j_history) == 0.0)
        # the gate cost is 1 - mean Re<.|.>, so its round-off is absolute:
        # compare on the scale of the guess's cost
        assert np.max(np.abs(rec.j_history - j_ref)) <= 1e-12 * j_ref[0]
        amps = np.stack([f.samples for f in rec.final_fields], axis=1)
        assert np.max(np.abs(amps - amps_ref)) \
            <= 1e-12 * np.max(np.abs(amps_ref))

    def test_one_exponential_per_step_and_pass(self, monkeypatch):
        # the GKLS kernels import scipy.linalg.expm when they step
        import scipy.linalg
        expm, calls = scipy.linalg.expm, []

        def counting_expm(a):
            # one call exponentiates a whole stack: count its matrices
            calls.append(int(np.prod(np.shape(a)[:-2])))
            return expm(a)

        monkeypatch.setattr(scipy.linalg, "expm", counting_expm)
        problem, guess = qubit_reset_problem()
        rec = krotov_ensemble(problem, guess, self.SETTINGS)
        n_iter = len(rec.iterations) - 1
        assert n_iter == self.SETTINGS.max_iters
        # the guess's forward pass, then one trial per iteration: every
        # backward pass reuses the steps of the field's forward pass
        assert sum(calls) == (problem.grid.nt - 1) * (n_iter + 1)


@pytest.mark.parametrize("kind", ["closed", "open"])
def test_krotov_passes_call_traced_kernels(monkeypatch, kind):
    # perfbench's kernels.krotov_forward_* metrics come from wrappers it
    # puts on these two qoctl._kernels entry points by name, so every
    # sequential pass must still go through them
    calls = {"krotov_forward_ket": 0, "krotov_forward_dm": 0}

    def counting(name):
        kernel = getattr(_kernels, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(_kernels, name, counting(name))
    if kind == "open":
        problem, guess = qubit_reset_problem()
    else:
        problem = two_qubit_gate_problem(nt=41)
        guess = [shapes.sin2_ramp(problem.grid, 0.5, 0.1),
                 shapes.sin2_ramp(problem.grid, -0.3, 0.1)]
    rec = krotov_ensemble(problem, guess, KrotovSettings(lambda_=0.05,
                                                         max_iters=2))
    assert len(rec.iterations) == 3
    hit = "krotov_forward_dm" if kind == "open" else "krotov_forward_ket"
    assert calls == {name: 2 if name == hit else 0 for name in calls}


def test_open_cost_is_hilbert_schmidt_distance():
    # The target lies outside the orbit of the initial state, which is
    # steady: the reduced basis must hold the target for the cost to see it.
    grid = TimeGrid(0.0, 2.0, 41)
    h = ControlledHamiltonian(core.sigma_z(), [(core.sigma_z(), 0)])
    rho0 = core.basis_ket(2, 0).to_density()
    target = core.QuantumState.from_density([[0.5, 0.5], [0.5, 0.5]])
    problem = ControlProblem(h, grid, [rho0],
                             CostSpec("state_to_state", target=target),
                             jump_operators=[np.sqrt(0.3)
                                             * core.sigma_minus()])
    fields = [ControlField.constant(grid, 0.4)]
    final = propagate_density(problem.liouvillian(), fields, grid,
                              rho0).final.rho
    diff = final - target.rho
    assert evaluate_cost(problem, fields) == pytest.approx(
        0.5 * np.trace(diff @ diff).real, rel=1e-12)


def recomputing_grape(problem, guess, settings):
    """GRAPE without reuse: every gradient re-propagates its field forward
    and backward and re-diagonalizes (or re-exponentiates) every step.
    Returns the cost history, the final amplitudes and the number of
    line-search trials."""
    engine = _engine(problem)
    amps = np.stack([f.samples for f in guess], axis=1)
    shape = settings.shape_for(problem.grid)
    j_history = [engine.cost_value(fresh_passes(engine, amps)[0][-1])]
    trials = 0
    for _ in range(settings.max_iters):
        grad = step_loop_gradient(problem, amps)
        step = settings.grape_step
        for _ in range(25):
            trials += 1
            trial = amps - step * shape[:, None] * grad
            j_trial = engine.cost_value(fresh_passes(engine, trial)[0][-1])
            if j_trial < j_history[-1]:
                break
            step *= 0.5
        else:
            break
        amps = trial
        j_history.append(j_trial)
    return np.array(j_history), amps, trials


class TestGrape:
    def fd_worst(self, problem, fields, rng, n_probe=20, eps=1e-6):
        grad = grape_gradient(problem, fields)
        amps = np.stack([f.samples for f in fields], axis=1)
        worst = 0.0
        for _ in range(n_probe):
            k = rng.integers(0, amps.shape[0])
            j = rng.integers(0, amps.shape[1])
            up = amps.copy()
            up[k, j] += eps
            dn = amps.copy()
            dn[k, j] -= eps
            cols = range(amps.shape[1])
            f_up = [ControlField(problem.grid, up[:, c]) for c in cols]
            f_dn = [ControlField(problem.grid, dn[:, c]) for c in cols]
            fd = (evaluate_cost(problem, f_up)
                  - evaluate_cost(problem, f_dn)) / (2 * eps)
            worst = max(worst, abs(grad[k, j] - fd) / max(abs(fd), 1e-10))
        return worst

    def closed_problem(self):
        grid = TimeGrid(0.0, 4.0, 101)
        h = ControlledHamiltonian(0.5 * core.sigma_z(),
                                  [(core.sigma_x(), 0),
                                   (core.sigma_y(), 1)])
        fields = [ControlField(grid, 0.3 * np.sin(grid.midpoints)),
                  ControlField(grid, 0.2 * np.cos(2 * grid.midpoints))]
        problem = ControlProblem(h, grid, [core.basis_ket(2, 0)],
                                 CostSpec("state_to_state",
                                          target=core.basis_ket(2, 1)))
        return problem, fields

    def open_problem(self):
        problem, fields = self.closed_problem()
        open_problem = ControlProblem(
            problem.hamiltonian, problem.grid,
            [core.basis_ket(2, 0).to_density()],
            CostSpec("state_to_state",
                     target=core.basis_ket(2, 1).to_density()),
            jump_operators=(np.sqrt(0.15) * core.sigma_minus(),))
        return open_problem, fields

    def test_gradient_matches_finite_differences_closed(self, rng):
        problem, fields = self.closed_problem()
        assert self.fd_worst(problem, fields, rng) <= 1e-5

    def test_gradient_matches_finite_differences_open(self, rng):
        problem, fields = self.open_problem()
        assert self.fd_worst(problem, fields, rng, n_probe=10) <= 1e-5

    def test_vectorized_gradient_matches_step_loop(self, rng):
        # per-step, per-control, per-member eigenbasis Frechet formula; the
        # zeroed samples leave the drift's degenerate spectrum, so the
        # equal-eigenvalue limit of the divided difference is covered too
        problem = two_qubit_gate_problem(nt=41)
        amps = rng.normal(size=(40, 2))
        amps[::7] = 0.0
        ref = step_loop_gradient(problem, amps)
        grad = grape_gradient(problem, [ControlField(problem.grid, amps[:, j])
                                        for j in range(2)])
        assert np.max(np.abs(grad - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("splitting", [1e-6, 1e-9, 1e-11, 1e-12, 0.0])
    def test_gradient_exact_at_any_splitting(self, splitting):
        # one step whose Hamiltonian has two eigenvalues `splitting` apart,
        # coupled by the control; the gate swaps those two levels, so the
        # gradient is their divided difference of exp(-i w dt), which a
        # difference quotient would lose to cancellation
        grid = TimeGrid(0.0, 1.0, 2)
        drift = np.diag([2.0, 2.0 + splitting, -1.3]).astype(complex)
        coupling = np.array([[0, 1, 0.4], [1, 0, 0.3], [0.4, 0.3, 0]],
                            dtype=complex)
        swap = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
        h = ControlledHamiltonian(Operator(drift), [(Operator(coupling), 0)])
        problem = ControlProblem(h, grid,
                                 [core.basis_ket(3, k) for k in range(3)],
                                 CostSpec("gate", target=Operator(swap)))
        grad = grape_gradient(problem, [ControlField.constant(grid, 0.0)])
        # J = 1 - Re tr(O^dag U) / N, U = exp(-i (H0 + u C) dt)
        dstep = expm_frechet(-1j * grid.dt * drift, -1j * grid.dt * coupling,
                             compute_expm=False)
        ref = -np.trace(swap.T @ dstep).real / 3
        assert abs(grad[0, 0] - ref) <= 1e-14 * abs(ref)

    def test_zero_gradient_at_exact_optimum(self):
        problem = tls_transfer_problem(nt=201)
        grid = problem.grid
        amp = np.pi / (grid.tf - grid.t0) / 2.0
        grad = grape_gradient(problem, [ControlField.constant(grid, -amp)])
        assert np.max(np.abs(grad)) <= 1e-12

    def test_same_fixed_point_as_krotov(self):
        # converge with the sequential method, then check that both methods
        # stay put: near the optimum the updates vanish with the residual
        # (the 1e-13 cost floor is set by accumulated roundoff).
        problem = tls_transfer_problem(nt=301)
        guess = [ControlField.constant(problem.grid, 0.1)]
        rec = krotov_ensemble(problem, guess,
                              KrotovSettings(lambda_=1.0,
                                             max_iters=200,
                                             j_threshold=1e-13))
        assert rec.final_j <= 1e-12
        settings = KrotovSettings(lambda_=10.0, max_iters=5,
                                  grape_step=0.1)
        again = krotov_ensemble(problem, rec.final_fields, settings)
        gr = grape_concurrent(problem, rec.final_fields, settings)
        u_k = again.final_fields[0].samples
        u_g = gr.final_fields[0].samples
        norm = np.linalg.norm(u_k - u_g) * np.sqrt(problem.grid.dt)
        assert norm <= 1e-6

    @pytest.mark.parametrize("kind", ["closed", "open"])
    def test_reuses_line_search_trial(self, kind, monkeypatch):
        # each field is propagated and diagonalized (or exponentiated) once:
        # the accepted trial's states and steps feed the next gradient
        problem, fields = getattr(self, f"{kind}_problem")()
        settings = KrotovSettings(max_iters=6, grape_step=30.0)
        j_ref, amps_ref, trials = recomputing_grape(problem, fields, settings)
        assert trials > settings.max_iters  # some trials were rejected
        # the GKLS kernels import scipy.linalg.expm when they step
        import scipy.linalg
        eigh, expm, counts = np.linalg.eigh, scipy.linalg.expm, {}

        def counting(name, func):
            def wrapper(a):
                shape = np.shape(a)
                counts[name] = counts.get(name, 0) + int(np.prod(shape[:-2]))
                return func(a)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", eigh))
        monkeypatch.setattr(scipy.linalg, "expm", counting("expm", expm))
        rec = grape_concurrent(problem, fields, settings)
        assert len(rec.iterations) == len(j_ref)
        assert np.max(np.abs(rec.j_history - j_ref)) <= 1e-12 * j_ref[0]
        amps = np.stack([f.samples for f in rec.final_fields], axis=1)
        assert np.max(np.abs(amps - amps_ref)) \
            <= 1e-12 * np.max(np.abs(amps_ref))
        # the guess, then one pass per line-search trial
        exps = "expm" if kind == "open" else "eigh"
        assert counts == {exps: (problem.grid.nt - 1) * (1 + trials)}

    def test_guess_meeting_threshold_is_returned(self):
        problem = tls_transfer_problem(nt=201)
        guess = [ControlField.constant(problem.grid, 0.1)]
        settings = KrotovSettings(max_iters=5, j_threshold=0.99)
        assert evaluate_cost(problem, guess) <= settings.j_threshold
        for optimizer in (krotov_ensemble, grape_concurrent):
            rec = optimizer(problem, guess, settings)
            assert len(rec.iterations) == 1
            assert rec.converged_reason == "j_threshold"
            assert np.array_equal(rec.final_fields[0].samples,
                                  guess[0].samples)

    def test_grape_reduces_cost(self):
        problem = tls_transfer_problem(nt=201)
        guess = [ControlField.constant(problem.grid, 0.1)]
        rec = grape_concurrent(problem, guess,
                               KrotovSettings(max_iters=30, grape_step=5.0))
        assert rec.final_j < rec.j_history[0]


@pytest.mark.parametrize("kind", CostSpec._KINDS)
@pytest.mark.parametrize("dynamics", ["closed", "open"])
def test_gradient_methods_accept_every_cost_kind(kind, dynamics):
    # CostSpec offers only the kinds that the optimizers honour
    grid = TimeGrid(0.0, 1.0, 21)
    h = ControlledHamiltonian(0.5 * core.sigma_z(), [(core.sigma_x(), 0)])
    initial, target = core.basis_ket(2, 0), core.basis_ket(2, 1)
    jumps = ()
    if dynamics == "open":
        initial, target = initial.to_density(), target.to_density()
        jumps = (np.sqrt(0.1) * core.sigma_minus(),)
    if kind == "gate":
        target = core.sigma_x()
    problem = ControlProblem(h, grid, [initial], CostSpec(kind, target),
                             jump_operators=jumps)
    guess = [ControlField.constant(grid, 0.3)]
    for optimizer in (krotov_ensemble, grape_concurrent):
        rec = optimizer(problem, guess, KrotovSettings(max_iters=1))
        assert len(rec.iterations) == 2
        assert 0.0 <= rec.final_j < rec.j_history[0]


def full_space_gradient(problem, amps):
    """``dJ/du_j[k]`` one step, control and member at a time in the full
    space, with no qoctl kernel: kets under ``-i H``, or row-major
    vectorized density matrices under the ``N^2 x N^2`` GKLS generator of
    :func:`gkls_generator_parts`.  Each step is a scipy ``expm``; its
    derivative along control ``j`` is the ``expm_frechet`` of the step
    generator along that control's part."""
    h = problem.hamiltonian
    if problem.is_open:
        gen0, gens = gkls_generator_parts(problem.liouvillian())
        states = np.stack([vectorize_density(s.rho)
                           for s in problem.initial_states])
        targets = np.stack([vectorize_density(t.rho)
                            for t in problem.targets()])
    else:
        gen0 = -1j * h.drift.matrix
        gens = -1j * np.stack([op.matrix for op in h.control_operators()])
        states = np.stack([s.ket for s in problem.initial_states])
        targets = np.stack([t.ket for t in problem.targets()])
    dt, n_states = problem.grid.dt, len(states)
    gen = (gen0 + np.tensordot(amps, gens, 1)) * dt
    fwd = [states]
    for g in gen:
        fwd.append(fwd[-1] @ dense_expm(g).T)
    # co-state at tf: sum_w Re <chi_w|d state_w> = n_states * dJ
    final = fwd[-1]
    if problem.is_open:  # J = mean ||rho - target||^2 / 2
        chi = final - targets
    elif problem.cost.kind == "state_to_state":  # J = 1 - mean |<t|psi>|^2
        chi = -2.0 * np.sum(targets.conj() * final, axis=1)[:, None] \
            * targets
    else:  # J = 1 - mean Re <t|psi>
        chi = -targets
    grad = np.zeros_like(amps)
    for k in range(len(gen) - 1, -1, -1):
        for j in range(len(gens)):
            dstep = expm_frechet(gen[k], gens[j] * dt, compute_expm=False)
            grad[k, j] = np.vdot(chi, fwd[k] @ dstep.T).real / n_states
        chi = chi @ dense_expm(gen[k]).conj()  # S_k^dag chi, as rows
    return grad


class TestGradientProperties:
    """The GRAPE gradients of both engines on random small models (2 to 4
    levels, 1 or 2 controls, 0 to 2 jump operators, near-degenerate drifts,
    zero or tiny samples), against the full-space Frechet loop."""

    @staticmethod
    def problem(model, kind, is_open, n_states, seed):
        rng = np.random.default_rng(seed)
        liou, dim = model.liouvillian, model.rho0.dim
        draw = random_density if is_open else random_ket
        initial = [draw(rng, dim) for _ in range(n_states)]
        target = Operator(random_unitary(rng, dim)) if kind == "gate" \
            else [draw(rng, dim) for _ in range(n_states)]
        n_steps = model.amps.shape[0]
        grid = TimeGrid(0.0, model.dt * n_steps, n_steps + 1)
        return ControlProblem(
            liou.hamiltonian, grid, initial, CostSpec(kind, target),
            jump_operators=liou.jump_operators if is_open else ())

    @PROPERTY
    @given(models(), st.sampled_from(CostSpec._KINDS), st.booleans(),
           st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    def test_matches_full_space_frechet_loop(self, model, kind, is_open,
                                             n_states, seed):
        problem = self.problem(model, kind, is_open, n_states, seed)
        grid, amps = problem.grid, model.amps
        grad = grape_gradient(problem, [ControlField(grid, col)
                                        for col in amps.T])
        ref = full_space_gradient(problem, amps)
        assert np.max(np.abs(grad - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestGradientFree:
    def test_pi_pulse_amplitude_scan(self):
        # analytic oracle: optimal pulse area equals pi
        problem = tls_transfer_problem(nt=301, tf=4.0)
        grid = problem.grid
        par = Parametrization(n_controls=1, n_terms=1,
                              bounds=[(-3.0, 3.0)],
                              coefficients=np.array([0.3]))
        rec = gradient_free_search(problem, par, budget=80)
        area = abs(np.sum(rec.final_fields[0].samples) * grid.dt) * 2
        assert abs(area - np.pi) <= 0.01 * np.pi
        assert rec.final_j <= 1e-3

    def test_zero_parameters_returns_baseline(self):
        problem = tls_transfer_problem(nt=101)
        baseline = [ControlField.constant(problem.grid, 0.17)]
        par = Parametrization(n_controls=1, n_terms=0,
                              bounds=[], baseline=baseline)
        rec = gradient_free_search(problem, par, budget=50)
        assert rec.converged_reason == "no_parameters"
        assert np.array_equal(rec.final_fields[0].samples,
                              baseline[0].samples)

    def test_budget_exhaustion_flagged(self):
        problem = tls_transfer_problem(nt=101)
        par = Parametrization(n_controls=1, n_terms=3,
                              bounds=[(-2, 2)] * 3)
        rec = gradient_free_search(problem, par, budget=7)
        assert rec.converged_reason == "budget_exhausted"
        assert len(rec.iterations) <= 8

    def test_stirap_delay_search_prefers_stokes_first(self):
        # 2-parameter search (delay, amplitude) over the decaying three-level
        # system must land on the counterintuitive ordering (delay > 0 means
        # the Stokes pulse precedes the pump here).
        from qoctl.frames import ThreeLevelDriveSpec, rwa_three_level
        grid = TimeGrid(0.0, 20.0, 401)
        jump = np.zeros((3, 3), dtype=complex)
        jump[0, 1] = 1.0

        def p3_cost(params):
            delay, amp = params
            tc = 10.0
            t = grid.midpoints
            pump = amp * np.exp(-0.5 * ((t - (tc + delay / 2)) / 2.5) ** 2)
            stokes = amp * np.exp(-0.5 * ((t - (tc - delay / 2)) / 2.5) ** 2)
            spec = ThreeLevelDriveSpec(
                energies=(0.0, 30.0, 60.0),
                rabi=(ControlField(grid, pump), ControlField(grid, stokes)),
                carriers=(30.0, 30.0))
            h, fields = rwa_three_level(spec)
            from qoctl.core import Liouvillian
            liou = Liouvillian(h, [Operator(jump)])
            traj = propagate_density(liou, fields, grid,
                                     core.basis_ket(3, 0).to_density())
            return 1.0 - traj.populations()[-1, 2]

        from scipy.optimize import minimize
        res = minimize(p3_cost, x0=np.array([0.5, 8.0]),
                       method="Nelder-Mead", bounds=[(-4, 4), (2, 16)],
                       options={"maxfev": 60})
        assert res.x[0] > 0.5          # Stokes-before-pump selected
        assert res.fun < 0.05


class TestHybrid:
    def test_gradient_free_phase_disabled_is_plain_krotov(self):
        problem = tls_transfer_problem(nt=201)
        baseline = [ControlField.constant(problem.grid, 0.1)]
        par = Parametrization(n_controls=1, n_terms=0,
                              bounds=[], baseline=baseline)
        settings = KrotovSettings(lambda_=1.0, max_iters=5)
        hyb = hybrid_optimize(problem, par, settings, budget=0)
        plain = krotov_ensemble(problem, baseline, settings)
        assert np.array_equal(hyb.final_fields[0].samples,
                              plain.final_fields[0].samples)

    def test_both_phases_disabled_returns_guess(self):
        problem = tls_transfer_problem(nt=101)
        baseline = [ControlField.constant(problem.grid, 0.07)]
        par = Parametrization(n_controls=1, n_terms=0,
                              bounds=[], baseline=baseline)
        rec = hybrid_optimize(problem, par, KrotovSettings(max_iters=0),
                              budget=0)
        assert np.array_equal(rec.final_fields[0].samples,
                              baseline[0].samples)

    def test_hybrid_beats_pure_krotov_from_flat_guess(self):
        # Comparative regression frozen at build: the flat guess is a
        # symmetry-protected stationary point of the gate cost, so the
        # sequential method alone cannot leave it; the gradient-free phase
        # escapes it within the same total propagation budget
        # (one simplex evaluation = 1 forward pass, one Krotov iteration
        # = 2 passes).
        problem = two_qubit_gate_problem()
        nm_evals = 40
        k_hybrid = 60
        k_pure = k_hybrid + nm_evals // 2
        par = Parametrization(n_controls=2, n_terms=2,
                              bounds=[(-2.0, 2.0)] * 4)
        hyb = hybrid_optimize(problem, par,
                              KrotovSettings(lambda_=2.0,
                                             max_iters=k_hybrid),
                              budget=nm_evals)
        flat = [ControlField.constant(problem.grid, 0.0),
                ControlField.constant(problem.grid, 0.0)]
        pure = krotov_ensemble(problem, flat,
                               KrotovSettings(lambda_=2.0,
                                              max_iters=k_pure))
        assert hyb.final_j <= pure.final_j
        assert hyb.final_j < 0.05

    def test_phases_recorded(self):
        problem = tls_transfer_problem(nt=101)
        par = Parametrization(n_controls=1, n_terms=1,
                              bounds=[(-2, 2)])
        rec = hybrid_optimize(problem, par,
                              KrotovSettings(max_iters=3), budget=10)
        phases = {e.phase for e in rec.iterations}
        assert phases == {"gradient_free", "krotov"}
        assert rec.method == "hybrid"


def test_fields_csv_round_trip(tmp_path):
    grid = TimeGrid(0.0, 1.0, 6)
    fields = [ControlField(grid, np.arange(5.0)),
              ControlField(grid, -np.arange(5.0))]
    path = tmp_path / "fields.csv"
    fields_to_csv(fields, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "time,u_0,u_1"
    assert len(rows) == 6
    got = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    assert np.allclose(got[:, 0], grid.midpoints)
    assert np.allclose(got[:, 1], np.arange(5.0))
