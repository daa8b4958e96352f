import io
import json
import time
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm as dense_expm
from scipy.linalg import expm_frechet

from qoctl import _kernels, core, optimize, shapes
from qoctl._kernels import _fallback
from qoctl.core import (ControlledHamiltonian, DimensionMismatchError,
                        Operator, StateVariantError, tensor_product)
from qoctl.dynamics import (ControlField, TimeGrid, gkls_generator_parts,
                            propagate_density, propagate_ket,
                            vectorize_density)
from qoctl.functionals import (CostSpec, canonical_gate, pe_distance,
                               three_state_gate_fidelity,
                               verification_states, weyl_coordinates)
from qoctl.optimize import (ControlProblem, IterationEntry, KrotovSettings,
                            OptimizationRecord, Parametrization,
                            evaluate_cost, fields_to_csv,
                            gradient_free_search, grape_gradient,
                            hybrid_optimize, krotov_ensemble)
from qoctl.optimize import _engine
from qoctl.scenarios import reset_model

from conftest import random_density, random_ket, random_unitary
from random_models import PROPERTY, models


def grape_concurrent(*args, **kwargs):
    """``optimize.grape_concurrent`` that also checks the record it returns
    is monotonic, so every GRAPE record this module makes is checked."""
    record = optimize.grape_concurrent(*args, **kwargs)
    assert record.monotonic()
    return record


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


class TestControlProblem:
    """Every member is checked against the Hamiltonian when the problem is
    built, not at its first propagation."""

    @pytest.mark.parametrize("states,target,error,member", [
        ([core.basis_ket(2, 0), core.basis_ket(3, 0)],
         [core.basis_ket(2, 1)] * 2, DimensionMismatchError,
         "initial state 1 dim 3"),
        ([core.basis_ket(2, 0)], core.basis_ket(3, 1),
         DimensionMismatchError, "target 0 dim 3"),
        ([core.basis_ket(2, 0)], Operator(np.eye(3)), DimensionMismatchError,
         "gate dim 3"),
        ([core.basis_ket(2, 0), core.basis_ket(2, 1).to_density()],
         [core.basis_ket(2, 1)] * 2, StateVariantError,
         "initial state 1 is a density"),
        ([core.basis_ket(2, 0)], core.basis_ket(2, 1).to_density(),
         StateVariantError, "target 0 is a density"),
    ], ids=["state_dim", "target_dim", "gate_dim", "state_variant",
            "target_variant"])
    def test_member_mismatch_is_named(self, states, target, error, member):
        h = tls_transfer_problem().hamiltonian
        kind = "gate" if isinstance(target, Operator) else "state_to_state"
        with pytest.raises(error, match=member):
            ControlProblem(h, TimeGrid(0.0, 1.0, 11), states,
                           CostSpec(kind, target=target))

    def test_no_initial_states(self):
        problem = tls_transfer_problem()
        with pytest.raises(ValueError, match="at least one initial state"):
            ControlProblem(problem.hamiltonian, problem.grid, [],
                           CostSpec("state_to_state", target=[]))


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

    @pytest.mark.parametrize("kind", ["tls", "reset"])
    def test_recorded_cost_resolution(self, kind):
        # A record's J is the cost of the last accepted pass, whose steps
        # are read off a Chebyshev table; an exact propagation of the
        # record's final field costs up to about 1e-12 less or more (1.3e-12
        # on the converged TLS transfer, whose exact cost is a round-off
        # -2e-15): below that, thresholds cannot be told apart
        if kind == "tls":
            problem = tls_transfer_problem(nt=301)
            guess = [ControlField.constant(problem.grid, 0.1)]
            settings = KrotovSettings(lambda_=1.0, max_iters=200,
                                      j_threshold=1e-13)
        else:
            problem, guess = qubit_reset_problem()
            settings = KrotovSettings(lambda_=0.2, max_iters=20)
        rec = krotov_ensemble(problem, guess, settings)
        assert len(rec.iterations) > 1
        exact = evaluate_cost(problem, rec.final_fields)
        assert abs(rec.final_j - exact) <= 1e-11

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

    def test_krotov_passes_share_one_table(self, monkeypatch, tables):
        # every GKLS step comes from step_stack_dm's expm_series
        expm, calls, phase = _fallback.expm_series, [], ["forward"]

        def counting_expm(a):
            # one call exponentiates a whole stack: count its matrices
            calls.append((phase[0], int(np.prod(np.shape(a)[:-2]))))
            return expm(a)

        def in_phase(name, kernel):
            def wrapper(*args, **kwargs):
                phase[0] = name
                try:
                    return kernel(*args, **kwargs)
                finally:
                    phase[0] = "forward"
            return wrapper

        monkeypatch.setattr(_fallback, "expm_series", counting_expm)
        monkeypatch.setattr(_kernels, "krotov_forward_dm", in_phase(
            "krotov", _kernels.krotov_forward_dm))
        monkeypatch.setattr(_kernels, "propagate_steps", in_phase(
            "propagate", _kernels.propagate_steps))
        nodes = {}
        for nt in (41, 161):
            calls.clear()
            tables.clear()
            problem, guess = qubit_reset_problem(nt)
            rec = krotov_ensemble(problem, guess, self.SETTINGS)
            assert len(rec.iterations) - 1 == self.SETTINGS.max_iters
            # one stack for the guess's forward pass; no backward pass
            # exponentiates, as each reuses the steps of the field's
            # forward pass.  Each pass starts on the table the last one
            # left, rejected trials included, and builds only at a row
            # outside its box: the 20 passes build one table, where a
            # table per pass built 20
            assert calls[0] == ("forward", nt - 1)
            assert {name for name, _ in calls[1:]} == {"krotov"}
            assert len(tables) == 1
            nodes[nt] = tables[0].nodes
        # the table's size is set by the field, not by its grid
        assert nodes[161] <= nodes[41] < 40
        # and so do the two-qubit gate's 20 passes, with two controls
        tables.clear()
        problem = two_qubit_gate_problem(nt=41)
        guess = [shapes.sin2_ramp(problem.grid, 0.5, 0.1),
                 shapes.sin2_ramp(problem.grid, -0.3, 0.1)]
        rec = krotov_ensemble(problem, guess, self.SETTINGS)
        assert len(rec.iterations) - 1 == self.SETTINGS.max_iters
        assert len(tables) == 1


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
    """GRAPE without reuse, and with the L-BFGS inverse Hessian as a dense
    matrix: every gradient re-propagates its field forward and backward
    and re-exponentiates every step, and the direction is ``-H g`` for the
    ``H`` that the BFGS update (Nocedal & Wright, eq. 6.17) makes from
    ``gamma * diag(shape)`` and the last 10 pairs with ``s.y > 0``.  The
    step halves from 1 until the cost falls by ``1e-4 * step * g.d``.
    Returns the cost history, the final amplitudes and the number of
    line-search trials."""
    engine = _engine(problem)
    amps = np.stack([f.samples for f in guess], axis=1)
    metric = np.repeat(settings.shape_for(problem.grid), amps.shape[1])
    eye = np.eye(metric.size)
    j_history = [engine.cost_value(fresh_passes(engine, amps)[0][-1])]
    gamma, pairs, trials, last = settings.grape_step, [], 0, None
    for _ in range(settings.max_iters):
        grad = step_loop_gradient(problem, amps).ravel()
        if last is not None:
            s, y = amps.ravel() - last[0], grad - last[1]
            if s @ y > 0:
                pairs = (pairs + [(s, y)])[-10:]
                gamma = (s @ y) / (y @ (metric * y))
        last = amps.ravel(), grad
        inv_hessian = np.diag(gamma * metric)
        for s, y in pairs:
            rho = 1.0 / (s @ y)
            left = eye - rho * np.outer(s, y)
            inv_hessian = left @ inv_hessian @ left.T + rho * np.outer(s, s)
        direction = -inv_hessian @ grad
        if not grad @ direction < 0:
            pairs, direction = [], -gamma * metric * grad
        step = 1.0
        for _ in range(25):
            trials += 1
            trial = amps + step * direction.reshape(amps.shape)
            j_trial = engine.cost_value(fresh_passes(engine, trial)[0][-1])
            if j_trial - j_history[-1] < 1e-4 * step * (grad @ direction):
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
        # (the 1e-13 cost floor is set by accumulated roundoff).  A negative
        # j_threshold keeps the converged field, whose cost is a round-off
        # -2e-15, from stopping either run before it iterates.
        problem = tls_transfer_problem(nt=301)
        guess = [ControlField.constant(problem.grid, 0.1)]
        rec = krotov_ensemble(problem, guess,
                              KrotovSettings(lambda_=1.0,
                                             max_iters=200,
                                             j_threshold=1e-13))
        assert rec.final_j <= 1e-12
        settings = KrotovSettings(lambda_=10.0, max_iters=5,
                                  grape_step=0.1, j_threshold=-1.0)
        converged = rec.final_fields[0].samples
        for optimizer in (krotov_ensemble, grape_concurrent):
            again = optimizer(problem, rec.final_fields, settings)
            assert len(again.iterations) > 1
            u = again.final_fields[0].samples
            norm = np.linalg.norm(u - converged) * np.sqrt(problem.grid.dt)
            assert norm <= 1e-6

    @pytest.mark.parametrize("kind", ["closed", "open"])
    def test_reuses_line_search_trial(self, kind, monkeypatch):
        # each field is exponentiated once: the accepted trial's states and
        # steps feed the next gradient
        problem, fields = getattr(self, f"{kind}_problem")()
        settings = KrotovSettings(max_iters=6, grape_step=30.0)
        j_ref, amps_ref, trials = recomputing_grape(problem, fields, settings)
        assert trials > settings.max_iters  # some trials were rejected
        calls = {}

        def recording(name, func):
            # the stack shape of every call, sorted by matrix size
            def wrapper(a, *args):
                shape = np.shape(a)
                calls.setdefault((name, shape[-1]), []).append(shape)
                return func(a, *args)
            return wrapper

        # the GKLS steps call _fallback's expm_series, the GKLS gradient
        # _kernels' (the same function)
        for module, name in ((np.linalg, "eigh"), (_fallback, "expm_series"),
                             (_kernels, "expm_series"),
                             (_kernels, "step_stack_ket")):
            monkeypatch.setattr(module, name,
                                recording(name, getattr(module, name)))
        rec = grape_concurrent(problem, fields, settings)
        assert len(rec.iterations) == len(j_ref)
        assert np.max(np.abs(rec.j_history - j_ref)) <= 1e-12 * j_ref[0]
        amps = np.stack([f.samples for f in rec.final_fields], axis=1)
        assert np.max(np.abs(amps - amps_ref)) \
            <= 1e-12 * np.max(np.abs(amps_ref))
        # every line search accepts a trial, so there are max_iters
        # gradients, each one call over the (nt-1) steps: (nt-1) * M Van
        # Loan blocks, 2d x 2d, or one eigh of the step Hamiltonians
        assert rec.converged_reason == "max_iters"
        n_steps = problem.grid.nt - 1
        n_ctrl = problem.hamiltonian.n_controls
        if kind == "open":
            d = _engine(problem).gen0.shape[0]
            stacks = calls.pop(("expm_series", d))
            assert calls.pop(("expm_series", 2 * d)) \
                == [(n_steps, n_ctrl, 2 * d, 2 * d)] * settings.max_iters
        else:
            n = problem.hamiltonian.dim
            stacks = calls.pop(("step_stack_ket", n))
            # a forward pass makes no eigh
            assert calls.pop(("eigh", n)) \
                == [(n_steps, n, n)] * settings.max_iters
        # the guess, then one pass per line-search trial, counted by matrix
        assert sum(int(np.prod(s[:-2])) for s in stacks) \
            == n_steps * (1 + trials)
        assert calls == {}

    def gate_guess(self, problem, jitter):
        """The guess of the benchmark's GRAPE gate problem: per control, a
        sum of sin(pi t/T) and sin(2 pi t/T), every coefficient shifted by
        ``jitter`` (the benchmark seeds draw it from [-0.02, 0.02])."""
        grid = problem.grid
        phase = np.pi * (grid.midpoints - grid.t0) / (grid.tf - grid.t0)
        return [ControlField(grid, (a + jitter) * np.sin(phase)
                             + (b + jitter) * np.sin(2 * phase))
                for a, b in ((0.5, 0.2), (-0.3, 0.1))]

    @pytest.mark.parametrize("jitter", [0.0, -0.02, 0.02])
    def test_gate_guess_reaches_threshold_in_twelve_iterations(self, jitter):
        # L-BFGS steps take 10 or 11 iterations to J <= 1e-4 here; the
        # bound leaves one or two of headroom
        problem = two_qubit_gate_problem()
        settings = KrotovSettings(max_iters=12, grape_step=400.0,
                                  j_threshold=1e-4)
        rec = grape_concurrent(problem, self.gate_guess(problem, jitter),
                               settings)
        assert rec.converged_reason == "j_threshold"
        assert rec.final_j <= 1e-4

    @pytest.mark.parametrize("kind", ["gate", "open"])
    def test_fields_stay_put_where_the_shape_vanishes(self, kind):
        # the L-BFGS metric is the update shape, so every direction, and
        # with it every field change, is 0 at the pinned end samples
        if kind == "gate":
            problem = two_qubit_gate_problem(nt=41)
            guess = self.gate_guess(problem, 0.0)
            settings = KrotovSettings(max_iters=8, grape_step=400.0)
        else:
            problem, guess = self.open_problem()
            settings = KrotovSettings(max_iters=8, grape_step=30.0)
        rec = grape_concurrent(problem, guess, settings)
        assert rec.converged_reason == "max_iters"
        pinned = settings.shape_for(problem.grid) == 0.0
        assert np.count_nonzero(pinned) == 2
        for field, start in zip(rec.final_fields, guess):
            assert np.array_equal(field.samples[pinned],
                                  start.samples[pinned])
            assert not np.array_equal(field.samples, start.samples)

    def test_non_descent_direction_restarts(self, monkeypatch):
        # a two-loop direction that is no descent direction (here: none at
        # all) gives way to the shaped gradient, scaled as the pairs say;
        # before any pair that is the first direction itself
        problem = tls_transfer_problem(nt=201)
        guess = [ControlField.constant(problem.grid, 0.1)]
        settings = KrotovSettings(max_iters=5, grape_step=5.0)
        free = grape_concurrent(problem, guess, settings)
        monkeypatch.setattr(optimize, "_lbfgs_direction",
                            lambda grad, pairs, h0: np.zeros_like(grad))
        rec = grape_concurrent(problem, guess, settings)
        assert rec.converged_reason == "max_iters"
        assert rec.j_history[1] == free.j_history[1]
        assert np.all(np.diff(rec.j_history) < 0)

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

    @pytest.mark.parametrize("reason", ["j_threshold", "dj_threshold"])
    def test_grape_stops_after_an_accepted_iteration(self, reason):
        # the third accepted iteration meets j_threshold, or is the first
        # to improve by less than dj_threshold; either is recorded.  The
        # L-BFGS steps converge superlinearly: five reach round-off
        problem = tls_transfer_problem(nt=201)
        guess = [ControlField.constant(problem.grid, 0.1)]
        free = grape_concurrent(problem, guess,
                                KrotovSettings(max_iters=5, grape_step=5.0))
        improvements = -np.diff(free.j_history)
        assert np.all(improvements > 0)
        assert free.final_j <= 1e-12
        n_accepted = 3
        if reason == "j_threshold":
            settings = KrotovSettings(max_iters=5, grape_step=5.0,
                                      j_threshold=free.j_history[3])
        else:
            threshold = 2.0 * improvements[2]
            assert np.all(improvements[:2] >= threshold)
            settings = KrotovSettings(max_iters=5, grape_step=5.0,
                                      dj_threshold=threshold)
        rec = grape_concurrent(problem, guess, settings)
        assert rec.converged_reason == reason
        assert len(rec.iterations) == n_accepted + 1
        assert np.array_equal(rec.j_history,
                              free.j_history[:n_accepted + 1])


class TestStopReasons:
    """Every ``converged_reason`` of the gradient methods, mostly on the
    two-qubit gate.  From the ramps at lambda 1e-6, Krotov's trials
    overshoot: a rejected one doubles lambda, and the ninth rejection in
    total, at iteration 13, stalls the run (trials 3, 5-8, 10-13 are
    rejected).  The zero field is a stationary point of the gate cost,
    where GRAPE's line search finds no Armijo point in its 25 halvings.  A
    rejected trial is no improvement below ``dj_threshold``: the reset run
    stops on that only after three rejections and seven accepted sweeps.
    From the ramps, GRAPE at grape_step 100 reaches J 2e-3 at its ninth
    L-BFGS step and first improves by less than 1e-4 at its thirteenth; it
    rejects no iteration."""

    @pytest.mark.parametrize(
        "optimizer,guess,settings,reason,n_entries,n_rejected", [
            (krotov_ensemble, "ramps", dict(lambda_=1e-6, max_iters=12),
             "max_iters", 13, 8),
            # the ninth rejection falls on the last allowed iteration
            (krotov_ensemble, "ramps", dict(lambda_=1e-6, max_iters=13),
             "stalled", 14, 9),
            (krotov_ensemble, "ramps", dict(lambda_=1e-6, max_iters=40),
             "stalled", 14, 9),
            (krotov_ensemble, "ramps", dict(lambda_=0.25, dj_threshold=1e-4),
             "dj_threshold", 29, 0),
            (krotov_ensemble, "ramps", dict(lambda_=0.25, j_threshold=1e-2),
             "j_threshold", 16, 0),
            (krotov_ensemble, "reset", dict(lambda_=0.05, max_iters=20,
                                            dj_threshold=1e-4),
             "dj_threshold", 11, 3),
            (grape_concurrent, "zero", {}, "dj_threshold", 1, 0),
            (krotov_ensemble, "ramps", dict(max_iters=0), "max_iters", 1, 0),
            (grape_concurrent, "ramps", dict(max_iters=0), "max_iters", 1,
             0),
            (grape_concurrent, "ramps", dict(grape_step=100.0, max_iters=5),
             "max_iters", 6, 0),
            (grape_concurrent, "ramps",
             dict(grape_step=100.0, dj_threshold=1e-4), "dj_threshold", 14,
             0),
            (grape_concurrent, "ramps",
             dict(grape_step=100.0, j_threshold=1e-2), "j_threshold", 10, 0),
        ], ids=["krotov-max_iters", "krotov-stalled-last", "krotov-stalled",
                "krotov-dj_threshold", "krotov-j_threshold",
                "krotov-dj_threshold-after-rejections",
                "grape-no_lower_cost", "krotov-no_iterations",
                "grape-no_iterations", "grape-max_iters", "grape-dj_threshold",
                "grape-j_threshold"])
    def test_reason_and_log(self, optimizer, guess, settings, reason,
                            n_entries, n_rejected):
        problem = two_qubit_gate_problem(nt=41)
        if guess == "reset":
            problem, fields = qubit_reset_problem()
        elif guess == "zero":
            fields = [ControlField.constant(problem.grid, 0.0)] * 2
        else:
            fields = [shapes.sin2_ramp(problem.grid, 0.5, 0.1),
                      shapes.sin2_ramp(problem.grid, -0.3, 0.1)]
        stream = io.StringIO()
        rec = optimizer(problem, fields, KrotovSettings(**settings),
                        log_stream=stream)
        assert rec.converged_reason == reason
        assert len(rec.iterations) == n_entries
        rows = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [(r["iter"], r["J_tf"], r["running_cost"], r["phase"])
                for r in rows] == [(e.index, e.j_tf, e.running_cost, e.phase)
                                   for e in rec.iterations]
        # a rejected trial is recorded at the unchanged cost with no
        # running cost
        rejected = [cur.j_tf == prev.j_tf and cur.running_cost == 0.0
                    for prev, cur in zip(rec.iterations, rec.iterations[1:])]
        assert sum(rejected) == n_rejected
        if reason == "stalled":
            assert rejected[-1]
        assert rec.monotonic()


@pytest.mark.parametrize("field,value", [
    ("lambda_", 0.0), ("lambda_", -1.0), ("lambda_", np.inf),
    ("lambda_", np.nan), ("grape_step", 0.0), ("grape_step", np.inf),
    ("max_iters", -1), ("max_iters", 2.5), ("max_iters", True),
])
def test_settings_reject_invalid_values(field, value):
    with pytest.raises(ValueError, match=field):
        KrotovSettings(**{field: value})


def test_grape_overflow_names_grape_step():
    # the first L-BFGS direction is the shaped gradient scaled by
    # grape_step, and every trial cost of its line search is non-finite:
    # its 25 trials, halved from 1e300 times the shaped gradient, reach
    # only 6e292 times it, and that is no converged field
    problem = tls_transfer_problem(nt=101)
    guess = [ControlField.constant(problem.grid, 0.1)]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            FloatingPointError,
            match=r"^non-finite cost in all 25 line-search trials at "
                  r"iteration 1 from grape_step 1e\+300$"):
        grape_concurrent(problem, guess, KrotovSettings(grape_step=1e300))


def test_tiny_lambda_is_named():
    # the update gain shape / lambda overflows on the first sweep
    problem = tls_transfer_problem(nt=101)
    guess = [ControlField.constant(problem.grid, 0.1)]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            FloatingPointError,
            match=r"^non-finite functional at iteration 1 \(Krotov step "
                  r"size lambda 1e-300\)$"):
        krotov_ensemble(problem, guess, KrotovSettings(lambda_=1e-300))


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
        gens = -1j * h.coupling_stack
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

    @pytest.mark.parametrize("bounds,index", [
        ([(-1.0, 1.0), (2.0, 1.0)], 1),
        ([(float("nan"), 1.0), (-1.0, 1.0)], 0),
        ([(-1.0, 1.0), (0.0, float("nan"))], 1),
    ], ids=["lo-above-hi", "nan-lo", "nan-hi"])
    def test_bad_bounds_rejected_by_index(self, bounds, index):
        with pytest.raises(ValueError, match=rf"bounds\[{index}\]"):
            Parametrization(n_controls=1, n_terms=2, bounds=bounds)

    def test_start_outside_bounds_is_clipped_silently(self, monkeypatch):
        problem = tls_transfer_problem(nt=101)
        par = Parametrization(n_controls=1, n_terms=1, bounds=[(-1.0, 1.0)],
                              coefficients=np.array([5.0]))
        samples = []
        evaluate = optimize.evaluate_cost
        monkeypatch.setattr(optimize, "evaluate_cost", lambda p, fields: (
            samples.append(fields[0].samples), evaluate(p, fields))[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gradient_free_search(problem, par, budget=2)
        start = par.render(problem.grid, np.array([1.0]))[0].samples
        assert len(samples) == 2
        assert np.array_equal(samples[0], start)

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


class TestSimplexMatchesScipy:
    """The in-house simplex evaluates scipy's Nelder-Mead points, bit for
    bit and in order, and reaches the same converged verdict."""

    @staticmethod
    def searches(f, x0, bounds, budget):
        from scipy.optimize import OptimizeWarning, minimize
        ours, theirs = [], []

        def recorded(points):
            return lambda x: (points.append(np.array(x)), f(x))[1]

        lo, hi = np.array(bounds, dtype=float).T
        converged = optimize._nelder_mead(recorded(ours),
                                          np.array(x0, dtype=float),
                                          lo, hi, budget)
        with warnings.catch_warnings():
            # a start outside the bounds, which the in-house search clips
            warnings.simplefilter("ignore", OptimizeWarning)
            res = minimize(recorded(theirs), x0, method="Nelder-Mead",
                           bounds=bounds, options={"maxfev": budget,
                                                   "xatol": 1e-10,
                                                   "fatol": 1e-12})
        assert len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            assert np.array_equal(a, b)
        assert converged == res.success
        return ours, converged

    def test_drawn_bounded_objectives(self):
        rng = np.random.default_rng(32)
        verdicts = set()
        for draw in range(40):
            n = int(rng.integers(1, 7))
            centre = rng.normal(size=n)
            a = rng.normal(size=(n, n))
            hess = a @ a.T + 0.1 * np.eye(n)
            if draw % 2:
                def f(x):
                    return float((x - centre) @ hess @ (x - centre))
            else:
                def f(x):
                    return float(np.sum(np.sin(3 * x + centre))
                                 + 0.1 * x @ x)
            lo = rng.uniform(-2.0, -0.1, n)
            hi = rng.uniform(0.1, 2.0, n)
            x0 = [np.zeros(n), rng.uniform(lo, hi),
                  rng.uniform(lo - 1.0, hi + 1.0)][draw % 3]
            budget = int(rng.integers(1, 300))
            verdicts.add(self.searches(f, x0, list(zip(lo, hi)), budget)[1])
        assert verdicts == {True, False}

    def test_start_near_upper_bound_reflects(self):
        x0 = np.array([0.99999, 0.5, 0.0])
        points, _ = self.searches(lambda x: float(np.sum((x - 0.2) ** 2)),
                                  x0, [(-1.0, 1.0)] * 3, 60)
        # the 5% step passes the bound and is reflected below the start
        assert points[1][0] < x0[0]

    def test_flat_objective_every_budget(self):
        # a flat cost ties every vertex, which pins argsort's order, and
        # shrinks every iteration, so the budgets stop inside shrinks
        def flat(x):
            return 1.0

        x0, bounds = np.array([0.0, 0.3, -0.7]), [(-1.0, 1.0)] * 3
        assert self.searches(flat, x0, bounds, 10_000)[1]
        for budget in range(1, 40):
            assert not self.searches(flat, x0, bounds, budget)[1]


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

    def test_monotonic_judges_gradient_iterations_only(self):
        def record(*entries):
            return OptimizationRecord(
                [IterationEntry(0, j, 0.0, 0.0, phase=phase)
                 for phase, j in entries], [], "max_iters", "hybrid")

        # simplex evaluations may rise: they are not iterations
        assert record(("gradient_free", 0.5), ("gradient_free", 0.9),
                      ("krotov", 0.4), ("krotov", 0.3)).monotonic()
        assert not record(("gradient_free", 0.5), ("krotov", 0.4),
                          ("krotov", 0.41)).monotonic()
        assert not record(("grape", 0.4), ("grape", 0.41)).monotonic()

    def test_phases_recorded(self):
        problem = tls_transfer_problem(nt=101)
        par = Parametrization(n_controls=1, n_terms=1,
                              bounds=[(-2, 2)])
        rec = hybrid_optimize(problem, par,
                              KrotovSettings(max_iters=3), budget=10)
        phases = {e.phase for e in rec.iterations}
        assert phases == {"gradient_free", "krotov"}
        assert rec.method == "hybrid"


@pytest.mark.parametrize("optimizer,budget", [
    (krotov_ensemble, None), (grape_concurrent, None),
    (gradient_free_search, 0), (gradient_free_search, 5),
    (hybrid_optimize, 0), (hybrid_optimize, 5),
], ids=["krotov", "grape", "gradient_free-budget0", "gradient_free-budget5",
        "hybrid-budget0", "hybrid-budget5"])
def test_jsonl_stream(optimizer, budget):
    """The log stream is the record: each entry once, in order, numbered
    within its phase."""
    problem = tls_transfer_problem(nt=101)
    guess = [ControlField.constant(problem.grid, 0.1)]
    par = Parametrization(n_controls=1, n_terms=1, bounds=[(-2, 2)],
                          baseline=guess)
    settings = KrotovSettings(max_iters=3)
    stream = io.StringIO()
    if budget is None:
        rec = optimizer(problem, guess, settings, log_stream=stream)
    elif optimizer is gradient_free_search:
        rec = optimizer(problem, par, budget, log_stream=stream)
    else:
        rec = optimizer(problem, par, settings, budget, log_stream=stream)
    rows = [json.loads(line) for line in stream.getvalue().splitlines()]
    for row in rows:
        assert set(row) == {"iter", "J_tf", "running_cost", "wall_ms",
                            "phase"}
    assert [(r["iter"], r["J_tf"], r["phase"]) for r in rows] == \
        [(e.index, e.j_tf, e.phase) for e in rec.iterations]
    for phase in {e.phase for e in rec.iterations}:
        indices = [e.index for e in rec.iterations if e.phase == phase]
        assert indices == list(range(len(indices)))


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
