"""Gradient-based (Krotov, GRAPE) and gradient-free pulse optimization.

The sequential method iterates: backward-propagate the co-states from the
final-time cost's boundary condition using the old field; then sweep
forward, updating each midpoint sample by
``du_j(t_k) = S(t_k)/lambda * mean_w Im <chi_w(t_k)|dH/du_j|psi_w(t_k)>``
before stepping the states with the already-updated field.  The staggered
state/control grids make this explicit, and for the shipped (convex)
final-time costs the total cost decreases monotonically.

The concurrent method (GRAPE) computes the exact discrete gradient -- the
Frechet derivative of each step exponential, eigenbasis formula for the
Hermitian case, `scipy.linalg.expm_frechet` for the GKLS generator -- and
applies one shaped update per iteration with a backtracking line search.
No monotonicity guarantee is asserted for it.

Each field is exponentiated once: a forward pass returns its step stack
(for kets with the step eigenpairs the gradient needs), and every co-state
comes from the adjoints of the stack of the field's own forward pass.

Co-state boundary conditions per cost kind (ensemble of W members):

* ket state-to-state (``|<phi|psi>|^2``): ``chi(T) = <phi|psi(T)> phi``
* ket gate (``Re tr``-form):              ``chi(T) = O psi(0) / 2``
* density targets, cost ``tr[(rho - rho_tgt)^2] / 2`` (the
  Hilbert-Schmidt distance, a true distance even for mixed targets):
  ``chi(T) = (rho_tgt - rho(T)) / 2``

Density states and co-states are real coordinate vectors in the reduced
Hermitian basis of :func:`qoctl.dynamics.reduced_gkls_parts`: the cost is
half the squared Euclidean distance of coordinates, a co-state steps back
through the transposed steps, and the sequential update is the real
product ``chi^T R_j rho``, where ``R_j`` is the control's generator part
``-i[H_j, .]``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _kernels, shapes
from .core import ControlledHamiltonian, Liouvillian, QuantumState
from .dynamics import (ControlField, TimeGrid, _coupling_stack,
                       _sample_matrix, reduced_gkls_parts, vectorize_density,
                       write_csv)
from .functionals import CostSpec


@dataclass(frozen=True)
class ControlProblem:
    """Dynamics plus cost: everything an optimizer needs.

    ``initial_states`` and the cost's target payload must be matched in
    length (gate costs derive their targets from the gate and the initial
    states).  Open-system dynamics is selected by density initial states;
    ``jump_operators`` may then be non-empty.
    """

    hamiltonian: ControlledHamiltonian
    grid: TimeGrid
    initial_states: tuple
    cost: CostSpec
    jump_operators: tuple = ()

    def __init__(self, hamiltonian, grid, initial_states, cost,
                 jump_operators=()):
        object.__setattr__(self, "hamiltonian", hamiltonian)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "initial_states", tuple(initial_states))
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "jump_operators", tuple(jump_operators))
        kinds = {s.kind for s in self.initial_states}
        if len(kinds) != 1:
            raise ValueError("initial states must share a variant")
        if self.jump_operators and not self.is_open:
            raise ValueError("jump operators require density initial states")

    @property
    def is_open(self) -> bool:
        return self.initial_states[0].is_density

    @property
    def n_states(self) -> int:
        return len(self.initial_states)

    def liouvillian(self) -> Liouvillian:
        return Liouvillian(self.hamiltonian, self.jump_operators)

    def targets(self) -> list:
        """Target states, one per ensemble member."""
        cost = self.cost
        if cost.kind == "state_to_state":
            tgt = cost.target
            targets = list(tgt) if isinstance(tgt, (tuple, list)) else [tgt]
            if len(targets) != self.n_states:
                raise ValueError(f"need {self.n_states} targets, "
                                 f"got {len(targets)}")
            return targets
        gate = cost.target
        if self.is_open:
            return [QuantumState._wrap(
                "density", gate.matrix @ s.rho @ gate.matrix.conj().T)
                for s in self.initial_states]
        return [QuantumState._wrap("ket", gate.matrix @ s.ket)
                for s in self.initial_states]


@dataclass
class KrotovSettings:
    """Step size and stopping thresholds.

    ``lambda_`` is the inverse step size of the sequential update.
    ``stall_shrink``, if set, multiplies ``lambda_`` by that factor
    whenever an iteration improves by less than ``dj_threshold`` without
    having converged.  ``grape_step`` only affects the concurrent method.
    """

    lambda_: float = 1.0
    max_iters: int = 100
    j_threshold: float = 0.0
    dj_threshold: float = 0.0
    stall_shrink: Optional[float] = None
    grape_step: float = 1.0

    def shape_for(self, grid: TimeGrid) -> np.ndarray:
        """Update shape on ``grid``: a flat top with 5% sine-squared ramps.

        It must vanish at both ends (fields stay pinned at switch-on/off),
        which a grid of one midpoint cannot give.
        """
        s = shapes.sin2_ramp(grid, 1.0, 0.05).samples
        if abs(s[0]) > 1e-15 or abs(s[-1]) > 1e-15:
            raise ValueError("update shape must vanish at both ends")
        return s


@dataclass(frozen=True)
class IterationEntry:
    index: int
    j_tf: float
    running_cost: float
    wall_ms: float
    phase: str = "krotov"


@dataclass
class OptimizationRecord:
    """Per-iteration history, final fields and the convergence verdict."""

    iterations: list
    final_fields: list
    converged_reason: str
    method: str

    @property
    def j_history(self) -> np.ndarray:
        return np.array([e.j_tf for e in self.iterations])

    @property
    def final_j(self) -> float:
        return self.iterations[-1].j_tf

    def monotonic(self) -> bool:
        """Whether no iteration raised the cost by more than 1e-12."""
        return bool(np.all(np.diff(self.j_history) <= 1e-12))


def fields_to_csv(fields: Sequence[ControlField], path):
    """Midpoint time in column 0, one column per control."""
    write_csv(path, ["time"] + [f"u_{j}" for j in range(len(fields))],
              np.column_stack([fields[0].grid.midpoints]
                              + [f.samples for f in fields]))


def _log(stream, entry: IterationEntry):
    if stream is not None:
        stream.write(json.dumps({"iter": entry.index, "J_tf": entry.j_tf,
                                 "running_cost": entry.running_cost,
                                 "wall_ms": entry.wall_ms}) + "\n")


class _KetEngine:
    """Closed-system propagation plumbing shared by Krotov and GRAPE."""

    def __init__(self, problem: ControlProblem):
        self.problem = problem
        h = problem.hamiltonian
        self.drift = h.drift.matrix
        self.coups = _coupling_stack(h)
        self.psi0 = np.stack([s.ket for s in problem.initial_states])
        self.grid = problem.grid
        self.tgt = np.stack([t.ket for t in problem.targets()])

    def forward(self, amps):
        """States of the field ``amps``, its step unitaries and the
        eigenpairs ``(w, v)`` of its step Hamiltonians."""
        steps, w, v = _kernels.step_stack_ket(
            _kernels.generator(self.drift, self.coups, amps), self.grid.dt)
        return _kernels.propagate_steps(steps, self.psi0, 1), steps, (w, v)

    def cost_value(self, finals) -> float:
        overlaps = np.einsum("wi,wi->w", self.tgt.conj(), finals)
        if self.problem.cost.kind == "state_to_state":
            return float(1.0 - np.mean(np.abs(overlaps) ** 2))
        return float(1.0 - np.mean(overlaps.real))

    def chi_boundary(self, finals):
        if self.problem.cost.kind == "state_to_state":
            overlaps = np.einsum("wi,wi->w", self.tgt.conj(), finals)
            return overlaps[:, None] * self.tgt
        return 0.5 * self.tgt

    def krotov_forward(self, amps, chi, gain):
        return _kernels.krotov_forward_ket(self.drift, self.coups, amps,
                                           chi, self.psi0, self.grid.dt,
                                           gain)

    def gradient(self, amps, fwd, steps, eig):
        """Exact discrete gradient of the cost w.r.t. every sample, from
        what ``forward(amps)`` returned."""
        chi = _kernels.propagate_steps(steps, self.chi_boundary(fwd[-1]), -1)
        # In the eigenbasis of a step Hamiltonian the Frechet derivative of
        # exp(-i H dt) along C_j is ratio * C_j.  The divided difference
        # (e^{-i dt w_a} - e^{-i dt w_b}) / (w_a - w_b) is formed as
        # -i dt h_a h_b sin(x)/x, h = e^{-i dt w/2}, x = dt (w_a - w_b)/2:
        # exact at any splitting, where the quotient cancels as it shrinks.
        w, v = eig
        dt = self.grid.dt
        h = np.exp(-0.5j * dt * w)
        ratio = -1j * dt * h[:, :, None] * h[:, None, :] * np.sinc(
            dt * (w[:, :, None] - w[:, None, :]) / (2 * np.pi))
        vh = np.conj(np.swapaxes(v, 1, 2))
        fwd_e = np.einsum("kab,kwb->kwa", vh, fwd[:-1])
        chi_e = np.einsum("kab,kwb->kwa", vh, chi[1:])
        coups_e = vh[:, None] @ self.coups[None] @ v[:, None]
        pair = ratio * np.einsum("kwa,kwb->kab", chi_e.conj(), fwd_e)
        return -2.0 * np.einsum("kab,kjab->kj", pair,
                                coups_e).real / fwd.shape[1]


class _DensityEngine:
    """Open-system (GKLS) counterpart of the ket engine, on the real
    coordinates of the smallest subspace that holds the initial states and
    the targets (:func:`qoctl.dynamics.reduced_gkls_parts`)."""

    def __init__(self, problem: ControlProblem):
        self.problem = problem
        self.grid = problem.grid
        seeds = [s.rho for s in problem.initial_states] \
            + [t.rho for t in problem.targets()]
        self.gen0, self.gens, basis = reduced_gkls_parts(
            problem.liouvillian(), seeds)
        coords = (np.stack([vectorize_density(rho) for rho in seeds])
                  @ basis.conj()).real
        self.rho0, self.tgt = np.split(coords, 2)

    def forward(self, amps):
        """States and step operators of the field ``amps``; no eigenpairs."""
        steps = _kernels.step_stack_dm(self.gen0, self.gens, amps,
                                       self.grid.dt)
        return _kernels.propagate_steps(steps, self.rho0, 1), steps, None

    def cost_value(self, finals) -> float:
        diff = finals - self.tgt
        dists = 0.5 * np.einsum("wi,wi->w", diff.conj(), diff).real
        return float(np.mean(dists))

    def chi_boundary(self, finals):
        return 0.5 * (self.tgt - finals)

    def krotov_forward(self, amps, chi, gain):
        # a control's update operator is its generator part -i[H_j, .]
        return _kernels.krotov_forward_dm(self.gen0, self.gens, self.gens,
                                          amps, chi, self.rho0,
                                          self.grid.dt, gain)

    def gradient(self, amps, fwd, steps, eig):
        # deferred: scipy.linalg is over half a start-up; only this
        # gradient and the GKLS steps use it
        from scipy.linalg import expm_frechet
        chi = _kernels.propagate_steps(steps, self.chi_boundary(fwd[-1]), -1)
        dt = self.grid.dt
        n_steps, n_ctrl = amps.shape
        grad = np.zeros_like(amps)
        for k in range(n_steps):
            gen = _kernels.generator(self.gen0, self.gens, amps[k]) * dt
            for j in range(n_ctrl):
                dstep = expm_frechet(gen, self.gens[j] * dt,
                                     compute_expm=False)
                # vdot sums over the ensemble: sum_w <chi_w|dstep|rho_w>
                acc = np.vdot(chi[k + 1], fwd[k] @ dstep.T).real
                grad[k, j] = -2.0 * acc / fwd.shape[1]
        return grad


def _engine(problem: ControlProblem):
    return _DensityEngine(problem) if problem.is_open \
        else _KetEngine(problem)


def _fields(problem: ControlProblem, amps: np.ndarray) -> list:
    return [ControlField(problem.grid, amps[:, j])
            for j in range(amps.shape[1])]


def krotov_ensemble(problem: ControlProblem, guess: Sequence[ControlField],
                    settings: KrotovSettings,
                    log_stream=None) -> OptimizationRecord:
    """Sequential optimization over an ensemble of state pairs or a gate.

    The per-midpoint update averages ``Im <chi_w|dH/du|psi_w>`` over the
    ensemble; gate costs propagate the ``N`` logical states (2N
    propagations per iteration), open-system costs the density matrices.
    """
    engine = _engine(problem)
    amps = _sample_matrix(guess, problem.grid,
                          problem.hamiltonian.n_controls)
    shape = settings.shape_for(problem.grid)
    dt = problem.grid.dt
    tf_span = problem.grid.tf - problem.grid.t0
    lam = settings.lambda_

    fwd, steps = engine.forward(amps)[:2]
    j_tf = engine.cost_value(fwd[-1])
    if not np.isfinite(j_tf):
        raise FloatingPointError("non-finite functional for the guess field")
    entries = [IterationEntry(0, j_tf, 0.0, 0.0)]
    _log(log_stream, entries[0])
    reason = "max_iters"
    rejects = 0
    # Co-states of the current field, from the adjoints of the steps its
    # forward pass built (the guess's pass, then each accepted sweep); a
    # rejected trial leaves both the field and its co-states as they were.
    chi = None
    if j_tf <= settings.j_threshold:
        reason = "j_threshold"
    else:
        for it in range(1, settings.max_iters + 1):
            t_start = time.perf_counter()
            if chi is None:
                chi = _kernels.propagate_steps(
                    steps, engine.chi_boundary(fwd[-1]), -1)
                steps = None  # one step stack alive at a time
            old = amps.copy()
            trial, steps = engine.krotov_forward(amps, chi, shape / lam)
            j_new = engine.cost_value(trial[-1])
            if not np.isfinite(j_new):
                raise FloatingPointError(f"non-finite functional at "
                                         f"iteration {it}")
            if j_new > j_tf:
                # Discrete step overshot the monotonicity bound: reject,
                # halve the step (double lambda) and retry.  The record
                # stays non-increasing because the field is unchanged.
                amps[:] = old
                steps = None
                lam *= 2.0
                rejects += 1
                entry = IterationEntry(
                    it, j_tf, 0.0, (time.perf_counter() - t_start) * 1e3)
                entries.append(entry)
                _log(log_stream, entry)
                if rejects > 8:
                    reason = "stalled"
                    break
                continue
            fwd, chi = trial, None
            # the update is zero where the shape is, so those samples
            # add nothing to the running cost
            active = shape > 0
            penalty = (amps - old)[active] ** 2 / shape[active, None]
            running = float(lam * np.sum(penalty) * dt / tf_span)
            wall = (time.perf_counter() - t_start) * 1e3
            entry = IterationEntry(it, j_new, running, wall)
            entries.append(entry)
            _log(log_stream, entry)
            improvement = j_tf - j_new
            j_tf = j_new
            if j_tf <= settings.j_threshold:
                reason = "j_threshold"
                break
            if settings.dj_threshold > 0 and \
                    improvement < settings.dj_threshold:
                if settings.stall_shrink is not None and rejects == 0:
                    lam = lam * settings.stall_shrink
                    continue
                reason = "dj_threshold"
                break
    return OptimizationRecord(entries, _fields(problem, amps), reason,
                              method="krotov")


def grape_concurrent(problem: ControlProblem, guess: Sequence[ControlField],
                     settings: KrotovSettings,
                     log_stream=None) -> OptimizationRecord:
    """Concurrent gradient update with a backtracking line search.

    The whole gradient is computed with frozen fields, then applied at
    once through the update shape; the step is halved until the cost
    decreases, at most 25 times.  The accepted trial's states and step
    stack feed the next gradient.  A guess that already meets
    ``j_threshold`` is returned unchanged.  Fast near an optimum; no
    monotonicity guarantee.
    """
    engine = _engine(problem)
    amps = _sample_matrix(guess, problem.grid,
                          problem.hamiltonian.n_controls)
    shape = settings.shape_for(problem.grid)
    fwd, steps, eig = engine.forward(amps)
    j_tf = engine.cost_value(fwd[-1])
    if not np.isfinite(j_tf):
        raise FloatingPointError("non-finite functional for the guess field")
    entries = [IterationEntry(0, j_tf, 0.0, 0.0, phase="grape")]
    _log(log_stream, entries[0])
    if j_tf <= settings.j_threshold:
        return OptimizationRecord(entries, _fields(problem, amps),
                                  "j_threshold", method="grape")
    reason = "max_iters"
    for it in range(1, settings.max_iters + 1):
        t_start = time.perf_counter()
        grad = engine.gradient(amps, fwd, steps, eig)
        fwd = steps = eig = None  # one step stack alive at a time
        if np.max(np.abs(grad)) == 0.0:
            reason = "dj_threshold"
            break
        step = settings.grape_step
        for _ in range(25):
            trial = amps - step * shape[:, None] * grad
            fwd, steps, eig = engine.forward(trial)
            j_trial = engine.cost_value(fwd[-1])
            if j_trial < j_tf:
                break
            fwd = steps = eig = None
            step *= 0.5
        if fwd is None:
            reason = "dj_threshold"
            break
        improvement = j_tf - j_trial
        amps, j_tf = trial, j_trial
        wall = (time.perf_counter() - t_start) * 1e3
        entry = IterationEntry(it, j_tf, 0.0, wall, phase="grape")
        entries.append(entry)
        _log(log_stream, entry)
        if j_tf <= settings.j_threshold:
            reason = "j_threshold"
            break
        if settings.dj_threshold > 0 and improvement < settings.dj_threshold:
            reason = "dj_threshold"
            break
    return OptimizationRecord(entries, _fields(problem, amps), reason,
                              method="grape")


def grape_gradient(problem: ControlProblem,
                   fields: Sequence[ControlField]) -> np.ndarray:
    """Exact discrete gradient ``dJ/du_j[k]``; shape ``(nt-1, M)``.

    Exposed for the finite-difference cross-check; the concurrent
    optimizer consumes it internally.
    """
    engine = _engine(problem)
    amps = _sample_matrix(fields, problem.grid,
                          problem.hamiltonian.n_controls)
    return engine.gradient(amps, *engine.forward(amps))


def evaluate_cost(problem: ControlProblem,
                  fields: Sequence[ControlField]) -> float:
    """Final-time cost of the given fields (no optimization)."""
    engine = _engine(problem)
    amps = _sample_matrix(fields, problem.grid,
                          problem.hamiltonian.n_controls)
    return engine.cost_value(engine.forward(amps)[0][-1])


@dataclass
class Parametrization:
    """Low-dimensional field parametrization for the gradient-free search.

    Per control, ``n_terms`` Fourier sine coefficients: the ``m``-th scales
    ``sin(m pi (t - t0) / T)``, ``m = 1..n_terms``, so the parametrized
    part vanishes at both grid ends.  ``bounds`` has one ``(lo, hi)`` pair
    per coefficient; rendered fields are the baseline plus the
    parametrized part.  Practical limit is a couple of dozen coefficients
    -- beyond that the simplex search stalls.
    """

    n_controls: int
    n_terms: int
    bounds: list
    coefficients: np.ndarray = None
    baseline: Optional[list] = None

    def __post_init__(self):
        n = self.n_terms * self.n_controls
        if self.coefficients is None:
            self.coefficients = np.zeros(n)
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (n,):
            raise ValueError(f"need {n} coefficients, "
                             f"got {self.coefficients.shape}")
        if len(self.bounds) != n:
            raise ValueError(f"need {n} bounds pairs, got {len(self.bounds)}")

    @property
    def n_params(self) -> int:
        return len(self.coefficients)

    def render(self, grid: TimeGrid,
               coefficients: Optional[np.ndarray] = None) -> list:
        coeffs = self.coefficients if coefficients is None \
            else np.asarray(coefficients, dtype=float)
        coeffs = np.clip(coeffs, [b[0] for b in self.bounds],
                         [b[1] for b in self.bounds])
        t = grid.midpoints
        span = grid.tf - grid.t0
        fields = []
        for c in range(self.n_controls):
            samples = np.zeros_like(t)
            for m, a in enumerate(coeffs[c * self.n_terms:
                                         (c + 1) * self.n_terms]):
                samples += a * np.sin((m + 1) * np.pi * (t - grid.t0) / span)
            if self.baseline is not None:
                samples = samples + self.baseline[c].samples
            fields.append(ControlField(grid, samples))
        return fields


def gradient_free_search(problem: ControlProblem,
                         parametrization: Parametrization,
                         budget: int,
                         log_stream=None) -> OptimizationRecord:
    """Derivative-free simplex search over the field coefficients.

    Nelder-Mead minimizes the problem's final-time cost
    (:func:`evaluate_cost`) over ``parametrization``'s coefficients, with
    at most ``budget`` evaluations.  With a zero budget or no coefficients
    the rendered start fields are returned with
    ``converged_reason="no_parameters"``; when the budget is exhausted,
    the best-so-far fields with ``"budget_exhausted"``.
    """
    grid = problem.grid
    history = []

    def objective(x):
        t_start = time.perf_counter()
        val = evaluate_cost(problem, parametrization.render(grid, x))
        wall = (time.perf_counter() - t_start) * 1e3
        entry = IterationEntry(len(history), float(val), 0.0, wall,
                               phase="gradient_free")
        history.append((entry, np.array(x)))
        _log(log_stream, entry)
        return val

    if parametrization.n_params == 0 or budget <= 0:
        fields = parametrization.render(grid)
        j0 = float(evaluate_cost(problem, fields))
        entry = IterationEntry(0, j0, 0.0, 0.0, phase="gradient_free")
        return OptimizationRecord([entry], fields, "no_parameters",
                                  method="gradient_free")

    # deferred: scipy.optimize, with the scipy.linalg it loads, outweighs
    # the rest of a start-up
    from scipy.optimize import minimize
    res = minimize(objective, parametrization.coefficients,
                   method="Nelder-Mead", bounds=parametrization.bounds,
                   options={"maxfev": budget, "xatol": 1e-10,
                            "fatol": 1e-12})
    best_x = min(history, key=lambda h: h[0].j_tf)[1]
    reason = "converged" if res.success else "budget_exhausted"
    entries = [h[0] for h in history]
    return OptimizationRecord(entries, parametrization.render(grid, best_x),
                              reason, method="gradient_free")


def hybrid_optimize(problem: ControlProblem,
                    parametrization: Parametrization,
                    settings: KrotovSettings, budget: int,
                    log_stream=None) -> OptimizationRecord:
    """Gradient-free pre-optimization feeding the sequential method.

    With a zero budget (or an empty parametrization) it reduces to plain
    Krotov from the baseline guess; with ``max_iters == 0`` it returns the
    gradient-free result; with both disabled it returns the guess.
    """
    pre = gradient_free_search(problem, parametrization, budget,
                               log_stream=log_stream)
    if settings.max_iters <= 0:
        return pre
    polish = krotov_ensemble(problem, pre.final_fields, settings,
                             log_stream=log_stream)
    offset = len(pre.iterations)
    merged = pre.iterations + [
        IterationEntry(offset + e.index, e.j_tf, e.running_cost, e.wall_ms,
                       phase=e.phase) for e in polish.iterations]
    return OptimizationRecord(merged, polish.final_fields,
                              polish.converged_reason, method="hybrid")


def __getattr__(name):
    # ``optimize.expm_frechet`` resolves to the current
    # ``scipy.linalg.expm_frechet`` only for perfbench's tracer test, which
    # reads the name; it goes with the tracer's kernel patching (ROADMAP
    # item 3b).  Binding it at import would load scipy.linalg in every run.
    if name == "expm_frechet":
        import scipy.linalg
        return scipy.linalg.expm_frechet
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
