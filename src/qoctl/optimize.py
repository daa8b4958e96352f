"""Gradient-based (Krotov, GRAPE) and gradient-free pulse optimization.

The sequential method iterates: backward-propagate the co-states from the
final-time cost's boundary condition using the old field; then sweep
forward, updating each midpoint sample by
``du_j(t_k) = S(t_k)/lambda * mean_w Im <chi_w(t_k)|dH/du_j|psi_w(t_k)>``
before stepping the states with the already-updated field.  The staggered
state/control grids make this explicit, and for the shipped (convex)
final-time costs the total cost decreases monotonically.

The concurrent method (GRAPE) computes the exact discrete gradient -- the
Frechet derivative of each step exponential: an eigenbasis formula for
kets, and for the GKLS generator one Van Loan ``_kernels.expm_series`` of
``(nt-1) M`` blocks of ``2d x 2d`` reals, ``4M`` times the step stack's
memory -- and takes one limited-memory BFGS step per iteration in the
update shape's metric, its length found by Armijo backtracking.  Its cost
falls at every iteration; it stops like Krotov, or when no halving of the
step is an Armijo point.

Each field is exponentiated once: a forward pass returns its step stack,
and every co-state comes from the adjoints of the stack of the field's own
forward pass.  The ket gradient diagonalizes the step Hamiltonians of the
field it differentiates, once per gradient, so a rejected line-search
trial costs no eigendecomposition.

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
from .core import (ControlledHamiltonian, DimensionMismatchError,
                   Liouvillian, QuantumState, StateVariantError)
from .dynamics import (ControlField, TimeGrid, _sample_matrix,
                       reduced_gkls_parts, vectorize_density, write_csv)
from .functionals import CostSpec


@dataclass(frozen=True)
class ControlProblem:
    """Dynamics plus cost: everything an optimizer needs.

    ``initial_states`` and the cost's target payload must be matched in
    length (gate costs derive their targets from the gate and the initial
    states).  Every state is of one variant and, like the gate, of the
    Hamiltonian's dimension.  Open-system dynamics is selected by density
    initial states; ``jump_operators`` may then be non-empty.
    """

    hamiltonian: ControlledHamiltonian
    grid: TimeGrid
    initial_states: tuple
    cost: CostSpec
    jump_operators: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "initial_states", tuple(self.initial_states))
        object.__setattr__(self, "jump_operators", tuple(self.jump_operators))
        if not self.initial_states:
            raise ValueError("need at least one initial state")
        dim, kind = self.hamiltonian.dim, self.initial_states[0].kind
        gate = self.cost.kind == "gate"
        if gate and self.cost.target.dim != dim:
            raise DimensionMismatchError(
                f"gate dim {self.cost.target.dim} != Hamiltonian dim {dim}")
        for name, states in (("initial state", self.initial_states),
                             ("target", [] if gate else self.targets())):
            for k, state in enumerate(states):
                if state.kind != kind:
                    raise StateVariantError(f"{name} {k} is a {state.kind}, "
                                            f"initial state 0 a {kind}")
                if state.dim != dim:
                    raise DimensionMismatchError(f"{name} {k} dim {state.dim}"
                                                 f" != Hamiltonian dim {dim}")
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

    ``lambda_`` is the inverse step size of the sequential update; the
    optimizer doubles it on every rejected step and changes it no other
    way.  ``grape_step`` scales the concurrent method's L-BFGS directions
    until it keeps a curvature pair: its first trial is the guess minus
    ``grape_step`` times the shaped gradient.  The thresholds and
    ``max_iters`` stop either method by the rules that ``_Descent`` lists.
    A Krotov record's costs come from Chebyshev-table passes and are about
    1e-12 off the exact cost of the same field (``krotov_ensemble``), so a
    ``j_threshold`` or ``dj_threshold`` below about 1e-12 is below the
    record's resolution.  ``lambda_`` and ``grape_step`` must be finite and
    > 0, ``max_iters`` an int >= 0.
    """

    lambda_: float = 1.0
    max_iters: int = 100
    j_threshold: float = 0.0
    dj_threshold: float = 0.0
    grape_step: float = 1.0

    def __post_init__(self):
        for name in ("lambda_", "grape_step"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, "
                                 f"got {value!r}")
        if not isinstance(self.max_iters, int) \
                or isinstance(self.max_iters, bool) or self.max_iters < 0:
            raise ValueError(f"max_iters must be an int >= 0, "
                             f"got {self.max_iters!r}")

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
        """Whether no Krotov or GRAPE iteration raised the cost by more
        than 1e-12; simplex evaluations are not iterations."""
        js = [e.j_tf for e in self.iterations
              if e.phase in ("krotov", "grape")]
        return bool(np.all(np.diff(js) <= 1e-12))


def fields_to_csv(fields: Sequence[ControlField], path):
    """Midpoint time in column 0, one column per control."""
    write_csv(path, ["time"] + [f"u_{j}" for j in range(len(fields))],
              np.column_stack([fields[0].grid.midpoints]
                              + [f.samples for f in fields]))


def _log(stream, entry: IterationEntry):
    if stream is not None:
        stream.write(json.dumps({"iter": entry.index, "J_tf": entry.j_tf,
                                 "running_cost": entry.running_cost,
                                 "wall_ms": entry.wall_ms,
                                 "phase": entry.phase}) + "\n")


class _KetEngine:
    """Closed-system propagation plumbing shared by Krotov and GRAPE."""

    def __init__(self, problem: ControlProblem):
        self.problem = problem
        h = problem.hamiltonian
        self.drift = h.drift_matrix
        self.coups = h.coupling_stack
        self.psi0 = np.stack([s.ket for s in problem.initial_states])
        self.grid = problem.grid
        self.tgt = np.stack([t.ket for t in problem.targets()])

    def forward(self, amps):
        """States of the field ``amps`` and its step unitaries."""
        steps = _kernels.step_stack_ket(
            _kernels.generator(self.drift, self.coups, amps), self.grid.dt)
        return _kernels.propagate_steps(steps, self.psi0, 1), steps

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

    def gradient(self, amps, fwd, steps):
        """Exact discrete gradient of the cost w.r.t. every sample, from
        what ``forward(amps)`` returned and one batched ``eigh`` of the
        field's step Hamiltonians (real for a real model)."""
        chi = _kernels.propagate_steps(steps, self.chi_boundary(fwd[-1]), -1)
        # In the eigenbasis of a step Hamiltonian the Frechet derivative of
        # exp(-i H dt) along C_j is ratio * C_j.  The divided difference
        # (e^{-i dt w_a} - e^{-i dt w_b}) / (w_a - w_b) is formed as
        # -i dt h_a h_b sin(x)/x, h = e^{-i dt w/2}, x = dt (w_a - w_b)/2:
        # exact at any splitting, where the quotient cancels as it shrinks.
        w, v = np.linalg.eigh(
            _kernels.generator(self.drift, self.coups, amps))
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
        """States and step operators of the field ``amps``."""
        steps = _kernels.step_stack_dm(self.gen0, self.gens, amps,
                                       self.grid.dt)
        return _kernels.propagate_steps(steps, self.rho0, 1), steps

    def cost_value(self, finals) -> float:
        diff = finals - self.tgt
        dists = 0.5 * np.einsum("wi,wi->w", diff.conj(), diff).real
        return float(np.mean(dists))

    def chi_boundary(self, finals):
        return 0.5 * (self.tgt - finals)

    def krotov_forward(self, amps, chi, gain):
        return _kernels.krotov_forward_dm(self.gen0, self.gens, amps, chi,
                                          self.rho0, self.grid.dt, gain)

    def gradient(self, amps, fwd, steps):
        chi = _kernels.propagate_steps(steps, self.chi_boundary(fwd[-1]), -1)
        # Van Loan: the upper-right block of expm([[G_k, R_j], [0, G_k]] dt)
        # is the Frechet derivative of the step expm(G_k dt) along R_j dt
        d = self.gen0.shape[0]
        blocks = np.zeros(amps.shape + (2 * d, 2 * d))
        blocks[..., :d, :d] = blocks[..., d:, d:] = _kernels.generator(
            self.gen0, self.gens, amps)[:, None]
        blocks[..., :d, d:] = self.gens
        blocks *= self.grid.dt
        dsteps = _kernels.expm_series(blocks)[..., :d, d:]
        return -2.0 * np.einsum("kwa,kjab,kwb->kj", chi[1:], dsteps,
                                fwd[:-1]) / fwd.shape[1]


def _engine(problem: ControlProblem):
    return _DensityEngine(problem) if problem.is_open \
        else _KetEngine(problem)


STALL_REJECTIONS = 9  # rejected Krotov trials, in total, that stall a run
LINE_SEARCH_HALVINGS = 25  # GRAPE trial steps, halved from the unit step
LBFGS_MEMORY = 10  # field and gradient change pairs the GRAPE step keeps
ARMIJO_C1 = 1e-4  # share of the first-order decrease a GRAPE trial must make


class _Descent:
    """The iteration both gradient methods share: the current field with
    its forward pass (states and step stack) and cost, the record, and the
    stops.  The first stop to fire is the ``converged_reason``:

    * ``j_threshold``: the guess or an accepted field costs at most that;
    * ``dj_threshold``: an accepted field improves the cost by less, or
      GRAPE finds no Armijo point in ``LINE_SEARCH_HALVINGS`` halvings;
    * ``stalled``: ``STALL_REJECTIONS`` rejected Krotov trials in total;
    * ``max_iters``: that many iterations ran, rejected ones included.
    """

    def __init__(self, problem, guess, settings, log_stream, phase):
        self.grid, self.settings = problem.grid, settings
        self.log_stream, self.phase = log_stream, phase
        self.engine = _engine(problem)
        self.amps = _sample_matrix(guess, problem.grid,
                                   problem.hamiltonian.n_controls)
        self.shape = settings.shape_for(problem.grid)
        self.fwd, self.steps = self.engine.forward(self.amps)
        self.j_tf = self.engine.cost_value(self.fwd[-1])
        if not np.isfinite(self.j_tf):
            raise FloatingPointError("non-finite functional for the guess "
                                     "field")
        self.entries, self.rejections, self.reason = [], 0, None
        self._record(0.0)

    def iterations(self):
        """Each iteration's number, its clock started, until a stop fires."""
        while self.reason is None:
            self.t_start = time.perf_counter()
            yield len(self.entries)

    def _record(self, running: float, improvement: float = np.inf):
        wall = (time.perf_counter() - self.t_start) * 1e3 \
            if self.entries else 0.0
        entry = IterationEntry(len(self.entries), self.j_tf, running, wall,
                               self.phase)
        self.entries.append(entry)
        _log(self.log_stream, entry)
        if self.j_tf <= self.settings.j_threshold:
            self.reason = "j_threshold"
        elif improvement < self.settings.dj_threshold:
            self.reason = "dj_threshold"
        elif self.rejections == STALL_REJECTIONS:
            self.reason = "stalled"
        elif entry.index >= self.settings.max_iters:
            self.reason = "max_iters"

    def accept(self, amps, fwd, steps, j_tf: float, running: float = 0.0):
        improvement = self.j_tf - j_tf
        self.amps, self.fwd, self.steps, self.j_tf = amps, fwd, steps, j_tf
        self._record(running, improvement)

    def reject(self):
        """Record a Krotov trial that raised the cost at the kept cost."""
        self.rejections += 1
        self._record(0.0)

    def record(self) -> OptimizationRecord:
        fields = [ControlField(self.grid, u) for u in self.amps.T]
        return OptimizationRecord(self.entries, fields, self.reason,
                                  self.phase)


def krotov_ensemble(problem: ControlProblem, guess: Sequence[ControlField],
                    settings: KrotovSettings,
                    log_stream=None) -> OptimizationRecord:
    """Sequential optimization over an ensemble of state pairs or a gate.

    The per-midpoint update averages ``Im <chi_w|dH/du|psi_w>`` over the
    ensemble; gate costs propagate the ``N`` logical states (2N
    propagations per iteration), open-system costs the density matrices.
    A pass that leaves the floats raises ``FloatingPointError`` naming the
    ``lambda`` it ran at.

    Each recorded J is the cost of the pass that made the field, whose
    steps are read off a Chebyshev table (``_kernels.krotov_forward_ket``
    and ``krotov_forward_dm``): it differs from the cost of an exact
    propagation of that field by up to about 1e-12 (1.3e-12 on a converged
    two-level transfer).  A ``j_threshold`` or ``dj_threshold`` below about
    1e-12 is therefore below the record's resolution.
    """
    descent = _Descent(problem, guess, settings, log_stream, "krotov")
    engine, shape, lam = descent.engine, descent.shape, settings.lambda_
    dt, span = problem.grid.dt, problem.grid.tf - problem.grid.t0
    # the update, and so the running cost, is zero where the shape is
    active = shape > 0
    for it in descent.iterations():
        if descent.steps is not None:
            # a new current field: co-states from the adjoints of its steps
            chi = _kernels.propagate_steps(
                descent.steps, engine.chi_boundary(descent.fwd[-1]), -1)
            descent.steps = None  # one step stack alive at a time
        amps = descent.amps.copy()
        try:
            fwd, steps = engine.krotov_forward(amps, chi, shape / lam)
            j_new = engine.cost_value(fwd[-1])
            if not np.isfinite(j_new):
                raise FloatingPointError(f"non-finite functional at "
                                         f"iteration {it}")
        except FloatingPointError as exc:
            # a tiny lambda makes a huge update: name it with the symptom
            raise FloatingPointError(f"{exc} (Krotov step size "
                                     f"lambda {lam!r})") from exc
        if j_new > descent.j_tf:
            # the step overshot the monotonicity bound: halve it, same field
            lam *= 2.0
            descent.reject()
        else:
            penalty = (amps - descent.amps)[active] ** 2 / shape[active, None]
            descent.accept(amps, fwd, steps, j_new,
                           float(lam * np.sum(penalty) * dt / span))
        fwd = steps = None  # a rejected trial's, or held by the descent
    return descent.record()


def grape_concurrent(problem: ControlProblem, guess: Sequence[ControlField],
                     settings: KrotovSettings,
                     log_stream=None) -> OptimizationRecord:
    """Concurrent update: limited-memory BFGS with an Armijo line search.

    The whole gradient is computed with frozen fields.  The direction is
    the L-BFGS two-loop recursion (Nocedal & Wright, *Numerical
    Optimization*, Algorithm 7.4) over the last ``LBFGS_MEMORY`` pairs of
    field and gradient changes, in the update shape's metric: its initial
    inverse Hessian is ``gamma * diag(shape)``, so a sample where the shape
    is 0 never moves.  ``gamma`` is ``grape_step`` until a pair is kept,
    then ``s.y / y.(shape y)`` of the newest pair; a pair with ``s.y <= 0``
    is skipped, and a direction that is not a descent direction restarts
    from the shaped gradient with no pairs.  The step along it starts at 1
    and halves until the cost falls by more than ``ARMIJO_C1`` times the
    step's first-order decrease, which a non-finite cost never does; so
    the cost falls at every accepted iteration.  A line search whose every
    trial cost is non-finite raises ``FloatingPointError`` naming
    ``grape_step``.  The accepted trial's states and step stack feed the
    next gradient.
    """
    descent = _Descent(problem, guess, settings, log_stream, "grape")
    engine, shape = descent.engine, descent.shape[:, None]
    pairs, gamma, last = [], settings.grape_step, None
    for it in descent.iterations():
        grad = engine.gradient(descent.amps, descent.fwd, descent.steps)
        descent.fwd = descent.steps = None  # one step stack alive at a time
        if last is not None:
            s, y = descent.amps - last[0], grad - last[1]
            sy = np.sum(s * y)
            if sy > 0:
                pairs = (pairs + [(s, y, 1.0 / sy)])[-LBFGS_MEMORY:]
                gamma = sy / np.sum(y * shape * y)
        last = descent.amps, grad
        direction = _lbfgs_direction(grad, pairs, gamma * shape)
        if not np.sum(grad * direction) < 0:  # restart: shaped gradient
            pairs, direction = [], -gamma * shape * grad
        slope = np.sum(grad * direction)
        step, finite = 1.0, False
        for _ in range(LINE_SEARCH_HALVINGS):
            trial = descent.amps + step * direction
            fwd, steps = engine.forward(trial)
            j_trial = engine.cost_value(fwd[-1])
            if j_trial - descent.j_tf < ARMIJO_C1 * step * slope:
                descent.accept(trial, fwd, steps, j_trial)
                break
            finite = finite or np.isfinite(j_trial)
            fwd = steps = None
            step *= 0.5
        else:
            if not finite:
                raise FloatingPointError(
                    f"non-finite cost in all {LINE_SEARCH_HALVINGS} "
                    f"line-search trials at iteration {it} from grape_step "
                    f"{settings.grape_step!r}")
            descent.reason = "dj_threshold"  # no Armijo point: see _Descent
        fwd = steps = None  # held by the descent
    return descent.record()


def _lbfgs_direction(grad, pairs, h0):
    """``-H grad`` for the L-BFGS inverse Hessian ``H`` built from the
    ``(s, y, 1/s.y)`` pairs, oldest first, on the diagonal ``h0``."""
    q, alphas = grad.copy(), []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * np.sum(s * q))
        q -= alphas[-1] * y
    r = h0 * q
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        r += (alpha - rho * np.sum(y * r)) * s
    return -r


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
        for i, (lo, hi) in enumerate(self.bounds):
            if not lo <= hi:
                raise ValueError(f"bounds[{i}] = ({lo}, {hi}): need lo <= hi "
                                 f"and neither NaN")

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


class _BudgetSpent(Exception):
    """The simplex search asked for an evaluation beyond its budget."""


def _nelder_mead(f, x0, lo, hi, budget) -> bool:
    """Bounded Nelder-Mead simplex minimization of ``f`` from ``x0``.

    Returns whether the search stopped on ``xatol`` and ``fatol`` before
    its ``budget`` of evaluations was spent.  Every step is the arithmetic
    of scipy 1.17.1's non-adaptive bounded ``Nelder-Mead``, so the two
    evaluate the same points in the same order: 5% (or 0.00025 at zero)
    start steps, reflected into the box where they pass an upper bound; a
    clip into the bounds after every move; ``np.argsort`` ordering; and a
    budget checked before each call, so a shrink can stop partway.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    xatol, fatol = 1e-10, 1e-12
    n = len(x0)
    calls = 0

    def call(x):
        nonlocal calls
        if calls >= budget:
            raise _BudgetSpent
        calls += 1
        return f(x)

    x0 = np.clip(x0, lo, hi)
    sim = np.repeat(x0[None, :], n + 1, axis=0)
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    sim = np.clip(np.where(sim > hi, 2 * hi - sim, sim), lo, hi)
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = call(sim[k])
        # sorted twice, as scipy does: argsort need not keep ties in place
        for _ in range(2):
            order = np.argsort(fsim)
            sim, fsim = sim[order], fsim[order]
        while calls < budget:
            if np.max(np.abs(sim[1:] - sim[0])) <= xatol and \
                    np.max(np.abs(fsim[0] - fsim[1:])) <= fatol:
                return True
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = np.clip((1 + rho) * xbar - rho * sim[-1], lo, hi)
            fxr = call(xr)
            if fxr < fsim[0]:
                xe = np.clip((1 + rho * chi) * xbar - rho * chi * sim[-1],
                             lo, hi)
                fxe = call(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = np.clip((1 + psi * rho) * xbar - psi * rho * sim[-1],
                                 lo, hi)
                    fxc = call(xc)
                    accept = fxc <= fxr
                else:
                    xc = np.clip((1 - psi) * xbar + psi * sim[-1], lo, hi)
                    fxc = call(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = np.clip(sim[0] + sigma * (sim[j] - sim[0]),
                                         lo, hi)
                        fsim[j] = call(sim[j])
            order = np.argsort(fsim)
            sim, fsim = sim[order], fsim[order]
    except _BudgetSpent:
        pass
    return False


def gradient_free_search(problem: ControlProblem,
                         parametrization: Parametrization,
                         budget: int,
                         log_stream=None) -> OptimizationRecord:
    """Derivative-free simplex search over the field coefficients.

    Nelder-Mead (Nelder & Mead, Comput. J. 7, 308 (1965)) minimizes the
    problem's final-time cost (:func:`evaluate_cost`) over
    ``parametrization``'s coefficients, with at most ``budget``
    evaluations, inside the bounds.  Its reflection, expansion,
    contraction and shrink coefficients are 1, 2, 1/2 and 1/2, and its
    arithmetic is scipy 1.17.1's bounded ``Nelder-Mead`` step for step
    (:func:`_nelder_mead`), with ``xatol`` 1e-10 and ``fatol`` 1e-12.  A
    start outside the bounds is clipped into them.  With a zero budget or
    no coefficients the rendered start fields are returned with
    ``converged_reason="no_parameters"``; a search that meets both
    tolerances first returns its best fields with ``"converged"``, and
    one that spends its budget with ``"budget_exhausted"``.
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
        _log(log_stream, entry)
        return OptimizationRecord([entry], fields, "no_parameters",
                                  method="gradient_free")

    lo, hi = np.array(parametrization.bounds, dtype=float).T
    converged = _nelder_mead(objective, parametrization.coefficients,
                             lo, hi, budget)
    best_x = min(history, key=lambda h: h[0].j_tf)[1]
    reason = "converged" if converged else "budget_exhausted"
    entries = [h[0] for h in history]
    return OptimizationRecord(entries, parametrization.render(grid, best_x),
                              reason, method="gradient_free")


def hybrid_optimize(problem: ControlProblem,
                    parametrization: Parametrization,
                    settings: KrotovSettings, budget: int,
                    log_stream=None) -> OptimizationRecord:
    """Gradient-free pre-optimization feeding the sequential method.

    With a zero budget (or an empty parametrization) it reduces to plain
    Krotov from the baseline guess; with ``max_iters`` 0 it returns the
    gradient-free result; with both disabled it returns the guess.  The
    record is the two phases' records in turn, each entry's ``index``
    counting within its phase, as the log stream does.
    """
    pre = gradient_free_search(problem, parametrization, budget,
                               log_stream=log_stream)
    if settings.max_iters == 0:
        return pre
    polish = krotov_ensemble(problem, pre.final_fields, settings,
                             log_stream=log_stream)
    return OptimizationRecord(pre.iterations + polish.iterations,
                              polish.final_fields,
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
