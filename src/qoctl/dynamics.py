"""Time grids and piecewise-constant-exponential propagators.

States live on the integer grid ``t_k = t0 + k*dt``; control samples live on
the midpoints ``t_k + dt/2``.  The two staggered grids are what makes the
sequential optimizer update explicit, and midpoint sampling gives
second-order accuracy for time-dependent generators.

This module is the one place that samples controls: the ``(nt-1, M)``
sample matrix, the step Hamiltonians (:func:`step_hamiltonians`) and the
midpoint derivative (:func:`midpoint_derivative`) that the other modules
use.

Forward propagation applies ``exp(-i H dt)`` (Schroedinger) or the
exponential of the full GKLS generator, stepped as a real matrix on the
smallest invariant subspace of its coherence vector
(:func:`reduced_gkls_parts`).  Backward propagation applies the adjoint
step operator while visiting the same midpoint samples, which is the
co-state contract the gradient-based optimizers rely on.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import _kernels
from .controllability import _RealSpan
from .core import (ControlledHamiltonian, DimensionMismatchError, Liouvillian,
                   Operator, QuantumState, gellmann_basis)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with ``nt`` state points from ``t0`` to ``tf``.  Its
    step must be a finite normal float and its midpoints must increase
    strictly: a grid the floats cannot resolve is rejected by name."""

    t0: float
    tf: float
    nt: int

    def __post_init__(self):
        if self.nt < 2:
            raise ValueError("need at least two state grid points")
        if not self.tf > self.t0:  # also when either is NaN
            raise ValueError(f"{self}: tf must exceed t0")
        # an infinite t0 or tf makes the step infinite; scalar checks
        # first, so that the midpoints below are finite
        if not (math.isfinite(self.dt) and self.dt >= np.finfo(float).tiny):
            raise ValueError(f"{self}: step {self.dt!r} is not a finite "
                             f"normal float")
        if not np.all(np.diff(self.midpoints) > 0):
            raise ValueError(f"{self}: midpoints do not increase strictly")

    @property
    def dt(self) -> float:
        return (self.tf - self.t0) / (self.nt - 1)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.nt)

    @property
    def midpoints(self) -> np.ndarray:
        return self.t0 + self.dt * (np.arange(self.nt - 1) + 0.5)


@dataclass(frozen=True)
class ControlField:
    """Real control samples on the midpoint grid of a :class:`TimeGrid`."""

    grid: TimeGrid
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.shape != (self.grid.nt - 1,):
            raise ValueError(f"field needs {self.grid.nt - 1} midpoint "
                             f"samples, got shape {s.shape}")
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @classmethod
    def constant(cls, grid: TimeGrid, value: float) -> "ControlField":
        return cls(grid, np.full(grid.nt - 1, float(value)))

    def __mul__(self, scalar) -> "ControlField":
        return ControlField(self.grid, self.samples * float(scalar))

    __rmul__ = __mul__


class Trajectory:
    """States on every point of a time grid, stored as one dense array."""

    def __init__(self, grid: TimeGrid, kind: str, array: np.ndarray):
        self.grid = grid
        self.kind = kind
        self.array = array

    def __len__(self) -> int:
        return self.array.shape[0]

    @property
    def dim(self) -> int:
        return self.array.shape[1]

    def state(self, k: int) -> QuantumState:
        return QuantumState._wrap(self.kind, self.array[k])

    @property
    def final(self) -> QuantumState:
        return self.state(len(self) - 1)

    def populations(self) -> np.ndarray:
        """(nt, N) array of level populations."""
        if self.kind == "ket":
            return np.abs(self.array) ** 2
        return np.einsum("kii->ki", self.array).real

    def expectations(self, op: Operator) -> np.ndarray:
        if op.dim != self.dim:
            raise DimensionMismatchError(
                f"observable dim {op.dim} != state dim {self.dim}")
        m = op.matrix
        if self.kind == "ket":
            vals = np.einsum("ki,ij,kj->k", self.array.conj(), m, self.array)
        else:
            vals = np.einsum("ij,kji->k", m, self.array)
        return vals.real if op.hermitian else vals

    def max_norm_drift(self) -> float:
        """Largest deviation of norm (ket) or trace (density) from 1."""
        if self.kind == "ket":
            return float(np.max(np.abs(
                np.linalg.norm(self.array, axis=1) - 1.0)))
        traces = np.einsum("kii->k", self.array).real
        return float(np.max(np.abs(traces - 1.0)))

    def min_eigenvalue(self) -> float:
        """Smallest density-matrix eigenvalue over the trajectory."""
        if self.kind == "ket":
            raise ValueError("eigenvalue check applies to density states")
        return float(np.linalg.eigvalsh(self.array)[:, 0].min())

    def to_csv(self, path):
        """Tidy trajectory export: time, then one population per level."""
        write_csv(path, ["time"] + [f"pop_{i}" for i in range(self.dim)],
                  np.column_stack([self.grid.times, self.populations()]))


def write_csv(path, header: Sequence[str], rows):
    """Write a CSV artifact: the ``header`` row, then every value of
    ``rows`` as ``repr(float(x))``, which reads back exactly.  Every CSV
    qoctl writes goes through here."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(x)) for x in row] for row in rows)


def _sample_matrix(controls: Sequence[ControlField], grid: TimeGrid,
                   n_controls: int) -> np.ndarray:
    if len(controls) != n_controls:
        raise ValueError(f"expected {n_controls} control fields, "
                         f"got {len(controls)}")
    amps = np.empty((grid.nt - 1, n_controls))
    for j, field in enumerate(controls):
        if field.grid != grid:
            raise ValueError("control field grid differs from the "
                             "propagation grid")
        amps[:, j] = field.samples
    return amps


def step_hamiltonians(h: ControlledHamiltonian,
                      controls: Sequence[ControlField],
                      grid: TimeGrid) -> np.ndarray:
    """The ``(nt-1, N, N)`` Hamiltonians ``H0 + sum_j u_j(t) H_j`` at the
    midpoints of ``grid``, in one product: real when ``h`` is (see
    :class:`qoctl.core.ControlledHamiltonian`).  The fields are checked as
    for propagation: one per control, each on ``grid``."""
    return _kernels.generator(h.drift_matrix, h.coupling_stack,
                              _sample_matrix(controls, grid, h.n_controls))


def midpoint_derivative(samples: np.ndarray, dt: float) -> np.ndarray:
    """Time derivative of midpoint samples along their first axis: central
    differences, one-sided at the ends, zero for a single sample (where
    ``np.gradient`` alone raises)."""
    if len(samples) == 1:
        return np.zeros_like(samples)
    return np.gradient(samples, dt, axis=0)


def propagate_ket(h: ControlledHamiltonian, controls: Sequence[ControlField],
                  grid: TimeGrid, psi0: QuantumState,
                  direction: str = "forward") -> Trajectory:
    """Propagate a ket under ``H(t) = H0 + sum_j u_j(t) H_j``.

    Step ``k`` applies ``exp(-i H(t_k + dt/2) dt)``; the backward direction
    applies the adjoint ``exp(+i H dt)`` from ``tf`` down to ``t0`` while
    visiting the same midpoint samples, so a forward/backward round trip is
    the identity to machine precision.
    """
    if not psi0.is_ket:
        raise ValueError("propagate_ket needs a ket initial state")
    if psi0.dim != h.dim:
        raise DimensionMismatchError(f"state dim {psi0.dim} != {h.dim}")
    amps = _sample_matrix(controls, grid, h.n_controls)
    out = _kernels.propagate_pwc_ket(h.drift_matrix, h.coupling_stack,
                                     amps, grid.dt, psi0.ket,
                                     _direction_sign(direction))
    return Trajectory(grid, "ket", out)


def vectorize_density(rho: np.ndarray) -> np.ndarray:
    """Row-major vec; with it ``vec(A rho B) = (A kron B^T) vec(rho)``."""
    return np.asarray(rho, dtype=complex).reshape(-1)


def hamiltonian_generator(h: np.ndarray) -> np.ndarray:
    """Vectorized ``-i[H, .]``, of one matrix or of each in a stack."""
    eye = np.eye(h.shape[-1])
    return -1j * (np.kron(h, eye) - np.kron(eye, np.swapaxes(h, -1, -2)))


def dissipator_generator(jump_matrices: Iterable[np.ndarray],
                         dim: int) -> np.ndarray:
    """Vectorized GKLS dissipator for the given jump operators."""
    eye = np.eye(dim)
    gen = np.zeros((dim * dim, dim * dim), dtype=complex)
    for L in jump_matrices:
        LdL = L.conj().T @ L
        gen += (np.kron(L, L.conj())
                - 0.5 * np.kron(LdL, eye)
                - 0.5 * np.kron(eye, LdL.T))
    return gen


def gkls_generator_parts(liouvillian: Liouvillian):
    """Drift generator (Hamiltonian drift + dissipator) and control parts."""
    h = liouvillian.hamiltonian
    gen0 = hamiltonian_generator(h.drift.matrix) + dissipator_generator(
        (op.matrix for op in liouvillian.jump_operators), h.dim)
    return gen0, hamiltonian_generator(h.coupling_stack)


def reduced_gkls_parts(liouvillian: Liouvillian, seeds: Sequence):
    """GKLS generator parts as real ``d x d`` matrices on the smallest
    subspace that holds the ``seeds`` (density matrices) and is invariant
    under the drift part, every control part and their transposes.

    The parts of :func:`gkls_generator_parts` are rotated into the
    orthonormal Hermitian basis ``{I/sqrt(N)} + core.gellmann_basis(N)``,
    where a GKLS generator is real (Alicki & Lendi's coherence vector), and
    a Krylov closure from the seeds finds the subspace.  ``d`` is ``N^2``
    when nothing reduces; a symmetry of the model, such as a weak parity,
    cuts it further.

    Returns ``gen0`` ``(d, d)``, ``gens`` ``(M, d, d)`` and ``basis``
    ``(N^2, d)``, whose orthonormal columns are vectorized (row-major)
    Hermitian matrices: a density matrix has the real coordinates
    ``(vectorize_density(rho) @ basis.conj()).real`` and is rebuilt as
    ``coords @ basis.T``.  Because the subspace is invariant and the basis
    orthonormal, the adjoint of a step is its transpose, and
    Hilbert-Schmidt pairings are dot products of coordinates.
    """
    gen0, gens = gkls_generator_parts(liouvillian)
    dim = liouvillian.hamiltonian.dim
    # row m is vec(B_m); <B_m, G(B_n)> is real since G keeps Hermiticity
    herm = np.stack((np.eye(dim, dtype=complex) / np.sqrt(dim),)
                    + gellmann_basis(dim)).reshape(dim ** 2, dim ** 2)
    parts = (herm.conj() @ np.concatenate((gen0[None], gens))
             @ herm.T).real
    maps = list(parts) + [part.T for part in parts]
    span = _RealSpan()
    candidates = [(herm.conj() @ vectorize_density(rho)).real
                  for rho in seeds]
    while candidates and len(span) < dim ** 2:
        start = len(span)
        for cand in candidates:
            span.add(cand)
        candidates = [op @ vec for vec in span.basis[start:] for op in maps]
    q = np.array(span.basis).T
    parts = q.T @ parts @ q
    return parts[0], parts[1:], herm.T @ q


def propagate_density(liouvillian: Liouvillian,
                      controls: Sequence[ControlField], grid: TimeGrid,
                      rho0: QuantumState,
                      direction: str = "forward") -> Trajectory:
    """Propagate a density matrix under the full GKLS generator.

    The generator is exponentiated per step as a real ``d x d`` matrix on
    the smallest subspace of the coherence vector that holds ``rho0`` and
    is invariant under the generator parts and their transposes
    (:func:`reduced_gkls_parts`; ``d <= N^2``, a Taylor series with
    scaling and squaring, since the generator is not a normal matrix).
    States become matrices again only for the returned trajectory.
    Forward propagation preserves trace and positivity to round-off; the
    backward direction propagates co-states with the adjoints of the
    forward steps (Heisenberg picture), which in the real basis are their
    transposes.
    """
    if not rho0.is_density:
        raise ValueError("propagate_density needs a density initial state")
    h = liouvillian.hamiltonian
    if rho0.dim != h.dim:
        raise DimensionMismatchError(f"state dim {rho0.dim} != {h.dim}")
    amps = _sample_matrix(controls, grid, h.n_controls)
    gen0, gens, basis = reduced_gkls_parts(liouvillian, [rho0.rho])
    coords = (vectorize_density(rho0.rho) @ basis.conj()).real
    out = _kernels.propagate_pwc_dm(gen0, gens, amps, grid.dt, coords,
                                    _direction_sign(direction))
    dim = h.dim
    return Trajectory(grid, "density", (out @ basis.T).reshape(-1, dim, dim))


def propagate_operator_sequence(hams, grid: TimeGrid, psi0: QuantumState,
                                direction: str = "forward") -> Trajectory:
    """Propagate a ket under a given midpoint-sampled Hamiltonian.

    ``hams`` is array-like ``(nt-1, N, N)``, one Hermitian matrix per
    midpoint, as :func:`step_hamiltonians`,
    :func:`qoctl.frames.rotating_frame` and
    :func:`qoctl.adiabatic.counterdiabatic_generic` return it.  Its steps
    come from the kernel :func:`propagate_ket` builds its own with, so on
    ``step_hamiltonians(h, controls, grid)`` the two agree bitwise; a real
    ``hams`` steps in real arithmetic, as a real model does there.
    """
    if not psi0.is_ket:
        raise ValueError("propagate_operator_sequence needs a ket")
    sign = _direction_sign(direction)
    hams = np.asarray(hams)
    if hams.shape[0] != grid.nt - 1:
        raise ValueError(f"need {grid.nt - 1} matrices, got {hams.shape[0]}")
    steps = _kernels.step_stack_ket(hams, grid.dt)
    return Trajectory(grid, "ket",
                      _kernels.propagate_steps(steps, psi0.ket, sign))


def _direction_sign(direction: str) -> int:
    if direction == "forward":
        return 1
    if direction == "backward":
        return -1
    raise ValueError(f"direction must be 'forward' or 'backward', "
                     f"got {direction!r}")


def expectation(op: Operator, state: QuantumState):
    """``<psi|A|psi>`` or ``tr(A rho)``; real when ``op`` is Hermitian."""
    if op.dim != state.dim:
        raise DimensionMismatchError(
            f"operator dim {op.dim} != state dim {state.dim}")
    if state.is_ket:
        val = complex(np.vdot(state.ket, op.matrix @ state.ket))
    else:
        val = complex(np.trace(op.matrix @ state.rho))
    return val.real if op.hermitian else val


def bloch_precession(omega: Callable[[float], Sequence[float]],
                     r0: Sequence[float], grid: TimeGrid) -> np.ndarray:
    """Integrate ``dr/dt = r x Omega(t)`` with midpoint stepping.

    Each step is an exact rotation about ``Omega`` evaluated at the midpoint,
    so ``|r|`` is conserved to round-off.  Returns an ``(nt, 3)`` array.
    """
    out = np.empty((grid.nt, 3))
    out[0] = np.asarray(r0, dtype=float)
    dt = grid.dt
    for k, t in enumerate(grid.midpoints):
        axis = -np.asarray(omega(t), dtype=float)  # r x O = (-O) x r
        out[k + 1] = _rotate(out[k], axis, dt)
    return out


def _rotate(r: np.ndarray, axis: np.ndarray, dt: float) -> np.ndarray:
    speed = np.linalg.norm(axis)
    if speed == 0.0:
        return r.copy()
    n = axis / speed
    angle = speed * dt
    return (r * np.cos(angle) + np.cross(n, r) * np.sin(angle)
            + n * np.dot(n, r) * (1.0 - np.cos(angle)))
