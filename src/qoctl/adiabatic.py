"""Instantaneous eigensystem tracking and counterdiabatic drive synthesis.

The dressed frame orders the per-step eigensystem by continuity, matching
each step's eigenvectors to the previous step's greedily by largest
overlap (the maximal-overlap assignment at every step it does not flag,
and at every step for two levels), and fixes the gauge by making
successive overlaps real and positive; with that gauge the generic
counterdiabatic construction reduces to the closed-form
``(theta_dot / 2) sigma_y`` for a real two-level Hamiltonian.

Angle convention: ``tan(theta) = Omega0 / Delta_L`` with
``theta = arctan2(Omega0, Delta_L)`` continuous through the crossing, so
``theta_dot = (Delta_L dOmega0 - Omega0 dDelta_L) / (Omega0^2 + Delta_L^2)``.
The counterdiabatic term is invariant under an overall sign flip of the
Hamiltonian, so the same formulas serve both ``+-(Delta sz + Omega sx)/2``
sign conventions.

Eigensystems come from one batched ``eigh`` of
:func:`qoctl.dynamics.step_hamiltonians`, which rejects a field on another
grid, and time derivatives from :func:`qoctl.dynamics.midpoint_derivative`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import core
from .core import ControlledHamiltonian, Operator
from .dynamics import (ControlField, TimeGrid, Trajectory,
                       midpoint_derivative, step_hamiltonians, write_csv)
from .frames import ThreeLevelDriveSpec, rwa_three_level

CONTINUITY_MIN_OVERLAP = 0.9


class DegenerateCrossingError(ValueError):
    """Continuity tracking was ambiguous at the reported step indices."""

    def __init__(self, steps):
        super().__init__(f"degenerate or discontinuous eigensystem at "
                         f"steps {list(steps)}")
        self.steps = tuple(steps)


class DetuningConditionError(ValueError):
    """No zero eigenvalue: the dark-state detuning condition is violated."""


@dataclass(frozen=True)
class DressedFrame:
    """Continuity-ordered instantaneous eigensystem on the midpoint grid."""

    grid: TimeGrid
    energies: np.ndarray      # (nt-1, N), ordered by continuity
    vectors: np.ndarray       # (nt-1, N, N), eigenvectors as columns
    flagged_steps: tuple      # indices where tracking was ambiguous

    @property
    def dim(self) -> int:
        return self.energies.shape[1]

    def gaps(self) -> np.ndarray:
        """(nt-1,) smallest gap between adjacent ordered energies;
        infinite for one level."""
        sorted_e = np.sort(self.energies, axis=1)
        return np.min(np.diff(sorted_e, axis=1), axis=1, initial=np.inf)


def _max_overlap_assignment(overlap: np.ndarray) -> np.ndarray:
    """Column matched to each row of a square matrix, largest entry first.

    Greedy: the entries are taken in decreasing order (ties to the lower
    row, then the lower column) and each row gets the first column still
    free, so a constant matrix is matched in order.  For the overlap
    matrix ``|V^dag W|`` of two orthonormal bases this is the maximal-sum
    assignment whenever every matched entry is at least 0.9: such entries
    (``2 * 0.9^2 > 1``) are the unique maxima of their rows and columns.
    For two levels it is the maximal-sum assignment always, because
    ``|V^dag W|`` then has equal diagonal and equal off-diagonal entries.
    """
    n = len(overlap)
    col4row, free = [-1] * n, set(range(n))
    for flat in np.argsort(-overlap, axis=None, kind="stable").tolist():
        row, col = divmod(flat, n)
        if col4row[row] < 0 and col in free:
            col4row[row] = col
            free.discard(col)
            if not free:
                break
    return np.array(col4row)


def dressed_frame(h: ControlledHamiltonian,
                  controls: Sequence[ControlField],
                  grid: TimeGrid) -> DressedFrame:
    """Per-midpoint eigendecomposition with continuity ordering.

    The first step is ordered by ascending eigenvalue; each later step's
    eigenvectors are matched to the previous step's by the greedy rule of
    :func:`_max_overlap_assignment` (largest overlap first), and each
    eigenvector's phase is fixed so that ``<phi_n(t_k)|phi_n(t_k+1)>`` is
    real positive.  Steps where the assignment is ambiguous (tiny gap or a
    matched overlap below 0.9) are flagged, not silently accepted.  At every
    unflagged step the greedy match is the maximal-overlap assignment; only
    at a flagged step with three or more mutually ambiguous levels may it
    differ, and later steps' labels with it.
    """
    energies, vectors = np.linalg.eigh(step_hamiltonians(h, controls, grid))
    n_steps, dim = energies.shape
    # deterministic gauge at the first step: largest component real positive
    lead = vectors[0][np.argmax(np.abs(vectors[0]), axis=0), np.arange(dim)]
    vectors[0] /= lead / np.abs(lead)
    flagged = []
    for k in range(1, n_steps):
        overlap = np.abs(vectors[k - 1].conj().T @ vectors[k])
        perm = _max_overlap_assignment(overlap)
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
    return DressedFrame(grid, energies, vectors, tuple(flagged))


@dataclass(frozen=True)
class MixingAngles:
    """Two-level mixing angle ``theta`` and its rate ``theta_dot``."""

    theta: ControlField
    theta_dot: np.ndarray


def mixing_angles(rabi: ControlField, detuning: ControlField,
                  rabi_dot: Optional[np.ndarray] = None,
                  detuning_dot: Optional[np.ndarray] = None) -> MixingAngles:
    """Mixing angle of ``-+ (Delta sz + Omega sx)/2`` per midpoint.

    ``theta_dot`` comes from the analytic rate
    ``(Delta dOmega - Omega dDelta) / (Omega^2 + Delta^2)`` when the control
    derivatives are supplied, else from central differences (one-sided at
    the ends) of the sampled controls.
    """
    if rabi.grid != detuning.grid:
        raise ValueError("rabi and detuning must share a grid")
    omega = rabi.samples
    delta = detuning.samples
    dt = rabi.grid.dt
    if rabi_dot is None:
        rabi_dot = midpoint_derivative(omega, dt)
    if detuning_dot is None:
        detuning_dot = midpoint_derivative(delta, dt)
    omega_sq = omega ** 2 + delta ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        theta_dot = np.where(omega_sq > 0,
                             (delta * rabi_dot - omega * detuning_dot)
                             / np.where(omega_sq > 0, omega_sq, 1.0),
                             0.0)
    theta = ControlField(rabi.grid, np.arctan2(omega, delta))
    return MixingAngles(theta, theta_dot)


def adiabaticity_margin(frame: DressedFrame,
                        angles: MixingAngles) -> ControlField:
    """Per-midpoint ratio ``|theta_dot| / (2 |E+ - E-|)``; << 1 when
    adiabatic.  A closed gap reports infinity rather than raising."""
    if frame.dim != 2:
        raise ValueError("adiabaticity margin is defined for two levels")
    gap = np.abs(frame.energies[:, 1] - frame.energies[:, 0])
    ratio = np.where(gap > 0,
                     0.5 * np.abs(angles.theta_dot)
                     / np.where(gap > 0, gap, 1.0),
                     np.inf)
    return ControlField(frame.grid, ratio)


def counterdiabatic_tls(rabi: ControlField, detuning: ControlField,
                        rabi_dot: Optional[np.ndarray] = None,
                        detuning_dot: Optional[np.ndarray] = None
                        ) -> ControlField:
    """Closed-form counterdiabatic coefficient of ``sigma_y``.

    Adding ``u_cd(t) sigma_y`` with ``u_cd = theta_dot / 2`` to the
    two-level RWA Hamiltonian cancels non-adiabatic transitions exactly;
    for a linear sweep at constant coupling the profile is a Lorentzian.
    """
    angles = mixing_angles(rabi, detuning, rabi_dot, detuning_dot)
    return ControlField(rabi.grid, 0.5 * angles.theta_dot)


def counterdiabatic_generic(frame: DressedFrame) -> np.ndarray:
    """Counterdiabatic drive ``i (dV/dt) V^dag`` at every midpoint, as one
    ``(nt-1, N, N)`` array that
    :func:`qoctl.dynamics.propagate_operator_sequence` propagates.

    ``V`` is the continuity-gauged eigenvector frame; the derivative is a
    central finite difference (one-sided at the ends) and the result is
    symmetrized, which discards only the anti-Hermitian discretization
    residue.  Flagged degenerate steps propagate as errors.
    """
    if frame.flagged_steps:
        raise DegenerateCrossingError(frame.flagged_steps)
    v = frame.vectors
    if v.shape[0] < 2:
        raise ValueError("need at least two midpoint frames")
    hcd = 1j * midpoint_derivative(v, frame.grid.dt) @ np.conj(
        np.swapaxes(v, 1, 2))
    return 0.5 * (hcd + np.conj(np.swapaxes(hcd, 1, 2)))


def stirap_dark_state(spec: ThreeLevelDriveSpec) -> Trajectory:
    """Zero-eigenvalue dark state of the resonant three-level system.

    Requires one- and two-photon resonance; each midpoint's Hamiltonian
    must have an eigenvalue within ``1e-10`` of zero (else
    :class:`DetuningConditionError`), and the corresponding eigenstate is
    checked to have no projection on the lossy intermediate level.
    Returned as a ket trajectory on the midpoint grid.
    """
    if abs(spec.detuning_1) > 1e-12 or abs(spec.detuning_2p) > 1e-12:
        raise DetuningConditionError(
            f"need one- and two-photon resonance, got Delta_1="
            f"{spec.detuning_1}, Delta_2P={spec.detuning_2p}")
    h, fields = rwa_three_level(spec)
    grid = spec.grid
    hams = step_hamiltonians(h, fields, grid)
    all_w, all_v = np.linalg.eigh(hams)
    scales = np.maximum(1.0, np.abs(hams).max(axis=(1, 2)))
    darks = np.empty((grid.nt - 1, 3), dtype=complex)
    prev = None
    for k, (w, v) in enumerate(zip(all_w, all_v)):
        idx = int(np.argmin(np.abs(w)))
        if abs(w[idx]) > 1e-10 * scales[k]:
            raise DetuningConditionError(
                f"no zero eigenvalue at step {k}: closest is {w[idx]}")
        dark = v[:, idx]
        if abs(dark[1]) > 1e-10:
            raise DetuningConditionError(
                f"dark state at step {k} has intermediate-level "
                f"projection {abs(dark[1])}")
        if prev is None:
            lead = np.argmax(np.abs(dark))
            dark = dark * (abs(dark[lead]) / dark[lead])
        else:
            inner = np.vdot(prev, dark)
            if abs(inner) > 0:
                dark = dark * (inner.conjugate() / abs(inner))
        darks[k] = dark
        prev = dark
    mid_grid = TimeGrid(grid.t0 + grid.dt / 2, grid.tf - grid.dt / 2,
                        grid.nt - 1)
    return Trajectory(mid_grid, "ket", darks)


def dressed_csv(frame: DressedFrame, trajectory: Trajectory, path):
    """Dressed energies and populations in the trajectory CSV schema.

    One row per midpoint: time, the ordered dressed energies, then the
    populations ``|<phi_n|psi>|^2`` of the grid state at the left edge of
    each step (a half-step offset, adequate for plotting).  The trajectory
    must lie on the frame's grid.
    """
    if trajectory.grid != frame.grid:
        raise ValueError(f"trajectory grid {trajectory.grid} differs from "
                         f"the dressed frame's grid {frame.grid}")
    pops = np.abs(np.einsum("kin,ki->kn", frame.vectors.conj(),
                            trajectory.array[:-1])) ** 2
    dim = frame.dim
    write_csv(path, ["time"] + [f"energy_{n}" for n in range(dim)]
              + [f"pop_{n}" for n in range(dim)],
              np.column_stack([frame.grid.midpoints, frame.energies, pops]))


def landau_zener(grid: TimeGrid, gap: float, rate: float):
    """Linear-sweep avoided-crossing problem ``H = (rate*t sz + gap sx)/2``.

    Returns ``(ControlledHamiltonian, fields)`` on the given grid; the
    asymptotic diabatic transition probability is
    ``exp(-pi gap^2 / (2 rate))``.
    """
    h = ControlledHamiltonian(Operator(np.zeros((2, 2))),
                              [(core.sigma_z(), 0), (core.sigma_x(), 1)])
    fields = [ControlField(grid, 0.5 * rate * grid.midpoints),
              ControlField.constant(grid, 0.5 * gap)]
    return h, fields
