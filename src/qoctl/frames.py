"""Rotating frames, rotating-wave approximations and chirped fields.

Basis convention: index 0 is the ground state, so the driven-qubit drift is
``-(omega0/2) sigma_z`` and the lab-frame interaction is
``-Omega0 S(t) cos(omega_L t + phi(t)) sigma_x``.  With these signs the
frame rotating at the carrier yields the static-detuning form
``-1/2 (Delta_L sigma_z + Omega0 S(t) sigma_x)`` with
``Delta_L = omega0 - omega_L``.

The RWA is never enforced: every constructor reports the validity ratio
``omega0 / Omega0`` and leaves deliberate RWA-breakdown studies to the
caller.

:func:`rotating_frame` rotates :func:`qoctl.dynamics.step_hamiltonians`,
which rejects a field on another grid; the instantaneous frame's phase
derivative is :func:`qoctl.dynamics.midpoint_derivative`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import core
from .core import ControlledHamiltonian, Operator
from .dynamics import (ControlField, TimeGrid, midpoint_derivative,
                       step_hamiltonians)

FRAME_CHOICES = ("lab", "drift", "carrier", "instantaneous")


class ChirpResolutionError(ValueError):
    """Grid too coarse for the carrier; carries the required ``nt``."""

    def __init__(self, message: str, required_nt: int):
        super().__init__(message)
        self.required_nt = required_nt


@dataclass(frozen=True)
class TwoLevelDriveSpec:
    """Driven two-level system: transition, carrier, peak Rabi, envelope."""

    omega0: float
    omegaL: float
    rabi0: float
    shape: ControlField
    phase: Optional[ControlField] = None

    def __post_init__(self):
        s = self.shape.samples
        if np.min(s) < -1e-12 or np.max(s) > 1.0 + 1e-12:
            raise ValueError("shape samples must lie in [0, 1]")
        if self.phase is not None and self.phase.grid != self.shape.grid:
            raise ValueError("phase and shape must share a grid")

    @property
    def grid(self) -> TimeGrid:
        return self.shape.grid

    @property
    def detuning(self) -> float:
        """``Delta_L = omega0 - omega_L``."""
        return self.omega0 - self.omegaL

    def phase_samples(self) -> np.ndarray:
        if self.phase is None:
            return np.zeros(self.grid.nt - 1)
        return self.phase.samples

    def lab_hamiltonian(self):
        """Full lab-frame problem: ``(ControlledHamiltonian, fields)``."""
        h = ControlledHamiltonian(-0.5 * self.omega0 * core.sigma_z(),
                                  [(core.sigma_x(), 0)])
        t = self.grid.midpoints
        samples = -self.rabi0 * self.shape.samples * np.cos(
            self.omegaL * t + self.phase_samples())
        return h, [ControlField(self.grid, samples)]


@dataclass(frozen=True)
class ThreeLevelDriveSpec:
    """Ladder-coupled three-level system driven by a two-color field."""

    energies: tuple
    rabi: tuple  # (Omega1(t), Omega2(t)) as ControlFields
    carriers: tuple  # (omega1, omega2)

    def __post_init__(self):
        if len(self.energies) != 3 or len(self.rabi) != 2 \
                or len(self.carriers) != 2:
            raise ValueError("need 3 energies, 2 Rabi fields, 2 carriers")
        if self.rabi[0].grid != self.rabi[1].grid:
            raise ValueError("both Rabi fields must share a grid")

    @property
    def grid(self) -> TimeGrid:
        return self.rabi[0].grid

    @property
    def omega21(self) -> float:
        return self.energies[1] - self.energies[0]

    @property
    def omega32(self) -> float:
        return self.energies[2] - self.energies[1]

    @property
    def detuning_1(self) -> float:
        """One-photon detuning of the first transition."""
        return self.carriers[0] - self.omega21

    @property
    def detuning_2p(self) -> float:
        """Two-photon detuning: the first one-photon detuning plus the
        second, ``omega2 - omega32``."""
        return self.detuning_1 + (self.carriers[1] - self.omega32)

    def lab_hamiltonian(self):
        """Lab-frame problem with both colors coupling both transitions.

        ``Omega_i(t) = mu_i E_i S_i(t)`` fixes each color's envelope; with
        equal dipoles each color leaks into the other transition at full
        strength (the leakage is what the two-photon RWA discards).
        Returns ``(ControlledHamiltonian, fields)``.
        """
        drift = Operator(np.diag(np.asarray(self.energies, dtype=complex)))
        c12 = Operator([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        c23 = Operator([[0, 0, 0], [0, 0, 1], [0, 1, 0]])
        h = ControlledHamiltonian(drift, [(c12, 0), (c23, 1)])
        t = self.grid.midpoints
        color1 = self.rabi[0].samples * np.cos(self.carriers[0] * t)
        color2 = self.rabi[1].samples * np.cos(self.carriers[1] * t)
        field = ControlField(self.grid, color1 + color2)
        return h, [field, field]


@dataclass(frozen=True)
class RWAResult:
    """RWA Hamiltonian, its control fields and the validity diagnostic."""

    hamiltonian: ControlledHamiltonian
    fields: list
    frame: str
    validity_ratio: float


def rwa_two_level(spec: TwoLevelDriveSpec,
                  frame: str = "carrier") -> RWAResult:
    """Rotating-wave Hamiltonian of a driven qubit in a selectable frame.

    Frames: ``carrier`` (static detuning on the diagonal), ``drift``
    (detuning oscillations on the off-diagonal), ``instantaneous``
    (detuning reduced by the phase derivative), ``lab`` (no approximation,
    for oracle comparisons).  Populations agree between all frames up to
    the RWA error; the ratio ``omega0/Omega0`` is reported, not enforced.
    """
    if frame not in FRAME_CHOICES:
        raise ValueError(f"frame must be one of {FRAME_CHOICES}")
    grid = spec.grid
    ratio = np.inf if spec.rabi0 == 0 else abs(spec.omega0 / spec.rabi0)
    if frame == "lab":
        h, fields = spec.lab_hamiltonian()
        return RWAResult(h, fields, frame, ratio)
    phi = spec.phase_samples()
    envelope = spec.rabi0 * spec.shape.samples
    if frame == "carrier":
        h = ControlledHamiltonian(
            -0.5 * spec.detuning * core.sigma_z(),
            [(core.sigma_x(), 0), (core.sigma_y(), 1)])
        fields = [ControlField(grid, -0.5 * envelope * np.cos(phi)),
                  ControlField(grid, 0.5 * envelope * np.sin(phi))]
        return RWAResult(h, fields, frame, ratio)
    if frame == "drift":
        # Off-diagonal -O0/2 S e^{-i(Delta_L t - phi)} in the (0, 1) slot.
        arg = spec.detuning * grid.midpoints - phi
        h = ControlledHamiltonian(
            Operator(np.zeros((2, 2))),
            [(core.sigma_x(), 0), (core.sigma_y(), 1)])
        fields = [ControlField(grid, -0.5 * envelope * np.cos(arg)),
                  ControlField(grid, -0.5 * envelope * np.sin(arg))]
        return RWAResult(h, fields, frame, ratio)
    # Instantaneous frame: rotate at omega_L t + phi(t); the phase
    # derivative (central differences, one-sided ends) shifts the detuning.
    phi_dot = midpoint_derivative(phi, grid.dt)
    h = ControlledHamiltonian(
        Operator(np.zeros((2, 2))),
        [(core.sigma_z(), 0), (core.sigma_x(), 1)])
    fields = [ControlField(grid, -0.5 * (spec.detuning - phi_dot)),
              ControlField(grid, -0.5 * envelope)]
    return RWAResult(h, fields, frame, ratio)


def rwa_three_level(spec: ThreeLevelDriveSpec):
    """Two-photon RWA Hamiltonian of the ladder system.

    Returns ``(ControlledHamiltonian, fields)`` with diagonal
    ``(0, Delta_1, Delta_2P)`` and real off-diagonals ``Omega_i(t)/2`` --
    the frame in which the detunings sit on the diagonal.
    """
    drift = Operator(np.diag([0.0, spec.detuning_1, spec.detuning_2p])
                     .astype(complex))
    c12 = Operator([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    c23 = Operator([[0, 0, 0], [0, 0, 1], [0, 1, 0]])
    h = ControlledHamiltonian(drift, [(c12, 0), (c23, 1)])
    fields = [0.5 * spec.rabi[0], 0.5 * spec.rabi[1]]
    return h, fields


def rotating_frame(h: ControlledHamiltonian,
                   controls: Sequence[ControlField], grid: TimeGrid,
                   theta: Callable[[float], Sequence[float]],
                   theta_dot: Optional[Callable] = None) -> np.ndarray:
    """Transform into the frame of diagonal phases ``U = diag(e^{-i th_k})``.

    Returns the ``(nt-1, N, N)`` array of ``H'(t) = U^dag H U -
    diag(theta_dot)`` at the midpoints, which
    :func:`qoctl.dynamics.propagate_operator_sequence` propagates.  The
    analytic derivative of ``theta`` is required; populations in the
    rotated frame match the original ones (checked by the
    frame-equivalence oracle in the tests).
    """
    if theta_dot is None:
        raise ValueError("rotating_frame needs the analytic derivative "
                         "theta_dot of the frame phases")
    hams = step_hamiltonians(h, controls, grid)
    th = np.array([theta(t) for t in grid.midpoints], dtype=float)
    td = np.array([theta_dot(t) for t in grid.midpoints], dtype=float)
    if th.shape != hams.shape[:2] or td.shape != hams.shape[:2]:
        raise ValueError("theta must return one phase per level")
    u = np.exp(-1j * th)
    rotated = u.conj()[:, :, None] * hams * u[:, None, :]
    rotated[:, np.arange(h.dim), np.arange(h.dim)] -= td
    return rotated


def chirped_field(e0: float, shape: ControlField, omegaL: float,
                  alpha: float) -> ControlField:
    """Lab-frame chirped drive ``E0 S(t) cos(omega_L t + alpha t^2)``.

    The instantaneous frequency is ``omega_L + 2 alpha t``; the grid must
    resolve it with at least 20 samples per period, otherwise a
    :class:`ChirpResolutionError` reports the required ``nt``.
    """
    grid = shape.grid
    t = grid.midpoints
    f_max = float(np.max(np.abs(omegaL + 2.0 * alpha * grid.times)))
    if f_max > 0:
        dt_needed = 2.0 * np.pi / f_max / 20.0
        if grid.dt > dt_needed:
            required = int(np.ceil((grid.tf - grid.t0) / dt_needed)) + 1
            raise ChirpResolutionError(
                f"grid under-resolves the chirped carrier: dt={grid.dt:.3g} "
                f"but need <= {dt_needed:.3g}; use nt >= {required}",
                required_nt=required)
    return ControlField(grid, e0 * shape.samples
                        * np.cos(omegaL * t + alpha * t * t))
