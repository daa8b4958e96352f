"""Optimization costs and figures of merit.

Two-qubit gate geometry follows the magic-basis construction: local
invariants ``(g1, g2, g3)`` from ``m = B^T B`` with ``B`` the magic-basis
representation, and Weyl chamber coordinates ``(c1, c2, c3)`` in radians
(``c1`` in ``[0, pi]``) with the canonical gate
``exp(i/2 (c1 XX + c2 YY + c3 ZZ))`` -- the convention in which the
identity sits at ``O = (0, 0, 0)`` and CNOT at ``L = (pi/2, 0, 0)``.

The perfect-entangler polyhedron is the convex hull of the points
``L, Q, M, N, P, A2``; membership uses the halfspace form
``c1 + c2 >= pi/2``, ``c1 - c2 <= pi/2``, ``c2 + c3 <= pi/2`` (valid for
canonical coordinates), and the distance is the exact Euclidean distance
to the hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

import numpy as np

from .core import (DimensionMismatchError, Operator, QuantumState,
                   bloch_vector)

UNITARITY_ATOL = 1e-10

_MAGIC = np.array([[1, 0, 0, 1j],
                   [0, 1j, 1, 0],
                   [0, 1j, -1, 0],
                   [1, 0, 0, -1j]], dtype=complex) / np.sqrt(2.0)

_SXSX = np.fliplr(np.eye(4)).astype(complex)
_SYSY = np.array([[0, 0, 0, -1],
                  [0, 0, 1, 0],
                  [0, 1, 0, 0],
                  [-1, 0, 0, 0]], dtype=complex)
_SZSZ = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)

# Perfect-entangler polyhedron vertices, in units of pi
_PE_VERTICES = np.array([
    [0.50, 0.00, 0.00],   # L (CNOT class)
    [0.25, 0.25, 0.00],   # Q
    [0.75, 0.25, 0.00],   # M
    [0.75, 0.25, 0.25],   # N
    [0.25, 0.25, 0.25],   # P
    [0.50, 0.50, 0.00],   # A2 (iSWAP class)
])


class NonUnitaryError(ValueError):
    """The argument must be unitary for this functional."""


def _require_unitary(u: Operator, atol: float = UNITARITY_ATOL) -> np.ndarray:
    m = u.matrix
    dev = np.max(np.abs(m.conj().T @ m - np.eye(u.dim)))
    if dev > atol:
        raise NonUnitaryError(f"matrix deviates from unitarity by {dev:.2e}")
    return m


@dataclass(frozen=True)
class CostSpec:
    """Final-time cost of an optimization: ``kind`` and its ``target``.

    ``"state_to_state"`` takes one target state per initial state (a single
    state for one); ``"gate"`` takes the gate, whose action on the initial
    states gives their targets.  Both are normalized so that the realized
    cost lies in [0, 1] and vanishes exactly at the optimum, and every
    optimizer in :mod:`qoctl.optimize` accepts both.
    """

    kind: str
    target: object = None

    _KINDS = ("state_to_state", "gate")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown cost kind {self.kind!r}; "
                             f"known: {self._KINDS}")


def j_state_to_state(final_state: QuantumState,
                     target: QuantumState) -> float:
    """Overlap figure of merit ``|<target|final>|^2`` (1 at the optimum)."""
    if not (final_state.is_ket and target.is_ket):
        raise ValueError("j_state_to_state compares kets")
    if final_state.dim != target.dim:
        raise DimensionMismatchError(
            f"dims {final_state.dim} vs {target.dim}")
    return float(abs(np.vdot(target.ket, final_state.ket)) ** 2)


def j_gate(realized: Operator, gate: Operator,
           logical_indices: Optional[list] = None,
           phase_insensitive: bool = False) -> float:
    """Projected gate cost ``1 - Re tr(O^dag P U P) / N`` (0 at optimum).

    ``realized`` acts on the full space; ``gate`` on the ``N``-dimensional
    logical subspace spanned by ``logical_indices`` (default: the first
    ``N`` basis states).  The real-trace form penalizes global phase; the
    ``phase_insensitive`` flag switches to ``1 - |tr|^2 / N^2``.
    """
    _require_unitary(gate)
    n = gate.dim
    idx = list(range(n)) if logical_indices is None else list(logical_indices)
    if len(idx) != n:
        raise ValueError(f"need {n} logical indices, got {len(idx)}")
    sub = realized.matrix[np.ix_(idx, idx)]
    tr = np.trace(gate.matrix.conj().T @ sub)
    if phase_insensitive:
        return float(1.0 - (abs(tr) / n) ** 2)
    return float(1.0 - tr.real / n)


def to_magic_basis(u: np.ndarray) -> np.ndarray:
    return _MAGIC.conj().T @ u @ _MAGIC


def local_invariants(u: Operator) -> np.ndarray:
    """Local invariants ``(g1, g2, g3)`` of a two-qubit gate.

    Computed in the magic basis from ``m = B^T B``:
    ``g1 + i g2 = tr(m)^2 / (16 det U)`` and
    ``g3 = (tr(m)^2 - tr(m^2)) / (4 det U)``.  Invariant under single-qubit
    operations before and after the gate.
    """
    if u.dim != 4:
        raise DimensionMismatchError("local invariants need a 4x4 unitary")
    m_can = _require_unitary(u)
    b = to_magic_basis(m_can)
    det = np.linalg.det(b)
    m = b.T @ b
    tr_m = np.trace(m)
    g12 = tr_m ** 2 / (16.0 * det)
    g3 = (tr_m ** 2 - np.trace(m @ m)) / (4.0 * det)
    return np.array([g12.real, g12.imag, g3.real])


@dataclass(frozen=True)
class WeylCoordinates:
    """Canonical Weyl chamber coordinates, radians, ``c1`` in ``[0, pi]``."""

    c1: float
    c2: float
    c3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.c1, self.c2, self.c3])

    @property
    def in_perfect_entangler(self) -> bool:
        p1, p2, p3 = self.as_array() / np.pi
        tol = 1e-12
        return (p1 + p2 >= 0.5 - tol and p1 - p2 <= 0.5 + tol
                and p2 + p3 <= 0.5 + tol)


def weyl_coordinates(u: Operator, ndigits: int = 10) -> WeylCoordinates:
    """Canonical Weyl chamber coordinates of a two-qubit gate.

    Spectral algorithm: the eigenphases of ``U (SySy U^T SySy) / sqrt(det)``
    determine the class; the representative is folded into the canonical
    chamber, so locally equivalent gates map to identical coordinates.
    Rounded to ``ndigits`` before the fold, so that boundary gates land
    exactly on the boundary and fold by their rounded ``c3``.
    """
    if u.dim != 4:
        raise DimensionMismatchError("Weyl coordinates need a 4x4 unitary")
    m_can = _require_unitary(u)
    u_tilde = _SYSY @ m_can.T @ _SYSY
    det_root = np.sqrt(complex(np.linalg.det(m_can)))
    ev = np.linalg.eigvals(m_can @ u_tilde / det_root)
    two_s = np.angle(ev) / np.pi
    two_s[two_s <= -0.5] += 2.0
    s = np.sort(two_s / 2.0)[::-1]
    n = int(round(float(np.sum(s))))
    s -= np.concatenate([np.ones(n), np.zeros(4 - n)])
    s = np.roll(s, -n)
    mat = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    c1, c2, c3 = np.round(mat @ s[:3], ndigits)
    if c3 < 0 or (c3 == 0 and c1 > 0.5):
        c1, c3 = 1.0 - c1, -c3
    # rounded again so both sides of a fold agree; + 0.0 turns -0.0 into 0.0
    coords = (np.round([c1, c2, c3], ndigits) + 0.0) * np.pi
    return WeylCoordinates(*map(float, coords))


def canonical_gate(c1: float, c2: float, c3: float) -> Operator:
    """Representative ``exp(i/2 (c1 XX + c2 YY + c3 ZZ))``, radians."""
    gen = 0.5 * (c1 * _SXSX + c2 * _SYSY + c3 * _SZSZ)
    w, v = np.linalg.eigh(gen)
    return Operator((v * np.exp(1j * w)) @ v.conj().T)


def pe_distance(coords: WeylCoordinates) -> float:
    """Euclidean distance (radians) to the perfect-entangler polyhedron.

    Zero inside; outside, the exact distance to the convex hull of the
    polyhedron's vertices (minimum over projections onto all vertex
    simplices of the boundary).
    """
    if coords.in_perfect_entangler:
        return 0.0
    p = coords.as_array() / np.pi
    best = np.inf
    for size in (1, 2, 3):
        for subset in combinations(range(len(_PE_VERTICES)), size):
            d = _distance_to_simplex(p, _PE_VERTICES[list(subset)])
            if d < best:
                best = d
    return float(best * np.pi)


def _distance_to_simplex(p: np.ndarray, verts: np.ndarray) -> float:
    """Distance from ``p`` to the simplex spanned by ``verts`` (rows)."""
    base = verts[0]
    if len(verts) == 1:
        return float(np.linalg.norm(p - base))
    a = (verts[1:] - base).T            # (3, k)
    gram = a.T @ a
    try:
        lam = np.linalg.solve(gram, a.T @ (p - base))
    except np.linalg.LinAlgError:
        return np.inf
    if np.any(lam < -1e-12) or np.sum(lam) > 1.0 + 1e-12:
        return np.inf  # projection lands outside; a smaller face covers it
    proj = base + a @ lam
    return float(np.linalg.norm(p - proj))


# Verification states and the three-state gate fidelity ---------------------

@dataclass(frozen=True)
class VerificationSet:
    """The three gate-verification input states.

    ``rho_b`` fixes the basis (distinct spectrum), ``rho_p`` the
    eigenphases (a mutually unbiased projector) and ``rho_id`` quantifies
    non-unitality.
    """

    rho_b: QuantumState
    rho_p: QuantumState
    rho_id: QuantumState
    spectrum: np.ndarray

    @property
    def dim(self) -> int:
        return self.rho_b.dim


def verification_states(n: int) -> VerificationSet:
    """Construct the three verification states for logical dimension n.

    ``rho_B = sum_i lambda_i |i><i|`` with the decreasing spectrum
    ``lambda_i = 2(n + 1 - i) / (n (n + 1))`` (i = 1..n, pairwise gaps
    ``2/(n(n+1)) >= 1/(2 n^2)``), ``rho_P`` the uniform-superposition
    projector (one element of a mutually unbiased basis), and
    ``rho_id = 1/n``.
    """
    if n < 2:
        raise ValueError("need logical dimension >= 2")
    lam = 2.0 * (n + 1 - np.arange(1, n + 1)) / (n * (n + 1))
    rho_b = QuantumState.from_density(np.diag(lam).astype(complex))
    plus = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    rho_p = QuantumState.from_density(np.outer(plus, plus.conj()))
    rho_id = QuantumState.from_density(np.eye(n) / n)
    return VerificationSet(rho_b, rho_p, rho_id, lam)


@dataclass(frozen=True)
class ThreeStateReport:
    """Combined three-state fidelity with its per-state diagnostics."""

    combined: float
    unitary_part: float        # |tr(O^dag V_rec)|^2 / N^2
    consistency: dict          # channel-vs-reconstruction, per state
    per_state: dict            # raw channel-output vs gate-output overlaps


def three_state_gate_fidelity(channel: Callable[[QuantumState],
                                                QuantumState],
                              gate: Operator,
                              states: VerificationSet) -> float:
    """Gate fidelity of a channel from the three verification states.

    The unitary part is reconstructed from the propagated ``rho_B``
    (eigenbasis) and ``rho_P`` (eigenphases); the combined figure of merit
    multiplies its phase-insensitive overlap with the gate by the
    equal-weight aggregate of three consistency factors that all equal one
    exactly when the channel is conjugation by a unitary.  For unitary
    channels the result therefore coincides with the full-basis process
    fidelity ``|tr(O^dag V)|^2 / N^2``; it equals 1 iff the channel acts
    as the gate (up to global phase).
    """
    return three_state_report(channel, gate, states).combined


def three_state_report(channel, gate: Operator,
                       states: VerificationSet) -> ThreeStateReport:
    n = states.dim
    _require_unitary(gate)
    sig_b = channel(states.rho_b).rho
    sig_p = channel(states.rho_p).rho
    sig_id = channel(states.rho_id).rho
    v_rec = _reconstruct_unitary(sig_b, sig_p, states.spectrum)
    unitary_part = float(abs(np.trace(gate.matrix.conj().T @ v_rec) / n) ** 2)
    consistency = {
        "basis": _state_cosine(sig_b, v_rec @ states.rho_b.rho
                               @ v_rec.conj().T),
        "phases": _state_cosine(sig_p, v_rec @ states.rho_p.rho
                                @ v_rec.conj().T),
        "unitality": 1.0 - float(np.trace(
            (sig_id - np.eye(n) / n) @ (sig_id - np.eye(n) / n)).real)
        / (1.0 - 1.0 / n),
    }
    per_state = {
        "basis": _state_cosine(sig_b, gate.matrix @ states.rho_b.rho
                               @ gate.matrix.conj().T),
        "phases": _state_cosine(sig_p, gate.matrix @ states.rho_p.rho
                                @ gate.matrix.conj().T),
        "unitality": consistency["unitality"],
    }
    aggregate = (consistency["basis"] + consistency["phases"]
                 + consistency["unitality"]) / 3.0
    return ThreeStateReport(combined=float(unitary_part * aggregate),
                            unitary_part=unitary_part,
                            consistency=consistency, per_state=per_state)


def _reconstruct_unitary(sig_b: np.ndarray, sig_p: np.ndarray,
                         spectrum: np.ndarray) -> np.ndarray:
    n = sig_b.shape[0]
    w, vecs = np.linalg.eigh(sig_b)
    order = np.argsort(w)[::-1]  # match the decreasing input spectrum
    vecs = vecs[:, order]
    z = vecs[:, 0].conj() @ sig_p @ vecs
    phases = np.where(np.abs(z) > 1e-300, z / np.abs(np.where(
        np.abs(z) > 1e-300, z, 1.0)), 1.0)
    return vecs * phases.conj()[None, :]


def _state_cosine(a: np.ndarray, b: np.ndarray) -> float:
    num = np.trace(a.conj().T @ b).real
    den = np.sqrt(np.trace(a.conj().T @ a).real
                  * np.trace(b.conj().T @ b).real)
    return float(num / den) if den > 0 else 0.0


# Mixed-target matching ------------------------------------------------------

def bloch_match_cost(rho: QuantumState, target: QuantumState,
                     w_angle: float = 0.5, w_length: float = 0.5) -> float:
    """Angle-and-length mismatch of Bloch vectors, in [0, 1].

    ``w_a (1 - cos th)/2 + w_l (|r| - |r_t|)^2 / (1 - 1/N)``; zero iff the
    states coincide.  Unlike the Hilbert-Schmidt overlap this does not
    reward states purer than a mixed target.  For a maximally mixed target
    the angle is undefined and the cost degrades to length-only (full
    weight on the length term).
    """
    if not (rho.is_density and target.is_density):
        raise ValueError("bloch_match_cost compares density matrices")
    if rho.dim != target.dim:
        raise DimensionMismatchError(f"dims {rho.dim} vs {target.dim}")
    r = bloch_vector(rho).components
    rt = bloch_vector(target).components
    len_r, len_t = np.linalg.norm(r), np.linalg.norm(rt)
    max_sq = 1.0 - 1.0 / rho.dim
    length_term = (len_r - len_t) ** 2 / max_sq
    if len_t < 1e-12:
        return float(length_term)
    if len_r < 1e-12:
        cos_th = 0.0
    else:
        cos_th = float(np.clip(r @ rt / (len_r * len_t), -1.0, 1.0))
    return float(w_angle * (1.0 - cos_th) / 2.0 + w_length * length_term)


# Perturbative interference formulas ----------------------------------------

def bichromatic_population(omega11: float, omega22: float, c1: complex,
                           c2: complex, phi: float) -> float:
    """Final-state population of the two-pathway interference formula.

    ``pi^2 (O11^2 |c1|^2 + O22^2 |c2|^2
    + 2 Re(O11 O22 c1* c2 e^{-i phi}))``: sinusoidal in the relative laser
    phase, with visibility ``2 O11 O22 |c1||c2| /
    (O11^2 |c1|^2 + O22^2 |c2|^2)``.
    """
    direct = omega11 ** 2 * abs(c1) ** 2 + omega22 ** 2 * abs(c2) ** 2
    cross = 2.0 * (omega11 * omega22 * np.conj(c1) * c2
                   * np.exp(-1j * phi)).real
    return float(np.pi ** 2 * (direct + cross))


def bichromatic_visibility(omega11: float, omega22: float, c1: complex,
                           c2: complex) -> float:
    direct = omega11 ** 2 * abs(c1) ** 2 + omega22 ** 2 * abs(c2) ** 2
    if direct == 0:
        return 0.0
    return float(2.0 * abs(omega11 * omega22 * c1 * c2) / direct)


def quantum_beats(d_fa: float, d_fb: float, e_a: float, e_b: float, t):
    """Probe population of an equal superposition: beats at ``E_b - E_a``.

    ``|d_fa|^2/2 + |d_fb|^2/2 + |d_fa||d_fb| cos((E_b - E_a) t)``;
    vectorized over ``t``.
    """
    t = np.asarray(t, dtype=float)
    base = 0.5 * abs(d_fa) ** 2 + 0.5 * abs(d_fb) ** 2
    return base + abs(d_fa) * abs(d_fb) * np.cos((e_b - e_a) * t)
