"""Complex linear algebra substrate: operators, states and Bloch vectors.

Everything downstream (propagation, optimization, controllability) is built
on the three value types defined here.  All types are immutable after
construction and all operations are pure functions, so instances can be
shared freely across threads.

Conventions
-----------
* Matrices are dense, row-major, ``complex128``.  Target dimensions are desk
  scale (a few tens); no sparse formats.
* The traceless Hermitian operator basis used for Bloch vectors is the
  generalized Gell-Mann basis, orthonormalized to ``tr(A_i A_j) = delta_ij``.
  With this normalization a density matrix decomposes as
  ``rho = 1/N + sum_k r_k A_k`` with ``r_k = tr(rho A_k)``, and the
  Hilbert-Schmidt overlap of two states is ``1/N + r_a . r_b``.  A pure
  state has ``|r| = sqrt(1 - 1/N)`` (``1/sqrt(2)`` for a qubit).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

HERMITICITY_ATOL = 1e-12
NORM_ATOL = 1e-10
TRACE_ATOL = 1e-10
POSITIVITY_FLOOR = -1e-10


class DimensionMismatchError(ValueError):
    """Operands live on Hilbert spaces of different dimension."""


class StateVariantError(TypeError):
    """A ket was passed where a density matrix is required (or vice versa)."""


def _as_square_complex(matrix) -> np.ndarray:
    m = np.array(matrix, dtype=complex, copy=True)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    m.setflags(write=False)
    return m


class Operator:
    """Immutable dense complex square matrix with Hermiticity metadata.

    Parameters
    ----------
    matrix : array_like
        Square complex matrix; it is copied and frozen.
    """

    __slots__ = ("_matrix", "_hermitian")

    def __init__(self, matrix):
        self._matrix = _as_square_complex(matrix)
        dev = np.max(np.abs(self._matrix - self._matrix.conj().T))
        self._hermitian = bool(dev <= HERMITICITY_ATOL)

    @property
    def matrix(self) -> np.ndarray:
        """Read-only view of the underlying matrix."""
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def hermitian(self) -> bool:
        """Cached result of the entrywise ``|A - A^dag| <= 1e-12`` check."""
        return self._hermitian

    def __add__(self, other: "Operator") -> "Operator":
        _check_same_dim(self, other)
        return Operator(self._matrix + other._matrix)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self._matrix * scalar)

    __rmul__ = __mul__

    def isclose(self, other: "Operator", atol: float = 1e-12) -> bool:
        return self.dim == other.dim and bool(
            np.max(np.abs(self._matrix - other._matrix)) <= atol
        )

    def __repr__(self):
        return f"Operator(dim={self.dim}, hermitian={self.hermitian})"

    def to_dict(self) -> dict:
        """Serializable form: dim plus row-major [re, im] entry pairs."""
        return {
            "dim": self.dim,
            "entries": [[[float(z.real), float(z.imag)] for z in row]
                        for row in self._matrix],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Operator":
        dim = int(data["dim"])
        entries = data["entries"]
        m = np.array([[complex(re, im) for re, im in row] for row in entries])
        if m.shape != (dim, dim):
            raise ValueError(f"entries shape {m.shape} contradicts dim={dim}")
        return cls(m)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Operator":
        return cls.from_dict(json.loads(text))


def _check_same_dim(a, b):
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")


class QuantumState:
    """Pure (ket) or mixed (density matrix) state of an N-level system."""

    __slots__ = ("_kind", "_data")

    def __init__(self, kind: str, data, check: bool = True):
        if kind not in ("ket", "density"):
            raise ValueError(f"unknown state variant {kind!r}")
        self._kind = kind
        if kind == "ket":
            vec = np.array(data, dtype=complex, copy=True).ravel()
            vec.setflags(write=False)
            self._data = vec
            if check:
                norm = np.linalg.norm(vec)
                if abs(norm - 1.0) > NORM_ATOL:
                    raise ValueError(f"ket norm {norm} deviates from 1 "
                                     f"beyond {NORM_ATOL}")
        else:
            self._data = _as_square_complex(data)
            if check:
                self._check_density()

    def _check_density(self):
        rho = self._data
        herm_dev = np.max(np.abs(rho - rho.conj().T))
        if herm_dev > HERMITICITY_ATOL:
            raise ValueError(f"density matrix not Hermitian (dev {herm_dev})")
        tr = np.trace(rho).real
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"density matrix trace {tr} deviates from 1")
        emin = float(np.linalg.eigvalsh(rho)[0])
        if emin < POSITIVITY_FLOOR:
            raise ValueError(f"density matrix has eigenvalue {emin} below "
                             f"the {POSITIVITY_FLOOR} floor")

    @classmethod
    def from_ket(cls, vec) -> "QuantumState":
        return cls("ket", vec)

    @classmethod
    def from_density(cls, rho) -> "QuantumState":
        return cls("density", rho)

    @classmethod
    def _wrap(cls, kind: str, data) -> "QuantumState":
        """Fast path for trusted internal data; skips invariant checks."""
        return cls(kind, data, check=False)

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def is_ket(self) -> bool:
        return self._kind == "ket"

    @property
    def is_density(self) -> bool:
        return self._kind == "density"

    @property
    def dim(self) -> int:
        return self._data.shape[0]

    @property
    def ket(self) -> np.ndarray:
        if self._kind != "ket":
            raise StateVariantError("state is a density matrix, not a ket")
        return self._data

    @property
    def rho(self) -> np.ndarray:
        if self._kind != "density":
            raise StateVariantError("state is a ket; call to_density() first")
        return self._data

    def to_density(self) -> "QuantumState":
        """Lift a ket to its projector; identity on density states."""
        if self._kind == "density":
            return self
        return QuantumState._wrap("density", np.outer(self._data,
                                                      self._data.conj()))

    def __repr__(self):
        return f"QuantumState(kind={self._kind!r}, dim={self.dim})"

    def to_dict(self) -> dict:
        if self._kind == "ket":
            entries = [[float(z.real), float(z.imag)] for z in self._data]
        else:
            entries = [[[float(z.real), float(z.imag)] for z in row]
                       for row in self._data]
        return {"kind": self._kind, "dim": self.dim, "entries": entries}

    @classmethod
    def from_dict(cls, data: dict) -> "QuantumState":
        kind, dim = data["kind"], int(data["dim"])
        pairs = np.array(data["entries"], dtype=float)
        shape = (dim,) if kind == "ket" else (dim, dim)
        if pairs.shape != shape + (2,):
            raise ValueError(f"entries shape {pairs.shape[:-1]} contradicts "
                             f"dim={dim}")
        # the constructor rejects a kind other than "ket" and "density"
        return cls(kind, pairs.view(complex)[..., 0])

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "QuantumState":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class BlochVector:
    """Coefficients of a state in the orthonormal Gell-Mann basis."""

    dim: int
    components: np.ndarray

    def __post_init__(self):
        comp = np.asarray(self.components, dtype=float)
        if comp.shape != (self.dim ** 2 - 1,):
            raise ValueError(f"expected {self.dim ** 2 - 1} components for "
                             f"dim {self.dim}, got shape {comp.shape}")
        comp = comp.copy()
        comp.setflags(write=False)
        object.__setattr__(self, "components", comp)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.components))


@lru_cache(maxsize=32)
def gellmann_basis(dim: int) -> tuple:
    """Orthonormal traceless Hermitian basis (generalized Gell-Mann).

    Returns a tuple of ``dim**2 - 1`` matrices ``A_k`` with
    ``tr(A_i A_j) = delta_ij``.  Ordering: symmetric pair operators, then
    antisymmetric pair operators, then the diagonal ladder.
    """
    if dim < 2:
        raise ValueError("need dim >= 2")
    mats = []
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = m[k, j] = 1.0 / np.sqrt(2.0)
            mats.append(m)
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = -1j / np.sqrt(2.0)
            m[k, j] = 1j / np.sqrt(2.0)
            mats.append(m)
    for l in range(1, dim):
        m = np.zeros((dim, dim), dtype=complex)
        for j in range(l):
            m[j, j] = 1.0
        m[l, l] = -l
        m /= np.sqrt(l * (l + 1))
        mats.append(m)
    for m in mats:
        m.setflags(write=False)
    return tuple(mats)


def bloch_vector(state: QuantumState) -> BlochVector:
    """Expansion coefficients ``r_k = tr(rho A_k)`` of a density matrix.

    Raises
    ------
    StateVariantError
        If a ket is passed; convert with :meth:`QuantumState.to_density`.
    """
    if not state.is_density:
        raise StateVariantError(
            "bloch_vector needs a density matrix; call to_density() first")
    rho = state.rho
    basis = gellmann_basis(state.dim)
    comps = np.array([np.trace(rho @ a).real for a in basis])
    return BlochVector(state.dim, comps)


def from_bloch(bloch: BlochVector) -> QuantumState:
    """Reconstruct ``rho = 1/N + sum_k r_k A_k`` from its Bloch vector."""
    n = bloch.dim
    rho = np.eye(n, dtype=complex) / n
    for r, a in zip(bloch.components, gellmann_basis(n)):
        rho = rho + r * a
    return QuantumState._wrap("density", rho)


def tensor_product(a: Operator, b: Operator) -> Operator:
    """Kronecker product; result dimension is ``a.dim * b.dim``."""
    return Operator(np.kron(a.matrix, b.matrix))


def commutator(a: Operator, b: Operator) -> Operator:
    """``AB - BA``."""
    _check_same_dim(a, b)
    return Operator(a.matrix @ b.matrix - b.matrix @ a.matrix)


def purity(state: QuantumState) -> float:
    """``tr(rho^2)``, in ``[1/N, 1]``; 1 for any ket."""
    if state.is_ket:
        return 1.0
    rho = state.rho
    return float(np.trace(rho @ rho).real)


def hilbert_schmidt_overlap(a: QuantumState, b: QuantumState) -> float:
    """``tr(rho_a rho_b) = 1/N + r_a . r_b`` in the Bloch decomposition.

    Not a distance: for a mixed target it rewards over-pure states (see
    :func:`qoctl.functionals.bloch_match_cost` for the remedy).
    """
    if not (a.is_density and b.is_density):
        raise StateVariantError("hilbert_schmidt_overlap needs density "
                                "matrices; call to_density() first")
    _check_same_dim(a, b)
    return float(np.trace(a.rho @ b.rho).real)


def hilbert_schmidt_distance(a: QuantumState, b: QuantumState) -> float:
    """True distance ``1/2 tr((rho_a - rho_b)^2)``; zero iff equal."""
    if not (a.is_density and b.is_density):
        raise StateVariantError("hilbert_schmidt_distance needs density "
                                "matrices; call to_density() first")
    _check_same_dim(a, b)
    diff = a.rho - b.rho
    return float(0.5 * np.trace(diff @ diff).real)


@dataclass(frozen=True)
class ControlledHamiltonian:
    """Drift plus control couplings: ``H(t) = H0 + sum_j u_j(t) H_j``.

    ``couplings`` maps each coupling operator to a control index; several
    operators may share an index (they enter with the same amplitude).
    Indices must be contiguous from 0.  The drift and every coupling must
    be finite and Hermitian: the ket steps are series in ``H dt`` that read
    both triangles, and the GRAPE gradient diagonalizes with ``eigh``,
    which reads one.  ``drift_matrix`` and ``coupling_stack``, built once,
    are the read-only ``(N, N)`` drift and ``(M, N, N)`` stack of each
    control's summed couplings that the propagators take.  They are
    float64 when the drift and every coupling have zero imaginary part,
    so that the step Hamiltonians of a real model stay real, and complex
    otherwise.
    """

    drift: Operator
    couplings: tuple

    def __init__(self, drift: Operator,
                 couplings: Iterable[tuple] = ()):
        object.__setattr__(self, "drift", drift)
        coups = tuple((op, int(idx)) for op, idx in couplings)
        object.__setattr__(self, "couplings", coups)
        for op, idx in coups:
            if op.dim != drift.dim:
                raise DimensionMismatchError(
                    f"coupling dim {op.dim} != drift dim {drift.dim}")
        for op, name in [(drift, "drift Hamiltonian")] + [
                (op, f"coupling operator of control {idx}")
                for op, idx in coups]:
            # a NaN entry also fails the Hermitian check, a symptom
            if not np.isfinite(op.matrix).all():
                raise ValueError(f"{name} has non-finite entries")
            if not op.hermitian:
                raise ValueError(f"{name} must be Hermitian")
        indices = sorted({idx for _, idx in coups})
        if indices and indices != list(range(len(indices))):
            raise ValueError(f"control indices must be contiguous from 0, "
                             f"got {indices}")
        real = not any(np.any(op.matrix.imag)
                       for op in [drift] + [op for op, _ in coups])
        dtype = float if real else complex
        stack = np.zeros((len(indices), drift.dim, drift.dim), dtype=dtype)
        for op, idx in coups:
            stack[idx] += op.matrix.real if real else op.matrix
        matrix = drift.matrix.real.copy() if real else drift.matrix
        for array in (matrix, stack):
            array.setflags(write=False)
        object.__setattr__(self, "drift_matrix", matrix)
        object.__setattr__(self, "coupling_stack", stack)

    @property
    def dim(self) -> int:
        return self.drift.dim

    @property
    def n_controls(self) -> int:
        return len(self.coupling_stack)

    def at(self, amplitudes: Sequence[float]) -> Operator:
        """Hamiltonian for one sample of the control amplitudes."""
        if len(amplitudes) != self.n_controls:
            raise ValueError(f"expected {self.n_controls} amplitudes, "
                             f"got {len(amplitudes)}")
        h = self.drift.matrix.copy()
        for op, idx in self.couplings:
            h += amplitudes[idx] * op.matrix
        return Operator(h)


@dataclass(frozen=True)
class Liouvillian:
    """Controlled Hamiltonian plus jump operators of the dissipator."""

    hamiltonian: ControlledHamiltonian
    jump_operators: tuple

    def __init__(self, hamiltonian: ControlledHamiltonian,
                 jump_operators: Iterable[Operator] = ()):
        object.__setattr__(self, "hamiltonian", hamiltonian)
        jumps = tuple(jump_operators)
        object.__setattr__(self, "jump_operators", jumps)
        for op in jumps:
            if op.dim != hamiltonian.dim:
                raise DimensionMismatchError(
                    f"jump operator dim {op.dim} != {hamiltonian.dim}")


# Frequently used fixed operators -----------------------------------------

def identity(dim: int) -> Operator:
    return Operator(np.eye(dim))


def sigma_x() -> Operator:
    return Operator([[0, 1], [1, 0]])


def sigma_y() -> Operator:
    return Operator([[0, -1j], [1j, 0]])


def sigma_z() -> Operator:
    return Operator([[1, 0], [0, -1]])


def sigma_minus() -> Operator:
    """Lowering operator |0><1|."""
    return Operator([[0, 1], [0, 0]])


def basis_ket(dim: int, index: int) -> QuantumState:
    vec = np.zeros(dim, dtype=complex)
    vec[index] = 1.0
    return QuantumState.from_ket(vec)


def maximally_mixed(dim: int) -> QuantumState:
    return QuantumState.from_density(np.eye(dim) / dim)
