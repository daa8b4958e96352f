"""Evolution-operator controllability tests.

Two independent criteria:

* Lie-algebra rank: build the real span of ``{i H_0, i H_j}`` closed under
  commutators (breadth-first) and compare its dimension against ``N^2``
  (or ``N^2 - 1`` when every generator is traceless).  Full rank certifies
  controllability; truncation at the depth limit is reported, never
  silently treated as "not controllable".

* Transition graph: drift eigenstates are nodes, control matrix elements
  are edges.  The system is certified controllable when a connected
  subgraph exists that spans all nodes using at most one edge per group of
  coupled transitions (same control, same transition frequency).  The
  graph criterion is sufficient only, so a failed search reports "not
  established by graph test" reasons rather than impossibility; the Lie
  rank is the fallback arbiter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ControlledHamiltonian

DROP_TOL = 1e-10
EDGE_TOL = 1e-12


@dataclass(frozen=True)
class LieAlgebraReport:
    """Dimension of the dynamical Lie algebra and the closure verdict."""

    dimension_found: int
    full_rank: bool
    target_dimension: int
    depth_reached: int
    truncated: bool


@dataclass(frozen=True)
class GraphEdge:
    node_a: int
    node_b: int
    control_index: int
    frequency: float
    magnitude: float


@dataclass(frozen=True)
class TransitionGraph:
    """Drift eigenstates as nodes, control matrix elements as edges."""

    energies: np.ndarray
    edges: tuple

    @property
    def n_nodes(self) -> int:
        return len(self.energies)

    def to_text(self) -> str:
        """Plain node/edge listing (DOT-compatible graph body)."""
        lines = ["graph transitions {"]
        for i, e in enumerate(self.energies):
            lines.append(f'  n{i} [energy="{e:.12g}"];')
        for edge in self.edges:
            lines.append(
                f'  n{edge.node_a} -- n{edge.node_b} '
                f'[control={edge.control_index}, '
                f'frequency="{edge.frequency:.12g}", '
                f'magnitude="{edge.magnitude:.12g}"];')
        lines.append("}")
        return "\n".join(lines)


@dataclass(frozen=True)
class GraphControllabilityResult:
    controllable: bool
    witness_edges: Optional[tuple]  # edges of the spanning subgraph
    reason: Optional[str]           # 'disconnected' | 'only_coupled_spanning'

    def to_dict(self) -> dict:
        return {
            "controllable": self.controllable,
            "witness_edges": None if self.witness_edges is None else [
                [e.node_a, e.node_b, e.control_index]
                for e in self.witness_edges],
            "reason": self.reason,
        }


def _hs_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Real part of the Hilbert-Schmidt (or, for vectors, Euclidean)
    inner product."""
    return float(np.vdot(a, b).real)


class _RealSpan:
    """Orthonormal accumulator for the real span of arrays of one shape:
    anti-Hermitian matrices here, coherence vectors in
    ``dynamics.reduced_gkls_parts``."""

    def __init__(self):
        self.basis = []

    def add(self, cand: np.ndarray) -> bool:
        norm = np.sqrt(_hs_inner(cand, cand))
        if norm == 0.0:
            return False
        residual = cand.copy()
        for b in self.basis:
            residual -= _hs_inner(b, residual) * b
        # re-orthogonalize once for numerical safety
        for b in self.basis:
            residual -= _hs_inner(b, residual) * b
        res_norm = np.sqrt(_hs_inner(residual, residual))
        if res_norm <= DROP_TOL * norm:
            return False
        self.basis.append(residual / res_norm)
        return True

    def __len__(self):
        return len(self.basis)


def lie_rank(h: ControlledHamiltonian,
             max_depth: Optional[int] = None) -> LieAlgebraReport:
    """Dimension of the dynamical Lie algebra via breadth-first closure.

    Generators are ``i H_0`` and ``i H_j``; new directions come from
    commutators of the frontier with everything found so far, orthogonal
    components below ``1e-10`` of the candidate norm are dropped.  The
    default depth limit ``2 N^2`` is far beyond typical closure depth.
    """
    n = h.dim
    if max_depth is None:
        max_depth = 2 * n * n
    generators = [1j * h.drift.matrix]
    generators += [1j * op.matrix for op in h.control_operators()]
    traceless = all(abs(np.trace(g)) <= 1e-12 for g in generators)
    target = n * n - 1 if traceless else n * n
    span = _RealSpan()
    frontier = []
    for g in generators:
        if span.add(g):
            frontier.append(span.basis[-1])
    depth = 0
    truncated = False
    while frontier and len(span) < target:
        depth += 1
        if depth > max_depth:
            truncated = True
            depth = max_depth
            break
        new_frontier = []
        snapshot = list(span.basis)
        for f in frontier:
            for b in snapshot:
                cand = f @ b - b @ f
                if span.add(cand):
                    new_frontier.append(span.basis[-1])
            if len(span) >= target:
                break
        frontier = new_frontier
    found = len(span)
    return LieAlgebraReport(dimension_found=found,
                            full_rank=found >= target,
                            target_dimension=target,
                            depth_reached=depth,
                            truncated=truncated)


def build_graph(h: ControlledHamiltonian) -> TransitionGraph:
    """Transition graph of the drift eigenstates under the controls.

    Nodes are the eigenstates of the full drift (static couplings
    included); an edge appears wherever a control operator has a matrix
    element above ``1e-12 ||H_j||`` between two eigenstates.
    """
    energies, vectors = np.linalg.eigh(h.drift.matrix)
    edges = []
    # coupling operators sharing one control index enter as their sum
    for j, op in enumerate(h.control_operators()):
        elements = vectors.conj().T @ op.matrix @ vectors
        threshold = EDGE_TOL * np.linalg.norm(op.matrix, 2)
        for a in range(len(energies)):
            for b in range(a + 1, len(energies)):
                mag = abs(elements[a, b])
                if mag > threshold:
                    edges.append(GraphEdge(a, b, j,
                                           abs(energies[a] - energies[b]),
                                           mag))
    return TransitionGraph(energies, tuple(edges))


def coupled_transitions(graph: TransitionGraph) -> list:
    """Partition edges into coupled groups (same control, same frequency).

    Frequency equality is transitive clustering within ``1e-9`` of the
    spectral span (``1e-9`` when the span is zero); degenerate transitions
    driven by the same control cannot be addressed separately.
    """
    span = float(np.ptp(graph.energies))
    freq_tol = 1e-9 * span if span > 0 else 1e-9
    groups = []
    by_control = {}
    for edge in graph.edges:
        by_control.setdefault(edge.control_index, []).append(edge)
    for _, edges in sorted(by_control.items()):
        edges = sorted(edges, key=lambda e: e.frequency)
        current = [edges[0]]
        for edge in edges[1:]:
            if edge.frequency - current[-1].frequency <= freq_tol:
                current.append(edge)
            else:
                groups.append(tuple(current))
                current = [edge]
        groups.append(tuple(current))
    return groups


def graph_controllability(graph: TransitionGraph
                          ) -> GraphControllabilityResult:
    """Search for a spanning connected subgraph of decoupled transitions.

    At most one edge per coupled group may be used.  On success the
    witness subgraph is returned; on failure the reason distinguishes a
    graph that cannot connect all nodes at all (``disconnected``) from one
    that connects them only through coupled transitions
    (``only_coupled_spanning``).
    """
    n = graph.n_nodes
    if n == 1:
        return GraphControllabilityResult(True, (), None)
    if not _spans(n, graph.edges):
        return GraphControllabilityResult(False, None, "disconnected")
    witness = _spanning_selection(n, coupled_transitions(graph))
    if witness is None:
        return GraphControllabilityResult(False, None,
                                          "only_coupled_spanning")
    return GraphControllabilityResult(True, tuple(witness), None)


def _spans(n_nodes: int, edges) -> bool:
    """Whether ``edges`` connect all ``n_nodes`` nodes (union-find)."""
    parent = list(range(n_nodes))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = n_nodes
    for e in edges:
        ra, rb = find(e.node_a), find(e.node_b)
        if ra != rb:
            parent[ra] = rb
            comps -= 1
    return comps == 1


def _spanning_selection(n_nodes: int, groups):
    """Backtracking search: pick <= 1 edge per group, span all nodes."""
    chosen = []

    def recurse(idx):
        if _spans(n_nodes, chosen):
            return True
        if idx == len(groups):
            return False
        # prune: even one edge from every remaining group cannot span
        if len(chosen) + (len(groups) - idx) < n_nodes - 1:
            return False
        for edge in groups[idx]:
            chosen.append(edge)
            if recurse(idx + 1):
                return True
            chosen.pop()
        return recurse(idx + 1)  # skip this group

    if recurse(0):
        return list(chosen)
    return None
