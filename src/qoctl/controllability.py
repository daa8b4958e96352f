"""Evolution-operator controllability tests.

Two independent criteria:

* Lie-algebra rank: build the real span of ``{i H_0, i H_j}`` closed under
  commutators (breadth-first) and compare its dimension against ``N^2``
  (or ``N^2 - 1`` when every generator is traceless).  Full rank certifies
  controllability.

* Transition graph: drift eigenstates are nodes, control matrix elements
  are edges.  The system is certified controllable when some spanning
  tree takes at most one edge from each group of coupled transitions
  (same control, same transition frequency).  The graph criterion is sufficient
  only, so a failure reports "not established by graph test" reasons
  rather than impossibility; the Lie rank is the fallback arbiter.
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
    witness_edges: Optional[tuple]  # edges of the spanning tree
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


def lie_rank(h: ControlledHamiltonian) -> LieAlgebraReport:
    """Dimension of the dynamical Lie algebra via breadth-first closure.

    Generators are ``i H_0`` and ``i H_j``; new directions come from
    commutators of the frontier with everything found so far, orthogonal
    components below ``1e-10`` of the candidate norm are dropped; by the
    same rule a generator is traceless when ``|tr g| / sqrt(N)``, its
    identity component, is that small against its norm.  Each round adds
    a direction or ends the closure, so it ends within ``N^2`` rounds.
    """
    n = h.dim
    generators = [1j * h.drift.matrix, *(1j * h.coupling_stack)]
    traceless = all(abs(np.trace(g)) <= DROP_TOL * np.sqrt(n)
                    * np.linalg.norm(g) for g in generators)
    target = n * n - 1 if traceless else n * n
    span = _RealSpan()
    frontier = []
    for g in generators:
        if span.add(g):
            frontier.append(span.basis[-1])
    while frontier and len(span) < target:
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
    return LieAlgebraReport(found, found >= target, target)


def build_graph(h: ControlledHamiltonian) -> TransitionGraph:
    """Transition graph of the drift eigenstates under the controls.

    Nodes are the eigenstates of the full drift (static couplings
    included); an edge appears wherever a control operator has a matrix
    element above ``1e-12 ||H_j||`` between two eigenstates.
    """
    energies, vectors = np.linalg.eigh(h.drift.matrix)
    edges = []
    # coupling operators sharing one control index enter as their sum
    for j, op in enumerate(h.coupling_stack):
        elements = vectors.conj().T @ op @ vectors
        threshold = EDGE_TOL * np.linalg.norm(op, 2)
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
    """Exact test for a spanning tree of decoupled transitions.

    The tree takes at most one edge per coupled group, found by matroid
    intersection.  On success the witness tree is returned; on failure the
    reason tells a graph that cannot connect all nodes at all
    (``disconnected``) from one that connects them only through coupled
    transitions (``only_coupled_spanning``).
    """
    n = graph.n_nodes
    if not _spans(n, graph.edges):
        return GraphControllabilityResult(False, None, "disconnected")
    witness = _spanning_selection(n, coupled_transitions(graph))
    if witness is None:
        return GraphControllabilityResult(False, None,
                                          "only_coupled_spanning")
    return GraphControllabilityResult(True, tuple(witness), None)


def _components(n_nodes: int, edges) -> list:
    """Component root of each node under ``edges`` (union-find)."""
    parent = list(range(n_nodes))

    def find(x):  # a plain root walk: the graphs are small
        while parent[x] != x:
            x = parent[x]
        return x

    for e in edges:
        parent[find(e.node_a)] = find(e.node_b)
    return [find(x) for x in range(n_nodes)]


def _spans(n_nodes: int, edges) -> bool:
    """Whether ``edges`` connect all ``n_nodes`` nodes."""
    return len(set(_components(n_nodes, edges))) == 1


def _spanning_selection(n_nodes: int, groups):
    """A spanning tree with at most one edge from each group, or None.

    Edmonds' cardinality matroid intersection of forests and one edge per
    group (Schrijver, *Combinatorial Optimization*, ch. 41): the chosen
    edges, returned in group order, grow along shortest augmenting paths
    of the exchange graph until they span or no path is left.
    """
    edges = [e for g in groups for e in g]
    group_of = [k for k, g in enumerate(groups) for _ in g]
    chosen = set()  # indices into edges

    def joining(forest):  # the unchosen edges joining two of its trees
        roots = _components(n_nodes, [edges[i] for i in forest])
        return [x for x in range(len(edges)) if x not in chosen
                and roots[edges[x].node_a] != roots[edges[x].node_b]]

    while len(chosen) < n_nodes - 1:
        owner = {group_of[y]: y for y in chosen}
        # arcs y -> x where x joins two trees of the forest without y;
        # paths start at the x that join two trees of the whole forest
        arcs = {y: joining(chosen - {y}) for y in [None, *chosen]}
        prev = dict.fromkeys(arcs[None])
        queue = list(prev)
        for node in queue:  # breadth-first; grows while it is read
            if node not in chosen and group_of[node] not in owner:
                break  # the group of node is free: the path ends here
            # arcs x -> y where x and y share a group
            for z in arcs[node] if node in chosen else [owner[group_of[node]]]:
                if z not in prev:
                    prev[z] = node
                    queue.append(z)
        else:
            return None
        while node is not None:
            chosen ^= {node}
            node = prev[node]
    return [edges[i] for i in sorted(chosen)]
