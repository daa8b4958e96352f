import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qoctl import core
from qoctl.controllability import (GraphEdge, _spanning_selection, _spans,
                                   build_graph, coupled_transitions,
                                   graph_controllability, lie_rank)
from qoctl.core import ControlledHamiltonian, Operator, tensor_product

from conftest import random_unitary
from random_models import PROPERTY


def identical_coupled_qubits(omega=1.0, coupling=0.2):
    """Two identical qubits, static XX coupling, single local control.

    The control connects all four drift eigenstates, but the transitions
    come in frequency-degenerate pairs, so the graph test must fail with
    coupled transitions.
    """
    sz, sx, eye = core.sigma_z(), core.sigma_x(), core.identity(2)
    drift = 0.5 * omega * (tensor_product(sz, eye) + tensor_product(eye, sz)) \
        + coupling * tensor_product(sx, sx)
    return ControlledHamiltonian(drift, [(tensor_product(sx, eye), 0)])


def zz_coupled_qubits(omega1=1.0, omega2=1.7, coupling=0.2):
    """Distinct qubits with a diagonal ZZ coupling and one X control.

    All transition frequencies are distinct, but the control cannot flip
    the second qubit: the graph splits into two components.
    """
    sz, sx, eye = core.sigma_z(), core.sigma_x(), core.identity(2)
    drift = 0.5 * omega1 * tensor_product(sz, eye) \
        + 0.5 * omega2 * tensor_product(eye, sz) \
        + coupling * tensor_product(sz, sz)
    return ControlledHamiltonian(drift, [(tensor_product(sx, eye), 0)])


def ladder_system(n, anharmonicity=0.11):
    """n-level ladder with distinct transition frequencies, one control."""
    energies = np.array([k + 0.5 * anharmonicity * k * (k - 1)
                         for k in range(n)], dtype=float)
    coupling = np.zeros((n, n), dtype=complex)
    for k in range(n - 1):
        coupling[k, k + 1] = coupling[k + 1, k] = 1.0
    return ControlledHamiltonian(Operator(np.diag(energies).astype(complex)),
                                 [(Operator(coupling), 0)])


class TestLieRank:
    def test_pauli_pair_full_rank(self):
        h = ControlledHamiltonian(core.sigma_z(), [(core.sigma_x(), 0)])
        report = lie_rank(h)
        assert report.dimension_found == 3
        assert report.target_dimension == 3
        assert report.full_rank
        assert not report.truncated

    def test_single_generator_abelian(self):
        h = ControlledHamiltonian(core.sigma_z(), [])
        report = lie_rank(h)
        assert report.dimension_found == 1
        assert not report.full_rank

    def test_two_qubit_restricted_algebra(self):
        # drift sz sz + local sz terms, single control sx x 1: the algebra
        # closes on the 7 Pauli words {Z1, 1Z, ZZ, X1, Y1, XZ, YZ}
        # (explicit closure oracle), far short of su(4).
        sz, sx, eye = core.sigma_z(), core.sigma_x(), core.identity(2)
        drift = tensor_product(sz, sz) + 0.4 * tensor_product(sz, eye) \
            + 0.7 * tensor_product(eye, sz)
        h = ControlledHamiltonian(drift, [(tensor_product(sx, eye), 0)])
        report = lie_rank(h)
        assert report.dimension_found == 7
        assert report.target_dimension == 15
        assert not report.full_rank

    def test_identity_component_raises_target(self):
        h = ControlledHamiltonian(core.sigma_z() + core.identity(2),
                                  [(core.sigma_x(), 0)])
        report = lie_rank(h)
        assert report.target_dimension == 4
        assert report.full_rank

    def test_truncation_reported(self):
        h = identical_coupled_qubits()
        report = lie_rank(h, max_depth=1)
        assert report.truncated
        assert not report.full_rank  # not reached within depth 1

    def test_basis_independence(self, rng):
        h = ladder_system(3)
        base = lie_rank(h).dimension_found
        u = random_unitary(rng, 3)
        conj = ControlledHamiltonian(
            Operator(u @ h.drift.matrix @ u.conj().T),
            [(Operator(u @ op.matrix @ u.conj().T), idx)
             for op, idx in h.couplings])
        assert lie_rank(conj).dimension_found == base

    def test_adding_controls_never_decreases_dimension(self):
        sz, sx, sy, eye = (core.sigma_z(), core.sigma_x(), core.sigma_y(),
                           core.identity(2))
        drift = tensor_product(sz, sz)
        h1 = ControlledHamiltonian(drift, [(tensor_product(sx, eye), 0)])
        h2 = ControlledHamiltonian(drift, [(tensor_product(sx, eye), 0),
                                           (tensor_product(eye, sy), 1)])
        assert lie_rank(h2).dimension_found >= lie_rank(h1).dimension_found


class TestBuildGraph:
    def test_tls_single_edge(self):
        h = ControlledHamiltonian(0.5 * core.sigma_z(),
                                  [(core.sigma_x(), 0)])
        graph = build_graph(h)
        assert graph.n_nodes == 2
        assert len(graph.edges) == 1
        assert graph.edges[0].frequency == pytest.approx(1.0)

    def test_identical_qubits_control_connects_all_nodes(self):
        graph = build_graph(identical_coupled_qubits())
        touched = set()
        for e in graph.edges:
            touched.update((e.node_a, e.node_b))
        assert touched == {0, 1, 2, 3}

    def test_commuting_control_no_edges(self):
        h = ControlledHamiltonian(core.sigma_z() + 0.5 * core.identity(2),
                                  [(core.sigma_z(), 0)])
        graph = build_graph(h)
        assert graph.edges == ()

    def test_text_export(self):
        graph = build_graph(ladder_system(3))
        text = graph.to_text()
        assert text.startswith("graph transitions {")
        assert "n0 -- n1" in text and "n1 -- n2" in text


class TestCoupledTransitions:
    def test_distinct_frequencies_singletons(self):
        graph = build_graph(ladder_system(4))
        groups = coupled_transitions(graph)
        assert all(len(g) == 1 for g in groups)

    def test_degenerate_pair_grouped(self):
        graph = build_graph(identical_coupled_qubits())
        groups = coupled_transitions(graph)
        sizes = sorted(len(g) for g in groups)
        assert sizes == [2, 2]


class TestGraphControllability:
    def test_identical_qubits_fail_coupled(self):
        result = graph_controllability(build_graph(
            identical_coupled_qubits()))
        assert not result.controllable
        assert result.reason == "only_coupled_spanning"

    def test_zz_coupled_fail_disconnected(self):
        result = graph_controllability(build_graph(zz_coupled_qubits()))
        assert not result.controllable
        assert result.reason == "disconnected"

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ladder_controllable(self, n):
        result = graph_controllability(build_graph(ladder_system(n)))
        assert result.controllable
        assert len(result.witness_edges) == n - 1
        # cross-check against the Lie-rank criterion
        assert lie_rank(ladder_system(n)).full_rank

    def test_one_level_controllable_with_empty_witness(self):
        result = graph_controllability(build_graph(
            ControlledHamiltonian(Operator([[0.5]]))))
        assert result.controllable
        assert result.witness_edges == ()
        assert result.reason is None

    def test_empty_control_set_not_controllable(self):
        h = ControlledHamiltonian(core.sigma_z(), [])
        result = graph_controllability(build_graph(h))
        assert not result.controllable
        assert result.reason == "disconnected"

    def test_graph_positive_implies_lie_full(self):
        # sufficiency direction on every N <= 6 fixture we ship
        fixtures = [ladder_system(n) for n in (2, 3, 4, 5, 6)]
        fixtures += [identical_coupled_qubits(), zz_coupled_qubits()]
        for h in fixtures:
            result = graph_controllability(build_graph(h))
            if result.controllable:
                assert lie_rank(h).full_rank

    def test_report_dict(self):
        result = graph_controllability(build_graph(ladder_system(3)))
        d = result.to_dict()
        assert d["controllable"] is True
        assert len(d["witness_edges"]) == 2


@st.composite
def edge_groups(draw):
    """A node count and groups of 1-3 node pairs each."""
    n = draw(st.integers(2, 5))
    pair = st.sampled_from(list(itertools.combinations(range(n), 2)))
    return n, draw(st.lists(st.lists(pair, min_size=1, max_size=3),
                            max_size=5))


@PROPERTY
@given(case=edge_groups())
# the bound pops the first edge of group 0; the second spans with group 1
@example(case=(3, [[(0, 1), (1, 2)], [(0, 1)]]))
# nothing spans: the bound ends the search before any edge is chosen
@example(case=(3, [[(0, 1)], [(0, 1)]]))
def test_spanning_selection_matches_brute_force(case):
    n, pairs = case
    # a distinct frequency per edge keeps equal node pairs apart
    freqs = itertools.count()
    groups = [tuple(GraphEdge(a, b, g, float(next(freqs)), 1.0)
                    for a, b in group) for g, group in enumerate(pairs)]
    any_spans = any(
        _spans(n, [e for e in pick if e is not None])
        for pick in itertools.product(*[(None,) + g for g in groups]))
    found = _spanning_selection(n, groups)
    assert (found is not None) == any_spans
    # the witness is the first spanning prefix in depth-first order
    first = next((list(pick[:m]) for pick in itertools.product(*groups)
                  for m in range(len(pick) + 1) if _spans(n, pick[:m])), None)
    assert found == first
    if found is not None:
        assert _spans(n, found)
        used = [e.control_index for e in found]
        assert len(set(used)) == len(used)  # at most one edge per group


def two_leaf_system(levels):
    """A harmonic core of ``levels - 2`` states, coupled all-to-all by two
    controls, and two leaves whose only edges, from core states 0 and 1,
    fall in one (control, frequency) group: the whole graph is connected,
    but no selection of one edge per group reaches both leaves."""
    core_n = levels - 2
    energies = np.r_[np.arange(core_n), core_n + 1.5, core_n + 2.5]
    all_to_all = np.zeros((levels, levels), dtype=complex)
    all_to_all[:core_n, :core_n] = 1.0 - np.eye(core_n)
    leaves = all_to_all.copy()
    leaves[0, core_n] = leaves[core_n, 0] = 1.0
    leaves[1, core_n + 1] = leaves[core_n + 1, 1] = 1.0
    return ControlledHamiltonian(
        Operator(np.diag(energies).astype(complex)),
        [(Operator(leaves), 0), (Operator(all_to_all), 1)])


def test_spanning_search_is_bounded(monkeypatch):
    # without the bound and with a skip branch per group the search made
    # 2,459,679 calls on this graph
    import qoctl.controllability as ctrl
    calls = []

    def counting(n_nodes, edges):
        calls.append(n_nodes)
        return _spans(n_nodes, edges)

    monkeypatch.setattr(ctrl, "_spans", counting)
    result = graph_controllability(build_graph(two_leaf_system(8)))
    assert result.reason == "only_coupled_spanning"
    assert len(calls) <= 2000
