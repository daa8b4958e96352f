"""The block kernels against a plain per-step ``scipy.linalg.expm`` loop.

The references below step one member at a time through the textbook
exponential of every step generator, so they check the batched cos/sin
series of the ket steps, the block layout of ensembles, the in-place field
update of the Krotov passes, the Chebyshev tables they read their steps
from and the step stacks those passes return at once.  Where scipy's own
round-off would decide the comparison (``expm_series`` across its accuracy
domain, GKLS steps at ``||G dt||_1`` 1e3), the reference exponential is a
40-digit mpmath one.
"""

import collections
import inspect
import itertools
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from qoctl import _kernels
from qoctl._kernels import _fallback
from qoctl.core import ControlledHamiltonian, Liouvillian, Operator
from qoctl.dynamics import (ControlField, TimeGrid, gkls_generator_parts,
                            propagate_density, reduced_gkls_parts,
                            vectorize_density)
from qoctl.scenarios import reset_model

from conftest import random_hermitian
from random_models import PROPERTY, models

RTOL = 1e-12


def close(got, ref, rtol=RTOL):
    return np.max(np.abs(got - ref)) <= rtol * max(1.0, np.max(np.abs(ref)))


def random_block(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def reference_propagation(gen0, gens, amps, scale, state0, direction):
    """Step by step: ``state <- expm(scale * G_k) @ state`` per member."""
    n_mid = amps.shape[0]
    out = np.empty((n_mid + 1,) + state0.shape, dtype=complex)
    order = range(n_mid) if direction > 0 else range(n_mid - 1, -1, -1)
    out[0 if direction > 0 else n_mid] = state0
    for k in order:
        g = gen0.copy()
        for j in range(gens.shape[0]):
            g += amps[k, j] * gens[j]
        step = expm(scale * g)
        src, dst = (k, k + 1) if direction > 0 else (k + 1, k)
        for w in np.ndindex(state0.shape[:-1]):
            out[(dst,) + w] = step @ out[(src,) + w]
    return out


def mp_expm(x):
    """The exponential of one matrix in 40-digit mpmath, rounded to
    ``x``'s dtype."""
    with mpmath.workdps(40):
        return np.array(mpmath.expm(mpmath.matrix(x.tolist())).tolist(),
                        dtype=x.dtype)


def reference_krotov(gen0, gens, ops, amps, chi, state0, scale, gain,
                     step_expm=expm):
    """Per-control, per-member update loop, then the ``step_expm`` step;
    returns the states and the step operators."""
    n_mid, n_ctrl = amps.shape
    n_ens = state0.shape[0]
    out = np.empty((n_mid + 1,) + state0.shape, dtype=complex)
    steps = np.empty((n_mid,) + gen0.shape, dtype=complex)
    out[0] = state0
    for k in range(n_mid):
        for j in range(n_ctrl):
            upd = sum(np.vdot(chi[k, w], ops[j] @ out[k, w]).imag
                      for w in range(n_ens))
            amps[k, j] += gain[k] * upd / n_ens
        g = gen0.copy()
        for j in range(n_ctrl):
            g += amps[k, j] * gens[j]
        steps[k] = step_expm(scale * g)
        for w in range(n_ens):
            out[k + 1, w] = steps[k] @ out[k, w]
    return out, steps


@pytest.fixture
def hamiltonian_data(rng):
    n, m = 3, 2
    mats = random_block(rng, (1 + m, n, n))
    herm = 0.5 * (mats + np.conj(np.transpose(mats, (0, 2, 1))))
    return herm[0].copy(), herm[1:].copy()


def real_and_complex(hamiltonian_data):
    """The Hermitian drift and couplings, then their real symmetric
    parts: a real model."""
    return [hamiltonian_data, tuple(np.real(a) for a in hamiltonian_data)]


@pytest.fixture
def generator_data(rng):
    n, m = 16, 2  # vectorized two-qubit generator
    return (0.25 * random_block(rng, (n, n)),
            0.25 * random_block(rng, (m, n, n)))


class TestKetPropagation:
    # more steps than one block, so block edges are crossed both ways
    N_STEPS = 2 * _kernels.block_rows(3) + 5  # hamiltonian_data is 3x3

    @pytest.mark.parametrize("n_ens", [None, 1, 3])
    @pytest.mark.parametrize("direction", [1, -1])
    def test_matches_expm_loop(self, hamiltonian_data, rng, direction,
                               n_ens):
        drift, coups = hamiltonian_data
        amps = rng.normal(size=(self.N_STEPS, coups.shape[0]))
        dt = 0.05
        shape = (drift.shape[0],) if n_ens is None \
            else (n_ens, drift.shape[0])
        psi0 = random_block(rng, shape)
        got = _kernels.propagate_pwc_ket(drift, coups, amps, dt, psi0,
                                         direction)
        # backward steps are exp(-1j H dt)^dag = exp(+1j H dt)
        ref = reference_propagation(drift, coups, amps,
                                    -1j * dt * direction, psi0, direction)
        assert got.shape == ref.shape == (self.N_STEPS + 1,) + shape
        assert close(got, ref)

    def test_no_controls(self):
        drift = np.diag([1.0, -1.0]).astype(complex)
        coups = np.zeros((0, 2, 2), dtype=complex)
        amps = np.zeros((10, 0))
        psi0 = np.array([1.0, 0.0], dtype=complex)
        got = _kernels.propagate_pwc_ket(drift, coups, amps, 0.1, psi0, 1)
        ref = reference_propagation(drift, coups, amps, -0.1j, psi0, 1)
        assert close(got, ref)


class TestDensityPropagation:
    # 16-dimensional steps come in blocks of 64, so edges are crossed
    N_STEPS = 150

    @pytest.mark.parametrize("n_ens", [None, 3])
    @pytest.mark.parametrize("direction", [1, -1])
    def test_matches_expm_loop(self, generator_data, rng, direction, n_ens):
        gen0, gens = generator_data
        amps = rng.normal(size=(self.N_STEPS, gens.shape[0]))
        shape = (gen0.shape[0],) if n_ens is None \
            else (n_ens, gen0.shape[0])
        rho0 = random_block(rng, shape)
        got = _kernels.propagate_pwc_dm(gen0, gens, amps, 0.08, rho0,
                                        direction)
        if direction < 0:  # expm(G dt)^dag = expm(G^dag dt)
            gen0, gens = gen0.conj().T, np.conj(np.transpose(gens, (0, 2, 1)))
        ref = reference_propagation(gen0, gens, amps, 0.08, rho0, direction)
        assert got.shape == ref.shape == (self.N_STEPS + 1,) + shape
        assert close(got, ref)


class TestKrotovForward:
    def test_ket(self, hamiltonian_data, rng):
        drift, coups = hamiltonian_data
        n_mid, n_ens, n = 40, 2, drift.shape[0]
        amps = rng.normal(size=(n_mid, coups.shape[0]))
        psi0 = random_block(rng, (n_ens, n))
        psi0 /= np.linalg.norm(psi0, axis=1, keepdims=True)
        chi = random_block(rng, (n_mid + 1, n_ens, n))
        gain = rng.uniform(0, 0.5, size=n_mid)
        amps_ref = amps.copy()
        got, steps = _kernels.krotov_forward_ket(drift, coups, amps, chi,
                                                 psi0, 0.05, gain)
        ref, ref_steps = reference_krotov(drift, coups, coups, amps_ref, chi,
                                          psi0, -0.05j, gain)
        assert close(amps, amps_ref)
        assert close(got, ref)
        assert steps.shape == (n_mid, n, n)
        assert close(steps, ref_steps)

    def test_density(self, generator_data, rng):
        # scaled down so the random sequential feedback stays bounded
        gen0, gens = (0.2 * g for g in generator_data)
        n_mid, n_ens, n = 25, 3, gen0.shape[0]
        amps = rng.normal(size=(n_mid, gens.shape[0]))
        rho0 = random_block(rng, (n_ens, n))
        chi = random_block(rng, (n_mid + 1, n_ens, n))
        gain = rng.uniform(0, 0.1, size=n_mid)
        amps_ref = amps.copy()
        got, steps = _kernels.krotov_forward_dm(gen0, gens, amps, chi, rho0,
                                                0.05, gain)
        # the GKLS update operators are the control parts R_j = gens[j]:
        # Re(chi^dag R_j rho) = Im(chi^dag (1j R_j) rho)
        ref, ref_steps = reference_krotov(gen0, gens, 1j * gens, amps_ref,
                                          chi, rho0, 0.05, gain)
        assert close(amps, amps_ref)
        assert close(got, ref)
        assert steps.shape == (n_mid, n, n)
        assert close(steps, ref_steps)

    def test_density_real_basis(self, rng):
        # The reset model's real 8x8 parts, with the control part as update
        # operator, against the dense complex 16x16 pass with the update
        # Im(chi^dag [H_j, .] rho); co-states and states lie in the subspace.
        h, jumps, rho0, target, _ = reset_model(0.15)
        liou = Liouvillian(h, jumps)
        gen0, gens, basis = reduced_gkls_parts(liou, [rho0.rho, target.rho])
        full0, fulls = gkls_generator_parts(liou)
        eye = np.eye(h.dim)
        commutators = np.stack([np.kron(op, eye) - np.kron(eye, op.T)
                                for op in h.coupling_stack])
        n_mid, n_ens, d = 40, 2, gen0.shape[0]
        amps = rng.normal(size=(n_mid, 1))
        rho = rng.normal(size=(n_ens, d))
        chi = rng.normal(size=(n_mid + 1, n_ens, d))
        gain = rng.uniform(0, 0.1, size=n_mid)
        amps_ref = amps.copy()
        got, steps = _kernels.krotov_forward_dm(gen0, gens, amps, chi, rho,
                                                0.05, gain)
        ref, ref_steps = reference_krotov(full0, fulls, commutators, amps_ref,
                                          chi @ basis.T, rho @ basis.T, 0.05,
                                          gain)
        assert got.dtype == steps.dtype == np.float64
        assert close(amps, amps_ref, 1e-10)
        assert close(got @ basis.T, ref, 1e-10)
        assert close(basis @ steps @ basis.conj().T,
                     ref_steps @ basis @ basis.conj().T, 1e-10)


def hermitian_parts(rng, n, m, real=False):
    """A Hermitian ``(n, n)`` drift and ``m`` couplings (real symmetric
    ones for ``real``)."""
    mats = rng.normal(size=(1 + m, n, n)) if real \
        else random_block(rng, (1 + m, n, n))
    herm = 0.5 * (mats + np.conj(np.transpose(mats, (0, 2, 1))))
    return herm[0].copy(), herm[1:].copy()


@pytest.fixture
def tables(monkeypatch):
    """Every ``StepTable`` the Krotov passes build, in order."""
    built = []

    class Recorded(_fallback.StepTable):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(_fallback, "StepTable", Recorded)
    return built


def ket_pass(drift, coups, amps, chi, psi0, dt, gain):
    """A ket pass against ``reference_krotov`` at ``RTOL``: amplitudes,
    states and steps."""
    amps_ref = amps.copy()
    got, steps = _kernels.krotov_forward_ket(drift, coups, amps, chi, psi0,
                                             dt, gain)
    ref, ref_steps = reference_krotov(drift, coups, coups, amps_ref, chi,
                                      psi0, -1j * dt, gain)
    assert close(amps, amps_ref)
    assert close(got, ref)
    assert close(steps, ref_steps)
    return steps


class TestStepTable:
    """The Chebyshev tables of the Krotov passes: one table of fewer nodes
    than steps per pass, read at every step to round-off of the per-step
    ``expm`` of ``reference_krotov``; and a table's batched read."""

    @pytest.mark.parametrize("n_ctrl, real", [(1, True), (2, False),
                                              (3, False)])
    def test_controls(self, rng, tables, n_ctrl, real):
        # at least 6 + 1 nodes per control: 343 for three
        drift, coups = hermitian_parts(rng, 3, n_ctrl, real)
        n_mid, n_ens = 400, 2
        amps = rng.uniform(-1.0, 1.0, size=(n_mid, n_ctrl))
        psi0 = random_block(rng, (n_ens, 3))
        psi0 /= np.linalg.norm(psi0, axis=1, keepdims=True)
        chi = random_block(rng, (n_mid + 1, n_ens, 3))
        ket_pass(drift, coups, amps, chi, psi0, 0.002,
                 rng.uniform(0, 0.1, size=n_mid))
        assert len(tables) == 1
        assert 2 ** n_ctrl <= tables[0].nodes < n_mid

    @pytest.mark.parametrize("n_ctrl", [1, 2, 3])
    def test_batched_read(self, rng, n_ctrl):
        # A stack of rows read at once, the bichromatic scenario's path,
        # against each row's weights and coefficients: the box's corners,
        # xi = +-1, the floats next to them inside it and random rows.  On
        # these boxes rounding carries xi just past 1 at 0.2 and just past
        # -1 at -0.3.
        drift, coups = hermitian_parts(rng, 3, n_ctrl)
        box = np.array([[-1.0, -0.3, -0.5], [0.2, 0.9, 0.1]])[:, :n_ctrl]
        lo, hi = box
        table = _fallback.StepTable(*_fallback._ket_parts(drift, coups, 0.05),
                                    box, np.zeros_like(box), 1000, complex)
        assert table.nodes > 1
        edges = np.array(list(itertools.product(*zip(
            lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo)))))
        rows = np.concatenate([edges, rng.uniform(lo, hi, (50, n_ctrl))])
        xi = np.array([(rows[:, j] - a[2]) * a[3]
                       for j, a in enumerate(table.axes)])
        assert np.max(np.abs(xi)) > 1.0
        got = table.read(rows.reshape(-1, 2, n_ctrl))
        assert got.shape == (len(rows) // 2, 2, 3, 3)
        ref = [(table.weights(u) @ table.coefs).view(complex).reshape(3, 3)
               for u in rows.tolist()]
        assert close(got.reshape(-1, 3, 3), np.array(ref))

    def test_box_edges(self, rng, tables, hamiltonian_data):
        # The first and last rows hold each control's extremes and take no
        # update, while no other row can reach them: the box is exactly
        # [-1, 1], and those rows sit on its edges, xi = +-1.
        drift, coups = hamiltonian_data
        n_mid, n_ens = 120, 2
        amps = rng.uniform(-0.5, 0.5, size=(n_mid, 2))
        amps[0], amps[-1] = [-1.0, 1.0], [1.0, -1.0]
        psi0 = random_block(rng, (n_ens, 3))
        psi0 /= np.linalg.norm(psi0, axis=1, keepdims=True)
        chi = random_block(rng, (n_mid + 1, n_ens, 3))
        gain = np.full(n_mid, 0.01)
        gain[[0, -1]] = 0.0
        ket_pass(drift, coups, amps, chi, psi0, 0.01, gain)
        assert len(tables) == 1
        assert [axis[:2] for axis in tables[0].axes] == [(-1.0, 1.0)] * 2
        assert tables[0].nodes < n_mid

    def test_widening(self, rng, tables, generator_data):
        # A generator that grows every state by e^3 over the pass: the
        # updates outgrow the bound taken with ||rho0||, and each one past
        # the box rebuilds the table on a wider one.
        gen0, gens = (0.2 * g for g in generator_data)
        gen0 = gen0 + np.eye(gen0.shape[0])
        n_mid, n_ens, dt = 60, 2, 0.05
        amps = np.zeros((n_mid, gens.shape[0]))
        rho0 = random_block(rng, (n_ens, gen0.shape[0]))
        chi = random_block(rng, (n_mid + 1, n_ens, gen0.shape[0]))
        gain = np.full(n_mid, 0.05)
        amps_ref = amps.copy()
        got, steps = _kernels.krotov_forward_dm(gen0, gens, amps, chi, rho0,
                                                dt, gain)
        ref, ref_steps = reference_krotov(gen0, gens, 1j * gens, amps_ref,
                                          chi, rho0, dt, gain)
        assert np.linalg.norm(got[-1]) > 10 * np.linalg.norm(rho0)
        assert len(tables) > 1
        assert close(amps, amps_ref)
        assert close(got, ref)
        assert close(steps, ref_steps)

    def test_huge_box_takes_one_node_per_step(self, rng, tables,
                                              hamiltonian_data):
        # A gain whose update bound spans ~1e4 in amplitude would need a
        # grid of over 1e3 nodes per control, more than the pass's steps
        # or one block of them: each table shrinks to one node at its
        # step instead, the step itself.
        drift, coups = hamiltonian_data
        n_mid, dt = 30, 0.05
        amps = rng.normal(size=(n_mid, 2))
        psi0 = random_block(rng, (2, 3))
        psi0 /= np.linalg.norm(psi0, axis=1, keepdims=True)
        chi = random_block(rng, (n_mid + 1, 2, 3))
        got, steps = _kernels.krotov_forward_ket(
            drift, coups, amps, chi, psi0, dt, np.full(n_mid, 1e3))
        assert np.max(np.abs(amps)) > 1e2
        assert [t.nodes for t in tables] == [1] * n_mid
        assert close(steps, _kernels.step_stack_ket(
            _kernels.generator(drift, coups, amps), dt))
        assert close(got, _kernels.propagate_steps(steps, psi0, 1))

    def test_ket_steps_unitary_at_large_norm(self, rng, tables):
        # The table's nodes are step_stack_ket's, whose series stays
        # unitary to about ||H dt||_F eps: 1e-12 at the edge of its domain
        drift, coups = hermitian_parts(rng, 3, 1)
        n_mid, dt = 60, 0.05
        drift *= 1e3 / (dt * np.linalg.norm(drift))
        amps = 0.1 * rng.normal(size=(n_mid, 1))
        psi0 = random_block(rng, (1, 3))
        chi = random_block(rng, (n_mid + 1, 1, 3))
        _, steps = _kernels.krotov_forward_ket(
            drift, coups, amps, chi, psi0 / np.linalg.norm(psi0), dt,
            np.full(n_mid, 0.1))
        norms = np.linalg.norm(dt * _kernels.generator(drift, coups, amps),
                               axis=(1, 2))
        assert np.all(np.abs(norms - 1e3) < 1.0)
        assert len(tables) == 1 and tables[0].nodes < n_mid
        eye = np.eye(3)
        assert np.max(np.abs(steps @ np.conj(np.swapaxes(steps, 1, 2))
                             - eye)) <= 1e-12

    def test_density_at_large_norm(self, rng, tables):
        # The reset model on a step with ||G dt||_1 about 1e3: the degree
        # rule is evaluated in logarithms, so it neither overflows nor
        # leaves the round-off of the per-step exponential.  The reference
        # steps are 40-digit mpmath ones: scipy's expm is itself about
        # 2e-11 off them at this norm.
        h, jumps, rho0, target, _ = reset_model(0.15)
        gen0, gens, _ = reduced_gkls_parts(Liouvillian(h, jumps),
                                           [rho0.rho, target.rho])
        dt = 1e3 / np.linalg.norm(gen0 + gens[0], 1)
        n_mid, n_ens, d = 80, 2, gen0.shape[0]
        amps = 1.0 + 0.01 * rng.normal(size=(n_mid, 1))
        rho = rng.normal(size=(n_ens, d))
        chi = rng.normal(size=(n_mid + 1, n_ens, d))
        gain = np.full(n_mid, 1e-4)
        amps_ref = amps.copy()
        got, steps = _kernels.krotov_forward_dm(gen0, gens, amps, chi, rho,
                                                dt, gain)
        ref, ref_steps = reference_krotov(gen0, gens, 1j * gens, amps_ref,
                                          chi, rho, dt, gain, mp_expm)
        norms = np.linalg.norm(dt * _kernels.generator(gen0, gens, amps),
                               1, axis=(1, 2))
        assert np.all(np.abs(norms - 1e3) < 50.0)
        assert len(tables) == 1 and tables[0].nodes < n_mid
        assert close(amps, amps_ref)
        assert close(got, ref)
        assert close(steps, ref_steps)


def plain_krotov(stack_of, sizes, log_norm, ops, amps, chi, state0, gain):
    """``_fallback.krotov_forward`` written plainly, each operation one
    numpy expression on indexed rows: the update added to ``amps[k]`` in
    place, the weights of that row from the table's axes, their sum with
    the coefficients and the step.  The sweep's reference, bitwise."""
    n_mid, n_ctrl = amps.shape
    proj = (chi[:-1, None].conj() @ ops).reshape(n_mid, n_ctrl, -1) \
        * (gain / state0.shape[0])[:, None, None]
    reach = np.linalg.norm(proj, axis=2)
    dtype = np.result_type(state0, proj)
    out = np.empty((n_mid + 1,) + state0.shape, dtype=dtype)
    steps = np.empty((n_mid,) + ops.shape[1:], dtype=dtype)
    flat = steps.reshape(n_mid, -1).view(float)
    block = _kernels.block_rows(steps.shape[-1])
    out[0] = state0
    table = None
    for k in range(n_mid):
        row = amps[k]
        row += (proj[k] @ out[k].ravel()).real
        weights = None if table is None else plain_weights(table, row)
        if weights is None:
            norm = np.linalg.norm(out[k]) * (1.0 if table is None else 2.0)
            table = _fallback.StepTable(stack_of, sizes, log_norm, amps[k:],
                                        reach[k:] * norm,
                                        max(n_mid - k, block), dtype)
            weights = plain_weights(table, row)
        np.dot(weights, table.coefs, out=flat[k])
        np.dot(out[k], steps[k].T, out=out[k + 1])
    return out, steps


def plain_weights(table, u):
    """``StepTable.weights`` of the row ``u`` with a new array per axis."""
    weights = None
    for uj, (lo, hi, mid, scale, ks) in zip(u.tolist(),
                                            (a[:5] for a in table.axes)):
        if uj < lo or uj > hi:
            return None
        xi = min(1.0, max(-1.0, (uj - mid) * scale))
        t = np.cos(ks * math.acos(xi))
        weights = t if weights is None \
            else np.multiply.outer(weights, t).ravel()
    return weights


def reset_parts():
    """The reset model's real GKLS parts in its 8-dimensional basis."""
    h, jumps, rho0, target, _ = reset_model(0.15)
    gen0, gens, _ = reduced_gkls_parts(Liouvillian(h, jumps),
                                       [rho0.rho, target.rho])
    return gen0, gens


class TestKrotovSweep:
    """``krotov_forward`` against ``plain_krotov`` on the same inputs:
    bitwise equal amplitudes, states and steps, from as many tables."""

    @staticmethod
    def check(monkeypatch, tables, kernel, args, amps):
        results, built = [], []
        for sweep in (_fallback.krotov_forward, plain_krotov):
            monkeypatch.setattr(_fallback, "krotov_forward", sweep)
            updated = amps.copy()
            results.append((updated,) + kernel(*args(updated)))
            built.append(len(tables) - sum(built))
        for got, ref in zip(*results):
            assert np.array_equal(got, ref)
        assert built[0] == built[1]
        return built[0]

    def test_ket(self, rng, monkeypatch, tables, hamiltonian_data):
        drift, coups = hamiltonian_data
        n_mid, n_ens, n = 120, 2, drift.shape[0]
        psi0 = random_block(rng, (n_ens, n))
        psi0 /= np.linalg.norm(psi0, axis=1, keepdims=True)
        chi = random_block(rng, (n_mid + 1, n_ens, n))
        gain = rng.uniform(0, 0.5, size=n_mid)
        assert self.check(
            monkeypatch, tables, _kernels.krotov_forward_ket,
            lambda amps: (drift, coups, amps, chi, psi0, 0.05, gain),
            rng.normal(size=(n_mid, 2))) == 1

    def test_reset_model(self, rng, monkeypatch, tables):
        gen0, gens = reset_parts()
        n_mid, d = 300, gen0.shape[0]
        rho = rng.normal(size=(1, d))
        chi = rng.normal(size=(n_mid + 1, 1, d))
        gain = np.full(n_mid, 0.1)
        assert self.check(
            monkeypatch, tables, _kernels.krotov_forward_dm,
            lambda amps: (gen0, gens, amps, chi, rho, 0.05, gain),
            0.9 + 0.01 * rng.normal(size=(n_mid, 1))) == 1

    def test_widening(self, rng, monkeypatch, tables, generator_data):
        # the generator of TestStepTable.test_widening: tables rebuilt
        # partway through the pass
        gen0, gens = (0.2 * g for g in generator_data)
        gen0 = gen0 + np.eye(gen0.shape[0])
        n_mid, n = 60, gen0.shape[0]
        rho0 = random_block(rng, (2, n))
        chi = random_block(rng, (n_mid + 1, 2, n))
        gain = np.full(n_mid, 0.05)
        assert self.check(
            monkeypatch, tables, _kernels.krotov_forward_dm,
            lambda amps: (gen0, gens, amps, chi, rho0, 0.05, gain),
            np.zeros((n_mid, gens.shape[0]))) > 1

    def test_numpy_calls_per_step(self, rng, monkeypatch, tables):
        # Every array operation of a step is a numpy function looked up on
        # the module or a C call from the kernels' own code, which the
        # profiler sees: on the reset model the update, its floats, the
        # weights' arccos and two ufuncs, the weighted sum and the block's
        # product.  Counted over passes of two lengths from one table each,
        # so that what a pass does once cancels, and a call added to every
        # step shows 150 times.
        gen0, gens = reset_parts()
        d = gen0.shape[0]
        calls = collections.Counter()

        class Counting:
            def __getattr__(self, name):
                calls["np." + name] += 1
                return getattr(np, name)

        def profile(frame, event, arg):
            if event == "c_call" and frame.f_globals is vars(_fallback):
                calls[arg.__qualname__] += 1

        monkeypatch.setattr(_fallback, "np", Counting())
        counts = []
        for n_mid in (150, 300):
            amps = np.full((n_mid, 1), 0.9)
            chi = rng.normal(size=(n_mid + 1, 1, d))
            rho = rng.normal(size=(1, d))
            calls.clear()
            previous = sys.getprofile()
            sys.setprofile(profile)
            try:
                _kernels.krotov_forward_dm(gen0, gens, amps, chi, rho, 0.05,
                                           np.full(n_mid, 0.1))
            finally:
                sys.setprofile(previous)
            counts.append(calls.copy())
        assert len(tables) == 2
        per_150 = {name: counts[1][name] - counts[0][name]
                   for name in counts[0] | counts[1]}
        assert {name: n for name, n in per_150.items() if n} == {
            "ndarray.dot": 3 * 150, "ndarray.tolist": 150, "acos": 150,
            "np.multiply": 150, "np.cos": 150}


class TestStepStack:
    """The stacks the optimizers build once per field, step by step against
    ``expm`` of the step generator."""

    def test_ket(self, hamiltonian_data, rng):
        n_mid, dt = 30, 0.05
        amps = rng.normal(size=(n_mid, hamiltonian_data[1].shape[0]))
        # a real model's symmetric parts step without a realification
        for drift, coups in real_and_complex(hamiltonian_data):
            steps = _kernels.step_stack_ket(
                _kernels.generator(drift, coups, amps), dt)
            assert steps.shape == (n_mid,) + drift.shape
            for k in range(n_mid):
                h = drift + np.tensordot(amps[k], coups, 1)
                assert close(steps[k], expm(-1j * dt * h))

    def test_builder(self, hamiltonian_data, rng, tables):
        # A stack builder over the box [-1, 1]^2: stacks inside it are read
        # off one table, at RTOL of expm; a stack with a row past the box,
        # and every stack of a box that needs more than max_nodes nodes or
        # is not finite, are the series, bit for bit.
        drift, coups = hamiltonian_data
        dt = 0.05
        amps = rng.uniform(-1.0, 1.0, size=(60, 2, 2))

        def series(amps):
            return _kernels.step_stack_ket(
                _kernels.generator(drift, coups, amps), dt)

        stack_of = _kernels.ket_stack_builder(drift, coups, dt, [-1.0] * 2,
                                              [1.0] * 2, amps.size // 2)
        assert len(tables) == 1 and tables[0].nodes < amps.size // 2
        steps = stack_of(amps)
        assert steps.shape == (60, 2, 3, 3)
        for k, p in np.ndindex(60, 2):
            h = drift + np.tensordot(amps[k, p], coups, 1)
            assert close(steps[k, p], expm(-1j * dt * h))
        amps[7, 1, 0] = np.nextafter(1.0, 2.0)
        assert np.array_equal(stack_of(amps), series(amps))
        for hi, max_nodes in ((1.0, tables[0].nodes - 1), (np.inf, 80)):
            stack_of = _kernels.ket_stack_builder(
                drift, coups, dt, [-1.0] * 2, [hi] * 2, max_nodes)
            assert np.array_equal(stack_of(amps), series(amps))
        assert len(tables) == 1

    def test_density(self, generator_data, rng):
        gen0, gens = generator_data
        n_mid, dt = 20, 0.08
        amps = rng.normal(size=(n_mid, gens.shape[0]))
        steps = _kernels.step_stack_dm(gen0, gens, amps, dt)
        assert steps.shape == (n_mid,) + gen0.shape
        for k in range(n_mid):
            gen = gen0 + np.tensordot(amps[k], gens, 1)
            assert close(steps[k], expm(dt * gen))


def dissipative_generator(seed, dim):
    """A seeded complex GKLS generator ``G0 + 0.7 G1`` of ``dim`` levels:
    a random drift and coupling, and two random jump operators."""
    rng = np.random.default_rng(seed)
    h = ControlledHamiltonian(random_hermitian(rng, dim),
                              [(random_hermitian(rng, dim), 0)])
    jumps = [Operator(0.3 * random_block(rng, (dim, dim))) for _ in range(2)]
    gen0, gens = gkls_generator_parts(Liouvillian(h, jumps))
    return gen0 + 0.7 * gens[0]


class TestExpmSeries:
    """``expm_series`` against 40-digit mpmath exponentials: the reset
    model's real 8x8 GKLS generator and seeded complex ones, scaled to
    ``||G dt||_1`` 1, 1e2 and 1e3, the domain its docstring states.  The
    three scalings of a model go through one stacked call, so each matrix
    takes its own number of squarings."""

    NORMS = (1.0, 1e2, 1e3)

    @pytest.mark.parametrize("model", ["reset", (1, 3), (2, 2)],
                             ids=["reset", "seeded_3_level", "seeded_2_level"])
    def test_against_mpmath(self, model):
        if model == "reset":
            gen0, gens = reset_parts()
            gen = gen0 + gens[0]
        else:
            gen = dissipative_generator(*model)
        stack = np.stack([gen * (n / np.linalg.norm(gen, 1))
                          for n in self.NORMS])
        got = _kernels.expm_series(stack)
        assert got.dtype == gen.dtype and got.shape == stack.shape
        for x, step, norm in zip(stack, got, self.NORMS):
            # about ||G dt||_1 eps, measured at up to 0.16 of it
            assert close(step, mp_expm(x), 4 * np.finfo(float).eps * norm)

    def test_truncation_at_unit_norm(self):
        # 1x1 matrices scaled to just below norm 1 by 0 to 3 squarings,
        # where ||X^k|| = ||X||^k: the series' first term left out is
        # largest here, so a lower degree fails
        c = np.array([0.99, -0.99, 1.99, -3.99, 7.99])
        got = _kernels.expm_series(c[:, None, None])
        for step, x in zip(got, c):
            assert close(step, math.exp(x), 4 * np.finfo(float).eps * abs(x))


class TestPropagateAdjoint:
    """A Krotov pass's step stack through ``propagate_steps``, adjointed
    backward and applied forward, against ``propagate_pwc_*`` runs of the
    same field, generator and ``dt`` in the same direction, which
    exponentiate every step afresh."""

    @staticmethod
    def check_ket(hamiltonian_data, rng, direction, n_ens):
        drift, coups = hamiltonian_data
        n_mid, n, dt = 60, drift.shape[0], 0.05
        amps = rng.normal(size=(n_mid, coups.shape[0]))
        psi0 = random_block(rng, (3, n))
        chi = random_block(rng, (n_mid + 1, 3, n))
        gain = rng.uniform(0, 0.5, size=n_mid)
        _, steps = _kernels.krotov_forward_ket(drift, coups, amps, chi, psi0,
                                               dt, gain)
        shape = (n,) if n_ens is None else (n_ens, n)
        state = random_block(rng, shape)
        got = _kernels.propagate_steps(steps, state, direction)
        ref = _kernels.propagate_pwc_ket(drift, coups, amps, dt, state,
                                         direction)
        assert got.shape == ref.shape == (n_mid + 1,) + shape
        assert close(got, ref)

    @staticmethod
    def check_density(generator_data, rng, direction, n_ens):
        gen0, gens = (0.2 * g for g in generator_data)
        n_mid, n, dt = 70, gen0.shape[0], 0.05
        amps = rng.normal(size=(n_mid, gens.shape[0]))
        rho0 = random_block(rng, (2, n))
        chi = random_block(rng, (n_mid + 1, 2, n))
        gain = rng.uniform(0, 0.1, size=n_mid)
        _, steps = _kernels.krotov_forward_dm(gen0, gens, amps, chi, rho0,
                                              dt, gain)
        shape = (n,) if n_ens is None else (n_ens, n)
        state = random_block(rng, shape)
        got = _kernels.propagate_steps(steps, state, direction)
        ref = _kernels.propagate_pwc_dm(gen0, gens, amps, dt, state,
                                        direction)
        assert got.shape == ref.shape == (n_mid + 1,) + shape
        assert close(got, ref)

    @pytest.mark.parametrize("n_ens", [None, 3])
    def test_ket(self, hamiltonian_data, rng, n_ens):
        self.check_ket(hamiltonian_data, rng, -1, n_ens)

    @pytest.mark.parametrize("n_ens", [None, 3])
    def test_ket_forward(self, hamiltonian_data, rng, n_ens):
        self.check_ket(hamiltonian_data, rng, 1, n_ens)

    @pytest.mark.parametrize("n_ens", [None, 3])
    def test_density(self, generator_data, rng, n_ens):
        self.check_density(generator_data, rng, -1, n_ens)

    @pytest.mark.parametrize("n_ens", [None, 3])
    def test_density_forward(self, generator_data, rng, n_ens):
        self.check_density(generator_data, rng, 1, n_ens)


def per_step(steps, state, direction):
    """``propagate_steps`` as one product per step, ``state @ S^T`` forward
    and ``state @ conj(S)`` backward: the loop that blocks narrower than
    their states keep, and the reference of the chunked one."""
    n_mid = len(steps)
    out = np.empty((n_mid + 1,) + state.shape,
                   dtype=np.result_type(steps, state))
    if direction > 0:
        mats = np.swapaxes(steps, -1, -2)
        out[0] = state
        for k in range(n_mid):
            np.matmul(out[k], mats[k], out=out[k + 1])
    else:
        mats = np.conj(steps)
        out[-1] = state
        for k in range(n_mid - 1, -1, -1):
            np.matmul(out[k + 1], mats[k], out=out[k])
    return out


class TestChunkedSteps:
    """``propagate_steps`` on blocks of ``W >= N`` states, which take a
    block's ``n`` steps in chunks of ``isqrt(n)`` running products,
    against the per-step loop at ``RTOL``; narrower blocks keep that loop,
    bitwise."""

    # around one chunk of the gate grid (isqrt(400) = 20), around that
    # square, and across the boundaries of block_rows(4) = 1024
    KET_STEPS = [1, 2, 19, 20, 21, 399, 400, 401, 1024 + 37, 2 * 1024 + 1]
    # around a chunk of 4 and across block_rows(8) = 256
    GKLS_STEPS = [1, 2, 15, 16, 17, 256 + 17, 2 * 256 + 1]

    @pytest.mark.parametrize("n_mid", KET_STEPS)
    @pytest.mark.parametrize("direction", [1, -1])
    def test_ket(self, rng, direction, n_mid):
        n = 4
        for real in (False, True):
            drift, coups = hermitian_parts(rng, n, 2, real)
            steps = _kernels.step_stack_ket(_kernels.generator(
                drift, coups, rng.normal(size=(n_mid, 2))), 0.05)
            for width in (n, n + 2):
                state = random_block(rng, (width, n))
                assert close(_kernels.propagate_steps(steps, state,
                                                      direction),
                             per_step(steps, state, direction))
            for shape in ((n,), (n - 1, n)):
                state = random_block(rng, shape)
                assert np.array_equal(
                    _kernels.propagate_steps(steps, state, direction),
                    per_step(steps, state, direction))

    @pytest.mark.parametrize("n_mid", GKLS_STEPS)
    @pytest.mark.parametrize("direction", [1, -1])
    def test_density(self, rng, direction, n_mid):
        # the reset model's GKLS steps in its real 8-dimensional basis:
        # real, and not unitary.  Real steps of N <= SMALL_REAL take chunks
        # at any width, so single vectors and (2, d) blocks match the loop
        # at RTOL too, and bitwise where the chunks are of one step
        gen0, gens = reset_parts()
        steps = _kernels.step_stack_dm(gen0, gens,
                                       rng.normal(size=(n_mid, 1)), 0.5)
        d = steps.shape[-1]
        assert d <= _fallback.SMALL_REAL
        for width in (d, d + 3):
            state = rng.normal(size=(width, d))
            got = _kernels.propagate_steps(steps, state, direction)
            assert got.dtype == np.float64
            assert close(got, per_step(steps, state, direction))
        for shape in ((d,), (2, d)):
            state = rng.normal(size=shape)
            got = _kernels.propagate_steps(steps, state, direction)
            ref = per_step(steps, state, direction)
            assert close(got, ref)
            if n_mid < 4:  # isqrt(n_mid) = 1
                assert np.array_equal(got, ref)

    def test_member_block_of_single_kets(self, hamiltonian_data, rng):
        # the bichromatic shape: 16 members of one 3-level ket each
        drift, coups = hamiltonian_data
        steps = _kernels.step_stack_ket(_kernels.generator(
            drift, coups, rng.normal(size=(113, 16, coups.shape[0]))), 0.05)
        state = random_block(rng, (16, 1, drift.shape[0]))
        for direction in (1, -1):
            assert np.array_equal(
                _kernels.propagate_steps(steps, state, direction),
                per_step(steps, state, direction))

    @pytest.mark.parametrize("shape, most", [
        # (steps, members, N, W, real): a gate's basis, a single ket, the
        # reset co-states and the bichromatic members
        pytest.param((400, (), 4, 4, False), 2 * 20 + 2, id="4-42"),
        pytest.param((400, (), 4, 1, False), 400, id="1-400"),
        # two blocks of block_rows(8) = 256 and 44 steps: 15 + 16 and 5 + 8
        pytest.param((300, (), 8, 1, True), 44, id="reset"),
        pytest.param((113, (16,), 3, 1, False), 113, id="bichromatic")])
    @pytest.mark.parametrize("direction", [1, -1])
    def test_products_per_pass(self, rng, monkeypatch, direction, shape,
                               most):
        # 400 steps of a gate's basis make about 2 sqrt(400) products, not
        # one per step, and so do the reset model's real 8x8 co-states of
        # a single vector; complex single kets, members or not, make one
        # per step
        n_mid, members, n, width, real = shape
        drift, coups = hermitian_parts(rng, n, 2, real)
        steps = _kernels.generator(drift, coups,
                                   rng.normal(size=(n_mid,) + members + (2,)))
        if real:
            steps = expm(0.05 * steps)
            assert not np.iscomplexobj(steps) and n <= _fallback.SMALL_REAL
        else:
            steps = _kernels.step_stack_ket(steps, 0.05)
        state = rng.normal(size=members + (width, n)) if real \
            else random_block(rng, members + (width, n))
        calls = []
        matmul = np.matmul

        def counting(*args, **kwargs):
            calls.append(1)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counting)
        got = _kernels.propagate_steps(steps, state, direction)
        monkeypatch.undo()
        assert close(got, per_step(steps, state, direction))
        assert len(calls) <= most
        assert len(calls) > most // 2


class TestMemberAxis:
    """Stacks with a member axis: P independent trajectories, each with its
    own steps, stepped as one ``(P, W, N)`` block, bitwise equal to P
    separate runs."""

    @pytest.mark.parametrize("n_members, width", [
        pytest.param(1, 1, id="1"), pytest.param(5, 1, id="5"),
        pytest.param(5, 3, id="5-chunked")])
    @pytest.mark.parametrize("direction", [1, -1])
    def test_propagate_steps(self, hamiltonian_data, rng, direction,
                             n_members, width):
        drift, coups = hamiltonian_data
        n = drift.shape[0]
        # W = N takes chunks of the block's steps: a member run keeps its
        # solo runs' chunks where it keeps their blocks, within
        # block_rows(N, P) steps
        n_mid = 2 * _kernels.block_rows(n) + 5 if width < n \
            else _kernels.block_rows(n, n_members) - 3
        stacks = [_kernels.step_stack_ket(_kernels.generator(
            drift, coups, rng.normal(size=(n_mid, coups.shape[0]))), 0.05)
            for _ in range(n_members)]
        state = random_block(rng, (n_members, width, n))
        got = _kernels.propagate_steps(np.stack(stacks, axis=1), state,
                                       direction)
        assert got.shape == (n_mid + 1, n_members, width, n)
        for p, steps in enumerate(stacks):
            ref = _kernels.propagate_steps(steps, state[p], direction)
            assert np.array_equal(got[:, p], ref)

    @staticmethod
    def check_step_stack_ket(drift, coups, amps, dt):
        """Each member's steps of a ``(rows, P)`` stack against its solo
        run, bitwise, and against ``expm``."""
        rows, n_members = amps.shape[:2]
        got = _kernels.step_stack_ket(
            _kernels.generator(drift, coups, amps), dt)
        assert got.shape == (rows, n_members) + drift.shape
        for p in range(n_members):
            ref = _kernels.step_stack_ket(
                _kernels.generator(drift, coups, amps[:, p].copy()), dt)
            assert np.array_equal(got[:, p], ref)
            for k in range(rows):
                h = drift + np.tensordot(amps[k, p], coups, 1)
                assert close(got[k, p], expm(-1j * dt * h))

    def test_step_stack_ket(self, hamiltonian_data, rng):
        amps = rng.normal(size=(40, 4, hamiltonian_data[1].shape[0]))
        for drift, coups in real_and_complex(hamiltonian_data):
            self.check_step_stack_ket(drift, coups, amps, 0.05)

    def test_large_member_next_to_small_ones(self, hamiltonian_data, rng):
        # A member whose ||H dt|| needs double-angle steps leaves its
        # neighbours' bits alone: each step is scaled by its own norm.
        amps = rng.normal(size=(12, 5, hamiltonian_data[1].shape[0]))
        amps[:, 2] *= 400.0
        amps[3, 4] *= 400.0
        for drift, coups in real_and_complex(hamiltonian_data):
            norms = np.linalg.norm(
                0.05 * _kernels.generator(drift, coups, amps), axis=(-2, -1))
            assert norms[:, 2].min() > 8.0 > 1.0 > norms[:, :2].max()
            self.check_step_stack_ket(drift, coups, amps, 0.05)


@pytest.mark.parametrize("name, state", [
    ("propagate_pwc_ket", "psi0"), ("propagate_pwc_dm", "rho0_vec"),
    ("krotov_forward_ket", "psi0"), ("krotov_forward_dm", "rho0_vec")])
def test_traced_kernel_parameters(name, state):
    # perfbench/tracer.py wraps these four kernels and reads their arguments
    # by name: amps and dt to count steps, the boundary state to count
    # members, direction to split forward from backward ket passes
    params = inspect.signature(getattr(_kernels, name)).parameters
    expected = {"amps", "dt", state}
    if name.startswith("propagate_pwc"):
        expected.add("direction")
    assert expected <= set(params)


class TestProperties:
    """Kernel invariants on random small models, drawn by hypothesis."""

    @PROPERTY
    @given(models())
    def test_ket_steps_unitary(self, model):
        steps = _kernels.step_stack_ket(_kernels.generator(
            *model.parts, model.amps), model.dt)
        eye = np.eye(steps.shape[-1])
        assert np.max(np.abs(steps @ np.conj(np.swapaxes(steps, 1, 2))
                             - eye)) <= 1e-12

    @PROPERTY
    @given(models(), st.integers(1, 3))
    def test_forward_backward_round_trip(self, model, n_ens):
        steps = _kernels.step_stack_ket(_kernels.generator(
            *model.parts, model.amps), model.dt)
        rng = np.random.default_rng(n_ens)
        block = random_block(rng, (n_ens, steps.shape[-1]))
        block /= np.linalg.norm(block, axis=1, keepdims=True)
        fwd = _kernels.propagate_steps(steps, block, 1)
        back = _kernels.propagate_steps(steps, fwd[-1], -1)
        assert np.max(np.abs(back[0] - block)) <= 1e-10

    @PROPERTY
    @given(models())
    def test_density_matches_full_expm_loop(self, model):
        liou, dim = model.liouvillian, model.rho0.dim
        n_steps = model.amps.shape[0]
        grid = TimeGrid(0.0, model.dt * n_steps, n_steps + 1)
        fields = [ControlField(grid, col) for col in model.amps.T]
        got = propagate_density(liou, fields, grid, model.rho0)
        gen0, gens = gkls_generator_parts(liou)
        ref = reference_propagation(gen0, gens, model.amps, model.dt,
                                    vectorize_density(model.rho0.rho), 1)
        assert np.max(np.abs(got.array - ref.reshape(-1, dim, dim))) \
            <= 1e-10
        assert got.max_norm_drift() <= 1e-12
