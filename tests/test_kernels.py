"""The block kernels against a plain per-step ``scipy.linalg.expm`` loop.

The references below step one member at a time through the textbook
exponential of every step generator, so they check the batched
eigendecomposition, the block layout of ensembles, the in-place field
update of the Krotov passes and the step stacks those passes return at
once.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from qoctl import _kernels
from qoctl.core import Liouvillian
from qoctl.dynamics import (ControlField, TimeGrid, gkls_generator_parts,
                            propagate_density, reduced_gkls_parts,
                            vectorize_density)
from qoctl.scenarios import reset_model

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


def reference_krotov(gen0, gens, ops, amps, chi, state0, scale, gain):
    """Per-control, per-member update loop, then the expm step; returns the
    states and the step operators."""
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
        steps[k] = expm(scale * g)
        for w in range(n_ens):
            out[k + 1, w] = steps[k] @ out[k, w]
    return out, steps


@pytest.fixture
def hamiltonian_data(rng):
    n, m = 3, 2
    mats = random_block(rng, (1 + m, n, n))
    herm = 0.5 * (mats + np.conj(np.transpose(mats, (0, 2, 1))))
    return herm[0].copy(), herm[1:].copy()


@pytest.fixture
def generator_data(rng):
    n, m = 16, 2  # vectorized two-qubit generator
    return (0.25 * random_block(rng, (n, n)),
            0.25 * random_block(rng, (m, n, n)))


class TestKetPropagation:
    # more steps than one eigh block, so block edges are crossed both ways
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
        comms = random_block(rng, gens.shape)
        chi = random_block(rng, (n_mid + 1, n_ens, n))
        gain = rng.uniform(0, 0.1, size=n_mid)
        amps_ref = amps.copy()
        got, steps = _kernels.krotov_forward_dm(gen0, gens, comms, amps, chi,
                                                rho0, 0.05, gain)
        # the GKLS update is Re(chi^dag R_j rho) = Im(chi^dag (1j R_j) rho)
        ref, ref_steps = reference_krotov(gen0, gens, 1j * comms, amps_ref,
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
        comms = np.stack([np.kron(op.matrix, eye) - np.kron(eye, op.matrix.T)
                          for op in h.control_operators()])
        n_mid, n_ens, d = 40, 2, gen0.shape[0]
        amps = rng.normal(size=(n_mid, 1))
        rho = rng.normal(size=(n_ens, d))
        chi = rng.normal(size=(n_mid + 1, n_ens, d))
        gain = rng.uniform(0, 0.1, size=n_mid)
        amps_ref = amps.copy()
        got, steps = _kernels.krotov_forward_dm(gen0, gens, gens, amps, chi,
                                                rho, 0.05, gain)
        ref, ref_steps = reference_krotov(full0, fulls, comms, amps_ref,
                                          chi @ basis.T, rho @ basis.T, 0.05,
                                          gain)
        assert got.dtype == steps.dtype == np.float64
        assert close(amps, amps_ref, 1e-10)
        assert close(got @ basis.T, ref, 1e-10)
        assert close(basis @ steps @ basis.conj().T,
                     ref_steps @ basis @ basis.conj().T, 1e-10)


class TestStepStack:
    """The stacks the optimizers build once per field, step by step against
    ``expm`` of the step generator."""

    def test_ket(self, hamiltonian_data, rng):
        drift, coups = hamiltonian_data
        n_mid, dt = 30, 0.05
        amps = rng.normal(size=(n_mid, coups.shape[0]))
        steps, w, v = _kernels.step_stack_ket(
            _kernels.generator(drift, coups, amps), dt)
        assert steps.shape == v.shape == (n_mid,) + drift.shape
        for k in range(n_mid):
            h = drift + np.tensordot(amps[k], coups, 1)
            assert close(steps[k], expm(-1j * dt * h))
            assert close((v[k] * w[k]) @ v[k].conj().T, h)

    def test_density(self, generator_data, rng):
        gen0, gens = generator_data
        n_mid, dt = 20, 0.08
        amps = rng.normal(size=(n_mid, gens.shape[0]))
        steps = _kernels.step_stack_dm(gen0, gens, amps, dt)
        assert steps.shape == (n_mid,) + gen0.shape
        for k in range(n_mid):
            gen = gen0 + np.tensordot(amps[k], gens, 1)
            assert close(steps[k], expm(dt * gen))


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
        _, steps = _kernels.krotov_forward_dm(gen0, gens, random_block(
            rng, gens.shape), amps, chi, rho0, dt, gain)
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


class TestMemberAxis:
    """Stacks with a member axis: P independent trajectories, each with its
    own steps, stepped as one ``(P, 1, N)`` block, bitwise equal to P
    separate runs."""

    @pytest.mark.parametrize("n_members", [1, 5])
    @pytest.mark.parametrize("direction", [1, -1])
    def test_propagate_steps(self, hamiltonian_data, rng, direction,
                             n_members):
        drift, coups = hamiltonian_data
        n = drift.shape[0]
        n_mid = 2 * _kernels.block_rows(n) + 5
        stacks = [_kernels.step_stack_ket(_kernels.generator(
            drift, coups, rng.normal(size=(n_mid, coups.shape[0]))), 0.05)[0]
            for _ in range(n_members)]
        state = random_block(rng, (n_members, 1, n))
        got = _kernels.propagate_steps(np.stack(stacks, axis=1), state,
                                       direction)
        assert got.shape == (n_mid + 1, n_members, 1, n)
        for p, steps in enumerate(stacks):
            ref = _kernels.propagate_steps(steps, state[p], direction)
            assert np.array_equal(got[:, p], ref)

    def test_step_stack_ket(self, hamiltonian_data, rng):
        drift, coups = hamiltonian_data
        rows, n_members, n = 40, 4, drift.shape[0]
        amps = rng.normal(size=(rows, n_members, coups.shape[0]))
        got = _kernels.step_stack_ket(
            _kernels.generator(drift, coups, amps), 0.05)
        assert got[0].shape == (rows, n_members, n, n)
        for p in range(n_members):
            ref = _kernels.step_stack_ket(
                _kernels.generator(drift, coups, amps[:, p].copy()), 0.05)
            for got_part, ref_part in zip(got, ref):
                assert np.array_equal(got_part[:, p], ref_part)


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
            *model.parts, model.amps), model.dt)[0]
        eye = np.eye(steps.shape[-1])
        assert np.max(np.abs(steps @ np.conj(np.swapaxes(steps, 1, 2))
                             - eye)) <= 1e-12

    @PROPERTY
    @given(models(), st.integers(1, 3))
    def test_forward_backward_round_trip(self, model, n_ens):
        steps = _kernels.step_stack_ket(_kernels.generator(
            *model.parts, model.amps), model.dt)[0]
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
