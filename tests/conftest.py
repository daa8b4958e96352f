# qoctl.cli pins the BLAS threads before numpy loads BLAS; the CLI
# subprocess tests inherit its values.
import qoctl.cli  # noqa: F401

import numpy as np
import pytest

from qoctl import core


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)


@pytest.fixture
def paulis():
    return core.sigma_x(), core.sigma_y(), core.sigma_z()


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return core.Operator(0.5 * (m + m.conj().T))


def random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return core.QuantumState.from_density(rho / np.trace(rho))


def random_ket(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return core.QuantumState.from_ket(v / np.linalg.norm(v))


def random_unitary(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))
