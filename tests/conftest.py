import os

# qoctl's matrices are 2x2 to 16x16, where extra BLAS threads only contend
# for cores; set before numpy loads BLAS.  The CLI subprocess tests inherit
# these values.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
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
