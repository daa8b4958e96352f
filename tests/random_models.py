"""Random small models for the hypothesis property tests of the kernels
and the GRAPE gradients."""

from dataclasses import dataclass

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from qoctl.core import ControlledHamiltonian, Liouvillian, Operator

from conftest import random_density, random_hermitian


@dataclass
class Model:
    liouvillian: Liouvillian
    amps: np.ndarray  # (n_steps, n_controls)
    dt: float
    rho0: object

    @property
    def parts(self):
        h = self.liouvillian.hamiltonian
        return h.drift_matrix, h.coupling_stack


@st.composite
def models(draw):
    """A random model: 2 to 4 levels, 1 or 2 controls, 0 to 2 jump
    operators, a Hamiltonian that may be real symmetric, a drift whose two
    lowest levels may be split by only 1e-9, and controls whose samples
    may be that small, zero, or large enough that the ket steps need
    double-angle steps (``||H dt||`` up to about 25 over the drawn
    examples)."""
    dim = draw(st.integers(2, 4))
    n_ctrl = draw(st.integers(1, 2))
    n_jumps = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    real = draw(st.booleans())

    def hermitian():
        op = random_hermitian(rng, dim)
        return Operator(op.matrix.real) if real else op

    drift = hermitian()
    if draw(st.booleans()):
        w, v = np.linalg.eigh(drift.matrix.real if real else drift.matrix)
        w[1] = w[0] + 1e-9
        drift = Operator((v * w) @ v.conj().T)
    h = ControlledHamiltonian(drift, [(hermitian(), j)
                                      for j in range(n_ctrl)])
    jumps = [Operator(0.3 * (rng.normal(size=(dim, dim))
                             + 1j * rng.normal(size=(dim, dim))))
             for _ in range(n_jumps)]
    scale = draw(st.sampled_from([0.0, 1e-9, 1.0, 50.0]))
    amps = scale * rng.normal(size=(draw(st.integers(1, 40)), n_ctrl))
    return Model(Liouvillian(h, jumps), amps,
                 draw(st.sampled_from([0.01, 0.1, 0.5])),
                 random_density(rng, dim))


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)
