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


# A magic basis of the tests' own (Zhang, Vala, Sastry and Whaley, PRA 67,
# 042313 (2003)), not qoctl.functionals': in it local gates are real
# orthogonal.
MAGIC = np.array([[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1],
                  [1, -1j, 0, 0]]) / np.sqrt(2.0)


def is_perfect_entangler(u):
    """Exact test of Zhang et al. (2003): a two-qubit gate is a perfect
    entangler iff the convex hull of the eigenvalues of ``U_B^T U_B``
    (``U_B`` in the magic basis) holds 0, that is iff no gap between
    consecutive eigenphases on the unit circle exceeds pi."""
    ub = MAGIC.conj().T @ u @ MAGIC
    phases = np.sort(np.angle(np.linalg.eigvals(ub.T @ ub)))
    gaps = np.diff(np.append(phases, phases[0] + 2 * np.pi))
    return bool(gaps.max() <= np.pi)


def max_output_concurrence(u, rng, n_starts=3, presample=300):
    """Brute-force oracle: max concurrence of ``U|a,b>`` over separable
    inputs.  A coarse random presample picks the starts for a Nelder-Mead
    polish."""
    # deferred: only the few tests that call it pay for scipy.optimize
    from scipy.optimize import minimize
    sigma_y = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(sigma_y, sigma_y)

    def neg_c(x):
        a = np.array([np.cos(x[0]), np.exp(1j * x[1]) * np.sin(x[0])])
        b = np.array([np.cos(x[2]), np.exp(1j * x[3]) * np.sin(x[2])])
        psi = u @ np.outer(a, b).ravel()
        return -abs(psi @ (yy @ psi))

    xs = rng.uniform(0, 2 * np.pi, size=(presample, 4))
    vals = np.array([neg_c(x) for x in xs])
    order = np.argsort(vals)
    best = -vals[order[0]]
    for idx in order[:n_starts]:
        res = minimize(neg_c, xs[idx], method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14,
                                "maxiter": 4000})
        best = max(best, -res.fun)
    return best


def dressed_canonical_gate(rng, c):
    """``exp(i/2 (c1 XX + c2 YY + c3 ZZ))`` between random local gates."""
    paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1, -1]))
    w, v = np.linalg.eigh(0.5 * sum(ck * np.kron(p, p)
                                    for ck, p in zip(c, paulis)))
    left, right = (np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
                   for _ in range(2))
    return left @ (v * np.exp(1j * w)) @ v.conj().T @ right


def boundary_shell_gates(rng):
    """``(gate, inside)`` pairs at distances from 1e-7 to 0.03 pi on both
    sides of the three faces that bound the perfect entanglers in the Weyl
    chamber.  A face is given by a point inside it and its inward normal."""
    faces = [((1 / 3, 1 / 6, 1 / 12), (1, 1, 0)),     # c1 + c2 = pi/2
             ((2 / 3, 1 / 6, 1 / 12), (-1, 1, 0)),    # c1 - c2 = pi/2
             ((1 / 2, 3 / 8, 1 / 8), (0, -1, -1))]    # c2 + c3 = pi/2
    return [(dressed_canonical_gate(
                rng, np.pi * np.array(point)
                + side * delta * np.array(normal) / np.sqrt(2.0)), side == 1)
            for point, normal in faces
            for delta in (1e-7, 1e-4, 1e-2, 0.03 * np.pi)
            for side in (1, -1)]


# Weyl-chamber points (in units of pi) far from the perfect-entangler
# boundary, where the Nelder-Mead concurrence search is well conditioned:
# two perfect entanglers (the first is the B gate) and two that are not.
CONCURRENCE_CHECKS = [((1 / 2, 1 / 4, 0), True),
                      ((1 / 2, 1 / 8, 1 / 16), True),
                      ((1 / 8, 1 / 16, 0), False),
                      ((1 / 2, 9 / 20, 2 / 5), False)]
