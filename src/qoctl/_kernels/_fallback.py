"""Piecewise-constant propagation kernels in numpy.

A step stack holds the ``(nt-1, N, N)`` step operators of one field:
``step_stack_ket`` exponentiates a given stack of step Hamiltonians as
``cos X - 1j sin X``, ``X = H dt``, from Taylor series in real arithmetic
(``_cos_sin``); ``step_stack_dm`` exponentiates the GKLS generators of
``amps`` in one stacked ``expm`` call.  ``propagate_steps`` steps states
forward through a stack and co-states backward through its adjoints.
``propagate_pwc_ket`` and ``propagate_pwc_dm`` build and apply the steps a
block at a time.  The sequential Krotov passes ``krotov_forward_ket`` and
``krotov_forward_dm`` differ only in how they make a step, one at a time
(an ``eigh`` for kets, an ``expm`` for GKLS generators); both run one
loop, ``krotov_forward``, which updates the field while it steps and
returns the updated field's stack.  Every generator they step, a
Hamiltonian ``H0 + sum_j u_j H_j`` or a GKLS one, comes from ``generator``.

Conventions shared by the entry points:

* ``amps`` has shape ``(nt - 1, n_controls)``: one sample per midpoint.
* Step ``k`` applies the exponential of the generator built from
  ``amps[k]``.  ``direction=+1`` fills ``out[k+1]`` from ``out[k]``;
  ``direction=-1`` fills ``out[k]`` from ``out[k+1]`` with ``out[-1]`` set
  to the boundary value (same midpoint grid in both directions).
* For kets the step operator is ``exp(-1j * H * dt)``; for density
  matrices it is ``expm(G * dt)`` of a GKLS generator in any basis (qoctl
  passes real parts in the basis of ``dynamics.reduced_gkls_parts``).
  Every entry point takes the forward generator and ``dt > 0``;
  ``direction=-1`` applies the adjoints of the forward steps.
* A boundary state of shape ``(N,)`` is one state; ``(W, N)`` is a block of
  W states (an ensemble, or the columns of a propagator) stepped together
  through the same step operators.  States are rows, so a step is applied
  as ``state @ step.T``.
* A step stack may carry a member axis, ``(nt-1, P, N, N)``: P independent
  trajectories, each with its own steps, stepped as one ``(P, W, N)``
  block by ``propagate_steps``.  ``step_stack_ket`` builds such a stack
  from ``(nt-1, P, N, N)`` Hamiltonians; ``block_rows`` says how many
  steps of it make one block.
"""

import math

import numpy as np

BACKEND = "python"

# propagate_pwc_* build step operators a block at a time: one series over a
# stack (kets) or one generator assembly (GKLS) per block amortizes the
# Python overhead per step.  A block holds at most BLOCK steps, and at most
# as many elements as BLOCK 4x4 matrices, so its memory grows with neither
# the grid nor the dimension.
BLOCK = 1024

# cos X and sin X / X as polynomials of degree DEGREE in Y = X @ X, for
# ||X||_F <= 1: the first terms left out, 1/18! and 1/19!, are below the
# float64 epsilon 2^-52.  Each polynomial is evaluated as A(Y) + Y^4 B(Y);
# the rows of SERIES are the coefficients of A and B for cos, then for
# sin / X, over the powers I, Y, Y^2, Y^3, Y^4.
DEGREE = 8
_COS = [(-1) ** k / math.factorial(2 * k) for k in range(DEGREE + 1)]
_SIN = [(-1) ** k / math.factorial(2 * k + 1) for k in range(DEGREE + 1)]
SERIES = np.array([_COS[:4] + [0.0], _COS[4:], _SIN[:4] + [0.0], _SIN[4:]])


def block_rows(dim, n_members=1):
    """Steps per block of ``(dim, dim)`` step operators for ``n_members``
    trajectories: at most ``BLOCK``, and at most as many elements as
    ``BLOCK`` 4x4 matrices over all members."""
    return max(1, min(BLOCK, BLOCK * 4 ** 2 // (dim ** 2 * n_members)))


def step_stack_ket(hams, dt):
    """Step unitaries ``exp(-1j * H_k * dt) = cos X_k - 1j sin X_k``,
    ``X_k = H_k dt``, of a Hermitian stack ``hams`` ``(..., N, N)``.  A
    ``(nt-1, P, N, N)`` stack gives steps with a member axis.

    A real stack is a real symmetric ``X``, whose cos and sin are real.  A
    complex one, ``X = A + 1j B``, goes through its real symmetric
    realification ``[[A, -B], [B, A]]``: the cos and sin of that are the
    realifications of ``cos X`` and ``sin X``, and their left block column
    holds the real and imaginary parts.  Both triangles are read.
    """
    if not np.iscomplexobj(hams):
        cos, sin = _cos_sin(np.asarray(hams, dtype=float) * dt)
        steps = np.empty(cos.shape, dtype=complex)
        steps.real = cos
        np.negative(sin, out=steps.imag)
        return steps
    n = hams.shape[-1]
    x = np.empty(hams.shape[:-2] + (2 * n, 2 * n))
    x[..., :n, :n] = x[..., n:, n:] = hams.real * dt
    x[..., n:, :n] = hams.imag * dt
    np.negative(x[..., n:, :n], out=x[..., :n, n:])
    cos, sin = _cos_sin(x)
    steps = np.empty(hams.shape, dtype=complex)
    np.add(cos[..., :n, :n], sin[..., n:, :n], out=steps.real)
    np.subtract(cos[..., n:, :n], sin[..., :n, :n], out=steps.imag)
    return steps


def _cos_sin(x):
    """``cos X`` and ``sin X`` of a stack ``x`` ``(..., n, n)`` of real
    symmetric matrices, each from its own entries alone: scaled by the
    least ``2^-s`` that brings ``||X||_F`` to 1 or below (exactly, as a
    power of two), the ``DEGREE`` series in ``Y = X @ X``, then ``s``
    double-angle steps ``cos 2X = C^2 - S^2``, ``sin 2X = 2 S C``
    (Moler & Van Loan, SIAM Rev. 45, 3 (2003); Higham, Functions of
    Matrices, ch. 12).
    """
    n = x.shape[-1]
    # I, Y, Y^2, Y^3, Y^4 with the power axis first, so that the series'
    # linear combinations are one product over every matrix's entries
    powers = np.empty((5,) + x.shape)
    powers[0] = np.eye(n)
    y = np.matmul(x, x, out=powers[1])
    # tr(X @ X) = ||X||_F^2 for symmetric X; s = ceil(e / 2) gives
    # ||X||_F^2 < 2^e <= 4^s
    s = np.maximum(np.frexp(np.einsum("...ii->...", y))[1] + 1, 0) // 2
    if s.any():
        scale = np.ldexp(1.0, -s)[..., None, None]
        x = x * scale
        y *= scale * scale
    np.matmul(y, y, out=powers[2])
    np.matmul(powers[1:3], powers[2], out=powers[3:])
    parts = (SERIES @ powers.reshape(5, -1)).reshape((4,) + x.shape)
    # I, Y and Y^2 are spent: their memory takes cos X, sin X / X, sin X
    poly = np.matmul(powers[4], parts[1::2], out=powers[:2])
    poly += parts[0::2]
    cos, sin = poly[0], np.matmul(x, poly[1], out=powers[2])
    for j in range(s.max(initial=0)):
        sel = np.nonzero(s > j)
        c, sn = cos[sel], sin[sel]
        sin[sel] = 2.0 * (sn @ c)
        # C^2 - S^2 in one product: C and S commute
        cos[sel] = (c + sn) @ (c - sn)
    return cos, sin


def step_stack_dm(gen0, gens, amps, dt):
    """Step operators ``expm(G_k * dt)``: one Pade exponential call over the
    whole stack of generators (the generator is not normal)."""
    # deferred: scipy.linalg is over half a start-up; only GKLS steps use it
    from scipy.linalg import expm
    return expm(generator(gen0 * dt, gens * dt, amps))


def propagate_steps(steps, state, direction):
    """Step a block through a step stack, or back through its adjoints.

    ``+1``: ``out[k+1] = steps[k] out[k]`` from ``out[0] = state``.  ``-1``:
    ``out[k] = steps[k]^dag out[k+1]`` from ``out[-1] = state``, which is the
    backward run of ``propagate_pwc_ket`` or ``propagate_pwc_dm`` without
    exponentials.  ``state`` is ``(N,)`` or ``(W, N)``, as for the other
    entry points; with a member axis on the stack, ``(n, P, N, N)``, it is
    a ``(P, W, N)`` block and member ``p`` steps through ``steps[:, p]``.
    """
    return _propagate(lambda block: block, steps, state, direction,
                      np.result_type(steps, state))


def propagate_pwc_ket(drift, coups, amps, dt, psi0, direction):
    """Piecewise-constant-exponential propagation of a state vector block.

    Parameters
    ----------
    drift : (N, N) float or complex ndarray
    coups : (M, N, N) float or complex ndarray
        One summed coupling matrix per control channel.  Real parts give
        real step Hamiltonians, which ``step_stack_ket`` takes without a
        realification.
    amps : (nt-1, M) float ndarray
    dt : positive float
    psi0 : (N,) or (W, N) complex ndarray
        Boundary state(s): at ``t0`` for ``direction=+1``, at ``tf`` for
        ``-1``.
    direction : int

    Returns
    -------
    (nt, N) or (nt, W, N) complex ndarray, indexed by state-grid point.
    """
    return _propagate(
        lambda block: step_stack_ket(generator(drift, coups, block), dt),
        amps, psi0, direction, complex)


def propagate_pwc_dm(gen0, gens, amps, dt, rho0_vec, direction):
    """Same stepping for density matrices under a GKLS generator.

    The generator per step is ``gen0 + sum_j amps[k, j] * gens[j]`` and the
    step operator is its matrix exponential times ``dt`` (Pade scaling and
    squaring, one stacked call per block; the generator is not normal).
    ``rho0_vec`` is one ``(d,)`` coordinate vector or a ``(W, d)`` block,
    as for kets; ``direction=-1`` applies the adjoint steps.
    """
    return _propagate(lambda block: step_stack_dm(gen0, gens, block, dt),
                      amps, rho0_vec, direction,
                      np.result_type(gen0, gens, rho0_vec))


def krotov_forward_ket(drift, coups, amps, chi, psi0, dt, gain):
    """Sequential-update forward pass of the optimizer, ket variant.

    For each midpoint ``k`` the field update
    ``du_j = gain[k] * mean_w Im <chi[k, w] | C_j | psi[k, w]>``
    is applied to ``amps[k]`` **before** stepping the states through the
    exponential built from the updated amplitudes.

    Parameters
    ----------
    amps : (nt-1, M) float ndarray
        Updated in place.
    chi : (nt, W, N) complex ndarray
        Backward-propagated co-states on the state grid (W ensemble members).
    psi0 : (W, N) complex ndarray
    gain : (nt-1,) float ndarray
        Update shape over Krotov step size, ``S(t_k)/lambda`` (an ensemble
        average over W is taken internally).

    Returns
    -------
    states : (nt, W, N) complex ndarray of forward-propagated states.
    steps : (nt-1, N, N) complex ndarray
        The step unitaries ``exp(-1j * H_k * dt)`` of the updated field,
        each from the ``eigh`` of its step Hamiltonian.
    """
    def step_of(row):
        # one eigh costs less than the series for a single small matrix
        w, v = np.linalg.eigh(generator(drift, coups, row))
        return (v * np.exp(-1j * dt * w)) @ np.conj(v.T)

    # Im <chi|C_j|psi> = Re <chi|-1j C_j|psi>
    return krotov_forward(step_of, -1j * coups, amps, chi, psi0, gain)


def krotov_forward_dm(gen0, gens, amps, chi, rho0_vec, dt, gain):
    """Sequential-update forward pass, GKLS variant.

    The update operator of control ``j`` is its generator part
    ``R_j = gens[j]`` (``-i[H_j, .]`` for a control Hamiltonian ``H_j``):
    the update reads ``du_j = gain[k] * mean_w Re(chi[k, w]^dag R_j
    rho[k, w])``, in the real basis of ``dynamics.reduced_gkls_parts`` the
    real product ``chi^T R_j rho``.  Returns the states and the step
    operators ``expm(G_k * dt)`` of the updated field, shaped as for kets.
    """
    # deferred: scipy.linalg is over half a start-up; only GKLS steps use it
    from scipy.linalg import expm
    # scaled once per pass, not per step as step_stack_dm would
    gen0_dt, gens_dt = gen0 * dt, gens * dt
    return krotov_forward(lambda row: expm(generator(gen0_dt, gens_dt, row)),
                          gens, amps, chi, rho0_vec, gain)


def krotov_forward(step_of, ops, amps, chi, state0, gain):
    """The sequential pass both Krotov variants run.

    For each midpoint ``k`` the update
    ``du_j = gain[k] * mean_w Re(chi[k, w]^dag ops[j] state[k, w])`` is
    added to ``amps[k]`` in place, then the ``(W, N)`` block is stepped
    through ``step_of(amps[k])``, the step operator of the updated row.
    Returns the ``(nt, W, N)`` states and the ``(nt-1, N, N)`` steps.
    """
    n_mid, n_ctrl = amps.shape
    # chi is fixed for the pass: contract it with ops for every step at
    # once, so that the update at step k is one product with the block
    proj = (chi[:-1, None].conj() @ ops).reshape(n_mid, n_ctrl, -1)
    rate = gain / state0.shape[0]  # the update is an ensemble mean
    dtype = np.result_type(state0, proj)
    out = np.empty((n_mid + 1,) + state0.shape, dtype=dtype)
    steps = np.empty((n_mid,) + ops.shape[1:], dtype=dtype)
    out[0] = state0
    for k in range(n_mid):
        amps[k] += rate[k] * (proj[k] @ out[k].ravel()).real
        steps[k] = step_of(amps[k])
        np.matmul(out[k], steps[k].T, out=out[k + 1])
    return out, steps


def _propagate(steps_of, amps, state0, direction, dtype):
    """Apply the step operators ``steps_of(amps block)``, or backward their
    adjoints, one block of steps at a time.  ``amps`` is only sliced along
    its first axis, one row per step; ``dtype`` is that of the states."""
    n_mid = amps.shape[0]
    out = np.empty((n_mid + 1,) + np.shape(state0), dtype=dtype)
    # a member axis sits between the step axis and the (W, N) states
    rows = block_rows(out.shape[-1], int(np.prod(out.shape[1:-2])))
    starts = range(0, n_mid, rows)
    if direction > 0:
        out[0] = state0
        for k0 in starts:
            # as states are rows: state @ S^T = S state
            block = np.swapaxes(steps_of(amps[k0:k0 + rows]), -1, -2)
            for i in range(k0, k0 + len(block)):
                np.matmul(out[i], block[i - k0], out=out[i + 1])
    else:
        out[n_mid] = state0
        for k0 in reversed(starts):
            # the adjoint, as states are rows: state @ conj(S) = S^dag state
            block = np.conj(steps_of(amps[k0:k0 + rows]))
            for i in range(k0 + len(block) - 1, k0 - 1, -1):
                np.matmul(out[i + 1], block[i - k0], out=out[i])
    return out


def generator(base, parts, amps):
    """``base + sum_j amps[..., j] * parts[j]`` for one row of ``amps`` or a
    block of rows (one matrix product instead of a loop over controls):
    the step Hamiltonians of a drift and its couplings, or the GKLS step
    generators of the drift part and the control parts."""
    gen = np.dot(amps, parts.reshape(parts.shape[0], base.size)).reshape(
        amps.shape[:-1] + base.shape)
    gen += base  # in place: a step stack is not allocated twice
    return gen


def __getattr__(name):
    # ``_fallback.expm`` resolves to the current ``scipy.linalg.expm`` only
    # for perfbench's tracer test, which reads the name; it goes with the
    # tracer's kernel patching (ROADMAP item 3b).  Binding it at import
    # would load scipy.linalg in every run.
    if name == "expm":
        import scipy.linalg
        return scipy.linalg.expm
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
