"""Piecewise-constant propagation kernels in numpy.

A step stack holds the ``(nt-1, N, N)`` step operators of one field:
``step_stack_ket`` builds the unitaries from one batched ``eigh`` and also
returns the eigenpairs, ``step_stack_dm`` takes one ``expm`` per GKLS step.
``propagate_steps`` steps states forward through a stack and co-states
backward through its adjoints.  ``propagate_pwc_ket`` and
``propagate_pwc_dm`` build and apply the steps a block at a time; the
sequential Krotov passes ``krotov_forward_ket`` and ``krotov_forward_dm``
update the field while they step and return the updated field's stack.

Conventions shared by the entry points:

* ``amps`` has shape ``(nt - 1, n_controls)``: one sample per midpoint.
* Step ``k`` applies the exponential of the generator built from
  ``amps[k]``.  ``direction=+1`` fills ``out[k+1]`` from ``out[k]``;
  ``direction=-1`` fills ``out[k]`` from ``out[k+1]`` with ``out[-1]`` set
  to the boundary value (same midpoint grid in both directions).
* For kets the step operator is ``exp(-1j * H * dt)``; a backward
  (adjoint) run is requested by passing ``-dt``.  For density matrices the
  step operator is ``expm(G * dt)``; adjointing the generator for backward
  runs is the caller's job.
* A boundary state of shape ``(N,)`` is one state; ``(W, N)`` is a block of
  W states (an ensemble, or the columns of a propagator) stepped together
  through the same step operators.  States are rows, so a step is applied
  as ``state @ step.T``.
"""

import numpy as np
from scipy.linalg import expm

BACKEND = "python"

# propagate_pwc_* build step operators a block at a time: one batched eigh
# (kets) or one generator assembly (GKLS) per block amortizes the Python
# overhead per step.  A block holds at most BLOCK steps, and at most as many
# elements as BLOCK 4x4 matrices, so its memory grows with neither the grid
# nor the dimension.
BLOCK = 1024


def step_stack_ket(drift, coups, amps, dt):
    """Step unitaries ``exp(-1j * H_k * dt)`` and the eigenpairs ``w``
    ``(nt-1, N)``, ``v`` ``(nt-1, N, N)`` of the ``H_k`` they came from.
    One row ``amps`` of shape ``(M,)`` gives one step, without that axis."""
    w, v = np.linalg.eigh(_generator(drift, coups, amps))
    steps = (v * np.exp(-1j * dt * w)[..., None, :]) @ np.conj(
        np.swapaxes(v, -1, -2))
    return steps, w, v


def step_stack_dm(gen0, gens, amps, dt):
    """Step operators ``expm(G_k * dt)``, one Pade exponential per step
    (the generator is not normal), written over the generators in place."""
    steps = _generator(gen0 * dt, gens * dt, amps)
    for k, gen in enumerate(steps):
        steps[k] = expm(gen)
    return steps


def propagate_steps(steps, state, direction):
    """Step a block through a step stack, or back through its adjoints.

    ``+1``: ``out[k+1] = steps[k] out[k]`` from ``out[0] = state``.  ``-1``:
    ``out[k] = steps[k]^dag out[k+1]`` from ``out[-1] = state``, which is the
    backward run of ``propagate_pwc_ket`` (``-dt``) or ``propagate_pwc_dm``
    (adjoint generator parts) without exponentials.  ``state`` is ``(N,)``
    or ``(W, N)``, as for the other entry points.
    """
    if direction > 0:
        return _propagate(lambda block: block, steps, state, 1)
    return _propagate(lambda block: np.swapaxes(block, -1, -2).conj(), steps,
                      state, -1)


def propagate_pwc_ket(drift, coups, amps, dt, psi0, direction):
    """Piecewise-constant-exponential propagation of a state vector block.

    Parameters
    ----------
    drift : (N, N) complex ndarray
    coups : (M, N, N) complex ndarray
        One summed coupling matrix per control channel.
    amps : (nt-1, M) float ndarray
    dt : float
        Signed: negative ``dt`` realizes the adjoint (backward) step.
    psi0 : (N,) or (W, N) complex ndarray
        Boundary state(s): at ``t0`` for ``direction=+1``, at ``tf`` for
        ``-1``.
    direction : int

    Returns
    -------
    (nt, N) or (nt, W, N) complex ndarray, indexed by state-grid point.
    """
    return _propagate(lambda block: step_stack_ket(drift, coups, block, dt)[0],
                      amps, psi0, direction)


def propagate_pwc_dm(gen0, gens, amps, dt, rho0_vec, direction):
    """Same stepping for vectorized density matrices under a GKLS generator.

    The generator per step is ``gen0 + sum_j amps[k, j] * gens[j]`` and the
    step operator is its matrix exponential times ``dt`` (Pade scaling and
    squaring, one step at a time; the generator is not normal).  For
    backward (adjoint) propagation the caller passes the
    conjugate-transposed generator parts.  ``rho0_vec`` is ``(N,)`` or a
    ``(W, N)`` block, as for kets.
    """
    return _propagate(lambda block: step_stack_dm(gen0, gens, block, dt),
                      amps, rho0_vec, direction)


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
        The step unitaries ``exp(-1j * H_k * dt)`` of the updated field.
    """
    n_mid = amps.shape[0]
    out = np.empty((n_mid + 1,) + psi0.shape, dtype=complex)
    steps = np.empty((n_mid,) + drift.shape, dtype=complex)
    out[0] = psi0
    chi_conj = chi.conj()
    rate = gain / psi0.shape[0]  # the update is an ensemble mean
    for k in range(n_mid):
        amps[k] += rate[k] * np.einsum("wi,jik,wk->j", chi_conj[k], coups,
                                       out[k]).imag
        steps[k] = step_stack_ket(drift, coups, amps[k], dt)[0]
        np.matmul(out[k], steps[k].T, out=out[k + 1])
    return out, steps


def krotov_forward_dm(gen0, gens, comms, amps, chi, rho0_vec, dt, gain):
    """Sequential-update forward pass, vectorized-density variant.

    ``comms[j]`` is the vectorized commutator map ``[H_j, .]`` so that the
    update reads ``du_j = gain[k] * mean_w Im( chi[k,w]^dag comms[j] rho )``.
    Returns the states and the step operators ``expm(G_k * dt)`` of the
    updated field, shaped as for kets.
    """
    n_mid = amps.shape[0]
    out = np.empty((n_mid + 1,) + rho0_vec.shape, dtype=complex)
    steps = np.empty((n_mid,) + gen0.shape, dtype=complex)
    out[0] = rho0_vec
    chi_conj = chi.conj()
    rate = gain / rho0_vec.shape[0]  # the update is an ensemble mean
    gen0, gens = gen0 * dt, gens * dt
    for k in range(n_mid):
        amps[k] += rate[k] * np.einsum("wi,jik,wk->j", chi_conj[k], comms,
                                       out[k]).imag
        steps[k] = expm(_generator(gen0, gens, amps[k]))
        np.matmul(out[k], steps[k].T, out=out[k + 1])
    return out, steps


def _propagate(steps_of, amps, state0, direction):
    """Apply the step operators ``steps_of(amps block)`` in sequence, one
    block of steps at a time.  ``amps`` is only sliced along its first axis,
    one row per step."""
    n_mid = amps.shape[0]
    out = np.empty((n_mid + 1,) + np.shape(state0), dtype=complex)
    dim = out.shape[-1]
    rows = max(1, min(BLOCK, BLOCK * 4 ** 2 // dim ** 2))
    starts = range(0, n_mid, rows)
    if direction > 0:
        out[0] = state0
        for k0 in starts:
            block = steps_of(amps[k0:k0 + rows])
            for i in range(k0, k0 + len(block)):
                np.matmul(out[i], block[i - k0].T, out=out[i + 1])
    else:
        out[n_mid] = state0
        for k0 in reversed(starts):
            block = steps_of(amps[k0:k0 + rows])
            for i in range(k0 + len(block) - 1, k0 - 1, -1):
                np.matmul(out[i + 1], block[i - k0].T, out=out[i])
    return out


def _generator(base, parts, amps):
    """``base + sum_j amps[..., j] * parts[j]`` for one row of ``amps`` or a
    block of rows (one matrix product instead of a loop over controls)."""
    gen = np.dot(amps, parts.reshape(parts.shape[0], base.size)).reshape(
        amps.shape[:-1] + base.shape)
    gen += base  # in place: a step stack is not allocated twice
    return gen
