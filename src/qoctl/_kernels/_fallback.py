"""Piecewise-constant propagation kernels in numpy.

A step stack holds the ``(nt-1, N, N)`` step operators of one field:
``step_stack_ket`` exponentiates a given stack of step Hamiltonians as
``cos X - 1j sin X``, ``X = H dt``, from Taylor series in real arithmetic
(``_cos_sin``); ``step_stack_dm`` exponentiates the GKLS generators of
``amps`` in one ``expm_series`` call, a Taylor series with scaling and
squaring for general real or complex matrices, which also serves the Van
Loan blocks of the GKLS gradient.  ``propagate_steps`` steps states
forward through a stack and co-states backward through its adjoints.
``propagate_pwc_ket`` and ``propagate_pwc_dm`` build and apply the steps a
block at a time.  All three apply steps in ``_propagate``: a block goes
through chunks of ``isqrt(n)`` steps as running products, about
``2 sqrt(n)`` numpy calls for ``n`` steps, when it holds at least as many
states as their dimension, ``W >= N``, or when its steps are real and of
dimension ``N <= SMALL_REAL`` (GKLS coordinates), where a product of two
steps costs little next to a numpy call; a narrower complex block takes
one product per step.  The sequential Krotov passes ``krotov_forward_ket``
and ``krotov_forward_dm`` differ only in the stack function they give one
loop, ``krotov_forward``, which updates the field while it steps and
returns the updated field's stack.  A step's amplitudes are known only
once the step before it is taken, so the loop exponentiates none of them:
it reads each step off a ``StepTable``, a Chebyshev interpolant of the
step operator over a box of amplitudes whose nodes come from one stacked
call of that function, as one weighted sum, five numpy calls a step for
one control.  A pass starts on the table the last pass returned and
builds one only at a row outside its box, so the passes of an
optimization share a handful of tables.  ``ket_stack_builder`` serves a
field whose amplitudes are known to lie in a box before any is stepped
(the drive of ``bichromatic``): it builds one ``StepTable`` over the box,
where that needs no more nodes than one stack has matrices, and reads
each stack off it at once (``StepTable.read``), a handful of numpy calls
for a stack of any length; otherwise its stacks are ``step_stack_ket``'s.
Every generator they step, a Hamiltonian ``H0 + sum_j u_j H_j`` or a GKLS
one, comes from ``generator``.

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
import operator

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

# exp(X) - I as a polynomial of degree EXP_DEGREE in X, for ||X||_F <= 1:
# the first term left out, 1/20!, is below 2^-61.  It is evaluated as
# A_0(X) + X^4 (A_1(X) + X^4 (A_2(X) + X^4 (A_3(X) + X^4 A_4(X)))); the
# rows of EXP_SERIES are the coefficients of A_0 .. A_4 over I, X, X^2,
# X^3 (A_0 has no I: the series leaves the identity out).
EXP_DEGREE = 19
EXP_SERIES = np.array([0.0] + [1.0 / math.factorial(k)
                               for k in range(1, EXP_DEGREE + 1)]
                      ).reshape(5, 4)


# Real steps of at most this dimension take chunks in blocks of any width:
# a product of two costs little next to the numpy call per step it saves
# (_propagate).
SMALL_REAL = 8


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

    Accuracy domain: each double-angle step costs about an ulp, so the
    steps are unitary to about ``||X||_F * eps``.  The worst of 800 random
    complex 2-8 level steps: 7.5e-15 at ``||X||_F`` 10, 1.5e-13 at 1e2,
    2.4e-12 at 1e3, 2.2e-9 at 1e6.
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
        sel = s > j
        c, sn = cos[sel], sin[sel]
        sin[sel] = 2.0 * (sn @ c)
        # C^2 - S^2 in one product: C and S commute
        cos[sel] = (c + sn) @ (c - sn)
    return cos, sin


def expm_series(x):
    """``expm(X)`` of a stack ``x`` ``(..., n, n)`` of real or complex
    matrices, general ones (a GKLS generator is not normal), each from its
    own entries alone: scaled by the least ``2^-s`` that brings
    ``||X||_F`` to 1 or below (exactly, as a power of two), ``E = exp(X) -
    I`` from the ``EXP_DEGREE`` Taylor series, then ``s`` squarings carried
    on ``E`` as ``E <- 2E + E E``, with ``I`` added at the end (Moler & Van
    Loan, SIAM Rev. 45, 3 (2003)).  Squaring ``I + E`` itself would round
    off the small ``E`` of a scaled step against ``I`` at every squaring.

    Accuracy domain: ``||X||_1 <= 1e3``, where the error, relative to
    ``max(1, max |expm(X)|)``, is at most ``4 ||X||_1 eps`` (the bound
    ``tests/test_kernels.py::TestExpmSeries`` pins).  Against a 40-digit
    mpmath ``expm`` on the reset model's GKLS generator and on seeded
    complex ones it measured at most 1.3e-16 at ``||X||_1`` 1, 5.6e-15 at
    1e2 and 3.5e-14 at 1e3, where scipy's Pade ``expm`` measured 1.6e-16,
    4.7e-14 and 5.3e-13.  The error grows with the squarings: 3.1e-13 at
    1e4 on the reset model.
    """
    n = x.shape[-1]
    # ||X||_F^2 < 2^e <= 4^s for s = ceil(e / 2)
    norm2 = np.einsum("...ij,...ij->...", x.conj(), x).real
    s = np.maximum(np.frexp(norm2)[1] + 1, 0) // 2
    # I, X, X^2, X^3 with the power axis first, so that the series' linear
    # combinations are one product over every matrix's entries
    powers = np.empty((4,) + x.shape, dtype=np.result_type(x, float))
    powers[0] = np.eye(n)
    np.multiply(x, np.ldexp(1.0, -s)[..., None, None], out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[1], powers[2], out=powers[3])
    x4 = powers[2] @ powers[2]
    parts = (EXP_SERIES @ powers.reshape(4, -1)).reshape((5,) + x.shape)
    e = parts[4]
    for part in parts[3::-1]:
        e = x4 @ e
        e += part
    for j in range(s.max(initial=0)):
        sel = s > j
        es = e[sel]
        squared = es @ es
        es *= 2.0
        es += squared
        e[sel] = es
    np.einsum("...ii->...i", e)[...] += 1.0
    return e


def step_stack_dm(gen0, gens, amps, dt):
    """Step operators ``expm(G_k * dt)`` of the GKLS generators of
    ``amps``: one ``expm_series`` over the whole stack."""
    return expm_series(generator(gen0 * dt, gens * dt, amps))


def propagate_steps(steps, state, direction):
    """Step a block through a step stack, or back through its adjoints.

    ``+1``: ``out[k+1] = steps[k] out[k]`` from ``out[0] = state``.  ``-1``:
    ``out[k] = steps[k]^dag out[k+1]`` from ``out[-1] = state``, which is the
    backward run of ``propagate_pwc_ket`` or ``propagate_pwc_dm`` without
    exponentials.  ``state`` is ``(N,)`` or ``(W, N)``, as for the other
    entry points; with a member axis on the stack, ``(n, P, N, N)``, it is
    a ``(P, W, N)`` block and member ``p`` steps through ``steps[:, p]``.
    A block of ``W >= N`` states, or any block of real steps of dimension
    ``N <= SMALL_REAL``, takes the steps in chunks of running products
    (``_propagate``), which agree with one product per step to round-off;
    a narrower complex one takes one product per step.
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
    step operator is its matrix exponential times ``dt`` (``expm_series``,
    one stacked call per block; the generator is not normal).
    ``rho0_vec`` is one ``(d,)`` coordinate vector or a ``(W, d)`` block,
    as for kets; ``direction=-1`` applies the adjoint steps.
    """
    return _propagate(lambda block: step_stack_dm(gen0, gens, block, dt),
                      amps, rho0_vec, direction,
                      np.result_type(gen0, gens, rho0_vec))


def krotov_forward_ket(drift, coups, amps, chi, psi0, dt, gain, table=None):
    """Sequential-update forward pass of the optimizer, ket variant.

    For each midpoint ``k`` the field update
    ``du_j = gain[k] * mean_w Im <chi[k, w] | C_j | psi[k, w]>``
    is applied to ``amps[k]`` **before** stepping the states through the
    exponential built from the updated amplitudes.  The steps are read off
    a ``StepTable``, whose nodes come from ``step_stack_ket``, so they
    share its accuracy domain: unitary to about ``||H dt||_F * eps``, some
    1e-12 at ``||H dt||_F`` 1e3, where one ``eigh`` per step was unitary to
    round-off at any norm.  The pass starts on ``table``, one that a pass
    of the same model returned (``krotov_forward``).

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
    table : StepTable
        The table of the last step, for the next pass.
    """
    # Im <.|C|.> = Re <.|-1j C|.>
    return krotov_forward(*_ket_parts(drift, coups, dt), -1j * coups, amps,
                          chi, psi0, gain, table)


def _ket_parts(drift, coups, dt):
    """A ket ``StepTable``'s ``stack_of``, ``sizes`` and ``log_norm``: the
    series steps of the rows' Hamiltonians, the couplings' Frobenius norms
    times ``dt`` and a log-norm of 0, as ``-1j H dt`` is skew-Hermitian
    anywhere in the box."""
    return (lambda us: step_stack_ket(generator(drift, coups, us), dt),
            np.linalg.norm(coups, axis=(1, 2)) * dt, lambda mid, half: 0.0)


def ket_stack_builder(drift, coups, dt, lo, hi, max_nodes):
    """The step stack builder of a field whose rows lie in the box
    ``[lo, hi]`` (one bound per control): ``stack_of(amps)`` gives the
    steps ``exp(-1j * H dt)`` of the Hamiltonians ``H0 + sum_j u_j C_j`` of
    an amplitude stack ``(..., M)``, shaped ``(..., N, N)``.

    Where the box is finite and a ``StepTable`` over it needs at most
    ``max_nodes`` nodes, the builder exponentiates that table's nodes once
    and reads every stack off it in one batched product
    (``StepTable.read``); a stack with a row outside the box, and every
    stack of a box that needs more nodes, takes the series of
    ``step_stack_ket(generator(...))``.  A caller that builds stacks of
    ``n`` matrices at a time passes at most ``n``, so that the table never
    costs more exponentials than one stack.
    """
    stack_of, sizes, log_norm = _ket_parts(drift, coups, dt)
    box = np.array([lo, hi], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        # StepTable's own widths, so that a table built below never
        # shrinks; _degree takes a non-finite width for no width at all
        half = 0.5 * (box[1] - box[0])
        finite = np.isfinite(half * sizes).all()
    if not finite or _degrees(sizes, 0.0, half, max_nodes) is None:
        return stack_of
    table = StepTable(stack_of, sizes, log_norm, box, np.zeros_like(box),
                      max_nodes, complex)

    def read(amps):
        inside = (amps >= box[0]).all() and (amps <= box[1]).all()
        return table.read(amps) if inside else stack_of(amps)
    return read


def krotov_forward_dm(gen0, gens, amps, chi, rho0_vec, dt, gain,
                      table=None):
    """Sequential-update forward pass, GKLS variant.

    The update operator of control ``j`` is its generator part
    ``R_j = gens[j]`` (``-i[H_j, .]`` for a control Hamiltonian ``H_j``):
    the update reads ``du_j = gain[k] * mean_w Re(chi[k, w]^dag R_j
    rho[k, w])``, in the real basis of ``dynamics.reduced_gkls_parts`` the
    real product ``chi^T R_j rho``.  Returns the states and the step
    operators ``expm(G_k * dt)`` of the updated field, shaped as for kets,
    read off ``StepTable``s whose nodes come from one ``step_stack_dm``
    call each, and the table of the last step; the pass starts on
    ``table`` as for kets.
    """
    herm0, herms = (0.5 * dt * (g + np.conj(np.swapaxes(g, -1, -2)))
                    for g in (gen0, gens))
    herm_sizes = np.linalg.norm(herms, axis=(1, 2))

    def log_norm(mid, half):
        # ||Herm(G dt)||_F bounds the log-norm of G dt, over the whole box
        return float(np.linalg.norm(generator(herm0, herms, mid))
                     + half @ herm_sizes)

    return krotov_forward(lambda us: step_stack_dm(gen0, gens, us, dt),
                          np.linalg.norm(gens, axis=(1, 2)) * dt, log_norm,
                          gens, amps, chi, rho0_vec, gain, table)


def krotov_forward(stack_of, sizes, log_norm, ops, amps, chi, state0, gain,
                   table=None):
    """The sequential pass both Krotov variants run.

    For each midpoint ``k`` the update
    ``du_j = gain[k] * mean_w Re(chi[k, w]^dag ops[j] state[k, w])`` is
    added to ``amps[k]`` in place, then the ``(W, N)`` block is stepped
    through the step operator of the updated row, one product of a
    ``StepTable``'s weights with its coefficients.  The pass starts on
    ``table``, the table a pass of the same model returned, or on none.
    A row ``k`` outside the table's box, or the first row with no table,
    builds a table over the rows left, ``amps[k:]``, each widened by twice
    its update bound at the block's norm there, ``2 reach ||state[k]||``,
    where ``|du_kj| <= reach[k, j] ||state[k]||`` (Cauchy-Schwarz), so
    that states that grow rebuild about once per doubling.  ``stack_of``
    exponentiates a stack of amplitude rows, ``sizes[j]`` is the Frobenius
    norm of control ``j``'s part of the step exponent and ``log_norm(mid,
    half)`` bounds the exponent's log-norm over a box.  Returns the ``(nt,
    W, N)`` states, the ``(nt-1, N, N)`` steps and the table of the last
    step, for the next pass.

    The loop indexes no array: its views of ``proj``, the states and the
    steps are made once per pass, the update goes into one buffer and the
    rows are kept as floats, written back to ``amps`` at the end, so that
    a step allocates no array.  With one control it reads the row's
    weights inline, into the table's buffers: a step is five numpy calls
    (the update, the weights' two, the weighted sum and the block's
    product).
    """
    n_mid, n_ctrl = amps.shape
    # chi is fixed for the pass: contract it with ops for every step at
    # once, so that the update at step k is one product with the block
    # (and with the rate: the update is an ensemble mean)
    proj = (chi[:-1, None].conj() @ ops).reshape(n_mid, n_ctrl, -1) \
        * (gain / state0.shape[0])[:, None, None]
    # |du_kj| <= reach[k, j] ||state[k]|| (Cauchy-Schwarz)
    reach = np.linalg.norm(proj, axis=2)
    dtype = np.result_type(state0, proj)
    out = np.empty((n_mid + 1,) + state0.shape, dtype=dtype)
    steps = np.empty((n_mid,) + ops.shape[1:], dtype=dtype)
    # each step is written as reals, complex ones as interleaved pairs
    flat = steps.reshape(n_mid, -1).view(float)
    # a table holds at most as many nodes as the steps it serves, or one
    # block of them: its memory grows no faster than the pass's own
    block = block_rows(steps.shape[-1])
    out[0] = state0
    update = np.empty(n_ctrl, dtype=dtype)
    update_re = update.real  # a view: the rows take the real part

    def rebuild(k, row):
        # the table over the rows left, from the updated row on
        amps[k] = row
        return StepTable(stack_of, sizes, log_norm, amps[k:],
                         reach[k:] * (np.linalg.norm(out[k]) * 2.0),
                         max(n_mid - k, block), dtype)

    # every view the loop reads, built once: proj[k], the block at k
    # flattened, the blocks at k and k + 1, step k as reals and transposed
    views = zip(proj, out.reshape(n_mid + 1, -1), out, out[1:], flat,
                np.swapaxes(steps, 1, 2))
    # the rows as floats, written back at the end (and before a rebuild,
    # which reads the updated row): an update is one dot product into a
    # buffer and a sum of floats.  ndarray.dot is np.dot's product without
    # its dispatch, which costs about as much again on these sizes
    if n_ctrl == 1:
        rows = amps[:, 0].tolist()
        if table is not None:
            lo, hi, mid, scale, ks, angle, cheb, _ = table.axes[0]
            coefs = table.coefs
        for k, (proj_k, vec, state, state_next, flat_k, step_t) in \
                enumerate(views):
            proj_k.dot(vec, update)
            u = rows[k] = rows[k] + update_re.item()
            if table is None or u < lo or u > hi:
                table = rebuild(k, u)
                lo, hi, mid, scale, ks, angle, cheb, _ = table.axes[0]
                coefs = table.coefs
            # StepTable.weights of the one axis, with its clamp
            xi = (u - mid) * scale
            angle[()] = math.acos(xi if -1.0 < xi < 1.0
                                  else 1.0 if xi >= 1.0 else -1.0)
            np.multiply(ks, angle, cheb)
            np.cos(cheb, cheb)
            cheb.dot(coefs, flat_k)
            state.dot(step_t, state_next)
        amps[:, 0] = rows
        return out, steps, table
    rows = amps.tolist()
    for k, (proj_k, vec, state, state_next, flat_k, step_t) in \
            enumerate(views):
        proj_k.dot(vec, update)
        row = rows[k] = list(map(operator.add, rows[k], update_re.tolist()))
        weights = None if table is None else table.weights(row)
        if weights is None:
            table = rebuild(k, row)
            weights = table.weights(row)
        weights.dot(table.coefs, flat_k)
        state.dot(step_t, state_next)
    amps[:] = rows
    return out, steps, table


# A table takes, per control, the least degree whose interpolation error
# bound (StepTable) is at most TABLE_TOL.
TABLE_TOL = 2.0 ** -53


class StepTable:
    """Chebyshev interpolant of a step operator over a box of amplitudes.

    The box is ``[min(rows - reach), max(rows + reach)]`` per control, the
    nodes a tensor grid of first-kind Chebyshev points, one axis per
    control, exponentiated in one ``stack_of`` call.  Their coefficients
    come from one cosine-matrix product along each axis, so that a step
    inside the box is ``weights(u) @ coefs``, where the weights are the
    products of ``T_k(xi_j) = cos(k arccos xi_j)`` (Trefethen,
    Approximation Theory and Approximation Practice, SIAM 2013, chs. 4 and
    8).

    The degree of control ``j`` follows from the Dyson series of
    ``exp(X + xi Y)``, ``||Y|| <= rho = half_j * sizes[j]``: its
    coefficients obey ``||a_k|| <= 2 e^mu I_k(rho)``, ``mu`` a bound on the
    log-norm of ``X`` (``_degree``).  A box whose grid would hold more than
    ``max_nodes`` nodes shrinks to the first row: one node, the step
    itself, so that an update bound that spans a huge range (a tiny Krotov
    step size) costs one exponential per step, not a huge grid.

    Two readers use a table: ``krotov_forward`` reads one row at a time
    with ``weights`` (inline for one control), as each row is known only
    once the step before it is taken, over the passes of an optimization
    until a row leaves the box; ``ket_stack_builder`` reads whole stacks
    with ``read``.  Ket steps read off a table are unitary to about 1e-15,
    but their errors are smooth in the amplitudes, so they are correlated
    from step to step and the norm drift of a trajectory grows with its
    step count: up to 3.7e-12 over the 24,000 steps of the ``bichromatic``
    runs of perfbench's closed_sweep at seeds 1-10, where the series' steps
    drifted 1.3e-13.
    """

    def __init__(self, stack_of, sizes, log_norm, rows, reach, max_nodes,
                 dtype):
        lo, hi = (rows - reach).min(axis=0), (rows + reach).max(axis=0)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        degrees = _degrees(sizes, log_norm(mid, half), half, max_nodes)
        if degrees is None:
            lo = hi = mid = rows[0]
            half = np.zeros_like(half)
            degrees = [0] * len(half)
        # [-1, 1] -> the box; a box of zero width keeps xi at 0
        scale = np.divide(1.0, half, out=np.zeros_like(half), where=half > 0)
        # per axis, arccos xi_j, T_k(xi_j) and the weights over the axes so
        # far, their outer product with the weights before: buffers that
        # weights() fills
        self.axes, size = [], 1
        for bounds, d in zip(zip(lo.tolist(), hi.tolist(), mid.tolist(),
                                 scale.tolist()), degrees):
            cheb = np.empty(d + 1)
            prod = np.empty((size, d + 1)) if self.axes else cheb
            self.axes.append(bounds + (np.arange(d + 1.0), np.empty(()),
                                       cheb, prod))
            size *= d + 1
        # first-kind Chebyshev points x_i = cos(pi (i + 1/2) / (n + 1))
        angles = [np.pi * (np.arange(d + 1) + 0.5) / (d + 1)
                  for d in degrees]
        shape = [d + 1 for d in degrees]
        self.nodes = math.prod(shape)
        grid = np.meshgrid(*[m + h * np.cos(a) for m, h, a
                             in zip(mid, half, angles)], indexing="ij")
        coefs = stack_of(np.reshape(grid, (len(shape), self.nodes)).T)
        self.shape, self.dtype = coefs.shape[1:], np.dtype(dtype)
        coefs = coefs.reshape(shape + [-1])
        for axis, (d, a) in enumerate(zip(degrees, angles)):
            # a_k = (2 - [k = 0]) / (n + 1) sum_i f(x_i) cos(k theta_i)
            cosines = np.cos(np.arange(d + 1)[:, None] * a) * (2.0 / (d + 1))
            cosines[0] *= 0.5
            coefs = np.moveaxis(np.tensordot(cosines, coefs, (1, axis)),
                                0, axis)
        coefs = np.asarray(coefs.reshape(-1, coefs.shape[-1]), dtype=dtype)
        self.coefs = np.ascontiguousarray(coefs).view(float)

    def weights(self, u):
        """The weights of the row ``u``, one float per control, over the
        coefficients, or ``None`` where ``u`` lies outside the box.  They
        are written into the table's buffers, so they hold until the next
        call."""
        weights = None
        for uj, (lo, hi, mid, scale, ks, angle, cheb, prod) in zip(u,
                                                                   self.axes):
            if uj < lo or uj > hi:
                return None
            # rounding may carry xi just past +-1, where arccos is undefined
            xi = (uj - mid) * scale
            angle[()] = math.acos(xi if -1.0 < xi < 1.0
                                  else 1.0 if xi >= 1.0 else -1.0)
            # outputs passed by position, and a float held as an array: a
            # ufunc takes either faster
            np.multiply(ks, angle, cheb)
            np.cos(cheb, cheb)
            weights = cheb if weights is None \
                else np.multiply.outer(weights, cheb, out=prod).ravel()
        return weights

    def read(self, rows):
        """The steps of a stack of rows ``(..., M)`` inside the box, shaped
        ``(..., N, N)``: per axis ``T_k(xi) = cos(k arccos xi)`` of every
        row at once, with the clamp of ``weights``, their outer products
        across the axes, then one product with the coefficients."""
        flat = np.reshape(rows, (-1, len(self.axes)))
        weights = None
        for u, (mid, scale, ks) in zip(flat.T, (a[2:5] for a in self.axes)):
            # rounding may carry xi just past +-1, where arccos is undefined
            xi = np.clip((u - mid) * scale, -1.0, 1.0)
            cheb = np.cos(np.multiply.outer(np.arccos(xi), ks))
            weights = cheb if weights is None else (
                weights[:, :, None] * cheb[:, None]).reshape(len(flat), -1)
        return (weights @ self.coefs).view(self.dtype).reshape(
            np.shape(rows)[:-1] + self.shape)


def _degrees(sizes, mu, half, max_nodes):
    """Per control, the degree of a table over a box of half-widths
    ``half`` (``_degree``), or ``None`` where its grid would hold more than
    ``max_nodes`` nodes."""
    degrees = [_degree(h * s, mu, max_nodes) for h, s in zip(half, sizes)]
    return None if math.prod(d + 1 for d in degrees) > max_nodes \
        else degrees


def _degree(rho, mu, cap):
    """The least degree ``n`` whose interpolation error bound
    ``2 sum_{k>n} 2 e^mu I_k(rho) <= 8 e^mu U_{n+1}(rho)`` (for
    ``n + 2 >= rho``) is at most ``TABLE_TOL``, with
    ``U_k(x) = (x/2)^k / k! e^{x^2 / (4 (k+1))} >= I_k(x)``, whose ratios
    are at most ``x / (2 (k+1))``.  Evaluated in logarithms, so that no
    finite ``mu`` overflows; at least ``cap`` when no degree below it will
    do."""
    if not (0.0 < rho < math.inf and math.isfinite(mu)):
        return 0
    bound = math.log(TABLE_TOL / 8.0) - mu
    n = max(0, math.ceil(rho) - 2)
    while n < cap and ((n + 1) * math.log(0.5 * rho) - math.lgamma(n + 2)
                       + rho * rho / (4.0 * (n + 2))) > bound:
        n += 1
    return n


def _propagate(steps_of, amps, state0, direction, dtype):
    """Apply the step operators ``steps_of(amps block)``, or backward their
    adjoints, one block of steps at a time.  ``amps`` is only sliced along
    its first axis, one row per step; ``dtype`` is that of the states.

    A block of ``W >= N`` states (a gate's basis, a propagator's columns)
    takes its ``n`` steps in chunks of ``b = isqrt(n)``: ``b - 1`` batched
    products form the running products of the step matrices inside every
    chunk at once, then one product per chunk steps the chunk's first state
    through all of them, about ``2 sqrt(n)`` numpy calls where one per step
    made ``n`` (Blelloch, CMU-CS-90-190, 1990).  A product of two steps
    costs ``N^3`` where stepping costs ``W N^2``; but where ``N^3`` is
    small next to the cost of a numpy call, chunks pay at any width, so
    real steps of ``N <= SMALL_REAL`` (GKLS coordinates) take them in
    blocks of any ``W``: 0.46 -> 0.14 ms on the reset model's co-states,
    real ``(300 steps, N 8, W 1)``.  A narrower complex block (a single
    ket, ``(P, 1, N)`` members) keeps chunks of one step, one product per
    step: chunking measured 0.40 -> 1.01 ms on ``(113 steps, P 16, N 3,
    W 1)`` and 1.7 -> 2.1 ms on ``(1024, N 16, W 1)`` (best times, 2-vCPU
    host, one BLAS thread).  ``b`` depends on the block's length, the
    steps' dtype, ``N`` and ``W`` alone, never on ``P``, so members
    stepped together take their solo runs' chunks wherever their blocks
    are the same.
    """
    n_mid = amps.shape[0]
    out = np.empty((n_mid + 1,) + np.shape(state0), dtype=dtype)
    # the states in stepping order: seq[m + 1] = seq[m] @ mats[m]
    seq = out if direction > 0 else out[::-1]
    seq[0] = state0
    # a member axis sits between the step axis and the (W, N) states
    rows = block_rows(out.shape[-1], int(np.prod(out.shape[1:-2])))
    wide = out.ndim > 2 and out.shape[-2] >= out.shape[-1]
    small = out.shape[-1] <= SMALL_REAL
    starts = range(0, n_mid, rows)
    for k0 in (starts if direction > 0 else reversed(starts)):
        block = steps_of(amps[k0:k0 + rows])
        if direction > 0:
            # as states are rows: state @ S^T = S state
            mats, m0 = np.swapaxes(block, -1, -2), k0
        else:
            # the adjoint, as states are rows: state @ conj(S) = S^dag
            # state, from the block's last step to its first
            mats, m0 = np.conj(block)[::-1], n_mid - k0 - len(block)
        chunked = wide or small and not np.iscomplexobj(mats)
        b = math.isqrt(len(mats)) if chunked else 1
        if b > 1:
            # prods[c b + j] = mats[c b] @ ... @ mats[c b + j], one product
            # per j over every chunk c
            prods = np.empty(mats.shape, dtype=mats.dtype)
            prods[::b] = mats[::b]
            for j in range(1, b):
                np.matmul(prods[j - 1:-1:b], mats[j::b], out=prods[j::b])
            mats = prods
        for c in range(0, len(mats), b):
            m = m0 + c
            if b == 1:
                # one step: a slice of one would cost 10-25% more per step
                np.matmul(seq[m], mats[c], out=seq[m + 1])
            else:
                chunk = mats[c:c + b]
                np.matmul(seq[m], chunk, out=seq[m + 1:m + 1 + len(chunk)])
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
