"""Propagation kernels: one numpy implementation, in :mod:`._fallback`.

Every caller (dynamics, optimizers, scenarios) goes through these entry
points; ensembles and propagator columns are passed as ``(W, N)`` blocks
rather than member by member.  The optimizers build one step stack per
field (``step_stack_ket``: ``cos(H dt) - 1j sin(H dt)`` of a given stack
of step Hamiltonians from Taylor series in real arithmetic, each step
scaled by its own norm, a complex stack through its real realification;
``step_stack_dm``: one ``expm_series`` call) and take states forward and
co-states backward through it with ``propagate_steps``.  ``expm_series``
exponentiates a stack of general real or complex matrices, a GKLS step
stack or the GKLS gradient's Van Loan blocks, by a Taylor series with
per-matrix power-of-two scaling, squared back as ``exp(X) - I``.
``propagate_pwc_ket`` and ``propagate_pwc_dm`` build and apply the steps a
block at a time.  A block of at least as many states as their dimension,
and a block of any width whose steps are real and at most ``SMALL_REAL``
(8) dimensional (GKLS coordinates), takes its steps in chunks of running
products, about ``2 sqrt(n)`` numpy calls for ``n`` steps instead of one
per step; a narrower complex block takes one per step.  The sequential
Krotov passes ``krotov_forward_ket`` and ``krotov_forward_dm`` differ only
in the stack function they run one loop with: the loop exponentiates one
Chebyshev table of the step operator per pass, over a box of amplitudes
that holds every update, reads each step off it as one weighted sum (a
fixed handful of numpy calls per step, into buffers made once per pass)
and returns the stack of the field it updated.  ``ket_stack_builder``
gives the stack builder of a ket field whose amplitudes lie in a known box:
where one such table over the box needs no more nodes than one stack has
matrices, every stack is read off it in one batched product, otherwise it
is ``step_stack_ket``'s series (``bichromatic`` builds its segments with
it).  GKLS generators arrive as real matrices in the reduced Hermitian
basis of ``qoctl.dynamics.reduced_gkls_parts``.  ``direction=-1`` runs
the adjoints of the forward steps, built from the same generator and
``dt``.  A stack may carry a member axis, ``(nt-1, P, N, N)``, so that P
independent trajectories (the phases of ``bichromatic``) share each step
as one ``(P, 1, N)`` block; ``block_rows(N, P)`` is the number of steps
that make one block, the size of the segments a caller builds such stacks
in.
``generator`` is the only place that sums ``base + sum_j u_j parts[j]``:
every step Hamiltonian and GKLS step generator of a field comes from it
(above the kernels, through ``qoctl.dynamics.step_hamiltonians``).
"""

from ._fallback import (BACKEND, block_rows, expm_series, generator,
                        ket_stack_builder, krotov_forward_dm,
                        krotov_forward_ket, propagate_pwc_dm,
                        propagate_pwc_ket, propagate_steps, step_stack_dm,
                        step_stack_ket)
