"""Propagation kernels: one numpy implementation, in :mod:`._fallback`.

Every caller (dynamics, optimizers, scenarios) goes through these entry
points; ensembles and propagator columns are passed as ``(W, N)`` blocks
rather than member by member.  ``propagate_pwc_ket`` and
``propagate_pwc_dm`` build the step operators of a field and step a block
through them.  The sequential Krotov passes ``krotov_forward_ket`` and
``krotov_forward_dm`` return the ``(nt-1, N, N)`` stack of step operators
they built beside the states, and ``propagate_adjoint`` steps a co-state
block backward through the adjoints of such a stack, so a field is
exponentiated once for its forward and its backward pass.
"""

from ._fallback import (BACKEND, krotov_forward_dm, krotov_forward_ket,
                        propagate_adjoint, propagate_pwc_dm,
                        propagate_pwc_ket)
