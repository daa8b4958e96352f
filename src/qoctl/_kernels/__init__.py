"""Propagation kernels: one numpy implementation, in :mod:`._fallback`.

Every caller (dynamics, optimizers, scenarios) goes through these four
entry points; ensembles and propagator columns are passed as ``(W, N)``
blocks rather than member by member.
"""

from ._fallback import (BACKEND, krotov_forward_dm, krotov_forward_ket,
                        propagate_pwc_dm, propagate_pwc_ket)
