"""Propagation kernels: one numpy implementation, in :mod:`._fallback`.

Every caller (dynamics, optimizers, scenarios) goes through the entry
points imported here.  ``_fallback``'s module docstring describes them:
the step stacks and their series, stepping in chunks of running
products, the sequential Krotov passes and the Chebyshev step tables
they read, and the conventions the entry points share.
"""

from ._fallback import (BACKEND, block_rows, expm_series, generator,
                        ket_stack_builder, krotov_forward_dm,
                        krotov_forward_ket, propagate_pwc_dm,
                        propagate_pwc_ket, propagate_steps, step_stack_dm,
                        step_stack_ket)
