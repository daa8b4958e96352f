"""qoctl: quantum optimal control toolkit.

Library layout:

* :mod:`qoctl.core` -- operators, states, Bloch vectors.
* :mod:`qoctl.dynamics` -- time grids, Schroedinger/GKLS propagators.
* :mod:`qoctl.shapes` -- named field envelope builders.
* :mod:`qoctl.frames` -- rotating frames, RWA, chirped fields.
* :mod:`qoctl.adiabatic` -- dressed frames, counterdiabatic drives, STIRAP.
* :mod:`qoctl.functionals` -- costs and figures of merit.
* :mod:`qoctl.optimize` -- Krotov, GRAPE, gradient-free and hybrid search.
* :mod:`qoctl.controllability` -- Lie-rank and graph controllability tests.
* :mod:`qoctl.scenarios` / :mod:`qoctl.cli` -- config-driven runner.

The hot propagation loops are one numpy implementation in
``qoctl._kernels``; ``qoctl.kernel_backend()`` names it (``"python"``) so
that benchmark results can stamp the environment they ran in.  Importing
the package itself loads no numpy, so :mod:`qoctl.cli` can set the BLAS
thread count before numpy starts.

A run always loads numpy, and scipy only where it is called.
``scipy.linalg`` is imported by the GKLS steps (``expm``, in
``qoctl._kernels``: the ``qubit_reset`` and ``stirap`` scenarios) and by
the GKLS GRAPE gradient (``expm_frechet``); closed-system runs step with
numpy's ``eigh`` alone.  ``scipy.optimize`` is imported by the simplex
search of :func:`qoctl.optimize.gradient_free_search` (the ``gate_opt``
scenario with ``budget > 0``) and by
:func:`qoctl.adiabatic.dressed_frame`.
"""

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Name of the propagation kernel implementation (always ``"python"``)."""
    from ._kernels import BACKEND
    return BACKEND
