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

A run loads numpy and no scipy.  The GKLS steps and the GKLS GRAPE
gradient exponentiate with ``qoctl._kernels.expm_series``, a numpy Taylor
series; the simplex search of :func:`qoctl.optimize.gradient_free_search`
is in-house, and :func:`qoctl.adiabatic.dressed_frame` matches eigenvectors
greedily by largest overlap, which is the optimal assignment at every step
it does not flag.
"""

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Name of the propagation kernel implementation (always ``"python"``)."""
    from ._kernels import BACKEND
    return BACKEND
