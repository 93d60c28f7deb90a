"""The solver front door: one named-algorithm entry point.

:func:`solve` is to algorithms what :func:`repro.compress` is to
formats — the single dispatch the CLI, the job API and the benchmarks
go through::

    result = repro.solve(gm, algorithm="pagerank", damping=0.9)
    result = repro.solve(A, algorithm="cg", b=b, ridge=0.1)   # dense ok

Algorithm names are registered in :data:`ALGORITHMS`; unknown names
raise the typed :class:`repro.errors.UnknownAlgorithmError`, which the
job API maps to a 4xx response naming the offender.
"""

from __future__ import annotations

import numpy as np

from repro.errors import UnknownAlgorithmError
from repro.solve.algorithms import (
    conjugate_gradient,
    pagerank,
    power_iteration,
    ridge_regression,
    topk_subspace,
)
from repro.solve.driver import SolveResult

#: Registered algorithm names → solver functions.  Every entry takes a
#: matrix first and returns a :class:`~repro.solve.driver.SolveResult`.
ALGORITHMS = {
    "power": power_iteration,
    "pagerank": pagerank,
    "cg": conjugate_gradient,
    "ridge": ridge_regression,
    "topk": topk_subspace,
}


def available() -> list[str]:
    """Registered algorithm names, in registration order (mirrors
    :func:`repro.formats.available`)."""
    return list(ALGORITHMS)


def get_algorithm(name: str):
    """The solver function behind ``name`` (typed error when unknown)."""
    fn = ALGORITHMS.get(name)
    if fn is None:
        raise UnknownAlgorithmError(
            name,
            f"unknown algorithm {name!r}; registered algorithms: "
            f"{', '.join(ALGORITHMS)}",
        )
    return fn


def solve(matrix, algorithm: str = "power", **params) -> SolveResult:
    """Run a named iterative algorithm on any matrix representation.

    ``matrix`` is any :class:`repro.formats.MatrixFormat`; a bare
    numpy array is wrapped as the ``dense`` format, so dense-reference
    runs use the same code path.  ``params`` are the algorithm's own
    keyword arguments (``iterations``, ``tol``, ``damping``, ``b``,
    ``ridge``, ``k``, ``executor``, ...).
    """
    fn = get_algorithm(algorithm)
    if isinstance(matrix, np.ndarray):
        from repro import formats

        matrix = formats.compress(matrix, format="dense")
    return fn(matrix, **params)
