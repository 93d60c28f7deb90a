"""Iterative workloads over the compressed-matrix kernel protocol.

The paper motivates grammar-compressed MVM as the inner kernel of
iterative analytics (Section 4.2's Eq. (4) loop "mimics the most costly
operations of the conjugate gradient method"); this module runs those
analytics *end to end* in compressed space.  Every algorithm touches
its matrix only through :class:`~repro.solve.kernels.SolveKernels` —
``A x``, ``yᵗ A``, the Gram product and its panel variant — so any
registered format, from ``dense`` through ``re_ans`` to a lazily-served
:class:`~repro.shard.LazyShardedMatrix`, executes it unchanged.

Algorithms
----------
:func:`power_iteration`
    The paper's Eq. (4) loop as a convergence-driven solver: the power
    method on ``AᵗA``, converging to the top right-singular direction.
:func:`pagerank`
    Damped PageRank with personalization over the row-stochastic
    scaling of a square nonnegative matrix (out-weights computed in
    compressed space via one ``A·1``).
:func:`conjugate_gradient` / :func:`ridge_regression`
    CG on the regularised normal equations ``(AᵗA + λI) x = Aᵗ b`` —
    compressed-domain least squares / ridge regression.
:func:`topk_subspace`
    Randomised block subspace iteration on ``AᵗA`` using the panel
    kernels — the top-``k`` singular directions with one QR per round.

Every function returns a :class:`~repro.solve.driver.SolveResult`
carrying the final iterate, convergence flag, and the per-iteration
residual/latency trace (:class:`~repro.solve.driver.SolveTrace`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SolveError
from repro.solve.driver import SolveResult, iterate
from repro.solve.kernels import SolveKernels


def _as_kernels(matrix, executor, retain_plans) -> SolveKernels:
    if isinstance(matrix, SolveKernels):
        return matrix
    return SolveKernels(matrix, executor=executor, retain_plans=retain_plans)


def _check_vector(vec, expected: int, name: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=np.float64).ravel()
    if vec.size != expected:
        raise SolveError(f"{name} has length {vec.size}, expected {expected}")
    return vec


# -- power iteration -------------------------------------------------------------------


def power_iteration(
    matrix,
    iterations: int = 200,
    tol: float | None = 1e-10,
    x0: np.ndarray | None = None,
    executor=None,
    retain_plans: bool = True,
    callback=None,
    observer=None,
) -> SolveResult:
    """The Eq. (4) loop as a solver: power method on ``AᵗA``.

    Each iteration computes ``y = A x``, ``z = yᵗ A`` and renormalises
    ``x = z / ‖z‖∞`` — exactly the paper's benchmark workload, now run
    to convergence: the iterate converges to the top right-singular
    vector of ``A`` and ``‖z‖∞`` to the dominant eigenvalue of ``AᵗA``
    (the squared top singular value, in the inf-norm scaling).

    The residual is ``‖x_{k+1} - x_k‖∞``; ``tol=None`` runs exactly
    ``iterations`` rounds (the benchmark configuration —
    :func:`repro.bench.run_iterations` delegates here).  ``observer``,
    when given, is called as ``observer(k, x, y, z)`` with the
    pre-update iterate and both intermediate products (the harness uses
    it to check every iterate against a dense reference).

    ``extras``: ``eigenvalue`` (``‖z‖∞`` at the last iteration) and
    ``singular_value`` (its square root).
    """
    kernels = _as_kernels(matrix, executor, retain_plans)
    m = kernels.n_cols
    state = {
        "x": (
            np.ones(m, dtype=np.float64)
            if x0 is None
            else _check_vector(x0, m, "x0").copy()
        ),
        "norm": 0.0,
    }

    def step(k: int) -> float:
        x = state["x"]
        y = kernels.right(x)
        z = kernels.left(y)
        if observer is not None:
            observer(k, x, y, z)
        norm = float(np.max(np.abs(z), initial=0.0))
        x_new = z / norm if norm > 0 else z
        state["x"], state["norm"] = x_new, norm
        return float(np.max(np.abs(x_new - x), initial=0.0))

    trace, converged = iterate(step, iterations, tol, callback)
    eigenvalue = state["norm"]
    return SolveResult(
        algorithm="power",
        x=state["x"],
        converged=converged,
        iterations=len(trace),
        residual=trace.residuals[-1] if len(trace) else float("nan"),
        trace=trace,
        extras={
            "eigenvalue": eigenvalue,
            "singular_value": float(np.sqrt(max(eigenvalue, 0.0))),
        },
    )


# -- PageRank --------------------------------------------------------------------------


def pagerank(
    matrix,
    damping: float = 0.85,
    personalization: np.ndarray | None = None,
    iterations: int = 100,
    tol: float | None = 1e-10,
    executor=None,
    retain_plans: bool = True,
    callback=None,
) -> SolveResult:
    """Damped PageRank over the row-stochastic scaling of ``A``.

    ``A`` must be square with nonnegative entries; ``A[i, j]`` is the
    weight of the link ``i → j``.  The out-weights ``d = A·1`` are
    computed once in the compressed domain, and each iteration is one
    left multiplication::

        r ← damping · (Aᵗ (r / d) + (Σ_{dangling} r_i) · v) + (1 - damping) · v

    with dangling rows (``d_i = 0``) redistributing their mass through
    the personalization vector ``v`` (uniform by default; an arbitrary
    nonnegative vector otherwise, normalised to sum 1).  The iterate is
    kept 1-normalised; the residual is ``‖r_{k+1} - r_k‖₁``.

    ``extras``: ``damping``, ``n_dangling``.
    """
    kernels = _as_kernels(matrix, executor, retain_plans)
    n, m = kernels.shape
    if n != m:
        raise SolveError(f"pagerank needs a square matrix, got shape {n}x{m}")
    if not 0.0 <= damping < 1.0:
        raise SolveError(f"damping must be in [0, 1), got {damping}")
    if personalization is None:
        v = np.full(n, 1.0 / n, dtype=np.float64)
    else:
        v = _check_vector(personalization, n, "personalization")
        if np.any(v < 0) or v.sum() <= 0:
            raise SolveError(
                "personalization must be nonnegative with positive sum"
            )
        v = v / v.sum()

    degree = kernels.row_sums()
    if float(degree.min(initial=0.0)) < 0:
        raise SolveError(
            "pagerank needs nonnegative entries (a row sum is negative)"
        )
    dangling = degree <= 0.0
    inv_degree = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, degree))

    state = {"r": v.copy()}

    def step(_k: int) -> float:
        r = state["r"]
        pulled = kernels.left(r * inv_degree)
        # The row-sum check above cannot see negative entries hiding
        # inside nonnegative rows; they surface here as negative pulled
        # mass (w >= 0 always), so fail loudly instead of iterating to
        # a garbage "rank vector".
        if float(pulled.min(initial=0.0)) < -1e-12:
            raise SolveError(
                "pagerank needs nonnegative entries "
                "(Aᵗ(r/d) produced negative mass)"
            )
        dangling_mass = float(r[dangling].sum())
        r_new = damping * (pulled + dangling_mass * v) + (1.0 - damping) * v
        total = float(r_new.sum())
        if total > 0:
            r_new /= total
        state["r"] = r_new
        return float(np.abs(r_new - r).sum())

    trace, converged = iterate(step, iterations, tol, callback)
    return SolveResult(
        algorithm="pagerank",
        x=state["r"],
        converged=converged,
        iterations=len(trace),
        residual=trace.residuals[-1] if len(trace) else float("nan"),
        trace=trace,
        extras={"damping": float(damping), "n_dangling": int(dangling.sum())},
    )


# -- conjugate gradient / ridge regression ---------------------------------------------


def conjugate_gradient(
    matrix,
    b: np.ndarray,
    ridge: float = 0.0,
    iterations: int = 200,
    tol: float | None = 1e-10,
    x0: np.ndarray | None = None,
    executor=None,
    retain_plans: bool = True,
    callback=None,
) -> SolveResult:
    """CG on the regularised normal equations ``(AᵗA + λI) x = Aᵗ b``.

    Compressed-domain least squares (CGNR): the operator is applied as
    two protocol kernels per iteration (``Aᵗ(A p)``) plus the ``λ p``
    shift — ``AᵗA`` is never formed.  ``b`` has length ``n_rows``; the
    solution has length ``n_cols``.  The recorded residual is the
    *relative* normal-equation residual ``‖Aᵗb - (AᵗA + λI)x‖₂ /
    ‖Aᵗb‖₂``.

    With ``ridge > 0`` the operator is positive definite and CG is
    unconditionally convergent; with ``ridge = 0`` and a singular Gram
    matrix the iteration stops at breakdown (the least-norm descent
    direction vanishes) without claiming convergence.

    ``extras``: ``ridge``, ``rhs_norm`` (``‖Aᵗb‖₂``).
    """
    kernels = _as_kernels(matrix, executor, retain_plans)
    n, m = kernels.shape
    if ridge < 0:
        raise SolveError(f"ridge must be >= 0, got {ridge}")
    b = _check_vector(b, n, "b")
    atb = kernels.left(b)
    rhs_norm = float(np.linalg.norm(atb))

    x = (
        np.zeros(m, dtype=np.float64)
        if x0 is None
        else _check_vector(x0, m, "x0").copy()
    )

    def operator(p: np.ndarray) -> np.ndarray:
        out = kernels.gram(p)
        if ridge:
            out = out + ridge * p
        return out

    if rhs_norm == 0.0:
        # Aᵗb = 0: x = 0 solves the system exactly.
        trace, _ = iterate(lambda _k: 0.0, 1, 0.0, callback)
        return SolveResult(
            algorithm="cg",
            x=np.zeros(m, dtype=np.float64),
            converged=True,
            iterations=len(trace),
            residual=0.0,
            trace=trace,
            extras={"ridge": float(ridge), "rhs_norm": 0.0},
        )

    state = {
        "x": x,
        "r": atb - operator(x),
        "p": None,
        "rs": None,
    }
    state["p"] = state["r"].copy()
    state["rs"] = float(state["r"] @ state["r"])

    def step(_k: int) -> float:
        p = state["p"]
        ap = operator(p)
        denom = float(p @ ap)
        if denom <= 0.0:
            # Exactly singular (or numerically indefinite) operator:
            # no descent left along p — stop without converging.
            raise StopIteration
        alpha = state["rs"] / denom
        state["x"] = state["x"] + alpha * p
        state["r"] = state["r"] - alpha * ap
        rs_new = float(state["r"] @ state["r"])
        state["p"] = state["r"] + (rs_new / state["rs"]) * p
        state["rs"] = rs_new
        return float(np.sqrt(rs_new)) / rhs_norm

    trace, converged = iterate(step, iterations, tol, callback)
    return SolveResult(
        algorithm="cg",
        x=state["x"],
        converged=converged,
        iterations=len(trace),
        residual=trace.residuals[-1] if len(trace) else float("nan"),
        trace=trace,
        extras={"ridge": float(ridge), "rhs_norm": rhs_norm},
    )


def ridge_regression(
    matrix,
    b: np.ndarray,
    alpha: float = 1.0,
    **options,
) -> SolveResult:
    """Ridge regression ``min_x ‖Ax - b‖² + α‖x‖²`` via :func:`conjugate_gradient`.

    A thin front: the normal equations of the ridge problem are exactly
    ``(AᵗA + αI) x = Aᵗ b``.  ``alpha`` must be positive (that is the
    point of ridge); all other options are forwarded to
    :func:`conjugate_gradient`.
    """
    if alpha <= 0:
        raise SolveError(f"alpha must be > 0, got {alpha}")
    result = conjugate_gradient(matrix, b, ridge=alpha, **options)
    return SolveResult(
        algorithm="ridge",
        x=result.x,
        converged=result.converged,
        iterations=result.iterations,
        residual=result.residual,
        trace=result.trace,
        extras={**result.extras, "alpha": float(alpha)},
    )


# -- randomized top-k subspace iteration -----------------------------------------------


def topk_subspace(
    matrix,
    k: int = 4,
    iterations: int = 60,
    tol: float | None = 1e-9,
    seed: int = 0,
    executor=None,
    retain_plans: bool = True,
    callback=None,
) -> SolveResult:
    """Randomised subspace iteration: the top-``k`` singular directions.

    Starts from a seeded Gaussian ``(n_cols, k)`` panel and repeats
    ``Z = AᵗA V`` (one :meth:`~repro.solve.kernels.SolveKernels.gram_panel`
    — two batched panel kernels with reused workspaces) followed by a
    QR re-orthonormalisation.  The residual is the largest relative
    change of the Ritz values ``θᵢ = vᵢᵗ (AᵗA vᵢ)`` between rounds.

    On exit the basis is rotated to the Ritz vectors (eigenvectors of
    the projected operator), ordered by decreasing singular value:
    ``result.x`` is the ``(n_cols, k)`` orthonormal basis, and
    ``extras["singular_values"]`` the corresponding estimates
    ``σᵢ = √θᵢ`` of ``A``'s top singular values.
    """
    kernels = _as_kernels(matrix, executor, retain_plans)
    n, m = kernels.shape
    if not 1 <= k <= min(n, m):
        raise SolveError(
            f"k must be in [1, {min(n, m)}] for shape {n}x{m}, got {k}"
        )
    rng = np.random.default_rng(seed)
    v_basis, _ = np.linalg.qr(rng.standard_normal((m, k)))
    state = {"v": v_basis, "theta": np.zeros(k, dtype=np.float64)}

    def step(_k: int) -> float:
        v = state["v"]
        z = kernels.gram_panel(v)  # aliases the kernel workspace
        theta = np.einsum("ij,ij->j", v, z)
        v_new, _ = np.linalg.qr(z.copy())
        prev = state["theta"]
        scale = float(np.max(np.abs(theta), initial=0.0))
        residual = (
            float(np.max(np.abs(theta - prev), initial=0.0)) / scale
            if scale > 0
            else 0.0
        )
        state["v"], state["theta"] = v_new, theta
        return residual

    trace, converged = iterate(step, iterations, tol, callback)

    # Ritz refinement: rotate the basis to the eigenvectors of the
    # projected operator and order by decreasing eigenvalue.
    v = state["v"]
    z = kernels.gram_panel(v)
    b_small = v.T @ z
    eigvals, eigvecs = np.linalg.eigh((b_small + b_small.T) / 2.0)
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    v = v @ eigvecs
    singular_values = np.sqrt(np.clip(eigvals, 0.0, None))

    return SolveResult(
        algorithm="topk",
        x=v,
        converged=converged,
        iterations=len(trace),
        residual=trace.residuals[-1] if len(trace) else float("nan"),
        trace=trace,
        extras={
            "k": int(k),
            "singular_values": singular_values.tolist(),
            "seed": int(seed),
        },
    )
