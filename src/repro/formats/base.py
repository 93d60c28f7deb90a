"""The :class:`MatrixFormat` protocol every representation implements.

The paper's whole argument is comparative — seven representations, one
MVM workload — so every representation in this package speaks one
protocol:

- ``right_multiply(x, executor=)`` / ``left_multiply(y, ...)`` — the
  single-vector kernels (``y = Mx`` and ``xᵗ = yᵗM``);
- ``right_multiply_matrix(X, out=, executor=, panel_width=)`` /
  ``left_multiply_matrix(Y, ...)`` — the batched panel kernels, with
  in-place ``out=`` writing and bounded-workspace chunking;
- ``M @ x`` / ``y @ M`` operator sugar and a ``transpose_multiply``
  alias for the left kernel;
- ``size_bytes()`` / ``size_breakdown()`` accounting and ``to_dense()``.

Formats that have no native panel kernel inherit a correct per-column
fallback, so *every* registered format answers batched requests.
``executor`` — a persistent :class:`repro.serve.executor.BlockExecutor`
— is the one way to run a multiply in parallel: formats with parts to
distribute (row shards and blocks, column groups) map them over it, and
the rest ignore it.  The hooks subclasses override are the narrow ones:

``_right_vector`` / ``_left_vector``
    One vector, operand already validated and coerced to float64.
``_right_panel_kernel`` / ``_left_panel_kernel``
    Return a ``kernel(panel, out)`` callable; it is built **once** per
    panel call and reused across ``panel_width`` chunks, which is how
    the grammar variants pay their storage decode once per request
    instead of once per chunk.
``_right_panel`` / ``_left_panel``
    Run the whole validated panel into ``out``; the default builds the
    kernel above and walks the ``panel_width`` chunks.  Row-partitioned
    matrices override it to visit each part once per call and hand it
    the whole panel, so a part's decode is not repeated per chunk.

Concrete formats register themselves with :mod:`repro.formats.registry`
so the serving, serialization, benchmark, and CLI layers can dispatch
by name instead of by type.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import Any

import numpy as np

from repro.errors import MatrixFormatError


class MatrixFormat:
    """Base class of every matrix representation in this package."""

    #: Registry name of the format (:mod:`repro.formats.registry`).
    #: Classes set a string; representations whose name depends on the
    #: instance (the grammar variants) override this with a property.
    format_name: str = ""

    #: Make ``ndarray @ fmt`` defer to :meth:`__rmatmul__` instead of
    #: numpy attempting (and failing) an element-wise coercion.
    __array_priority__ = 100.0

    # -- shape and materialisation -------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_rows, n_cols)``."""
        raise NotImplementedError

    def to_dense(self) -> np.ndarray:
        """Materialise the represented matrix as a dense float64 array."""
        raise NotImplementedError

    # -- accounting ----------------------------------------------------------------

    def size_bytes(self) -> int:
        """Total bytes of the physical representation."""
        raise NotImplementedError

    def size_breakdown(self) -> dict[str, int]:
        """Bytes per component; values sum to :meth:`size_bytes`."""
        return {"total": int(self.size_bytes())}

    def resident_overhead_bytes(self) -> int:
        """Extra live bytes a *served* instance accrues beyond
        :meth:`size_bytes` (decoded views, cached engines, retained
        multiplication plans).  Formats that cache nothing report 0;
        the serving registry charges
        ``size_bytes() + resident_overhead_bytes()`` against its
        residency budget."""
        return 0

    def resident_footprint_bytes(self) -> int:
        """Live bytes a served instance occupies *right now*.

        For fully materialised formats this is simply
        ``size_bytes() + resident_overhead_bytes()``.  Partially
        resident containers (:class:`repro.shard.LazyShardedMatrix`)
        override it to report only their loaded window — the serving
        registry charges this value against its byte budget.
        """
        return int(self.size_bytes()) + int(self.resident_overhead_bytes())

    def enable_plan_retention(self, retain: bool = True) -> bool:
        """Opt into keeping per-multiplication working state resident.

        The serving registry calls this on every matrix it loads (see
        ``MatrixRegistry(retain_plans=...)``): formats that rebuild a
        multiplication schedule per call — the grammar variants'
        :class:`~repro.core.multiply.MvmPlan` — switch to building it
        once and keeping it, and start charging it through
        :meth:`resident_overhead_bytes`.  The base implementation is a
        no-op returning ``False`` (nothing to retain), so callers can
        invoke it on any format unconditionally.
        """
        return False

    def release_retained_plans(self) -> None:
        """Free any multiplication plans this instance keeps (or shares).

        Called by the serving registry when it evicts a matrix, so
        retained plans do not outlive the residency budget that charged
        them.  The base implementation is a no-op.
        """

    # -- single-vector kernels -----------------------------------------------------

    def right_multiply(self, x: Any, executor: Any = None) -> np.ndarray:
        """Compute ``y = M x``.

        ``executor`` is forwarded to representations that parallelise
        internally (row blocks, column groups) and ignored by the rest,
        so callers never need per-format signatures.
        """
        x = check_vector(x, self.shape[1], "x")
        return self._right_vector(x, executor)

    def left_multiply(self, y: Any, executor: Any = None) -> np.ndarray:
        """Compute ``xᵗ = yᵗ M`` (same conventions as :meth:`right_multiply`)."""
        y = check_vector(y, self.shape[0], "y")
        return self._left_vector(y, executor)

    def transpose_multiply(self, y: Any, executor: Any = None) -> np.ndarray:
        """``Mᵗ y`` — an alias for :meth:`left_multiply` (``yᵗM = (Mᵗy)ᵗ``)."""
        return self.left_multiply(y, executor=executor)

    def _right_vector(self, x: np.ndarray, executor: Any) -> np.ndarray:
        """One validated right multiplication (subclass hook)."""
        raise NotImplementedError

    def _left_vector(self, y: np.ndarray, executor: Any) -> np.ndarray:
        """One validated left multiplication (subclass hook)."""
        raise NotImplementedError

    # -- panel kernels -------------------------------------------------------------

    def right_multiply_matrix(
        self,
        x_block: Any,
        out: np.ndarray | None = None,
        executor: Any = None,
        panel_width: int | None = None,
    ) -> np.ndarray:
        """Compute ``Y = M X`` for an ``(m, k)`` block of vectors.

        ``out``, when given, receives the result in place and is
        returned.  ``panel_width`` chunks wide panels to bound the
        per-call workspace; the underlying kernel (and any storage
        decode it implies) is built once and reused across chunks.
        """
        panel = check_panel(x_block, self.shape[1], "x block")
        check_panel_width(panel_width)
        out = _prepare_out(out, (self.shape[0], panel.shape[1]))
        self._right_panel(panel, out, executor, panel_width)
        return out

    def left_multiply_matrix(
        self,
        y_block: Any,
        out: np.ndarray | None = None,
        executor: Any = None,
        panel_width: int | None = None,
    ) -> np.ndarray:
        """Compute ``Xᵗ = Yᵗ M`` for an ``(n, k)`` block of vectors."""
        panel = check_panel(y_block, self.shape[0], "y block")
        check_panel_width(panel_width)
        out = _prepare_out(out, (self.shape[1], panel.shape[1]))
        self._left_panel(panel, out, executor, panel_width)
        return out

    def _right_panel(
        self,
        panel: np.ndarray,
        out: np.ndarray,
        executor: Any,
        panel_width: int | None,
    ) -> None:
        """Fill ``out`` with ``M @ panel``, one kernel over the chunks."""
        kernel = self._right_panel_kernel(executor)
        for lo, hi in _panel_chunks(panel.shape[1], panel_width):
            kernel(panel[:, lo:hi], out[:, lo:hi])

    def _left_panel(
        self,
        panel: np.ndarray,
        out: np.ndarray,
        executor: Any,
        panel_width: int | None,
    ) -> None:
        """Fill ``out`` with ``panelᵗ @ M``, one kernel over the chunks."""
        kernel = self._left_panel_kernel(executor)
        for lo, hi in _panel_chunks(panel.shape[1], panel_width):
            kernel(panel[:, lo:hi], out[:, lo:hi])

    def _right_panel_kernel(
        self, executor: Any
    ) -> Callable[[np.ndarray, np.ndarray], None]:
        """Return ``kernel(panel, out)`` for right panels.

        Fallback: one :meth:`_right_vector` call per column — correct
        for every format, so panel ops exist even for representations
        without a native batched kernel.
        """

        def kernel(panel: np.ndarray, out: np.ndarray) -> None:
            for j in range(panel.shape[1]):
                out[:, j] = self._right_vector(np.ascontiguousarray(panel[:, j]), executor)

        return kernel

    def _left_panel_kernel(
        self, executor: Any
    ) -> Callable[[np.ndarray, np.ndarray], None]:
        """Return ``kernel(panel, out)`` for left panels (see above)."""

        def kernel(panel: np.ndarray, out: np.ndarray) -> None:
            for j in range(panel.shape[1]):
                out[:, j] = self._left_vector(np.ascontiguousarray(panel[:, j]), executor)

        return kernel

    # -- operator sugar ------------------------------------------------------------

    def __matmul__(self, other: Any) -> np.ndarray:
        """``M @ x`` (vector) or ``M @ X`` (``(m, k)`` panel)."""
        arr = _operand(other, "right operand of @")
        if arr.ndim == 1:
            return self.right_multiply(arr)
        return self.right_multiply_matrix(arr)

    def __rmatmul__(self, other: Any) -> np.ndarray:
        """``y @ M`` (vector) or ``Y @ M`` with ``Y`` of shape ``(k, n)``.

        Follows the numpy convention: a 2-D left operand of shape
        ``(k, n_rows)`` yields a ``(k, n_cols)`` result.
        """
        arr = _operand(other, "left operand of @")
        if arr.ndim == 1:
            return self.left_multiply(arr)
        return np.ascontiguousarray(
            self.left_multiply_matrix(np.ascontiguousarray(arr.T)).T
        )


# -- shared validation helpers -------------------------------------------------------


def check_vector(vec: Any, expected: int, name: str) -> np.ndarray:
    """Validate a multiplication operand and coerce it to float64."""
    try:
        vec = np.asarray(vec, dtype=np.float64).ravel()
    except (TypeError, ValueError) as exc:
        raise MatrixFormatError(f"{name} is not numeric: {exc}") from exc
    if vec.size != expected:
        raise MatrixFormatError(
            f"{name} has length {vec.size}, expected {expected}"
        )
    return vec


def check_panel(panel: Any, expected_rows: int, name: str) -> np.ndarray:
    """Validate a panel operand: float64, 2-D, ``(expected_rows, k)``."""
    try:
        panel = np.asarray(panel, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise MatrixFormatError(f"{name} is not numeric: {exc}") from exc
    if panel.ndim == 1:
        panel = panel[:, None]
    if panel.ndim != 2 or panel.shape[0] != expected_rows:
        raise MatrixFormatError(
            f"{name} has shape {panel.shape}, expected ({expected_rows}, k)"
        )
    return panel


def check_panel_width(panel_width: int | None) -> None:
    """Reject non-positive panel chunk widths with the package's error type."""
    if panel_width is not None and panel_width < 1:
        raise MatrixFormatError(
            f"panel_width must be >= 1, got {panel_width}"
        )


def _prepare_out(out: np.ndarray | None, expected: tuple[int, int]) -> np.ndarray:
    if out is None:
        return np.empty(expected, dtype=np.float64)
    if out.shape != expected:
        raise MatrixFormatError(
            f"out has shape {out.shape}, expected {expected}"
        )
    if out.dtype != np.float64:
        raise MatrixFormatError(
            f"out has dtype {out.dtype}, expected float64"
        )
    return out


def _panel_chunks(k: int, panel_width: int | None) -> Iterator[tuple[int, int]]:
    if panel_width is None or k <= panel_width:
        if k:
            yield 0, k
        return
    for lo in range(0, k, panel_width):
        yield lo, min(k, lo + panel_width)


def _operand(other: Any, name: str) -> np.ndarray:
    """Coerce an ``@`` operand, raising the package's error type."""
    try:
        arr = np.asarray(other, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise MatrixFormatError(f"{name} is not numeric: {exc}") from exc
    if arr.ndim not in (1, 2):
        raise MatrixFormatError(
            f"{name} must be 1-D or 2-D, got ndim={arr.ndim}"
        )
    return arr
