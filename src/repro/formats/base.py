"""The :class:`MatrixFormat` protocol every representation implements.

The paper's whole argument is comparative — seven representations, one
MVM workload — so every representation in this package speaks one
protocol:

- ``right_multiply(x, executor=)`` / ``left_multiply(y, ...)`` — the
  single-vector kernels (``y = Mx`` and ``xᵗ = yᵗM``);
- ``right_multiply_matrix(X, out=, executor=)`` /
  ``left_multiply_matrix(Y, ...)`` — the batched panel kernels, with
  in-place ``out=`` writing;
- ``M @ x`` / ``y @ M`` operator sugar and a ``transpose_multiply``
  alias for the left kernel;
- ``size_bytes()`` / ``size_breakdown()`` accounting and ``to_dense()``.

``executor`` — a persistent :class:`repro.serve.executor.BlockExecutor`
— is the one way to run a multiply in parallel: formats with parts to
distribute (row shards and blocks, column groups) map them over it, and
the rest ignore it.  A vector is a panel of one column, so each
direction has **one** hook, and the four public entries above only
validate their operands before calling it:

``_right(x, out, executor)`` / ``_left(y, out, executor)``
    For an ``(n, m)`` matrix, ``x`` is a validated float64 vector
    ``(m,)`` or panel ``(m, k)``, possibly strided or read-only, and
    the result is ``(n,)`` or ``(n, k)`` to match (``_left`` maps
    ``(n,)``/``(n, k)`` to ``(m,)``/``(m, k)``).  The contract is numpy's
    ``matmul(..., out=)``: with ``out=None`` the hook allocates its
    result, otherwise it writes the result into ``out`` (already
    checked for shape and dtype) and returns ``out``.  A hook bounds
    its own workspace: the grammar engine runs wide panels in
    :data:`~repro.core.multiply.PANEL_COLUMNS`-column chunks over one
    storage decode.

Concrete formats register themselves with :mod:`repro.formats.registry`
so the serving, serialization, benchmark, and CLI layers can dispatch
by name instead of by type.
"""

from __future__ import annotations

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
        """Free any multiplication plans this instance keeps.

        Called by the serving registry when it evicts a matrix, so
        retained plans do not outlive the residency budget that charged
        them.  The base implementation is a no-op.
        """

    # -- kernels -------------------------------------------------------------------

    def right_multiply(self, x: Any, executor: Any = None) -> np.ndarray:
        """Compute ``y = M x``.

        ``executor`` is forwarded to representations that parallelise
        internally (row blocks, column groups) and ignored by the rest,
        so callers never need per-format signatures.
        """
        return self._right(check_vector(x, self.shape[1], "x"), None, executor)

    def left_multiply(self, y: Any, executor: Any = None) -> np.ndarray:
        """Compute ``xᵗ = yᵗ M`` (same conventions as :meth:`right_multiply`)."""
        return self._left(check_vector(y, self.shape[0], "y"), None, executor)

    def transpose_multiply(self, y: Any, executor: Any = None) -> np.ndarray:
        """``Mᵗ y`` — an alias for :meth:`left_multiply` (``yᵗM = (Mᵗy)ᵗ``)."""
        return self.left_multiply(y, executor=executor)

    def right_multiply_matrix(
        self,
        x_block: Any,
        out: np.ndarray | None = None,
        executor: Any = None,
    ) -> np.ndarray:
        """Compute ``Y = M X`` for an ``(m, k)`` block of vectors.

        ``out``, when given, receives the result in place and is
        returned.
        """
        panel = check_panel(x_block, self.shape[1], "x block")
        out = _prepare_out(out, (self.shape[0], panel.shape[1]))
        return self._right(panel, out, executor)

    def left_multiply_matrix(
        self,
        y_block: Any,
        out: np.ndarray | None = None,
        executor: Any = None,
    ) -> np.ndarray:
        """Compute ``Xᵗ = Yᵗ M`` for an ``(n, k)`` block of vectors."""
        panel = check_panel(y_block, self.shape[0], "y block")
        out = _prepare_out(out, (self.shape[1], panel.shape[1]))
        return self._left(panel, out, executor)

    def _right(
        self, x: np.ndarray, out: np.ndarray | None, executor: Any
    ) -> np.ndarray:
        """``M @ x`` for a validated vector or panel (subclass hook)."""
        raise NotImplementedError

    def _left(
        self, y: np.ndarray, out: np.ndarray | None, executor: Any
    ) -> np.ndarray:
        """``Mᵗ @ y`` for a validated vector or panel (subclass hook)."""
        raise NotImplementedError

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


def fill_out(out: np.ndarray | None, result: np.ndarray) -> np.ndarray:
    """``result``, or ``out`` after ``result`` is copied into it: the
    ``out=`` contract for kernels that cannot write in place."""
    if out is None:
        return result
    out[...] = result
    return out


def _prepare_out(
    out: np.ndarray | None, expected: tuple[int, int]
) -> np.ndarray | None:
    """Check a caller's ``out`` buffer; ``None`` lets the kernel allocate."""
    if out is None:
        return None
    if out.shape != expected:
        raise MatrixFormatError(
            f"out has shape {out.shape}, expected {expected}"
        )
    if out.dtype != np.float64:
        raise MatrixFormatError(
            f"out has dtype {out.dtype}, expected float64"
        )
    return out


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
