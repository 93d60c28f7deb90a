"""Matrix-vector multiplication over SLP grammars as one sparse operator.

This module implements Theorems 3.4 (right multiplication) and 3.10
(left multiplication) of the paper.  Both theorems evaluate an auxiliary
array ``W[1..q]`` over the rules:

- **right** (``y = Mx``): ``W[i] = eval_x(N_i)`` is filled bottom-up; a
  rule's value is the sum of its two children's values, where a terminal
  child ``⟨ℓ,j⟩`` contributes ``V[ℓ]·x[j]`` and a nonterminal child
  contributes its (already computed) ``W`` entry.  A final scan of ``C``
  accumulates per-row results.
- **left** (``xᵗ = yᵗM``): ``W[i] = sum_y(N_i)`` is seeded from the
  occurrences of nonterminals in ``C`` and propagated top-down by a
  backward scan of the rules; terminal children ``⟨ℓ,j⟩`` flush
  ``V[ℓ]·W`` into ``x[j]``.

Both are linear maps over the stacked vector ``z = [x; W]``.  Rule
``N_i → A B`` is the sparse row ``W[i] = w_A·z[A] + w_B·z[B]``, where a
terminal child ``⟨ℓ,j⟩`` is column ``j`` with weight ``V[ℓ]`` and a
nonterminal child is its ``W`` column with weight 1; row ``r`` of the
matrix is the sparse row ``y[r] = Σ w_s·z[s]`` over the symbols of
``C`` between its separators.  :class:`MvmPlan` stores all of these
rows as one CSR operator — two entries per rule, then the final
string — with the rules renumbered by derivation level, so that the
rules of one level are a contiguous block of rows that reads only
``x`` and lower levels.

A per-symbol Python loop would dominate the runtime, so each level is
one call of the compiled CSR mat-vec kernels that scipy's own
``csr_array @`` dispatches to, on a slice of the operator's index
pointer: right multiplication is the chain of level mat-vecs, each
writing the next slice of ``z``, then the final string.  Left
multiplication reads the same arrays as the transposed (CSC) operator
and runs the chain in reverse: the final string seeds ``W``, and each
level, once every parent has contributed, flushes into its children.
The evaluation order is the theorems' (children strictly before parents
for right, parents strictly before children for left), so the computed
values are the same sums.  One code path serves a vector and a
``(·, k)`` panel.

:class:`MvmPlan` is an immutable, grammar-independent value object; it
holds value *ids*, never values, so one plan serves every matrix with
the same grammar.  :class:`MvmEngine` binds a value array ``V`` into
per-entry weights once and runs the chain.  Building a plan costs
``O(|C| + |R| · depth)``, which is cheap enough to be redone per
multiplication — how the ``re_iv``/``re_ans`` variants account for
their decode overhead by default (see :mod:`repro.core.gcm`) — but
pure waste on a serving path that multiplies the same matrix thousands
of times.  Served matrices therefore opt into *plan retention*: a
matrix builds its engine once and keeps it, so repeated
multiplications skip both the storage decode and the plan build (see
``BENCH_hotpaths.json`` for the cold/warm gap this buys).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import pairwise

import numpy as np
from scipy.sparse._sparsetools import (
    csc_matvec,
    csc_matvecs,
    csr_matvec,
    csr_matvecs,
)

from repro.core.csrv import ROW_SEPARATOR
from repro.core.grammar import Grammar
from repro.errors import MatrixFormatError

#: Largest index the compiled kernels' 32-bit index variant can hold.
_INT32_MAX = np.iinfo(np.int32).max

#: Widest panel :class:`MvmEngine` runs in one pass.  Wider panels run
#: in chunks of this many columns over the same engine, so the stacked
#: vector ``[x; W]`` never takes more than ``8·(m + q)·PANEL_COLUMNS``
#: bytes, however many vectors a call carries.
PANEL_COLUMNS = 64


@dataclass(frozen=True)
class MvmPlan:
    """The reusable part of a multiplication: the operator over ``z = [x; W]``.

    Rows ``0..q-1`` of the CSR triple ``(indptr, indices, value_ids)``
    are the rules, renumbered so that level ``l`` is the row block
    ``levels[l-1]:levels[l]``; every rule has exactly two entries, so
    that part of ``indptr`` is ``2·arange(q + 1)``.  Rows ``q..q+n-1``
    are the matrix rows of the final string.  Columns ``0..m-1`` are
    ``x``, column ``m + r`` is (renumbered) rule ``r``.  ``value_ids``
    holds ``ℓ`` for a terminal entry and ``-1`` for a rule reference
    (weight 1).

    A plan is derived purely from ``(grammar, n_cols)`` and holds no
    reference to the grammar arrays or to ``V``, so it can outlive the
    decode that produced it: a served ``re_iv``/``re_ans`` block that
    retains its engine skips both the storage decode and the plan build
    on every multiplication after the first (see
    :meth:`repro.core.gcm.GrammarCompressedMatrix.enable_plan_retention`).
    """

    n_cols: int
    n_rows: int
    n_rules: int
    #: Length of ``V`` the value ids need (largest id + 1).
    n_values: int
    #: ``(depth + 1,)`` first renumbered rule of each level, then ``q``.
    levels: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    value_ids: np.ndarray

    @classmethod
    def from_grammar(cls, grammar: Grammar, n_cols: int) -> MvmPlan:
        """Renumber the rules by level and write the operator's arrays."""
        m = int(n_cols)
        q = grammar.n_rules
        base = grammar.nt_base
        c = grammar.final
        # Symbols, columns and entry offsets all fit the kernels' 32-bit
        # index variant unless the grammar is huge.
        itype = (
            np.int32
            if max(base + q, m + q, 2 * q + c.size) <= _INT32_MAX
            else np.int64
        )
        rule_level = grammar.rule_levels()
        levels = np.concatenate([[0], np.cumsum(np.bincount(rule_level)[1:])])
        # A stable sort of small integers is a radix sort.
        key = rule_level.astype(np.uint16) if levels.size <= 1 << 16 else rule_level
        order = np.argsort(key, kind="stable")
        renumbered = np.empty(q, dtype=itype)
        renumbered[order] = np.arange(m, m + q, dtype=itype)

        is_sep = c == ROW_SEPARATOR
        symbols = np.concatenate(
            [grammar.rules[order].ravel(), c[~is_sep]], dtype=itype, casting="same_kind"
        )
        # Entry index of each row end: the separator's position less the
        # separators before it.
        separators = np.flatnonzero(is_sep)
        row_ends = separators - np.arange(separators.size)
        indptr = np.concatenate(
            [2 * np.arange(q + 1), 2 * q + row_ends], dtype=itype, casting="same_kind"
        )

        value_ids, indices = np.divmod(symbols - 1, itype(max(m, 1)))
        nt = np.flatnonzero(symbols >= base)
        indices[nt] = renumbered[symbols[nt] - base]
        value_ids[nt] = -1
        return cls(
            n_cols=m,
            n_rows=int(row_ends.size),
            n_rules=q,
            n_values=int(value_ids.max()) + 1 if value_ids.size else 0,
            levels=levels,
            indptr=indptr,
            indices=indices,
            value_ids=value_ids,
        )

    @property
    def nbytes(self) -> int:
        """Bytes held live by the plan's arrays."""
        return int(
            self.levels.nbytes
            + self.indptr.nbytes
            + self.indices.nbytes
            + self.value_ids.nbytes
        )


class MvmEngine:
    """A plan bound to one value array: the executable multiplication.

    Parameters
    ----------
    plan:
        The :class:`MvmPlan` to execute.
    values:
        The distinct-value array ``V`` of the matrix; bound once into
        per-entry weights.

    Notes
    -----
    The engine is stateless with respect to the operands: :meth:`right`
    and :meth:`left` can be called any number of times, with a vector or
    a ``(·, k)`` panel.  The stacked vector ``z = [x; W]`` of the
    theorems is allocated per pass (``8·(m + q)·k`` bytes, matching the
    ``O(|R|)`` space bound per vector); a panel wider than
    :data:`PANEL_COLUMNS` runs in passes of that many columns, which
    caps the workspace while the plan and its storage decode still
    serve the whole call.
    """

    def __init__(self, plan: MvmPlan, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1 or values.size < plan.n_values:
            raise MatrixFormatError(
                f"the plan needs a value array of length >= {plan.n_values}, "
                f"got shape {values.shape}"
            )
        self._plan = plan
        # Rule references carry id -1, which picks the appended weight 1.
        self._weights = np.append(values, 1.0)[plan.value_ids]
        m, q = plan.n_cols, plan.n_rules
        self._width = m + q
        self._level_rows = [
            (plan.indptr[lo : hi + 1], m + lo, m + hi)
            for lo, hi in pairwise(plan.levels.tolist())
        ]
        self._final_rows = plan.indptr[q:]

    @classmethod
    def from_grammar(
        cls, grammar: Grammar, n_cols: int, values: np.ndarray
    ) -> MvmEngine:
        """Build a fresh plan for ``grammar`` and bind ``values`` to it."""
        return cls(MvmPlan.from_grammar(grammar, n_cols), values)

    @property
    def plan(self) -> MvmPlan:
        """The immutable operator this engine executes."""
        return self._plan

    @property
    def n_rows(self) -> int:
        """Number of matrix rows covered by this engine's block."""
        return self._plan.n_rows

    @property
    def n_rules(self) -> int:
        """Number of grammar rules ``q``."""
        return self._plan.n_rules

    @property
    def nbytes(self) -> int:
        """Bytes held live by the plan plus the bound weights."""
        return self._plan.nbytes + int(self._weights.nbytes)

    def right(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Compute ``y = M x`` (Theorem 3.4) for a vector or an ``(m, k)`` panel.

        ``out``, when given, receives the result in place (its old
        contents are overwritten) and is returned.
        """
        x = _operand(x, self._plan.n_cols, "x")
        if x.ndim == 2 and x.shape[1] > PANEL_COLUMNS:
            return self._chunked(self.right, x, out, self._plan.n_rows)
        z = np.zeros((self._width,) + x.shape[1:], dtype=np.float64)
        z[: self._plan.n_cols] = x
        y = _zeroed_result(out, (self._plan.n_rows,) + x.shape[1:])
        zs, ys = _vector_views(z, y)
        for rows, lo, hi in self._level_rows:
            self._csr(rows, zs, zs[lo:hi])
        self._csr(self._final_rows, zs, ys)
        if out is not None and y is not out:
            out[...] = y
            return out
        return y

    def left(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Compute ``xᵗ = yᵗ M`` (Theorem 3.10) for a vector or an ``(n, k)`` panel.

        For a panel, column ``c`` of the ``(m, k)`` result is
        ``y[:, c]ᵗ M``.  ``out`` as in :meth:`right`.
        """
        y = _operand(y, self._plan.n_rows, "y")
        if y.ndim == 2 and y.shape[1] > PANEL_COLUMNS:
            return self._chunked(self.left, y, out, self._plan.n_cols)
        y = np.ascontiguousarray(y)
        g = np.zeros((self._width,) + y.shape[1:], dtype=np.float64)
        gs, ys = _vector_views(g, y)
        # Seed from C, then flush each level once all its parents (all
        # at higher levels) have landed; a level writes only to x and
        # to lower levels, never to the slice it reads.
        self._csc(self._final_rows, ys, gs)
        for rows, lo, hi in reversed(self._level_rows):
            self._csc(rows, gs[lo:hi], gs)
        x = g[: self._plan.n_cols]
        if out is None:
            return x.copy()
        _check_out(out, x.shape)
        out[...] = x
        return out

    @staticmethod
    def _chunked(
        kernel: Callable[..., np.ndarray],
        panel: np.ndarray,
        out: np.ndarray | None,
        rows: int,
    ) -> np.ndarray:
        """``kernel`` over ``PANEL_COLUMNS``-column slices of a wide panel,
        each written into its slice of one ``(rows, k)`` result."""
        shape = (rows, panel.shape[1])
        if out is None:
            out = np.empty(shape, dtype=np.float64)
        else:
            _check_out(out, shape)
        for lo in range(0, panel.shape[1], PANEL_COLUMNS):
            cols = slice(lo, lo + PANEL_COLUMNS)
            kernel(panel[:, cols], out=out[:, cols])
        return out

    # -- kernels ---------------------------------------------------------------

    def _csr(self, rows: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
        """``dst += A[rows] @ src`` for a contiguous block of operator rows."""
        n = rows.size - 1
        if src.ndim == 1:
            csr_matvec(n, self._width, rows, self._plan.indices, self._weights, src, dst)
        else:
            csr_matvecs(
                n, self._width, src.shape[1], rows, self._plan.indices,
                self._weights, src, dst,
            )

    def _csc(self, rows: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
        """``dst += A[rows]ᵗ @ src``: the same rows read as CSC columns."""
        n = rows.size - 1
        if src.ndim == 1:
            csc_matvec(self._width, n, rows, self._plan.indices, self._weights, src, dst)
        else:
            csc_matvecs(
                self._width, n, src.shape[1], rows, self._plan.indices,
                self._weights, src, dst,
            )


def retained_nbytes(n_rows: int, n_rules: int, c_length: int) -> int:
    """Bytes an :class:`MvmEngine` holds for a grammar of these sizes,
    without building it.

    The plan has ``2q + |C| - n`` entries, each a 4-byte column and a
    4-byte value id, plus the engine's 8-byte bound weight, and a 4-byte
    index pointer per rule and row (the small per-level array is left
    out).  Exact for grammars small enough for 32-bit indices.
    """
    entries = 2 * n_rules + c_length - n_rows
    return 16 * entries + 4 * (n_rules + n_rows + 1)


def _operand(arr: np.ndarray, length: int, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim not in (1, 2) or arr.shape[0] != length:
        raise MatrixFormatError(
            f"{name} has shape {arr.shape}, expected ({length},) or ({length}, k)"
        )
    return arr


def _vector_views(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-column panels as 1-D views, so that they run the vector kernels.

    At ``k = 1`` scipy's ``csr_matvec``/``csc_matvec`` are faster than
    ``csr_matvecs``/``csc_matvecs``.  Both arrays are C-contiguous, so
    ``reshape(-1)`` is a view; a copy would lose the kernel's writes.
    """
    if a.ndim == 1 or a.shape[1] != 1:
        return a, b
    av, bv = a.reshape(-1), b.reshape(-1)
    assert np.may_share_memory(av, a) and np.may_share_memory(bv, b)
    return av, bv


def _zeroed_result(out: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray:
    """A zeroed C-contiguous result buffer: ``out`` itself when it is one."""
    if out is None:
        return np.zeros(shape, dtype=np.float64)
    _check_out(out, shape)
    if out.dtype == np.float64 and out.flags.c_contiguous:
        out.fill(0.0)
        return out
    return np.zeros(shape, dtype=np.float64)


def _check_out(out: np.ndarray, shape: tuple[int, ...]) -> None:
    if out.shape != shape:
        raise MatrixFormatError(f"out has shape {out.shape}, expected {shape}")
