"""Row-block partitioned matrices: the paper's Section 4.1 layout.

Section 4.1 of the paper splits an ``r × c`` matrix into ``b`` blocks of
``⌈r/b⌉`` consecutive rows, grammar-compresses each block independently
(sharing the single distinct-value array ``V``), and runs the per-block
multiplications in parallel:

- right multiplication is ``b`` independent block multiplications whose
  results are concatenated;
- left multiplication is ``b`` independent block multiplications whose
  resulting row vectors are summed.

That is the scatter-gather of :class:`repro.shard.ShardedMatrix`, so
:class:`BlockedMatrix` is a sharded matrix whose blocks share one ``V``:
the multiply kernels, the ``threads``/``executor`` fan-out, plan
retention and the shape checks are inherited.  What is its own is
construction (grammar, plain ``csrv`` and per-block ``auto`` blocks —
the uncompressed baseline of Table 2 runs through the same code path),
size accounting with ``V`` counted once, and the ``blocked``
serialization codec, which stores ``V`` once.
"""

from __future__ import annotations

import numpy as np

from repro.core.csrv import CSRVMatrix
from repro.core.gcm import GrammarCompressedMatrix, VARIANTS
from repro.errors import MatrixFormatError
from repro.shard.matrix import ShardedMatrix

#: Representations accepted by :meth:`BlockedMatrix.compress`.
#: ``auto`` picks the smallest of all formats per block — the Section
#: 4.2 avenue ("use different compressors to compress different blocks,
#: or use the CSRV representation for the blocks which are hard to
#: compress").
BLOCK_FORMATS = ("csrv",) + VARIANTS + ("auto",)


class BlockedMatrix(ShardedMatrix):
    """A sharded matrix whose row blocks share one value array ``V``.

    Parameters
    ----------
    blocks:
        Per-block representations (``CSRVMatrix`` or
        ``GrammarCompressedMatrix``) over one shared ``V``, covering
        consecutive row ranges.
    shape:
        Overall ``(n_rows, n_cols)``.
    """

    format_name = "blocked"

    # -- construction -------------------------------------------------------------

    @classmethod
    def compress(
        cls,
        source: CSRVMatrix | np.ndarray,
        variant: str = "re_32",
        n_blocks: int = 1,
        min_frequency: int = 2,
        max_rules: int | None = None,
        column_orders: list | None = None,
        strategy: str = "exact",
    ) -> BlockedMatrix:
        """Partition ``source`` into row blocks and compress each one.

        Parameters
        ----------
        variant:
            One of :data:`BLOCK_FORMATS` (``csrv`` keeps blocks
            uncompressed in CSRV form).
        n_blocks:
            Number of row blocks ``b``.
        column_orders:
            Optional per-block column permutations (Section 5.3: each
            block may be reordered with a different permutation).  Only
            valid when ``source`` is a dense array; length must equal
            the number of blocks.
        strategy:
            RePair formulation used for every grammar block (see
            :func:`repro.core.repair.repair_compress`).
        """
        if variant not in BLOCK_FORMATS:
            raise MatrixFormatError(
                f"unknown block format {variant!r}; expected one of {BLOCK_FORMATS}"
            )
        if column_orders is not None:
            if isinstance(source, CSRVMatrix):
                raise MatrixFormatError(
                    "per-block column_orders require a dense source"
                )
            return cls._compress_reordered(
                np.asarray(source), variant, n_blocks, column_orders,
                min_frequency, max_rules, strategy,
            )
        csrv = (
            source
            if isinstance(source, CSRVMatrix)
            else CSRVMatrix.from_dense(np.asarray(source))
        )
        parts = csrv.split_rows(n_blocks)
        blocks = [
            cls._compress_block(p, variant, min_frequency, max_rules, strategy)
            for p in parts
        ]
        return cls(blocks, csrv.shape)

    @classmethod
    def _compress_reordered(
        cls,
        dense: np.ndarray,
        variant: str,
        n_blocks: int,
        column_orders: list,
        min_frequency: int,
        max_rules: int | None,
        strategy: str = "exact",
    ) -> BlockedMatrix:
        # One global CSRV first, so every block shares the single value
        # array V and its code space (Section 4.1); the per-block
        # permutations then only re-lay-out pairs inside each row.
        csrv = CSRVMatrix.from_dense(dense)
        parts = csrv.split_rows(n_blocks)
        if len(column_orders) != len(parts):
            raise MatrixFormatError(
                f"got {len(column_orders)} column orders for {len(parts)} blocks"
            )
        blocks = [
            cls._compress_block(
                part.with_column_order(order), variant, min_frequency,
                max_rules, strategy,
            )
            for part, order in zip(parts, column_orders, strict=True)
        ]
        return cls(blocks, dense.shape)

    @staticmethod
    def _compress_block(
        part: CSRVMatrix,
        variant: str,
        min_frequency: int,
        max_rules: int | None,
        strategy: str = "exact",
    ):
        if variant == "csrv":
            return part
        if variant == "auto":
            return BlockedMatrix._compress_block_auto(
                part, min_frequency, max_rules, strategy
            )
        return GrammarCompressedMatrix.compress(
            part, variant=variant, min_frequency=min_frequency,
            max_rules=max_rules, strategy=strategy,
        )

    @staticmethod
    def _compress_block_auto(
        part: CSRVMatrix,
        min_frequency: int,
        max_rules: int | None,
        strategy: str = "exact",
    ):
        """Per-block format selection (Section 4.2).

        RePair runs once; the block keeps whichever physical form is
        smallest — one of the three grammar encodings, or plain CSRV
        when the block is too irregular for the grammar to pay off.
        The shared array ``V`` is excluded from the comparison since
        every candidate references the same one.
        """
        from repro.core.repair import repair_compress

        grammar = repair_compress(
            part.s, min_frequency=min_frequency, max_rules=max_rules,
            strategy=strategy,
        )
        best = part
        best_bytes = 4 * int(part.s.size)
        for variant in VARIANTS:
            candidate = GrammarCompressedMatrix.from_grammar(
                grammar, part.values, part.shape, variant
            )
            parts = candidate.size_breakdown()
            candidate_bytes = parts["C"] + parts["R"]
            if candidate_bytes < best_bytes:
                best, best_bytes = candidate, candidate_bytes
        return best

    # -- accessors ------------------------------------------------------------------

    @property
    def blocks(self) -> list:
        """The per-block representations (consecutive row ranges)."""
        return self.shards

    @property
    def n_blocks(self) -> int:
        """Number of row blocks."""
        return self.n_shards

    def __repr__(self) -> str:
        kind = type(self._shards[0]).__name__
        return (
            f"BlockedMatrix(shape={self._shape}, n_blocks={self.n_blocks}, "
            f"block_type={kind})"
        )

    def size_bytes(self) -> int:
        """Total compressed bytes over all blocks.

        ``V`` is shared in the paper's layout, so its bytes are counted
        once even though every block object holds a reference to it.
        """
        return sum(self.size_breakdown().values())

    def size_breakdown(self) -> dict[str, int]:
        """Component bytes summed over blocks (``V`` counted once).

        Grammar blocks contribute ``C``/``R``, uncompressed blocks
        contribute ``S``; an ``auto`` matrix can show all three.
        """
        parts = {"C": 0, "R": 0, "S": 0, "V": 0}
        for i, block in enumerate(self._shards):
            bd = block.size_breakdown()
            for key, value in bd.items():
                if key == "V":
                    if i == 0:
                        parts["V"] = value
                else:
                    parts[key] += value
        return {k: v for k, v in parts.items() if v or k == "V"}
