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
the multiply kernels, the ``executor`` fan-out, plan retention and the
shape checks are inherited.  What is its own is construction, size
accounting with ``V`` counted once, and the ``blocked`` serialization
codec, which stores ``V`` once.

:func:`compress_part` compresses one row partition in one format, or
keeps the smallest encoding per partition (Section 4.2).  It is the
only way a row partition is compressed: the blocks of
:meth:`BlockedMatrix.compress` (the uncompressed ``csrv`` baseline of
Table 2 included), the blocks of
:func:`repro.reorder.pipeline.compress_with_reordering`, where the
Section 5.3 per-block column permutations now live, and every shard of
:func:`repro.shard.build_sharded` whose plan leaves the format open.
"""

from __future__ import annotations

import numpy as np

from repro.core.csrv import CSRVMatrix
from repro.core.gcm import GrammarCompressedMatrix, VARIANTS
from repro.core.repair import repair_compress
from repro.errors import MatrixFormatError
from repro.shard.matrix import ShardedMatrix

#: Formats accepted by :func:`compress_part`.  ``auto`` keeps the
#: smallest of the others per partition — the Section 4.2 avenue ("use
#: different compressors to compress different blocks, or use the CSRV
#: representation for the blocks which are hard to compress").
BLOCK_FORMATS = ("csrv",) + VARIANTS + ("auto",)


def compress_part(
    part: CSRVMatrix,
    format: str,
    min_frequency: int = 2,
    max_rules: int | None = None,
    strategy: str = "exact",
) -> CSRVMatrix | GrammarCompressedMatrix:
    """Compress one row partition (a block or a shard) in ``format``.

    ``csrv`` returns ``part`` itself.  A grammar variant runs RePair
    once over ``part.s`` with the given options and stores the grammar
    in that encoding.  ``auto`` runs RePair once and keeps the candidate
    with the smallest ``size_bytes()`` among ``csrv``, ``re_32``,
    ``re_iv`` and ``re_ans``, compared in that order, so a tie keeps
    the earlier one.  Every candidate references ``part.values``, so
    ``V`` does not change the ranking.  Plain CSR is no candidate: its
    ``12·nnz + 4(n+1)`` bytes always exceed CSRV's ``4(nnz + n) + 8|V|``,
    because ``|V| ≤ nnz``.
    """
    if format not in BLOCK_FORMATS:
        raise MatrixFormatError(
            f"unknown block format {format!r}; expected one of {BLOCK_FORMATS}"
        )
    if format == "csrv":
        return part
    grammar = repair_compress(
        part.s, min_frequency=min_frequency, max_rules=max_rules,
        strategy=strategy,
    )

    def encode(variant: str) -> GrammarCompressedMatrix:
        return GrammarCompressedMatrix.from_grammar(
            grammar, part.values, part.shape, variant
        )

    if format != "auto":
        return encode(format)
    return min([part, *map(encode, VARIANTS)], key=lambda m: m.size_bytes())


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
        strategy: str = "exact",
    ) -> BlockedMatrix:
        """Partition ``source`` into row blocks and compress each one
        with :func:`compress_part`.

        Parameters
        ----------
        variant:
            One of :data:`BLOCK_FORMATS` (``csrv`` keeps blocks
            uncompressed in CSRV form).
        n_blocks:
            Number of row blocks ``b``.
        strategy:
            RePair formulation used for every grammar block (see
            :func:`repro.core.repair.repair_compress`).
        """
        csrv = (
            source
            if isinstance(source, CSRVMatrix)
            else CSRVMatrix.from_dense(np.asarray(source))
        )
        blocks = [
            compress_part(p, variant, min_frequency, max_rules, strategy)
            for p in csrv.split_rows(n_blocks)
        ]
        return cls(blocks, csrv.shape)

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
