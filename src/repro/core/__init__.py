"""Core algorithms of the paper: CSRV, RePair, and compressed-domain MVM.

Modules
-------
- :mod:`repro.core.csrv` — the Compressed Sparse Row/Value representation
  (Section 2 of the paper) with scan-based right/left multiplication.
- :mod:`repro.core.grammar` — straight-line program (SLP) model produced
  by the grammar compressor, with validation and expansion utilities.
- :mod:`repro.core.repair` — the RePair compressor, modified so the row
  separator ``$`` never enters a rule (Section 3).
- :mod:`repro.core.multiply` — Theorems 3.4 (right) and 3.10 (left) as
  one sparse operator over ``[x; W]``, run level by level through
  compiled CSR (right) and CSC (left) mat-vec kernels.
- :mod:`repro.core.gcm` — :class:`GrammarCompressedMatrix` with the three
  physical encodings ``re_32`` / ``re_iv`` / ``re_ans`` (Section 4).
- :mod:`repro.core.blocked` — row-block partitioning over one shared
  ``V`` (Section 4.1), multiplied by the row-shard scatter-gather of
  :mod:`repro.shard.matrix`.
- :mod:`repro.core.entropy` — empirical order-k entropy of integer
  sequences, used to check the paper's compression bound.
"""

from repro.core.analysis import GrammarStats, grammar_stats
from repro.core.blocked import BlockedMatrix
from repro.core.csrv import CSRVMatrix, ROW_SEPARATOR
from repro.core.entropy import empirical_entropy, entropy_bound_bits
from repro.core.gcm import GrammarCompressedMatrix
from repro.core.grammar import Grammar
from repro.core.repair import repair_compress

__all__ = [
    "CSRVMatrix",
    "ROW_SEPARATOR",
    "Grammar",
    "repair_compress",
    "GrammarCompressedMatrix",
    "BlockedMatrix",
    "empirical_entropy",
    "entropy_bound_bits",
    "grammar_stats",
    "GrammarStats",
]
