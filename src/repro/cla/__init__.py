"""Compressed Linear Algebra (CLA) baseline.

A self-contained Python implementation of the core of Elgohary et al.'s
CLA system (VLDB J. 2018 / CACM 2019) — the state of the art the paper
compares against in Section 5.4:

- **column co-coding**: correlated columns are grouped and compressed
  together (:mod:`repro.cla.planner`);
- **per-group formats**: Offset-List Encoding (OLE), Run-Length
  Encoding (RLE), Dense Dictionary Coding (DDC), and an Uncompressed
  Column (UC) fallback (:mod:`repro.cla.colgroup`);
- **compressed-domain multiplication**: both multiplication directions
  run directly over the encoded groups (:mod:`repro.cla.matrix`).

The paper runs CLA inside Apache SystemDS, a JVM system this package
does not depend on.  This reimplementation keeps the parts the
comparison measures: the co-coding plan, the group encodings and the
multiplication over them.
"""

from repro.cla.colgroup import (
    ColumnGroupDDC,
    ColumnGroupOLE,
    ColumnGroupRLE,
    ColumnGroupUC,
)
from repro.cla.matrix import CLAMatrix
from repro.cla.planner import plan_column_groups

__all__ = [
    "CLAMatrix",
    "plan_column_groups",
    "ColumnGroupOLE",
    "ColumnGroupRLE",
    "ColumnGroupDDC",
    "ColumnGroupUC",
]
