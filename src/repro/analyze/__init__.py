"""Project-specific static analysis (``repro analyze``).

The repo's correctness rests on invariants that ordinary linters cannot
see: :class:`~repro.formats.registry.FormatSpec` capability flags must
match what each format class actually implements, serialization kind
tags must stay unique and round-trippable, and the serve layer's shared
mutable state must only be touched under its lock.  This package is an
AST-based linter that machine-checks those invariants, with a committed
baseline (``analysis/baseline.json``) ratcheted in CI exactly like the
coverage gate: new findings fail the build, old ones may only be fixed
or explicitly waived.

Rules
-----
RA01  capability-consistency (spec flags vs. real class overrides)
RA02  kind-tag integrity (unique tags, complete save/load/peek codecs)
RA03  lock discipline (underscore attrs written outside ``self._lock``)
RA04  broad-except boundaries (``except Exception`` only where allowed)
RA05  kernel ``out=`` contract (return ``out`` when it is provided)
RA06  executor plumbing (multiply entry points forward ``executor=``)

Waivers are trailing comments — ``# ra: <tag> — <reason>`` — with a
mandatory reason; see :mod:`repro.analyze.findings` for the tag table.

Run as ``repro analyze [paths...]`` or ``python -m repro.analyze``.
"""

from __future__ import annotations

from repro.analyze.baseline import Baseline, load_baseline, write_baseline
from repro.analyze.engine import ALL_RULES, AnalysisReport, SourceFile, run_analysis
from repro.analyze.findings import Finding, parse_waivers

__all__ = [
    "ALL_RULES",
    "AnalysisReport",
    "Baseline",
    "Finding",
    "SourceFile",
    "load_baseline",
    "parse_waivers",
    "run_analysis",
    "write_baseline",
]
