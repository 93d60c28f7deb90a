"""The analyzer's data model: findings, baseline keys, and waivers.

A :class:`Finding` is one rule violation at one source location.  Its
:attr:`~Finding.key` deliberately excludes the line number — baselined
findings must survive unrelated edits that shift lines — and instead
identifies the violation by ``rule : path : scope : detail`` (scope is
the enclosing ``Class.method``; detail is the rule-specific
discriminator, e.g. the attribute written outside the lock).

Waivers are trailing comments on the offending line::

    self._hits += 1  # ra: unlocked — caller holds self._lock

The tag names the rule family being waived and the reason is mandatory;
a tag with no reason does not waive anything (the point of a waiver is
the recorded justification).  Accepted separators after the tag are an
em-dash, ``--``, ``-`` or ``:``.

=========  =====  ==========================================
tag        rule   waives
=========  =====  ==========================================
unlocked   RA03   an unlocked write to a guarded attribute
broad-except  RA04  an ``except Exception`` outside the boundaries
out        RA05   a kernel that knowingly breaks the ``out=`` contract
executor   RA06   a multiply entry point without executor plumbing
retry      RA07   a retry handler that deliberately drops a typed error
sql        RA08   a SQLite touchpoint outside the store catalog
obs        RA09   a counter-style increment kept off the metrics registry
=========  =====  ==========================================
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

#: Waiver tag each rule responds to (RA02 is a registry-level fact
#: with nothing meaningful to waive at a source line).
RULE_WAIVER_TAGS = {
    "RA03": "unlocked",
    "RA04": "broad-except",
    "RA05": "out",
    "RA06": "executor",
    "RA07": "retry",
    "RA08": "sql",
    "RA09": "obs",
}

_WAIVER_RE = re.compile(
    r"#\s*ra:\s*(?P<tag>[A-Za-z][\w-]*)\s*(?:—|--|-|:)\s*(?P<reason>\S.*)"
)


@dataclass(frozen=True)
class Waiver:
    """One parsed ``# ra: <tag> — <reason>`` comment."""

    line: int
    tag: str
    reason: str


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    message: str
    scope: str = ""
    detail: str = ""

    @property
    def key(self) -> str:
        """Line-number-free identity used for baseline matching."""
        return f"{self.rule}:{self.path}:{self.scope}:{self.detail}"

    def to_payload(self) -> dict:
        """JSON-ready form (the ``--format json`` report and baseline)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "scope": self.scope,
            "detail": self.detail,
            "message": self.message,
        }

    def render(self) -> str:
        """One-line text form: ``path:line: RULE message``."""
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass
class WaiverSet:
    """All waivers in one file, queryable by line and tag."""

    by_line: dict[int, Waiver] = field(default_factory=dict)

    def covers(self, line: int, tag: str) -> bool:
        waiver = self.by_line.get(line)
        return waiver is not None and waiver.tag == tag


def parse_waivers(text: str) -> WaiverSet:
    """Extract every ``# ra:`` waiver comment from ``text``.

    The scan is lexical (per line), which accepts a waiver inside a
    string literal — an acceptable imprecision for a trailing-comment
    convention, and it keeps the waiver grammar independent of the AST.
    """
    waivers = WaiverSet()
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _WAIVER_RE.search(line)
        if match:
            waivers.by_line[lineno] = Waiver(
                line=lineno,
                tag=match.group("tag").lower(),
                reason=match.group("reason").strip(),
            )
    return waivers
