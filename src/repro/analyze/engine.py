"""File collection, rule dispatch, and report assembly.

:func:`run_analysis` is the single entry point both the CLI and the
test suite use: collect ``.py`` files, parse each once, run the
enabled AST rules per file, run the registry rules once when the scan
covers the live ``repro`` package, and assemble an
:class:`AnalysisReport` ready for baseline filtering and rendering.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.analyze.findings import Finding, WaiverSet, parse_waivers
from repro.analyze.rules_ast import AST_RULES
from repro.errors import ReproError

#: Every rule id the driver knows, in catalog order.
ALL_RULES = (
    "RA02", "RA03", "RA04", "RA05", "RA06", "RA07", "RA08", "RA09",
)

_REGISTRY_RULES = ("RA02",)

#: Directory names never descended into.
_SKIP_DIRS = {
    "__pycache__",
    ".git",
    ".mypy_cache",
    ".ruff_cache",
    ".pytest_cache",
    ".hypothesis",
}


@dataclass
class SourceFile:
    """One parsed source file handed to the AST rules."""

    path: Path
    rel: str
    text: str
    tree: ast.Module
    waivers: WaiverSet


@dataclass
class AnalysisReport:
    """Everything one ``repro analyze`` run produced."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: list[str] = field(default_factory=list)
    rules: tuple[str, ...] = ALL_RULES

    def to_payload(self) -> dict:
        return {
            "files_scanned": self.files_scanned,
            "rules": list(self.rules),
            "parse_errors": self.parse_errors,
            "findings": [f.to_payload() for f in self.findings],
        }


def resolve_rules(
    select: list[str] | None = None, disable: list[str] | None = None
) -> tuple[str, ...]:
    """Apply ``--select`` / ``--disable`` to the rule catalog."""
    known = set(ALL_RULES)
    chosen = list(ALL_RULES)
    if select:
        for rule in select:
            if rule.upper() not in known:
                raise ReproError(
                    f"unknown rule {rule!r}; known rules: {', '.join(ALL_RULES)}"
                )
        chosen = [r for r in ALL_RULES if r in {s.upper() for s in select}]
    if disable:
        for rule in disable:
            if rule.upper() not in known:
                raise ReproError(
                    f"unknown rule {rule!r}; known rules: {', '.join(ALL_RULES)}"
                )
        dropped = {d.upper() for d in disable}
        chosen = [r for r in chosen if r not in dropped]
    return tuple(chosen)


def collect_files(paths: list[str]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise ReproError(f"no such file or directory: {raw}")
        if path.is_file():
            if path.suffix == ".py":
                out.append(path)
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in _SKIP_DIRS)
            for name in sorted(files):
                if name.endswith(".py"):
                    out.append(Path(root) / name)
    unique = sorted(set(out))
    return unique


def display_path(path: Path | str) -> str:
    """Repo-relative posix path when possible, else the path as given.

    Baseline keys embed this, so it must be stable across machines:
    relative to the working directory (the repo root in CI and local
    runs) whenever the file lives under it.
    """
    p = Path(path)
    try:
        rel = p.resolve().relative_to(Path.cwd().resolve())
        return rel.as_posix()
    except ValueError:
        return Path(path).as_posix()


def load_source(path: Path) -> SourceFile:
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    return SourceFile(
        path=path,
        rel=display_path(path),
        text=text,
        tree=tree,
        waivers=parse_waivers(text),
    )


def _covers_repro_package(files: list[Path]) -> bool:
    """True when the scan includes the installed ``repro`` package.

    The registry rule (RA02) introspects the live registry rather
    than the scanned text, so it only makes sense when the scan is
    actually about this package — not when linting fixture snippets in
    a test's tmp directory.
    """
    import repro

    repro_root = Path(repro.__file__).resolve().parent
    for path in files:
        try:
            path.resolve().relative_to(repro_root)
            return True
        except ValueError:
            continue
    return False


def run_analysis(
    paths: list[str],
    select: list[str] | None = None,
    disable: list[str] | None = None,
) -> AnalysisReport:
    """Run the enabled rules over ``paths`` and return the report."""
    rules = resolve_rules(select, disable)
    files = collect_files(paths)
    report = AnalysisReport(rules=rules)
    enabled_ast = [r for r in rules if r in AST_RULES]
    for path in files:
        try:
            source = load_source(path)
        except (SyntaxError, UnicodeDecodeError) as exc:
            report.parse_errors.append(f"{display_path(path)}: {exc}")
            continue
        report.files_scanned += 1
        for rule in enabled_ast:
            report.findings.extend(AST_RULES[rule](source))

    enabled_registry = {r for r in rules if r in _REGISTRY_RULES}
    if enabled_registry and _covers_repro_package(files):
        from repro.analyze.rules_registry import run_registry_rules

        report.findings.extend(
            run_registry_rules(enabled_registry, rel_to=display_path)
        )

    report.findings.sort(key=lambda f: (f.path, f.line, f.rule, f.detail))
    return report
