"""Registry-level rules: capability flags (RA01) and kind tags (RA02).

Unlike the AST rules these run against the *live* format registry —
the same object graph the serving, serialization and CLI layers
dispatch through — so a spec registered by any module (built-in or
third-party plugin) is checked, and the "does this class really
override the hook?" question is answered by Python's own MRO instead
of a source-text heuristic.  Both rules accept an explicit spec
mapping so tests can check a synthetic registry without touching the
global one.
"""

from __future__ import annotations

import inspect

from repro.analyze.findings import Finding

#: The capability flags RA01 validates, each grounded in a method
#: override of the class.
CAPABILITY_FLAGS = ("supports_plan_cache",)


def _spec_location(spec) -> tuple[str, int]:
    """Best-effort ``(path, line)`` for a finding about ``spec``."""
    try:
        path = inspect.getsourcefile(spec.cls) or ""
        _, line = inspect.getsourcelines(spec.cls)
    except (OSError, TypeError):
        path, line = "", 0
    return path, line


def _overrides(cls: type, method: str) -> bool:
    """``cls`` (or a base below MatrixFormat) overrides ``method``."""
    from repro.formats.base import MatrixFormat

    impl = getattr(cls, method, None)
    base_impl = getattr(MatrixFormat, method, None)
    return impl is not None and impl is not base_impl


def check_capabilities(specs: dict) -> list[Finding]:
    """RA01: capability flags match what the class actually implements.

    ``supports_plan_cache`` must coincide with an override of
    ``enable_plan_retention`` (the base's is a documented no-op).  Both
    directions are errors: an over-claim makes the serve layer dispatch
    work the format drops on the floor, an under-claim (flag False,
    capability real) hides a faster path from every capability-querying
    call site.
    """
    findings: list[Finding] = []
    checked: set[type] = set()
    for spec in specs.values():
        capability: dict[str, bool] = {
            "supports_plan_cache": _overrides(spec.cls, "enable_plan_retention"),
        }
        checked.add(spec.cls)
        for flag in CAPABILITY_FLAGS:
            claimed = bool(getattr(spec, flag))
            real = capability[flag]
            if claimed == real:
                continue
            path, line = _spec_location(spec)
            direction = (
                f"spec claims {flag}=True but {spec.cls.__name__} shows no "
                "supporting implementation"
                if claimed
                else f"{spec.cls.__name__} implements the capability but the "
                f"spec registers {flag}=False (under-claim)"
            )
            findings.append(
                Finding(
                    rule="RA01",
                    path=path,
                    line=line,
                    scope=spec.name,
                    detail=flag,
                    message=f"capability mismatch for format {spec.name!r}: "
                    f"{direction}",
                )
            )
    return findings


def check_kind_tags(specs: dict) -> list[Finding]:
    """RA02: kind tags unique, codecs complete.

    A serialization kind tag (the byte after the GCMX version byte) may
    be shared only by specs shipping the *same* codec functions — the
    three grammar variants share one payload — otherwise
    ``by_kind()`` dispatch is ambiguous.  And any spec carrying a codec
    must carry the whole set: ``encode`` + ``decode`` + ``peek`` + a
    kind tag, so ``save``/``load``/``info`` all work for it.
    """
    findings: list[Finding] = []
    by_kind: dict[int, list] = {}
    for spec in specs.values():
        if spec.kind is not None:
            by_kind.setdefault(spec.kind, []).append(spec)

    for kind, owners in sorted(by_kind.items()):
        codecs = {(s.encode, s.decode) for s in owners}
        if len(codecs) > 1:
            names = ", ".join(sorted(s.name for s in owners))
            path, line = _spec_location(owners[0])
            findings.append(
                Finding(
                    rule="RA02",
                    path=path,
                    line=line,
                    scope=names,
                    detail=f"kind={kind}",
                    message=(
                        f"kind tag {kind} is shared by specs with different "
                        f"codecs ({names}); a shared tag requires a shared "
                        "payload format"
                    ),
                )
            )

    for spec in specs.values():
        codec_parts = {
            "encode": spec.encode,
            "decode": spec.decode,
            "peek": spec.peek,
        }
        present = [k for k, v in codec_parts.items() if v is not None]
        if not present:
            continue  # build-only spec (e.g. "auto") — serializes via its cls owner
        missing = [k for k, v in codec_parts.items() if v is None]
        if spec.kind is None:
            missing.append("kind tag")
        if missing:
            path, line = _spec_location(spec)
            findings.append(
                Finding(
                    rule="RA02",
                    path=path,
                    line=line,
                    scope=spec.name,
                    detail="codec",
                    message=(
                        f"format {spec.name!r} ships a partial codec "
                        f"(has {', '.join(present)}; missing "
                        f"{', '.join(missing)}); save/load/peek must all "
                        "work or none should be registered"
                    ),
                )
            )
    return findings


def run_registry_rules(enabled: set[str], rel_to=None) -> list[Finding]:
    """Run RA01/RA02 against the live global registry.

    ``rel_to`` (a callable path → display path) rewrites the absolute
    source locations :mod:`inspect` reports into the repo-relative form
    the rest of the report uses.
    """
    from repro.formats import registry

    registry._ensure_builtin()
    specs = dict(registry._SPECS)
    findings: list[Finding] = []
    if "RA01" in enabled:
        findings.extend(check_capabilities(specs))
    if "RA02" in enabled:
        findings.extend(check_kind_tags(specs))
    if rel_to is not None:
        findings = [
            Finding(
                rule=f.rule,
                path=rel_to(f.path),
                line=f.line,
                scope=f.scope,
                detail=f.detail,
                message=f.message,
            )
            for f in findings
        ]
    return findings


#: Rule id → callable over a spec mapping.
REGISTRY_RULES = {
    "RA01": check_capabilities,
    "RA02": check_kind_tags,
}
