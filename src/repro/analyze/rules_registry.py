"""Registry-level rule: kind tags (RA02).

Unlike the AST rules this runs against the *live* format registry —
the same object graph the serving, serialization and CLI layers
dispatch through — so a spec registered by any module (built-in or
third-party plugin) is checked.  :func:`check_kind_tags` accepts an
explicit spec mapping so tests can check a synthetic registry without
touching the global one.
"""

from __future__ import annotations

import inspect

from repro.analyze.findings import Finding


def _spec_location(spec) -> tuple[str, int]:
    """Best-effort ``(path, line)`` for a finding about ``spec``."""
    try:
        path = inspect.getsourcefile(spec.cls) or ""
        _, line = inspect.getsourcelines(spec.cls)
    except (OSError, TypeError):
        path, line = "", 0
    return path, line


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
    """Run RA02 against the live global registry.

    ``rel_to`` (a callable path → display path) rewrites the absolute
    source locations :mod:`inspect` reports into the repo-relative form
    the rest of the report uses.
    """
    from repro.formats import registry

    registry._ensure_builtin()
    specs = dict(registry._SPECS)
    findings: list[Finding] = []
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

