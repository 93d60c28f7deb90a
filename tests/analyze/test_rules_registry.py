"""RA01/RA02 — capability flags and kind tags, on synthetic and live specs.

The capability probe grounds truth in the class object itself (MRO
for overrides), and findings point at the class's source, so the
fixture classes here are real module-level classes ``inspect`` can
read.
"""

import inspect

from repro.analyze.rules_registry import (
    check_capabilities,
    check_kind_tags,
    run_registry_rules,
)
from repro.formats.base import MatrixFormat
from repro.formats.registry import FormatSpec


class PlainFormat(MatrixFormat):
    """No capabilities: base-class hooks all the way down."""

    @property
    def shape(self):
        return (1, 1)


class CachingFormat(MatrixFormat):
    """Overrides the plan-retention hook (supports_plan_cache=True)."""

    @property
    def shape(self):
        return (1, 1)

    def enable_plan_retention(self, retain: bool = True) -> bool:
        self._retained = bool(retain)
        return self._retained


class ThreadedFormat(MatrixFormat):
    """Reads ``executor`` in its own kernels."""

    @property
    def shape(self):
        return (1, 1)

    def _right_vector(self, x, executor):
        if executor is not None:
            return executor.right_multiply(self, x)
        return x


def _spec(name, cls, **flags):
    return FormatSpec(name=name, cls=cls, build=lambda d: d, **flags)


def _enc(matrix):
    return b""


def _dec(data, pos):
    return None, pos


def _peek(data, pos):
    return {}


class TestCapabilities:
    def test_consistent_specs_clean(self):
        specs = {
            "plain": _spec("plain", PlainFormat),
            "caching": _spec("caching", CachingFormat, supports_plan_cache=True),
            "threaded": _spec("threaded", ThreadedFormat),
        }
        assert check_capabilities(specs) == []

    def test_over_claim_flagged(self):
        # The ISSUE's mis-flagged-spec fixture: claims a plan cache the
        # class does not implement.
        specs = {"plain": _spec("plain", PlainFormat, supports_plan_cache=True)}
        findings = check_capabilities(specs)
        assert len(findings) == 1
        assert findings[0].rule == "RA01"
        assert findings[0].detail == "supports_plan_cache"
        assert "no supporting implementation" in findings[0].message

    def test_under_claim_flagged(self):
        specs = {"caching": _spec("caching", CachingFormat)}
        findings = check_capabilities(specs)
        assert [f.detail for f in findings] == ["supports_plan_cache"]
        assert "under-claim" in findings[0].message


class TestKindTags:
    def test_shared_kind_same_codec_clean(self):
        # The grammar-variant pattern: one payload, several specs.
        specs = {
            "a": _spec("a", PlainFormat, kind=7,
                       encode=_enc, decode=_dec, peek=_peek),
            "b": _spec("b", CachingFormat, kind=7,
                       encode=_enc, decode=_dec, peek=_peek),
        }
        assert check_kind_tags(specs) == []

    def test_shared_kind_different_codecs_flagged(self):
        def other_enc(matrix):
            return b"x"

        specs = {
            "a": _spec("a", PlainFormat, kind=7,
                       encode=_enc, decode=_dec, peek=_peek),
            "b": _spec("b", CachingFormat, kind=7,
                       encode=other_enc, decode=_dec, peek=_peek),
        }
        findings = check_kind_tags(specs)
        assert any(f.detail == "kind=7" for f in findings)

    def test_partial_codec_flagged(self):
        specs = {
            "a": _spec("a", PlainFormat, kind=7, encode=_enc),
        }
        findings = check_kind_tags(specs)
        assert len(findings) == 1
        assert findings[0].detail == "codec"
        assert "decode" in findings[0].message
        assert "peek" in findings[0].message

    def test_codec_without_kind_flagged(self):
        specs = {
            "a": _spec("a", PlainFormat,
                       encode=_enc, decode=_dec, peek=_peek),
        }
        findings = check_kind_tags(specs)
        assert len(findings) == 1
        assert "kind tag" in findings[0].message

    def test_build_only_spec_clean(self):
        # "auto" pattern: no codec at all, serializes via its cls owner.
        specs = {"auto": _spec("auto", PlainFormat)}
        assert check_kind_tags(specs) == []


class TestLiveRegistry:
    def test_live_registry_is_consistent(self):
        # The real registry must stay clean — this is the in-suite half
        # of the `repro analyze` gate.
        assert run_registry_rules({"RA01", "RA02"}) == []

    def test_finding_location_points_at_class(self):
        specs = {"plain": _spec("plain", PlainFormat, supports_plan_cache=True)}
        findings = check_capabilities(specs)
        assert findings and findings[0].path.endswith("test_rules_registry.py")


def test_fixture_classes_are_introspectable():
    # Finding locations rely on inspect reading these classes.
    for cls in (PlainFormat, CachingFormat, ThreadedFormat):
        assert "class" in inspect.getsource(cls)
