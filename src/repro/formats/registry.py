"""The format registry: one :class:`FormatSpec` per representation.

Every matrix representation registers a spec describing how to *build*
it from a dense array, how to *serialize* it, and which execution
capabilities its kernels have.  Consumers then dispatch by name or by
instance instead of hard-coding type checks:

- :func:`repro.formats.compress` builds any format by name;
- :mod:`repro.io.serialize` maps kind tags ↔ payload codecs;
- the CLI's ``--strategy`` and the shard planner read ``runs_repair``
  to decide which builders take RePair's options;
- the CLI and benchmark harness derive their format choices from
  :func:`available`.

Adding an eighth representation is one registration call — the serving,
serialization, benchmark, CLI, and conformance-test layers pick it up
without modification.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from typing import Any

from repro.errors import MatrixFormatError, UnknownKindError


@dataclass(frozen=True)
class FormatSpec:
    """Everything the package needs to know about one matrix format.

    Attributes
    ----------
    name:
        Registry name (``"re_ans"``, ``"cla"``, ...), unique.
    cls:
        The concrete representation class its builder produces.
    build:
        ``build(dense_or_source, **opts) -> matrix`` factory.
    kind:
        Serialization kind tag (the byte after the GCMX version byte).
        Several specs may share a tag when one payload covers them all
        (the three grammar variants share the GCM payload); build-only
        specs (``"auto"``, whose instances serialize through the
        ``blocked`` spec) have no tag.
    description:
        One line for listings.
    supports_plan_cache:
        ``enable_plan_retention`` changes execution: the format can keep
        a reusable multiplication plan resident instead of rebuilding
        per call (the grammar variants and their blocked containers).
    runs_repair:
        The builder runs RePair (a sharded build: on the shards whose
        format does) and takes RePair's options
        (:data:`repro.core.repair.REPAIR_OPTIONS`).  No other builder
        is passed them.
    supports_mmap:
        The decoder tolerates read-only buffer views: under
        ``load_matrix(..., mmap=True)`` the payload arrays become
        ``np.frombuffer`` views over an ``mmap``-ed region instead of
        heap copies (zero-copy open, OS page cache does eviction).
        Formats that mutate their buffers after decode (the
        scipy-backed CSR family) or that copy the payload anyway
        (gzip/xz streams) leave this ``False`` and take the copy-load
        fallback.
    encode / decode:
        Payload codec: ``encode(matrix) -> bytes`` and
        ``decode(data, pos) -> (matrix, pos)``.
    peek:
        ``peek(data, pos) -> dict`` reading only leading metadata
        fields (header-only listings).
    """

    name: str
    cls: type
    build: Callable[..., Any]
    kind: int | None = None
    description: str = ""
    supports_plan_cache: bool = False
    runs_repair: bool = False
    supports_mmap: bool = False
    encode: Callable[[Any], bytes] | None = None
    decode: Callable[[bytes, int], tuple[Any, int]] | None = None
    peek: Callable[[bytes, int], dict] | None = None

    @property
    def serializable(self) -> bool:
        return self.encode is not None and self.decode is not None


_SPECS: dict[str, FormatSpec] = {}
_BY_KIND: dict[int, FormatSpec] = {}
_builtins_loaded = False


def register(spec: FormatSpec) -> FormatSpec:
    """Register ``spec`` (idempotent per name; later wins).

    The first spec registered for a given serialization ``kind`` decodes
    that tag — specs sharing a payload (the grammar variants) register
    the same codec, so the choice is immaterial.  Re-registering the
    *same name* with the same kind replaces the codec, so a spec can be
    overridden wholesale.
    """
    _SPECS[spec.name] = spec
    if spec.kind is not None:
        owner = _BY_KIND.get(spec.kind)
        if owner is None or owner.name == spec.name:
            _BY_KIND[spec.kind] = spec
    return spec


def _ensure_builtin() -> None:
    """Import the built-in spec module exactly once (lazily, so that
    ``import repro`` stays free of circular imports)."""
    global _builtins_loaded
    if not _builtins_loaded:
        _builtins_loaded = True
        try:
            from repro.formats import specs  # noqa: F401  (registers on import)
        except Exception:
            _builtins_loaded = False
            raise


def available() -> list[str]:
    """Registered format names, in registration order."""
    _ensure_builtin()
    return list(_SPECS)


def get(name: str) -> FormatSpec:
    """Spec registered under ``name``."""
    _ensure_builtin()
    spec = _SPECS.get(name)
    if spec is None:
        raise MatrixFormatError(
            f"unknown format {name!r}; registered formats: "
            f"{', '.join(available())}"
        )
    return spec


def spec_for(matrix: Any) -> FormatSpec:
    """Spec of an existing representation instance."""
    _ensure_builtin()
    name = getattr(matrix, "format_name", "")
    spec = _SPECS.get(name)
    if spec is None:
        raise MatrixFormatError(
            f"object of type {type(matrix).__name__} is not a registered "
            f"matrix format"
        )
    return spec


def by_kind(kind: int) -> FormatSpec:
    """Spec owning a serialization kind tag."""
    _ensure_builtin()
    spec = _BY_KIND.get(kind)
    if spec is None:
        raise UnknownKindError(
            kind,
            f"unknown kind tag {kind}; registered kinds: "
            f"{sorted(_BY_KIND)}",
        )
    return spec


def compress(source: Any, format: str = "re_ans", **opts: Any) -> Any:
    """Build any registered representation from a dense matrix.

    The single entry point the CLI, benchmarks and tests use::

        gm = repro.compress(A, format="re_ans")
        bm = repro.compress(A, format="blocked", variant="re_iv", n_blocks=8)

    ``opts`` are forwarded to the format's own builder (the historical
    per-class entry points — ``GrammarCompressedMatrix.compress``,
    ``CLAMatrix.compress``, ``CSRVMatrix.from_dense`` — remain as thin
    delegates of the same builders).
    """
    return get(format).build(source, **opts)
