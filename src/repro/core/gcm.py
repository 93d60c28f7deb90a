"""Grammar-compressed matrices: the ``re_32`` / ``re_iv`` / ``re_ans`` family.

Section 4 of the paper derives three physical encodings from the RePair
output ``(C, R, V)``:

``re_32``
    ``C`` and ``R`` stored as plain 32-bit integer arrays.  Fastest,
    largest.  Its multiplication plan is retained by default (the cast
    from storage is cheap, but the plan build is not worth repeating).
``re_iv``
    ``C`` and ``R`` bit-packed at ``1 + ⌊log₂ N_max⌋`` bits per symbol
    (sdsl ``int_vector`` style, :class:`repro.encoders.IntVector`).
    Every multiplication first unpacks the arrays (vectorised), paying
    the access overhead the paper observes for this variant.
``re_ans``
    ``R`` bit-packed as above; ``C`` entropy-coded with the
    large-alphabet rANS coder (:mod:`repro.encoders.rans`), which
    folds large symbols into a small model as the paper's ans-fold
    coder does, so ``C`` may hold any number of distinct symbols.
    Every multiplication first entropy-decodes all of ``C`` (vectorised
    over up to one rANS lane per 16 symbols, but still the costliest
    decode of the three) — the paper's explanation for ``re_ans`` being
    the smallest but slowest variant.

All variants store ``V`` as raw 8-byte doubles, as in the paper.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np

from repro.core.csrv import CSRVMatrix
from repro.core.grammar import Grammar
from repro.core.multiply import MvmEngine, MvmPlan, PlanCache, retained_nbytes
from repro.core.repair import repair_compress
from repro.encoders.int_vector import IntVector, bits_required
from repro.encoders.rans import ans_compress, ans_decompress
from repro.errors import MatrixFormatError
from repro.formats.base import MatrixFormat

#: The physical encodings implemented (paper Section 4).
VARIANTS = ("re_32", "re_iv", "re_ans")

#: Process-wide plan cache shared by every plan-retaining instance:
#: structurally identical grammars (the same matrix re-registered, or
#: evicted and reloaded by the serving registry) share one plan build.
_PLAN_CACHE = PlanCache(max_plans=64)


def plan_cache() -> PlanCache:
    """The shared :class:`repro.core.multiply.PlanCache` instance."""
    return _PLAN_CACHE


class GrammarCompressedMatrix(MatrixFormat):
    """A matrix compressed as ``(C, R, V)`` with compressed-domain MVM.

    Build instances with :meth:`compress`; the constructor is the
    low-level entry point used by deserialization.

    Parameters
    ----------
    variant:
        One of :data:`VARIANTS`.
    shape:
        ``(n_rows, n_cols)`` of the represented matrix.
    values:
        The distinct-value array ``V``.
    nt_base:
        First nonterminal id of the grammar.
    c_storage, r_storage:
        Variant-specific physical storage for ``C`` and ``R``:
        ``np.ndarray[uint32]`` for ``re_32``, :class:`IntVector` for
        ``re_iv`` (and for ``R`` of ``re_ans``), the ANS blob of ``C``
        for ``re_ans`` (``bytes``, or a read-only ``uint8`` view after
        an mmap load).
    """

    def __init__(
        self,
        variant: str,
        shape: tuple[int, int],
        values: np.ndarray,
        nt_base: int,
        c_storage,
        r_storage,
        c_length: int,
        n_rules: int,
    ):
        if variant not in VARIANTS:
            raise MatrixFormatError(
                f"unknown variant {variant!r}; expected one of {VARIANTS}"
            )
        self._variant = variant
        self._shape = (int(shape[0]), int(shape[1]))
        self._values = np.ascontiguousarray(values, dtype=np.float64)
        self._nt_base = int(nt_base)
        self._c_storage = c_storage
        self._r_storage = r_storage
        self._c_length = int(c_length)
        self._n_rules = int(n_rules)
        self._engine: MvmEngine | None = None
        self._engine_lock = threading.Lock()
        self._retain_plan = variant == "re_32"
        self._fingerprint: str | None = None

    # -- construction -------------------------------------------------------------

    @classmethod
    def compress(
        cls,
        source: CSRVMatrix | np.ndarray,
        variant: str = "re_32",
        min_frequency: int = 2,
        max_rules: int | None = None,
        strategy: str = "exact",
    ) -> GrammarCompressedMatrix:
        """Grammar-compress a matrix (dense array or CSRV form).

        Runs the separator-aware RePair of Section 3 over the CSRV
        sequence ``S`` and stores the output in the requested physical
        encoding.  ``strategy`` selects the RePair formulation
        (``"exact"`` or the vectorised ``"batch"`` — see
        :func:`repro.core.repair.repair_compress`).
        """
        csrv = (
            source
            if isinstance(source, CSRVMatrix)
            else CSRVMatrix.from_dense(np.asarray(source))
        )
        grammar = repair_compress(
            csrv.s,
            min_frequency=min_frequency,
            max_rules=max_rules,
            strategy=strategy,
        )
        return cls.from_grammar(grammar, csrv.values, csrv.shape, variant)

    @classmethod
    def from_grammar(
        cls,
        grammar: Grammar,
        values: np.ndarray,
        shape: tuple[int, int],
        variant: str = "re_32",
    ) -> GrammarCompressedMatrix:
        """Wrap an existing grammar in the requested physical encoding."""
        c = grammar.final
        r_flat = grammar.rules.ravel()
        if variant == "re_32":
            c_storage = c.astype(np.uint32)
            r_storage = r_flat.astype(np.uint32)
        elif variant == "re_iv":
            width = bits_required(grammar.max_symbol)
            c_storage = IntVector(c, width=width)
            r_storage = IntVector(r_flat, width=width)
        elif variant == "re_ans":
            width = bits_required(grammar.max_symbol)
            c_storage = ans_compress(c)
            r_storage = IntVector(r_flat, width=width)
        else:
            raise MatrixFormatError(
                f"unknown variant {variant!r}; expected one of {VARIANTS}"
            )
        return cls(
            variant,
            shape,
            values,
            grammar.nt_base,
            c_storage,
            r_storage,
            c_length=int(c.size),
            n_rules=grammar.n_rules,
        )

    # -- accessors ------------------------------------------------------------------

    @property
    def variant(self) -> str:
        """Physical encoding name (``re_32``, ``re_iv`` or ``re_ans``)."""
        return self._variant

    @property
    def format_name(self) -> str:  # type: ignore[override]
        """Registry name — each physical encoding is its own format."""
        return self._variant

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_rows, n_cols)``."""
        return self._shape

    @property
    def values(self) -> np.ndarray:
        """The distinct-value array ``V`` (read-only view)."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    @property
    def nt_base(self) -> int:
        """First nonterminal id."""
        return self._nt_base

    @property
    def n_rules(self) -> int:
        """Number of grammar rules ``|R|``."""
        return self._n_rules

    @property
    def c_length(self) -> int:
        """Length of the final string ``|C|``."""
        return self._c_length

    def __repr__(self) -> str:
        n, m = self._shape
        return (
            f"GrammarCompressedMatrix(variant={self._variant!r}, "
            f"shape=({n}, {m}), |C|={self._c_length}, |R|={self._n_rules})"
        )

    # -- decoding --------------------------------------------------------------------

    def decode_grammar(self) -> Grammar:
        """Materialise the logical grammar ``(C, R)`` from storage.

        For ``re_32`` this is a cheap cast; for ``re_iv`` a vectorised
        unpack; for ``re_ans`` a full entropy decode of ``C`` (vectorised
        by :mod:`repro.encoders.rans`, yet the costliest of the three) —
        the per-multiplication cost structure of the paper's variants.
        """
        if self._variant == "re_32":
            c = self._c_storage.astype(np.int64)
            r = self._r_storage.astype(np.int64)
        elif self._variant == "re_iv":
            c = self._c_storage.to_numpy()
            r = self._r_storage.to_numpy()
        else:  # re_ans
            c = ans_decompress(self._c_storage)
            r = self._r_storage.to_numpy()
        return Grammar(
            nt_base=self._nt_base, rules=r.reshape(-1, 2), final=c
        )

    def decompress(self) -> CSRVMatrix:
        """Fully expand back to the CSRV representation (lossless)."""
        return CSRVMatrix(self.decode_grammar().expand(), self._values, self._shape)

    def to_dense(self) -> np.ndarray:
        """Fully expand back to a dense float64 matrix (lossless)."""
        return self.decompress().to_dense()

    # -- plan retention ----------------------------------------------------------------

    def grammar_fingerprint(self) -> str:
        """Content hash of the stored grammar, computed *without decoding*.

        Hashes the physical ``C``/``R`` storage bytes plus the variant,
        ``nt_base`` and shape, so the serving path can key the shared
        :class:`~repro.core.multiply.PlanCache` before paying any
        decode.  Identical storage implies an identical logical grammar
        and column count, hence an identical plan; the converse does
        not hold across *variants* (the same grammar in ``re_iv`` and
        ``re_ans`` hashes differently), which only costs a duplicate
        cache entry, never a wrong plan.
        """
        if self._fingerprint is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(self._variant.encode())
            h.update(int(self._nt_base).to_bytes(8, "little"))
            h.update(int(self._shape[1]).to_bytes(8, "little"))
            # The logical lengths are part of the key: bit-packed words
            # are zero-padded, so e.g. trailing separator symbols
            # (code 0) of a longer C can pack to the same word bytes as
            # a shorter C — identical words do NOT imply identical
            # grammars unless the element counts (and pack width)
            # match too.
            h.update(int(self._c_length).to_bytes(8, "little"))
            h.update(int(self._n_rules).to_bytes(8, "little"))
            if self._variant == "re_32":
                h.update(self._c_storage.tobytes())
                h.update(b"|")
                h.update(self._r_storage.tobytes())
            elif self._variant == "re_iv":
                h.update(bytes([self._c_storage.width, self._r_storage.width]))
                h.update(self._c_storage.words.tobytes())
                h.update(b"|")
                h.update(self._r_storage.words.tobytes())
            else:  # re_ans
                h.update(bytes([self._r_storage.width]))
                h.update(self._c_storage)
                h.update(b"|")
                h.update(self._r_storage.words.tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def enable_plan_retention(self, retain: bool = True) -> bool:
        """Opt this block into (or out of) multiplication-plan retention.

        With retention on, the block builds its
        :class:`~repro.core.multiply.MvmPlan` once — through the shared
        fingerprint-keyed :func:`plan_cache`, so a reloaded copy of the
        same matrix skips even the first build — and every subsequent
        multiplication runs without storage decode or plan build.  With
        retention off, every multiplication decodes and plans afresh,
        charging the decode cost per multiplication exactly as the paper
        describes.  ``re_32`` starts retained; ``re_iv``/``re_ans``
        start off.  Returns ``True`` — every grammar variant supports
        retention.
        """
        retain = bool(retain)
        if retain != self._retain_plan:
            self._engine = None
        self._retain_plan = retain
        return True

    @property
    def plan_retained(self) -> bool:
        """Whether this block currently retains its multiplication plan."""
        return self._retain_plan

    def release_retained_plans(self) -> None:
        """Drop the cached engine and this grammar's shared-cache plan.

        The serving registry calls this on eviction; the shared
        :func:`plan_cache` entry is discarded so evicted matrices do
        not keep plans alive outside the residency budget.  Retention
        stays enabled — the next multiplication rebuilds (and
        re-caches) the plan.
        """
        self._engine = None
        if self._retain_plan:
            _PLAN_CACHE.discard(self.grammar_fingerprint())

    # -- multiplication ----------------------------------------------------------------

    def _get_engine(self) -> MvmEngine:
        """Return the plan bound to ``V`` for this block.

        Without retention, every call decodes the storage and builds a
        fresh plan — the paper's per-multiplication cost structure.
        With :meth:`enable_plan_retention` on (the served
        configuration, and ``re_32``'s default), the engine is built
        once, from the shared cache's plan when a structurally
        identical grammar was already planned, and kept.  The build
        runs once under concurrency too: requests that ask while it is
        in progress wait on a per-instance lock and reuse its storage
        decode and plan (two overlapping passes over a lazily served
        shard share one build).  The cached plan holds value ids only,
        so matrices with one grammar and different ``V`` share it
        safely.
        """
        if not self._retain_plan:
            return MvmEngine.from_grammar(
                self.decode_grammar(), self._shape[1], self._values
            )
        engine = self._engine
        if engine is None:
            with self._engine_lock:
                engine = self._engine
                if engine is None:
                    key = self.grammar_fingerprint()
                    plan = _PLAN_CACHE.get(key)
                    if plan is None:
                        plan = _PLAN_CACHE.put(
                            key,
                            MvmPlan.from_grammar(
                                self.decode_grammar(), self._shape[1]
                            ),
                        )
                    engine = self._engine = MvmEngine(plan, self._values)
        return engine

    def _right(self, x: np.ndarray, out, executor) -> np.ndarray:
        """``y = M x`` directly on the compressed form (Theorem 3.4).

        The engine — hence the ``re_iv``/``re_ans`` storage decode — is
        built once per call; a panel runs up to
        :data:`~repro.core.multiply.PANEL_COLUMNS` vectors through each
        pass over the grammar.
        """
        return self._get_engine().right(x, out=out)

    def _left(self, y: np.ndarray, out, executor) -> np.ndarray:
        """``xᵗ = yᵗ M`` directly on the compressed form (Theorem 3.10)."""
        return self._get_engine().left(y, out=out)

    # -- accounting -------------------------------------------------------------------

    def size_breakdown(self) -> dict[str, int]:
        """Bytes per component of the physical representation."""
        if self._variant == "re_32":
            c_bytes = 4 * self._c_length
            r_bytes = 8 * self._n_rules
        elif self._variant == "re_iv":
            c_bytes = self._c_storage.size_bytes()
            r_bytes = self._r_storage.size_bytes()
        else:
            c_bytes = len(self._c_storage)
            r_bytes = self._r_storage.size_bytes()
        return {
            "C": int(c_bytes),
            "R": int(r_bytes),
            "V": 8 * int(self._values.size),
        }

    def size_bytes(self) -> int:
        """Total bytes of the compressed representation."""
        return sum(self.size_breakdown().values())

    def resident_overhead_bytes(self) -> int:
        """Live bytes a *served* instance keeps beyond its payload.

        With :meth:`enable_plan_retention` on (``re_32``'s default),
        the block keeps its :class:`~repro.core.multiply.MvmEngine`,
        charged by :func:`~repro.core.multiply.retained_nbytes`.
        Without retention nothing is kept (rebuild per call) and the
        overhead is 0.  The estimate is intentionally build-independent
        so residency accounting does not change between registration
        and first multiplication.
        """
        if not self._retain_plan:
            return 0
        return retained_nbytes(self._shape[0], self._n_rules, self._c_length)
