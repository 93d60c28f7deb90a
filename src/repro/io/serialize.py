"""Self-describing binary serialization for every matrix format.

The paper's motivation includes storage and transmission; unlike CLA
(which recompresses at every run inside SystemDS — Section 5.4 calls
this out), every representation here round-trips losslessly through a
compact binary blob:

Layout (all integers LEB128 unless noted)::

    magic  b"GCMX"
    version u8 (=1)
    kind    u8 — the serialization tag of a registered format
               (:mod:`repro.formats.registry`)
    payload
    footer  b"GXCF" + crc32 u32 LE over everything above
            (:mod:`repro.resilience.integrity`; optional — pre-footer
            blobs still load, reported ``integrity="unverified"``)

:func:`saves_matrix` / :func:`loads_matrix` dispatch through the format
registry: the matrix's :class:`~repro.formats.FormatSpec` provides the
kind tag and the payload codec, so adding a format never touches this
module.  The codec functions for the built-in formats live here and are
wired up by :mod:`repro.formats.specs`.

Integrity and fault hooks: every blob written gains the CRC32 footer
and every blob loaded is verified against it
(:class:`~repro.errors.IntegrityError` on mismatch) — including each
nested shard section of a sharded container, so the lazy serving path
checks exactly the bytes it read.  File reads pass through
:func:`repro.resilience.faults.on_read`, the monkeypatch-free hook the
chaos battery injects corruption/truncation/delays through.

Blocked payloads store the shared distinct-value array ``V`` once and
the per-block structures without it, matching the in-memory sharing of
Section 4.1.
"""

from __future__ import annotations

import contextlib
import struct
import threading
from collections.abc import Callable, Iterator
from typing import Any, Union

import numpy as np

from repro.core.blocked import BlockedMatrix
from repro.core.csrv import CSRVMatrix
from repro.core.gcm import GrammarCompressedMatrix
from repro.encoders.int_vector import IntVector
from repro.encoders.rans import ans_decompress, ans_recode
from repro.encoders.varint import decode_uvarint, encode_uvarint
from repro.errors import (
    EncodingError,
    MatrixFormatError,
    SerializationError,
    TruncatedPayloadError,
)
from repro.resilience import faults as _faults
from repro.resilience.integrity import (
    INTEGRITY_UNVERIFIED,
    append_footer,
    file_integrity,
    verify_blob,
)

_MAGIC = b"GCMX"
_VERSION = 1

#: Buffer types every decoder accepts.  ``load_matrix(..., mmap=True)``
#: feeds :class:`memoryview` slices of an ``mmap``-ed region through the
#: same codec functions that normally see ``bytes``; slicing a
#: memoryview is zero-copy, so the decoded arrays can stay views over
#: the mapped file.
BytesLike = Union[bytes, bytearray, memoryview]

#: Serialization kind tags (the byte after the version byte).  The
#: original format defined 0–2; 3–8 were added when the remaining
#: representations gained serialization through the format registry.
KIND_CSRV = 0
KIND_GCM = 1
KIND_BLOCKED = 2
KIND_DENSE = 3
KIND_CSR = 4
KIND_CSR_IV = 5
KIND_CLA = 6
KIND_GZIP = 7
KIND_XZ = 8
KIND_SHARDED = 9

_VARIANT_TAGS = {"re_32": 0, "re_iv": 1, "re_ans": 2}
_TAG_VARIANTS = {v: k for k, v in _VARIANT_TAGS.items()}

#: CLA group-format tags inside a KIND_CLA payload.
_CLA_GROUP_TAGS = {"OLE": 0, "RLE": 1, "DDC": 2, "UC": 3}


#: Exceptions the low-level decoders leak on short or corrupt input.
#: Anything in this tuple escaping :func:`loads_matrix` or
#: :func:`peek_matrix_info` would be a bare stdlib/numpy error with no
#: indication of *which* payload failed, so the public entry points
#: convert them to :class:`~repro.errors.TruncatedPayloadError` tagged
#: with the kind byte being decoded.
_BARE_DECODE_ERRORS = (
    IndexError,
    KeyError,
    ValueError,
    ZeroDivisionError,
    OverflowError,
    struct.error,
)


#: Thread-local zero-copy switch: when active, ``_get_floats`` (and the
#: ``re_32`` storage decode) return read-only ``np.frombuffer`` views
#: instead of heap copies.  Only :mod:`repro.io.mmap_io` activates it,
#: and only for formats whose spec advertises ``supports_mmap`` — the
#: views then keep the underlying mapped region alive through their
#: ``.base`` chain.
_ZERO_COPY = threading.local()


def zero_copy_active() -> bool:
    """Whether the current thread decodes storage arrays as views."""
    return getattr(_ZERO_COPY, "depth", 0) > 0


@contextlib.contextmanager
def zero_copy_decode() -> Iterator[None]:
    """Decode float/uint32 storage as read-only views over the input.

    The caller owns the input buffer's lifetime only until the decoded
    arrays exist — after that the arrays' ``.base`` chain keeps it
    alive, so an mmap-backed buffer must not be explicitly closed.
    """
    _ZERO_COPY.depth = getattr(_ZERO_COPY, "depth", 0) + 1
    try:
        yield
    finally:
        _ZERO_COPY.depth -= 1


#: Thread-local switch for ``read_gcm``'s ``re_ans`` stream check:
#: :func:`loads_matrix` turns it on for a blob without a CRC footer.
_CHECK_STREAMS = threading.local()


@contextlib.contextmanager
def _check_streams(active: bool) -> Iterator[None]:
    """Decode every ``re_ans`` stream once at load time while ``active``.

    :func:`loads_matrix` sets it per blob, so every shard section
    follows its own footer.
    """
    previous = getattr(_CHECK_STREAMS, "active", False)
    _CHECK_STREAMS.active = active
    try:
        yield
    finally:
        _CHECK_STREAMS.active = previous


@contextlib.contextmanager
def _payload_guard(kind: int, action: str) -> Iterator[None]:
    """Re-raise payload decode failures as typed serialization errors."""
    try:
        yield
    except SerializationError:
        raise
    except (EncodingError, *_BARE_DECODE_ERRORS) as exc:
        raise TruncatedPayloadError(
            f"cannot {action} kind-{kind} payload "
            f"(truncated or corrupt): {type(exc).__name__}: {exc}",
            kind=kind,
        ) from exc


# -- public API ---------------------------------------------------------------------


def saves_matrix(matrix: Any) -> bytes:
    """Serialize any registered matrix representation to bytes."""
    from repro import formats

    try:
        spec = formats.spec_for(matrix)
    except MatrixFormatError as exc:
        raise SerializationError(
            f"cannot serialize objects of type {type(matrix).__name__}"
        ) from exc
    if spec.encode is None or spec.kind is None:
        raise SerializationError(
            f"format {spec.name!r} has no serialization codec"
        )
    return append_footer(_header(spec.kind) + spec.encode(matrix))


def loads_matrix(data: BytesLike) -> Any:
    """Inverse of :func:`saves_matrix`.

    The checksum footer (when present) is verified and stripped before
    decoding — corrupt bytes raise
    :class:`~repro.errors.IntegrityError` instead of surfacing as a
    confusing decode failure deeper in the payload.  Without a footer,
    ``re_ans`` streams are decoded once here instead, so that their
    end-of-stream checks fail the load rather than the first multiply.
    """
    from repro import formats

    data, integrity = verify_blob(data)
    kind, pos = _read_header(data)
    spec = formats.by_kind(kind)
    if spec.decode is None:
        raise SerializationError(
            f"format {spec.name!r} has no serialization codec"
        )
    with _payload_guard(kind, f"decode {spec.name!r}"), _check_streams(
        integrity == INTEGRITY_UNVERIFIED
    ):
        matrix, _ = spec.decode(data, pos)
    return matrix


def save_matrix(matrix: Any, path: Any) -> None:
    """Serialize to a file."""
    with open(path, "wb") as fh:
        fh.write(saves_matrix(matrix))


def load_matrix(path: Any, mmap: bool = False) -> Any:
    """Deserialize from a file.

    The raw bytes pass through the fault-injection hook
    (:func:`repro.resilience.faults.on_read`) before decoding, so the
    chaos battery can corrupt, truncate, delay, or fail this exact
    read without monkeypatching.

    With ``mmap=True`` the file is opened as :mod:`repro.io.mmap_io`
    describes: payload arrays become read-only views over an
    ``mmap``-ed region when the format's spec advertises
    ``supports_mmap`` (copy-load fallback otherwise).  The mapped path
    bypasses the fault hook and defers whole-file CRC hashing to
    ``repro verify`` — mapping must stay O(header), not O(bytes).
    """
    if mmap:
        from repro.io.mmap_io import load_matrix_mmap

        return load_matrix_mmap(path)
    with open(path, "rb") as fh:
        blob = fh.read()
    blob = _faults.on_read(_faults.SITE_LOAD_MATRIX, path, blob)
    return loads_matrix(blob)


#: Bytes of prefix that always suffice for :func:`peek_matrix_info`
#: (magic + version/kind + a handful of ≤10-byte varints).
PEEK_PREFIX_BYTES = 128


def peek_matrix_info(data: BytesLike) -> dict:
    """Describe a GCMX blob from its header without materialising it.

    Only the leading metadata fields are parsed — a
    :data:`PEEK_PREFIX_BYTES` prefix is always enough — so the serving
    registry can list matrices without paying the load cost.  Returns a
    dict with ``kind`` and ``shape``, plus per-format extras
    (``variant`` / ``c_length`` / ``n_rules`` for grammar payloads,
    ``n_blocks`` for blocked ones, ``n_groups`` for CLA, ``nnz`` for
    the CSR family), plus ``integrity`` — ``"verified"`` when the blob
    ends in a matching checksum footer, ``"unverified"`` when the
    footer is absent (pre-footer payloads and prefix-only peeks).
    """
    from repro import formats

    data, integrity = verify_blob(data)
    kind, pos = _read_header(data)
    spec = formats.by_kind(kind)
    if spec.peek is None:
        raise SerializationError(f"format {spec.name!r} has no header peek")
    with _payload_guard(kind, f"peek {spec.name!r}"):
        info = spec.peek(data, pos)
    info["integrity"] = integrity
    return info


def read_matrix_info(path: Any) -> dict:
    """:func:`peek_matrix_info` for a file, plus its ``file_bytes``.

    Reads only a small prefix — listing a directory of large ``.gcmx``
    files stays cheap.  ``integrity`` upgrades to ``"present"`` when
    the file's last bytes carry a checksum footer (an 8-byte tail
    probe; full verification is ``repro verify``).
    """
    import os

    with open(path, "rb") as fh:
        prefix = fh.read(PEEK_PREFIX_BYTES)
    info = peek_matrix_info(prefix)
    if info.get("integrity") == INTEGRITY_UNVERIFIED:
        info["integrity"] = file_integrity(path)
    info["file_bytes"] = int(os.path.getsize(path))
    return info


def format_of_info(info: dict) -> str:
    """Registry format name described by a peeked header info dict.

    The ``kind`` field names the format directly except for grammar
    payloads, where the shared ``gcm`` tag is refined by the variant.
    """
    if info.get("kind") == "gcm":
        return info.get("variant", "gcm")
    return str(info.get("kind"))


# -- encoding helpers -----------------------------------------------------------------


def _header(kind: int) -> bytes:
    return _MAGIC + bytes([_VERSION, kind])


def _read_header(data: BytesLike) -> tuple[int, int]:
    if data[: len(_MAGIC)] != _MAGIC:
        raise SerializationError("bad magic — not a GCMX blob")
    pos = len(_MAGIC)
    if pos + 2 > len(data):
        raise SerializationError("truncated header")
    version, kind = data[pos], data[pos + 1]
    if version != _VERSION:
        raise SerializationError(f"unsupported version {version}")
    return kind, pos + 2


def _put_bytes(blob: bytes) -> bytes:
    return encode_uvarint(len(blob)) + blob


def _get_bytes(data: BytesLike, pos: int) -> tuple[BytesLike, int]:
    length, pos = decode_uvarint(data, pos)
    if pos + length > len(data):
        raise SerializationError("truncated byte field")
    return data[pos : pos + length], pos + length


def _put_floats(values: np.ndarray) -> bytes:
    return _put_bytes(np.ascontiguousarray(values, dtype=np.float64).tobytes())


def _get_floats(data: BytesLike, pos: int) -> tuple[np.ndarray, int]:
    raw, pos = _get_bytes(data, pos)
    arr = np.frombuffer(raw, dtype=np.float64)
    if zero_copy_active():
        return arr, pos  # read-only view; .base keeps the buffer alive
    return arr.copy(), pos


def _put_ints(values: np.ndarray) -> bytes:
    """Bit-packed nonnegative integer array (IntVector framing)."""
    return _put_bytes(IntVector(np.asarray(values, dtype=np.int64)).to_bytes())


def _get_ints(data: BytesLike, pos: int) -> tuple[np.ndarray, int]:
    raw, pos = _get_bytes(data, pos)
    return IntVector.from_bytes(raw).to_numpy(), pos


def _put_shape(shape: tuple[int, int]) -> bytes:
    return encode_uvarint(int(shape[0])) + encode_uvarint(int(shape[1]))


def _get_shape(data: BytesLike, pos: int) -> tuple[tuple[int, int], int]:
    n, pos = decode_uvarint(data, pos)
    m, pos = decode_uvarint(data, pos)
    return (n, m), pos


def _peek_shape_only(kind_name: str) -> Callable[[BytesLike, int], dict]:
    """Peek function for payloads that lead with the two shape varints."""

    def peek(data: BytesLike, pos: int) -> dict:
        shape, _ = _get_shape(data, pos)
        return {"kind": kind_name, "shape": shape}

    return peek


# -- CSRV ------------------------------------------------------------------------------


def csrv_payload(matrix: CSRVMatrix, include_values: bool = True) -> bytes:
    out = bytearray()
    out += _put_shape(matrix.shape)
    if include_values:
        out += _put_floats(matrix.values)
    out += _put_bytes(IntVector(matrix.s).to_bytes())
    return bytes(out)


def read_csrv(
    data: BytesLike, pos: int, values: np.ndarray | None = None
) -> tuple[CSRVMatrix, int]:
    shape, pos = _get_shape(data, pos)
    if values is None:
        values, pos = _get_floats(data, pos)
    raw, pos = _get_bytes(data, pos)
    s = IntVector.from_bytes(raw).to_numpy()
    return CSRVMatrix(s, values, shape), pos


peek_csrv = _peek_shape_only("csrv")


# -- grammar (all three variants share one payload) ------------------------------------


def gcm_payload(matrix: GrammarCompressedMatrix, include_values: bool = True) -> bytes:
    out = bytearray()
    out.append(_VARIANT_TAGS[matrix.variant])
    out += _put_shape(matrix.shape)
    out += encode_uvarint(matrix.nt_base)
    out += encode_uvarint(matrix.c_length)
    out += encode_uvarint(matrix.n_rules)
    if include_values:
        out += _put_floats(matrix.values)
    c_storage = matrix._c_storage
    r_storage = matrix._r_storage
    if matrix.variant == "re_32":
        out += _put_bytes(np.ascontiguousarray(c_storage).tobytes())
        out += _put_bytes(np.ascontiguousarray(r_storage).tobytes())
    elif matrix.variant == "re_iv":
        out += _put_bytes(c_storage.to_bytes())
        out += _put_bytes(r_storage.to_bytes())
    else:  # re_ans; a stream loaded from an older file is re-encoded
        out += _put_bytes(ans_recode(c_storage))
        out += _put_bytes(r_storage.to_bytes())
    return bytes(out)


def read_gcm(
    data: BytesLike, pos: int, values: np.ndarray | None = None
) -> tuple[GrammarCompressedMatrix, int]:
    if pos >= len(data):
        raise SerializationError("truncated GCM payload")
    tag = data[pos]
    pos += 1
    variant = _TAG_VARIANTS.get(tag)
    if variant is None:
        raise SerializationError(f"unknown variant tag {tag}")
    shape, pos = _get_shape(data, pos)
    nt_base, pos = decode_uvarint(data, pos)
    c_length, pos = decode_uvarint(data, pos)
    n_rules, pos = decode_uvarint(data, pos)
    if values is None:
        values, pos = _get_floats(data, pos)
    raw_c, pos = _get_bytes(data, pos)
    raw_r, pos = _get_bytes(data, pos)
    if variant == "re_32":
        c_storage = np.frombuffer(raw_c, dtype=np.uint32)
        r_storage = np.frombuffer(raw_r, dtype=np.uint32)
        if not zero_copy_active():
            c_storage = c_storage.copy()
            r_storage = r_storage.copy()
    elif variant == "re_iv":
        c_storage = IntVector.from_bytes(raw_c)
        r_storage = IntVector.from_bytes(raw_r)
    else:
        r_storage = IntVector.from_bytes(raw_r)
        if zero_copy_active():
            # The rANS stream stays a read-only view of the mapped region.
            c_storage = np.frombuffer(raw_c, dtype=np.uint8)
        else:
            c_storage = bytes(raw_c)
        if getattr(_CHECK_STREAMS, "active", False):
            # No CRC footer vouches for this stream: decode it once, so
            # a corrupt one fails the load, typed.
            if ans_decompress(c_storage).size != c_length:
                raise SerializationError(
                    f"re_ans stream does not hold the {c_length} symbols "
                    "of the header"
                )
    matrix = GrammarCompressedMatrix(
        variant,
        shape,
        values,
        nt_base,
        c_storage,
        r_storage,
        c_length=c_length,
        n_rules=n_rules,
    )
    return matrix, pos


def peek_gcm(data: BytesLike, pos: int) -> dict:
    if pos >= len(data):
        raise SerializationError("truncated GCM payload")
    variant = _TAG_VARIANTS.get(data[pos])
    if variant is None:
        raise SerializationError(f"unknown variant tag {data[pos]}")
    pos += 1
    shape, pos = _get_shape(data, pos)
    _nt_base, pos = decode_uvarint(data, pos)
    c_length, pos = decode_uvarint(data, pos)
    n_rules, pos = decode_uvarint(data, pos)
    return {
        "kind": "gcm",
        "variant": variant,
        "shape": shape,
        "c_length": c_length,
        "n_rules": n_rules,
    }


# -- blocked ---------------------------------------------------------------------------


#: Per-block codecs inside a blocked payload, by registry kind tag
#: (blocks store their payload without the shared ``V``).
_BLOCK_ENCODERS = {
    KIND_CSRV: lambda block: csrv_payload(block, include_values=False),
    KIND_GCM: lambda block: gcm_payload(block, include_values=False),
}


def blocked_payload(matrix: BlockedMatrix) -> bytes:
    from repro import formats

    blocks = matrix.blocks
    out = bytearray()
    out += _put_shape(matrix.shape)
    out += encode_uvarint(len(blocks))
    # All blocks share one V (Section 4.1); store it once.
    out += _put_floats(blocks[0].values)
    for block in blocks:
        kind = formats.spec_for(block).kind
        # ``kind`` is ``int | None`` — a block whose spec registers no
        # kind tag must fail with the typed error here, not reach
        # ``bytearray.append(None)`` below.
        if kind is None or kind not in _BLOCK_ENCODERS:
            raise SerializationError(
                f"cannot serialize block of type {type(block).__name__}"
            )
        out.append(kind)
        out += _BLOCK_ENCODERS[kind](block)
    return bytes(out)


def read_blocked(data: BytesLike, pos: int) -> tuple[BlockedMatrix, int]:
    shape, pos = _get_shape(data, pos)
    n_blocks, pos = decode_uvarint(data, pos)
    values, pos = _get_floats(data, pos)
    blocks = []
    for _ in range(n_blocks):
        if pos >= len(data):
            raise SerializationError("truncated blocked payload")
        kind = data[pos]
        pos += 1
        if kind == KIND_CSRV:
            block, pos = read_csrv(data, pos, values=values)
        elif kind == KIND_GCM:
            block, pos = read_gcm(data, pos, values=values)
        else:
            raise SerializationError(f"unknown block kind {kind}")
        blocks.append(block)
    return BlockedMatrix(blocks, shape), pos


def peek_blocked(data: BytesLike, pos: int) -> dict:
    shape, pos = _get_shape(data, pos)
    n_blocks, pos = decode_uvarint(data, pos)
    return {"kind": "blocked", "shape": shape, "n_blocks": n_blocks}


# -- dense -----------------------------------------------------------------------------


def dense_payload(matrix: Any) -> bytes:
    dense = matrix.to_dense()
    return _put_shape(matrix.shape) + _put_floats(dense.ravel())


def read_dense(data: BytesLike, pos: int) -> tuple[Any, int]:
    from repro.baselines.dense import DenseMatrix

    shape, pos = _get_shape(data, pos)
    flat, pos = _get_floats(data, pos)
    if flat.size != shape[0] * shape[1]:
        raise SerializationError(
            f"dense payload has {flat.size} values for shape {shape}"
        )
    return DenseMatrix(flat.reshape(shape)), pos


peek_dense = _peek_shape_only("dense")


# -- CSR / CSR-IV ----------------------------------------------------------------------


def csr_payload(matrix: Any) -> bytes:
    """Shared payload of the scipy-backed CSR family: the raw triplet."""
    csr = matrix.scipy_csr()
    out = bytearray()
    out += _put_shape(matrix.shape)
    out += encode_uvarint(int(csr.nnz))
    out += _put_floats(csr.data)
    out += _put_ints(csr.indices)
    out += _put_ints(csr.indptr)
    return bytes(out)


def _read_csr_arrays(data: BytesLike, pos: int) -> tuple[Any, int]:
    from scipy import sparse

    shape, pos = _get_shape(data, pos)
    nnz, pos = decode_uvarint(data, pos)
    values, pos = _get_floats(data, pos)
    indices, pos = _get_ints(data, pos)
    indptr, pos = _get_ints(data, pos)
    if values.size != nnz or indices.size != nnz or indptr.size != shape[0] + 1:
        raise SerializationError("inconsistent CSR payload")
    return sparse.csr_matrix((values, indices, indptr), shape=shape), pos


def read_csr(data: BytesLike, pos: int) -> tuple[Any, int]:
    from repro.baselines.csr import CSRMatrix

    csr, pos = _read_csr_arrays(data, pos)
    return CSRMatrix.from_scipy(csr), pos


def read_csr_iv(data: BytesLike, pos: int) -> tuple[Any, int]:
    from repro.baselines.csr import CSRIVMatrix

    csr, pos = _read_csr_arrays(data, pos)
    return CSRIVMatrix.from_scipy(csr), pos


def _peek_csr(kind_name: str) -> Callable[[BytesLike, int], dict]:
    def peek(data: BytesLike, pos: int) -> dict:
        shape, pos = _get_shape(data, pos)
        nnz, _ = decode_uvarint(data, pos)
        return {"kind": kind_name, "shape": shape, "nnz": nnz}

    return peek


peek_csr = _peek_csr("csr")
peek_csr_iv = _peek_csr("csr_iv")


# -- CLA -------------------------------------------------------------------------------


def cla_payload(matrix: Any) -> bytes:
    out = bytearray()
    out += _put_shape(matrix.shape)
    out += encode_uvarint(len(matrix.groups))
    for group in matrix.groups:
        tag = _CLA_GROUP_TAGS.get(group.format_name)
        if tag is None:
            raise SerializationError(
                f"cannot serialize CLA group format {group.format_name!r}"
            )
        out.append(tag)
        out += _put_ints(group.columns)
        if group.format_name == "DDC":
            out += _put_shape(group.dictionary.shape)
            out += _put_floats(group.dictionary.ravel())
            out += _put_ints(group.codes)
        elif group.format_name == "OLE":
            out += _put_shape(group.dictionary.shape)
            out += _put_floats(group.dictionary.ravel())
            out += _put_ints(group.rows_concat)
            out += _put_ints(group.tuple_of_pos)
        elif group.format_name == "RLE":
            out += _put_shape(group.dictionary.shape)
            out += _put_floats(group.dictionary.ravel())
            out += _put_ints(group.run_starts)
            out += _put_ints(group.run_ends)
            out += _put_ints(group.run_tuples)
        else:  # UC
            out += _put_floats(group.block.ravel())
    return bytes(out)


def read_cla(data: BytesLike, pos: int) -> tuple[Any, int]:
    from repro.cla.colgroup import (
        ColumnGroupDDC,
        ColumnGroupOLE,
        ColumnGroupRLE,
        ColumnGroupUC,
    )
    from repro.cla.matrix import CLAMatrix

    shape, pos = _get_shape(data, pos)
    n_rows = shape[0]
    n_groups, pos = decode_uvarint(data, pos)
    groups = []
    for _ in range(n_groups):
        if pos >= len(data):
            raise SerializationError("truncated CLA payload")
        tag = data[pos]
        pos += 1
        columns, pos = _get_ints(data, pos)
        if tag == _CLA_GROUP_TAGS["UC"]:
            flat, pos = _get_floats(data, pos)
            block = flat.reshape(n_rows, columns.size)
            groups.append(ColumnGroupUC(columns, n_rows, block))
            continue
        dict_shape, pos = _get_shape(data, pos)
        flat, pos = _get_floats(data, pos)
        dictionary = flat.reshape(dict_shape)
        if tag == _CLA_GROUP_TAGS["DDC"]:
            codes, pos = _get_ints(data, pos)
            groups.append(ColumnGroupDDC(columns, n_rows, dictionary, codes))
        elif tag == _CLA_GROUP_TAGS["OLE"]:
            rows_concat, pos = _get_ints(data, pos)
            tuple_of_pos, pos = _get_ints(data, pos)
            groups.append(
                ColumnGroupOLE(columns, n_rows, dictionary, rows_concat, tuple_of_pos)
            )
        elif tag == _CLA_GROUP_TAGS["RLE"]:
            run_starts, pos = _get_ints(data, pos)
            run_ends, pos = _get_ints(data, pos)
            run_tuples, pos = _get_ints(data, pos)
            groups.append(
                ColumnGroupRLE(
                    columns, n_rows, dictionary, run_starts, run_ends, run_tuples
                )
            )
        else:
            raise SerializationError(f"unknown CLA group tag {tag}")
    return CLAMatrix(groups, shape), pos


def peek_cla(data: BytesLike, pos: int) -> dict:
    shape, pos = _get_shape(data, pos)
    n_groups, _ = decode_uvarint(data, pos)
    return {"kind": "cla", "shape": shape, "n_groups": n_groups}


# -- sharded ---------------------------------------------------------------------------
#
# A sharded container is a multi-section file: after the usual GCMX
# header, a small manifest (shape, shard count, and a per-shard table
# of row counts and section byte lengths) is followed by one complete
# nested GCMX blob per shard.  The manifest alone locates every
# section, so the serving layer can seek-and-load shards individually
# (:class:`repro.shard.LazyShardedMatrix`) while :func:`loads_matrix`
# still materialises the whole logical matrix.


class ShardManifestEntry:
    """One shard section: its row range and byte range in the file."""

    __slots__ = ("index", "row_start", "n_rows", "offset", "length")

    def __init__(self, index: int, row_start: int, n_rows: int,
                 offset: int, length: int) -> None:
        self.index = index
        self.row_start = row_start
        self.n_rows = n_rows
        self.offset = offset
        self.length = length

    def __repr__(self) -> str:
        return (
            f"ShardManifestEntry(index={self.index}, "
            f"rows={self.row_start}..{self.row_start + self.n_rows}, "
            f"offset={self.offset}, length={self.length})"
        )


def sharded_payload(matrix: Any) -> bytes:
    """Manifest + one nested GCMX blob per shard."""
    shards = matrix.shards
    blobs = [saves_matrix(s) for s in shards]
    out = bytearray()
    out += _put_shape(matrix.shape)
    out += encode_uvarint(len(blobs))
    for shard, blob in zip(shards, blobs, strict=True):
        out += encode_uvarint(int(shard.shape[0]))
        out += encode_uvarint(len(blob))
    for blob in blobs:
        out += blob
    return bytes(out)


def _read_shard_table(
    data: BytesLike, pos: int
) -> tuple[tuple[int, int], list[ShardManifestEntry], int]:
    """Parse the manifest: ``(shape, entries, first_section_pos)``."""
    shape, pos = _get_shape(data, pos)
    n_shards, pos = decode_uvarint(data, pos)
    if n_shards < 1:
        raise SerializationError("sharded payload has no shards")
    rows_and_lengths = []
    for _ in range(n_shards):
        n_rows, pos = decode_uvarint(data, pos)
        length, pos = decode_uvarint(data, pos)
        rows_and_lengths.append((n_rows, length))
    entries, row_start, offset = [], 0, pos
    for i, (n_rows, length) in enumerate(rows_and_lengths):
        entries.append(ShardManifestEntry(i, row_start, n_rows, offset, length))
        row_start += n_rows
        offset += length
    if row_start != shape[0]:
        raise SerializationError(
            f"shard manifest covers {row_start} rows for shape {shape}"
        )
    return shape, entries, pos


def check_shard_shape(shard: Any, entry: ShardManifestEntry, n_cols: int) -> Any:
    """``shard``, once its shape is its manifest entry's ``(n_rows, n_cols)``.

    The multiply kernels hand each shard its rows of the operand by the
    manifest's offsets, so a section that decodes to another shape is a
    corrupt container, to be rejected at load rather than answered wrong
    or blamed on the caller's operand.
    """
    expected = (entry.n_rows, int(n_cols))
    if tuple(shard.shape) != expected:
        raise SerializationError(
            f"shard section {entry.index} has shape {tuple(shard.shape)}, "
            f"its manifest entry says {expected}"
        )
    return shard


def read_sharded(data: BytesLike, pos: int) -> tuple[Any, int]:
    from repro.shard.matrix import ShardedMatrix

    shape, entries, _ = _read_shard_table(data, pos)
    shards = []
    for entry in entries:
        if entry.offset + entry.length > len(data):
            raise SerializationError(
                f"truncated shard section {entry.index}"
            )
        section = loads_matrix(data[entry.offset : entry.offset + entry.length])
        shards.append(check_shard_shape(section, entry, shape[1]))
    last = entries[-1]
    return ShardedMatrix(shards, shape), last.offset + last.length


def peek_sharded(data: BytesLike, pos: int) -> dict:
    shape, pos = _get_shape(data, pos)
    n_shards, _ = decode_uvarint(data, pos)
    return {"kind": "sharded", "shape": shape, "n_shards": n_shards}


def read_shard_manifest(
    path: Any,
) -> tuple[tuple[int, int], list[ShardManifestEntry]]:
    """``(shape, [ShardManifestEntry, ...])`` from a sharded container file.

    Reads only the manifest region — shard sections are not touched —
    so opening a large container for lazy serving costs a few hundred
    bytes of IO.  Entry offsets are absolute file offsets.

    A corrupt manifest fails *typed* and *bounded*: an absurd shard
    count from a damaged varint raises
    :class:`~repro.errors.TruncatedPayloadError` instead of driving an
    unbounded refill read, and a manifest whose sections extend past
    the end of the file is rejected here rather than surfacing later
    as a short read inside a lazy shard load.
    """
    with open(path, "rb") as fh:
        fh.seek(0, 2)
        file_size = fh.tell()
        fh.seek(0)
        head = fh.read(PEEK_PREFIX_BYTES)
        kind, payload_pos = _read_header(head)
        if kind != KIND_SHARDED:
            raise SerializationError(
                f"{path} is not a sharded container (kind tag {kind})"
            )
        with _payload_guard(KIND_SHARDED, "read shard manifest of"):
            _shape, pos = _get_shape(head, payload_pos)
            n_shards, pos = decode_uvarint(head, pos)
            # Each shard needs ≥ 2 manifest bytes, so a count beyond
            # file_size / 2 can only come from corrupt varint bytes.
            if n_shards < 1 or 2 * n_shards > file_size:
                raise TruncatedPayloadError(
                    f"shard manifest of {path} claims {n_shards} shards "
                    f"in a {file_size}-byte file (corrupt count)",
                    kind=KIND_SHARDED,
                )
            # Refill enough for the table: 2 varints (≤ 10 bytes each)
            # per shard, never past the end of the file.
            needed = min(pos + 20 * n_shards, file_size)
            if needed > len(head):
                head += fh.read(needed - len(head))
    with _payload_guard(KIND_SHARDED, "read shard manifest of"):
        shape, entries, _ = _read_shard_table(head, payload_pos)
    last = entries[-1]
    if last.offset + last.length > file_size:
        raise TruncatedPayloadError(
            f"shard manifest of {path} places sections through byte "
            f"{last.offset + last.length} of a {file_size}-byte file "
            f"(truncated container)",
            kind=KIND_SHARDED,
        )
    return shape, entries


# -- gzip / xz -------------------------------------------------------------------------


def stream_payload(matrix: Any) -> bytes:
    """Payload of the whole-file compressors: shape + the stream."""
    return _put_shape(matrix.shape) + _put_bytes(matrix.blob)


def _read_stream(cls: Any) -> Callable[[BytesLike, int], tuple[Any, int]]:
    def read(data: BytesLike, pos: int) -> tuple[Any, int]:
        shape, pos = _get_shape(data, pos)
        blob, pos = _get_bytes(data, pos)
        return cls.from_blob(shape, blob), pos

    return read


def read_gzip(data: BytesLike, pos: int) -> tuple[Any, int]:
    from repro.baselines.gzip_xz import GzipMatrix

    return _read_stream(GzipMatrix)(data, pos)


def read_xz(data: BytesLike, pos: int) -> tuple[Any, int]:
    from repro.baselines.gzip_xz import XzMatrix

    return _read_stream(XzMatrix)(data, pos)


peek_gzip = _peek_shape_only("gzip")
peek_xz = _peek_shape_only("xz")
