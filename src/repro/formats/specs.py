"""Built-in :class:`~repro.formats.registry.FormatSpec` registrations.

One registration per representation — build entry point, execution
capabilities, and the serialization codec (kind tag + payload functions
from :mod:`repro.io.serialize`).  This module is imported lazily by the
registry on first use; adding a new format means adding one
``register(FormatSpec(...))`` call (or calling ``register`` from the
format's own module).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.csr import CSRIVMatrix, CSRMatrix
from repro.baselines.dense import DenseMatrix
from repro.baselines.gzip_xz import GzipMatrix, XzMatrix
from repro.cla.matrix import CLAMatrix
from repro.core.blocked import BlockedMatrix
from repro.core.csrv import CSRVMatrix
from repro.core.gcm import VARIANTS, GrammarCompressedMatrix
from repro.formats.registry import FormatSpec, register
from repro.io import serialize as io
from repro.shard.matrix import ShardedMatrix, build_sharded


def _gcm_builder(variant: str):
    def build(source, **opts):
        return GrammarCompressedMatrix.compress(source, variant=variant, **opts)

    return build


def _blocked_builder(default_variant: str):
    def build(source, variant: str | None = None, **opts):
        return BlockedMatrix.compress(
            source, variant=variant or default_variant, **opts
        )

    return build


register(
    FormatSpec(
        name="dense",
        cls=DenseMatrix,
        build=lambda source, **opts: DenseMatrix(np.asarray(source), **opts),
        kind=io.KIND_DENSE,
        description="uncompressed rows×cols×8-byte doubles (the 100% baseline)",
        supports_mmap=True,
        encode=io.dense_payload,
        decode=io.read_dense,
        peek=io.peek_dense,
    )
)

register(
    FormatSpec(
        name="csr",
        cls=CSRMatrix,
        build=lambda source, **opts: CSRMatrix(np.asarray(source), **opts),
        kind=io.KIND_CSR,
        description="classic Compressed Sparse Row (Section 2)",
        encode=io.csr_payload,
        decode=io.read_csr,
        peek=io.peek_csr,
    )
)

register(
    FormatSpec(
        name="csr_iv",
        cls=CSRIVMatrix,
        build=lambda source, **opts: CSRIVMatrix(np.asarray(source), **opts),
        kind=io.KIND_CSR_IV,
        description="CSR with indirect values (Kourtis et al.)",
        encode=io.csr_payload,
        decode=io.read_csr_iv,
        peek=io.peek_csr_iv,
    )
)

register(
    FormatSpec(
        name="csrv",
        cls=CSRVMatrix,
        build=CSRVMatrix.from_dense,
        kind=io.KIND_CSRV,
        description="the paper's fused sequence-plus-dictionary CSRV (Section 2)",
        supports_mmap=True,
        encode=io.csrv_payload,
        decode=io.read_csrv,
        peek=io.peek_csrv,
    )
)

for _variant in VARIANTS:
    register(
        FormatSpec(
            name=_variant,
            cls=GrammarCompressedMatrix,
            build=_gcm_builder(_variant),
            kind=io.KIND_GCM,
            description=f"grammar-compressed (C, R, V), {_variant} encoding "
            "(Section 4)",
            runs_repair=True,
            supports_mmap=True,
            encode=io.gcm_payload,
            decode=io.read_gcm,
            peek=io.peek_gcm,
        )
    )

register(
    FormatSpec(
        name="blocked",
        cls=BlockedMatrix,
        build=_blocked_builder("re_32"),
        kind=io.KIND_BLOCKED,
        description="row-block partitioned, per-block compressed (Section 4.1)",
        runs_repair=True,
        supports_mmap=True,
        encode=io.blocked_payload,
        decode=io.read_blocked,
        peek=io.peek_blocked,
    )
)

register(
    FormatSpec(
        name="auto",
        cls=BlockedMatrix,
        build=_blocked_builder("auto"),
        # Build-only: instances are BlockedMatrix and serialize via the
        # "blocked" spec's kind tag.
        kind=None,
        description="blocked with per-block smallest-format selection "
        "(Section 4.2)",
        runs_repair=True,
    )
)

register(
    FormatSpec(
        name="cla",
        cls=CLAMatrix,
        build=CLAMatrix.compress,
        kind=io.KIND_CLA,
        description="Compressed Linear Algebra column co-coding (Elgohary "
        "et al.)",
        supports_mmap=True,
        encode=io.cla_payload,
        decode=io.read_cla,
        peek=io.peek_cla,
    )
)

register(
    FormatSpec(
        name="sharded",
        cls=ShardedMatrix,
        build=build_sharded,
        kind=io.KIND_SHARDED,
        description="row-sharded container, per-shard smallest format "
        "(Section 4.2), scatter-gather MVM",
        runs_repair=True,
        supports_mmap=True,
        encode=io.sharded_payload,
        decode=io.read_sharded,
        peek=io.peek_sharded,
    )
)

register(
    FormatSpec(
        name="gzip",
        cls=GzipMatrix,
        build=lambda source, **opts: GzipMatrix(np.asarray(source), **opts),
        kind=io.KIND_GZIP,
        description="DEFLATE over the raw doubles (no compressed-domain ops)",
        encode=io.stream_payload,
        decode=io.read_gzip,
        peek=io.peek_gzip,
    )
)

register(
    FormatSpec(
        name="xz",
        cls=XzMatrix,
        build=lambda source, **opts: XzMatrix(np.asarray(source), **opts),
        kind=io.KIND_XZ,
        description="LZMA over the raw doubles (no compressed-domain ops)",
        encode=io.stream_payload,
        decode=io.read_xz,
        peek=io.peek_xz,
    )
)
