"""End-to-end integration tests across all subsystems.

Each test exercises the realistic pipeline a downstream user runs:
dataset → compression → (reordering) → multiplication workload →
verification against the dense reference.
"""

import numpy as np
import pytest

from repro import (
    BlockedMatrix,
    CLAMatrix,
    CSRVMatrix,
    GrammarCompressedMatrix,
    compress_with_reordering,
    get_dataset,
    run_iterations,
)
from repro.baselines import DenseMatrix, GzipMatrix, XzMatrix
from repro.bench.memory import peak_mvm_pct
from repro.io.serialize import loads_matrix, saves_matrix
from repro.serve.executor import BlockExecutor

SMALL = {"n_rows": 400}
DATASETS = ["susy", "airline78", "census", "covtype"]


@pytest.mark.parametrize("name", DATASETS)
@pytest.mark.parametrize("variant", ["re_32", "re_iv", "re_ans"])
def test_dataset_compress_multiply(name, variant):
    ds = get_dataset(name, **SMALL)
    matrix = np.asarray(ds.matrix)
    gm = GrammarCompressedMatrix.compress(matrix, variant=variant)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(matrix.shape[1])
    y = rng.standard_normal(matrix.shape[0])
    assert np.allclose(gm.right_multiply(x), matrix @ x)
    assert np.allclose(gm.left_multiply(y), y @ matrix)


@pytest.mark.parametrize("name", DATASETS)
def test_eq4_workload_agrees_with_dense(name):
    ds = get_dataset(name, **SMALL)
    matrix = np.asarray(ds.matrix)
    blocked = BlockedMatrix.compress(matrix, variant="re_iv", n_blocks=4)
    result = run_iterations(blocked, iterations=5, threads=4, reference=matrix)
    # Absolute tolerance: iterates are inf-normalised but y = Mx can
    # reach ~1e4 on the dense datasets, so 1e-4 is ~1e-8 relative.
    assert result.max_error < 1e-4


def test_compression_ratio_ordering_census():
    # Table 1 shape on the most compressible dataset:
    # re_ans/re_iv < re_32 < csrv < dense, and grammar beats gzip.
    ds = get_dataset("census", n_rows=800)
    matrix = np.asarray(ds.matrix)
    dense = DenseMatrix(matrix).size_bytes()
    csrv = CSRVMatrix.from_dense(matrix).size_bytes()
    sizes = {
        v: GrammarCompressedMatrix.compress(matrix, variant=v).size_bytes()
        for v in ("re_32", "re_iv", "re_ans")
    }
    gzip_size = GzipMatrix(matrix).size_bytes()
    assert sizes["re_iv"] < sizes["re_32"] < csrv < dense
    assert sizes["re_ans"] < gzip_size


def test_grammar_cannot_beat_csrv_on_susy_like_data():
    # Table 1's other extreme: near-unique floats leave nothing for
    # RePair (re_32 ≈ csrv in the paper).
    ds = get_dataset("susy", n_rows=500)
    matrix = np.asarray(ds.matrix)
    csrv = CSRVMatrix.from_dense(matrix).size_bytes()
    re32 = GrammarCompressedMatrix.compress(matrix, variant="re_32").size_bytes()
    assert re32 > 0.9 * csrv


def test_reordering_pipeline_full_stack():
    ds = get_dataset("airline78", n_rows=500)
    matrix = np.asarray(ds.matrix)
    result = compress_with_reordering(matrix, variant="re_ans", n_blocks=4)
    plain = BlockedMatrix.compress(matrix, variant="re_ans", n_blocks=4)
    # Reordering must not hurt on a scattered-correlation dataset.
    assert result.matrix.size_bytes() <= plain.size_bytes()
    # And the compressed matrix still multiplies correctly.
    res = run_iterations(result.matrix, iterations=3, threads=2, reference=matrix)
    assert res.max_error < 1e-6


def test_cla_comparison_shape():
    # Section 5.4 shape: grammar (re_ans) compresses census better
    # than CLA.
    ds = get_dataset("census", n_rows=800)
    matrix = np.asarray(ds.matrix)
    cla = CLAMatrix.compress(matrix)
    re_ans = GrammarCompressedMatrix.compress(matrix, variant="re_ans")
    assert re_ans.size_bytes() < cla.size_bytes()
    # Both must be exact.
    x = np.random.default_rng(1).standard_normal(matrix.shape[1])
    assert np.allclose(cla.right_multiply(x), matrix @ x)
    assert np.allclose(re_ans.right_multiply(x), matrix @ x)


def test_peak_memory_shape_multithreaded():
    # Figure 3 shape: (a) peak memory grows weakly with active threads
    # (the per-block W arrays); (b) splitting into more blocks inflates
    # re_ans's resident size faster than re_iv's (per-block ANS
    # frequency tables) — the paper's "re_iv overhead grows more
    # slowly" observation.
    ds = get_dataset("census", n_rows=800)
    matrix = np.asarray(ds.matrix)
    growth_by_blocks = {}
    for variant in ("re_iv", "re_ans"):
        bm = BlockedMatrix.compress(matrix, variant=variant, n_blocks=8)
        peaks = [peak_mvm_pct(bm, threads=t) for t in (1, 4, 8)]
        assert peaks[0] <= peaks[1] <= peaks[2]
        single = BlockedMatrix.compress(matrix, variant=variant, n_blocks=1)
        growth_by_blocks[variant] = bm.size_bytes() / single.size_bytes()
    assert growth_by_blocks["re_ans"] >= growth_by_blocks["re_iv"]


def test_serialize_whole_pipeline():
    ds = get_dataset("covtype", n_rows=400)
    matrix = np.asarray(ds.matrix)
    result = compress_with_reordering(matrix, variant="re_iv", n_blocks=3)
    blob = saves_matrix(result.matrix)
    back = loads_matrix(blob)
    x = np.ones(matrix.shape[1])
    with BlockExecutor(2) as ex:
        assert np.allclose(back.right_multiply(x, executor=ex), matrix @ x)


def test_gzip_xz_storage_only_contrast():
    # The paper's core motivation: gzip/xz compress well but their MVM
    # working set is the full dense matrix, unlike the grammar formats.
    ds = get_dataset("census", n_rows=600)
    matrix = np.asarray(ds.matrix)
    xz = XzMatrix(matrix)
    gm = GrammarCompressedMatrix.compress(matrix, variant="re_iv")
    assert peak_mvm_pct(xz) > 100.0
    assert peak_mvm_pct(gm) < 50.0


def test_entropy_bound_on_real_dataset():
    # The theory claim (Section 3): RePair output bits are within the
    # H_k regime.  Checked loosely: grammar bits < |S| * H_0 * c for a
    # small constant on a compressible dataset.
    from repro.core.entropy import entropy_bound_bits
    from repro.core.repair import repair_compress

    ds = get_dataset("census", n_rows=600)
    csrv = CSRVMatrix.from_dense(np.asarray(ds.matrix))
    grammar = repair_compress(csrv.s)
    grammar_bits = grammar.size * np.ceil(np.log2(grammar.max_symbol + 1))
    assert grammar_bits < 3.0 * entropy_bound_bits(csrv.s, k=0) + 1024
