"""Property-based integration tests: every representation is a lossless
linear operator identical to the dense reference."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BlockedMatrix,
    CLAMatrix,
    CSRVMatrix,
    GrammarCompressedMatrix,
)
from repro.io.serialize import loads_matrix, saves_matrix
from repro.serve.executor import BlockExecutor


@st.composite
def small_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    m = draw(st.integers(min_value=1, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    pool = draw(st.integers(min_value=1, max_value=6))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    rng = np.random.default_rng(seed)
    values = np.round(rng.uniform(-9, 9, size=pool), 1)
    matrix = values[rng.integers(0, pool, size=(n, m))]
    matrix[rng.random((n, m)) >= density] = 0.0
    return matrix


@settings(max_examples=40, deadline=None)
@given(matrix=small_matrices(), variant=st.sampled_from(["re_32", "re_iv", "re_ans"]))
def test_gcm_is_exact_linear_operator(matrix, variant):
    gm = GrammarCompressedMatrix.compress(matrix, variant=variant)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(matrix.shape[1])
    y = rng.standard_normal(matrix.shape[0])
    assert np.allclose(gm.right_multiply(x), matrix @ x, atol=1e-9)
    assert np.allclose(gm.left_multiply(y), y @ matrix, atol=1e-9)
    assert np.array_equal(gm.to_dense(), matrix)


@settings(max_examples=25, deadline=None)
@given(
    matrix=small_matrices(),
    n_blocks=st.integers(min_value=1, max_value=6),
    threads=st.integers(min_value=1, max_value=4),
)
def test_blocked_equals_unblocked(matrix, n_blocks, threads):
    n_blocks = min(n_blocks, matrix.shape[0])
    bm = BlockedMatrix.compress(matrix, variant="re_32", n_blocks=n_blocks)
    x = np.ones(matrix.shape[1])
    y = np.ones(matrix.shape[0])
    with BlockExecutor(threads) as ex:
        assert np.allclose(bm.right_multiply(x, executor=ex), matrix @ x)
        assert np.allclose(bm.left_multiply(y, executor=ex), y @ matrix)


@settings(max_examples=25, deadline=None)
@given(matrix=small_matrices())
def test_cla_is_exact_linear_operator(matrix):
    cla = CLAMatrix.compress(matrix, sample_rows=64)
    x = np.ones(matrix.shape[1])
    y = np.ones(matrix.shape[0])
    assert np.allclose(cla.right_multiply(x), matrix @ x)
    assert np.allclose(cla.left_multiply(y), y @ matrix)
    assert np.array_equal(cla.to_dense(), matrix)


@settings(max_examples=25, deadline=None)
@given(matrix=small_matrices(), variant=st.sampled_from(["re_32", "re_iv", "re_ans"]))
def test_serialization_preserves_everything(matrix, variant):
    gm = GrammarCompressedMatrix.compress(matrix, variant=variant)
    back = loads_matrix(saves_matrix(gm))
    assert np.array_equal(back.to_dense(), matrix)
    assert back.size_bytes() == gm.size_bytes()


@settings(max_examples=25, deadline=None)
@given(matrix=small_matrices(), seed=st.integers(min_value=0, max_value=100))
def test_column_reordering_never_changes_semantics(matrix, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(matrix.shape[1])
    csrv = CSRVMatrix.from_dense(matrix, column_order=perm)
    gm = GrammarCompressedMatrix.compress(csrv)
    x = rng.standard_normal(matrix.shape[1])
    assert np.allclose(gm.right_multiply(x), matrix @ x)
    assert np.array_equal(gm.to_dense(), matrix)


@settings(max_examples=20, deadline=None)
@given(matrix=small_matrices())
def test_left_right_transpose_duality(matrix):
    # yᵗM == (Mᵗy)ᵗ: the left multiplication must agree with the right
    # multiplication of the transpose.
    gm = GrammarCompressedMatrix.compress(matrix)
    gm_t = GrammarCompressedMatrix.compress(matrix.T.copy())
    y = np.random.default_rng(3).standard_normal(matrix.shape[0])
    assert np.allclose(gm.left_multiply(y), gm_t.right_multiply(y))
