"""Batched panel multiplication equality across every representation."""

import numpy as np
import pytest

from repro.baselines import CSRIVMatrix, CSRMatrix, DenseMatrix
from repro.cla import CLAMatrix
from repro.core.blocked import BLOCK_FORMATS, BlockedMatrix
from repro.core.csrv import CSRVMatrix
from repro.core.gcm import VARIANTS, GrammarCompressedMatrix
from repro.core.multiply import PANEL_COLUMNS
from repro.errors import MatrixFormatError
from repro.serve.batch import as_panel, batch_left_multiply, batch_right_multiply

#: (id, builder) for every representation the registry can serve.
REPRESENTATIONS = [
    ("dense", DenseMatrix),
    ("csr", CSRMatrix),
    ("csr_iv", CSRIVMatrix),
    ("csrv", CSRVMatrix.from_dense),
    ("cla", CLAMatrix.compress),
    *[
        (variant, lambda m, v=variant: GrammarCompressedMatrix.compress(m, variant=v))
        for variant in VARIANTS
    ],
    *[
        (
            f"blocked_{fmt}",
            lambda m, f=fmt: BlockedMatrix.compress(m, variant=f, n_blocks=3),
        )
        for fmt in BLOCK_FORMATS
    ],
]
IDS = [name for name, _ in REPRESENTATIONS]
BUILDERS = [builder for _, builder in REPRESENTATIONS]


@pytest.mark.parametrize("builder", BUILDERS, ids=IDS)
class TestPanelEquality:
    def test_right_matches_dense(self, builder, structured_matrix, rng):
        compressed = builder(structured_matrix)
        x = rng.standard_normal((structured_matrix.shape[1], 7))
        assert np.allclose(
            batch_right_multiply(compressed, x), structured_matrix @ x
        )

    def test_left_matches_dense(self, builder, structured_matrix, rng):
        compressed = builder(structured_matrix)
        y = rng.standard_normal((structured_matrix.shape[0], 5))
        assert np.allclose(
            batch_left_multiply(compressed, y), structured_matrix.T @ y
        )

    def test_k1_degenerates_to_single_mvm(self, builder, structured_matrix, rng):
        compressed = builder(structured_matrix)
        x = rng.standard_normal(structured_matrix.shape[1])
        batched = batch_right_multiply(compressed, x)
        assert batched.shape == (structured_matrix.shape[0], 1)
        assert np.allclose(batched.ravel(), compressed.right_multiply(x))

    def test_matches_looped(self, builder, structured_matrix, rng):
        compressed = builder(structured_matrix)
        x = rng.standard_normal((structured_matrix.shape[1], 4))
        assert np.allclose(
            batch_right_multiply(compressed, x),
            np.stack([compressed.right_multiply(c) for c in x.T], axis=1),
        )
        y = rng.standard_normal((structured_matrix.shape[0], 4))
        assert np.allclose(
            batch_left_multiply(compressed, y),
            np.stack([compressed.left_multiply(c) for c in y.T], axis=1),
        )


class TestPanelOptions:
    def test_panel_width_chunks_match(self, structured_matrix, rng):
        gm = GrammarCompressedMatrix.compress(structured_matrix, variant="re_32")
        k = 2 * PANEL_COLUMNS + 1
        x = rng.standard_normal((structured_matrix.shape[1], k))
        assert np.allclose(batch_right_multiply(gm, x), structured_matrix @ x)
        y = rng.standard_normal((structured_matrix.shape[0], k))
        left = batch_left_multiply(gm, y)
        assert left.shape == (structured_matrix.shape[1], k)
        assert np.allclose(left, structured_matrix.T @ y)

    def test_executor_forwarded(self, structured_matrix, rng):
        from repro.serve.executor import BlockExecutor

        bm = BlockedMatrix.compress(structured_matrix, variant="re_32", n_blocks=4)
        x = rng.standard_normal((structured_matrix.shape[1], 6))
        with BlockExecutor(2) as ex:
            assert np.allclose(
                batch_right_multiply(bm, x, executor=ex), structured_matrix @ x
            )
            assert np.allclose(
                batch_left_multiply(
                    bm,
                    rng.standard_normal((structured_matrix.shape[0], 3)),
                    executor=ex,
                ).shape,
                (structured_matrix.shape[1], 3),
            )

    def test_gcm_native_chunking_builds_engine_once(
        self, structured_matrix, rng, monkeypatch
    ):
        gm = GrammarCompressedMatrix.compress(structured_matrix, variant="re_ans")
        builds = []
        original = GrammarCompressedMatrix._get_engine

        def counting(self):
            builds.append(1)
            return original(self)

        monkeypatch.setattr(GrammarCompressedMatrix, "_get_engine", counting)
        x = rng.standard_normal((structured_matrix.shape[1], 130))
        result = batch_right_multiply(gm, x)
        assert np.allclose(result, structured_matrix @ x)
        assert len(builds) == 1  # one re_ans decode for all 3 chunks


class TestAsPanel:
    def test_vector_becomes_column(self):
        panel = as_panel(np.ones(5), 5)
        assert panel.shape == (5, 1)

    def test_row_vectors_transposed(self):
        panel = as_panel(np.ones((3, 5)), 5)
        assert panel.shape == (5, 3)

    def test_already_panel_passthrough(self):
        panel = as_panel(np.arange(10.0).reshape(5, 2), 5)
        assert panel.shape == (5, 2)

    def test_wrong_length_rejected(self):
        with pytest.raises(MatrixFormatError):
            as_panel(np.ones((4, 3)), 5)

    def test_ndim3_rejected(self):
        with pytest.raises(MatrixFormatError):
            as_panel(np.ones((2, 2, 2)), 2)
