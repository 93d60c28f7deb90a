"""The format conformance suite: one battery over every registered format.

Parametrized over :func:`repro.formats.available`, so any future
registration is automatically held to the same contract: lossless
roundtrip against dense, panel-vs-loop kernel equivalence, ``out=``
aliasing, operator sugar, serialization, and size accounting.
"""

import numpy as np
import pytest

import repro
from repro import formats
from repro.errors import MatrixFormatError
from repro.io.serialize import (
    loads_matrix,
    peek_matrix_info,
    saves_matrix,
)
from tests.conftest import make_structured

FORMAT_NAMES = formats.available()

#: Build options that exercise multi-block / multi-group structure for
#: the formats that have it (every other format builds with defaults).
BUILD_OPTS = {
    "blocked": {"variant": "re_iv", "n_blocks": 3},
    "auto": {"n_blocks": 3},
}


#: Edge inputs every format must multiply exactly like dense: for the
#: grammar variants, a grammar without rules (q = 0), rows with no
#: entries between their separators, and a deep chain of shared rules.
EDGE_MATRICES = {
    "rule_free": np.array([[1.0, 2.0], [3.0, 4.0]]),
    "all_empty_rows": np.zeros((5, 4)),
    "empty_rows_between": np.array(
        [[0.0, 0.0, 0.0], [1.5, 1.5, 0.0], [0.0, 0.0, 0.0], [1.5, 1.5, 0.0]]
    ),
    "repeated_row": np.tile(np.array([[1.5, 2.5, 1.5, 2.5, 1.5, 2.5]]), (9, 1)),
}


@pytest.fixture(scope="module")
def dense():
    rng = np.random.default_rng(987)
    return make_structured(rng, n=48, m=11)


@pytest.fixture(scope="module", params=FORMAT_NAMES)
def built(request, dense):
    """(name, matrix) for every registered format, built once per module."""
    name = request.param
    return name, repro.compress(dense, format=name, **BUILD_OPTS.get(name, {}))


class TestProtocolConformance:
    def test_registered_spec_matches_instance(self, built):
        name, matrix = built
        spec = formats.get(name)
        assert isinstance(matrix, spec.cls)
        # The instance resolves back to a registered spec ("auto" is a
        # build-only name whose instances resolve to "blocked").
        resolved = formats.spec_for(matrix)
        assert resolved.name == matrix.format_name
        assert isinstance(matrix, formats.MatrixFormat)

    def test_roundtrip_vs_dense(self, built, dense):
        _, matrix = built
        assert matrix.shape == dense.shape
        assert np.allclose(matrix.to_dense(), dense)

    def test_single_vector_kernels(self, built, dense):
        _, matrix = built
        rng = np.random.default_rng(1)
        x = rng.standard_normal(dense.shape[1])
        y = rng.standard_normal(dense.shape[0])
        assert np.allclose(matrix.right_multiply(x), dense @ x)
        assert np.allclose(matrix.left_multiply(y), y @ dense)
        assert np.allclose(matrix.transpose_multiply(y), dense.T @ y)

    def test_panel_matches_loop(self, built, dense):
        """Panel kernels agree with k stacked single multiplications."""
        _, matrix = built
        rng = np.random.default_rng(2)
        X = rng.standard_normal((dense.shape[1], 6))
        Y = rng.standard_normal((dense.shape[0], 4))
        loop_right = np.stack(
            [matrix.right_multiply(X[:, j]) for j in range(X.shape[1])], axis=1
        )
        loop_left = np.stack(
            [matrix.left_multiply(Y[:, j]) for j in range(Y.shape[1])], axis=1
        )
        assert np.allclose(matrix.right_multiply_matrix(X), loop_right)
        assert np.allclose(matrix.left_multiply_matrix(Y), loop_left)

    def test_panel_width_chunking(self, built, dense):
        _, matrix = built
        rng = np.random.default_rng(3)
        X = rng.standard_normal((dense.shape[1], 7))
        assert np.allclose(
            matrix.right_multiply_matrix(X, panel_width=3), dense @ X
        )
        with pytest.raises(MatrixFormatError):
            matrix.right_multiply_matrix(X, panel_width=0)

    def test_out_aliasing(self, built, dense):
        """``out=`` receives the result in place and is returned."""
        _, matrix = built
        rng = np.random.default_rng(4)
        X = rng.standard_normal((dense.shape[1], 5))
        out = np.full((dense.shape[0], 5), np.nan)
        returned = matrix.right_multiply_matrix(X, out=out)
        assert returned is out
        assert np.allclose(out, dense @ X)
        out_left = np.full((dense.shape[1], 3), np.nan)
        Y = rng.standard_normal((dense.shape[0], 3))
        returned = matrix.left_multiply_matrix(Y, out=out_left)
        assert returned is out_left
        assert np.allclose(out_left, dense.T @ Y)

    def test_out_shape_rejected(self, built, dense):
        _, matrix = built
        X = np.ones((dense.shape[1], 2))
        with pytest.raises(MatrixFormatError):
            matrix.right_multiply_matrix(X, out=np.empty((1, 1)))

    def test_matmul_operators(self, built, dense):
        _, matrix = built
        rng = np.random.default_rng(5)
        x = rng.standard_normal(dense.shape[1])
        y = rng.standard_normal(dense.shape[0])
        X = rng.standard_normal((dense.shape[1], 3))
        Y = rng.standard_normal((4, dense.shape[0]))
        assert np.allclose(matrix @ x, dense @ x)
        assert np.allclose(matrix @ X, dense @ X)
        assert np.allclose(y @ matrix, y @ dense)
        assert np.allclose(Y @ matrix, Y @ dense)

    def test_matmul_validation_errors(self, built, dense):
        _, matrix = built
        with pytest.raises(MatrixFormatError):
            matrix @ np.ones(dense.shape[1] + 1)
        with pytest.raises(MatrixFormatError):
            np.ones(dense.shape[0] + 2) @ matrix
        with pytest.raises(MatrixFormatError):
            matrix @ "not numeric"

    def test_threads_and_executor_accepted(self, built, dense):
        """The uniform kernel signature: every format takes ``executor=``."""
        from repro.serve.executor import BlockExecutor

        _, matrix = built
        x = np.ones(dense.shape[1])
        with BlockExecutor(2) as ex:
            assert np.allclose(
                matrix.right_multiply(x, executor=ex), dense @ x
            )

    def test_size_accounting(self, built):
        _, matrix = built
        assert matrix.size_bytes() > 0
        breakdown = matrix.size_breakdown()
        assert breakdown and all(v >= 0 for v in breakdown.values())
        assert sum(breakdown.values()) == matrix.size_bytes()
        assert matrix.resident_overhead_bytes() >= 0

    def test_serialize_roundtrip(self, built, dense):
        _, matrix = built
        blob = saves_matrix(matrix)
        back = loads_matrix(blob)
        assert type(back) is type(matrix)
        assert back.format_name == matrix.format_name
        assert back.shape == matrix.shape
        assert back.size_bytes() == matrix.size_bytes()
        assert np.allclose(back.to_dense(), dense)

    def test_peek_header(self, built, dense):
        _, matrix = built
        info = peek_matrix_info(saves_matrix(matrix))
        assert tuple(info["shape"]) == dense.shape
        assert "kind" in info


class TestBatchDispatch:
    """The serving dispatcher answers panels for every format."""

    def test_batch_right_and_left(self, built, dense):
        from repro.serve.batch import batch_left_multiply, batch_right_multiply

        _, matrix = built
        rng = np.random.default_rng(6)
        X = rng.standard_normal((dense.shape[1], 5))
        Y = rng.standard_normal((dense.shape[0], 5))
        assert np.allclose(batch_right_multiply(matrix, X), dense @ X)
        assert np.allclose(batch_left_multiply(matrix, Y), dense.T @ Y)

    def test_batch_with_executor(self, built, dense):
        from repro.serve.batch import batch_left_multiply, batch_right_multiply
        from repro.serve.executor import BlockExecutor

        _, matrix = built
        rng = np.random.default_rng(9)
        X = np.ones((dense.shape[1], 3))
        X5 = rng.standard_normal((dense.shape[1], 5))
        Y5 = rng.standard_normal((dense.shape[0], 5))
        with BlockExecutor(2) as ex:
            assert np.allclose(
                batch_right_multiply(matrix, X, executor=ex), dense @ X
            )
            # Chunked requests run each format's own chunked kernel.
            for panel_width in (None, 2):
                assert np.allclose(
                    batch_right_multiply(
                        matrix, X5, executor=ex, panel_width=panel_width
                    ),
                    dense @ X5,
                )
                assert np.allclose(
                    batch_left_multiply(
                        matrix, Y5, executor=ex, panel_width=panel_width
                    ),
                    dense.T @ Y5,
                )


class TestEdgeInputs:
    """Degenerate matrices and awkward operands, against dense."""

    @pytest.mark.parametrize("case", sorted(EDGE_MATRICES))
    @pytest.mark.parametrize("name", FORMAT_NAMES)
    def test_edge_matrices(self, name, case):
        edge = EDGE_MATRICES[case]
        opts = BUILD_OPTS.get(name, {})
        if "n_blocks" in opts:
            opts = {**opts, "n_blocks": 2}
        matrix = repro.compress(edge, format=name, **opts)
        rng = np.random.default_rng(7)
        for k in (1, 2, 64):
            X = rng.standard_normal((edge.shape[1], k))
            Y = rng.standard_normal((edge.shape[0], k))
            assert np.allclose(matrix.right_multiply_matrix(X), edge @ X)
            assert np.allclose(matrix.left_multiply_matrix(Y), edge.T @ Y)
        x, y = X[:, 0], Y[:, 0]
        assert np.allclose(matrix.right_multiply(x), edge @ x)
        assert np.allclose(matrix.left_multiply(y), y @ edge)

    @pytest.mark.parametrize("k", [1, 2, 64])
    def test_fortran_and_readonly_mmap_operands(self, built, dense, k, tmp_path):
        _, matrix = built
        rng = np.random.default_rng(8)
        operands = {}
        for side, rows in (("x", dense.shape[1]), ("y", dense.shape[0])):
            np.save(tmp_path / f"{side}.npy", np.asfortranarray(
                rng.standard_normal((rows, k))
            ))
            operands[side] = np.load(tmp_path / f"{side}.npy", mmap_mode="r")
            assert operands[side].flags.f_contiguous or k == 1
            assert not operands[side].flags.writeable
        X, Y = operands["x"], operands["y"]
        assert np.allclose(matrix.right_multiply_matrix(X), dense @ X)
        assert np.allclose(matrix.left_multiply_matrix(Y), dense.T @ Y)
        # Strided read-only single vectors.
        assert np.allclose(matrix.right_multiply(X[:, -1]), dense @ X[:, -1])
        assert np.allclose(matrix.left_multiply(Y[:, -1]), Y[:, -1] @ dense)


class TestPlanAccounting:
    @pytest.mark.parametrize("variant", ["re_32", "re_iv", "re_ans"])
    def test_resident_estimate_tracks_the_built_plan(self, dense, variant):
        """The build-independent overhead estimate is within 10 % of
        what the retained plan and its bound weights actually hold."""
        matrix = repro.compress(dense, format=variant)
        matrix.enable_plan_retention(True)
        held = matrix._get_engine().nbytes
        assert abs(matrix.resident_overhead_bytes() - held) <= 0.10 * held
