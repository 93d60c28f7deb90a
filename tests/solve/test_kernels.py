"""Unit tests for the solver kernel primitives."""

import numpy as np
import pytest

import repro
from repro.solve.kernels import SolveKernels
from tests.conftest import make_structured


@pytest.fixture
def dense(rng):
    return make_structured(rng, n=40, m=9)


@pytest.fixture
def kernels(dense):
    return SolveKernels(repro.compress(dense, format="re_iv"))


class TestVectorKernels:
    def test_right(self, kernels, dense, rng):
        x = rng.standard_normal(9)
        np.testing.assert_allclose(kernels.right(x), dense @ x)

    def test_left(self, kernels, dense, rng):
        y = rng.standard_normal(40)
        np.testing.assert_allclose(kernels.left(y), y @ dense)

    def test_gram(self, kernels, dense, rng):
        x = rng.standard_normal(9)
        np.testing.assert_allclose(
            kernels.gram(x), dense.T @ (dense @ x), atol=1e-10
        )

    def test_gram_normalized(self, kernels, dense, rng):
        x = rng.standard_normal(9)
        np.testing.assert_allclose(
            kernels.gram(x, normalize=True),
            dense.T @ (dense @ x) / dense.shape[0],
            atol=1e-10,
        )

    def test_row_sums(self, kernels, dense):
        np.testing.assert_allclose(kernels.row_sums(), dense.sum(axis=1))

    def test_shape_and_validation(self, kernels, dense):
        assert kernels.shape == dense.shape


class TestPanelKernels:
    def test_right_panel_matches_dense(self, kernels, dense, rng):
        panel = rng.standard_normal((9, 4))
        np.testing.assert_allclose(
            kernels.right_panel(panel), dense @ panel, atol=1e-10
        )

    def test_left_panel_matches_dense(self, kernels, dense, rng):
        panel = rng.standard_normal((40, 3))
        np.testing.assert_allclose(
            kernels.left_panel(panel), dense.T @ panel, atol=1e-10
        )

    def test_gram_panel_matches_dense(self, kernels, dense, rng):
        panel = rng.standard_normal((9, 3))
        np.testing.assert_allclose(
            kernels.gram_panel(panel), dense.T @ (dense @ panel), atol=1e-10
        )

    def test_workspace_reused_across_same_width_calls(self, kernels, rng):
        a = kernels.right_panel(rng.standard_normal((9, 4)))
        b = kernels.right_panel(rng.standard_normal((9, 4)))
        assert a is b  # same out= buffer, rewritten in place

    def test_workspace_reallocated_on_width_change(self, kernels, rng):
        a = kernels.right_panel(rng.standard_normal((9, 4)))
        b = kernels.right_panel(rng.standard_normal((9, 6)))
        assert a is not b

    def test_explicit_out_respected(self, kernels, dense, rng):
        panel = rng.standard_normal((9, 2))
        out = np.empty((40, 2))
        result = kernels.right_panel(panel, out=out)
        assert result is out
        np.testing.assert_allclose(out, dense @ panel, atol=1e-10)


class TestPlanRetention:
    def test_enabled_once_up_front(self, dense):
        matrix = repro.compress(dense, format="re_ans")
        SolveKernels(matrix)
        # Retention was switched on: the matrix now charges (or will
        # charge, after first use) its plan through the overhead hook.
        assert matrix.plan_retained is True

    def test_opt_out(self, dense):
        matrix = repro.compress(dense, format="re_ans")
        SolveKernels(matrix, retain_plans=False)
        assert matrix.plan_retained is False

    def test_duck_typed_matrix_without_retention_hook(self, dense, rng):
        class Bare:
            shape = dense.shape

            def right_multiply(self, x, executor=None):
                return dense @ x

            def left_multiply(self, y, executor=None):
                return y @ dense

        kernels = SolveKernels(Bare())
        x = rng.standard_normal(dense.shape[1])
        np.testing.assert_allclose(kernels.right(x), dense @ x)
        np.testing.assert_allclose(kernels.gram(x), dense.T @ (dense @ x))


class TestKernelErrors:
    @pytest.mark.parametrize("op", ["right", "left"])
    def test_type_error_propagates_after_one_call(self, dense, op):
        """A kernel's own ``TypeError`` is not retried without the executor."""
        from repro.baselines import DenseMatrix

        calls = []

        class Raising(DenseMatrix):
            def _right(self, x, out, executor):
                calls.append(executor)
                raise TypeError("kernel bug")

            _left = _right

        kernels = SolveKernels(Raising(dense), executor="EXEC")
        operand = np.ones(dense.shape[1] if op == "right" else dense.shape[0])
        with pytest.raises(TypeError, match="kernel bug"):
            getattr(kernels, op)(operand)
        assert calls == ["EXEC"]
