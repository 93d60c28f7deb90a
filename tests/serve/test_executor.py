"""Real block executor: correctness, timing, and the LPT model pinning."""

import time

import numpy as np
import pytest

from repro.bench.harness import run_iterations
from repro.bench.parallel import lpt_makespan
from repro.cla.matrix import CLAMatrix
from repro.core.blocked import BlockedMatrix
from repro.errors import MatrixFormatError
from repro.serve.executor import BlockExecutor


class TestCorrectness:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_right_multiply(self, structured_matrix, rng, workers):
        bm = BlockedMatrix.compress(structured_matrix, variant="re_32", n_blocks=4)
        x = rng.standard_normal(structured_matrix.shape[1])
        with BlockExecutor(workers) as ex:
            assert np.allclose(
                bm.right_multiply(x, executor=ex), structured_matrix @ x
            )

    @pytest.mark.parametrize("workers", [1, 3])
    def test_left_multiply(self, structured_matrix, rng, workers):
        bm = BlockedMatrix.compress(structured_matrix, variant="re_iv", n_blocks=3)
        y = rng.standard_normal(structured_matrix.shape[0])
        with BlockExecutor(workers) as ex:
            assert np.allclose(
                bm.left_multiply(y, executor=ex), y @ structured_matrix
            )

    def test_panels(self, structured_matrix, rng):
        bm = BlockedMatrix.compress(structured_matrix, variant="re_ans", n_blocks=3)
        x = rng.standard_normal((structured_matrix.shape[1], 5))
        y = rng.standard_normal((structured_matrix.shape[0], 4))
        with BlockExecutor(2) as ex:
            assert np.allclose(
                bm.right_multiply_matrix(x, executor=ex), structured_matrix @ x
            )
            assert np.allclose(
                bm.left_multiply_matrix(y, executor=ex), structured_matrix.T @ y
            )

    def test_blocked_matrix_accepts_executor(self, structured_matrix, rng):
        bm = BlockedMatrix.compress(structured_matrix, variant="csrv", n_blocks=4)
        x = rng.standard_normal(structured_matrix.shape[1])
        with BlockExecutor(2) as ex:
            assert np.allclose(
                bm.right_multiply(x, executor=ex), structured_matrix @ x
            )
            assert np.allclose(
                bm.left_multiply(
                    rng.standard_normal(structured_matrix.shape[0]), executor=ex
                ).size,
                structured_matrix.shape[1],
            )

    def test_shape_validation(self, structured_matrix):
        bm = BlockedMatrix.compress(structured_matrix, n_blocks=2)
        with BlockExecutor(1) as ex:
            with pytest.raises(MatrixFormatError):
                bm.right_multiply(np.ones(3), executor=ex)
            with pytest.raises(MatrixFormatError):
                bm.left_multiply(np.ones(3), executor=ex)

    def test_invalid_config(self):
        with pytest.raises(MatrixFormatError):
            BlockExecutor(0)


class TestTimedMap:
    def test_durations_and_results(self):
        blocks = [1.0, 2.0, 3.0]
        with BlockExecutor(1) as ex:
            results, durations, wall = ex.timed_map_blocks(
                lambda b, i: b * 10 + i, blocks
            )
        assert results == [10.0, 21.0, 32.0]
        assert len(durations) == 3
        assert all(d >= 0 for d in durations)
        assert wall >= max(durations) * 0.5  # sequential: wall spans all blocks

    def test_pool_reuse_across_calls(self):
        with BlockExecutor(2) as ex:
            first = ex.map_blocks(lambda b, i: b + i, [10, 20, 30])
            second = ex.map_blocks(lambda b, i: b - i, [10, 20, 30])
        assert first == [10, 21, 32]
        assert second == [10, 19, 28]


class TestLptPlanningModel:
    """Satellite: lpt_makespan stays as a planning utility, pinned to
    the *measured* makespan ordering of the real pool on GIL-releasing
    (sleep) tasks."""

    def test_predicted_ordering_matches_measured(self):
        naps = [0.08, 0.08, 0.08, 0.08]
        blocks = list(naps)

        def work(b, _i):
            time.sleep(b)
            return b

        measured = {}
        for workers in (1, 4):
            with BlockExecutor(workers) as ex:
                _, durations, wall = ex.timed_map_blocks(work, blocks)
            measured[workers] = wall
            predicted = lpt_makespan(naps, workers)
            # The prediction from true durations brackets the measured
            # wall time (generous slack: CI schedulers are noisy).
            assert wall >= predicted * 0.5
            assert wall <= predicted * 3 + 0.2
        # Real 4-worker execution genuinely overlaps the sleeps; the
        # model predicts the same strict ordering.
        assert measured[4] < measured[1]
        assert lpt_makespan(naps, 4) < lpt_makespan(naps, 1)

    def test_model_bounds_on_measured_durations(self, structured_matrix, rng):
        bm = BlockedMatrix.compress(structured_matrix, variant="re_iv", n_blocks=6)
        x = rng.standard_normal(structured_matrix.shape[1])
        with BlockExecutor(1) as ex:
            _, durations, _wall = ex.timed_map_blocks(
                lambda b, _i: b.right_multiply(x), bm.blocks
            )
        spans = [lpt_makespan(durations, w) for w in (1, 2, 4, 8)]
        assert spans == sorted(spans, reverse=True)
        assert spans[0] == pytest.approx(sum(durations))
        assert spans[-1] >= max(durations) - 1e-12


class TestHarnessExecutorModel:
    def test_executor_model_runs_and_matches(self, structured_matrix, monkeypatch):
        # The harness's one persistent pool reaches every format: row
        # blocks and CLA's column groups alike.
        pools = []
        map_blocks = BlockExecutor.map_blocks

        def spy(self, fn, blocks):
            pools.append(self)
            return map_blocks(self, fn, blocks)

        monkeypatch.setattr(BlockExecutor, "map_blocks", spy)
        cla = CLAMatrix.compress(structured_matrix)
        assert len(cla.groups) > 1
        bm = BlockedMatrix.compress(structured_matrix, variant="re_32", n_blocks=4)
        for matrix in (bm, cla):
            pools.clear()
            result = run_iterations(
                matrix, iterations=2, threads=2, parallel_model="executor",
                reference=structured_matrix,
            )
            name = type(matrix).__name__
            assert pools, f"{name} never reached the executor"
            assert all(pool is pools[0] for pool in pools), name
            assert result.max_error < 1e-8, name
            assert result.seconds_per_iter > 0

    def test_executor_model_on_unblocked_falls_back(self, structured_matrix):
        from repro.baselines import DenseMatrix

        result = run_iterations(
            DenseMatrix(structured_matrix), iterations=2,
            parallel_model="executor",
        )
        assert result.seconds_per_iter > 0
