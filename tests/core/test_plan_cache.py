"""MvmPlan extraction, grammar fingerprints, and per-matrix plan retention."""

import gc
import weakref

import numpy as np
import pytest

import repro
from repro.core.csrv import CSRVMatrix
from repro.core.gcm import VARIANTS, GrammarCompressedMatrix
from repro.core.multiply import MvmEngine, MvmPlan
from repro.core.repair import repair_compress
from repro.errors import MatrixFormatError
from tests.conftest import make_structured


@pytest.fixture
def dense():
    return make_structured(np.random.default_rng(99), n=50, m=9, pool=4)


@pytest.fixture
def grammar(dense):
    return repair_compress(CSRVMatrix.from_dense(dense).s)


@pytest.fixture
def plan_builds(monkeypatch):
    """Every ``MvmPlan.from_grammar`` call the test makes, in order."""
    builds = []
    original = MvmPlan.from_grammar

    def counted(grammar, n_cols):
        builds.append(n_cols)
        return original(grammar, n_cols)

    monkeypatch.setattr(MvmPlan, "from_grammar", counted)
    return builds


class TestMvmPlan:
    def test_engine_from_plan_matches_engine_from_grammar(self, dense, grammar):
        csrv = CSRVMatrix.from_dense(dense)
        n_cols = dense.shape[1]
        direct = MvmEngine.from_grammar(grammar, n_cols, csrv.values)
        plan = MvmPlan.from_grammar(grammar, n_cols)
        via_plan = MvmEngine(plan, csrv.values)
        x = np.random.default_rng(1).standard_normal(n_cols)
        y = np.random.default_rng(2).standard_normal(dense.shape[0])
        np.testing.assert_array_equal(direct.right(x), via_plan.right(x))
        np.testing.assert_array_equal(direct.left(y), via_plan.left(y))
        assert direct.plan.n_rules == plan.n_rules

    def test_plan_nbytes_positive(self, grammar, dense):
        plan = MvmPlan.from_grammar(grammar, dense.shape[1])
        assert plan.nbytes > 0

    def test_engine_requires_grammar_or_plan(self, grammar, dense):
        # An engine is a plan bound to a V that covers its value ids.
        plan = MvmPlan.from_grammar(grammar, dense.shape[1])
        with pytest.raises(MatrixFormatError):
            MvmEngine(plan, np.ones(plan.n_values - 1))


class TestGrammarFingerprint:
    def test_equal_grammars_share_fingerprint(self, dense):
        s = CSRVMatrix.from_dense(dense).s
        assert (
            repair_compress(s).fingerprint() == repair_compress(s).fingerprint()
        )

    def test_different_grammars_differ(self, dense, grammar):
        other = repair_compress(
            CSRVMatrix.from_dense(dense).s, strategy="batch"
        )
        if np.array_equal(other.rules, grammar.rules) and np.array_equal(
            other.final, grammar.final
        ):
            pytest.skip("batch happened to derive the identical grammar")
        assert other.fingerprint() != grammar.fingerprint()

    def test_trailing_zero_rows_change_storage_fingerprint(self):
        """Regression: bit-packed words are zero-padded, so a matrix
        plus an extra all-zero row can produce byte-identical re_iv
        words (the trailing separator symbols pack to zero bits).  Each
        retaining matrix must still plan its own rows."""
        a = np.array([[1.5, 2.5, 0.0, 1.5], [2.5, 1.5, 1.5, 0.0], [1.5, 2.5, 0.0, 1.5]])
        b = np.vstack([a, np.zeros((1, 4))])
        ma = repro.compress(a, format="re_iv")
        mb = repro.compress(b, format="re_iv")
        for m in (ma, mb):
            m.enable_plan_retention(True)
        x = np.arange(4, dtype=np.float64)
        np.testing.assert_allclose(ma.right_multiply(x), a @ x)
        np.testing.assert_allclose(mb.right_multiply(x), b @ x)


class TestPlanRetention:
    @pytest.mark.parametrize("variant", ["re_iv", "re_ans"])
    def test_retention_reuses_engine_and_stays_correct(self, dense, variant):
        m = repro.compress(dense, format=variant)
        x = np.random.default_rng(3).standard_normal(dense.shape[1])
        expect = dense @ x
        assert not m.plan_retained
        # Default: a fresh engine per call.
        assert m._get_engine() is not m._get_engine()
        assert m.enable_plan_retention(True)
        assert m.plan_retained
        engine = m._get_engine()
        assert m._get_engine() is engine
        np.testing.assert_allclose(m.right_multiply(x), expect)
        # Turning retention off drops the cached engine again.
        m.enable_plan_retention(False)
        assert not m.plan_retained
        assert m._get_engine() is not engine
        np.testing.assert_allclose(m.right_multiply(x), expect)

    def test_re32_always_retains(self, dense):
        m = repro.compress(dense, format="re_32")
        assert m.plan_retained
        assert m.enable_plan_retention(True)
        assert m._get_engine() is m._get_engine()

    def test_identical_matrices_share_one_plan_build(self, dense, plan_builds):
        """Two retaining matrices with one grammar each build their own
        plan, once."""
        a = repro.compress(dense, format="re_iv")
        b = repro.compress(dense, format="re_iv")
        for m in (a, b):
            m.enable_plan_retention(True)
        x = np.ones(dense.shape[1])
        for m in (a, b, a, b):
            np.testing.assert_allclose(m.right_multiply(x), dense @ x)
        assert len(plan_builds) == 2
        assert a._get_engine().plan is not b._get_engine().plan

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_plan_lives_as_long_as_its_matrix(self, dense, variant):
        m = repro.compress(dense, format=variant)
        m.enable_plan_retention(True)
        m.right_multiply(np.ones(dense.shape[1]))
        plan = weakref.ref(m._get_engine().plan)
        del m
        gc.collect()
        assert plan() is None

    @pytest.mark.parametrize("variant", ["re_iv", "re_ans"])
    def test_overhead_charged_only_when_retained(self, dense, variant):
        m = repro.compress(dense, format=variant)
        assert m.resident_overhead_bytes() == 0
        m.enable_plan_retention(True)
        charged = m.resident_overhead_bytes()
        q, n = m.n_rules, dense.shape[0]
        assert charged == 16 * (2 * q + m.c_length - n) + 4 * (q + n + 1)
        m.enable_plan_retention(False)
        assert m.resident_overhead_bytes() == 0

    def test_blocked_forwards_retention(self, dense):
        blocked = repro.compress(
            dense, format="blocked", variant="re_ans", n_blocks=2
        )
        assert blocked.enable_plan_retention(True)
        assert all(b.plan_retained for b in blocked.blocks)
        assert blocked.resident_overhead_bytes() == sum(
            b.resident_overhead_bytes() for b in blocked.blocks
        )
        x = np.random.default_rng(5).standard_normal(dense.shape[1])
        np.testing.assert_allclose(blocked.right_multiply(x), dense @ x)

    def test_csrv_blocked_retention_is_a_noop(self, dense):
        blocked = repro.compress(
            dense, format="blocked", variant="csrv", n_blocks=2
        )
        assert blocked.enable_plan_retention(True) is False

    def test_base_format_hook_returns_false(self, dense):
        m = repro.compress(dense, format="csr")
        assert m.enable_plan_retention() is False
        m.release_retained_plans()  # base no-op

    def test_release_drops_shared_cache_entry(self, dense, plan_builds):
        """``release_retained_plans`` drops the engine; retention stays
        on, so the next multiply builds it again, once."""
        m = repro.compress(dense, format="re_iv")
        m.enable_plan_retention(True)
        engine = m._get_engine()
        m.release_retained_plans()
        assert m._engine is None
        assert m.plan_retained
        x = np.ones(dense.shape[1])
        for _ in range(2):
            np.testing.assert_allclose(m.right_multiply(x), dense @ x)
        assert len(plan_builds) == 2  # once before the release, once after
        assert m._get_engine() is not engine


class TestCompressStrategyPlumbing:
    def test_gcm_compress_accepts_strategy(self, dense):
        m = GrammarCompressedMatrix.compress(dense, variant="re_iv", strategy="batch")
        np.testing.assert_array_equal(m.to_dense(), dense)

    def test_registry_compress_forwards_strategy(self, dense):
        m = repro.compress(dense, format="re_ans", strategy="batch")
        np.testing.assert_array_equal(m.to_dense(), dense)
