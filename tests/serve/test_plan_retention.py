"""Serving-side plan retention: enabling, accounting, and opting out."""

import numpy as np
import pytest

from repro.core.blocked import BlockedMatrix
from repro.core.gcm import GrammarCompressedMatrix
from repro.io.serialize import save_matrix
from repro.serve.registry import MatrixRegistry, resident_estimate
from tests.conftest import make_structured


@pytest.fixture
def iv_store(tmp_path, rng):
    """One re_iv matrix (plan-retaining, zero overhead when not retained)."""
    dense = make_structured(rng, n=60, m=10)
    save_matrix(
        GrammarCompressedMatrix.compress(dense, variant="re_iv"),
        tmp_path / "iv.gcmx",
    )
    return tmp_path, dense


class TestRegistryPlanRetention:
    def test_loaded_matrix_retains_plan_by_default(self, iv_store):
        root, dense = iv_store
        registry = MatrixRegistry(root=root)
        assert registry.retain_plans
        matrix = registry.get("iv")
        assert matrix.plan_retained
        x = np.ones(dense.shape[1])
        np.testing.assert_allclose(matrix.right_multiply(x), dense @ x)

    def test_opt_out_restores_per_call_rebuild(self, iv_store):
        root, _ = iv_store
        registry = MatrixRegistry(root=root, retain_plans=False)
        matrix = registry.get("iv")
        assert not matrix.plan_retained
        assert matrix.resident_overhead_bytes() == 0

    def test_budget_charges_retained_plan(self, iv_store):
        root, _ = iv_store
        with_plans = MatrixRegistry(root=root)
        without = MatrixRegistry(root=root, retain_plans=False)
        m_with = with_plans.get("iv")
        without.get("iv")
        overhead = m_with.resident_overhead_bytes()
        assert overhead > 0
        assert (
            with_plans.resident_bytes == without.resident_bytes + overhead
        )
        # The charge equals the documented estimate formula.
        q, n = m_with.n_rules, m_with.shape[0]
        assert overhead == 16 * (2 * q + m_with.c_length - n) + 4 * (q + n + 1)

    def test_resident_estimate_includes_plan(self, iv_store):
        root, _ = iv_store
        registry = MatrixRegistry(root=root)
        matrix = registry.get("iv")
        assert resident_estimate(matrix) == matrix.size_bytes() + (
            matrix.resident_overhead_bytes()
        )

    def test_stats_report_retention(self, iv_store):
        root, _ = iv_store
        assert MatrixRegistry(root=root).stats()["retain_plans"] is True
        assert (
            MatrixRegistry(root=root, retain_plans=False).stats()["retain_plans"]
            is False
        )

    def test_eviction_respects_plan_inflated_budget(self, tmp_path, rng):
        """A budget between payload and payload+plan keeps evicting."""
        dense = make_structured(rng, n=60, m=10)
        for name in ("one", "two"):
            save_matrix(
                GrammarCompressedMatrix.compress(dense, variant="re_ans"),
                tmp_path / f"{name}.gcmx",
            )
        probe = MatrixRegistry(root=tmp_path)
        charge = resident_estimate(probe.get("one"))
        # Budget fits one plan-charged matrix but not two.
        registry = MatrixRegistry(root=tmp_path, byte_budget=charge + charge // 2)
        registry.get("one")
        registry.get("two")
        assert registry.stats()["resident"] == 1
        assert registry.stats()["evictions"] == 1

    def test_eviction_releases_plan_from_shared_cache(self, tmp_path, rng):
        """An evicted matrix drops its engine — the budget charged it,
        so eviction frees it."""
        dense = make_structured(rng, n=60, m=10)
        save_matrix(
            GrammarCompressedMatrix.compress(dense, variant="re_iv"),
            tmp_path / "solo.gcmx",
        )
        registry = MatrixRegistry(root=tmp_path)
        matrix = registry.get("solo")
        matrix.right_multiply(np.ones(dense.shape[1]))  # builds the engine
        assert matrix._engine is not None
        assert registry.evict("solo")
        assert matrix._engine is None
        assert registry.resident_bytes == 0

    def test_reregistration_releases_retained_plans(self, tmp_path, rng):
        """Re-registering a resident name drops its matrix, and with it
        the engine the budget charged."""
        dense = make_structured(rng, n=60, m=10)
        save_matrix(
            GrammarCompressedMatrix.compress(dense, variant="re_iv"),
            tmp_path / "solo.gcmx",
        )
        replacement = tmp_path / "next" / "solo.gcmx"
        replacement.parent.mkdir()
        save_matrix(
            GrammarCompressedMatrix.compress(2.0 * dense, variant="re_32"),
            replacement,
        )
        registry = MatrixRegistry(root=tmp_path)
        matrix = registry.get("solo")
        matrix.right_multiply(np.ones(dense.shape[1]))  # builds the engine
        assert matrix._engine is not None
        registry.register("solo", replacement)
        assert matrix._engine is None
        assert registry.resident_bytes == 0

    def test_blocked_store_retains_per_block(self, tmp_path, rng):
        dense = make_structured(rng, n=48, m=9)
        save_matrix(
            BlockedMatrix.compress(dense, variant="re_iv", n_blocks=3),
            tmp_path / "blk.gcmx",
        )
        registry = MatrixRegistry(root=tmp_path)
        matrix = registry.get("blk")
        assert all(b.plan_retained for b in matrix.blocks)
        x = np.ones(dense.shape[1])
        np.testing.assert_allclose(matrix.right_multiply(x), dense @ x)


class TestSharedGrammarDistinctValues:
    def test_a_and_2a_share_a_plan_but_not_values(self, tmp_path, rng):
        """A and 2A have one grammar and different V: each answers
        with its own values."""
        dense = make_structured(rng, n=60, m=10)
        for name, scale in (("a", 1.0), ("twice_a", 2.0)):
            save_matrix(
                GrammarCompressedMatrix.compress(scale * dense, variant="re_iv"),
                tmp_path / f"{name}.gcmx",
            )
        registry = MatrixRegistry(root=tmp_path)
        a, twice_a = registry.get("a"), registry.get("twice_a")
        x = rng.standard_normal(dense.shape[1])
        Y = rng.standard_normal((dense.shape[0], 3))
        np.testing.assert_allclose(a.right_multiply(x), dense @ x)
        np.testing.assert_allclose(twice_a.right_multiply(x), 2.0 * dense @ x)
        np.testing.assert_allclose(a.left_multiply_matrix(Y), dense.T @ Y)
        np.testing.assert_allclose(twice_a.left_multiply_matrix(Y), 2.0 * dense.T @ Y)
