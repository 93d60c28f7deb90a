"""Equivalence of ``strategy="batch"`` and ``strategy="exact"`` RePair.

The vectorised batch compressor may derive a *different* grammar, but
the contract across every grammar-capable registered format is:

- the grammar expands to the same CSRV sequence (lossless identity);
- multiplication results match the exact-strategy build;
- the compressed size stays within a small tolerance of the exact
  build on the dataset profiles.
"""

import numpy as np
import pytest

import repro
from repro import formats
from repro.core.csrv import CSRVMatrix
from repro.core.repair import repair_compress
from repro.datasets import get_dataset
from tests.conftest import make_structured

#: Registered formats whose builders run RePair (and hence accept
#: ``strategy=``): the grammar variants, their blocked containers and
#: the sharded container.
GRAMMAR_FORMATS = [
    name for name in formats.available() if formats.get(name).runs_repair
]

#: Extra structural options exercised for the container formats.
BUILD_OPTS = {
    "blocked": {"variant": "re_ans", "n_blocks": 3},
    "auto": {"n_blocks": 3},
}


@pytest.fixture(scope="module")
def dense():
    rng = np.random.default_rng(4242)
    return make_structured(rng, n=80, m=13, pool=4)


def test_grammar_formats_cover_expected_names():
    # The capability flag drives this suite; a registry change that
    # silently drops the flag would skip everything below.
    assert set(GRAMMAR_FORMATS) >= {"re_32", "re_iv", "re_ans", "blocked", "auto"}


@pytest.mark.parametrize("name", GRAMMAR_FORMATS)
class TestBatchBuildEquivalence:
    def _pair(self, dense, name):
        opts = BUILD_OPTS.get(name, {})
        exact = repro.compress(dense, format=name, strategy="exact", **opts)
        batch = repro.compress(dense, format=name, strategy="batch", **opts)
        return exact, batch

    def test_expands_to_same_matrix(self, dense, name):
        exact, batch = self._pair(dense, name)
        np.testing.assert_array_equal(batch.to_dense(), dense)
        np.testing.assert_array_equal(batch.to_dense(), exact.to_dense())

    def test_mvm_matches_exact_build(self, dense, name):
        exact, batch = self._pair(dense, name)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(dense.shape[1])
        y = rng.standard_normal(dense.shape[0])
        np.testing.assert_allclose(
            batch.right_multiply(x), exact.right_multiply(x), rtol=1e-10
        )
        np.testing.assert_allclose(
            batch.left_multiply(y), exact.left_multiply(y), rtol=1e-10
        )
        panel = rng.standard_normal((dense.shape[1], 5))
        np.testing.assert_allclose(
            batch.right_multiply_matrix(panel),
            exact.right_multiply_matrix(panel),
            rtol=1e-10,
        )


def test_batch_sequence_identity_on_profiles():
    """The batch grammar expands to the *identical* CSRV sequence."""
    for profile in ("census", "covtype"):
        dense = np.asarray(get_dataset(profile, n_rows=300).matrix)
        s = CSRVMatrix.from_dense(dense).s
        grammar = repair_compress(s, strategy="batch")
        grammar.validate()
        np.testing.assert_array_equal(grammar.expand(), s)


@pytest.mark.parametrize("profile", ["census", "airline78", "covtype", "mnist2m"])
def test_ratio_tolerance_on_profiles(profile):
    """Batch compression ratio stays near the exact ratio (ISSUE: 2%).

    Compared as compressed-size / dense-size percentages of the
    ``re_ans`` build — the paper's headline ratio — on reduced-row
    synthetic profiles (the full-size gap is tracked by
    ``benchmarks/bench_hotpaths.py``).
    """
    dense = np.asarray(get_dataset(profile, n_rows=500).matrix)
    dense_bytes = dense.size * 8
    exact = repro.compress(dense, format="re_ans", strategy="exact")
    batch = repro.compress(dense, format="re_ans", strategy="batch")
    ratio_exact = 100.0 * exact.size_bytes() / dense_bytes
    ratio_batch = 100.0 * batch.size_bytes() / dense_bytes
    assert ratio_batch <= ratio_exact + 2.0, (
        f"{profile}: batch ratio {ratio_batch:.2f}% vs exact "
        f"{ratio_exact:.2f}% exceeds the 2-point tolerance"
    )
