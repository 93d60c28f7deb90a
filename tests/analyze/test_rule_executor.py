"""RA06 — multiply entry points accept and forward executor=."""

from repro.analyze.rules_ast import check_executor_plumbing

from tests.analyze.conftest import make_source


class TestExecutorPlumbing:
    def test_override_missing_params_flagged(self):
        text = """
from repro.formats.base import MatrixFormat

class Fmt(MatrixFormat):
    def right_multiply(self, x):
        return compute(x)
"""
        findings = check_executor_plumbing(make_source(text))
        assert len(findings) == 1
        f = findings[0]
        assert f.rule == "RA06"
        assert f.scope == "Fmt.right_multiply"
        assert f.detail == "executor"

    def test_accepted_but_dropped_flagged(self):
        text = """
class Fmt(MatrixFormat):
    def right_multiply(self, x, executor=None):
        return compute(x)
"""
        findings = check_executor_plumbing(make_source(text))
        assert len(findings) == 1
        assert "never forwarded" in findings[0].message

    def test_forwarded_params_clean(self):
        text = """
class Fmt(MatrixFormat):
    def right_multiply(self, x, executor=None):
        return compute(x, executor=executor)
"""
        assert check_executor_plumbing(make_source(text)) == []

    def test_kwargs_splat_counts_as_forwarding(self):
        text = """
class Fmt(MatrixFormat):
    def right_multiply(self, x, **kwargs):
        return self._delegate.right_multiply(x, **kwargs)
"""
        assert check_executor_plumbing(make_source(text)) == []

    def test_kwargs_swallowed_flagged(self):
        text = """
class Fmt(MatrixFormat):
    def right_multiply(self, x, **kwargs):
        return compute(x)
"""
        assert len(check_executor_plumbing(make_source(text))) == 1

    def test_indirect_subclass_covered(self):
        text = """
class Base(MatrixFormat):
    pass

class Fmt(Base):
    def left_multiply(self, y):
        return compute(y)
"""
        findings = check_executor_plumbing(make_source(text))
        assert [f.scope for f in findings] == ["Fmt.left_multiply"]

    def test_unrelated_class_same_method_name_ignored(self):
        # BlockExecutor has right_multiply too — only MatrixFormat
        # subclasses are protocol implementations.
        text = """
class BlockExecutor:
    def right_multiply(self, matrix, x):
        return matrix.right_multiply(x)
"""
        assert check_executor_plumbing(make_source(text)) == []

    def test_module_level_batch_helper_checked(self):
        text = """
def batch_right_multiply(matrix, vectors):
    return matrix.right_multiply_matrix(vectors)
"""
        findings = check_executor_plumbing(make_source(text))
        assert [f.scope for f in findings] == ["batch_right_multiply"]

    def test_module_helper_with_plumbing_clean(self):
        text = """
def batch_right_multiply(matrix, vectors, executor=None):
    return matrix.right_multiply_matrix(vectors, executor=executor)
"""
        assert check_executor_plumbing(make_source(text)) == []

    def test_waiver_on_def_line_suppresses(self):
        text = """
def looped_right_multiply(matrix, vectors):  # ra: executor — serial baseline
    return loop(matrix, vectors)
"""
        assert check_executor_plumbing(make_source(text)) == []

    def test_non_multiply_names_ignored(self):
        text = """
def multiply_helper(matrix, vectors):
    return None

def right_rotate(x):
    return None
"""
        assert check_executor_plumbing(make_source(text)) == []
