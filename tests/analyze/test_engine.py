"""File collection, rule selection, and whole-run behaviour on fixtures."""

import pytest

from repro.analyze.engine import (
    ALL_RULES,
    collect_files,
    resolve_rules,
    run_analysis,
)
from repro.errors import ReproError

BAD_LOCK = """import threading


class Guarded:
    def __init__(self):
        self._lock = threading.Lock()
        self._state = 0

    def bump(self):
        self._state += 1
"""

BAD_EXCEPT = """def handler():
    try:
        work()
    except Exception:
        return None
"""


class TestResolveRules:
    def test_default_is_all(self):
        assert resolve_rules() == ALL_RULES

    def test_select_filters(self):
        assert resolve_rules(select=["RA03", "RA05"]) == ("RA03", "RA05")

    def test_select_is_case_insensitive(self):
        assert resolve_rules(select=["ra04"]) == ("RA04",)

    def test_disable_drops(self):
        rules = resolve_rules(disable=["RA02"])
        assert rules == ("RA03", "RA04", "RA05", "RA06", "RA07", "RA08", "RA09")

    def test_unknown_rule_raises(self):
        with pytest.raises(ReproError, match="unknown rule"):
            resolve_rules(select=["RA99"])
        with pytest.raises(ReproError, match="unknown rule"):
            resolve_rules(disable=["bogus"])


class TestCollectFiles:
    def test_walks_directories_sorted_and_deduped(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "a.py").write_text("y = 2\n")
        (tmp_path / "notes.txt").write_text("not python\n")
        files = collect_files([str(tmp_path), str(tmp_path / "b.py")])
        assert [f.name for f in files] == ["b.py", "a.py"]

    def test_skips_cache_dirs(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "stale.py").write_text("x = 1\n")
        assert collect_files([str(tmp_path)]) == []

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(ReproError, match="no such file"):
            collect_files([str(tmp_path / "gone")])


class TestRunAnalysis:
    def test_findings_on_seeded_fixtures(self, tmp_path):
        (tmp_path / "locky.py").write_text(BAD_LOCK)
        (tmp_path / "catchy.py").write_text(BAD_EXCEPT)
        report = run_analysis([str(tmp_path)])
        rules = sorted({f.rule for f in report.findings})
        assert rules == ["RA03", "RA04"]
        assert report.files_scanned == 2

    def test_registry_rules_skipped_off_package(self, tmp_path):
        # Scanning fixture snippets must not drag in live-registry
        # findings about the installed package.
        (tmp_path / "ok.py").write_text("x = 1\n")
        report = run_analysis([str(tmp_path)], select=["RA02"])
        assert report.findings == []

    def test_disable_suppresses_rule(self, tmp_path):
        (tmp_path / "locky.py").write_text(BAD_LOCK)
        report = run_analysis([str(tmp_path)], disable=["RA03"])
        assert report.findings == []

    def test_parse_error_reported_not_raised(self, tmp_path):
        (tmp_path / "broken.py").write_text("def oops(:\n")
        report = run_analysis([str(tmp_path)])
        assert len(report.parse_errors) == 1
        assert report.files_scanned == 0

    def test_findings_sorted(self, tmp_path):
        (tmp_path / "b.py").write_text(BAD_EXCEPT)
        (tmp_path / "a.py").write_text(BAD_EXCEPT)
        report = run_analysis([str(tmp_path)])
        paths = [f.path for f in report.findings]
        assert paths == sorted(paths)
