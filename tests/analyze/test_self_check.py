"""The gate applied to this repo: ``repro analyze src`` stays clean.

This is the in-suite mirror of the CI ``analyze`` job — if it fails,
either new debt was introduced (fix it or waive it with a reasoned
``# ra:`` comment) or debt was paid down (shrink
``analysis/baseline.json``).
"""

from pathlib import Path

import pytest

from repro.analyze.baseline import load_baseline
from repro.analyze.engine import run_analysis

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def repo_cwd(monkeypatch):
    # Finding paths (and therefore baseline keys) are repo-relative;
    # run the scan from the root like CI does.
    monkeypatch.chdir(REPO_ROOT)


class TestSelfCheck:
    def test_src_clean_modulo_baseline(self, repo_cwd):
        report = run_analysis(["src"])
        assert report.parse_errors == []
        baseline = load_baseline(REPO_ROOT / "analysis" / "baseline.json")
        new, _stale = baseline.split(report.findings)
        assert new == [], "\n".join(f.render() for f in new)

    def test_baseline_has_no_stale_debt(self, repo_cwd):
        # The committed baseline must not carry entries that no longer
        # fire — debt only shrinks, and fixed debt leaves the file.
        report = run_analysis(["src"])
        baseline = load_baseline(REPO_ROOT / "analysis" / "baseline.json")
        _new, stale = baseline.split(report.findings)
        assert stale == []

    def test_scan_covers_the_package(self, repo_cwd):
        report = run_analysis(["src"])
        assert report.files_scanned > 50
        assert report.rules == (
            "RA02", "RA03", "RA04", "RA05", "RA06", "RA07", "RA08", "RA09",
        )
