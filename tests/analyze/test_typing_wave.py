"""The gradual-typing wave: packaging marker, config, and (in CI) mypy.

The strict allowlist in ``mypy.ini`` is a ratchet like the analyzer
baseline: modules join it and never leave.  The config checks here are
stdlib-only; the actual mypy run is skipped when mypy is not installed
(locally) and executes in the CI ``analyze`` job.
"""

import configparser
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Modules the typing wave annotated; they must stay on the allowlist.
STRICT_MODULES = (
    "repro.formats.base",
    "repro.formats.registry",
    "repro.serve.registry",
    "repro.serve.residency",
    "repro.serve.jobs",
    "repro.serve.stats",
    "repro.io.serialize",
    "repro.core.multiply",
)


class TestPackagingMarker:
    def test_py_typed_shipped(self):
        assert (REPO_ROOT / "src" / "repro" / "py.typed").exists()

    def test_setup_packages_the_marker(self):
        text = (REPO_ROOT / "setup.py").read_text()
        assert "py.typed" in text


class TestMypyConfig:
    @pytest.fixture
    def config(self):
        parser = configparser.ConfigParser()
        parser.read(REPO_ROOT / "mypy.ini")
        return parser

    def test_default_is_permissive(self, config):
        assert config.getboolean("mypy-repro.*", "ignore_errors")

    def test_allowlist_modules_are_strict(self, config):
        for module in STRICT_MODULES:
            section = f"mypy-{module}"
            assert config.has_section(section), f"{module} missing"
            assert not config.getboolean(section, "ignore_errors")
            assert config.getboolean(section, "disallow_untyped_defs")
            assert config.getboolean(section, "disallow_incomplete_defs")


class TestMypyRun:
    def test_strict_allowlist_passes(self):
        pytest.importorskip("mypy")
        result = subprocess.run(
            [sys.executable, "-m", "mypy", "--config-file", "mypy.ini",
             "src/repro"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stdout + result.stderr
