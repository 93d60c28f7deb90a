"""Tests for the command-line interface."""

import sys

import numpy as np
import pytest

from repro.cli import main
from tests.conftest import make_structured


@pytest.fixture
def dense_file(tmp_path, rng):
    matrix = make_structured(rng, n=80, m=10)
    path = tmp_path / "m.npy"
    np.save(path, matrix)
    return path, matrix


class TestDatasets:
    def test_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("susy", "census", "mnist2m"):
            assert name in out


class TestCompressInfoDecompress:
    def test_roundtrip(self, dense_file, tmp_path, capsys):
        src, matrix = dense_file
        blob = tmp_path / "m.gcmx"
        out = tmp_path / "back.npy"
        assert main(["compress", str(src), str(blob), "--variant", "re_iv"]) == 0
        assert "% of dense" in capsys.readouterr().out
        assert main(["info", str(blob)]) == 0
        info = capsys.readouterr().out
        assert "re_iv" in info
        assert main(["decompress", str(blob), str(out)]) == 0
        assert np.array_equal(np.load(out), matrix)

    def test_blocked_compress(self, dense_file, tmp_path, capsys):
        src, matrix = dense_file
        blob = tmp_path / "m.gcmx"
        assert main(
            ["compress", str(src), str(blob), "--blocks", "4", "--variant", "auto"]
        ) == 0
        assert main(["info", str(blob)]) == 0
        assert "blocks  : 4" in capsys.readouterr().out

    def test_strategy_follows_the_format_registry(self, dense_file, tmp_path, capsys):
        src, matrix = dense_file
        blob = tmp_path / "m.gcmx"
        argv = ["compress", str(src), str(blob), "--strategy", "batch"]
        assert main(argv + ["--format", "csrv"]) == 1
        err = capsys.readouterr().err
        assert "requires a grammar format" in err and "sharded" in err
        assert main(argv + ["--format", "sharded"]) == 0
        assert main(["decompress", str(blob), str(tmp_path / "b.npy")]) == 0
        assert np.array_equal(np.load(tmp_path / "b.npy"), matrix)

    def test_reorder_pipeline(self, dense_file, tmp_path, capsys):
        src, matrix = dense_file
        blob = tmp_path / "m.gcmx"
        assert main(
            ["compress", str(src), str(blob), "--blocks", "2", "--reorder"]
        ) == 0
        assert "reordering winner" in capsys.readouterr().out
        assert main(["decompress", str(blob), str(tmp_path / "b.npy")]) == 0
        assert np.array_equal(np.load(tmp_path / "b.npy"), matrix)


class TestMultiply:
    def test_right(self, dense_file, tmp_path, capsys):
        src, matrix = dense_file
        blob = tmp_path / "m.gcmx"
        main(["compress", str(src), str(blob)])
        capsys.readouterr()
        x = np.ones(matrix.shape[1])
        xpath = tmp_path / "x.npy"
        np.save(xpath, x)
        out = tmp_path / "y.npy"
        assert main(["multiply", str(blob), str(xpath), "--output", str(out)]) == 0
        assert np.allclose(np.load(out), matrix @ x)

    def test_left(self, dense_file, tmp_path, capsys):
        src, matrix = dense_file
        blob = tmp_path / "m.gcmx"
        main(["compress", str(src), str(blob)])
        y = np.ones(matrix.shape[0])
        ypath = tmp_path / "y.npy"
        np.save(ypath, y)
        out = tmp_path / "x.npy"
        assert main(
            ["multiply", str(blob), str(ypath), "--left", "--output", str(out)]
        ) == 0
        assert np.allclose(np.load(out), y @ matrix)

    def test_print_to_stdout(self, dense_file, tmp_path, capsys):
        src, matrix = dense_file
        blob = tmp_path / "m.gcmx"
        main(["compress", str(src), str(blob)])
        xpath = tmp_path / "x.npy"
        np.save(xpath, np.ones(matrix.shape[1]))
        capsys.readouterr()
        assert main(["multiply", str(blob), str(xpath)]) == 0
        assert "[" in capsys.readouterr().out


class TestBench:
    def test_bench_runs(self, capsys):
        assert main(
            ["bench", "covtype", "--rows", "300", "--iterations", "2",
             "--blocks", "2", "--threads", "2"]
        ) == 0
        out = capsys.readouterr().out
        for variant in ("csrv", "re_32", "re_iv", "re_ans", "auto"):
            assert variant in out


class TestWorkers:
    def test_multiply_with_workers(self, dense_file, tmp_path, capsys):
        src, matrix = dense_file
        blob = tmp_path / "m.gcmx"
        main(["compress", str(src), str(blob), "--blocks", "4"])
        x = np.ones(matrix.shape[1])
        xpath = tmp_path / "x.npy"
        np.save(xpath, x)
        out = tmp_path / "y.npy"
        assert main(
            ["multiply", str(blob), str(xpath), "--workers", "2",
             "--output", str(out)]
        ) == 0
        assert np.allclose(np.load(out), matrix @ x)

    def test_multiply_workers_on_unblocked(self, dense_file, tmp_path, capsys):
        src, matrix = dense_file
        blob = tmp_path / "m.gcmx"
        main(["compress", str(src), str(blob)])
        xpath = tmp_path / "x.npy"
        np.save(xpath, np.ones(matrix.shape[1]))
        out = tmp_path / "y.npy"
        assert main(
            ["multiply", str(blob), str(xpath), "--workers", "3",
             "--output", str(out)]
        ) == 0
        assert np.allclose(np.load(out), matrix @ np.ones(matrix.shape[1]))

    def test_bench_with_workers(self, capsys):
        assert main(
            ["bench", "covtype", "--rows", "300", "--iterations", "2",
             "--blocks", "2", "--workers", "2"]
        ) == 0
        assert "2 executor workers" in capsys.readouterr().out


class TestServe:
    def test_empty_root_fails(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path)]) == 1
        assert "no .gcmx files" in capsys.readouterr().err

    def test_bad_job_workers_fails_cleanly(self, dense_file, tmp_path, capsys):
        src, _ = dense_file
        main(["compress", str(src), str(tmp_path / "m.gcmx")])
        capsys.readouterr()
        assert main(
            ["serve", str(tmp_path), "--port", "0", "--job-workers", "0"]
        ) == 1
        assert "job workers" in capsys.readouterr().err

    def test_missing_codec_fails_cleanly(
        self, dense_file, tmp_path, capsys, monkeypatch
    ):
        src, _ = dense_file
        main(["compress", str(src), str(tmp_path / "m.gcmx")])
        capsys.readouterr()
        monkeypatch.setitem(sys.modules, "orjson", None)  # import fails
        assert main(["serve", str(tmp_path), "--port", "0"]) == 1
        assert "needs orjson" in capsys.readouterr().err

    def test_serves_and_answers(self, dense_file, tmp_path, capsys):
        import json
        import urllib.request

        from repro.serve.registry import MatrixRegistry
        from repro.serve.server import MatrixServer

        src, matrix = dense_file
        main(["compress", str(src), str(tmp_path / "m.gcmx")])
        registry = MatrixRegistry(root=tmp_path)
        with MatrixServer(registry, port=0).start() as server:
            with urllib.request.urlopen(
                f"{server.url}/matrices", timeout=10
            ) as resp:
                body = json.loads(resp.read())
        assert body["matrices"][0]["name"] == "m"


class TestParser:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_dataset(self):
        with pytest.raises(SystemExit):
            main(["bench", "imagenet"])


class TestVersion:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_version_single_sourced_from_setup(self):
        import re
        from pathlib import Path

        import repro

        version_file = (
            Path(__file__).resolve().parent.parent
            / "src" / "repro" / "_version.py"
        )
        match = re.search(r'__version__\s*=\s*"([^"]+)"', version_file.read_text())
        assert match and match.group(1) == repro.__version__


class TestSolve:
    @pytest.fixture
    def square_file(self, tmp_path, rng):
        matrix = np.abs(make_structured(rng, n=24, m=24, density=0.5))
        src = tmp_path / "sq.npy"
        np.save(src, matrix)
        blob = tmp_path / "sq.gcmx"
        assert main(["compress", str(src), str(blob), "--format", "re_iv"]) == 0
        return blob, matrix

    def test_pagerank(self, square_file, tmp_path, capsys):
        blob, matrix = square_file
        capsys.readouterr()
        out = tmp_path / "rank.npy"
        assert main(
            ["solve", "pagerank", str(blob), "--tol", "1e-12",
             "--output", str(out)]
        ) == 0
        printed = capsys.readouterr().out
        assert "pagerank" in printed and "converged" in printed
        rank = np.load(out)
        assert rank.sum() == pytest.approx(1.0)

    def test_cg_with_rhs(self, square_file, tmp_path, capsys):
        blob, matrix = square_file
        b = np.ones(matrix.shape[0])
        bpath = tmp_path / "b.npy"
        np.save(bpath, b)
        out = tmp_path / "x.npy"
        assert main(
            ["solve", "cg", str(blob), "--ridge", "0.5", "--b", str(bpath),
             "--tol", "1e-14", "--output", str(out)]
        ) == 0
        expected = np.linalg.solve(
            matrix.T @ matrix + 0.5 * np.eye(matrix.shape[1]), matrix.T @ b
        )
        assert np.allclose(np.load(out), expected, atol=1e-6)

    def test_topk(self, square_file, capsys):
        blob, matrix = square_file
        capsys.readouterr()
        assert main(["solve", "topk", str(blob), "--k", "2"]) == 0
        assert "singular_values" in capsys.readouterr().out

    def test_solver_error_reported(self, dense_file, tmp_path, capsys):
        # pagerank on a non-square matrix: clean exit 1, typed message.
        src, _ = dense_file
        blob = tmp_path / "m.gcmx"
        main(["compress", str(src), str(blob)])
        capsys.readouterr()
        assert main(["solve", "pagerank", str(blob)]) == 1
        assert "square" in capsys.readouterr().err

    def test_unknown_algorithm_rejected_by_parser(self, square_file):
        blob, _ = square_file
        with pytest.raises(SystemExit):
            main(["solve", "frobnicate", str(blob)])


class TestStore:
    @pytest.fixture
    def store_root(self, dense_file, tmp_path):
        """A store built entirely through the CLI with --store."""
        src, matrix = dense_file
        root = tmp_path / "mstore"
        root.mkdir()
        assert (
            main(
                [
                    "compress",
                    str(src),
                    str(root / "plain.gcmx"),
                    "--variant",
                    "re_32",
                    "--store",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "shard",
                    str(src),
                    str(root / "wide.gcmx"),
                    "--shards",
                    "3",
                    "--store",
                ]
            )
            == 0
        )
        return root, matrix

    def test_compress_store_catalogs_output(self, store_root, capsys):
        root, _ = store_root
        from repro.store import MatrixStore

        store = MatrixStore(root, create=False)
        assert store.names() == ["plain", "wide"]
        assert store.get("plain").provenance["command"] == "compress"
        assert len(store.catalog.shards("wide")) == 3

    def test_compress_store_announces_catalog_row(
        self, dense_file, tmp_path, capsys
    ):
        src, _ = dense_file
        root = tmp_path / "s"
        root.mkdir()
        assert (
            main(["compress", str(src), str(root / "m.gcmx"), "--store"]) == 0
        )
        assert "cataloged 'm'" in capsys.readouterr().out

    def test_store_list(self, store_root, capsys):
        root, _ = store_root
        capsys.readouterr()
        assert main(["store", "list", str(root)]) == 0
        out = capsys.readouterr().out
        assert "plain" in out and "wide" in out
        assert "sharded" in out

    def test_store_init_and_reindex(self, store_root, capsys):
        root, _ = store_root
        (root / "catalog.sqlite").unlink()
        capsys.readouterr()
        assert main(["store", "init", str(root)]) == 0
        out = capsys.readouterr().out
        assert "initialised store" in out
        assert "added: plain, wide" in out
        (root / "plain.gcmx").unlink()
        assert main(["store", "reindex", str(root)]) == 0
        assert "removed: plain" in capsys.readouterr().out

    def test_store_reindex_reports_corrupt_with_exit_1(self, store_root, capsys):
        root, _ = store_root
        path = root / "plain.gcmx"
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])
        capsys.readouterr()
        assert main(["store", "reindex", str(root)]) == 1
        assert "corrupt: plain" in capsys.readouterr().out

    def test_store_actions_need_catalog(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["store", "list", str(empty)]) == 1
        assert "repro store init" in capsys.readouterr().err

    def test_verify_syncs_outcomes_into_catalog(self, store_root, capsys):
        root, _ = store_root
        capsys.readouterr()
        assert main(["verify", str(root)]) == 0
        from repro.store import MatrixStore

        store = MatrixStore(root, create=False)
        assert store.get("plain").integrity == "verified"
        assert all(
            r.integrity == "verified" for r in store.catalog.shards("wide")
        )

    def test_serve_store_answers_from_catalog(self, store_root, capsys):
        import json
        import urllib.request

        root, matrix = store_root
        from repro.serve.registry import MatrixRegistry
        from repro.serve.server import MatrixServer

        registry = MatrixRegistry(store=root, mmap=True)
        with MatrixServer(registry, workers=2, port=0).start() as server:
            with urllib.request.urlopen(f"{server.url}/stats", timeout=10) as r:
                stats = json.loads(r.read())
            assert stats["registry"]["catalog_registrations"] == 2
            assert stats["registry"]["header_reads"] == 0
            req = urllib.request.Request(
                f"{server.url}/multiply",
                data=json.dumps(
                    {"matrix": "wide", "vectors": [1.0] * matrix.shape[1]}
                ).encode(),
                method="POST",
            )
            with urllib.request.urlopen(req, timeout=10) as r:
                body = json.loads(r.read())
            assert np.allclose(body["result"][0], matrix @ np.ones(matrix.shape[1]))
