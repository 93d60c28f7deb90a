"""Tests for the format registry itself and the ``repro.compress`` factory."""

import numpy as np
import pytest

import repro
from repro import formats
from repro.core.blocked import BlockedMatrix
from repro.core.gcm import VARIANTS
from repro.errors import MatrixFormatError, SerializationError
from repro.io.serialize import saves_matrix


class TestRegistry:
    def test_seven_plus_formats_registered(self):
        names = formats.available()
        assert len(names) >= 7
        for required in (
            "dense", "csr", "csr_iv", "csrv", "cla", "blocked", *VARIANTS
        ):
            assert required in names

    def test_get_unknown_format(self):
        with pytest.raises(MatrixFormatError, match="unknown format"):
            formats.get("bzip2")

    def test_compress_unknown_format(self):
        with pytest.raises(MatrixFormatError):
            repro.compress(np.eye(3), format="nope")

    def test_spec_for_unregistered_object(self):
        with pytest.raises(MatrixFormatError):
            formats.spec_for(np.eye(3))

    def test_by_kind_unknown_tag(self):
        with pytest.raises(SerializationError):
            formats.by_kind(200)

    def test_specs_carry_descriptions(self):
        for name in formats.available():
            spec = formats.get(name)
            assert spec.name == name
            assert spec.description


class TestCompressFactory:
    def test_variant_names_build_gcm(self, structured_matrix):
        for variant in VARIANTS:
            gm = repro.compress(structured_matrix, format=variant)
            assert gm.variant == variant
            assert np.allclose(gm.to_dense(), structured_matrix)

    def test_build_opts_forwarded(self, structured_matrix):
        bm = repro.compress(
            structured_matrix, format="blocked", variant="csrv", n_blocks=4
        )
        assert isinstance(bm, BlockedMatrix)
        assert bm.n_blocks == 4

    def test_auto_is_build_only(self, structured_matrix):
        am = repro.compress(structured_matrix, format="auto", n_blocks=2)
        assert isinstance(am, BlockedMatrix)
        assert formats.spec_for(am).name == "blocked"

    def test_legacy_entrypoints_agree_with_factory(self, structured_matrix):
        """The historical per-class builders are thin delegates."""
        from repro import CLAMatrix, CSRVMatrix, GrammarCompressedMatrix

        legacy = GrammarCompressedMatrix.compress(structured_matrix, variant="re_iv")
        factory = repro.compress(structured_matrix, format="re_iv")
        assert saves_matrix(legacy) == saves_matrix(factory)
        assert (
            CSRVMatrix.from_dense(structured_matrix)
            == repro.compress(structured_matrix, format="csrv")
        )
        legacy_cla = CLAMatrix.compress(structured_matrix)
        factory_cla = repro.compress(structured_matrix, format="cla")
        assert saves_matrix(legacy_cla) == saves_matrix(factory_cla)

    def test_new_format_is_picked_up_everywhere(self, structured_matrix):
        """Registering an eighth format makes it buildable by name."""

        class NegatedDense(repro.DenseMatrix):
            format_name = "negated_dense"

        spec = formats.FormatSpec(
            name="negated_dense",
            cls=NegatedDense,
            build=lambda source, **opts: NegatedDense(-np.asarray(source)),
            description="test-only: dense with flipped signs",
        )
        formats.register(spec)
        try:
            m = repro.compress(structured_matrix, format="negated_dense")
            assert np.allclose(m.to_dense(), -structured_matrix)
            assert "negated_dense" in formats.available()
            assert formats.spec_for(m).name == "negated_dense"
        finally:
            formats.registry._SPECS.pop("negated_dense", None)


class TestBenchFormats:
    def test_bench_iterates_registry_names(self, structured_matrix):
        from repro.bench import bench_formats

        entries = bench_formats(
            structured_matrix,
            names=["dense", "csrv", "re_32"],
            iterations=2,
        )
        assert [e.format for e in entries] == ["dense", "csrv", "re_32"]
        for entry in entries:
            assert entry.size_bytes > 0
            assert entry.result.iterations == 2

    def test_bench_blocked_wrapping(self, structured_matrix):
        from repro.bench import bench_formats

        entries = bench_formats(
            structured_matrix, names=["re_iv", "dense"], iterations=1, n_blocks=3
        )
        assert isinstance(entries[0].matrix, BlockedMatrix)
        assert entries[0].matrix.n_blocks == 3
        assert isinstance(entries[1].matrix, repro.DenseMatrix)
