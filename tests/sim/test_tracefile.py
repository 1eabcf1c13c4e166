"""Tests for trace persistence."""

import gzip
import json

import pytest

import numpy as np

from repro.pcm.timing import ALL0, ALL1, MIXED
from repro.sim.trace import TraceEntry, TraceSpec, trace_entries
from repro.sim.tracefile import (
    TraceFileCorruptError,
    TraceFileError,
    TraceFileMissingError,
    TraceFileTruncatedError,
    TraceFileVersionError,
    load_metadata,
    load_trace,
    save_trace,
    summarize_trace,
)


class TestRoundtrip:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "trace.npz"
        entries = [
            TraceEntry(3, ALL1),
            TraceEntry(7, ALL0),
            TraceEntry(3, MIXED),
        ]
        assert save_trace(path, entries) == 3
        loaded = list(load_trace(path))
        assert loaded == entries

    def test_generator_input(self, tmp_path):
        path = tmp_path / "zipf.npz"
        spec = TraceSpec("zipf", 64, n_writes=500, seed=0)
        count = save_trace(path, trace_entries(spec))
        assert count == 500
        assert len(list(load_trace(path))) == 500

    def test_metadata(self, tmp_path):
        path = tmp_path / "meta.npz"
        save_trace(path, [TraceEntry(0)], metadata={"workload": "raa"})
        meta = load_metadata(path)
        assert meta["workload"] == "raa"
        assert meta["format_version"] == "1"

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.npz"
        assert save_trace(path, []) == 0
        assert list(load_trace(path)) == []


class TestSummary:
    def test_statistics(self, tmp_path):
        path = tmp_path / "s.npz"
        entries = [TraceEntry(1, ALL1)] * 8 + [TraceEntry(2, ALL0)] * 2
        save_trace(path, entries)
        summary = summarize_trace(path)
        assert summary.n_writes == 10
        assert summary.n_distinct == 2
        assert summary.hottest_la == 1
        assert summary.hottest_share == pytest.approx(0.8)
        assert summary.write_class_counts == {"ALL1": 8, "ALL0": 2}

    def test_empty_summary(self, tmp_path):
        path = tmp_path / "e.npz"
        save_trace(path, [])
        summary = summarize_trace(path)
        assert summary.n_writes == 0
        assert summary.hottest_la == -1


class TestDamagedFiles:
    def _saved(self, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(path, [TraceEntry(1, ALL1), TraceEntry(2, ALL0)])
        return path

    def test_addresses_and_data_roundtrip_exactly(self, tmp_path):
        path = tmp_path / "exact.npz"
        entries = [
            TraceEntry(la, data)
            for la, data in zip((0, 5, 2**40, 5), (ALL0, ALL1, MIXED, ALL1))
        ]
        save_trace(path, entries)
        loaded = list(load_trace(path))
        assert [e.la for e in loaded] == [e.la for e in entries]
        assert [e.data for e in loaded] == [e.data for e in entries]

    def test_missing_file_raises_clear_error(self, tmp_path):
        missing = tmp_path / "nope.npz"
        with pytest.raises(TraceFileError, match="no such trace file"):
            load_trace(missing)

    def test_truncated_file_raises_at_call_time(self, tmp_path):
        path = self._saved(tmp_path)
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        with pytest.raises(TraceFileError, match="truncated or corrupt"):
            load_trace(path)  # raises here, not on first next()

    def test_truncated_file_summarize(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(TraceFileError, match=str(path.name)):
            summarize_trace(path)

    def test_not_a_zip_at_all(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(TraceFileError, match="truncated or corrupt"):
            load_trace(path)

    def test_wrong_archive_contents(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, unrelated=np.arange(4))
        with pytest.raises(TraceFileError, match="missing array"):
            load_trace(path)
        with pytest.raises(TraceFileError, match="missing array"):
            load_metadata(path)


class TestGzip:
    ENTRIES = [TraceEntry(3, ALL1), TraceEntry(7, ALL0)]

    def test_gz_suffix_roundtrip(self, tmp_path):
        path = tmp_path / "trace.npz.gz"
        assert save_trace(path, self.ENTRIES) == 2
        assert path.read_bytes()[:2] == b"\x1f\x8b"  # really gzipped
        assert list(load_trace(path)) == self.ENTRIES

    def test_load_detects_gzip_by_magic(self, tmp_path):
        plain = tmp_path / "t.npz"
        save_trace(plain, self.ENTRIES)
        disguised = tmp_path / "still.npz"  # gzip bytes, plain suffix
        disguised.write_bytes(gzip.compress(plain.read_bytes()))
        assert list(load_trace(disguised)) == self.ENTRIES

    def test_truncated_gzip_wrapper(self, tmp_path):
        path = tmp_path / "cut.npz.gz"
        save_trace(path, self.ENTRIES)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(TraceFileTruncatedError, match="ends early"):
            load_trace(path)


class TestErrorTaxonomy:
    """One failure mode per TraceFileError subclass."""

    def _saved(self, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(path, [TraceEntry(1, ALL1)])
        return path

    def test_missing_is_its_own_class(self, tmp_path):
        with pytest.raises(TraceFileMissingError):
            load_trace(tmp_path / "nope.npz")

    def test_truncated_is_its_own_class(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[:12])
        with pytest.raises(TraceFileTruncatedError):
            load_trace(path)

    def test_corrupt_is_its_own_class(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, unrelated=np.arange(4))
        with pytest.raises(TraceFileCorruptError):
            load_trace(path)

    def test_future_version_is_its_own_class(self, tmp_path):
        path = tmp_path / "future.npz"
        header = json.dumps({"format_version": "99"}).encode()
        np.savez(
            path,
            las=np.array([1], dtype=np.int64),
            data=np.array([int(ALL1)], dtype=np.int8),
            meta=np.frombuffer(header, dtype=np.uint8),
        )
        with pytest.raises(TraceFileVersionError, match="version 99"):
            load_trace(path)
        with pytest.raises(TraceFileVersionError):
            summarize_trace(path)

    def test_subclasses_share_the_base(self):
        for cls in (TraceFileMissingError, TraceFileTruncatedError,
                    TraceFileCorruptError, TraceFileVersionError):
            assert issubclass(cls, TraceFileError)
        assert issubclass(TraceFileError, ValueError)
