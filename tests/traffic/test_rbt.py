"""Tests for the .rbt binary trace format."""

import json
import struct

import numpy as np
import pytest

from repro.pcm.timing import ALL0, ALL1, MIXED
from repro.sim.trace import TraceEntry, trace_entries
from repro.traffic import (
    TraceFileCorruptError,
    TraceFileMissingError,
    TraceFileTruncatedError,
    TraceFileVersionError,
    rbt_metadata,
    rbt_n_entries,
    read_rbt_chunks,
    write_rbt,
)


def chunk(las, data=ALL1):
    arr = np.asarray(las, dtype=np.int64)
    return arr, np.full(arr.size, int(data), dtype=np.int8)


def saved(tmp_path, name="t.rbt"):
    path = tmp_path / name
    write_rbt(path, [chunk([1, 2, 3]), chunk([4, 5], ALL0)])
    return path


def hand_written(tmp_path, header):
    """A file with a hand-crafted JSON header and no chunks."""
    path = tmp_path / "hand.rbt"
    raw = json.dumps(header).encode()
    path.write_bytes(
        b"RBT\x01" + struct.pack("<I", len(raw)) + raw
    )
    return path


class TestRoundtrip:
    def test_chunks_roundtrip_exactly(self, tmp_path):
        path = tmp_path / "t.rbt"
        written = [chunk([0, 5, 2**40]), chunk([7], MIXED)]
        assert write_rbt(path, written) == 4
        loaded = list(read_rbt_chunks(path))
        assert len(loaded) == 2
        for (wl, wd), (rl, rd) in zip(written, loaded):
            np.testing.assert_array_equal(wl, rl)
            np.testing.assert_array_equal(wd, rd)

    def test_entry_input_equals_chunk_input(self, tmp_path):
        a, b = tmp_path / "a.rbt", tmp_path / "b.rbt"
        write_rbt(a, [chunk([1, 2, 3, 4])])
        write_rbt(
            b, [TraceEntry(i, ALL1) for i in (1, 2, 3, 4)], batch=4
        )
        assert a.read_bytes() == b.read_bytes()

    def test_entries_reader_unrolls_chunks(self, tmp_path):
        path = saved(tmp_path)
        entries = list(trace_entries(read_rbt_chunks(path)))
        assert [e.la for e in entries] == [1, 2, 3, 4, 5]
        assert [e.data for e in entries] == [ALL1] * 3 + [ALL0] * 2

    def test_metadata_roundtrip(self, tmp_path):
        path = tmp_path / "m.rbt"
        write_rbt(path, [chunk([1])], metadata={"source": "unit"})
        header = rbt_metadata(path)
        assert header["meta"] == {"source": "unit"}
        assert header["n_entries"] == 1
        assert rbt_n_entries(path) == 1

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "e.rbt"
        assert write_rbt(path, []) == 0
        assert list(read_rbt_chunks(path)) == []
        assert rbt_n_entries(path) == 0

    def test_zero_copy_reads(self, tmp_path):
        # frombuffer over the read blob: a view, not a copy
        first_las = next(iter(read_rbt_chunks(saved(tmp_path))))[0]
        assert first_las.base is not None
        assert not first_las.flags.writeable


class TestErrorTaxonomy:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFileMissingError, match="no such"):
            read_rbt_chunks(tmp_path / "nope.rbt")
        with pytest.raises(TraceFileMissingError):
            rbt_metadata(tmp_path / "nope.rbt")

    def test_bad_magic(self, tmp_path):
        path = saved(tmp_path)
        path.write_bytes(b"XXX" + path.read_bytes()[3:])
        with pytest.raises(TraceFileCorruptError, match="bad magic"):
            read_rbt_chunks(path)

    def test_future_version(self, tmp_path):
        path = saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[3] = 2
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceFileVersionError, match="version 2"):
            read_rbt_chunks(path)

    def test_truncated_payload(self, tmp_path):
        path = saved(tmp_path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(TraceFileTruncatedError, match="chunk payload"):
            list(read_rbt_chunks(path))

    def test_partial_chunk_header(self, tmp_path):
        path = saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x01\x02")
        with pytest.raises(TraceFileTruncatedError, match="partial chunk"):
            list(read_rbt_chunks(path))

    def test_zero_length_chunk(self, tmp_path):
        path = saved(tmp_path)
        path.write_bytes(path.read_bytes() + struct.pack("<I", 0))
        with pytest.raises(TraceFileCorruptError, match="zero-length"):
            list(read_rbt_chunks(path))

    def test_count_mismatch(self, tmp_path):
        path = saved(tmp_path)
        extra = struct.pack("<I", 1) + (9).to_bytes(8, "little") + b"\x01"
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(TraceFileTruncatedError, match="declares 5"):
            list(read_rbt_chunks(path))

    def test_dead_writer_placeholder(self, tmp_path):
        path = hand_written(tmp_path, {
            "las_dtype": "<i8", "datas_dtype": "i1",
            "n_entries": "@" * 20, "meta": {},
        })
        with pytest.raises(TraceFileTruncatedError, match="died"):
            rbt_metadata(path)

    def test_foreign_dtype_rejected(self, tmp_path):
        path = hand_written(tmp_path, {
            "las_dtype": "<i4", "datas_dtype": "i1",
            "n_entries": "0", "meta": {},
        })
        with pytest.raises(TraceFileCorruptError, match="las_dtype"):
            rbt_metadata(path)

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "j.rbt"
        path.write_bytes(b"RBT\x01" + struct.pack("<I", 3) + b"{{{")
        with pytest.raises(TraceFileCorruptError, match="JSON header"):
            rbt_metadata(path)

    def test_header_runs_past_eof(self, tmp_path):
        path = tmp_path / "h.rbt"
        path.write_bytes(b"RBT\x01" + struct.pack("<I", 99) + b"{}")
        with pytest.raises(TraceFileTruncatedError, match="JSON header"):
            rbt_metadata(path)

    def test_errors_raise_at_call_not_first_next(self, tmp_path):
        path = saved(tmp_path)
        path.write_bytes(b"XXX" + path.read_bytes()[3:])
        with pytest.raises(TraceFileCorruptError):
            read_rbt_chunks(path)  # no next() needed
