"""Tests for the MSR/SNIA CSV trace loader."""

import gzip
from pathlib import Path

import numpy as np
import pytest

from repro.pcm.timing import ALL0, ALL1
from repro.sim.trace import trace_entries
from repro.traffic import (
    AddressWindow,
    TraceFileCorruptError,
    TraceFileMissingError,
    TraceFileTruncatedError,
    csv_info,
    csv_trace_chunks,
    iter_csv_records,
)

FIXTURE = Path(__file__).parent.parent / "data" / "msr_sample.csv"


def merge(chunks):
    las, datas = zip(*chunks)
    return np.concatenate(las), np.concatenate(datas)


class TestAddressWindow:
    def test_wrap_folds_modulo(self):
        window = AddressWindow(n_lines=8)
        out = window.apply(np.array([0, 7, 8, 17], dtype=np.int64))
        assert out.tolist() == [0, 7, 0, 1]

    def test_start_offsets_before_folding(self):
        window = AddressWindow(n_lines=8, start=4)
        assert window.apply(np.array([4, 5])).tolist() == [0, 1]

    def test_drop_discards_out_of_window(self):
        window = AddressWindow(n_lines=8, start=2, mode="drop")
        out = window.apply(np.array([0, 2, 9, 10], dtype=np.int64))
        assert out.tolist() == [0, 7]  # 0 (before start) and 10 dropped

    def test_clamp_pins_to_edges(self):
        window = AddressWindow(n_lines=8, start=2, mode="clamp")
        out = window.apply(np.array([0, 5, 100], dtype=np.int64))
        assert out.tolist() == [0, 3, 7]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="n_lines"):
            AddressWindow(n_lines=0)
        with pytest.raises(ValueError, match="mode"):
            AddressWindow(n_lines=8, mode="fold")


class TestParsing:
    def test_fixture_parses_fully(self):
        records = list(iter_csv_records(FIXTURE))
        assert len(records) == 30  # header row skipped
        assert sum(r.is_write for r in records) == 24
        first = records[0]
        assert (first.offset, first.size, first.host) == (0, 4096, "usr")

    def test_short_type_spellings_and_blank_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,h,0,W,0,64\n\n2,h,0,r,64,64\n3,h,0,WRITE,128,64\n")
        records = list(iter_csv_records(path))
        assert [r.is_write for r in records] == [True, False, True]

    def test_gzip_transparent_by_suffix_and_magic(self, tmp_path):
        blob = FIXTURE.read_bytes()
        by_suffix = tmp_path / "t.csv.gz"
        by_suffix.write_bytes(gzip.compress(blob))
        by_magic = tmp_path / "t.csv"  # gzip content, plain suffix
        by_magic.write_bytes(gzip.compress(blob))
        plain = list(iter_csv_records(FIXTURE))
        assert list(iter_csv_records(by_suffix)) == plain
        assert list(iter_csv_records(by_magic)) == plain

    def test_info_counts(self):
        n_records, n_writes, n_lines, max_la = csv_info(
            FIXTURE, line_bytes=64
        )
        assert (n_records, n_writes) == (30, 24)
        assert n_lines > n_writes  # multi-line ops expand
        assert max_la == 1073741824 // 64 + 4096 // 64 - 1


class TestErrorTaxonomy:
    def test_missing_file_raises_at_call(self, tmp_path):
        with pytest.raises(TraceFileMissingError, match="no such"):
            iter_csv_records(tmp_path / "nope.csv")

    def test_too_few_fields_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,h,0,W,0,64\n2,h,0,W\n")
        with pytest.raises(TraceFileCorruptError, match=r"bad\.csv:2"):
            list(iter_csv_records(path))

    def test_unknown_operation_type(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,h,0,Trim,0,64\n")
        with pytest.raises(TraceFileCorruptError, match="neither"):
            list(iter_csv_records(path))

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,h,0,W,zero,64\n")
        with pytest.raises(TraceFileCorruptError, match="non-numeric"):
            list(iter_csv_records(path))

    def test_negative_offset(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,h,0,W,-8,64\n")
        with pytest.raises(TraceFileCorruptError, match="negative"):
            list(iter_csv_records(path))

    def test_gz_suffix_with_plain_content(self, tmp_path):
        path = tmp_path / "fake.csv.gz"
        path.write_bytes(FIXTURE.read_bytes())
        with pytest.raises(TraceFileCorruptError, match="not gzip"):
            iter_csv_records(path)  # raises at the call, not first next()

    def test_truncated_gzip_stream(self, tmp_path):
        path = tmp_path / "cut.csv.gz"
        blob = gzip.compress(FIXTURE.read_bytes())
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TraceFileTruncatedError, match="ends early"):
            list(iter_csv_records(path))


class TestChunks:
    WINDOW = AddressWindow(n_lines=4096)

    def test_entries_are_the_unrolled_chunks(self):
        las, datas = merge(csv_trace_chunks(FIXTURE, window=self.WINDOW))
        entries = list(
            trace_entries(csv_trace_chunks(FIXTURE, window=self.WINDOW))
        )
        assert [e.la for e in entries] == las.tolist()
        assert [int(e.data) for e in entries] == datas.tolist()

    def test_chunks_are_exactly_batch_sized(self):
        chunks = list(
            csv_trace_chunks(FIXTURE, window=self.WINDOW, batch=512)
        )
        sizes = [c[0].size for c in chunks]
        assert all(s == 512 for s in sizes[:-1])
        assert 0 < sizes[-1] <= 512
        total = merge(csv_trace_chunks(FIXTURE, window=self.WINDOW))[0]
        assert sum(sizes) == total.size  # batch is a reshape, not a filter

    def test_addresses_inside_device(self):
        las, _ = merge(csv_trace_chunks(FIXTURE, window=self.WINDOW))
        assert las.min() >= 0 and las.max() < 4096

    def test_reads_skipped_unless_requested(self):
        both = merge(
            csv_trace_chunks(
                FIXTURE, window=self.WINDOW, include_reads=True
            )
        )[0]
        writes = merge(csv_trace_chunks(FIXTURE, window=self.WINDOW))[0]
        assert both.size > writes.size

    def test_giant_op_capped(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("1,h,0,W,0,1048576\n")  # 16384 lines at 64 B
        las, _ = merge(
            csv_trace_chunks(
                path, window=self.WINDOW, max_lines_per_op=100
            )
        )
        assert las.size == 100

    def test_data_class_configurable(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("1,h,0,W,0,64\n")
        _, datas = merge(
            csv_trace_chunks(path, window=self.WINDOW, data=ALL0)
        )
        assert datas.tolist() == [int(ALL0)]
        assert int(ALL0) != int(ALL1)

    def test_drop_window_can_empty_an_op(self, tmp_path):
        path = tmp_path / "far.csv"
        path.write_text("1,h,0,W,1048576,64\n2,h,0,W,0,64\n")
        window = AddressWindow(n_lines=16, mode="drop")
        las, _ = merge(csv_trace_chunks(path, window=window))
        assert las.tolist() == [0]
