"""Tests for synthetic traces (``TraceSpec``) and the granularity adapters."""

import itertools

import numpy as np
import pytest

from repro.pcm.timing import ALL0, ALL1
from repro.sim.trace import (
    TraceEntry,
    TraceSpec,
    trace_chunks,
    trace_entries,
)


def las_of(spec):
    """All addresses of a bounded spec, chunk by chunk."""
    return np.concatenate([las for las, _ in spec.chunks()]).tolist()


class TestRepeatedAddress:
    def test_fixed_address(self):
        entries = list(trace_entries(
            TraceSpec("raa", n_lines=8, n_writes=5, target=7)
        ))
        assert len(entries) == 5
        assert all(e.la == 7 for e in entries)
        assert all(e.data == ALL1 for e in entries)

    def test_infinite_stream(self):
        stream = trace_entries(TraceSpec("raa", n_lines=8, target=3))
        head = list(itertools.islice(stream, 100))
        assert len(head) == 100

    def test_custom_data(self):
        spec = TraceSpec("raa", n_lines=4, target=1, data=ALL0)
        entry = next(trace_entries(spec))
        assert entry.data == ALL0


class TestSequential:
    def test_wraps(self):
        spec = TraceSpec("sequential", n_lines=4, n_writes=10, batch=3)
        assert las_of(spec) == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]


class TestUniformRandom:
    def test_in_range_and_reproducible(self):
        a = las_of(TraceSpec("uniform", n_lines=32, n_writes=200, seed=1))
        b = las_of(TraceSpec("uniform", n_lines=32, n_writes=200, seed=1))
        assert a == b
        assert all(0 <= la < 32 for la in a)

    def test_covers_space(self):
        las = set(las_of(TraceSpec("uniform", 8, n_writes=500, seed=2)))
        assert las == set(range(8))

    def test_exact_count_across_batches(self):
        spec = TraceSpec("uniform", 8, n_writes=10000, seed=0, batch=64)
        assert len(list(trace_entries(spec))) == 10000


class TestZipf:
    def test_skew(self):
        las = las_of(TraceSpec("zipf", 64, n_writes=5000, alpha=1.5, seed=3))
        counts = np.bincount(las, minlength=64)
        # Rank 0 must dominate the tail.
        assert counts[0] > 5 * counts[32:].max()

    def test_lower_alpha_less_skewed(self):
        def top_share(alpha):
            las = las_of(
                TraceSpec("zipf", 64, n_writes=4000, alpha=alpha, seed=4)
            )
            counts = np.bincount(las, minlength=64)
            return counts[0] / counts.sum()

        assert top_share(0.5) < top_share(2.0)

    def test_alpha_validated(self):
        with pytest.raises(ValueError, match="alpha"):
            TraceSpec("zipf", 8, alpha=0.0)

    def test_exact_count(self):
        spec = TraceSpec("zipf", 16, n_writes=100, seed=0)
        assert len(list(trace_entries(spec))) == 100


class TestPlainIntAddresses:
    """Scalar streams must yield plain ``int`` la, never np.int64 —
    downstream code hashes and compares them against Python ints."""

    def test_all_generators_yield_python_ints(self):
        specs = [
            TraceSpec("raa", 8, n_writes=20, target=3),
            TraceSpec("sequential", 8, n_writes=20),
            TraceSpec("uniform", 8, n_writes=20, seed=0),
            TraceSpec("zipf", 8, n_writes=20, seed=0),
        ]
        for spec in specs:
            for entry in trace_entries(spec):
                assert type(entry.la) is int


class TestChunkedTwins:
    """A spec's scalar unrolling is exactly its chunk stream, so an
    experiment can switch engines without changing data."""

    def test_uniform_same_stream(self):
        scalar = [e.la for e in trace_entries(
            TraceSpec("uniform", 32, n_writes=1000, seed=5)
        )]
        assert scalar == las_of(TraceSpec("uniform", 32, 1000, seed=5))

    def test_zipf_same_stream(self):
        scalar = [e.la for e in trace_entries(
            TraceSpec("zipf", 32, n_writes=1000, alpha=1.4, seed=6)
        )]
        assert scalar == las_of(
            TraceSpec("zipf", 32, n_writes=1000, alpha=1.4, seed=6)
        )

    def test_batch_boundary_does_not_change_stream(self):
        # One RNG draw per chunk, but the draws concatenate to the same
        # stream whatever the chunk size.
        for kind in ("uniform", "zipf"):
            streams = [
                las_of(TraceSpec(kind, 5000, n_writes=20000, seed=7,
                                 batch=batch))
                for batch in (100, 4096, 8192)
            ]
            assert streams[0] == streams[1] == streams[2], kind

    def test_chunk_dtypes_and_sizes(self):
        chunks = list(
            TraceSpec("sequential", 16, n_writes=100, batch=33).chunks()
        )
        assert [las.size for las, _ in chunks] == [33, 33, 33, 1]
        for las, datas in chunks:
            assert las.dtype == np.int64
            assert datas.dtype == np.int8
            assert las.size == datas.size

    def test_repeated_address_chunks(self):
        spec = TraceSpec("raa", 16, n_writes=10, target=9, data=ALL0)
        las, datas = next(spec.chunks())
        assert (las == 9).all()
        assert (datas == int(ALL0)).all()


class TestTraceChunksAdapter:
    def test_roundtrip(self):
        entries = [TraceEntry(la, ALL1) for la in range(10)]
        chunks = list(trace_chunks(iter(entries), batch=4))
        assert [las.tolist() for las, _ in chunks] == [
            [0, 1, 2, 3], [4, 5, 6, 7], [8, 9],
        ]
        for _, datas in chunks:
            assert (datas == int(ALL1)).all()

    def test_empty(self):
        assert list(trace_chunks(iter(()))) == []

    def test_batch_validated(self):
        with pytest.raises(ValueError, match="batch"):
            next(trace_chunks(iter(()), batch=0))
        with pytest.raises(ValueError, match="batch"):
            TraceSpec("uniform", 8, n_writes=10, seed=0, batch=0)

    def test_spec_expands_to_its_chunks(self):
        chunks = list(trace_chunks(TraceSpec("sequential", 4, n_writes=6,
                                             batch=4)))
        assert [las.tolist() for las, _ in chunks] == [[0, 1, 2, 3], [0, 1]]

    def test_chunk_stream_passes_through(self):
        chunks = [(np.arange(3, dtype=np.int64), np.ones(3, dtype=np.int8))]
        assert list(trace_chunks(iter(chunks))) == chunks


class TestTraceEntriesAdapter:
    def test_unrolls_chunked_stream(self):
        spec = TraceSpec("sequential", 4, n_writes=6, batch=4)
        entries = list(trace_entries(spec.chunks()))
        assert [e.la for e in entries] == [0, 1, 2, 3, 0, 1]
        assert all(type(e.la) is int for e in entries)
        assert all(e.data == ALL1 for e in entries)

    def test_passes_entry_stream_through(self):
        source = [TraceEntry(1, ALL0), TraceEntry(2, ALL1)]
        assert list(trace_entries(iter(source))) == source

    def test_inverse_of_trace_chunks(self):
        source = [TraceEntry(la % 5, ALL0 if la % 2 else ALL1)
                  for la in range(17)]
        assert list(trace_entries(trace_chunks(iter(source), batch=4))) \
            == source

    def test_empty(self):
        assert list(trace_entries(iter(()))) == []
