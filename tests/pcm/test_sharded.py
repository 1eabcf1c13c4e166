"""ShardedPCMArray: identity with the monolithic array, shard mechanics.

The sharded array promises *bit-identical observable behaviour* to a
monolithic :class:`~repro.pcm.array.PCMArray` — same wear, data, latency,
counters and failure attribution — for every engine tier, with the state
merely living in per-bank allocations (optionally memmap files).  These
tests drive both substrates with identical streams and diff everything.
"""

import numpy as np
import pytest

from repro.campaign.tasks import build_scheme
from repro.config import PCMConfig
from repro.pcm.array import LineFailure, PCMArray
from repro.pcm.sharded import ShardedPCMArray
from repro.pcm.sparing import SparesExhausted, SparingController
from repro.pcm.timing import ALL0, ALL1, MIXED
from repro.sim.engine import run_trace_fast
from repro.sim.trace import TraceSpec
from repro.sim.memory_system import MemoryController
from repro.util.rng import as_generator

N = 256  # odd shard counts below give deliberately unequal banks
E = 5000


def twin_arrays(n_shards, n_physical=N, endurance=E, memmap_dir=None,
                raise_on_failure=True):
    config = PCMConfig(n_lines=n_physical, endurance=endurance)
    mono = PCMArray(
        config, n_physical=n_physical, raise_on_failure=raise_on_failure
    )
    shard = ShardedPCMArray(
        config, n_physical=n_physical, raise_on_failure=raise_on_failure,
        n_shards=n_shards, memmap_dir=memmap_dir,
    )
    return mono, shard


def assert_twins(mono, shard):
    assert shard.n_physical == mono.n_physical
    assert shard.total_writes == mono.total_writes
    assert shard.elapsed_ns == mono.elapsed_ns
    assert shard.max_wear == mono.max_wear
    assert shard.failed == mono.failed
    assert np.array_equal(shard.wear, mono.wear)
    assert np.array_equal(shard.data, mono.data)


class TestScalarIdentity:
    @pytest.mark.parametrize("n_shards", [1, 3, 7])
    def test_random_op_stream(self, n_shards):
        """Random writes/copies/swaps/reads land identically."""
        mono, shard = twin_arrays(n_shards)
        gen = as_generator(4)
        datas = [ALL0, ALL1, MIXED]
        for _ in range(2000):
            op = int(gen.integers(0, 4))
            a = int(gen.integers(0, N))
            b = int(gen.integers(0, N))
            if op == 0:
                d = datas[int(gen.integers(0, 3))]
                assert shard.write(a, d) == mono.write(a, d)
            elif op == 1:
                assert shard.copy(a, b) == mono.copy(a, b)
            elif op == 2:
                assert shard.swap(a, b) == mono.swap(a, b)
            else:
                assert shard.read_with_latency(a) == mono.read_with_latency(a)
                assert shard.peek(a) == mono.peek(a)
        assert_twins(mono, shard)

    def test_failure_attribution(self):
        mono, shard = twin_arrays(4, endurance=50)
        failures = []
        for arr in (mono, shard):
            with pytest.raises(LineFailure) as exc:
                for _ in range(100):
                    arr.write(N - 1, ALL1)  # last bank's last line
            failures.append(exc.value)
        assert failures[0].pa == failures[1].pa == N - 1
        assert failures[0].wear == failures[1].wear
        assert failures[0].elapsed_ns == failures[1].elapsed_ns


class TestChunkIdentity:
    @pytest.mark.parametrize("n_shards", [2, 5])
    def test_write_many_with_duplicates(self, n_shards):
        mono, shard = twin_arrays(n_shards)
        gen = as_generator(8)
        for _ in range(20):
            pas = np.asarray(gen.integers(0, N, size=512), dtype=np.int64)
            datas = np.asarray(gen.integers(0, 3, size=512), dtype=np.int8)
            assert shard.write_many(pas, datas) == mono.write_many(pas, datas)
        assert_twins(mono, shard)

    def test_mid_chunk_failure_chunk_index(self):
        """Near-EOL chunks replay scalar with exact chunk_index, even when
        the failing line's neighbours live in other banks."""
        mono, shard = twin_arrays(3, endurance=100)
        pas = np.tile(np.arange(N, dtype=np.int64), 3)[: N * 2]
        datas = np.full(pas.size, int(ALL1), dtype=np.int8)
        exceptions = []
        for arr in (mono, shard):
            arr.bulk_wear(slice(0, N), 98, write_ns=0.0)
            with pytest.raises(LineFailure) as exc:
                arr.write_many(pas, datas)
            exceptions.append(exc.value)
        assert exceptions[0].chunk_index == exceptions[1].chunk_index
        assert exceptions[0].pa == exceptions[1].pa
        assert_twins(mono, shard)

    def test_differential_writes_chain(self):
        config = PCMConfig(n_lines=64, endurance=E, differential_writes=True)
        mono = PCMArray(config)
        shard = ShardedPCMArray(config, n_shards=3)
        gen = as_generator(2)
        for _ in range(10):
            pas = np.asarray(gen.integers(0, 64, size=256), dtype=np.int64)
            datas = np.asarray(gen.integers(0, 3, size=256), dtype=np.int8)
            assert shard.write_many(pas, datas) == mono.write_many(pas, datas)
        assert_twins(mono, shard)


class TestEngineIdentity:
    @pytest.mark.parametrize("scheme_name", ["rbsg", "security-rbsg"])
    def test_chunk_engine_runs_identically(self, scheme_name):
        results = []
        for n_shards in (None, 4):
            config = PCMConfig(n_lines=256, endurance=10**6)
            scheme = build_scheme(scheme_name, 256, 9, {})
            ctrl = MemoryController(scheme, config, n_shards=n_shards)
            spec = TraceSpec(kind="zipf", n_lines=256, n_writes=50_000, seed=9)
            results.append((run_trace_fast(ctrl, spec), ctrl))
        (r_mono, c_mono), (r_shard, c_shard) = results
        assert r_shard == r_mono
        assert np.array_equal(c_shard.array.wear, c_mono.array.wear)
        assert np.array_equal(c_shard.array.data, c_mono.array.data)

    def test_analytic_tier_on_sharded_memmap(self, tmp_path):
        """Fast-forward to failure on a memmap-backed sharded device."""
        config = PCMConfig(n_lines=1024, endurance=20_000)
        scheme = build_scheme("security-rbsg", 1024, 5, {})
        ctrl = MemoryController(
            scheme, config, n_shards=4, memmap_dir=str(tmp_path)
        )
        spec = TraceSpec(kind="uniform", n_lines=1024, n_writes=None, seed=5)
        result = run_trace_fast(ctrl, spec, fast_forward="analytic")
        assert result.failed
        assert ctrl.array.max_wear == 20_000
        assert list(tmp_path.glob("wear_0_*.dat"))
        assert list(tmp_path.glob("data_3_*.dat"))


class TestBulkOps:
    def test_apply_wear_bulk_all_or_nothing_across_banks(self):
        mono, shard = twin_arrays(4, endurance=100)
        safe = np.full(N, 50, dtype=np.int64)
        assert shard.apply_wear_bulk(safe, 123.0)
        assert mono.apply_wear_bulk(safe, 123.0)
        # One line in the *last* bank would cross: nothing anywhere moves.
        lethal = np.zeros(N, dtype=np.int64)
        lethal[0] = 10
        lethal[N - 1] = 50
        before = shard.wear.copy()
        assert not shard.apply_wear_bulk(lethal, 1.0)
        assert not mono.apply_wear_bulk(lethal, 1.0)
        assert np.array_equal(shard.wear, before)
        assert_twins(mono, shard)

    def test_apply_wear_bulk_validation(self):
        _, shard = twin_arrays(2)
        with pytest.raises(ValueError):
            shard.apply_wear_bulk(np.zeros(N - 1, dtype=np.int64), 0.0)
        with pytest.raises(ValueError):
            shard.apply_wear_bulk(np.full(N, -1, dtype=np.int64), 0.0)

    @pytest.mark.parametrize("pas", [slice(10, 200), 42,
                                     [5, 80, 150, 255, 80]])
    def test_bulk_wear_parity(self, pas):
        mono, shard = twin_arrays(3)
        mono.bulk_wear(pas, 7)
        shard.bulk_wear(pas, 7)
        assert_twins(mono, shard)

    def test_fill_data_prefix(self):
        mono, shard = twin_arrays(3)
        mono.fill_data(MIXED, 123)
        shard.fill_data(MIXED, 123)
        assert_twins(mono, shard)
        mono.fill_data(ALL1)
        shard.fill_data(ALL1)
        assert_twins(mono, shard)


class TestSpares:
    def test_add_lines_round_robin(self):
        _, shard = twin_arrays(4)
        base = shard.add_lines(10)
        assert base == N
        assert shard.n_physical == N + 10
        spans = shard.shard_spans()
        assert [s[2] for s in spans] == [3, 3, 2, 2]
        # Global spare PAs are addressable and independent.
        for j in range(10):
            shard.write(N + j, ALL1)
        wear = shard.wear
        assert np.array_equal(wear[N:], np.ones(10, dtype=np.int64))
        assert int(wear[:N].sum()) == 0

    def test_sparing_controller_end_to_end(self):
        """The sparing layer runs unchanged on a sharded substrate and
        reaches the same death-write count as on a monolithic one."""
        deaths = []
        for n_shards in (None, 3):
            config = PCMConfig(n_lines=64, endurance=2000)
            scheme = build_scheme("start-gap", 64, 1, {})
            sp = SparingController(
                scheme, config, n_spares=5, n_shards=n_shards
            )
            with pytest.raises(SparesExhausted) as exc:
                i = 0
                while True:
                    sp.write(i % 64, ALL1)
                    i += 1
            deaths.append((exc.value.failures, exc.value.total_writes))
        assert deaths[0] == deaths[1]

    def test_memmap_spares_grow(self, tmp_path):
        config = PCMConfig(n_lines=128, endurance=E)
        shard = ShardedPCMArray(
            config, n_shards=3, memmap_dir=str(tmp_path)
        )
        shard.write(127, ALL1)
        shard.add_lines(4)
        assert shard.n_physical == 132
        shard.write(131, MIXED)
        assert shard.peek(127) == ALL1
        assert shard.peek(131) == MIXED
        assert shard.wear[127] == 1 and shard.wear[131] == 1


class TestGuards:
    def test_rejects_fault_injection(self):
        config = PCMConfig(n_lines=64, endurance=E, read_disturb_ber=1e-3)
        assert config.fault_injection_enabled
        with pytest.raises(ValueError):
            ShardedPCMArray(config, n_shards=2)

    def test_controller_rejects_endurance_variation(self):
        config = PCMConfig(n_lines=64, endurance=E)
        scheme = build_scheme("none", 64, 0, {})
        with pytest.raises(ValueError):
            MemoryController(
                scheme, config, endurance_variation=0.1, n_shards=2
            )

    def test_properties_are_read_only(self):
        _, shard = twin_arrays(2)
        with pytest.raises(ValueError):
            shard.wear[0] = 1
        with pytest.raises(ValueError):
            shard.data[0] = 1

    def test_copy_data_is_the_mutation_path(self):
        _, shard = twin_arrays(2)
        shard.write(7, MIXED)
        shard.copy_data(7, 250)
        assert shard.peek(250) == MIXED
        # No wear, no time.
        assert shard.wear[250] == 0

    def test_bad_shard_count(self):
        config = PCMConfig(n_lines=64, endurance=E)
        with pytest.raises(ValueError):
            ShardedPCMArray(config, n_shards=0)
        with pytest.raises(ValueError):
            ShardedPCMArray(config, n_shards=65)

    def test_remaining_endurance(self):
        mono, shard = twin_arrays(3)
        mono.write(5, ALL1)
        shard.write(5, ALL1)
        assert np.array_equal(
            shard.remaining_endurance(), mono.remaining_endurance()
        )
