"""Memmap-backed PCMArray: identity with the in-RAM array, file handling.

``PCMArray(memmap_dir=...)`` promises *bit-identical observable
behaviour* to the default in-RAM array — same wear, data, latency,
counters and failure attribution — for every engine tier, with the
per-line wear and data merely living in ``np.memmap`` files.  These
tests drive both backings with identical streams and diff everything.
"""

import os

import numpy as np
import pytest

from repro.campaign.tasks import build_scheme
from repro.config import PCMConfig
from repro.pcm.array import LineFailure, PCMArray
from repro.pcm.timing import ALL0, ALL1, MIXED
from repro.sim.engine import run_trace_fast
from repro.sim.trace import TraceSpec
from repro.sim.memory_system import MemoryController
from repro.util.rng import as_generator

N = 256
E = 5000


@pytest.fixture
def twins(tmp_path):
    """``make(**kw)`` -> an in-RAM array and its memmap-backed twin."""

    def make(n_physical=N, endurance=E, raise_on_failure=True, **config):
        # The logical space is a power of two; the physical one may be
        # larger and of any length (gap lines, spares).
        n_lines = 1 << (n_physical.bit_length() - 1)
        cfg = PCMConfig(n_lines=n_lines, endurance=endurance, **config)
        ram = PCMArray(cfg, n_physical=n_physical,
                       raise_on_failure=raise_on_failure)
        mapped = PCMArray(cfg, n_physical=n_physical,
                          raise_on_failure=raise_on_failure,
                          memmap_dir=str(tmp_path))
        assert isinstance(mapped.wear, np.memmap)
        assert isinstance(mapped.data, np.memmap)
        return ram, mapped

    return make


def assert_twins(ram, mapped):
    assert mapped.n_physical == ram.n_physical
    assert mapped.total_writes == ram.total_writes
    assert mapped.elapsed_ns == ram.elapsed_ns
    assert mapped.max_wear == ram.max_wear
    assert mapped.failed == ram.failed
    assert np.array_equal(mapped.wear, ram.wear)
    assert np.array_equal(mapped.data, ram.data)


class TestScalarIdentity:
    @pytest.mark.parametrize("n_physical", [N, 7, 1001])
    def test_random_op_stream(self, twins, n_physical):
        """Random writes/copies/swaps/reads land identically, including on
        maps far smaller than a page and of odd length."""
        ram, mapped = twins(n_physical=n_physical)
        gen = as_generator(4)
        datas = [ALL0, ALL1, MIXED]
        for _ in range(2000):
            op = int(gen.integers(0, 4))
            a = int(gen.integers(0, n_physical))
            b = int(gen.integers(0, n_physical))
            if op == 0:
                d = datas[int(gen.integers(0, 3))]
                assert mapped.write(a, d) == ram.write(a, d)
            elif op == 1:
                assert mapped.copy(a, b) == ram.copy(a, b)
            elif op == 2:
                assert mapped.swap(a, b) == ram.swap(a, b)
            else:
                assert mapped.read_with_latency(a) == ram.read_with_latency(a)
                assert mapped.peek(a) == ram.peek(a)
        assert_twins(ram, mapped)

    def test_failure_attribution(self, twins):
        ram, mapped = twins(endurance=50)
        failures = []
        for arr in (ram, mapped):
            with pytest.raises(LineFailure) as exc:
                for _ in range(100):
                    arr.write(N - 1, ALL1)
            failures.append(exc.value)
        assert failures[0].pa == failures[1].pa == N - 1
        assert failures[0].wear == failures[1].wear
        assert failures[0].elapsed_ns == failures[1].elapsed_ns


class TestChunkIdentity:
    @pytest.mark.parametrize("n_physical", [N, 33])
    def test_write_many_with_duplicates(self, twins, n_physical):
        ram, mapped = twins(n_physical=n_physical)
        gen = as_generator(8)
        for _ in range(20):
            pas = np.asarray(gen.integers(0, n_physical, size=512),
                             dtype=np.int64)
            datas = np.asarray(gen.integers(0, 3, size=512), dtype=np.int8)
            assert mapped.write_many(pas, datas) == ram.write_many(pas, datas)
        assert_twins(ram, mapped)

    def test_mid_chunk_failure_chunk_index(self, twins):
        """Near-EOL chunks replay scalar with the same chunk_index."""
        ram, mapped = twins(endurance=100)
        pas = np.tile(np.arange(N, dtype=np.int64), 3)[: N * 2]
        datas = np.full(pas.size, int(ALL1), dtype=np.int8)
        exceptions = []
        for arr in (ram, mapped):
            arr.bulk_wear(slice(0, N), 98, write_ns=0.0)
            with pytest.raises(LineFailure) as exc:
                arr.write_many(pas, datas)
            exceptions.append(exc.value)
        assert exceptions[0].chunk_index == exceptions[1].chunk_index
        assert exceptions[0].pa == exceptions[1].pa
        assert_twins(ram, mapped)

    def test_differential_writes_chain(self, twins):
        ram, mapped = twins(n_physical=64, differential_writes=True)
        gen = as_generator(2)
        for _ in range(10):
            pas = np.asarray(gen.integers(0, 64, size=256), dtype=np.int64)
            datas = np.asarray(gen.integers(0, 3, size=256), dtype=np.int8)
            assert mapped.write_many(pas, datas) == ram.write_many(pas, datas)
        assert_twins(ram, mapped)


class TestEngineIdentity:
    @pytest.mark.parametrize("scheme_name", ["rbsg", "security-rbsg"])
    def test_chunk_engine_runs_identically(self, scheme_name, tmp_path):
        results = []
        for memmap_dir in (None, str(tmp_path)):
            config = PCMConfig(n_lines=256, endurance=10**6)
            scheme = build_scheme(scheme_name, 256, 9, {})
            ctrl = MemoryController(scheme, config, memmap_dir=memmap_dir)
            spec = TraceSpec(kind="zipf", n_lines=256, n_writes=50_000, seed=9)
            results.append((run_trace_fast(ctrl, spec), ctrl))
        (r_ram, c_ram), (r_mapped, c_mapped) = results
        assert isinstance(c_mapped.array.wear, np.memmap)
        assert r_mapped == r_ram
        assert np.array_equal(c_mapped.array.wear, c_ram.array.wear)
        assert np.array_equal(c_mapped.array.data, c_ram.array.data)

    def test_analytic_tier_on_memmap(self, tmp_path):
        """Fast-forward to failure on a memmap-backed device."""
        results = []
        for memmap_dir in (None, str(tmp_path)):
            config = PCMConfig(n_lines=1024, endurance=20_000)
            scheme = build_scheme("security-rbsg", 1024, 5, {})
            ctrl = MemoryController(scheme, config, memmap_dir=memmap_dir)
            spec = TraceSpec(kind="uniform", n_lines=1024, n_writes=None,
                             seed=5)
            results.append((run_trace_fast(ctrl, spec, fast_forward="analytic"),
                            ctrl))
        (r_ram, c_ram), (r_mapped, c_mapped) = results
        assert r_mapped.failed
        assert c_mapped.array.max_wear == 20_000
        assert r_mapped == r_ram
        assert np.array_equal(c_mapped.array.wear, c_ram.array.wear)


class TestBulkOps:
    def test_apply_wear_bulk_all_or_nothing(self, twins):
        ram, mapped = twins(endurance=100)
        safe = np.full(N, 50, dtype=np.int64)
        assert mapped.apply_wear_bulk(safe, 123.0)
        assert ram.apply_wear_bulk(safe, 123.0)
        # One line near the end would cross: nothing anywhere moves.
        lethal = np.zeros(N, dtype=np.int64)
        lethal[0] = 10
        lethal[N - 1] = 50
        before = np.array(mapped.wear)
        assert not mapped.apply_wear_bulk(lethal, 1.0)
        assert not ram.apply_wear_bulk(lethal, 1.0)
        assert np.array_equal(mapped.wear, before)
        assert_twins(ram, mapped)

    def test_apply_wear_bulk_validation(self, twins):
        _, mapped = twins()
        with pytest.raises(ValueError):
            mapped.apply_wear_bulk(np.zeros(N - 1, dtype=np.int64), 0.0)
        with pytest.raises(ValueError):
            mapped.apply_wear_bulk(np.full(N, -1, dtype=np.int64), 0.0)

    @pytest.mark.parametrize("pas", [slice(10, 200), 42,
                                     [5, 80, 150, 255, 80]])
    def test_bulk_wear_parity(self, twins, pas):
        ram, mapped = twins()
        ram.bulk_wear(pas, 7)
        mapped.bulk_wear(pas, 7)
        assert_twins(ram, mapped)

    def test_fill_data_prefix(self, twins):
        ram, mapped = twins()
        ram.fill_data(MIXED, 123)
        mapped.fill_data(MIXED, 123)
        assert_twins(ram, mapped)
        ram.fill_data(ALL1)
        mapped.fill_data(ALL1)
        assert_twins(ram, mapped)

    def test_remaining_endurance(self, twins):
        ram, mapped = twins()
        ram.write(5, ALL1)
        mapped.write(5, ALL1)
        assert np.array_equal(
            mapped.remaining_endurance(), ram.remaining_endurance()
        )


class TestSpares:
    def test_memmap_spares_grow(self, twins):
        ram, mapped = twins(n_physical=128)
        for arr in (ram, mapped):
            arr.write(127, ALL1)
            assert arr.add_lines(4) == 128
            assert arr.n_physical == 132
            arr.write(131, MIXED)
        assert isinstance(mapped.wear, np.memmap)
        assert mapped.peek(127) == ALL1
        assert mapped.peek(131) == MIXED
        assert mapped.wear[127] == 1 and mapped.wear[131] == 1
        assert_twins(ram, mapped)


class TestPerLineStateStaysInRam:
    def test_variation_and_faults_on_memmap(self, tmp_path):
        """Endurance maps and stuck cells work unchanged beside memmaps."""
        config = PCMConfig(n_lines=64, endurance=400, read_disturb_ber=1e-3,
                           verify_fail_base=0.05)
        arrays = [
            PCMArray(config, endurance_variation=0.1, rng=3, fault_rng=4,
                     raise_on_failure=False, memmap_dir=memmap_dir)
            for memmap_dir in (None, str(tmp_path))
        ]
        gen = as_generator(1)
        pas = gen.integers(0, 64, size=5000)
        for arr in arrays:
            for pa in pas:
                arr.write(int(pa), ALL1)
                arr.read(int(pa))
            arr.add_lines(3)
        ram, mapped = arrays
        assert_twins(ram, mapped)
        assert isinstance(mapped.wear, np.memmap)
        assert not isinstance(mapped.stuck_bits, np.memmap)
        assert np.array_equal(mapped.stuck_bits, ram.stuck_bits)
        assert np.array_equal(mapped.endurance_map, ram.endurance_map)
        assert mapped.retry_events == ram.retry_events > 0

    def test_controller_with_variation_on_memmap(self, tmp_path):
        """MemoryController forwards memmap_dir beside endurance variation
        and reaches the same first failure as on an in-RAM device."""
        results = []
        for memmap_dir in (None, str(tmp_path)):
            config = PCMConfig(n_lines=128, endurance=3000)
            scheme = build_scheme("rbsg", 128, 2, {})
            ctrl = MemoryController(scheme, config, endurance_variation=0.1,
                                    rng=6, memmap_dir=memmap_dir)
            spec = TraceSpec(kind="zipf", n_lines=128, n_writes=None, seed=2)
            results.append((run_trace_fast(ctrl, spec), ctrl))
        (r_ram, c_ram), (r_mapped, c_mapped) = results
        assert isinstance(c_mapped.array.wear, np.memmap)
        assert r_mapped.failed
        assert r_mapped == r_ram
        assert np.array_equal(c_mapped.array.endurance_map,
                              c_ram.array.endurance_map)
        assert np.array_equal(c_mapped.array.wear, c_ram.array.wear)


class TestBackingFiles:
    def test_default_backing_is_plain_ram(self, tmp_path):
        """Without memmap_dir the arrays are ordinary ndarrays, allocated
        as before; with it, the dtypes and initial contents match."""
        config = PCMConfig(n_lines=64, endurance=1000)
        ram = PCMArray(config, initial_data=MIXED)
        mapped = PCMArray(config, initial_data=MIXED,
                          memmap_dir=str(tmp_path))
        assert type(ram.wear) is np.ndarray
        assert type(ram.data) is np.ndarray
        assert mapped.wear.dtype == ram.wear.dtype == np.int64
        assert mapped.data.dtype == ram.data.dtype == np.int8
        assert_twins(ram, mapped)
        assert os.listdir(tmp_path) == []

    def test_arrays_sharing_a_dir_stay_independent(self, tmp_path):
        config = PCMConfig(n_lines=64, endurance=1000)
        first = PCMArray(config, memmap_dir=str(tmp_path))
        for _ in range(5):
            first.write(3, ALL1)
        second = PCMArray(config, memmap_dir=str(tmp_path))
        assert first.max_wear == 5
        assert second.max_wear == 0
        for _ in range(7):
            second.write(9, MIXED)
        assert first.max_wear == 5 and first.peek(9) == ALL0
        assert second.max_wear == 7 and second.peek(3) == ALL0

    def test_growing_spares_leaves_no_stale_file(self, tmp_path):
        config = PCMConfig(n_lines=64, endurance=1000)
        arr = PCMArray(config, memmap_dir=str(tmp_path / "maps"))
        arr.add_lines(4)
        arr.add_lines(2)
        assert arr.n_physical == 70
        assert os.listdir(tmp_path / "maps") == []
