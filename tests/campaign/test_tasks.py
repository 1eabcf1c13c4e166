"""Tests for the shipped campaign task kinds (trace/tenant lifetime)."""

from pathlib import Path

import numpy as np
import pytest

from repro.campaign.aggregate import aggregate, to_json
from repro.campaign.runner import RunnerConfig, run_collect
from repro.campaign.spec import CampaignSpec
from repro.campaign.tasks import (
    TaskError,
    get_task,
    run_tenant_lifetime_task,
    run_trace_lifetime_task,
    task_kinds,
)
from repro.pcm.array import PCMArray

DATA = Path(__file__).parent.parent / "data"


class TestTraceLifetimeTask:
    def test_registered(self):
        assert "trace-lifetime" in task_kinds()
        assert get_task("trace-lifetime") is run_trace_lifetime_task

    def test_engines_bit_identical(self):
        params = {
            "scheme": "rbsg",
            "trace": "uniform",
            "lines": 256,
            "endurance": 500,
            "max_writes": 500_000,
        }
        fast = run_trace_lifetime_task({**params, "fast": True}, seed=3)
        scalar = run_trace_lifetime_task({**params, "fast": False}, seed=3)
        assert fast["engine"] == "batched"
        assert scalar["engine"] == "scalar"
        fast.pop("engine")
        scalar.pop("engine")
        assert fast == scalar
        assert fast["failed"]

    def test_result_is_jsonable(self):
        import json

        result = run_trace_lifetime_task(
            {"scheme": "none", "trace": "raa", "lines": 64,
             "endurance": 100, "max_writes": 1000},
            seed=0,
        )
        round_tripped = json.loads(json.dumps(result))
        assert round_tripped["failed"] is True
        assert round_tripped["write_amplification"] == 1.0

    def test_memmap_dir_alone_backs_the_array(self, tmp_path, monkeypatch):
        """``memmap_dir`` needs no ``n_shards``: the array really is mapped
        and the document is the in-RAM one."""
        built = []
        init = PCMArray.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(PCMArray, "__init__", spy)
        params = {"scheme": "rbsg", "trace": "uniform", "lines": 256,
                  "endurance": 300, "fast_forward": "analytic"}
        mapped = run_trace_lifetime_task(
            {**params, "memmap_dir": str(tmp_path)}, seed=4
        )
        assert isinstance(built[0].wear, np.memmap)
        assert isinstance(built[0].data, np.memmap)
        assert mapped == run_trace_lifetime_task(params, seed=4)
        assert not isinstance(built[1].wear, np.memmap)

    def test_unknown_trace_kind_rejected(self):
        with pytest.raises(TaskError, match="unknown trace kind"):
            run_trace_lifetime_task(
                {"scheme": "none", "trace": "bogus"}, seed=0
            )

    def test_trace_parameter_required(self):
        with pytest.raises(TaskError, match="trace"):
            run_trace_lifetime_task({"scheme": "none"}, seed=0)


class TestTraceFileParameter:
    def test_rbt_file_drives_the_task(self):
        params = {
            "scheme": "security-rbsg",
            "trace_file": str(DATA / "msr_sample.rbt"),
            "lines": 4096,
            "endurance": 100,
        }
        fast = run_trace_lifetime_task({**params, "fast": True}, seed=0)
        scalar = run_trace_lifetime_task({**params, "fast": False}, seed=0)
        assert fast["user_writes"] == 5354
        fast.pop("engine")
        scalar.pop("engine")
        assert fast == scalar

    def test_csv_file_accepted_directly(self):
        result = run_trace_lifetime_task(
            {"scheme": "none",
             "trace_file": str(DATA / "msr_sample.csv"),
             "lines": 512, "endurance": 1e6},
            seed=0,
        )
        assert result["user_writes"] == 5354
        assert result["trace"] == "file"

    def test_missing_file_raises_loader_error(self):
        from repro.traffic import TraceFileMissingError

        with pytest.raises(TraceFileMissingError):
            run_trace_lifetime_task(
                {"scheme": "none", "trace_file": "/nope.rbt"}, seed=0
            )


class TestTenantLifetimeTask:
    def test_registered(self):
        assert "tenant-lifetime" in task_kinds()
        assert get_task("tenant-lifetime") is run_tenant_lifetime_task

    def test_engines_bit_identical(self):
        params = {
            "scheme": "security-rbsg",
            "tenants": 30,
            "lines": 256,
            "endurance": 200,
            "max_writes": 60_000,
            "churn_interval": 5000,
        }
        fast = run_tenant_lifetime_task({**params, "fast": True}, seed=4)
        scalar = run_tenant_lifetime_task({**params, "fast": False}, seed=4)
        assert fast["engine"] == "batched"
        assert scalar["engine"] == "scalar"
        fast.pop("engine")
        scalar.pop("engine")
        assert fast == scalar
        assert fast["tenants"] == 30
        assert fast["traffic"] == "mixed"

    def test_profile_file_builds_the_population(self, tmp_path):
        spec = tmp_path / "pop.toml"
        spec.write_text(
            "[traffic]\nname = \"custom\"\n\n"
            "[[group]]\ncount = 4\nkind = \"uniform\"\nwindow_lines = 16\n"
        )
        result = run_tenant_lifetime_task(
            {"scheme": "none", "profile": str(spec), "lines": 64,
             "endurance": 1e6, "max_writes": 2000},
            seed=0,
        )
        assert result["tenants"] == 4
        assert result["traffic"] == "custom"

    def test_seed_changes_the_population(self):
        params = {"scheme": "none", "tenants": 10, "lines": 128,
                  "endurance": 1e6, "max_writes": 5000}
        a = run_tenant_lifetime_task(params, seed=0)
        b = run_tenant_lifetime_task(params, seed=1)
        assert a["wear_gini"] != b["wear_gini"]

    def test_serial_and_parallel_campaigns_byte_identical(self):
        spec = CampaignSpec.create(
            "tenant-det", "tenant-lifetime", n_seeds=2,
            base={"lines": 128, "endurance": 300.0, "max_writes": 20_000,
                  "churn_interval": 4000},
            grid={"scheme": ["rbsg", "security-rbsg"],
                  "tenants": [8, 32]},
        )
        keys = spec.expand()
        serial = run_collect(keys, RunnerConfig(workers=1, retries=0))
        parallel = run_collect(keys, RunnerConfig(workers=2, retries=0))
        assert all(r.ok for r in serial)
        assert serial == parallel  # same records, bit for bit
        assert to_json(aggregate(serial)) == to_json(aggregate(parallel))
