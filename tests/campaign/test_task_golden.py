"""Golden result documents of the measured-lifetime task kinds.

Every document below was recorded with ``json.dumps(sort_keys=True)``
and is compared byte for byte, so any change to a task's trace stream,
engine routing, defaults or result keys shows up here.  The cases cover
``trace-lifetime`` (each synthetic kind, both engines, three schemes,
CSV and ``.rbt`` trace files), ``tenant-lifetime`` (the inline mixed
population and a profile file) and small ``lifetime-ff`` runs (analytic
and chunk-exact, with spares, shards and memmap banks).
"""

import json
from pathlib import Path

import pytest

from repro.campaign.tasks import get_task

DATA = Path(__file__).parent.parent / "data"
GOLDEN = Path(__file__).parent / "golden_task_documents.json"

PROFILE = """\
[traffic]
name = "custom"

[[group]]
count = 4
kind = "uniform"
window_lines = 16

[[group]]
count = 2
kind = "zipf"
alpha = 1.3
rate = 3.0
"""


def cases(profile, memmap_dir):
    """``(name, kind, params, seed)`` for every pinned document."""
    out = []
    for scheme in ("rbsg", "security-rbsg", "two-level-sr"):
        for trace in ("uniform", "zipf", "sequential", "raa"):
            for fast in (True, False):
                out.append((
                    f"trace-lifetime/{scheme}/{trace}/"
                    f"{'fast' if fast else 'scalar'}",
                    "trace-lifetime",
                    {"scheme": scheme, "trace": trace, "lines": 128,
                     "endurance": 300, "fast": fast},
                    5,
                ))
    for fast in (True, False):
        mode = "fast" if fast else "scalar"
        out.append((
            f"trace-lifetime/security-rbsg/zipf-budget/{mode}",
            "trace-lifetime",
            {"scheme": "security-rbsg", "trace": "zipf", "alpha": 0.9,
             "lines": 256, "endurance": 1e4, "max_writes": 20000,
             "interval": 8, "outer": 24, "stages": 5, "fast": fast},
            11,
        ))
        out.append((
            f"trace-lifetime/start-gap/raa-target/{mode}",
            "trace-lifetime",
            {"scheme": "start-gap", "trace": "raa", "target": 17,
             "lines": 64, "endurance": 200, "fast": fast},
            2,
        ))
        for suffix in ("csv", "rbt"):
            out.append((
                f"trace-lifetime/file-{suffix}/{mode}",
                "trace-lifetime",
                {"scheme": "security-rbsg",
                 "trace_file": str(DATA / f"msr_sample.{suffix}"),
                 "lines": 4096, "endurance": 100, "fast": fast},
                0,
            ))
        out.append((
            f"trace-lifetime/file-csv-window/{mode}",
            "trace-lifetime",
            {"scheme": "rbsg", "trace_file": str(DATA / "msr_sample.csv"),
             "lines": 1024, "endurance": 60, "window_start": 100,
             "window_mode": "clamp", "line_bytes": 128, "fast": fast},
            1,
        ))
        out.append((
            f"tenant-lifetime/mixed/{mode}",
            "tenant-lifetime",
            {"scheme": "security-rbsg", "tenants": 30, "lines": 256,
             "endurance": 200, "max_writes": 60000,
             "churn_interval": 5000, "fast": fast},
            4,
        ))
        out.append((
            f"tenant-lifetime/mixed-knobs/{mode}",
            "tenant-lifetime",
            {"scheme": "rbsg", "tenants": 12, "alpha": 1.4,
             "churn_interval": 3000, "churn_fraction": 0.1,
             "churn_boost": 4.0, "schedule_interval": 1000, "lines": 128,
             "endurance": 150, "max_writes": 40000, "fast": fast},
            9,
        ))
        out.append((
            f"tenant-lifetime/profile/{mode}",
            "tenant-lifetime",
            {"scheme": "two-level-sr", "profile": profile, "lines": 64,
             "endurance": 300, "max_writes": 30000, "fast": fast},
            3,
        ))
    out.append((
        "tenant-lifetime/default-population",
        "tenant-lifetime",
        {"scheme": "none", "lines": 256, "endurance": 1e6,
         "max_writes": 3000},
        1,
    ))
    out += [
        ("lifetime-ff/security-rbsg/analytic/spares", "lifetime-ff",
         {"scheme": "security-rbsg", "trace": "uniform", "lines": 1024,
          "endurance": 300, "fast_forward": "analytic", "spares": 8}, 3),
        ("lifetime-ff/security-rbsg/off/shards-spares", "lifetime-ff",
         {"scheme": "security-rbsg", "trace": "uniform", "lines": 1024,
          "endurance": 120, "fast_forward": "off", "n_shards": 4,
          "spares": 8}, 3),
        ("lifetime-ff/rbsg/analytic/shards-memmap", "lifetime-ff",
         {"scheme": "rbsg", "trace": "sequential", "lines": 1024,
          "endurance": 300, "fast_forward": "analytic", "n_shards": 4,
          "memmap_dir": memmap_dir}, 4),
        ("lifetime-ff/two-level-sr/auto/zipf", "lifetime-ff",
         {"scheme": "two-level-sr", "trace": "zipf", "alpha": 1.1,
          "lines": 512, "endurance": 200}, 6),
        ("lifetime-ff/start-gap/analytic/raa-budget", "lifetime-ff",
         {"scheme": "start-gap", "trace": "raa", "target": 3, "lines": 512,
          "endurance": 1e5, "fast_forward": "analytic",
          "max_writes": 50000}, 2),
        ("lifetime-ff/sr/analytic/uniform-budget", "lifetime-ff",
         {"scheme": "sr", "trace": "uniform", "lines": 512,
          "endurance": 1e5, "fast_forward": "analytic",
          "max_writes": 3000000}, 8),
    ]
    return out


CASE_NAMES = [name for name, _, _, _ in cases("", "")]


def test_every_case_is_pinned():
    assert sorted(CASE_NAMES) == sorted(json.loads(GOLDEN.read_text()))


@pytest.mark.parametrize("name", CASE_NAMES)
def test_document_matches_golden(name, tmp_path):
    profile = tmp_path / "pop.toml"
    profile.write_text(PROFILE)
    by_name = {
        case[0]: case[1:]
        for case in cases(str(profile), str(tmp_path / "mm"))
    }
    kind, params, seed = by_name[name]
    expected = json.loads(GOLDEN.read_text())[name]
    assert json.dumps(get_task(kind)(params, seed), sort_keys=True) == expected
