"""Golden documents of the region-partitioned schemes' batched layers.

RBSG, Security RBSG, two-level SR and Multi-Way SR share one chunk split
and one round advance; Start-Gap and one-level SR are the single-region
engines under them.  Each document below was recorded with
``json.dumps(sort_keys=True)`` and is compared byte for byte:

* ``lifetime-ff`` on the analytic fast-forward tier (``round_wear_profile``
  / ``apply_round`` rounds followed by the chunk-exact end-of-life tail)
  for every scheme with a closed-form round under uniform, zipf and
  sequential traffic;
* ``trace-lifetime`` on the batched and the scalar engine for Multi-Way
  SR under every synthetic trace kind.
"""

import json
from pathlib import Path

import pytest

from repro.campaign.tasks import get_task

GOLDEN = Path(__file__).parent / "golden_region_scheme_documents.json"

FF_SCHEMES = (
    "start-gap", "rbsg", "sr", "multiway-sr", "two-level-sr",
    "security-rbsg",
)


def cases():
    """``(name, kind, params, seed)`` for every pinned document."""
    out = []
    for scheme in FF_SCHEMES:
        for trace in ("uniform", "sequential"):
            out.append((
                f"lifetime-ff/{scheme}/{trace}",
                "lifetime-ff",
                {"scheme": scheme, "trace": trace, "lines": 256,
                 "endurance": 3000, "fast_forward": "analytic"},
                7,
            ))
        out.append((
            f"lifetime-ff/{scheme}/zipf",
            "lifetime-ff",
            {"scheme": scheme, "trace": "zipf", "alpha": 0.6, "lines": 256,
             "endurance": 1500, "fast_forward": "analytic"},
            7,
        ))
    for trace in ("uniform", "zipf", "sequential", "raa"):
        for fast in (True, False):
            out.append((
                f"trace-lifetime/multiway-sr/{trace}/"
                f"{'fast' if fast else 'scalar'}",
                "trace-lifetime",
                {"scheme": "multiway-sr", "trace": trace, "lines": 128,
                 "endurance": 300, "fast": fast},
                5,
            ))
    return out


CASES = {name: rest for name, *rest in cases()}


def test_every_case_is_pinned():
    assert sorted(CASES) == sorted(json.loads(GOLDEN.read_text()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_document_matches_golden(name):
    kind, params, seed = CASES[name]
    expected = json.loads(GOLDEN.read_text())[name]
    assert json.dumps(get_task(kind)(params, seed), sort_keys=True) == expected
