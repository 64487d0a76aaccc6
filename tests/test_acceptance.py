"""Acceptance: the verification battery up to n = 6, one test per check family.

The battery runs once per session.  Every entry of a family must pass and
must equal that family's entries in the golden ``verify-all --max-n 6``
report, so a changed parameter range, detail text or evidence value shows
up as a failure here.  The largest battery the caps admit, ``--max-n 7
--eigen-cap 120``, must equal its golden entry for entry.
"""

import dataclasses
import json
import time
from pathlib import Path

import pytest

from fjgraphs import CapExceeded, FlagGraphSpec, diameter, verify
from fjgraphs.verify import battery

GOLDEN = json.loads((Path(__file__).parent / "data" / "verify_all_max_n_6.json").read_text(encoding="utf-8"))

# the 16 check families, in report order
FAMILIES = list(dict.fromkeys(c["name"] for c in GOLDEN["checks"]))


@pytest.fixture(scope="session")
def battery_to_6_timed():
    started = time.perf_counter()
    checks = battery(6)
    return checks, time.perf_counter() - started


def test_battery_to_6_order_and_runtime(battery_to_6_timed):
    checks, elapsed = battery_to_6_timed
    assert elapsed < 30.0
    assert [c["name"] for c in checks] == [c["name"] for c in GOLDEN["checks"]]


@pytest.mark.parametrize("family", FAMILIES)
def test_battery_family(battery_to_6_timed, family):
    checks, _ = battery_to_6_timed
    got = [c for c in checks if c["name"] == family]
    assert [c for c in got if not c["passed"]] == []
    assert got == [c for c in GOLDEN["checks"] if c["name"] == family]


def test_battery_stops_spectra_at_the_eigen_cap(battery_to_6_timed):
    # order 6! = 720 is over 120: only the n = 6 spectrum entries go
    checks, _ = battery_to_6_timed
    dropped = [c for c in checks if c["name"] in ("spectrum-subset", "conjecture-second-largest") and c["params"]["n"] == 6]
    assert len(dropped) == 2
    assert battery(6, eigen_cap=120) == [c for c in checks if c not in dropped]


def test_largest_admitted_battery_matches_its_golden():
    # the n = 7 entries: the edge oracle, the block checks of base 6, and the
    # regularity and intertwining checks that read the 5040 x 5040 slot
    golden = json.loads((Path(__file__).parent / "data" / "verify_all_max_n_7_eigen_cap_120.json").read_text(encoding="utf-8"))
    assert battery(7, eigen_cap=120) == golden["checks"]


def test_criterion_02_top_k_diameter_is_two():
    # n = 3..6 are also the battery's diameter-top family; FJ(7,6) is past it
    started = time.perf_counter()
    got = [diameter(FlagGraphSpec(n, n - 1)) for n in range(3, 8)]
    assert got == [2, 2, 2, 2, 2]
    assert time.perf_counter() - started < 60.0


def _no_search(*args, **kwargs):
    raise AssertionError("a check ran before the argument guards")


@pytest.mark.parametrize(
    "max_n, error",
    [(-2, ValueError), (1, ValueError), (9, CapExceeded), (8, CapExceeded)],
    ids=["negative", "one", "over-graph-cap", "over-edge-budget"],
)
def test_battery_rejects_max_n_before_any_check(monkeypatch, max_n, error):
    monkeypatch.setattr(verify, "bfs", _no_search)
    with pytest.raises(error):
        battery(max_n)


def test_battery_raises_on_a_disconnected_profile(monkeypatch):
    # every profile reaches one vertex: FJ(2,1) (2 vertices) and FJ(3,k) (6)
    real = verify.bfs
    monkeypatch.setattr(verify, "bfs", lambda *args: dataclasses.replace(real(*args), reached=1))
    checks = battery(3)
    failed = [(c["name"], c["params"], c.get("detail")) for c in checks if not c["passed"]]
    assert failed == [
        ("connectivity", {"n": 2, "k": 1}, None),
        ("connectivity", {"n": 3, "k": 1}, None),
        ("connectivity", {"n": 3, "k": 2}, None),
        ("diameter-k1", {"n": 2}, "disconnected: reached 1 of 2"),
        ("diameter-k1", {"n": 3}, "disconnected: reached 1 of 6"),
        ("diameter-top", {"n": 3}, "disconnected: reached 1 of 6"),
        ("diameter-lower-bound", {"n": 2, "k": 1}, "disconnected: reached 1 of 2"),
        ("diameter-lower-bound", {"n": 3, "k": 1}, "disconnected: reached 1 of 6"),
        ("diameter-lower-bound", {"n": 3, "k": 2}, "disconnected: reached 1 of 6"),
    ]
