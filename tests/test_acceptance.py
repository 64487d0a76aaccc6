"""Acceptance: the verification battery up to n = 6, one test per check family.

The battery runs once per session.  Every entry of a family must pass and
must equal that family's entries in the golden ``verify-all --max-n 6``
report, so a changed parameter range, detail text or evidence value shows
up as a failure here.
"""

import dataclasses
import json
import time
from pathlib import Path

import pytest

from fjgraphs import CapExceeded, FlagGraphSpec, TheoremViolation, diameter, verify
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


def test_criterion_02_top_k_diameter_is_two():
    # n = 3..6 are also the battery's diameter-top family; FJ(7,6) is past it
    started = time.perf_counter()
    got = [diameter(FlagGraphSpec(n, n - 1)) for n in range(3, 8)]
    assert got == [2, 2, 2, 2, 2]
    assert time.perf_counter() - started < 60.0


def _no_search(*args, **kwargs):
    raise AssertionError("a check ran before the argument guards")


@pytest.mark.parametrize(
    "max_n, caps, error",
    [(-2, {}, ValueError), (1, {}, ValueError), (9, {}, CapExceeded), (5, {"graph_cap": 4}, CapExceeded), (8, {}, CapExceeded)],
    ids=["negative", "one", "over-graph-cap", "over-given-cap", "over-edge-budget"],
)
def test_battery_rejects_max_n_before_any_check(monkeypatch, max_n, caps, error):
    monkeypatch.setattr(verify, "bfs", _no_search)
    with pytest.raises(error):
        battery(max_n, **caps)


def test_battery_raises_on_a_disconnected_profile(monkeypatch):
    real = verify.bfs
    monkeypatch.setattr(verify, "bfs", lambda *args, **kwargs: dataclasses.replace(real(*args, **kwargs), reached=1))
    with pytest.raises(TheoremViolation, match="reached only 1 of 2"):
        battery(3)
