"""Each benchmark check accepts fjgraphs' real output and rejects a corrupted copy.

    python3 -m pytest fjbench -q
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fjgraphs as fj  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_degree_matches_irreducible_counts():
    assert [checks.degree(8, k) for k in (1, 2, 7)] == [7, 33, 29093]
    assert checks.degree(7, 6) == 3447


def test_spectrum_check_rejects_shifted_eigenvalue():
    spec = fj.adjacency_spectrum(4, 2)
    assert checks.check_spectrum(4, 2, spec.values, spec.multiplicities) == []
    shifted = list(spec.values)
    shifted[1] += 1e-6
    assert checks.check_spectrum(4, 2, shifted, spec.multiplicities)
    moved = list(spec.multiplicities)
    moved[0], moved[-1] = moved[0] + 1, moved[-1] - 1
    assert checks.check_spectrum(4, 2, spec.values, moved)


def test_m_spectrum_check_rejects_shifted_eigenvalue():
    spec = fj.eig_tridiagonal(fj.regularity_matrix(6))
    assert checks.check_m_spectrum(6, spec.values, spec.multiplicities) == []
    assert checks.check_m_spectrum(6, [v + 1e-6 for v in spec.values], spec.multiplicities)


def test_subset_check_rejects_wrong_partner():
    full = fj.adjacency_spectrum(4, 1)
    m_spec = fj.eig_tridiagonal(fj.regularity_matrix(4))
    match = fj.spectrum_subset_check(m_spec, full)
    assert checks.check_subset(m_spec.values, full.values, match.ok, match.matching) == []
    wrong = (match.matching[1],) + match.matching[1:]
    assert checks.check_subset(m_spec.values, full.values, match.ok, wrong)
    assert checks.check_subset(m_spec.values, full.values, False, match.matching)


def test_regularity_check_rejects_changed_entry():
    M = fj.regularity_matrix_from_blocks(5)
    assert checks.check_regularity_matrix(5, M) == []
    M = M.copy()
    M[2, 2] += 1
    assert checks.check_regularity_matrix(5, M)


@pytest.mark.parametrize("n, k", [(5, 1), (5, 2), (6, 4)])
def test_edge_check_rejects_dropped_and_unsorted_edges(n, k):
    edges = fj.build_edges(fj.FlagGraphSpec(n, k))
    assert checks.check_edges(n, k, edges, 0) == []
    assert checks.check_edges(n, k, edges[:17] + edges[18:], 0)
    swapped = list(edges)
    swapped[3], swapped[4] = swapped[4], swapped[3]
    assert checks.check_edges(n, k, swapped, 0)


def test_edge_check_rejects_relabelled_vertices():
    # right count, sorted and regular, but some pairs fail the predicate
    edges = fj.build_edges(fj.FlagGraphSpec(4, 2))
    swap = {0: 5, 5: 0}
    relabelled = sorted(tuple(sorted((swap.get(a, a), swap.get(b, b)))) for a, b in edges)
    assert checks.check_edges(4, 2, relabelled, 0)


def test_csv_parse_round_trips():
    edges = fj.build_edges(fj.FlagGraphSpec(4, 2))
    assert checks.parse_csv(fj.edges_to_csv(edges)).tolist() == [list(e) for e in edges]


@pytest.mark.parametrize("delta", [1, -1])
def test_bfs_check_rejects_distance_off_by_one(delta):
    spec = fj.FlagGraphSpec(5, 2)
    edges = fj.build_edges(spec)
    source = (3, 5, 1, 4, 2)
    prof = fj.bfs(spec, source)
    assert checks.check_bfs(5, 2, edges, source, prof.distances, prof.eccentricity, prof.reached) == []
    for v in (7, 60, 119):
        d = prof.distances.astype(np.int64)
        if d[v] + delta < 0:
            continue
        d[v] += delta
        assert checks.check_bfs(5, 2, edges, source, d, prof.eccentricity, prof.reached)


def test_levels_check_rejects_moved_vertex():
    spec = fj.FlagGraphSpec(5, 4)
    source = (2, 4, 1, 5, 3)
    prof = fj.bfs(spec, source)
    assert checks.check_levels(5, 4, source, prof.distances, prof.eccentricity, prof.reached, 0) == []
    d = prof.distances.astype(np.int64)
    d[np.flatnonzero(d == 2)[0]] = 1
    assert checks.check_levels(5, 4, source, d, prof.eccentricity, prof.reached, 0)


def test_eccentricity_check():
    assert checks.check_eccentricity(5, 1, [10, 10]) == []
    assert checks.check_eccentricity(5, 1, [10, 9])
    assert checks.check_eccentricity(5, 1, [9])
    assert checks.check_eccentricity(5, 4, [3])
    assert checks.check_eccentricity(6, 2, [2])


def test_block_check_rejects_missing_or_failed_assertion():
    for rep, layout in (
        (fj.verify_recursive_blocks(3, 2), checks.recursive_block_layout(3, 2)),
        (fj.verify_permutahedron_blocks(3), checks.permutahedron_block_layout(3)),
    ):
        pairs = [(a.block, a.passed) for a in rep.assertions]
        assert checks.check_block_report("r", pairs, layout) == []
        assert checks.check_block_report("r", pairs[1:], layout)
        assert checks.check_block_report("r", [(pairs[0][0], False)] + pairs[1:], layout)


@pytest.fixture(scope="module")
def battery_report():
    run = workloads.run_cli(["verify-all", "--max-n", "4"])
    return run.code, json.loads(run.text)


def test_battery_check_rejects_missing_check(battery_report):
    code, report = battery_report
    caps = {"max_n": 4, "eigen_cap": 720, "matrix_cap": 7}
    assert checks.check_battery(code, json.dumps(report), **caps) == []
    for i in (0, len(report["checks"]) // 2, -1):
        fewer = dict(report, checks=[c for j, c in enumerate(report["checks"]) if j != i % len(report["checks"])])
        fewer["check_count"] = len(fewer["checks"])
        assert checks.check_battery(code, json.dumps(fewer), **caps)
    assert checks.check_battery(1, json.dumps(report), **caps)
    assert checks.check_battery(code, json.dumps(report), **dict(caps, max_n=5))


def test_tracer_counts_nested_spans_and_restores_functions():
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = [m["name"] for m in per_layer if m["name"] != "trace.overhead_s"]  # run.py computes that one
    original = fj.metrics.generators
    tracer = spans.Tracer(names)
    tracer.install()
    try:
        assert fj.metrics.generators is not original
        fj.diameter(fj.FlagGraphSpec(5, 2))
        fj.edge_transposition_bound_check(fj.FlagGraphSpec(4, 2))
    finally:
        tracer.uninstall()
    assert fj.metrics.generators is original
    snap = tracer.snapshot()
    assert snap["metrics.bfs.calls"] == 1 and snap["metrics.bfs.reached"] == 120
    assert snap["perms.kendall_distance.calls"] == snap["perms.relative_pattern.calls"] == 84
    assert snap["graphs.build_edges.edges"] == 84
    assert set(snap) == set(names) and all(v >= 0 for v in snap.values())


def test_sampler_leaves_its_own_time_out():
    sampler = hostspeed.Sampler()
    sampler.install()
    try:
        sampler.resume()
        start = time.perf_counter()
        while time.perf_counter() - start < 3 * hostspeed.INTERVAL_S:
            fj.bfs(fj.FlagGraphSpec(6, 2), tuple(range(1, 7)))
        end = time.perf_counter()
        sampler.pause()
    finally:
        sampler.uninstall()
    refs = sampler.reference_between(start, end)
    assert len(refs) >= 2 and all(r > 0 for r in refs)
    assert 0 < sampler.spent_between(start, end) < end - start
