"""The four workloads: seeded inputs, the timed calls into fjgraphs, and their checks.

A workload is a list of steps.  A step is a few timed operations on one graph
or one family of matrices, plus the check of their outputs, which run.py runs
outside the timed window.  Calls go through module attributes
(``graphs.build_edges``, never a name bound at import) so that an installed
spans.Tracer sees them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable

from fjgraphs import blocks, cli, graphs, metrics, spectra

import checks

BATTERY_ARGV = ("verify-all", "--max-n", "6", "--eigen-cap", "120")
BATTERY_CAPS = {"max_n": 6, "eigen_cap": 120, "matrix_cap": 7}  # matrix_cap: the CLI default
SPARSE = ((8, 1), (8, 2))  # degrees 7 and 33, 28 and 11 BFS levels
DENSE = ((6, 5), (7, 4))  # degrees 461 and 327, edge lists built
TOP = (7, 6)  # degree 3447: searched without an edge list


@dataclass(frozen=True)
class CliRun:
    code: int
    text: str


@dataclass
class Step:
    label: str
    ops: list[tuple[str, Callable[[list], object]]]  # each op gets the outputs of the earlier ops
    check: Callable[[list], list[str]]


def run_cli(argv) -> CliRun:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return CliRun(code, out.getvalue())


def make_inputs(workload: str, seed: int) -> dict:
    """Vertex orderings and BFS sources drawn from ``seed``; the battery takes none."""
    rng = random.Random(f"{workload}/{seed}")

    def shuffled(n):
        perms = list(itertools.permutations(range(1, n + 1)))
        rng.shuffle(perms)
        return perms

    def source(n):
        return tuple(rng.sample(range(1, n + 1), n))

    if workload == "battery":
        return {}
    if workload == "spectra":
        return {"orders5": [shuffled(5) for _ in range(4)], "order6": shuffled(6)}
    if workload == "graphs_sparse":
        return {"sources": {nk: source(nk[0]) for nk in SPARSE}}
    if workload == "graphs_dense":
        return {"sources": {nk: source(nk[0]) for nk in DENSE + (TOP,)}}
    raise ValueError(f"unknown workload {workload!r}")


def steps(workload: str, inputs: dict, seed: int) -> list[Step]:
    build = {
        "battery": _battery,
        "spectra": _spectra,
        "graphs_sparse": _graphs_sparse,
        "graphs_dense": _graphs_dense,
    }[workload]
    return build(inputs, f"{workload}/{seed}")


def _battery(inputs, sample_seed) -> list[Step]:
    def check(outs):
        return checks.check_battery(outs[0].code, outs[0].text, **BATTERY_CAPS)

    return [Step("verify-all", [("fjgraph " + " ".join(BATTERY_ARGV), lambda _: run_cli(BATTERY_ARGV))], check)]


def _spectra(inputs, sample_seed) -> list[Step]:
    orders5 = inputs["orders5"]

    def spectrum_op(k):
        return (f"adjacency_spectrum(5,{k})", lambda _: spectra.adjacency_spectrum(5, k, ordering=orders5[k - 1]))

    def check_containment(outs):
        full, m_spec, match = outs
        return (
            checks.check_spectrum(5, 1, full.values, full.multiplicities)
            + checks.check_m_spectrum(5, m_spec.values, m_spec.multiplicities)
            + checks.check_subset(m_spec.values, full.values, match.ok, match.matching)
        )

    out = [
        Step(
            "spectrum of FJ(5,1) and M(5) inside it",
            [
                spectrum_op(1),
                ("eig_tridiagonal(M(5)) for the containment", lambda _: spectra.eig_tridiagonal(spectra.regularity_matrix(5))),
                ("spectrum_subset_check(M(5), FJ(5,1))", lambda outs: spectra.spectrum_subset_check(outs[1], outs[0])),
            ],
            check_containment,
        )
    ]
    for k in range(2, 5):
        out.append(
            Step(
                f"spectrum FJ(5,{k})",
                [spectrum_op(k)],
                lambda outs, k=k: checks.check_spectrum(5, k, outs[0].values, outs[0].multiplicities),
            )
        )

    S6 = inputs["order6"]
    block_ops = [(f"verify_recursive_blocks(6,{k})", lambda _, k=k: blocks.verify_recursive_blocks(6, k, ordering=S6)) for k in range(1, 6)]
    block_ops.append(("verify_permutahedron_blocks(6)", lambda _: blocks.verify_permutahedron_blocks(6, ordering=S6)))
    layouts = [checks.recursive_block_layout(6, k) for k in range(1, 6)] + [checks.permutahedron_block_layout(6)]

    def check_blocks(reports):
        return [
            p
            for (label, _), rep, layout in zip(block_ops, reports, layouts)
            for p in checks.check_block_report(label, [(a.block, a.passed) for a in rep.assertions], layout)
        ]

    out.append(Step("blocks of FJ(7,k)", block_ops, check_blocks))

    out.append(
        Step(
            "regularity of FJ(7,1)",
            [
                ("regularity_matrix_from_blocks(7)", lambda _: spectra.regularity_matrix_from_blocks(7, ordering=S6)),
                ("verify_intertwining(7)", lambda _: spectra.verify_intertwining(7, ordering=S6)),
            ],
            lambda outs: checks.check_regularity_matrix(7, outs[0])
            + ([] if outs[1] is True else ["verify_intertwining(7) did not return True"]),
        )
    )

    sizes = range(2, 13)
    out.append(
        Step(
            "M(n) spectra",
            [(f"eig_tridiagonal(M({n}))", lambda _, n=n: spectra.eig_tridiagonal(spectra.regularity_matrix(n))) for n in sizes],
            lambda outs: [p for n, s in zip(sizes, outs) for p in checks.check_m_spectrum(n, s.values, s.multiplicities)],
        )
    )
    return out


def _graphs_sparse(inputs, sample_seed) -> list[Step]:
    out = []
    for (n, k), src in inputs["sources"].items():

        def check(outs, n=n, k=k, src=src):
            export, diam, prof = outs
            if export.code or diam.code:
                return [f"FJ({n},{k}) export exited {export.code}, diameter exited {diam.code}"]
            edges = checks.parse_csv(export.text)
            return (
                checks.check_edges(n, k, edges, sample_seed)
                + checks.check_bfs(n, k, edges, src, prof.distances, prof.eccentricity, prof.reached)
                + checks.check_eccentricity(n, k, [json.loads(diam.text)["diameter"], prof.eccentricity])
            )

        argv = ["--n", str(n), "--k", str(k)]
        out.append(
            Step(
                f"FJ({n},{k})",
                [
                    (f"fjgraph export csv FJ({n},{k})", lambda _, a=argv: run_cli(["export", *a, "--format", "csv"])),
                    (f"fjgraph diameter FJ({n},{k})", lambda _, a=argv: run_cli(["diameter", *a])),
                    (f"bfs FJ({n},{k})", lambda _, n=n, k=k, s=src: metrics.bfs(graphs.FlagGraphSpec(n, k), s)),
                ],
                check,
            )
        )
    return out


def _graphs_dense(inputs, sample_seed) -> list[Step]:
    out = []
    for (n, k), src in inputs["sources"].items():
        ops = [
            (f"diameter FJ({n},{k})", lambda _, n=n, k=k: metrics.diameter(graphs.FlagGraphSpec(n, k))),
            (f"bfs FJ({n},{k})", lambda _, n=n, k=k, s=src: metrics.bfs(graphs.FlagGraphSpec(n, k), s)),
        ]
        if (n, k) == TOP:

            def check(outs, n=n, k=k, src=src):
                diam, prof = outs
                return checks.check_levels(
                    n, k, src, prof.distances, prof.eccentricity, prof.reached, sample_seed
                ) + checks.check_eccentricity(n, k, [diam, prof.eccentricity])

        else:
            ops.insert(0, (f"build_edges FJ({n},{k})", lambda _, n=n, k=k: graphs.build_edges(graphs.FlagGraphSpec(n, k))))

            def check(outs, n=n, k=k, src=src):
                edges, diam, prof = outs
                return (
                    checks.check_edges(n, k, edges, sample_seed)
                    + checks.check_bfs(n, k, edges, src, prof.distances, prof.eccentricity, prof.reached)
                    + checks.check_eccentricity(n, k, [diam, prof.eccentricity])
                )

        out.append(Step(f"FJ({n},{k})", ops, check))
    return out
