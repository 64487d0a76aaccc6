"""Per-layer spans around fjgraphs' public functions, installed from outside.

``Tracer.install`` replaces each function named in ``LAYERS`` by a timing
wrapper in every fjgraphs module namespace that holds it, because cli,
metrics, blocks and spectra import these names directly.  Spans nest, so a
span's self time is its duration minus the durations of the spans it called.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

LAYERS = {
    "perms": ("kendall_distance", "relative_pattern", "prefix_mismatch_count", "enumerate_permutations"),
    "graphs": (
        "build_edges",
        "generators",
        "prefix_mismatch_matrix",
        "pairwise_edges",
        "insertion_embedding_check",
        "edges_to_csv",
    ),
    "metrics": ("bfs", "diameter", "edge_transposition_bound_check"),
    "blocks": (
        "adjacency_matrix",
        "verify_recursive_blocks",
        "verify_permutahedron_blocks",
        "excluded_transposition_matrix",
    ),
    "spectra": (
        "eig_symmetric",
        "eig_tridiagonal",
        "regularity_matrix_from_blocks",
        "spectrum_subset_check",
        "verify_intertwining",
    ),
    "cli": ("main",),
}


def _graph(tracer, span, args, out):
    spec = args[0]
    tracer.keys[span].add((spec.n, spec.k))


def _build_edges(tracer, span, args, out):
    _graph(tracer, span, args, out)
    tracer.add("graphs.build_edges.edges", len(out))


def _bfs(tracer, span, args, out):
    _graph(tracer, span, args, out)
    tracer.add("metrics.bfs.reached", out.reached)


def _nbytes(tracer, span, args, out):
    # computed from the result's shape (N x N uint8), not a measured allocation
    tracer.add(f"{span}.bytes", out.nbytes)


def _text_bytes(tracer, span, args, out):
    tracer.add(f"{span}.bytes", len(out))


def _assertions(tracer, span, args, out):
    tracer.add("blocks.assertions", len(out.assertions))


def _order(tracer, span, args, out):
    tracer.add("spectra.eig_symmetric.order_sum", out.order)


# span -> counters read from the call's arguments and result
ON_RESULT = {
    "graphs.build_edges": _build_edges,
    "graphs.prefix_mismatch_matrix": _nbytes,
    "graphs.edges_to_csv": _text_bytes,
    "metrics.bfs": _bfs,
    "blocks.adjacency_matrix": _nbytes,
    "blocks.verify_recursive_blocks": _assertions,
    "blocks.verify_permutahedron_blocks": _assertions,
    "spectra.eig_symmetric": _order,
}


class Tracer:
    """
    Spans and counters for one process; ``reset`` starts a new round.
    ``names`` are the per-layer metrics ``snapshot`` reports: "<span>.calls",
    "<span>.self_s" and "<span>.distinct_ratio" come from the spans, other
    names are counters.
    """

    def __init__(self, names):
        self.names = list(names)
        self._patched: list[tuple[object, str, object]] = []
        self._open: list[float] = []  # time spent in child spans, per open span
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: defaultdict = defaultdict(float)
        self.keys: defaultdict = defaultdict(set)

    def add(self, counter: str, value) -> None:
        self.counts[counter] += value

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` spent inside the open spans, by something else, out of their self times."""
        if self._open:
            self._open[-1] += seconds

    def install(self) -> None:
        namespaces = [m for name, m in sys.modules.items() if name == "fjgraphs" or name.startswith("fjgraphs.")]
        for module_name, functions in LAYERS.items():
            module = sys.modules[f"fjgraphs.{module_name}"]
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrapper = self._span(f"{module_name}.{fn_name}", original)
                for ns in namespaces:
                    if vars(ns).get(fn_name) is original:
                        self._patched.append((ns, fn_name, original))
                        setattr(ns, fn_name, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            ns, fn_name, original = self._patched.pop()
            setattr(ns, fn_name, original)

    def _span(self, span: str, fn):
        on_result = ON_RESULT.get(span)
        clock = time.perf_counter
        opened = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.self_s[span] += elapsed - opened.pop()
                self.calls[span] += 1
                if opened:
                    opened[-1] += elapsed
            if on_result is not None:
                on_result(self, span, args, out)
            return out

        return wrapper

    def value(self, metric: str) -> float:
        span, _, field = metric.rpartition(".")
        if field == "calls":
            return self.calls[span]
        if field == "self_s":
            return self.self_s[span]
        if field == "distinct_ratio":
            # 0 when the layer was not called in this workload
            return len(self.keys[span]) / self.calls[span] if self.calls[span] else 0.0
        return self.counts[metric]

    def snapshot(self) -> dict[str, float]:
        return {name: self.value(name) for name in self.names}
