"""
Command-line interface.

Subcommands: export (edge lists as DOT/CSV/JSON), diameter, blocks (block
identity checks), spectrum, and verify-all (the full verification battery).
Every report is JSON with a schema_version field and a fixed key order, and
eigenvalues are formatted to 12 decimal places, so identical configurations
produce identical reports (timing fields excepted).

Every subcommand takes --out; a file there appears only once its text is
whole.  export writes its text piece by piece as the edges are made, so it
never holds the edge list or the whole text.  spectrum and verify-all also
take --eigen-cap, at least 1, which bounds only the order n! of a full
spectrum: the n x n regularity matrix is solved under the fixed cap of
``config``, so ``spectrum --n 5 --eigen-cap 3`` solves M(5), and
``--n 800 --eigen-cap 1000`` is refused at order 800.  The other size
guards and the tolerances are the fixed constants of ``config``.

Exit status: 0 all requested checks passed, 1 a verification failed,
2 invalid arguments or a size guard tripped.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Iterable
from functools import lru_cache

from .config import EIGEN_CAP, TheoremViolation, _check_eigen_cap
from .blocks import verify_permutahedron_blocks, verify_recursive_blocks
from .graphs import FlagGraphSpec, _export_pieces
from .metrics import diameter, diameter_lower_bound
from .spectra import (
    Spectrum,
    adjacency_spectrum,
    conjecture_second_largest,
    eig_tridiagonal,
    regularity_matrix,
    spectrum_subset_check,
)
from .verify import battery

SCHEMA_VERSION = 1


def _round12(x: float) -> float:
    # fixed 12-decimal formatting keeps reports byte-identical across runs
    return float(f"{float(x):.12f}")


def _emit(pieces: Iterable[str], out_path: str | None) -> None:
    """
    Write the pieces of a text as they come: to stdout, or to PATH.  A
    regular file at PATH appears only once the text is whole: the pieces
    go to a file beside it that replaces PATH on success and is removed on
    any failure, so an export whose last check fails leaves no file.  A
    PATH that exists and is no regular file (a device, a pipe) is written
    in place.
    """
    if out_path is None or out_path == "-":
        sys.stdout.writelines(pieces)
        return
    target = os.path.realpath(out_path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
        return
    partial = f"{target}.{os.getpid()}.partial"
    fh = open(partial, "x", encoding="utf-8")  # never another file's name: a failure here leaves nothing
    try:
        with fh:
            fh.writelines(pieces)
        os.replace(partial, target)
    except BaseException:
        os.remove(partial)
        raise


def _emit_json(doc: dict, out_path: str | None) -> None:
    _emit([json.dumps(doc, indent=2) + "\n"], out_path)


def cmd_export(args: argparse.Namespace) -> int:
    _emit(_export_pieces(FlagGraphSpec(args.n, args.k), args.format), args.out)
    return 0


def cmd_diameter(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    spec = FlagGraphSpec(args.n, args.k)
    value = diameter(spec)
    bound = diameter_lower_bound(args.n, args.k)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "diameter",
        "n": args.n,
        "k": args.k,
        "mode": "transitive",
        "diameter": value,
        "lower_bound": bound,
        "connected": True,
        "runtime_ms": int((time.perf_counter() - started) * 1000),
    }
    _emit_json(report, args.out)
    return 0 if value >= bound else 1


def cmd_blocks(args: argparse.Namespace) -> int:
    if args.check == "recursive":
        report_obj = verify_recursive_blocks(args.n, args.k)
    else:
        if args.k != 1:
            raise ValueError("the permutahedron check is defined for k = 1")
        report_obj = verify_permutahedron_blocks(args.n)
    doc = {"schema_version": SCHEMA_VERSION, "command": "blocks", "check": args.check}
    doc.update(report_obj.to_dict())
    _emit_json(doc, args.out)
    return 0 if report_obj.passed else 1


def cmd_spectrum(args: argparse.Namespace) -> int:
    _check_eigen_cap(args.eigen_cap)
    n = args.n
    m_spec = eig_tridiagonal(regularity_matrix(n))
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "command": "spectrum",
        "n": n,
        "m_eigenvalues": [_round12(x) for x in m_spec.values],
    }
    status = 0
    full_spec: Spectrum | None = None
    if args.full or args.check_subset or args.conjecture:
        full_spec = adjacency_spectrum(n, 1, eigen_cap=args.eigen_cap)
        report["full_distinct_eigenvalues"] = [_round12(x) for x in full_spec.values]
    if args.check_subset:
        match = spectrum_subset_check(m_spec, full_spec)
        report["subset_ok"] = match.ok
        report["matching"] = list(match.matching)
        if not match.ok:
            report["unmatched"] = _round12(match.unmatched)
            status = 1
    if args.conjecture:
        report["second_largest_in_M"] = conjecture_second_largest(n, graph_spectrum=full_spec)
    _emit_json(report, args.out)
    return status


def cmd_verify_all(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    checks = battery(args.max_n, eigen_cap=args.eigen_cap)
    passed = all(c["passed"] for c in checks)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify-all",
        "max_n": args.max_n,
        "passed": passed,
        "check_count": len(checks),
        "failed": [c for c in checks if not c["passed"]],
        "checks": checks,
        "runtime_ms": int((time.perf_counter() - started) * 1000),
    }
    _emit_json(report, args.out)
    return 0 if passed else 1


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="PATH", default=None, help="write the report here instead of stdout")


def _add_spectral(parser: argparse.ArgumentParser) -> None:
    _add_out(parser)
    parser.add_argument("--eigen-cap", type=int, default=EIGEN_CAP, help="largest order n! of a full spectrum (the regularity matrix keeps the fixed cap)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fjgraph",
        description="Full-Flag Johnson graphs: construction, diameters, block identities, spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("export", help="write the edge list of FJ(n, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("dot", "csv", "json"), default="json")
    _add_out(p)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("diameter", help="BFS diameter of FJ(n, k) with its lower bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=cmd_diameter)

    p = sub.add_parser(
        "blocks",
        help="check the block identities of FJ(n+1, k) under the stacked ordering built from S_n",
    )
    p.add_argument("--n", type=int, required=True, help="base size n; the decomposed matrix is FJ(n+1, k)")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--check", choices=("recursive", "permutahedron"), required=True)
    _add_out(p)
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("spectrum", help="regularity-matrix eigenvalues, full spectrum, containment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--full", action="store_true", help="also compute the full FJ(n,1) spectrum")
    p.add_argument("--check-subset", action="store_true", help="verify spec(M) inside spec(FJ(n,1))")
    p.add_argument("--conjecture", action="store_true", help="test the second-largest-eigenvalue conjecture")
    _add_spectral(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify-all", help="run the whole verification battery up to --max-n")
    p.add_argument(
        "--max-n", type=int, default=5, help="largest graph size touched, 2..7, as FJ(8,7) is over the edge budget (default 5)"
    )
    _add_spectral(p)
    p.set_defaults(func=cmd_verify_all)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # the parser of every main call in this process, built once (about 0.6 ms and 26 add_argument calls);
    # parsing keeps no state in it, and build_parser stays public for a fresh one
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except TheoremViolation as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # CapExceeded is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
