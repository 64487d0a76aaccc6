"""Command-line behavior: reports, formats, exit codes, size guards."""

import dataclasses
import hashlib
import json
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from fjgraphs import blocks, cli, graphs, metrics, spectra, verify
from fjgraphs.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_diameter_report(capsys):
    code, doc, _ = run_json(capsys, "diameter", "--n", "4", "--k", "1")
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["diameter"] == 6
    assert doc["lower_bound"] == 6
    assert doc["connected"] is True
    assert doc["mode"] == "transitive"
    assert isinstance(doc["runtime_ms"], int)


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export", "--n", "2", "--k", "1", "--format", "dot")
    assert code == 0
    assert out.startswith('graph "FJ(2,1)"')
    assert out.count("--") == 1


def test_export_csv(capsys):
    code, out, _ = run(capsys, "export", "--n", "3", "--k", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "u,v" and len(lines) == 10


@pytest.mark.parametrize(
    "n, k, fmt, digest",
    [
        (8, 2, "csv", "40d9462d8b03ad408bb7d1ef7d58e4e2e7cec080fea18f11662804e250cff0fd"),
        (6, 3, "json", "2ea6af3419059e2962fe3cab770bbdac02da27a393804c0f6f1328c5cf1c7ff6"),
        (6, 3, "dot", "a8a29d6cce8ba371b23ff98a1557037d4311473eb5cced124ee970db27345a55"),
        (8, 1, "json", "997df99359ffd56e5edd356ab1eaf3e2116229697f5df1074fcc029591557a5f"),
        (8, 1, "dot", "d94a7b95a6859ce48d2db727fd3d7745f94619e96e3c052458a4d8dfc22a130c"),
    ],
)
def test_export_bytes_are_pinned(capsys, n, k, fmt, digest):
    # the sha256 of the output of the %-template writer that the byte-buffer
    # writer replaced, and of the per-vertex JSON labels that the byte label
    # table replaced
    code, out, _ = run(capsys, "export", "--n", str(n), "--k", str(k), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_export_json_to_file(capsys, tmp_path):
    target = tmp_path / "fj41.json"
    code, out, _ = run(capsys, "export", "--n", "4", "--k", "1", "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["edge_count"] == 36 and doc["vertex_count"] == 24


def test_an_export_off_the_degree_formula_leaves_no_file(capsys, monkeypatch, tmp_path):
    # the count check runs after the text is written: --out keeps nothing,
    # and stdout still exits 1
    real = graphs.degree
    monkeypatch.setattr(graphs, "degree", lambda n, k: real(n, k) + 1)
    target = tmp_path / "fj42.csv"
    code, out, err = run(capsys, "export", "--n", "4", "--k", "2", "--format", "csv", "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith("verification failure: ") and "edges" in err
    assert list(tmp_path.iterdir()) == []
    code, out, err = run(capsys, "export", "--n", "4", "--k", "2", "--format", "csv")
    assert code == 1 and out.startswith("u,v\n")
    assert err.startswith("verification failure: ")


HEXAGON_CSV = "u,v\n0,1\n0,2\n1,4\n2,3\n3,5\n4,5\n"  # FJ(3,1): 123 132 312 321 231 213


def test_export_replaces_a_file_only_when_whole(capsys, tmp_path):
    target = tmp_path / "fj31.csv"
    target.write_text("old")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    for path in (target, link):
        code, out, _ = run(capsys, "export", "--n", "3", "--k", "1", "--format", "csv", "--out", str(path))
        assert code == 0 and out == ""
        assert target.read_text() == HEXAGON_CSV
        target.write_text("old")
    # the link still names the file it wrote through, and no partial file is left
    assert link.is_symlink() and sorted(tmp_path.iterdir()) == [target, link]


def test_export_writes_into_a_pipe_in_place(capsys, tmp_path):
    # a PATH that is no regular file is never replaced
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)  # the small text fits the pipe's buffer
    try:
        code, out, _ = run(capsys, "export", "--n", "3", "--k", "1", "--format", "csv", "--out", str(pipe))
        text = os.read(reader, 1 << 16).decode("ascii")
    finally:
        os.close(reader)
    assert code == 0 and out == "" and text == HEXAGON_CSV
    assert stat.S_ISFIFO(os.stat(pipe).st_mode) and list(tmp_path.iterdir()) == [pipe]


def test_blocks_recursive(capsys):
    code, doc, _ = run_json(capsys, "blocks", "--n", "3", "--k", "2", "--check", "recursive")
    assert code == 0
    assert doc["passed"] is True
    assert doc["check"] == "recursive"
    assert all("name" in a and "block" in a for a in doc["assertions"])


def test_blocks_permutahedron(capsys):
    code, doc, _ = run_json(capsys, "blocks", "--n", "3", "--check", "permutahedron")
    assert code == 0
    assert doc["passed"] is True


def test_blocks_reports_are_pinned(capsys):
    # every blocks report for n = 2..6, each k, the recursive check and then,
    # at k = 1, the permutahedron check, fed in that order into one sha256:
    # the digest of the reports before the block screens were added
    digest = hashlib.sha256()
    for n in range(2, 7):
        for k in range(1, n):
            for check in ("recursive", "permutahedron")[: 2 if k == 1 else 1]:
                code, out, _ = run(capsys, "blocks", "--n", str(n), "--k", str(k), "--check", check)
                assert code == 0
                digest.update(out.encode("ascii"))
    assert digest.hexdigest() == "6421127b400f2ec8b72bc1c7c55ce182cfec3d8593a8dc32c5b4cf0fe3d91fd8"


def test_blocks_permutahedron_requires_k1(capsys):
    code, _, err = run(capsys, "blocks", "--n", "3", "--k", "2", "--check", "permutahedron")
    assert code == 2
    assert "k = 1" in err


@pytest.mark.parametrize("check", ["recursive", "permutahedron"])
def test_blocks_at_the_matrix_cap_name_the_requested_base(capsys, check):
    # base 7 is the cap itself; its checks read the stacked counts of n = 8
    code, out, err = run(capsys, "blocks", "--n", "7", "--k", "1", "--check", check)
    assert code == 2 and out == ""
    assert err == "error: the checks of base 7 read the 8! x 8! counts of n = 8, over the matrix cap 7\n"


def test_spectrum_report(capsys):
    code, doc, _ = run_json(capsys, "spectrum", "--n", "4", "--check-subset", "--conjecture")
    assert code == 0
    assert doc["n"] == 4
    assert doc["subset_ok"] is True
    assert doc["second_largest_in_M"] is True
    assert len(doc["m_eigenvalues"]) == 4
    assert abs(doc["m_eigenvalues"][0] - 3.0) < 1e-9
    assert len(doc["full_distinct_eigenvalues"]) == 10
    assert doc["matching"] == sorted(doc["matching"])


def test_spectrum_deterministic(capsys):
    _, first, _ = run(capsys, "spectrum", "--n", "4", "--full")
    _, second, _ = run(capsys, "spectrum", "--n", "4", "--full")
    assert first == second


def test_spectrum_impossible_tolerance_fails(capsys, monkeypatch):
    # an M whose spectrum is shifted off the graph's cannot be contained in it
    real = cli.regularity_matrix
    monkeypatch.setattr(cli, "regularity_matrix", lambda n: real(n) + 3 * np.eye(n, dtype=np.int64))
    code, doc, _ = run_json(capsys, "spectrum", "--n", "3", "--check-subset")
    assert code == 1
    assert doc["subset_ok"] is False
    assert "unmatched" in doc


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--n", "4", "--eig-tol", "nan"),
        ("spectrum", "--n", "4", "--eig-tol", "inf"),
        ("spectrum", "--n", "4", "--full", "--eig-tol", "-1"),
        ("spectrum", "--n", "4", "--check-subset", "--match-tol", "-1"),
        ("spectrum", "--n", "4", "--conjecture", "--match-tol", "nan"),
        ("spectrum", "--n", "4", "--match-tol", "nan"),
    ],
    ids=lambda argv: " ".join(argv[3:]),
)
def test_spectrum_bad_tolerance_is_a_bad_argument(capsys, argv):
    # the tolerances are fixed constants: a tolerance flag is an unknown
    # argument, never a report computed under some other tolerance
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    out = capsys.readouterr()
    assert info.value.code == 2
    assert out.out == ""
    assert "unrecognized arguments" in out.err and argv[-2] in out.err


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "argv, name",
    [
        (("verify-all", "--max-n", "5"), "verify_all_max_n_5.json"),
        (("spectrum", "--n", "5", "--full", "--check-subset", "--conjecture"), "spectrum_n_5_full_check_subset_conjecture.json"),
        (("blocks", "--n", "5", "--k", "2", "--check", "recursive"), "blocks_n_5_k_2_check_recursive.json"),
        (("blocks", "--n", "6", "--k", "3", "--check", "recursive"), "blocks_n_6_k_3_check_recursive.json"),
        (("blocks", "--n", "6", "--k", "1", "--check", "permutahedron"), "blocks_n_6_k_1_check_permutahedron.json"),
    ],
    ids=["verify-all", "spectrum", "blocks-recursive-5-2", "blocks-recursive-6-3", "blocks-permutahedron-6"],
)
def test_report_matches_golden(capsys, argv, name):
    # reports must stay byte-identical, apart from runtime_ms, across refactors
    code, doc, _ = run_json(capsys, *argv)
    assert code == 0
    doc.pop("runtime_ms", None)
    assert json.dumps(doc, indent=2) + "\n" == (GOLDEN / name).read_text(encoding="utf-8")


def test_verify_all_small(capsys):
    code, doc, _ = run_json(capsys, "verify-all", "--max-n", "4")
    assert code == 0
    assert doc["passed"] is True
    assert doc["failed"] == []
    names = {c["name"] for c in doc["checks"]}
    assert {
        "connectivity",
        "diameter-k1",
        "diameter-top",
        "diameter-lower-bound",
        "edge-kendall-bound",
        "insertion-embedding",
        "edge-oracle-equivalence",
        "reducibility-adjacency-equivalence",
        "block-recursion",
        "permutahedron-blocks",
        "regularity-matrix",
        "intertwining",
        "spectrum-subset",
        "conjecture-second-largest",
        "degree-identities",
        "degree-k1-linear",
    } <= names


def test_verify_all_reports_a_disconnected_graph(capsys, monkeypatch):
    real = verify.bfs
    monkeypatch.setattr(verify, "bfs", lambda *args: dataclasses.replace(real(*args), reached=1))
    code, doc, _ = run_json(capsys, "verify-all", "--max-n", "3")
    assert code == 1 and doc["passed"] is False
    assert {"name": "connectivity", "params": {"n": 2, "k": 1}, "passed": False} in doc["failed"]


def test_invalid_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["diameter", "--n", "4"])  # --k missing
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["export", "--n", "3", "--k", "1", "--graph-cap", "3"])  # no such flag
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["diameter", "--n", "4", "--k", "2", "--exhaustive"])  # removed: one BFS per vertex
    assert info.value.code == 2
    for command in (["spectrum", "--n", "4"], ["verify-all", "--max-n", "3"]):
        for flag in ("--eig-tol", "--match-tol"):  # removed: the tolerances are config constants
            with pytest.raises(SystemExit) as info:
                main([*command, flag, "1e-9"])
            assert info.value.code == 2


def test_invalid_nk_exits_2(capsys):
    code, _, err = run(capsys, "diameter", "--n", "3", "--k", "3")
    assert code == 2 and "k < n" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify-all", "--max-n", "-2"), "at least 2"),
        (("verify-all", "--max-n", "1"), "at least 2"),
        (("verify-all", "--max-n", "9"), "graph cap"),
        (("verify-all", "--max-n", "8"), "edge budget"),
        (("export", "--n", "8", "--k", "7", "--format", "csv"), "edge budget"),
        (("diameter", "--n", "8", "--k", "7"), "edge budget"),
        (("spectrum", "--n", "721"), "eigensolver cap"),
        (("verify-all", "--max-n", "3", "--eigen-cap", "-5"), "eigensolver cap must be at least 1, got -5"),
        (("verify-all", "--max-n", "3", "--eigen-cap", "0"), "eigensolver cap must be at least 1, got 0"),
        (("spectrum", "--n", "4", "--eigen-cap", "-1"), "eigensolver cap must be at least 1, got -1"),
        (("spectrum", "--n", "4", "--full", "--eigen-cap", "0"), "eigensolver cap must be at least 1, got 0"),
    ],
    ids=[
        "max-n=-2",
        "max-n=1",
        "max-n=9",
        "max-n=8",
        "export-fj87",
        "diameter-fj87",
        "spectrum-721",
        "verify-all-cap=-5",
        "verify-all-cap=0",
        "spectrum-cap=-1",
        "spectrum-full-cap=0",
    ],
)
def test_out_of_range_size_exits_2(capsys, monkeypatch, argv, message):
    def no_search(*args):
        raise AssertionError("a connection set was built before the size guard")

    monkeypatch.setattr(graphs, "_connection_rows", no_search)
    monkeypatch.setattr(verify, "_connection_rows", no_search)
    monkeypatch.setattr(graphs, "generators", no_search)
    monkeypatch.setattr(metrics, "generators", no_search)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err and "Traceback" not in err


def test_spectrum_over_the_eigen_cap_builds_no_matrix(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("an adjacency matrix or a connection sum was built before the eigensolver cap")

    monkeypatch.setattr(blocks, "adjacency_matrix", no_work)
    monkeypatch.setattr(spectra, "_connection_sums", no_work)
    code, out, err = run(capsys, "spectrum", "--n", "7", "--full")
    assert code == 2 and out == ""
    assert err == "error: order 5040 exceeds the eigensolver cap 720\n"


def test_out_path_in_a_missing_directory_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "diameter", "--n", "3", "--k", "1", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "No such file or directory" in err and "Traceback" not in err
    assert not target.parent.exists()


def test_a_disconnected_diameter_exits_1(capsys, monkeypatch):
    real = metrics._identity_search
    monkeypatch.setattr(metrics, "_identity_search", lambda n, k: (*real(n, k)[:2], 1))
    code, out, err = run(capsys, "diameter", "--n", "4", "--k", "2")
    assert code == 1 and out == ""
    assert err == "verification failure: FJ(4,2) reached only 1 of 24 vertices\n"


def test_a_wrong_block_exits_1(capsys, flip_stacked_counts):
    flip_stacked_counts(1, (1, 16))  # block (1,3) of FJ(4,1), a zero block, at its cell (2,5)
    code, doc, _ = run_json(capsys, "blocks", "--n", "3", "--check", "recursive")
    assert code == 1 and doc["passed"] is False
    assert [a for a in doc["assertions"] if not a["passed"]] == [
        {"name": "zero-block", "block": [1, 3], "passed": False, "witness": [2, 5], "detail": "entry (2,5) is 1, expected 0"}
    ]
