"""Stacked orderings, adjacency matrices, block views and block identities."""

import hashlib
import random
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import fjgraphs.blocks as blocks_module
import fjgraphs.graphs as graphs_module
from fjgraphs import (
    BlockAssertion,
    BlockReport,
    CapExceeded,
    TheoremViolation,
    adjacency_matrix,
    block,
    block_regularity,
    concatenated_ordering,
    degree,
    enumerate_permutations,
    excluded_transposition_matrix,
    matrix_to_text,
    perm_to_string,
    prefix_mismatch_count,
    regularity_matrix,
    regularity_matrix_from_blocks,
    verify_intertwining,
    verify_permutahedron_blocks,
    verify_recursive_blocks,
)


# ---------------------------------------------------------------- orderings

def test_concatenated_ordering_tiny():
    assert concatenated_ordering(((1,),)) == ((2, 1), (1, 2))


def test_concatenated_ordering_n2():
    got = [perm_to_string(p) for p in concatenated_ordering(enumerate_permutations(2))]
    assert got == ["312", "321", "132", "231", "123", "213"]


def test_concatenated_ordering_n3_prefix():
    got = [perm_to_string(p) for p in concatenated_ordering(enumerate_permutations(3))]
    assert got[:8] == ["4123", "4132", "4213", "4231", "4312", "4321", "1423", "1432"]
    assert len(got) == 24
    assert len(set(got)) == 24


# ---------------------------------------------------------------- matrices

def test_adjacency_matrix_single_edge():
    assert adjacency_matrix(2, 1).tolist() == [[0, 1], [1, 0]]


def test_adjacency_matrix_hexagon():
    A = adjacency_matrix(3, 1)
    assert A.shape == (6, 6)
    assert (A == A.T).all()
    assert (np.diag(A) == 0).all()
    assert set(A.sum(axis=1).tolist()) == {2}


def test_adjacency_matrix_row_sums_equal_degree():
    for n in range(2, 6):
        for k in range(n):
            A = adjacency_matrix(n, k)
            assert set(A.sum(axis=1).tolist()) == {degree(n, k)}


def test_adjacency_matrix_matches_predicate():
    S = enumerate_permutations(4)
    A = adjacency_matrix(4, 2, S)
    for i, u in enumerate(S):
        for j, v in enumerate(S):
            expected = 0 if i == j else int(prefix_mismatch_count(u, v) == 2)
            assert A[i, j] == expected


def test_adjacency_matrix_k0_is_edgeless():
    assert not adjacency_matrix(3, 0).any()


def test_adjacency_matrix_cap():
    with pytest.raises(CapExceeded, match="matrix cap"):
        adjacency_matrix(8, 1)


# ---------------------------------------------------------------- block views

def test_block_positions_in_stacked_permutahedron():
    Sbar = concatenated_ordering(enumerate_permutations(3))
    A = adjacency_matrix(4, 1, Sbar)
    assert not block(A, 1, 3, 6).any()
    assert (block(A, 2, 3, 6) == np.eye(6, dtype=np.uint8)).all()
    assert (block(A, 3, 2, 6) == block(A, 2, 3, 6).T).all()


def test_block_is_a_view():
    A = adjacency_matrix(3, 1)
    v = block(A, 1, 1, 3)
    assert v.base is A


def test_block_errors():
    A = adjacency_matrix(3, 1)
    with pytest.raises(ValueError):
        block(A, 1, 1, 4)
    with pytest.raises(ValueError):
        block(A, 0, 1, 3)
    with pytest.raises(ValueError):
        block(A, 1, 3, 3)


@pytest.mark.parametrize("size", [0, -1, -2])
def test_block_rejects_a_size_below_one(size):
    with pytest.raises(ValueError, match="block size"):
        block(adjacency_matrix(3, 1), 1, 1, size)


def test_none_and_empty_orderings_are_lexicographic():
    for n, k in [(3, 1), (4, 2), (5, 4)]:
        assert np.array_equal(adjacency_matrix(n, k, ()), adjacency_matrix(n, k))
        assert np.array_equal(adjacency_matrix(n, k, []), adjacency_matrix(n, k, None))
    assert verify_recursive_blocks(3, 1, ()) == verify_recursive_blocks(3, 1)
    assert verify_permutahedron_blocks(3, ()) == verify_permutahedron_blocks(3)
    assert np.array_equal(excluded_transposition_matrix(4, 2, ()), excluded_transposition_matrix(4, 2))
    assert np.array_equal(regularity_matrix_from_blocks(4, ()), regularity_matrix(4))
    assert verify_intertwining(4, ())


def test_block_regularity():
    assert block_regularity(np.eye(6, dtype=np.uint8)) == 1
    assert block_regularity(np.zeros((4, 4), dtype=np.uint8)) == 0
    assert block_regularity(adjacency_matrix(3, 1)) == 2
    lopsided = np.array([[1, 1], [0, 0]], dtype=np.uint8)
    assert block_regularity(lopsided) is None


@pytest.mark.parametrize("bad", [np.zeros((0, 0), dtype=np.uint8), np.ones(3, dtype=np.uint8)], ids=["empty", "1-D"])
def test_block_regularity_refuses_a_non_matrix(bad):
    with pytest.raises(ValueError, match="non-empty 2-D matrix"):
        block_regularity(bad)


# ---------------------------------------------------------------- reports

def test_report_shape_and_failure_bookkeeping():
    good = BlockAssertion("zero-block", (1, 3), True)
    bad = BlockAssertion("corner-block", (1, 1), False, witness=(2, 5), detail="entry (2,5) is 0, expected 1")
    report = BlockReport(n=3, k=2, assertions=(good, bad))
    assert not report.passed
    assert report.failures() == [bad]
    doc = report.to_dict()
    assert doc["passed"] is False
    assert doc["assertions"][1]["witness"] == [2, 5]


def test_recursive_blocks_figure_configuration():
    report = verify_recursive_blocks(3, 2)
    assert report.passed
    names = {a.name for a in report.assertions}
    assert names == {"zero-block", "corner-block", "flank-block"}


def test_recursive_blocks_k1_flanks_are_identity():
    S = enumerate_permutations(3)
    Sbar = concatenated_ordering(S)
    A = adjacency_matrix(4, 1, Sbar)
    for i in range(1, 4):
        assert (block(A, i, i + 1, 6) == np.eye(6, dtype=np.uint8)).all()
    assert verify_recursive_blocks(3, 1).passed


def test_recursive_blocks_tiny_corners():
    S = enumerate_permutations(2)
    A = adjacency_matrix(3, 1, concatenated_ordering(S))
    expected = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    assert (block(A, 1, 1, 2) == expected).all()
    assert (block(A, 3, 3, 2) == expected).all()
    assert verify_recursive_blocks(2, 1).passed


def test_recursive_blocks_all_small():
    for n in (2, 3, 4):
        for k in range(1, n):
            report = verify_recursive_blocks(n, k)
            assert report.passed, report.failures()[:1]


@pytest.mark.parametrize(
    "where, cell, detail",
    [
        ((1, 3), (1, 16), "entry (2,5) is 1, expected 0"),  # a zero block
        ((4, 4), (18, 19), "entry (1,2) is 0, expected 1"),  # the last corner: (1,2,3,4) -- (1,3,2,4) is an edge
        ((2, 3), (7, 13), "entry (2,2) is 0, expected 1"),  # an identity flank, on its diagonal
    ],
    ids=["zero", "corner", "flank"],
)
def test_block_checks_name_a_flipped_cell(flip_stacked_counts, where, cell, detail):
    flip_stacked_counts(1, cell)
    for report in (verify_recursive_blocks(3, 1), verify_permutahedron_blocks(3)):
        failures = [a for a in report.failures() if a.name != "block-regularity"]
        assert len(failures) == 1
        (bad,) = failures
        assert (bad.block, bad.detail) == (where, detail)
        assert bad.witness == (cell[0] - (where[0] - 1) * 6 + 1, cell[1] - (where[1] - 1) * 6 + 1)


def test_recursive_blocks_rejects_k0():
    with pytest.raises(ValueError):
        verify_recursive_blocks(3, 0)


def test_permutahedron_blocks_small():
    for n in (2, 3, 4):
        report = verify_permutahedron_blocks(n)
        assert report.passed, report.failures()[:1]


def test_permutahedron_diag_regularities():
    S = enumerate_permutations(3)
    A = adjacency_matrix(4, 1, concatenated_ordering(S))
    regs = [block_regularity(block(A, i, i, 6)) for i in range(1, 5)]
    assert regs == [2, 1, 1, 2]


def test_permutahedron_degenerate_interior():
    # n = 2: the interior generating set is empty, the block is 2x2 zero
    S = enumerate_permutations(2)
    A = adjacency_matrix(3, 1, concatenated_ordering(S))
    assert not block(A, 2, 2, 2).any()
    report = verify_permutahedron_blocks(2)
    assert report.passed
    notes = [a.detail for a in report.assertions if a.name == "interior-subgraph"]
    assert any("empty" in note for note in notes)


# ---------------------------------------------------------------- subgraphs

def test_excluded_transposition_matrix_brute():
    shuffled = list(enumerate_permutations(4))
    random.Random(4).shuffle(shuffled)
    orderings = [enumerate_permutations(n) for n in (3, 4, 5)] + [tuple(shuffled)]
    for S in orderings:
        n = len(S[0])
        for skip in range(1, n):
            A = excluded_transposition_matrix(n, skip, S)
            for i, u in enumerate(S):
                for j, v in enumerate(S):
                    related = any(
                        (*u[: x - 1], u[x], u[x - 1], *u[x + 1 :]) == v
                        for x in range(1, n)
                        if x != skip
                    )
                    assert bool(A[i, j]) == related
            assert block_regularity(A) == n - 2


def test_excluded_transposition_matrix_errors():
    with pytest.raises(ValueError):
        excluded_transposition_matrix(3, 0)
    with pytest.raises(ValueError):
        excluded_transposition_matrix(3, 3)
    with pytest.raises(CapExceeded, match="matrix cap"):
        excluded_transposition_matrix(8, 1)


# ---------------------------------------------------------------- exports

def test_matrix_to_text():
    assert matrix_to_text(np.array([[0, 1], [1, 0]])) == "01\n10\n"
    assert matrix_to_text(np.eye(2, dtype=bool)) == "10\n01\n"
    text = matrix_to_text(adjacency_matrix(5, 2))
    assert hashlib.sha256(text.encode()).hexdigest() == "47a4d7945eb8191257cfbd654fa911180a5bb5ba5435b5b8c2e0ec3e84594084"


@pytest.mark.parametrize(
    "bad, message",
    [
        ([[0, 12], [12, 0]], "entries must be 0 or 1"),
        ([[0, 1], [-1, 0]], "entries must be 0 or 1"),
        ([[0.5]], "entries must be 0 or 1"),
        ([0, 1], "2-D matrix"),
        ([[[0, 1]]], "2-D matrix"),
    ],
)
def test_matrix_to_text_refuses_anything_but_a_01_grid(bad, message):
    with pytest.raises(ValueError, match=message):
        matrix_to_text(bad)


def test_block_checks_make_no_per_vertex_tuple_calls(monkeypatch):
    # the base and stacked orderings stay uint8 arrays end to end: with the
    # per-permutation tuple helpers disabled everywhere, every check still runs
    def forbidden(*args, **kwargs):
        raise AssertionError("per-vertex tuple call")

    for name, module in list(sys.modules.items()):
        if name == "fjgraphs" or name.startswith("fjgraphs."):
            for helper in ("check_permutation", "is_permutation", "insertion"):
                if hasattr(module, helper):
                    monkeypatch.setattr(module, helper, forbidden)
    S = list(enumerate_permutations(6))
    random.Random(6).shuffle(S)
    for k in range(1, 6):
        assert verify_recursive_blocks(6, k, S).passed
    assert verify_permutahedron_blocks(6, S).passed
    assert np.array_equal(regularity_matrix_from_blocks(7, S), regularity_matrix(7))
    assert verify_intertwining(7, S)


# ---------------------------------------------------------------- the shared stacked counts

def _stacked_checks(S):
    # the eight checks that read the stacked counts of the base ordering S of [6]
    return [
        *(lambda k=k: verify_recursive_blocks(6, k, S).passed for k in range(1, 6)),
        lambda: verify_permutahedron_blocks(6, S).passed,
        lambda: np.array_equal(regularity_matrix_from_blocks(7, S), regularity_matrix(7)),
        lambda: verify_intertwining(7, S),
    ]


def test_stacked_checks_build_the_counts_once(monkeypatch):
    # one slot holds the base and the stacked counts that all eight checks read:
    # one 2-D count of the 720 base rows, and bands of the 5040 stacked rows
    # that cover each stacked row once
    real_counts, real_band = blocks_module._prefix_mismatch_counts, blocks_module._mismatch_band
    builds, band_rows = Counter(), Counter()

    def counted(V):
        builds[len(V)] += 1
        return real_counts(V)

    def banded(masks, rows, cols, buffer):
        band_rows.update(range(masks.shape[1])[rows])
        return real_band(masks, rows, cols, buffer)

    monkeypatch.setattr(blocks_module, "_prefix_mismatch_counts", counted)
    monkeypatch.setattr(blocks_module, "_mismatch_band", banded)
    S = list(enumerate_permutations(6))
    random.Random(15).shuffle(S)
    assert all(check() for check in _stacked_checks(S))
    assert builds == Counter({720: 1})
    assert band_rows == Counter(range(5040))
    slot = blocks_module._stacked_counts(6, (np.array(S, dtype=np.uint8) - 1).tobytes())
    assert not any(counts.flags.writeable for counts in (slot.base, slot.C))
    assert blocks_module._stacked_counts.cache_info().misses == 1


def test_block_checks_build_the_base_counts_once(monkeypatch):
    real = blocks_module._prefix_mismatch_counts
    base_builds = []

    def counted(V):
        if len(V) == 720:
            base_builds.append(V)
        return real(V)

    monkeypatch.setattr(blocks_module, "_prefix_mismatch_counts", counted)
    S = list(enumerate_permutations(6))
    random.Random(20).shuffle(S)
    assert all(check() for check in _stacked_checks(S)[:6])  # the recursive and permutahedron checks
    assert len(base_builds) == 1
    base = blocks_module._stacked_counts(6, (np.array(S, dtype=np.uint8) - 1).tobytes()).base
    assert not base.flags.writeable


def test_stacked_counts_are_read_only():
    stacked = blocks_module._StackedBlocks(3, None, 1)
    for counts in (stacked.base, stacked.C):
        assert not counts.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            counts[0, 1] = 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_block_major_slot_holds_the_blocks_of_the_2d_counts(n):
    # C[i-1, j-1] is the (i, j) block of the (n+1)! x (n+1)! counts of the
    # stacked rows, as the 2-D route counts them, one contiguous read-only array
    for S in _bases(n):
        C = blocks_module._stacked_counts(n, S.tobytes()).C
        full, b = blocks_module._prefix_mismatch_counts(graphs_module._insertion_images(S, range(1, n + 2))), len(S)
        assert C.shape == (n + 1, n + 1, b, b) and C.dtype == np.uint8
        for i in range(1, n + 2):
            for j in range(1, n + 2):
                B = C[i - 1, j - 1]
                assert np.array_equal(B, block(full, i, j, b)), (i, j)
                assert B.flags.c_contiguous and not B.flags.writeable, (i, j)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_alternating_base_orderings_read_their_own_counts(n):
    # each reader of a base ordering reads the blocks of that ordering at
    # every k, and its slot's minima and k = 1 sums are those of its counts
    rng = random.Random(n)
    S, T = list(enumerate_permutations(n)), list(enumerate_permutations(n))
    rng.shuffle(S)
    rng.shuffle(T)
    m, b = n + 1, len(S)
    for base in (S, T, S, T):
        stacked_order = concatenated_ordering(base)
        for k in range(1, n + 1):
            stacked = blocks_module._StackedBlocks(n, base, k)
            assert stacked.b == b
            oracle = adjacency_matrix(n + 1, k, stacked_order)
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    assert np.array_equal(stacked.read(i, j), block(oracle, i, j, b)), (base, k, i, j)
        counts = graphs_module.prefix_mismatch_matrix(stacked_order).reshape(m, b, m, b)
        edges = adjacency_matrix(n + 1, 1, stacked_order).reshape(m, b, m, b)
        slot = stacked.slot
        assert np.array_equal(slot.minima, counts.min(axis=(1, 3))), base
        assert np.array_equal(slot.sums, np.stack([edges.sum(axis=3).swapaxes(1, 2), edges.sum(axis=1)])), base


def test_stacked_checks_hold_no_second_plane():
    # with the 5040 x 5040 slot warm, each check reads 720 x 720 blocks only:
    # a second full plane would be 25.4 MB, every block-sized buffer 0.5 MB
    S = list(enumerate_permutations(6))
    random.Random(16).shuffle(S)
    checks = _stacked_checks(S)
    assert checks[0]()
    for check in checks:
        tracemalloc.start()
        try:
            assert check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


# ---------------------------------------------------------------- the count identity the screen rests on

def _bases(n):
    # the lexicographic base rows of [n] and a seeded shuffle of them, 0-based uint8
    lex = np.array(enumerate_permutations(n), dtype=np.uint8) - 1
    return lex, lex[np.random.default_rng(n).permutation(len(lex))]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_stacked_blocks_obey_the_count_identity(n):
    # corners equal the base counts, flanks the base counts + 1, and a block
    # |i-j| >= 2 off the diagonal has no count below |i-j|
    for S in _bases(n):
        slot = blocks_module._stacked_counts(n, S.tobytes())
        slot_base, C = slot.base, slot.C
        base, b = blocks_module._prefix_mismatch_counts(S), len(S)
        assert np.array_equal(slot_base, base)
        for i in range(1, n + 2):
            for j in range(1, n + 2):
                B = C[i - 1, j - 1]
                if (i, j) in ((1, 1), (n + 1, n + 1)):
                    assert np.array_equal(B, base), (i, j)
                elif abs(i - j) == 1:
                    assert np.array_equal(B, base + 1), (i, j)
                elif abs(i - j) >= 2:
                    assert B.min() >= abs(i - j), (i, j)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stacked_count_is_the_gap_plus_the_outer_base_mismatches(n):
    # with n+1 at positions i <= j, the count is j-i plus the base mismatches
    # at prefix lengths 1..i-1 and j-1..n-1 (length i-1 twice when i = j), by
    # prefix sets summed from the rows, independent of the count routines
    for S in _bases(n):
        C = blocks_module._stacked_counts(n, S.tobytes()).C
        sets = np.cumsum(np.left_shift(1, S.astype(np.int64)), axis=1)
        mismatch = [np.zeros((len(S), len(S)), dtype=np.int64)]  # length 0: both prefixes empty
        mismatch += [(sets[:, L - 1, None] != sets[:, L - 1]).astype(np.int64) for L in range(1, n + 1)]
        for i in range(1, n + 2):
            for j in range(1, n + 2):
                lo, hi = min(i, j), max(i, j)
                expected = hi - lo + sum(mismatch[1:lo] + mismatch[hi - 1 : n], start=mismatch[0])
                assert np.array_equal(C[i - 1, j - 1], expected), (i, j)


def _count_reads(monkeypatch):
    # the 1-based blocks that _StackedBlocks.read is asked for, in order
    reads, real = [], blocks_module._StackedBlocks.read

    def counted(self, i, j):
        reads.append((i, j))
        return real(self, i, j)

    monkeypatch.setattr(blocks_module._StackedBlocks, "read", counted)
    return reads


def _faulted_counts(C, k):
    # a copy of the block-major C in which a corner cell whose count is not k
    # takes another value that is not k, and a cell of the zero block (1, k+2),
    # farther than k from the diagonal, falls below k+1 without reaching k
    C = C.copy()
    r, c = np.argwhere(C[0, 0] > k)[0]
    C[0, 0, r, c] += 1
    C[0, k + 1, 0, 0] = k - 1
    return C


@pytest.mark.parametrize("n, k", [(3, 1), (4, 1), (4, 2), (5, 3)])
def test_a_screen_miss_keeps_every_verdict(monkeypatch, n, k):
    # both faults leave ``== k`` unchanged, so the screens miss and the cell
    # by cell comparison they fall back on must give the unpatched reports.
    # Every check reads a new slot with empty facts, clean or faulted, so the
    # reads of the two runs differ by the two screen misses alone
    checks = [lambda: verify_recursive_blocks(n, k)]
    if k == 1:
        checks.append(lambda: verify_permutahedron_blocks(n))
    reads, real = _count_reads(monkeypatch), blocks_module._stacked_counts

    def run(fault):
        # the reports of the checks, and the blocks each reads, on the counts ``fault`` makes of the real ones
        monkeypatch.setattr(blocks_module, "_stacked_counts", lambda *args: blocks_module._Slot(real(*args).base, fault(real(*args).C)))
        out = []
        for check in checks:
            reads.clear()
            out.append((check(), Counter(reads)))
        return out

    clean = run(lambda C: C)
    for (report, faulted_reads), (doc, clean_reads) in zip(run(lambda C: _faulted_counts(C, k)), clean):
        assert report.passed and report.to_dict() == doc.to_dict()
        assert faulted_reads - clean_reads == Counter([(1, 1), (1, k + 2)])  # both screens missed


def test_passing_recursive_checks_read_no_block(monkeypatch):
    S = list(enumerate_permutations(6))
    random.Random(19).shuffle(S)
    reads = _count_reads(monkeypatch)
    for k in range(1, 6):
        assert verify_recursive_blocks(6, k, S).passed
    assert reads == []


def test_regularity_checks_read_no_block(monkeypatch):
    # the regularity matrix and the intertwining check compare the sums the
    # slot holds as whole arrays, and read no block through the reader
    S = list(enumerate_permutations(6))
    random.Random(19).shuffle(S)
    reads = _count_reads(monkeypatch)
    assert np.array_equal(regularity_matrix_from_blocks(7, S), regularity_matrix(7))
    assert verify_intertwining(7, S)
    assert reads == []


def test_passing_permutahedron_blocks_on_a_warm_slot_read_no_block(monkeypatch):
    # after the recursive check of k = 1 has screened every zero, corner and
    # flank block, the permutahedron check takes the diagonal sums from the
    # slot and screens each interior block at the products of its
    # generators, so a passing check reads no block, and builds no rebuild
    S = list(enumerate_permutations(6))
    random.Random(21).shuffle(S)
    reads = _count_reads(monkeypatch)
    assert verify_recursive_blocks(6, 1, S).passed
    assert reads == []
    monkeypatch.setattr(blocks_module, "_excluded_transpositions", None)  # a rebuild would raise TypeError
    assert verify_permutahedron_blocks(6, S).passed
    assert reads == []


def _interior_fault(A, C, fault):
    # a copy of the block-major C with one fault in row r = len(A) // 2 of
    # the interior block (3, 3), whose cells ``== 1`` are the 0/1 matrix A:
    # an edge cell set to 0, a cell that is no edge set to 1, or an edge
    # moved to such a cell, which leaves the row sum as it was
    C, r = C.copy(), len(A) // 2
    edge, other = np.flatnonzero(A[r] == 1)[-1], np.flatnonzero((A[r] == 0) & (np.arange(len(A)) != r))[0]
    if fault in ("edge-to-0", "moved"):
        C[2, 2, r, edge] = 0 if fault == "edge-to-0" else 2
    if fault in ("extra-1", "moved"):
        C[2, 2, r, other] = 1
    return C


@pytest.mark.parametrize("fault", ["edge-to-0", "extra-1", "moved"])
@pytest.mark.parametrize("n", [4, 6])
def test_a_faulted_interior_block_is_read_once_and_named(monkeypatch, n, fault):
    # the interior screen misses on each fault, so the check reads the one
    # faulted block and compares it with the rebuild; its report is the clean
    # report with the two assertions of block (3, 3) as the cell-by-cell
    # comparison with the rebuilt Cayley graph gives them: the first differing
    # cell in row-major order, and the regularity of the faulted block
    S = list(enumerate_permutations(n))
    random.Random(n).shuffle(S)
    clean = verify_permutahedron_blocks(n, S).to_dict()
    real = blocks_module._stacked_counts
    slot = real(n, (np.array(S, dtype=np.uint8) - 1).tobytes())
    rebuilt = excluded_transposition_matrix(n, 2, S)
    assert np.array_equal(slot.C[2, 2] == 1, rebuilt)
    C = _interior_fault(rebuilt, slot.C, fault)
    monkeypatch.setattr(blocks_module, "_stacked_counts", lambda *args: blocks_module._Slot(real(*args).base, C))
    reads = _count_reads(monkeypatch)
    report = verify_permutahedron_blocks(n, S).to_dict()
    assert reads == [(3, 3)]
    got = (C[2, 2] == 1).astype(np.uint8)
    r, c = np.argwhere(got != rebuilt)[0]
    expected = [dict(a) for a in clean["assertions"]]
    at = [a["block"] for a in expected].index([3, 3])  # the interior assertion, then the regularity of (3, 3)
    detail = f"entry ({r + 1},{c + 1}) is {got[r, c]}, expected {rebuilt[r, c]}"
    expected[at : at + 2] = [
        {"name": "interior-subgraph", "block": [3, 3], "passed": False, "witness": [r + 1, c + 1], "detail": detail},
        {"name": "block-regularity", "block": [3, 3], "passed": False, "detail": f"regularity {block_regularity(got)}, expected {n - 2}"},
    ]
    assert report == {**clean, "passed": False, "assertions": expected}


# ---------------------------------------------------------------- the arrays a slot holds of its blocks

def _stacked_calls(n, S=None):
    # every stacked check of the base ordering S of [n], returning what the check returns
    return [
        *(lambda k=k: verify_recursive_blocks(n, k, S) for k in range(1, n)),
        lambda: verify_permutahedron_blocks(n, S),
        lambda: regularity_matrix_from_blocks(n + 1, S),
        lambda: verify_intertwining(n + 1, S),
    ]


def _outcome(call):
    # a report as its dict, a matrix as its list, a bool as is, a raised TheoremViolation as its message
    try:
        out = call()
    except TheoremViolation as violation:
        return f"TheoremViolation: {violation}"
    return out.to_dict() if isinstance(out, BlockReport) else out.tolist() if isinstance(out, np.ndarray) else out


def _all_pass(outcomes, n):
    # whether the outcomes of _stacked_calls(n) are those of checks that hold
    return all(report["passed"] for report in outcomes[:n]) and outcomes[n] == regularity_matrix(n + 1).tolist() and outcomes[n + 1] is True


def _recomputed(slot):
    # the minima, plane verdicts and k = 1 sums of ``slot``, reduced afresh block by block from its counts
    m, b = len(slot.C), len(slot.base)
    minima, plane, sums = np.zeros((m, m), dtype=np.uint8), np.zeros((m, m), dtype=bool), np.zeros((2, m, m, b), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            B = slot.C[i, j]
            minima[i, j] = B.min()
            plane[i, j] = (abs(i - j) == 1 or (i, j) in ((0, 0), (m - 1, m - 1))) and np.array_equal(B, slot.base + abs(i - j))
            sums[:, i, j] = (B == 1).sum(axis=1), (B == 1).sum(axis=0)
    return {"minima": minima, "plane": plane, "sums": sums}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_kept_facts_equal_fresh_reductions(n):
    lex = np.array(enumerate_permutations(n), dtype=np.uint8) - 1
    rng = np.random.default_rng(30 + n)
    shuffled = [lex[rng.permutation(len(lex))] for _ in range(2)]
    for S in [lex, *shuffled] if n < 6 else shuffled[:1]:
        assert _all_pass([_outcome(call) for call in _stacked_calls(n, S + 1)], n)
        slot = blocks_module._stacked_counts(n, S.tobytes())
        assert {"minima", "plane", "sums"} <= vars(slot).keys()  # computed by the checks above
        for name, fresh in _recomputed(slot).items():
            kept = getattr(slot, name)
            assert np.array_equal(kept, fresh) and not kept.flags.writeable, name
        assert slot.sums.dtype == np.uint16


def test_any_call_order_gives_the_cold_reports():
    S = list(enumerate_permutations(6))
    random.Random(22).shuffle(S)
    calls = _stacked_calls(6, S)
    cold = []
    for call in calls:
        blocks_module._stacked_counts.cache_clear()
        cold.append(_outcome(call))
    assert _all_pass(cold, 6)
    for seed in range(3):
        order = list(range(len(calls)))
        random.Random(seed).shuffle(order)
        blocks_module._stacked_counts.cache_clear()
        assert {index: _outcome(calls[index]) for index in order} == dict(enumerate(cold)), order


@pytest.mark.parametrize(
    "n, cell",
    [(3, (1, 16)), (3, (18, 19)), (3, (7, 13)), (3, (6, 13)), (3, (0, 1)), (6, (0, 1)), (6, (0, 1440)), (6, (2165, 2885))],
    ids=["zero", "corner", "flank", "off-flank", "in-corner", "corner-6", "zero-6", "flank-6"],
)
def test_a_flipped_cell_fails_alike_on_warm_and_cold_facts(monkeypatch, flip_stacked_counts, n, cell):
    # warm the arrays of the real lexicographic slot of base n with every
    # stacked check, then flip a cell: each check on the faulted counts, on a
    # new slot of its own or after all the others on one slot, gives the same
    # outcome, and the block checks name the flipped cell as their one failure
    calls = _stacked_calls(n)
    assert _all_pass([_outcome(call) for call in calls], n)
    flip_stacked_counts(1, cell)
    flipped = blocks_module._stacked_counts
    slot = flipped(n, (np.array(enumerate_permutations(n), dtype=np.uint8) - 1).tobytes())
    cold = []
    for call in calls:
        fresh = blocks_module._Slot(slot.base, slot.C)
        monkeypatch.setattr(blocks_module, "_stacked_counts", lambda *args: fresh)
        cold.append(_outcome(call))
    monkeypatch.setattr(blocks_module, "_stacked_counts", flipped)
    b = len(slot.base)
    for report in (cold[0], cold[n - 1]):  # the recursive check of k = 1 and the permutahedron check
        (bad,) = [a for a in report["assertions"] if not a["passed"] and a["name"] != "block-regularity"]
        assert bad["block"] == [cell[0] // b + 1, cell[1] // b + 1] and bad["witness"] == [cell[0] % b + 1, cell[1] % b + 1]
    for _ in range(2):
        assert [_outcome(call) for call in calls] == cold


def test_permutahedron_blocks_validate_the_base_ordering_once(validations):
    # one list of int tuples is validated by its first stacked check; the
    # other seven, and a second pass of all eight, take the memo's rows
    S = list(enumerate_permutations(5))
    random.Random(19).shuffle(S)
    assert verify_permutahedron_blocks(5, S).passed
    assert len(validations) == 1
    for _ in range(2):
        assert _all_pass([_outcome(call) for call in _stacked_calls(5, S)], 5)
    assert len(validations) == 1
