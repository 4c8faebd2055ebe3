"""Scalar tables, semiring laws, and matrix operations, against oracles."""

import csv
import gc
import io
import random
import re
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolrep import (
    GHOST,
    ONE,
    ZERO,
    BoolMatrix,
    DuplicateLabels,
    MatrixParseError,
    NonSquareError,
    SBool,
    SbMatrix,
    UnknownLabel,
    as_sbool,
)
from boolrep import sbool
from boolrep.sbool import _has_perfect_matching, sb_product, sb_sum

from conftest import random_matrix, read_golden
from oracles import (
    ADD,
    MUL,
    brute_col_rank,
    brute_row_rank,
    grid_of,
    permanent_dp,
    permanent_perms,
    rank_by_independent_sets,
    rank_by_submatrix,
    vectors_independent,
)

SCALARS = (ZERO, ONE, GHOST)
CODE = {ZERO: 0, ONE: 1, GHOST: 2}

scalar = st.sampled_from(SCALARS)


def small_matrix(max_rows=4, max_cols=4):
    return st.integers(1, max_rows).flatmap(
        lambda m: st.integers(1, max_cols).flatmap(
            lambda n: st.lists(
                st.lists(scalar, min_size=n, max_size=n), min_size=m, max_size=m
            ).map(SbMatrix.of)
        )
    )


# -- scalar arithmetic -------------------------------------------------------


def test_addition_matches_table():
    for a, b in product(SCALARS, repeat=2):
        assert CODE[a + b] == ADD[CODE[a], CODE[b]]


def test_multiplication_matches_table():
    for a, b in product(SCALARS, repeat=2):
        assert CODE[a * b] == MUL[CODE[a], CODE[b]]


def test_one_plus_one_is_ghost():
    assert ONE + ONE is GHOST
    assert GHOST + ONE is GHOST


def test_semiring_laws_exhaustive():
    for a, b in product(SCALARS, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    for a, b, c in product(SCALARS, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for a in SCALARS:
        assert ZERO + a == a
        assert ONE * a == a
        assert ZERO * a == ZERO


def test_boolean_subset_closed_under_multiplication_only():
    booleans = {ZERO, ONE}
    for a, b in product(booleans, repeat=2):
        assert a * b in booleans
    assert ONE + ONE not in booleans


def test_total_order():
    assert GHOST > ONE > ZERO
    assert sorted([GHOST, ZERO, ONE]) == [ZERO, ONE, GHOST]
    assert max(SCALARS) is GHOST


def test_ghost_ideal_membership():
    assert ZERO.is_ghost
    assert GHOST.is_ghost
    assert not ONE.is_ghost


def test_ghost_ideal_closed():
    ideal = {ZERO, GHOST}
    for a, b in product(ideal, repeat=2):
        assert a + b in ideal
    for a in ideal:
        for b in SCALARS:
            assert a * b in ideal


def test_tokens_round_trip():
    for v in SCALARS:
        assert SBool.from_token(v.token) is v
    assert GHOST.token == "1v"
    with pytest.raises(MatrixParseError):
        SBool.from_token("2")


def test_as_sbool_coercions():
    assert as_sbool(True) is ONE
    assert as_sbool(False) is ZERO
    assert as_sbool(0) is ZERO
    assert as_sbool(1) is ONE
    assert as_sbool(2) is GHOST
    assert as_sbool("1v") is GHOST
    assert as_sbool(GHOST) is GHOST
    with pytest.raises(ValueError):
        as_sbool(3)
    with pytest.raises(TypeError):
        as_sbool(None)


def test_empty_aggregates():
    assert sb_sum([]) is ZERO
    assert sb_product([]) is ONE
    assert sb_sum([ONE, ONE]) is GHOST
    assert sb_product([ONE, GHOST, ONE]) is GHOST


# -- matrix construction ------------------------------------------------------


def test_of_defaults_and_entry_access():
    m = SbMatrix.of([[1, 0], ["1v", 1]])
    assert m.shape == (2, 2)
    assert m.row_labels == ("r1", "r2")
    assert m.col_labels == ("c1", "c2")
    assert m.entry("r2", "c1") is GHOST
    assert m.entry(0, 1) is ZERO
    with pytest.raises(UnknownLabel):
        m.entry("r3", "c1")
    with pytest.raises(UnknownLabel):
        m.entry(0, 5)


def test_construction_rejects_bad_shapes():
    with pytest.raises(ValueError):
        SbMatrix.of([[1, 0], [1]])
    with pytest.raises(ValueError):
        SbMatrix.of([[1, 0]], row_labels=("a", "b"))
    with pytest.raises(DuplicateLabels):
        SbMatrix.of([[1, 0]], col_labels=("x", "x"))


def test_bool_matrix_rejects_ghost():
    with pytest.raises(ValueError):
        BoolMatrix.of([[1, "1v"]])
    assert BoolMatrix.of([[1, 0]]).complement().entries == ((ZERO, ONE),)


def test_bool_matrix_entry_errors():
    labels = ("r",), ("a", "b")
    # the row 1 1v: nonzero on both columns, a plain 1 on the first only
    with pytest.raises(ValueError, match="ghost"):
        BoolMatrix((0b11,), (0b01,), *labels)
    with pytest.raises(ValueError, match="ghost"):
        BoolMatrix.of([[ONE, GHOST]], *labels)
    with pytest.raises(TypeError):
        BoolMatrix((0b11,), ("3",), *labels)
    with pytest.raises(TypeError):
        BoolMatrix.of([[ONE, 1.0]], *labels)
    # a non-int mask is a TypeError even after a ghost, and so is a cell
    # that is no superboolean
    with pytest.raises(TypeError):
        BoolMatrix((0b11, 0b01), (0b01, None), ("r", "s"), labels[1])
    with pytest.raises(TypeError):
        BoolMatrix.of([[GHOST, None]], *labels)


def test_complement_examples():
    m = SbMatrix.of([[1, 1], [0, 1]])
    assert m.complement().entries == ((ZERO, ZERO), (ONE, ZERO))
    ghosts = SbMatrix.of([["1v", "1v"], ["1v", "1v"]])
    assert ghosts.complement() == ghosts
    b = SbMatrix.of([[1, 0], [0, 1]])
    assert b.complement().complement() == b


def test_transpose_example():
    m = SbMatrix.of([[1, 0], ["1v", 1]], row_labels=("a", "b"), col_labels=("x", "y"))
    t = m.transpose()
    assert t.entries == ((ONE, GHOST), (ZERO, ONE))
    assert t.row_labels == ("x", "y")
    assert t.col_labels == ("a", "b")
    assert t.transpose() == m


def test_complement_and_transpose_commute_exhaustive_2x2():
    for cells in product(SCALARS, repeat=4):
        m = SbMatrix.of([cells[:2], cells[2:]])
        assert m.complement().transpose() == m.transpose().complement()


@settings(max_examples=150)
@given(small_matrix())
def test_complement_and_transpose_commute(m):
    assert m.complement().transpose() == m.transpose().complement()


def test_submatrix_by_labels_and_indices():
    m = SbMatrix.of([[1, 0, 1], [0, 1, 1]], row_labels=("a", "b"), col_labels=("x", "y", "z"))
    s = m.submatrix(rows=("b",), cols=("z", "x"))
    assert s.entries == ((ONE, ZERO),)
    assert s.col_labels == ("z", "x")
    assert m.submatrix(rows=[1], cols=[2, 0]) == s
    assert m.submatrix() == m


def test_keys_are_labels_or_integer_indices_only():
    m = SbMatrix.of([[1, 0, 1], [0, 1, 1]], row_labels=("a", "b"), col_labels=("x", "y", "z"))
    for key in (1.7, 0.9, 2.0, True, False, None, b"x", ("x",)):
        calls = [
            lambda: m.entry(key, 0),
            lambda: m.entry(0, key),
            lambda: m.submatrix(rows=[key]),
            lambda: m.submatrix(cols=[0, key]),
            lambda: m.columns_independent([key]),
            lambda: m.rows_independent([key]),
            lambda: m.witness([key]),
        ]
        for call in calls:
            with pytest.raises(UnknownLabel, match=re.escape(repr(key))):
                call()
    # labels and integer indices keep their meaning
    assert m.entry("b", "z") is m.entry(1, 2) is ONE
    assert m.submatrix(rows=["b", 0], cols=[2, "x"]).entries == ((ONE, ZERO), (ONE, ONE))
    assert m.columns_independent([0, "y"]) and not m.columns_independent(["x", 1, 2])
    assert m.witness(["y", 0]) == m.witness([1, "x"]) == ("a", "b")
    with pytest.raises(UnknownLabel, match="out of range"):
        m.entry(0, 3)
    with pytest.raises(UnknownLabel, match="labeled 'w'"):
        m.witness(["w"])


def test_relabeled_and_permuted():
    m = SbMatrix.of([[1, 0], [0, 1]])
    r = m.relabeled(row_labels=("p", "q"))
    assert r.row_labels == ("p", "q") and r.entries == m.entries
    p = m.permuted([1, 0], [0, 1])
    assert p.entries == ((ZERO, ONE), (ONE, ZERO))


# -- permanent and nonsingularity ---------------------------------------------


def test_permanent_examples():
    assert SbMatrix.of([[1, 0], [0, 1]]).permanent() is ONE
    assert SbMatrix.of([[1, 1], [1, 1]]).permanent() is GHOST
    assert SbMatrix.of([[1, 0], ["1v", 1]]).permanent() is ONE
    assert SbMatrix.of([]).permanent() is ONE
    assert SbMatrix.of([[0, 0, 0], [0, 0, 0], [0, 0, 0]]).permanent() is ZERO


def test_permanent_rejects_non_square():
    with pytest.raises(NonSquareError):
        SbMatrix.of([[1, 0, 1]]).permanent()
    with pytest.raises(NonSquareError):
        SbMatrix.of([[1], [0]]).is_nonsingular()


def test_permanent_agrees_with_oracles_exhaustive_2x2():
    for cells in product(SCALARS, repeat=4):
        m = SbMatrix.of([cells[:2], cells[2:]])
        g = grid_of(m)
        assert CODE[m.permanent()] == permanent_perms(g) == permanent_dp(g)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(scalar, min_size=4, max_size=4), min_size=4, max_size=4))
def test_permanent_agrees_with_oracles_4x4(rows):
    m = SbMatrix.of(rows)
    g = grid_of(m)
    assert CODE[m.permanent()] == permanent_perms(g) == permanent_dp(g)


def test_permanent_oracle_pair_agrees_on_larger_sizes():
    rng = random.Random(7)
    for n in (5, 6, 7):
        for _ in range(12):
            g = grid_of(random_matrix(rng, n, n))
            assert permanent_perms(g) == permanent_dp(g)


def test_permanent_agrees_with_oracles_exhaustive_3x3():
    for cells in product(SCALARS, repeat=9):
        m = SbMatrix.of([cells[:3], cells[3:6], cells[6:]])
        g = grid_of(m)
        assert CODE[m.permanent()] == permanent_perms(g) == permanent_dp(g)


def test_permanent_agrees_with_oracles_on_larger_sizes():
    rng = random.Random(7)
    for n in (4, 5, 6, 7):
        for density in (0.3, 0.6, 0.9):
            for _ in range(4):
                m = SbMatrix.of(
                    [[rng.choice(("1", "1", "1v")) if rng.random() < density else "0"
                      for _ in range(n)] for _ in range(n)]
                )
                g = grid_of(m)
                assert CODE[m.permanent()] == permanent_perms(g) == permanent_dp(g)
    ones = SbMatrix.of([[1] * 8] * 8)
    assert ones.permanent() is GHOST
    assert permanent_perms(grid_of(ones)) == permanent_dp(grid_of(ones)) == CODE[GHOST]


def test_is_nonsingular_examples():
    assert SbMatrix.of([[1, 0], [0, 1]]).is_nonsingular()
    assert not SbMatrix.of([[1, 1], [1, 1]]).is_nonsingular()
    zero3 = SbMatrix.of([[0] * 3] * 3)
    assert not zero3.is_nonsingular()


def _in_triangular_form(m):
    n = m.n_rows
    for i in range(n):
        if m.entries[i][i] is not ONE:
            return False
        if any(m.entries[i][j] is not ZERO for j in range(i + 1, n)):
            return False
    return True


def test_triangular_form_examples():
    assert SbMatrix.of([[0, 1], [1, 0]]).triangular_form() == ((0, 1), (1, 0))
    assert SbMatrix.of([[1, 0], ["1v", 1]]).triangular_form() == ((0, 1), (0, 1))
    assert SbMatrix.of([[1, 1], [1, 1]]).triangular_form() is None


def test_triangular_form_matches_nonsingularity_exhaustive_2x2():
    for cells in product(SCALARS, repeat=4):
        m = SbMatrix.of([cells[:2], cells[2:]])
        form = m.triangular_form()
        assert (form is not None) == (permanent_perms(grid_of(m)) == 1)
        assert m.is_nonsingular() == (form is not None)
        if form is not None:
            assert _in_triangular_form(m.permuted(*form))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(scalar, min_size=3, max_size=3), min_size=3, max_size=3))
def test_triangular_form_when_present_is_triangular(rows):
    m = SbMatrix.of(rows)
    form = m.triangular_form()
    assert (form is not None) == m.is_nonsingular()
    if form is not None:
        assert _in_triangular_form(m.permuted(*form))


# -- independence, rank, witnesses ----------------------------------------------


def test_columns_independent_examples():
    ident = SbMatrix.of([[1, 0], [0, 1]])
    assert ident.columns_independent(("c1", "c2"))
    three = SbMatrix.of([[1, 0, 1], [0, 1, 1]])
    assert not three.columns_independent(("c1", "c2", "c3"))
    assert three.columns_independent(())
    with pytest.raises(UnknownLabel):
        three.columns_independent(("nope",))


def test_rows_independent_matches_column_view():
    rng = random.Random(11)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        for k in range(1, m.n_rows + 1):
            for rows in combinations(range(m.n_rows), k):
                expected = m.transpose().columns_independent(rows)
                assert m.rows_independent(rows) == expected


def test_rank_examples():
    assert SbMatrix.of([[1, 0], [0, 1]]).rank() == 2
    assert SbMatrix.of([[1, 1], [1, 1]]).rank() == 1
    assert SbMatrix.of([[0, 0], [0, 0]]).rank() == 0
    assert SbMatrix.of([["1v", "1v"], ["1v", "1v"]]).rank() == 0


@pytest.mark.parametrize("n", [1, 2, 5, 12, 20])
def test_rank_search_peels_the_identity_once_and_all_ones_at_most_twice(n, monkeypatch):
    """The n x n identity (rank n) peels whole at the empty union, so its
    core is empty and one peel is exact.  The all-ones matrix (rank 1) is
    all core; one core vector covers every coordinate, whose union leaves
    nothing viable, and every other core vector reaches that same union at
    the same depth.  Either way the search does not grow with n."""
    calls = []
    peel = sbool._peel

    def counted(nz, one, idxs):
        calls.append(1)
        return peel(nz, one, idxs)

    monkeypatch.setattr(sbool, "_peel", counted)
    identity = SbMatrix.of([[int(i == j) for j in range(n)] for i in range(n)])
    ones = SbMatrix.of([[1] * n] * n)
    calls.clear()
    assert identity.rank() == n
    assert len(calls) == 1
    calls.clear()
    assert ones.rank() == 1
    assert 1 <= len(calls) <= 2


def test_rank_frees_its_search_when_it_returns():
    """The memo is local to one call: rank() leaves no reference cycle for
    the collector, so nothing of its search outlives it."""
    rng = random.Random(41)
    matrices = [random_matrix(rng, rng.randint(4, 12), rng.randint(4, 12)) for _ in range(20)]
    matrices.append(SbMatrix.of([[1] * 6] * 6))
    gc.collect()
    gc.disable()
    try:
        for m in matrices:
            m.rank()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_rank_agrees_with_the_independent_set_search():
    """360 seeded matrices, 1-16 x 1-16, density 0.1-0.9 and ghost share
    0-0.3; every third one is sparse (density 0.1-0.25, both sides 10-16),
    since sparse matrices of nearly full rank keep a union search busiest.
    `rank()`, its transpose and the independent-set search agree."""
    rng = random.Random(31)
    sparse_near_full = 0
    for k in range(360):
        if k % 3 == 0:
            rows, cols, density = rng.randint(10, 16), rng.randint(10, 16), rng.uniform(0.1, 0.25)
        else:
            rows, cols, density = rng.randint(1, 16), rng.randint(1, 16), rng.uniform(0.1, 0.9)
        ghost = rng.uniform(0.0, 0.3)
        grid = [
            [(2 if rng.random() < ghost else 1) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
        m = SbMatrix.of(grid)
        r = m.rank()
        assert r == m.transpose().rank() == rank_by_independent_sets(grid), grid
        if k % 3 == 0 and r >= min(rows, cols) - 2:
            sparse_near_full += 1
    assert sparse_near_full >= 40


def test_rank_of_submatrix_never_exceeds_rank():
    rng = random.Random(13)
    for _ in range(40):
        m = random_matrix(rng, 4, 4)
        r = m.rank()
        rows = rng.sample(range(4), rng.randint(1, 4))
        cols = rng.sample(range(4), rng.randint(1, 4))
        assert m.submatrix(rows=rows, cols=cols).rank() <= r


def test_witness_examples():
    ident = SbMatrix.of([[1, 0], [0, 1]], row_labels=("p", "q"))
    assert ident.witness(("c1", "c2")) == ("p", "q")
    three = SbMatrix.of([[1, 0, 1], [0, 1, 1]])
    assert three.witness(("c1", "c2", "c3")) is None


def test_witness_on_extracted_matrix():
    """Dig the known permutation witness out of the reduced 7x5 matrix."""
    m = SbMatrix.from_csv(read_golden("fivept_repr_paper.csv"))
    cols = ("1", "2", "4")
    got = m.witness(cols)
    assert got is not None
    assert m.submatrix(rows=got, cols=cols).is_nonsingular()
    # exhaustive scan: the expected row triple is among the valid witnesses
    valid = [
        rows
        for rows in combinations(m.row_labels, 3)
        if permanent_perms(grid_of(m.submatrix(rows=rows, cols=cols))) == 1
    ]
    expected = ("{1,4}", "{2,4}", "{1,2,3}")
    assert expected in valid
    sub = grid_of(m.submatrix(rows=expected, cols=cols))
    assert sorted(row.count(1) for row in sub) == [1, 1, 1]
    assert sorted(col.count(1) for col in zip(*sub)) == [1, 1, 1]
    assert all(v != 2 for row in sub for v in row)


def test_witness_present_iff_columns_independent():
    rng = random.Random(17)
    for _ in range(120):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        for k in range(1, m.n_cols + 1):
            for cols in combinations(m.col_labels, k):
                w = m.witness(cols)
                assert (w is not None) == m.columns_independent(cols)
                if w is not None:
                    assert m.submatrix(rows=w, cols=cols).is_nonsingular()


def test_independence_matches_coefficient_oracle():
    rng = random.Random(19)
    for _ in range(80):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        g = grid_of(m)
        cols = list(zip(*g))
        for k in range(1, m.n_cols + 1):
            for picked in combinations(range(m.n_cols), k):
                expected = vectors_independent([cols[j] for j in picked])
                assert m.columns_independent(picked) == expected


grid_6x6 = st.integers(1, 6).flatmap(
    lambda m: st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from((0, 1, 2)), min_size=n, max_size=n),
            min_size=m, max_size=m,
        )
    )
)


@settings(max_examples=150, deadline=None)
@given(grid_6x6)
def test_peel_matches_coefficient_oracle_on_every_subset(grid):
    m = SbMatrix.of(grid)
    g = grid_of(m)
    cols = list(zip(*g))
    for k in range(1, m.n_cols + 1):
        for picked in combinations(range(m.n_cols), k):
            expected = vectors_independent([cols[j] for j in picked])
            assert m.columns_independent(picked) == expected
            w = m.witness(picked)
            assert (w is not None) == expected
            if w is not None:
                rows = [m.row_labels.index(r) for r in w]
                assert rows == sorted(rows)
                sub = tuple(tuple(g[i][j] for j in picked) for i in rows)
                assert permanent_perms(sub) == 1
    for k in range(1, m.n_rows + 1):
        for picked in combinations(range(m.n_rows), k):
            expected = vectors_independent([g[i] for i in picked])
            assert m.rows_independent(picked) == expected


def test_rank_on_tall_and_wide_matrices_matches_oracles():
    rng = random.Random(23)
    for shape in ((12, 4), (4, 12)):
        for _ in range(8):
            m = random_matrix(rng, *shape)
            g = grid_of(m)
            r = m.rank()
            assert r == brute_row_rank(g) == brute_col_rank(g) == rank_by_submatrix(g)
            assert r == m.transpose().rank() == rank_by_independent_sets(g)


def test_rank_of_block_diagonal_sums_past_the_oracles():
    """Blocks on disjoint rows and columns add their ranks, which reaches
    sizes the brute-force oracles cannot; rows and columns are shuffled so
    the blocks are not contiguous."""
    rng = random.Random(37)
    sizes = []
    for _ in range(12):
        blocks = [
            grid_of(random_matrix(rng, rng.randint(3, 5), rng.randint(3, 5)))
            for _ in range(rng.randint(2, 4))
        ]
        n_rows = sum(len(b) for b in blocks)
        n_cols = sum(len(b[0]) for b in blocks)
        grid = [[0] * n_cols for _ in range(n_rows)]
        top = left = 0
        for b in blocks:
            for i, row in enumerate(b):
                grid[top + i][left:left + len(row)] = row
            top, left = top + len(b), left + len(b[0])
        rows = rng.sample(range(n_rows), n_rows)
        cols = rng.sample(range(n_cols), n_cols)
        m = SbMatrix.of([[grid[i][j] for j in cols] for i in rows])
        expected = sum(brute_col_rank(b) for b in blocks)
        assert m.rank() == m.transpose().rank() == expected
        sizes.append((n_rows, n_cols, expected))
    assert max(max(r, c) for r, c, _ in sizes) >= 14
    assert max(k for _, _, k in sizes) >= 8


def _planted(rng, n):
    """An n x n matrix with plain 1s on the diagonal, zeros above it and
    random entries below, its rows and columns shuffled; also where each
    diagonal entry landed, as (row, column) positions."""
    grid = [
        [1 if j == i else 0 if j > i else rng.choice((0, 1, 2)) for j in range(n)]
        for i in range(n)
    ]
    rows = rng.sample(range(n), n)
    cols = rng.sample(range(n), n)
    diagonal = [(rows.index(k), cols.index(k)) for k in range(n)]
    return [[grid[i][j] for j in cols] for i in rows], diagonal


def _planted_triangular(rng, n):
    return _planted(rng, n)[0]


def test_independence_past_twenty_columns():
    rng = random.Random(29)
    grid = _planted_triangular(rng, 24)
    m = SbMatrix.of(grid)
    assert m.columns_independent(range(24))
    w = m.witness(range(24))
    assert w is not None and len(w) == 24
    assert m.submatrix(rows=w).is_nonsingular()
    doubled = SbMatrix.of([row + [row[5]] for row in grid])
    assert not doubled.columns_independent(range(25))
    assert doubled.witness(range(25)) is None
    assert doubled.columns_independent(range(24))


def test_nonsingularity_past_six_by_six():
    rng = random.Random(31)
    squares = []
    for n in (7, 8):
        for density in (0.2, 0.35, 0.5):
            for _ in range(12):
                squares.append(
                    [[rng.choice((1, 1, 2)) if rng.random() < density else 0
                      for _ in range(n)] for _ in range(n)]
                )
        # random squares are almost never nonsingular: also overwrite a few
        # entries of planted nonsingular ones
        for _ in range(24):
            grid, _ = _planted(rng, n)
            for _ in range(rng.randint(1, 3)):
                grid[rng.randrange(n)][rng.randrange(n)] = rng.choice((0, 1, 2))
            squares.append(grid)
    seen = set()
    for grid in squares:
        m = SbMatrix.of(grid)
        expected = permanent_dp(grid_of(m))
        form = m.triangular_form()
        assert CODE[m.permanent()] == expected
        assert m.is_nonsingular() == (expected == 1) == (form is not None)
        if form is not None:
            assert _in_triangular_form(m.permuted(*form))
        seen.add(expected)
    assert seen == {0, 1, 2}
    for n in range(10, 21):
        grid, diagonal = _planted(rng, n)
        m = SbMatrix.of(grid)
        form = m.triangular_form()
        assert m.is_nonsingular() and m.permanent() is ONE
        assert form is not None and _in_triangular_form(m.permuted(*form))
        # only the planted diagonal avoids the zeros, so a ghost on it
        # puts the whole permanent in the ghost ideal
        i, j = rng.choice(diagonal)
        grid[i][j] = 2
        m = SbMatrix.of(grid)
        assert not m.is_nonsingular()
        assert m.triangular_form() is None
        assert m.permanent() is GHOST


def _planted_pattern(rng, n, extra=3):
    """Row bitmasks of an n x n pattern holding a planted permutation plus
    `extra` random columns per row: it has a perfect matching."""
    perm = rng.sample(range(n), n)
    return [
        (1 << perm[i]) | sum(1 << j for j in rng.sample(range(n), extra))
        for i in range(n)
    ]


@pytest.mark.parametrize("n", [300, 800, 1500])
def test_matching_on_large_planted_patterns(n):
    """Answers known by construction, far past the permanent's other tests."""
    rng = random.Random(n)
    rows = _planted_pattern(rng, n)
    assert _has_perfect_matching(rows, n)
    zeroed = list(rows)
    zeroed[rng.randrange(n)] = 0
    assert not _has_perfect_matching(zeroed, n)
    # k + 1 rows inside the same k columns break Hall's condition
    for k in (1, 7, n // 2):
        cols = rng.sample(range(n), k)
        confined = list(rows)
        for i in rng.sample(range(n), k + 1):
            confined[i] = sum(1 << j for j in cols if rng.random() < 0.5) or 1 << cols[0]
        assert not _has_perfect_matching(confined, n)


def test_matching_on_staircases():
    """Row i of the lower staircase holds columns 0..i, of the upper one
    columns i..n-1; the diagonal is the only perfect matching of each."""
    n = 1000
    lower = [(1 << (i + 1)) - 1 for i in range(n)]
    upper = [((1 << n) - 1) & ~((1 << i) - 1) for i in range(n)]
    assert _has_perfect_matching(lower, n)
    assert _has_perfect_matching(upper, n)
    assert not _has_perfect_matching(lower[:-1] + [lower[-2]], n)


def test_matching_agrees_with_the_permanent_oracle_on_sparse_patterns():
    rng = random.Random(41)
    seen = set()
    for n in (9, 10, 11, 12):
        for density in (0.12, 0.2, 0.3):
            for _ in range(8):
                grid = [[1 if rng.random() < density else 0 for _ in range(n)]
                        for _ in range(n)]
                rows = [sum(1 << j for j, v in enumerate(row) if v) for row in grid]
                expected = permanent_dp(grid) != 0
                assert _has_perfect_matching(rows, n) == expected
                seen.add(expected)
    assert seen == {False, True}


# -- text forms -------------------------------------------------------------------


def test_csv_round_trip():
    m = SbMatrix.of(
        [[1, 0, "1v"], [0, 1, 1]], row_labels=("a", "b"), col_labels=("x", "y", "z")
    )
    text = m.to_csv()
    assert text == ",x,y,z\na,1,0,1v\nb,0,1,1\n"
    assert SbMatrix.from_csv(text) == m


def test_csv_quotes_labels_as_the_csv_module_does():
    rows, cols = ("r,1", 'say "hi"'), ("x", "a,b", 'q"')
    m = SbMatrix.of([[1, 0, "1v"], ["1v", 1, 0]], row_labels=rows, col_labels=cols)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["", *cols])
    writer.writerow([rows[0], "1", "0", "1v"])
    writer.writerow([rows[1], "1v", "1", "0"])
    assert m.to_csv() == out.getvalue()
    assert SbMatrix.from_csv(m.to_csv()) == m


def test_from_csv_rejects_malformed_text():
    with pytest.raises(MatrixParseError):
        SbMatrix.from_csv("")
    with pytest.raises(MatrixParseError):
        SbMatrix.from_csv("x,y\na,1,0\n")
    with pytest.raises(MatrixParseError):
        SbMatrix.from_csv(",x,y\na,1\n")
    with pytest.raises(MatrixParseError):
        SbMatrix.from_csv(",x,y\na,1,7\n")
    with pytest.raises(MatrixParseError):
        SbMatrix.from_csv(",x,x\na,1,0\n")
    with pytest.raises(MatrixParseError):  # past the csv module's field size limit
        SbMatrix.from_csv(",x\na," + "1" * 131_073 + "\n")


def test_text_rendering():
    m = SbMatrix.of([[1, "1v"], [0, 1]], row_labels=("aa", "b"), col_labels=("x", "y"))
    assert m.text() == "   x  y\naa 1 1v\nb  0  1\n"
