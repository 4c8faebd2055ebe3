"""A matrix is its rows' (nonzero, plain-1) masks: every mask operation
against a per-cell reference written here, the constructor's checks, and a
pin that the library builds and reads its matrices without touching cells."""

import contextlib
import csv
import io
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolrep import (
    CATALOG,
    GHOST,
    ONE,
    ZERO,
    BoolMatrix,
    FlatLattice,
    ReductionError,
    SbMatrix,
    UnknownLabel,
    dedupe_reduce,
    extract_representation,
    matroid_to_json,
    paper_reduce,
    verified_reduce,
    verify_representation,
)
from boolrep import sbool
from boolrep.cli import main
from boolrep.sbool import _bit_rows

TOKEN = {ZERO: "0", ONE: "1", GHOST: "1v"}
FLIP = {ZERO: ONE, ONE: ZERO, GHOST: GHOST}


@st.composite
def grids(draw, cells=(ZERO, ONE, GHOST)):
    """(grid, row labels, column labels), up to 6x6, either side may be 0."""
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    cell = st.sampled_from(cells)
    grid = [[draw(cell) for _ in range(n_cols)] for _ in range(n_rows)]
    return grid, tuple(f"r{i}" for i in range(n_rows)), tuple(f"c{j}" for j in range(n_cols))


@st.composite
def keys(draw, labels):
    """Some of the positions, in any order, each given by label or index."""
    order = draw(st.permutations(range(len(labels))))
    picked = order[: draw(st.integers(0, len(labels)))]
    return [labels[i] if draw(st.booleans()) else i for i in picked], picked


def cell_masks(vectors):
    """Per vector: the bitmasks of its nonzero and of its plain-1 cells."""
    vectors = list(vectors)
    nz = tuple(sum(1 << j for j, v in enumerate(vec) if v is not ZERO) for vec in vectors)
    one = tuple(sum(1 << j for j, v in enumerate(vec) if v is ONE) for vec in vectors)
    return nz, one


def columns(grid, n_cols):
    return [[row[j] for row in grid] for j in range(n_cols)]


def cell_text(grid, row_labels, col_labels):
    """The aligned grid, each column as wide as its widest token or label."""
    tokens = [[TOKEN[v] for v in row] for row in grid]
    label_w = max((len(s) for s in row_labels), default=0)
    widths = [max([len(c)] + [len(row[j]) for row in tokens]) for j, c in enumerate(col_labels)]
    lines = [" ".join([" " * label_w] + [c.rjust(w) for c, w in zip(col_labels, widths)]).rstrip()]
    for label, row in zip(row_labels, tokens):
        lines.append(" ".join([label.ljust(label_w)] + [t.rjust(w) for t, w in zip(row, widths)]).rstrip())
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(grids())
def test_masks_views_and_rearrangements_follow_the_cells(case):
    grid, rows, cols = case
    m = SbMatrix.of(grid, rows, cols)
    assert (m.nonzero, m.ones) == cell_masks(grid)
    assert m.entries == tuple(map(tuple, grid))
    assert m.shape == (len(rows), len(cols))
    for i, j in ((i, j) for i in range(len(rows)) for j in range(len(cols))):
        assert m.entry(rows[i], j) is grid[i][j]

    flipped = m.complement()
    assert flipped.entries == tuple(tuple(FLIP[v] for v in row) for row in grid)
    assert (flipped.row_labels, flipped.col_labels) == (rows, cols)

    turned = m.transpose()
    # the source's rows are seeded as the transpose's column masks
    assert "_col_masks" in turned.__dict__ and turned._col_masks == (m.nonzero, m.ones)
    assert turned.entries == tuple(map(tuple, columns(grid, len(cols))))
    assert (turned.row_labels, turned.col_labels) == (cols, rows)
    assert turned.transpose() == m

    # column masks: seeded by `of`, and transposed from the rows when built
    # by the constructor
    expected = cell_masks(columns(grid, len(cols)))
    assert m._col_masks == expected
    assert SbMatrix(m.nonzero, m.ones, rows, cols)._col_masks == expected

    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [["", *cols]] + [[label, *(TOKEN[v] for v in row)] for label, row in zip(rows, grid)]
    )
    assert m.to_csv() == out.getvalue()
    back = SbMatrix.from_csv(m.to_csv())
    assert back == m and back._col_masks == expected
    assert m.text() == cell_text(grid, rows, cols)
    # labels of 0 and 1 characters, so a column's tokens can set its width
    short = ("", "a", "b", "c", "d", "e")[: len(cols)]
    assert m.relabeled(col_labels=short).text() == cell_text(grid, rows, short)

    if any(GHOST in row for row in grid):
        with pytest.raises(ValueError, match="ghost"):
            _bit_rows(m)
        with pytest.raises(ValueError, match="ghost"):
            BoolMatrix(m.nonzero, m.ones, rows, cols)
    else:
        assert _bit_rows(m) == [[int(v is ONE) for v in row] for row in grid]
        assert BoolMatrix.of(grid, rows, cols).entries == m.entries


@settings(max_examples=300, deadline=None)
@given(grids(), st.data())
def test_entry_reads_one_cell_off_its_row_masks(case, data):
    """With the cell view patched to raise, `entry` agrees with the grid on
    every cell, each key a label or an index, for both matrix types; keys
    resolve row first, with the messages they raise everywhere else."""
    grid, rows, cols = case
    matrices = [SbMatrix.of(grid, rows, cols)]
    if not any(GHOST in row for row in grid):
        matrices.append(BoolMatrix.of(grid, rows, cols))
    with pytest.MonkeyPatch.context() as mp:
        # raising=False: where `entries` is a stored field, writing it raises too
        mp.setattr(SbMatrix, "entries", property(_no_cells), raising=False)
        for m in matrices:
            for i, j in product(range(len(rows)), range(len(cols))):
                row = rows[i] if data.draw(st.booleans()) else i
                col = cols[j] if data.draw(st.booleans()) else j
                assert m.entry(row, col) is grid[i][j]
            with pytest.raises(UnknownLabel, match="^no row labeled 'zz'$"):
                m.entry("zz", "zz")
            with pytest.raises(UnknownLabel, match="^row key True is neither"):
                m.entry(True, 0)
            if rows:
                with pytest.raises(UnknownLabel, match=f"^column index {len(cols)} out of range$"):
                    m.entry(rows[-1], len(cols))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_submatrix_picks_rows_and_gathers_columns(data):
    grid, rows, cols = data.draw(grids())
    m = SbMatrix.of(grid, rows, cols)
    row_keys, ri = data.draw(keys(rows))
    col_keys, ci = data.draw(keys(cols))
    expected = tuple(tuple(grid[i][j] for j in ci) for i in ri)
    for sub, want_cols in (
        (m.submatrix(rows=row_keys, cols=col_keys), ci),
        (m.submatrix(rows=row_keys), range(len(cols))),
    ):
        assert sub.entries == tuple(tuple(grid[i][j] for j in want_cols) for i in ri)
        assert sub.row_labels == tuple(rows[i] for i in ri)
        assert sub.col_labels == tuple(cols[j] for j in want_cols)
        assert sub._col_masks == cell_masks(columns(sub.entries, len(want_cols)))
    assert m.submatrix(rows=row_keys, cols=col_keys).entries == expected
    assert m.submatrix(cols=col_keys).entries == tuple(tuple(row[j] for j in ci) for row in grid)


@settings(max_examples=200, deadline=None)
@given(grids(), st.data())
def test_the_constructor_checks_every_mask(case, data):
    grid, rows, cols = case
    nz, one = cell_masks(grid)
    n = len(cols)
    SbMatrix(nz, one, rows, cols)
    if rows:
        i = data.draw(st.integers(0, len(rows) - 1))
        stray = 1 << data.draw(st.integers(n, n + 70))
        with pytest.raises(ValueError, match="outside"):
            SbMatrix(nz[:i] + (nz[i] | stray,) + nz[i + 1:], one, rows, cols)
        with pytest.raises(ValueError, match="outside"):
            SbMatrix(nz[:i] + (-1,) + nz[i + 1:], one, rows, cols)
        with pytest.raises(ValueError, match="not inside"):
            SbMatrix(nz, one[:i] + (one[i] | stray,) + one[i + 1:], rows, cols)
        if n:
            zero = (1 << n) - 1 & ~nz[i]
            if zero:  # a plain 1 where the cell is 0
                with pytest.raises(ValueError, match="not inside"):
                    SbMatrix(nz, one[:i] + (one[i] | zero,) + one[i + 1:], rows, cols)
        bad = data.draw(st.sampled_from([str(nz[i]), float(nz[i]), None, bool(nz[i])]))
        with pytest.raises(TypeError):
            SbMatrix(nz[:i] + (bad,) + nz[i + 1:], one, rows, cols)
        with pytest.raises(TypeError):
            BoolMatrix(nz, one[:i] + (bad,) + one[i + 1:], rows, cols)
        with pytest.raises(ValueError, match="row label count"):
            SbMatrix(nz, one, rows[1:], cols)
        with pytest.raises(ValueError, match="mask counts"):
            SbMatrix(nz, one[1:], rows, cols)


def test_grids_that_are_not_rectangular_or_superboolean_are_refused():
    with pytest.raises(ValueError, match="ragged"):
        SbMatrix.of([[1, 0], [1]])
    with pytest.raises(ValueError, match="column label count"):
        SbMatrix.of([[1, 0]], col_labels=("x",))
    with pytest.raises(TypeError):
        SbMatrix.of([[1, None]])
    with pytest.raises(ValueError):
        SbMatrix.of([[1, 3]])
    with pytest.raises(ValueError, match="ghost"):
        BoolMatrix.of([[1, "1v"]])


# -- the library never touches a cell --------------------------------------------


def _no_cells(*_args):
    raise AssertionError("a cell was read or written")


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert err.getvalue() == "", err.getvalue()
    return code, out.getvalue()


def test_library_matrices_are_built_and_read_as_masks(pool, tmp_path, monkeypatch):
    """With the cell view and the cell parser patched to raise, the pipeline
    on the catalog and the pool runs on masks alone."""
    # raising=False: where `entries` is a stored field, writing it raises too
    monkeypatch.setattr(SbMatrix, "entries", property(_no_cells), raising=False)
    monkeypatch.setattr(sbool, "as_sbool", _no_cells)
    matroids = [e.matroid for e in CATALOG.values()] + list(pool)
    for n, matroid in enumerate(matroids):
        full = extract_representation(matroid)
        try:
            paper_reduce(full)
        except ReductionError:  # rank 2: the bottom row alone cannot separate pairs
            assert matroid.rank == 2
        dedupe_reduce(full)
        assert verify_representation(verified_reduce(full), matroid).ok
        lattice = FlatLattice.from_matroid(matroid)
        assert lattice.representation.complement() == lattice.structure_matrix

        src = tmp_path / f"m{n}.json"
        src.write_text(matroid_to_json(matroid))
        code, text = _cli("repr", str(src), "--format", "csv")
        assert code == 0
        matrix = tmp_path / f"m{n}.csv"
        matrix.write_text(text)
        assert _cli("verify", str(src), "--matrix", str(matrix))[0] == 0
        assert _cli("rank", str(matrix)) == (0, f"{matroid.rank}\n")
        assert _cli("lattice", str(src), "--format", "csv")[0] == 0
        assert _cli("partitions", str(src))[0] == 0
