"""Extraction pipeline: full matrix, row reductions, verification, bounds,
and the max-plus embedding."""

import contextlib
import csv
import io
import json
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boolrep.extraction as extraction
import boolrep.matroid as matroid_module
from boolrep import (
    GHOST,
    BoolMatrix,
    BoolrepError,
    DuplicateLabels,
    FlatLattice,
    GroundTooLarge,
    HereditaryCollection,
    LabelMismatch,
    ONE,
    ZERO,
    ReductionError,
    Representation,
    SbMatrix,
    TropicalMatrix,
    UnknownLabel,
    dedupe_reduce,
    extract_representation,
    matroid_from_json,
    matroid_to_json,
    paper_reduce,
    representation_to_json,
    size_bound,
    tropicalize,
    uniform,
    verified_reduce,
    verify_representation,
)
from boolrep.cli import main

import oracles
from conftest import pg25, pg32, read_golden
from oracles import (
    circuits_scan,
    flats_scan,
    greedy_drops_one_row_at_a_time,
    grid_of,
    indep_from_bases,
    independent_column_sets,
    rank_from_bases,
    vectors_independent,
)


# -- extraction -------------------------------------------------------------------


def test_extract_full_shape(fivept):
    rep = extract_representation(fivept)
    assert rep.matrix.shape == (13, 5)
    assert rep.reduction_mode == "full"
    assert rep.provenance == FlatLattice.from_matroid(fivept).names
    assert rep.matrix.row_labels == rep.provenance
    assert rep.matrix.col_labels == ("1", "2", "3", "4", "5")
    assert rep.row_count == 13


def test_extract_entry_rule(fivept):
    """Row F, column x holds 1 exactly when x lies outside the flat F."""
    rep = extract_representation(fivept)
    lattice = FlatLattice.from_matroid(rep.matroid)
    for name, mask in zip(lattice.names, lattice.flat_masks):
        for x in fivept.ground.labels:
            expected = ONE if not mask >> fivept.ground.index(x) & 1 else ZERO
            assert rep.matrix.entry(name, x) is expected


def test_extract_bottom_and_top_rows(u34):
    rep = extract_representation(u34)
    grid = rep.matrix.entries
    assert all(v is ONE for v in grid[0])
    assert all(v is ZERO for v in grid[-1])


def test_extracted_matrix_rank_is_matroid_rank(u34, fivept, k4m, w3m):
    for m in (u34, fivept, k4m, w3m):
        assert extract_representation(m).matrix.rank() == m.rank


def test_extraction_reducers_and_verify_build_no_lattice(pool, monkeypatch):
    """Extraction, the three reducers and verification read the matroid's
    flats alone: with the lattice construction made to fail they all
    succeed, and the rows are the lattice's elements in its order."""

    def refuse(*args):
        raise AssertionError("a lattice of flats was built")

    monkeypatch.setattr(FlatLattice, "from_matroid", refuse)
    fulls = []
    for m in pool:
        full = extract_representation(m)
        fulls.append(full)
        reduced = [dedupe_reduce(full), verified_reduce(full)]
        if m.rank >= 3:
            reduced.append(paper_reduce(full))
        for rep in (full, *reduced):
            assert verify_representation(rep, m).ok
    monkeypatch.undo()
    for full in fulls:
        assert full.provenance == FlatLattice.from_matroid(full.matroid).names


def test_smallest_nontrivial_extraction():
    rep = extract_representation(uniform(1, 1))
    assert rep.provenance == ("{}", "{1}")
    reduced = paper_reduce(rep)
    assert reduced.provenance == ("{}",)
    assert reduced.matrix.entries == ((ONE,),)


# -- reductions ------------------------------------------------------------------------


def test_reduction_keeps_bottom_and_tall_proper_flats(k4m):
    reduced = paper_reduce(extract_representation(k4m))
    assert reduced.provenance == (
        "{}",
        "{1,6}",
        "{2,3}",
        "{4,5}",
        "{1,2,4}",
        "{1,3,5}",
        "{2,5,6}",
        "{3,4,6}",
    )
    assert reduced.reduction_mode == "paper"
    lat = FlatLattice.from_matroid(reduced.matroid)
    for name in reduced.provenance[1:]:
        assert lat.element_height(name) >= 2
        assert name != lat.top


def test_reduction_is_a_row_selection(fivept):
    full = extract_representation(fivept)
    reduced = paper_reduce(full)
    assert reduced.matrix == full.matrix.submatrix(rows=reduced.provenance)
    assert reduced.matrix.to_csv() == read_golden("fivept_repr_paper.csv")


def test_paper_reduce_rejects_a_row_that_names_no_flat(k4m):
    # {1,2} spans the line {1,2,4}, so it is no flat of K4
    full = extract_representation(k4m)
    names = (full.provenance[0], "{1,2}") + full.provenance[2:]
    rep = Representation(full.matrix.relabeled(row_labels=names), "full", k4m)
    with pytest.raises(UnknownLabel, match=r"\{1,2\}"):
        paper_reduce(rep)


def test_reduce_refuses_non_full_input(fivept):
    reduced = paper_reduce(extract_representation(fivept))
    with pytest.raises(ReductionError):
        paper_reduce(reduced)


def test_reduce_fails_loudly_when_atom_rows_carry_information():
    # dropping both atom rows of the free matroid on two elements leaves
    # a single repeated-ones row, which can no longer separate {1,2}
    with pytest.raises(ReductionError):
        paper_reduce(extract_representation(uniform(2, 2)))


def test_reduction_errors_name_the_broken_certificate():
    full = extract_representation(uniform(2, 2))
    with pytest.raises(ReductionError, match=r"basis \{1,2\} is column-dependent"):
        paper_reduce(full)
    ones = BoolMatrix.of([[1, 1]] * 4, row_labels=full.provenance, col_labels=("1", "2"))
    start = Representation(ones, "full", full.matroid)
    with pytest.raises(ReductionError, match=r"basis \{1,2\} is column-dependent"):
        verified_reduce(start)


def test_reducers_refuse_past_the_cap_before_any_kernel_call(monkeypatch):
    full = extract_representation(uniform(3, 13))

    def refuse(*args):
        raise AssertionError("the independence kernel ran before the cap check")

    monkeypatch.setattr(SbMatrix, "columns_independent", refuse)
    monkeypatch.setattr(extraction, "_peel", refuse)
    for reduce in (paper_reduce, verified_reduce):
        with pytest.raises(GroundTooLarge, match="capped at 12 elements"):
            reduce(full)


def test_reducers_decide_by_certificates_alone(pool, monkeypatch):
    """Neither reducer walks every subset, and on an extraction, whose rows
    are all flat rows, neither lists circuits: with the exhaustive path and
    the circuit listing made to fail, both still reduce the whole pool, and
    their results verify."""

    def refuse(*args):
        raise AssertionError("a reducer ran the exhaustive check or listed circuits")

    monkeypatch.setattr(extraction, "_independent_column_sets", refuse)
    monkeypatch.setattr(extraction, "verify_representation", refuse)
    monkeypatch.setattr(matroid_module, "_circuit_masks", refuse)
    reduced = []
    for m in pool:
        full = extract_representation(m)
        if m.rank >= 3:
            reduced.append(paper_reduce(full))
        reduced.append(verified_reduce(full))
    monkeypatch.undo()
    assert all(verify_representation(rep, rep.matroid).ok for rep in reduced)


def test_verify_builds_no_collection(pool, monkeypatch):
    """verify compares the matrix's grown mask set with the keys of the
    matroid's extension table directly: it builds no HereditaryCollection
    and leaves `independent_family` unbuilt, which still validates once,
    when asked for."""
    built = []
    check = HereditaryCollection.__post_init__
    monkeypatch.setattr(
        HereditaryCollection, "__post_init__", lambda hc: built.append(hc) or check(hc)
    )
    for m in pool[:12]:
        matrix = extract_representation(m).matrix
        fresh = matroid_from_json(matroid_to_json(m))  # no family cached yet
        built.clear()
        assert verify_representation(matrix, fresh).ok
        assert built == [] and "independent_family" not in fresh.__dict__
        family = fresh.independent_family
        assert [hc.family for hc in built] == [family.family] == [set(fresh.independent_masks)]
        assert fresh.independent_family is family and len(built) == 1


def test_paper_reduction_holds_from_rank_three_and_fails_at_rank_two(pool):
    """The theorem in `paper_reduce`: every simple matroid of rank at least
    3 paper-reduces; at rank 2 only the bottom row is kept, and it cannot
    separate an independent pair."""
    reduced = refused = 0
    for m in pool:
        full = extract_representation(m)
        if m.rank >= 3:
            assert verify_representation(paper_reduce(full), m).ok
            reduced += 1
        elif m.rank == 2 and m.ground.size >= 2:
            with pytest.raises(ReductionError):
                paper_reduce(full)
            refused += 1
    assert (reduced, refused) == (51, 7)


def test_dedupe_drops_zero_and_duplicate_rows():
    matrix = BoolMatrix.of(
        ((ONE, ONE), (ONE, ONE), (ZERO, ZERO), (ONE, ZERO)),
        ("a", "b", "c", "d"),
        ("1", "2"),
    )
    m = uniform(2, 2)
    rep = Representation(matrix, "full", m)
    out = dedupe_reduce(rep)
    assert out.provenance == ("a", "d")
    assert out.reduction_mode == "dedupe"
    assert out.matrix.entries == ((ONE, ONE), (ONE, ZERO))


def test_strip_rows_compares_whole_rows():
    """A ghost in place of a 1 makes a different row, and a row of ghosts
    is not a zero row."""
    matrix = SbMatrix.of(
        [[1, 1], ["1v", 1], [1, 1], ["1v", "1v"], [0, 0]], row_labels=("a", "b", "c", "d", "e")
    )
    assert extraction._strip_rows(matrix) == matrix.submatrix(rows=("a", "b", "d"))


def test_dedupe_on_extraction_only_drops_the_top_row(u34):
    full = extract_representation(u34)
    out = dedupe_reduce(full)
    assert out.provenance == full.provenance[:-1]
    assert verify_representation(out, u34).ok


def test_verified_reduce_meets_the_catalog_row_counts(fivept, w3m):
    for matroid, cap in ((fivept, 7), (w3m, 10)):
        out = verified_reduce(extract_representation(matroid))
        assert out.reduction_mode == "verified"
        assert out.row_count <= cap
        assert verify_representation(out, matroid).ok


def test_verified_reduce_never_empties_the_matrix():
    out = verified_reduce(extract_representation(uniform(1, 1)))
    assert out.row_count >= 1
    assert verify_representation(out, uniform(1, 1)).ok


def test_verified_reduce_builds_no_matrix_per_candidate(monkeypatch):
    """One submatrix strips the start and one builds the result; the drops
    in between work on column masks."""
    calls = []
    submatrix = SbMatrix.submatrix

    def counted(self, rows=None, cols=None):
        calls.append(rows)
        return submatrix(self, rows, cols)

    full = extract_representation(uniform(4, 8))
    monkeypatch.setattr(SbMatrix, "submatrix", counted)
    out = verified_reduce(full)
    assert len(calls) == 2
    assert out.row_count < full.row_count - 1


# -- reduction against the loop it replaced ---------------------------------------------


def matroid_family(matroid):
    """The independent sets as bitmasks, from the bases alone."""
    is_indep = indep_from_bases(matroid.bases)
    return {mask for mask in range(1 << matroid.ground.size) if is_indep(mask)}


def reference_reduce(rep, matroid, verdicts):
    """The greedy loop verified_reduce replaced: strip zero and repeated
    rows, then drop each row whose removal keeps the oracle's independent
    column sets equal to the matroid's family.  Returns the kept row
    labels, or ReductionError when the result does not represent the
    matroid.

    Each candidate is also judged by certificates (every basis
    independent, every circuit dependent); `verdicts` collects the pairs
    (certificate verdict, family equality).
    """
    target = matroid_family(matroid)
    circuits = circuits_scan(matroid.bases, matroid.ground.size)
    rows, seen = [], set()
    for label, row in zip(rep.matrix.row_labels, grid_of(rep.matrix)):
        if any(row) and row not in seen:
            seen.add(row)
            rows.append((label, row))
    for label, _ in list(rows):
        if len(rows) == 1:
            break
        trial = [entry for entry in rows if entry[0] != label]
        family = independent_column_sets([row for _, row in trial])
        certified = all(b in family for b in matroid.bases) and not any(
            c in family for c in circuits
        )
        verdicts.append((certified, family == target))
        if family == target:
            rows = trial
    if independent_column_sets([row for _, row in rows]) != target:
        return ReductionError
    return tuple(label for label, _ in rows)


def reduce_outcome(rep):
    try:
        return verified_reduce(rep).provenance
    except BoolrepError as exc:
        return type(exc)


def flipped(rep, rng):
    """The representation with one to three random entries flipped 0 <-> 1."""
    grid = [list(row) for row in rep.matrix.entries]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(len(grid)), rng.randrange(len(grid[0]))
        grid[i][j] = ZERO if grid[i][j] is ONE else ONE
    matrix = BoolMatrix.of(
        tuple(map(tuple, grid)), rep.matrix.row_labels, rep.matrix.col_labels
    )
    return Representation(matrix, "full", rep.matroid)


def test_verified_reduce_matches_the_oracle_loop_on_the_pool(pool):
    """Also: on every candidate, the basis and circuit certificates agree
    with equality of the oracle's family and the matroid's."""
    verdicts = []
    for m in pool:
        rep = extract_representation(m)
        assert reduce_outcome(rep) == reference_reduce(rep, m, verdicts)
    assert all(certified == equal for certified, equal in verdicts)
    assert {equal for _, equal in verdicts} == {True, False}


def test_verified_reduce_matches_the_oracle_loop_on_broken_starts(pool):
    rng = random.Random(31)
    verdicts = []
    reduced = 0
    for m in pool:
        broken = flipped(extract_representation(m), rng)
        expected = reference_reduce(broken, m, verdicts)
        assert reduce_outcome(broken) == expected
        reduced += expected is not ReductionError
    assert all(certified == equal for certified, equal in verdicts)
    assert reduced > 0


def every_certificate(matroid):
    """The reducers' bases and every circuit: `_certificates` lists the
    circuits for rows that are not all flat rows."""
    return extraction._certificates(matroid, False)


def named(matroid, certificate):
    """How a ReductionError names a broken certificate."""
    mask = sum(1 << i for i in certificate)
    name = matroid.ground.subset_name(mask)
    if mask in matroid.bases:
        return f"basis {name} is column-dependent"
    return f"circuit {name} is column-independent"


def candidate_loop_reduce(rep, matroid):
    """The loop before the column-mask one: build each candidate matrix and
    check every basis and loose circuit on it.  Returns the kept row
    labels, or the error type and message."""
    bases, circuits = every_certificate(matroid)
    matrix = extraction._strip_rows(rep.matrix)
    loose = [c for c in circuits if matrix.columns_independent(c)]
    for label in matrix.row_labels:
        if matrix.n_rows == 1:
            break
        candidate = matrix.submatrix(rows=tuple(x for x in matrix.row_labels if x != label))
        if extraction._false_certificate(candidate, bases, loose) is None:
            matrix = candidate
            loose = []
    bad = extraction._false_certificate(matrix, bases, loose)
    if bad is not None:
        return ReductionError, (
            "greedy reduction produced a non-representation: " + named(matroid, bad)
        )
    return matrix.row_labels


def counting_circuit_lists(monkeypatch):
    """Patch the one circuit walk, `matroid._circuit_masks`, to count its
    calls; returns the call list."""
    calls = []
    walk = matroid_module._circuit_masks

    def counted(ground, family):
        calls.append(ground)
        return walk(ground, family)

    monkeypatch.setattr(matroid_module, "_circuit_masks", counted)
    return calls


def oracle_flat_rows(matrix, matroid):
    """Is every row free of ghosts and zero exactly on a flat of the
    oracles' scan?"""
    flats = set(flats_scan(matroid.bases, matroid.ground.size))
    return all(
        2 not in row and sum(1 << j for j, v in enumerate(row) if v == 0) in flats
        for row in grid_of(matrix)
    )


def test_verified_reduce_matches_the_candidate_loop(pool, monkeypatch):
    """Kept rows, or error type and message, agree with the per-candidate
    loop on every full representation, its broken copies and three seeded
    flipped starts.  Circuits are listed exactly when some stripped row is
    not a flat row."""
    rng = random.Random(37)
    listed = counting_circuit_lists(monkeypatch)
    outcomes = set()
    for m in pool:
        full = extract_representation(m)
        starts = [full, *(flipped(full, rng) for _ in range(3))]
        starts.extend(
            Representation(matrix, "full", m)
            for matrix in broken_copies(full.matrix, rng)
        )
        for rep in starts:
            expected = candidate_loop_reduce(rep, m)
            stripped = extraction._strip_rows(rep.matrix)
            listed.clear()
            try:
                got = verified_reduce(rep).provenance
            except BoolrepError as exc:
                got = type(exc), str(exc)
            assert got == expected
            assert bool(listed) == (not oracle_flat_rows(stripped, m))
            outcomes.add((got[0] is ReductionError, bool(listed)))
    assert {failed for failed, _ in outcomes} == {True, False}
    assert {listed for _, listed in outcomes} == {True, False}


def test_paper_reduce_lists_circuits_only_for_rows_that_are_not_flat_rows(
    pool, monkeypatch
):
    """On flipped and broken starts, the kept rows, or the error message,
    are those of the check on every basis and every circuit, and circuits
    are listed exactly when some kept row is not a flat row."""
    rng = random.Random(43)
    listed = counting_circuit_lists(monkeypatch)
    outcomes = set()
    for m in pool:
        if m.rank < 3:
            continue
        full = extract_representation(m)
        starts = [full, flipped(full, rng)]
        starts.extend(
            Representation(matrix, "full", m)
            for matrix in broken_copies(full.matrix, rng)
        )
        for rep in starts:
            kept = rep.matrix.submatrix(rows=paper_rows(rep))
            bad = extraction._false_certificate(kept, *every_certificate(m))
            expected = paper_rows(rep) if bad is None else (
                ReductionError,
                "dropping atom and top rows broke a certificate: " + named(m, bad),
            )
            listed.clear()
            try:
                got = paper_reduce(rep).provenance
            except ReductionError as exc:
                got = type(exc), str(exc)
            assert got == expected
            assert bool(listed) == (not oracle_flat_rows(kept, m))
            outcomes.add((got[0] is ReductionError, bool(listed)))
    assert {failed for failed, _ in outcomes} == {True, False}
    assert {listed for _, listed in outcomes} == {True, False}


def test_a_matroid_answers_from_its_table_without_a_collection(
    pool, tmp_path, monkeypatch, capsys
):
    """No library path builds a HereditaryCollection for a matroid.  With
    its constructor made to raise, verify, all three reducers (on
    extractions and on flipped and broken starts, whose circuits are
    listed), `Matroid.circuits()` and the CLI's `verify`, with and without
    `--matrix`, and `repr --reduce paper|verified` all still run on the
    pool, and `circuits()` lists the power-set scan's circuits."""
    rng = random.Random(59)
    fresh = [matroid_from_json(matroid_to_json(m)) for m in pool]  # nothing cached
    files = []
    for k, m in enumerate(fresh):
        source, matrix = tmp_path / f"m{k}.json", tmp_path / f"m{k}.csv"
        source.write_text(matroid_to_json(m), encoding="utf-8")
        broken = next(broken_copies(extract_representation(m).matrix, rng))
        matrix.write_text(broken.to_csv(), encoding="utf-8")
        files.append((str(source), str(matrix)))

    def refuse(self):
        raise AssertionError("HereditaryCollection built")

    monkeypatch.setattr(HereditaryCollection, "__post_init__", refuse)
    listed = counting_circuit_lists(monkeypatch)
    verdicts, codes = set(), set()
    for m, (source, matrix) in zip(fresh, files):
        expected = sorted(circuits_scan(m.bases, m.ground.size), key=m.ground.sort_key)
        assert m.circuits() == tuple(m.ground.labels_of(c) for c in expected)
        full = extract_representation(m)
        starts = [full, flipped(full, rng)]
        starts.extend(Representation(x, "full", m) for x in broken_copies(full.matrix, rng))
        for rep in starts:
            verdicts.add(verify_representation(rep, m).ok)
            dedupe_reduce(rep)
            for reduce in (paper_reduce, verified_reduce) if m.rank >= 3 else (verified_reduce,):
                with contextlib.suppress(ReductionError):
                    reduce(rep)
        for argv in (
            ["verify", source],
            ["verify", source, "--matrix", matrix],
            ["repr", source, "--reduce", "paper"],
            ["repr", source, "--reduce", "verified"],
        ):
            codes.add((argv[0], main(argv)))
            capsys.readouterr()
        assert "independent_family" not in m.__dict__
    assert verdicts == {True, False} and listed
    assert codes == {("verify", 0), ("verify", 1), ("repr", 0), ("repr", 2)}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_flat_rows_call_no_circuit_independent(pool, data):
    """The fourth fact of `extraction`, against the oracles.  Rows are a
    random subset of a pool matroid's flat rows, with at most one entry
    set to 0, 1 or 1v.  `_flat_rows` holds exactly when every row is free
    of ghosts and zero on a flat of the oracles' scan, and then every
    circuit of the scan is column-dependent."""
    m = data.draw(st.sampled_from(pool))
    n = m.ground.size
    flats = flats_scan(m.bases, n)
    picked = data.draw(st.lists(st.sampled_from(flats), unique=True, max_size=8))
    grid = [[0 if flat >> e & 1 else 1 for e in range(n)] for flat in picked]
    if grid:
        change = data.draw(
            st.none()
            | st.tuples(st.sampled_from(grid), st.integers(0, n - 1), st.sampled_from((0, 1, 2)))
        )
        if change is not None:
            row, j, value = change
            row[j] = value
    matrix = SbMatrix.of(grid, col_labels=m.ground.labels)
    flat = oracle_flat_rows(matrix, m)
    assert extraction._flat_rows(matrix, m) == flat
    if flat:
        for circuit in circuits_scan(m.bases, n):
            cols = [j for j in range(n) if circuit >> j & 1]
            assert not vectors_independent([tuple(row[j] for row in grid) for j in cols])


def flat_row_matrix(matroid, flats):
    """The matrix of one flat row per flat, 1 exactly outside it."""
    n = matroid.ground.size
    grid = [[0 if flat >> e & 1 else 1 for e in range(n)] for flat in flats]
    return SbMatrix.of(grid, col_labels=matroid.ground.labels)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_flat_rows_holding_every_hyperplane_represent_the_matroid(pool, data):
    """The meet-generation theorem against brute force: the hyperplanes of
    the oracles' scan and a random set of other flats, in random order,
    pass exhaustive verification, and the certificate step accepts them
    without a peel."""
    m = data.draw(st.sampled_from(pool))
    n = m.ground.size
    flats = flats_scan(m.bases, n)
    hyperplanes = [f for f in flats if rank_from_bases(m.bases, f) == m.rank - 1]
    others = data.draw(st.lists(st.sampled_from(flats), unique=True, max_size=6))
    rows = data.draw(st.permutations(sorted(set(hyperplanes) | set(others))))
    matrix = flat_row_matrix(m, rows)
    assert verify_representation(matrix, m).ok
    with mock.patch.object(extraction, "_peel", side_effect=AssertionError("peeled")):
        assert extraction._certified(m, matrix, "paper", True, "unused").matrix is matrix


def test_paper_reduce_peels_nothing_from_rank_three(pool, monkeypatch):
    """From rank 3 the paper rows hold every hyperplane, so `paper_reduce`
    neither peels a basis nor lists a circuit; at rank 2 it falls back to
    peeling."""

    def refuse(*args):
        raise AssertionError("paper_reduce peeled or listed circuits")

    monkeypatch.setattr(extraction, "_peel", refuse)
    monkeypatch.setattr(matroid_module, "_circuit_masks", refuse)
    checked = 0
    for m in pool:
        if m.rank >= 3:
            paper_reduce(extract_representation(m))
            checked += 1
    assert checked == 51
    with pytest.raises(AssertionError, match="peeled"):
        paper_reduce(extract_representation(uniform(2, 4)))


def test_a_missing_hyperplane_falls_back_to_the_certificates(pool, monkeypatch):
    """Without one hyperplane's row the step peels the bases, and its
    verdict is that of every basis and circuit: the matrix, or the
    ReductionError naming the first broken certificate."""
    peels = []
    peel = extraction._peel
    monkeypatch.setattr(extraction, "_peel", lambda *args: peels.append(1) or peel(*args))
    verdicts = set()
    for m in pool:
        flats = flats_scan(m.bases, m.ground.size)
        for hyperplane in sorted(m.hyperplane_masks)[:2]:
            matrix = flat_row_matrix(m, [f for f in flats if f != hyperplane])
            bad = extraction._false_certificate(matrix, *every_certificate(m))
            peels.clear()
            try:
                got = extraction._certified(m, matrix, "paper", True, "dropped").matrix
            except ReductionError as exc:
                got = str(exc)
            assert peels
            assert got == (matrix if bad is None else "dropped: " + named(m, bad))
            verdicts.add(bad is None)
    assert verdicts == {True, False}


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from((0, 1, 2)), min_size=n, max_size=n),
            min_size=1,
            max_size=6,
        )
    )
)
def test_deleting_a_row_never_makes_a_dependent_column_set_independent(grid):
    family = independent_column_sets(grid)
    for i in range(len(grid)):
        assert independent_column_sets(grid[:i] + grid[i + 1:]) <= family


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from((0, 1, 2)), min_size=n, max_size=n),
            min_size=1,
            max_size=6,
        )
    )
)
def test_a_witness_survives_deleting_a_row_outside_it(grid):
    """The fact `verified_reduce` caches witnesses on: the witness rows of
    an independent column set carry a triangular nonsingular submatrix, so
    deleting any other row leaves the set independent."""
    matrix = SbMatrix.of(grid)
    for mask in independent_column_sets(grid):
        cols = [j for j in range(len(grid[0])) if mask >> j & 1]
        rows = matrix.witness(cols)
        assert rows is not None
        for i, label in enumerate(matrix.row_labels):
            if label in rows:
                continue
            kept = grid[:i] + grid[i + 1:]
            assert vectors_independent([tuple(row[j] for row in kept) for j in cols])
            others = [x for x in matrix.row_labels if x != label]
            assert matrix.submatrix(rows=others).columns_independent(cols)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from((0, 1, 2)), min_size=n, max_size=n),
            min_size=1,
            max_size=6,
        )
    )
)
def test_rows_that_can_go_together_can_go_in_any_part(grid):
    """The run fact of `extraction`, on every row set S of the grid: when
    deleting S leaves the independent column sets unchanged, deleting any
    S' inside S does too.  Row sets are masks; dropping one row of S at a
    time reaches every S'."""
    family = independent_column_sets(grid)

    def without(rows):
        kept = [row for i, row in enumerate(grid) if not rows >> i & 1]
        return independent_column_sets(kept) if kept else {0}

    can_go = {run for run in range(1 << len(grid)) if without(run) == family}
    for run in can_go:
        for i in range(len(grid)):
            if run >> i & 1:
                assert run & ~(1 << i) in can_go


# -- the batched greedy against the one-row pass ------------------------------------------


def greedy_inputs(rep):
    """What `verified_reduce` hands `_greedy_drops`: the stripped start's
    column masks and row count, the bases, and the loose circuits."""
    start = extraction._strip_rows(rep.matrix)
    flat = extraction._flat_rows(start, rep.matroid)
    bases, circuits = extraction._certificates(rep.matroid, flat)
    nz, one = start._col_masks
    loose = [c for c in circuits if not extraction._peel(nz, one, c)[1]]
    return nz, one, start.n_rows, bases, loose


def test_batched_greedy_drops_the_rows_of_the_one_row_pass(pool):
    """The same dropped-row mask as `oracles.greedy_drops_one_row_at_a_time`
    on every pool extraction, a flipped start and the broken copies of
    each, where loose circuits force one-row steps, and on the extractions
    of PG(3,2), PG(2,5) and U(4,16), called directly past the cap."""
    rng = random.Random(61)
    starts = []
    for m in pool:
        full = extract_representation(m)
        starts += [full, flipped(full, rng)]
        starts.extend(Representation(x, "full", m) for x in broken_copies(full.matrix, rng))
    starts.extend(extract_representation(m) for m in (pg32(), pg25(), uniform(4, 16)))
    seen = set()
    for rep in starts:
        args = greedy_inputs(rep)
        gone = extraction._greedy_drops(*args)
        assert gone == greedy_drops_one_row_at_a_time(*args)
        seen.add((bool(args[4]), gone != 0))
    assert {(False, True), (True, True)} <= seen


def test_batched_greedy_peels_at_most_two_thirds_of_the_one_row_pass(monkeypatch):
    """A work count, not a timing: the `_peel` calls of one `verified_reduce`
    of the U(4,10) extraction, with the result unchanged.  The one-row pass
    makes 1,296 and the runs 742."""
    calls = []

    def counting(peel):
        def counted(*args):
            calls.append(args)
            return peel(*args)
        return counted

    monkeypatch.setattr(extraction, "_peel", counting(extraction._peel))
    monkeypatch.setattr(oracles, "_peel", counting(oracles._peel))
    full = extract_representation(uniform(4, 10))
    batched = verified_reduce(full).provenance
    runs = len(calls)
    calls.clear()
    monkeypatch.setattr(extraction, "_greedy_drops", greedy_drops_one_row_at_a_time)
    assert verified_reduce(full).provenance == batched
    assert 3 * runs <= 2 * len(calls)


# -- verification -----------------------------------------------------------------------


def oracle_report(matrix, matroid):
    """(ok, mismatches, checked count) from the definition, one subset at a
    time in canonical order."""
    ground = matroid.ground
    n = ground.size
    grid = grid_of(matrix)
    column = {
        label: tuple(row[j] for row in grid) for j, label in enumerate(matrix.col_labels)
    }
    order = sorted(
        range(1 << n), key=lambda m: (m.bit_count(), [i for i in range(n) if m >> i & 1])
    )
    mismatches = []
    for mask in order:
        labels = ground.labels_of(mask)
        if vectors_independent([column[x] for x in labels]) != matroid.is_independent_mask(mask):
            mismatches.append(labels)
    return not mismatches, tuple(mismatches), 1 << n


def with_column(matrix, j, values):
    grid = tuple(row[:j] + (v,) + row[j + 1:] for row, v in zip(matrix.entries, values))
    return SbMatrix.of(grid, matrix.row_labels, matrix.col_labels)


def broken_copies(matrix, rng):
    """One flipped entry, a column copied from another, a column of ghosts,
    a column of zeros."""
    n_rows, n_cols = matrix.shape
    j = rng.randrange(n_cols)
    column = [row[j] for row in matrix.entries]
    i = rng.randrange(n_rows)
    column[i] = ZERO if column[i] is ONE else ONE
    yield with_column(matrix, j, column)
    if n_cols > 1:
        k = rng.choice([c for c in range(n_cols) if c != j])
        yield with_column(matrix, j, [row[k] for row in matrix.entries])
    yield with_column(matrix, j, [ZERO if row[j] is ZERO else GHOST for row in matrix.entries])
    yield with_column(matrix, j, [ZERO] * n_rows)


def test_verify_matches_the_per_subset_definition(pool):
    rng = random.Random(17)
    outcomes = set()
    for m in pool:
        full = extract_representation(m).matrix
        cols = list(full.col_labels)
        rng.shuffle(cols)
        for matrix in (full, *broken_copies(full, rng), full.submatrix(cols=cols)):
            report = verify_representation(matrix, m)
            assert (report.ok, report.mismatches, report.checked_count) == oracle_report(
                matrix, m
            )
            outcomes.add(report.ok)
    assert outcomes == {True, False}


def paper_rows(rep):
    """The rows `paper_reduce` keeps, by lattice heights: the bottom and
    the proper flats of height at least 2."""
    lattice = FlatLattice.from_matroid(rep.matroid)
    return tuple(
        name
        for name in rep.provenance
        if name == lattice.bottom
        or (name != lattice.top and lattice.element_height(name) >= 2)
    )


def test_certificates_agree_with_exhaustive_verification(pool):
    """The reducers' certificate check finds a broken certificate exactly
    when exhaustive verification finds a mismatch, and the one it finds is
    the first mismatched basis, or with none, the first mismatched circuit."""
    rng = random.Random(23)
    outcomes = set()
    for m in pool:
        full = extract_representation(m)
        starts = (
            full.matrix,
            full.matrix.submatrix(rows=paper_rows(full)),
            *broken_copies(full.matrix, rng),
            flipped(full, rng).matrix,
        )
        bases, circuits = every_certificate(m)
        for matrix in starts:
            report = verify_representation(matrix, m)
            found = extraction._false_certificate(matrix, bases, circuits)
            outcomes.add(report.ok)
            if found is None:
                assert report.ok
                continue
            bad_bases = [s for s in report.mismatches if m.ground.mask_of(s) in m.bases]
            expected = bad_bases[0] if bad_bases else report.mismatches[0]
            assert m.ground.labels_of(sum(1 << i for i in found)) == expected
    assert outcomes == {True, False}


def test_catalog_extractions_verify(u34, fivept, k4m, w3m):
    for m in (u34, fivept, k4m, w3m):
        report = verify_representation(extract_representation(m), m)
        assert report.ok
        assert report.mismatches == ()
        assert report.checked_count == 1 << m.ground.size


def test_verify_accepts_a_bare_matrix(fivept):
    rep = paper_reduce(extract_representation(fivept))
    assert verify_representation(rep.matrix, fivept).ok


def test_verify_accepts_any_column_order(fivept):
    rep = paper_reduce(extract_representation(fivept))
    shuffled = rep.matrix.submatrix(cols=("5", "3", "1", "2", "4"))
    assert verify_representation(shuffled, fivept).ok


def test_flipping_one_entry_breaks_verification(k4m):
    rep = paper_reduce(extract_representation(k4m))
    i = rep.matrix.row_labels.index("{1,3,5}")
    j = rep.matrix.col_labels.index("1")
    assert rep.matrix.entries[i][j] is ZERO
    grid = [list(row) for row in rep.matrix.entries]
    grid[i][j] = ONE
    broken = BoolMatrix.of(
        tuple(tuple(row) for row in grid),
        rep.matrix.row_labels,
        rep.matrix.col_labels,
    )
    report = verify_representation(broken, k4m)
    assert not report.ok
    assert report.mismatches
    assert report.checked_count == 64
    keys = [k4m.ground.sort_key(k4m.ground.mask_of(s)) for s in report.mismatches]
    assert keys == sorted(keys)


def test_verify_rejects_mismatched_labels(fivept, k4m):
    rep = extract_representation(fivept)
    with pytest.raises(LabelMismatch):
        verify_representation(rep.matrix, k4m)


def test_verify_caps_the_ground_size():
    free13 = uniform(13, 13)
    labels = free13.ground.labels
    identity = BoolMatrix.of(
        [[1 if i == j else 0 for j in range(13)] for i in range(13)],
        row_labels=labels,
        col_labels=labels,
    )
    with pytest.raises(GroundTooLarge):
        verify_representation(identity, free13)


def test_representation_validation(fivept):
    rep = extract_representation(fivept)
    with pytest.raises(ValueError):
        Representation(rep.matrix, "squeeze", fivept)
    with pytest.raises(LabelMismatch):
        Representation(
            rep.matrix.submatrix(cols=("2", "1", "3", "4", "5")),
            "full",
            fivept,
        )


# -- bounds ---------------------------------------------------------------------------------


def test_size_bound_values(u34, fivept, k4m, w3m):
    assert size_bound(u34) == 15
    assert size_bound(fivept) == 26
    assert size_bound(k4m) == 42
    assert size_bound(w3m) == 42
    assert size_bound(uniform(1, 1)) == 2


def test_flat_count_respects_the_bound(u34, fivept, k4m, w3m, random_matroids):
    for m in (u34, fivept, k4m, w3m, *random_matroids):
        n, r = m.ground.size, m.rank
        bound = sum(math.comb(n, i) for i in range(r + 1))
        assert size_bound(m) == bound
        assert len(m.flat_masks) <= bound


# -- max-plus embedding -----------------------------------------------------------------------


def test_tropicalize_entries():
    matrix = BoolMatrix.of([[1, 0]], row_labels=("a",), col_labels=("x", "y"))
    trop = tropicalize(matrix)
    assert trop.entries == ((0.0, float("-inf")),)
    assert trop.row_labels == ("a",)


def test_tropicalize_entries_follow_the_flats(pool):
    """Entry (F, x) is 0.0 exactly when x lies outside the flat F, else
    -inf; the flats come from the power-set scan."""
    neg = float("-inf")
    for matroid in pool:
        ground = matroid.ground
        flats = {ground.subset_name(f): f for f in flats_scan(matroid.bases, ground.size)}
        trop = tropicalize(extract_representation(matroid))
        assert sorted(trop.row_labels) == sorted(flats)
        assert trop.entries == tuple(
            tuple(neg if flats[name] >> x & 1 else 0.0 for x in range(ground.size))
            for name in trop.row_labels
        )


def test_tropical_round_trip(fivept):
    rep = paper_reduce(extract_representation(fivept))
    assert tropicalize(rep).to_boolean() == rep.matrix


def test_tropical_round_trip_random(rng_matrices):
    for matrix in rng_matrices:
        back = tropicalize(matrix).to_boolean()
        assert back.entries == matrix.entries
        assert back.row_labels == matrix.row_labels
        assert back.col_labels == matrix.col_labels


@pytest.fixture
def rng_matrices():
    import random

    from conftest import random_bool_matrix

    rng = random.Random(7)
    return [random_bool_matrix(rng, rng.randint(1, 4), rng.randint(1, 4)) for _ in range(25)]


def test_tropicalize_rejects_ghosts():
    from boolrep import SbMatrix

    matrix = SbMatrix.of([["1v"]], row_labels=("a",), col_labels=("x",))
    with pytest.raises(ValueError):
        tropicalize(matrix)


def test_tropical_matrix_validates_entries():
    with pytest.raises(ValueError):
        TropicalMatrix(((1.0,),), ("a",), ("x",))


def test_tropical_matrix_validates_shape_and_labels():
    neg = float("-inf")
    with pytest.raises(ValueError):  # two row labels for one row
        TropicalMatrix(((0.0, neg),), ("r1", "r2"), ("a",))
    with pytest.raises(ValueError):  # ragged rows
        TropicalMatrix(((0.0,), (0.0, neg)), ("r1", "r2"), ("a", "b"))
    with pytest.raises(DuplicateLabels):
        TropicalMatrix(((0.0, neg),), ("r1",), ("a", "a"))


def test_tropicalize_builds_no_boolean_matrix(pool, monkeypatch):
    """The max-plus image checks its own shape and labels; a boolean matrix
    is built only when `to_boolean` asks for one."""
    reps = [extract_representation(m) for m in pool]
    built = []
    monkeypatch.setattr(BoolMatrix, "__post_init__", lambda self: built.append(self))
    trops = [tropicalize(rep) for rep in reps]
    assert built == []
    assert trops[0].to_boolean() == reps[0].matrix and len(built) == 1


def test_tropical_csv():
    matrix = BoolMatrix.of(
        [[1, 0], [0, 1]], row_labels=("a", "b"), col_labels=("x", "y")
    )
    assert tropicalize(matrix).to_csv() == ",x,y\na,0,-inf\nb,-inf,0\n"


def test_tropical_csv_quotes_labels_as_the_csv_module_does():
    rows, cols = ("r,1", 'say "hi"'), ("x", "a,b")
    matrix = BoolMatrix.of([[1, 0], [0, 1]], row_labels=rows, col_labels=cols)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerows([["", *cols], [rows[0], "0", "-inf"], [rows[1], "-inf", "0"]])
    assert tropicalize(matrix).to_csv() == out.getvalue()


# -- serialization ---------------------------------------------------------------------------


def test_representation_to_json():
    rep = extract_representation(uniform(2, 2))
    assert json.loads(representation_to_json(rep)) == {
        "rows": ["{}", "{1}", "{2}", "{1,2}"],
        "cols": ["1", "2"],
        "entries": [[1, 1], [0, 1], [1, 0], [0, 0]],
    }


def test_representation_to_json_rejects_ghosts():
    """A ghost entry has no 0/1 form, so it raises rather than reading 0."""
    full = extract_representation(uniform(3, 4))
    i, j = full.provenance.index("{}"), full.matrix.col_labels.index("1")
    grid = [list(row) for row in full.matrix.entries]
    grid[i][j] = GHOST
    matrix = SbMatrix.of(tuple(map(tuple, grid)), full.provenance, full.matrix.col_labels)
    with pytest.raises(ValueError):
        representation_to_json(Representation(matrix, "full", full.matroid))
