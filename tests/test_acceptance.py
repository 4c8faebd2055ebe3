"""Acceptance gate: one test per criterion, one PASS or FAIL line each.

Every numeric claim is checked against the independent oracles in
oracles.py or against the stored golden files, under the stated time
budgets.  Budgets are asserted, not advisory.
"""

import itertools
import random
import time

import pytest

from boolrep import (
    FlatLattice,
    SbMatrix,
    CATALOG,
    extract_representation,
    hereditary_from_matrix,
    maximal_chains,
    paper_reduce,
    partition_of_chain,
    exists_transversal_partition,
    transversal_bases,
    transversal_witness,
    tropicalize,
    size_bound,
    verify_representation,
)

from conftest import TOKENS, random_bool_matrix, random_matrix, read_golden
from oracles import (
    ENC,
    brute_col_rank,
    brute_row_rank,
    count_maximal_chains,
    grid_of,
    permanent_dp,
    permanent_perms,
    rank_by_submatrix,
)


def _run(capsys, num, body):
    t0 = time.perf_counter()
    try:
        detail = body()
    except BaseException as exc:
        with capsys.disabled():
            print(f"[acceptance {num:02d}] FAIL: {type(exc).__name__}: {exc}")
        raise
    dt = time.perf_counter() - t0
    with capsys.disabled():
        print(f"[acceptance {num:02d}] PASS: {detail} [{dt:.2f}s]")


@pytest.fixture(scope="module")
def pool_reps(pool):
    return [(m, extract_representation(m)) for m in pool]


def test_01_lattice_tables_match_stored_files(capsys, catalog_lattices):
    def body():
        sizes = {}
        for name in ("fivept", "k4", "w3"):
            t0 = time.perf_counter()
            lat = FlatLattice.from_matroid(CATALOG[name].matroid)
            text = lat.representation.to_csv()
            elapsed = time.perf_counter() - t0
            assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"
            assert text == read_golden(f"{name}_lattice.csv")
            sizes[name] = lat.size
        assert (sizes["fivept"], sizes["k4"], sizes["w3"]) == (13, 15, 17)
        row = catalog_lattices["fivept"].representation.submatrix(rows=("{1}",))
        spot = tuple(v.token for v in row.entries[0])
        assert spot == ("1", "0", "1", "1", "1", "1", "0", "0", "1", "1", "0", "1", "0")
        return "13x13, 15x15, 17x17 lattice tables byte-equal, spot row checked"

    _run(capsys, 1, body)


def test_02_reduced_tables_match_stored_files(capsys):
    def body():
        shapes = {}
        for name in ("fivept", "k4", "w3"):
            t0 = time.perf_counter()
            rep = paper_reduce(extract_representation(CATALOG[name].matroid))
            text = rep.matrix.to_csv()
            elapsed = time.perf_counter() - t0
            assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"
            assert text == read_golden(f"{name}_repr_paper.csv")
            shapes[name] = rep.matrix.shape
        assert shapes == {"fivept": (7, 5), "k4": (8, 6), "w3": (10, 6)}
        return "reduced tables are 7x5, 8x6, 10x6 and byte-equal"

    _run(capsys, 2, body)


def test_03_every_pool_matroid_verifies(capsys, pool):
    def body():
        t0 = time.perf_counter()
        for m in pool:
            report = verify_representation(extract_representation(m), m)
            assert report.ok, f"mismatches on {m.ground.labels}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"verification pool took {elapsed:.2f}s"
        return f"extracted and exhaustively verified {len(pool)} matroids"

    _run(capsys, 3, body)


def test_04_rank_equals_lattice_height(capsys, pool_reps):
    def body():
        for m, rep in pool_reps:
            lat = rep.lattice
            assert lat.representation_rank() == lat.height
            assert m.rank == lat.height
            assert rep.matrix.rank() == lat.height
        return f"matrix rank = lattice height = matroid rank on {len(pool_reps)} cases"

    _run(capsys, 4, body)


def test_05_transversals_are_exactly_independent_atom_sets(capsys, catalog_lattices):
    def body():
        t0 = time.perf_counter()
        checked = 0
        for name, lat in catalog_lattices.items():
            ground = lat.ground.labels
            for mask in range(1 << len(ground)):
                subset = tuple(
                    ground[i] for i in range(len(ground)) if mask >> i & 1
                )
                atoms = tuple(lat.atom_of(x) for x in subset)
                found = exists_transversal_partition(lat, subset)
                independent = lat.elements_independent(atoms)
                assert (found is not None) == independent
                if found is not None:
                    witness = transversal_witness(lat, found, subset)
                    assert lat.is_valid_witness(witness)
                    assert len(witness.rows) == len(subset) <= lat.height
                checked += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.2f}s"
        return f"transversal and independence agree on {checked} subsets"

    _run(capsys, 5, body)


def test_06_smallest_catalog_walkthrough(capsys, catalog_lattices):
    def body():
        lat = catalog_lattices["u34"]
        assert lat.size == 12
        chains = list(maximal_chains(lat))
        assert len(chains) == 12
        assert count_maximal_chains(lat) == 12
        chain = ("{}", "{1}", "{1,2}", "{1,2,3,4}")
        part = partition_of_chain(lat, chain)
        assert part.blocks == (("1",), ("2",), ("3", "4"))
        assert transversal_bases(part) == (("1", "2", "3"), ("1", "2", "4"))
        return "12 flats, 12 chains, pinned chain splits into {1}/{2}/{3,4}"

    _run(capsys, 6, body)


def _rank_case(matrix):
    grid = grid_of(matrix)
    lib = matrix.rank()
    assert lib == rank_by_submatrix(grid) == brute_row_rank(grid) == brute_col_rank(grid)


def test_07_rank_definitions_coincide(capsys):
    def body():
        t0 = time.perf_counter()
        for shape in ((2, 2), (3, 3)):
            cells = shape[0] * shape[1]
            for tokens in itertools.product(TOKENS, repeat=cells):
                rows = [
                    list(tokens[i * shape[1]:(i + 1) * shape[1]])
                    for i in range(shape[0])
                ]
                _rank_case(SbMatrix.of(rows))
        exhaustive = 3**4 + 3**9
        rng = random.Random(20260817)
        trials = 10_000
        for _ in range(trials):
            _rank_case(random_matrix(rng, 4, 5))
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"took {elapsed:.2f}s"
        return (
            f"rank agrees with all three oracles on {exhaustive} exhaustive"
            f" and {trials} random matrices"
        )

    _run(capsys, 7, body)


def test_08_nonsingular_iff_triangular_iff_unit_permanent(capsys):
    def body():
        t0 = time.perf_counter()

        def check(matrix, permanent):
            grid = grid_of(matrix)
            expected = permanent(grid) == 1
            assert matrix.is_nonsingular() == expected
            form = matrix.triangular_form()
            assert (form is not None) == expected
            if form is not None:
                rows, cols = form
                shuffled = matrix.permuted(rows, cols)
                n = matrix.n_rows
                for i in range(n):
                    assert shuffled.entries[i][i].token == "1"
                    assert all(v.token == "0" for v in shuffled.entries[i][i + 1:])

        for n in (2, 3):
            for tokens in itertools.product(TOKENS, repeat=n * n):
                rows = [list(tokens[i * n:(i + 1) * n]) for i in range(n)]
                check(SbMatrix.of(rows), permanent_perms)
        rng = random.Random(20260817)
        trials = 10_200
        for i in range(trials):
            n = 4 + i % 3
            matrix = random_matrix(rng, n, n)
            check(matrix, permanent_perms if n == 4 else permanent_dp)
        elapsed = time.perf_counter() - t0
        exhaustive = 3**4 + 3**9
        return (
            f"nonsingular, triangular witness, and permanent agree on"
            f" {exhaustive} exhaustive and {trials} random square matrices"
            f" [inner {elapsed:.2f}s]"
        )

    _run(capsys, 8, body)


def test_09_matrix_families_satisfy_point_replacement(capsys, random_matroids):
    def body():
        rng = random.Random(20260817)
        trials = 1_000
        for _ in range(trials):
            m = rng.randint(1, 5)
            n = rng.randint(1, 6)
            h = hereditary_from_matrix(random_bool_matrix(rng, m, n))
            assert h.satisfies_point_replacement
        for matroid in random_matroids:
            assert matroid.independent_family.satisfies_point_replacement
        return (
            f"point replacement holds for {trials} matrix families"
            f" and {len(random_matroids)} random matroids"
        )

    _run(capsys, 9, body)


def test_10_row_counts_respect_the_binomial_bound(capsys):
    def body():
        pairs = {"fivept": (13, 26), "k4": (15, 42), "w3": (17, 42)}
        for name, (rows, bound) in pairs.items():
            rep = extract_representation(CATALOG[name].matroid)
            assert rep.row_count == rows
            assert size_bound(rep.matroid) == bound
            assert rows <= bound
        return "full representations use 13<=26, 15<=42, 17<=42 rows"

    _run(capsys, 10, body)


def test_11_tropical_round_trip_is_identity(capsys, pool_reps):
    def body():
        for _, rep in pool_reps:
            assert tropicalize(rep).to_boolean() == rep.matrix
        return f"max-plus round trip is the identity on {len(pool_reps)} representations"

    _run(capsys, 11, body)


def test_12_proof_traces_hold_on_the_catalog(capsys, catalog_lattices):
    def body():
        bases_checked = 0
        circuits_checked = 0
        for name, entry in CATALOG.items():
            matroid = entry.matroid
            lat = catalog_lattices[name]
            ground = matroid.ground
            for basis in matroid.basis_sets():
                prefix = 0
                chain = [lat.bottom]
                for x in basis:
                    prefix |= 1 << ground.index(x)
                    chain.append(ground.subset_name(matroid.closure_mask(prefix)))
                part = partition_of_chain(lat, tuple(chain))
                for i, x in enumerate(basis):
                    assert x in part.blocks[i]
                bases_checked += 1
            for circuit in matroid.circuits():
                atoms = tuple(lat.atom_of(x) for x in circuit)
                assert not lat.elements_independent(atoms)
                circuits_checked += 1
        return (
            f"{bases_checked} basis chains are maximal with elements in"
            f" their own blocks; {circuits_checked} circuit atom sets are dependent"
        )

    _run(capsys, 12, body)
