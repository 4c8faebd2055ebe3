"""Shared fixtures: catalog objects and seeded random generators."""

import random
from itertools import combinations
from pathlib import Path

import pytest

from boolrep import (
    CATALOG,
    BoolrepError,
    FlatLattice,
    GroundSet,
    Matroid,
    SbMatrix,
    uniform,
)

GOLDEN = Path(__file__).parent / "golden"


def read_golden(name: str) -> str:
    return (GOLDEN / name).read_text()


@pytest.fixture(scope="session")
def u34():
    return CATALOG["u34"].matroid


@pytest.fixture(scope="session")
def fivept():
    return CATALOG["fivept"].matroid


@pytest.fixture(scope="session")
def k4m():
    return CATALOG["k4"].matroid


@pytest.fixture(scope="session")
def w3m():
    return CATALOG["w3"].matroid


@pytest.fixture(scope="session")
def catalog_lattices():
    return {name: FlatLattice.from_matroid(e.matroid) for name, e in CATALOG.items()}


# -- random generation -----------------------------------------------------

TOKENS = ("0", "1", "1v")


def random_matrix(rng: random.Random, n_rows: int, n_cols: int) -> SbMatrix:
    return SbMatrix.of(
        [[rng.choice(TOKENS) for _ in range(n_cols)] for _ in range(n_rows)]
    )


def random_bool_matrix(rng: random.Random, n_rows: int, n_cols: int) -> SbMatrix:
    return SbMatrix.of(
        [[rng.choice("01") for _ in range(n_cols)] for _ in range(n_rows)]
    )


def _xor_rank(vectors) -> int:
    basis = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def gf2_matroid(rng: random.Random, n: int, r: int) -> Matroid:
    """Column matroid of n distinct nonzero GF(2)^r vectors.

    Distinct nonzero columns make it simple: no zero column, no repeats.
    """
    cols = rng.sample(range(1, 1 << r), n)
    rank = _xor_rank(cols)
    bases = frozenset(
        sum(1 << i for i in combo)
        for combo in combinations(range(n), rank)
        if _xor_rank([cols[i] for i in combo]) == rank
    )
    ground = GroundSet(tuple(str(i + 1) for i in range(n)))
    return Matroid(ground, bases)


def line_matroid(rng: random.Random, n: int, tries: int) -> Matroid:
    """Rank-3 matroid on n points from random pairwise-sparse 3-point lines.

    Any family of triples meeting each other in at most one point is the
    set of dependent triples of a simple rank-3 matroid; construction is
    validated, and a rejected family falls back to no lines at all.
    """
    triples = list(combinations(range(n), 3))
    rng.shuffle(triples)
    lines = []
    for t in triples[:tries]:
        if all(len(set(t) & set(line)) <= 1 for line in lines):
            lines.append(t)
    banned = {sum(1 << i for i in t) for t in lines}
    ground = GroundSet(tuple(str(i + 1) for i in range(n)))
    bases = frozenset(
        mask
        for combo in combinations(range(n), 3)
        if (mask := sum(1 << i for i in combo)) not in banned
    )
    try:
        return Matroid(ground, bases)
    except BoolrepError:
        return uniform(3, n)


@pytest.fixture(scope="session")
def random_matroids():
    """At least 50 seeded, validated, simple matroids with up to 7 elements."""
    rng = random.Random(20260817)
    out = []
    for n, r in [(3, 2), (4, 3), (5, 3), (6, 3), (6, 4), (7, 3), (7, 4)]:
        for _ in range(3):
            out.append(gf2_matroid(rng, n, r))
    for n in (4, 5, 6, 7):
        for tries in (0, 1, 2, 3, 4, 6):
            out.append(line_matroid(rng, n, tries))
    out.extend([uniform(1, 1), uniform(2, 2), uniform(2, 3), uniform(2, 5),
                uniform(4, 4), uniform(4, 5), uniform(3, 6), uniform(3, 7)])
    assert len(out) >= 50
    assert all(m.is_simple for m in out)
    return out


@pytest.fixture(scope="session")
def pool(u34, fivept, k4m, w3m, random_matroids):
    """The verification pool: four catalog, two uniform, 50+ random."""
    matroids = [u34, fivept, k4m, w3m, uniform(2, 4), uniform(3, 5)]
    matroids.extend(random_matroids)
    assert len(matroids) >= 56
    assert all(m.ground.size <= 7 for m in matroids)
    return matroids


@pytest.fixture(scope="session")
def pool_lattices(pool):
    """The lattice of flats of every pool matroid."""
    return [FlatLattice.from_matroid(m) for m in pool]
