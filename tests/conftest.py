"""Shared fixtures: catalog objects and seeded random generators."""

import random
from itertools import combinations, product
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


def ag32() -> Matroid:
    """AG(3,2): the points (1, x) of GF(2)^4 for x in GF(2)^3, as the
    integers 8..15; bases are the 4-sets of GF(2) rank 4."""
    bases = frozenset(
        sum(1 << i for i in combo)
        for combo in combinations(range(8), 4)
        if _xor_rank([8 + i for i in combo]) == 4
    )
    return Matroid(GroundSet(tuple(str(i + 1) for i in range(8))), bases)


def vamos() -> Matroid:
    """Vámos: rank 4 on the pairs {1,2}, {3,4}, {5,6}, {7,8}; every 4-set is
    a basis except the unions of two pairs other than {5,6,7,8}."""
    pairs = (0b11, 0b1100, 0b110000, 0b11000000)
    banned = {a | b for a, b in combinations(pairs, 2)} - {pairs[2] | pairs[3]}
    bases = frozenset(
        mask
        for combo in combinations(range(8), 4)
        if (mask := sum(1 << i for i in combo)) not in banned
    )
    return Matroid(GroundSet(tuple(str(i + 1) for i in range(8))), bases)


def projective_plane(p):
    """PG(2,p) for a prime p: the p^2 + p + 1 points of GF(p)^3 up to
    scalars, each scaled so its first nonzero coordinate is 1; bases are the
    triples of nonzero determinant mod p."""
    points = [
        v for v in product(range(p), repeat=3)
        if any(v) and v[next(i for i, x in enumerate(v) if x)] == 1
    ]

    def det(a, b, c):
        return (
            a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0])
        ) % p

    ground = GroundSet(tuple(str(i + 1) for i in range(len(points))))
    bases = frozenset(
        (1 << i) | (1 << j) | (1 << k)
        for i, j, k in combinations(range(len(points)), 3)
        if det(points[i], points[j], points[k])
    )
    return Matroid(ground, bases)


def pg25():
    """PG(2,5): 31 points, 31 lines of 6 points each."""
    return projective_plane(5)


def pg32():
    """PG(3,2): the 15 nonzero vectors of GF(2)^4, as bitmasks; bases are
    the 4-sets of GF(2) rank 4."""
    vectors = range(1, 16)
    ground = GroundSet(tuple(str(v) for v in vectors))
    bases = frozenset(
        sum(1 << i for i in combo)
        for combo in combinations(range(15), 4)
        if _xor_rank([vectors[i] for i in combo]) == 4
    )
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


def ladder_sized():
    """Matroids of the benchmark ladder's kind, 4 to 15 elements: the
    catalog, F7, AG(3,2), Vámos, five uniform matroids, two GF(2) rank-4
    samples, PG(2,3) and PG(3,2)."""
    return [
        *(entry.matroid for entry in CATALOG.values()),
        gf2_matroid(random.Random(7), 7, 3),  # all 7 nonzero vectors: F7
        ag32(),
        vamos(),
        *(uniform(k, n) for k, n in ((3, 8), (4, 8), (3, 10), (4, 10), (3, 12))),
        gf2_matroid(random.Random(1108), 10, 4),
        gf2_matroid(random.Random(1473), 12, 4),
        projective_plane(3),
        pg32(),
    ]


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
