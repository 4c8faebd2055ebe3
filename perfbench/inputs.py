"""Benchmark inputs, built from their combinatorial definitions, and the
reference answers the benchmark checks the program's outputs against.

Nothing here imports boolrep: every expected output is worked out from the
definitions (bases, flats, the superboolean sum) by code that shares no
logic with the library, so agreement is a real two-implementation check.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product


@dataclass(frozen=True)
class Rung:
    """A simple matroid on labels "1".."n", stored by its bases as bitmasks."""

    name: str
    n: int
    bases: frozenset

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(str(i) for i in range(1, self.n + 1))

    @property
    def rank(self) -> int:
        return next(iter(self.bases)).bit_count()

    def to_json(self) -> str:
        order = sorted(self.bases, key=sort_key)
        labels = self.labels
        return json.dumps(
            {"ground": list(labels), "bases": [[labels[i] for i in bits(b)] for b in order]}
        )

    @cached_property
    def independent(self) -> frozenset:
        seen = set()
        for b in self.bases:
            sub = b
            while True:  # every submask of b
                seen.add(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & b
        return frozenset(seen)

    @cached_property
    def ranks(self) -> list[int]:
        """Rank of every subset, indexed by mask: a dependent set has the
        rank of its best one-smaller subset."""
        ind = self.independent
        out = [0] * (1 << self.n)
        for mask in range(1, 1 << self.n):
            if mask in ind:
                out[mask] = mask.bit_count()
            else:
                out[mask] = max(out[mask & ~(1 << i)] for i in bits(mask))
        return out

    @cached_property
    def flats(self) -> tuple[int, ...]:
        """Closed subsets in canonical order (size, then positions)."""
        r = self.ranks
        full = (1 << self.n) - 1
        closed = [
            mask
            for mask in range(1 << self.n)
            if all(r[mask | (1 << i)] > r[mask] for i in bits(full & ~mask))
        ]
        return tuple(sorted(closed, key=sort_key))

    def flat_name(self, mask: int) -> str:
        return "{" + ",".join(self.labels[i] for i in bits(mask)) + "}"

    def lattice_csv(self) -> str:
        """`lattice --format csv`: entry (F, G) is 1 iff F is not inside G."""
        names = [self.flat_name(f) for f in self.flats]
        rows = [
            [name] + ["0" if f & ~g == 0 else "1" for g in self.flats]
            for name, f in zip(names, self.flats)
        ]
        return _csv_text([""] + names, rows)

    def paper_rows(self) -> tuple[int, ...]:
        """Flats kept by the paper reduction: the bottom and every proper
        flat of rank 2 or more."""
        full = (1 << self.n) - 1
        r = self.ranks
        return tuple(f for f in self.flats if f == 0 or (f != full and r[f] >= 2))

    def repr_csv(self, flats) -> str:
        """Representation rows for the given flats: entry (F, x) is 1 iff x
        is not in F."""
        rows = [
            [self.flat_name(f)] + ["0" if f >> i & 1 else "1" for i in range(self.n)]
            for f in flats
        ]
        return _csv_text([""] + list(self.labels), rows)

    @cached_property
    def chain_count(self) -> int:
        """Maximal chains of the lattice of flats, by counting paths up the
        cover relation (one more rank, strictly larger)."""
        r = self.ranks
        paths = {0: 1}
        for f in self.flats[1:]:
            paths[f] = sum(
                paths[g] for g in paths if g & ~f == 0 and g != f and r[g] + 1 == r[f]
            )
        return paths[(1 << self.n) - 1]


def bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def sort_key(mask: int):
    positions = tuple(bits(mask))
    return (len(positions), positions)


def _csv_text(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


# -- the ladder ---------------------------------------------------------------


def uniform(k: int, n: int) -> Rung:
    return Rung(f"u{k}{n}", n, frozenset(_mask(c) for c in combinations(range(n), k)))


def _mask(positions) -> int:
    return sum(1 << i for i in positions)


def _rank3_except(name: str, n: int, lines) -> Rung:
    banned = {_mask(i - 1 for i in t) for t in lines}
    bases = frozenset(
        m for c in combinations(range(n), 3) if (m := _mask(c)) not in banned
    )
    return Rung(name, n, bases)


def _rank_mod_p(vectors, p: int) -> int:
    rows = [list(v) for v in vectors]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def column_matroid(name: str, vectors, p: int) -> Rung:
    """Matroid of a list of vectors over GF(p): bases are the full-rank
    subsets of size rank."""
    r = _rank_mod_p(vectors, p)
    bases = frozenset(
        _mask(c)
        for c in combinations(range(len(vectors)), r)
        if _rank_mod_p([vectors[i] for i in c], p) == r
    )
    return Rung(name, len(vectors), bases)


def _gf2_vectors(dim: int, ints) -> list[tuple[int, ...]]:
    return [tuple(x >> (dim - 1 - k) & 1 for k in range(dim)) for x in ints]


def fano() -> Rung:
    """PG(2,2): the seven nonzero vectors of GF(2)^3."""
    return column_matroid("fano", _gf2_vectors(3, range(1, 8)), 2)


def ag32() -> Rung:
    """AG(3,2): the eight points of GF(2)^3 lifted to (1, x) in GF(2)^4."""
    return column_matroid("ag32", _gf2_vectors(4, range(8, 16)), 2)


def gf2_sample(n: int, seed: int) -> Rung:
    """n distinct nonzero vectors of GF(2)^4 drawn with a fixed seed."""
    ints = random.Random(seed).sample(range(1, 16), n)
    return column_matroid(f"gf2r4n{n}", _gf2_vectors(4, ints), 2)


def pg23() -> Rung:
    """PG(2,3): the 13 points of the projective plane over GF(3)."""
    points = [
        v for v in product(range(3), repeat=3)
        if any(v) and v[next(i for i, x in enumerate(v) if x)] == 1
    ]
    return column_matroid("pg23", points, 3)


def vamos() -> Rung:
    """Vámos: rank 4 on four pairs; every 4-set is a basis except five of
    the six unions of two pairs."""
    pairs = [(0, 1), (2, 3), (4, 5), (6, 7)]
    banned = {
        _mask(pairs[a] + pairs[b])
        for a, b in combinations(range(4), 2)
        if (a, b) != (2, 3)
    }
    bases = frozenset(
        m for c in combinations(range(8), 4) if (m := _mask(c)) not in banned
    )
    return Rung("vamos", 8, bases)


def catalog() -> list[Rung]:
    """The four built-in examples, with the library's labels."""
    return [
        uniform(3, 4),
        _rank3_except("fivept", 5, ((1, 2, 3), (3, 4, 5))),
        _rank3_except("k4", 6, ((1, 2, 4), (1, 3, 5), (3, 4, 6), (2, 5, 6))),
        _rank3_except("w3", 6, ((1, 2, 4), (1, 3, 5), (2, 3, 6))),
    ]


CATALOG_NAMES = ("u34", "fivept", "k4", "w3")

# Base and flat counts every rung is checked against before timing.
KNOWN_COUNTS = {"fano": (28, 16), "ag32": (56, 52), "vamos": (65, 79), "pg23": (234, 28)}
KNOWN_CHAINS = {"fano": 21, "ag32": 168, "vamos": 276, "pg23": 52}


def ladder() -> list[Rung]:
    return catalog() + [
        fano(),
        ag32(),
        vamos(),
        uniform(3, 8),
        uniform(4, 8),
        uniform(3, 10),
        uniform(4, 10),
        uniform(3, 12),
        gf2_sample(10, 1108),
        gf2_sample(12, 1473),
        pg23(),
    ]


def check_counts(rung: Rung) -> None:
    """Raise if a rung's base or flat count disagrees with its definition."""
    if rung.name in KNOWN_COUNTS:
        want = KNOWN_COUNTS[rung.name]
    elif rung.name.startswith("u"):
        k, n = rung.rank, rung.n
        want = (math.comb(n, k), 2 + sum(math.comb(n, i) for i in range(1, k)))
    else:
        return
    got = (len(rung.bases), len(rung.flats))
    if got != want:
        raise ValueError(f"{rung.name}: bases/flats {got}, expected {want}")
    if rung.name in KNOWN_CHAINS and rung.chain_count != KNOWN_CHAINS[rung.name]:
        raise ValueError(f"{rung.name}: {rung.chain_count} maximal chains")


# -- superboolean references ---------------------------------------------------

# Grids hold 0, 1 and 2, with 2 the ghost 1v.
TOKENS = ("0", "1", "1v")


def grid_csv(grid, row_labels, col_labels) -> str:
    rows = [[label] + [TOKENS[v] for v in row] for label, row in zip(row_labels, grid)]
    return _csv_text([""] + list(col_labels), rows)


def parse_grid(text: str):
    """(grid, row labels, column labels) of a labeled CSV matrix."""
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    enc = {t: i for i, t in enumerate(TOKENS)}
    grid = [tuple(enc[t] for t in r[1:]) for r in rows[1:]]
    return grid, [r[0] for r in rows[1:]], rows[0][1:]


def independent_column_sets(grid) -> list[bool]:
    """Independence of every column subset, indexed by mask.

    A set is independent iff each one-smaller subset is and its own column
    sum keeps a coordinate that exactly one column hits, with a plain 1.
    """
    n_cols = len(grid[0]) if grid else 0
    nz = [0] * n_cols
    one = [0] * n_cols
    for i, row in enumerate(grid):
        for j, v in enumerate(row):
            if v:
                nz[j] |= 1 << i
                if v == 1:
                    one[j] |= 1 << i
    size = 1 << n_cols
    hit = [0] * size
    multi = [0] * size
    ones = [0] * size
    indep = [False] * size
    indep[0] = True
    for mask in range(1, size):
        j = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        multi[mask] = multi[rest] | (hit[rest] & nz[j])
        hit[mask] = hit[rest] | nz[j]
        ones[mask] = ones[rest] | one[j]
        indep[mask] = bool(hit[mask] & ~multi[mask] & ones[mask]) and all(
            indep[mask & ~(1 << i)] for i in bits(mask)
        )
    return indep


def column_rank(grid) -> int:
    """Superboolean rank as the largest independent column set (row rank
    equals column rank)."""
    indep = independent_column_sets(grid)
    return max(mask.bit_count() for mask, ok in enumerate(indep) if ok)


def mismatch_count(grid, col_labels, rung: Rung) -> int:
    """Subsets on which the matrix and the matroid disagree about
    independence.  Columns may be in any order."""
    pos = [rung.labels.index(c) for c in col_labels]
    indep = independent_column_sets(grid)
    count = 0
    for mask, ok in enumerate(indep):
        ground = sum(1 << pos[j] for j in bits(mask))
        count += ok != (ground in rung.independent)
    return count


def permanent(grid) -> str:
    """Permanent token: 0 with no zero-free permutation, 1 with exactly one
    and that one all plain 1s, else the ghost.  Counts (capped at 2) the
    zero-free and the all-1 partial matchings row by row."""
    n = len(grid)
    any_terms = {0: 1}
    one_terms = {0: 1}
    for i in range(n):
        grown_any: dict = {}
        grown_one: dict = {}
        for used, c in any_terms.items():
            for j in range(n):
                if grid[i][j] and not used >> j & 1:
                    key = used | 1 << j
                    grown_any[key] = min(2, grown_any.get(key, 0) + c)
        for used, c in one_terms.items():
            for j in range(n):
                if grid[i][j] == 1 and not used >> j & 1:
                    key = used | 1 << j
                    grown_one[key] = min(2, grown_one.get(key, 0) + c)
        any_terms, one_terms = grown_any, grown_one
    full = (1 << n) - 1
    total = any_terms.get(full, 0)
    if total == 0:
        return "0"
    if total == 1 and one_terms.get(full, 0) == 1:
        return "1"
    return "1v"


def is_triangular(grid, row_order, col_order) -> bool:
    """1s on the diagonal and 0s strictly above it after permuting."""
    n = len(grid)
    if sorted(row_order) != list(range(n)) or sorted(col_order) != list(range(n)):
        return False
    for a, i in enumerate(row_order):
        if grid[i][col_order[a]] != 1:
            return False
        if any(grid[i][col_order[b]] for b in range(a + 1, n)):
            return False
    return True


def random_grid(rng: random.Random, n_rows: int, n_cols: int, density: float, ghost: float):
    return [
        tuple(
            (2 if rng.random() < ghost else 1) if rng.random() < density else 0
            for _ in range(n_cols)
        )
        for _ in range(n_rows)
    ]
