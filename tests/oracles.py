"""Independent brute-force implementations used to cross-check the library.

Everything here works on plain int grids (0, 1, 2 with 2 the ghost) or on
raw basis masks, with the arithmetic tables written out literally, so that
agreement with the library is a genuine two-implementation check and not a
tautology.
"""

from itertools import combinations, permutations

# token -> int encoding shared by all oracle helpers
ENC = {"0": 0, "1": 1, "1v": 2}

ADD = {
    (0, 0): 0, (0, 1): 1, (0, 2): 2,
    (1, 0): 1, (1, 1): 2, (1, 2): 2,
    (2, 0): 2, (2, 1): 2, (2, 2): 2,
}

MUL = {
    (0, 0): 0, (0, 1): 0, (0, 2): 0,
    (1, 0): 0, (1, 1): 1, (1, 2): 2,
    (2, 0): 0, (2, 1): 2, (2, 2): 2,
}


def grid_of(matrix):
    """Int grid of a library matrix, via the public token rendering."""
    return tuple(tuple(ENC[v.token] for v in row) for row in matrix.entries)


def permanent_perms(grid):
    """Permutation-sum permanent, straight from the definition."""
    n = len(grid)
    total = 0
    for perm in permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term = MUL[term, grid[i][j]]
        total = ADD[total, term]
    return total


def permanent_dp(grid):
    """Permanent by row-at-a-time expansion over used-column masks.

    Valid in any commutative semiring, so it must agree with the
    permutation sum; cheap enough for 6x6 bulk runs.
    """
    n = len(grid)
    states = {0: 1}
    for i in range(n):
        row = grid[i]
        grown = {}
        for mask, acc in states.items():
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                v = MUL[acc, row[j]]
                if v == 0:
                    continue
                key = mask | bit
                prev = grown.get(key, 0)
                grown[key] = ADD[prev, v]
        states = grown
        if not states:
            return 0
    return states.get((1 << n) - 1, 0)


def combination(vectors, coeffs):
    """Coordinatewise sum of coeff * vector over the oracle tables."""
    width = len(vectors[0])
    out = [0] * width
    for c, vec in zip(coeffs, vectors):
        for k in range(width):
            out[k] = ADD[out[k], MUL[c, vec[k]]]
    return out


def vectors_independent(vectors):
    """No nonzero 0/1 coefficient choice lands every coordinate in {0, 2}."""
    m = len(vectors)
    for bitset in range(1, 1 << m):
        coeffs = [(bitset >> i) & 1 for i in range(m)]
        if all(v != 1 for v in combination(vectors, coeffs)):
            return False
    return True


def brute_row_rank(grid):
    rows = [tuple(r) for r in grid]
    for k in range(min(len(rows), len(grid[0]) if grid else 0), 0, -1):
        for picked in combinations(rows, k):
            if vectors_independent(picked):
                return k
    return 0


def brute_col_rank(grid):
    if not grid:
        return 0
    return brute_row_rank(tuple(zip(*grid)))


def rank_by_submatrix(grid):
    """Largest k with some k x k submatrix of permanent exactly 1."""
    m = len(grid)
    n = len(grid[0]) if grid else 0
    for k in range(min(m, n), 0, -1):
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = tuple(tuple(grid[i][j] for j in cols) for i in rows)
                if permanent_perms(sub) == 1:
                    return k
    return 0


# -- matroid-side oracles, working on raw basis masks ---------------------


def indep_from_bases(bases):
    """Independence test: a subset of some basis."""
    def is_indep(mask):
        return any(mask & ~b == 0 for b in bases)
    return is_indep


def rank_from_bases(bases, mask):
    return max((b & mask).bit_count() for b in bases)


def circuits_scan(bases, n):
    """Minimal dependent subsets by scanning the full power set."""
    is_indep = indep_from_bases(bases)
    out = []
    for mask in range(1, 1 << n):
        if is_indep(mask):
            continue
        if all(is_indep(mask & ~(1 << i)) for i in range(n) if mask >> i & 1):
            out.append(mask)
    return out


def closure_by_circuits(circuits, n, mask):
    """cl(X) = X plus every y outside X lying on a circuit inside X + y;
    `circuits` as returned by circuits_scan."""
    out = mask
    for y in range(n):
        bit = 1 << y
        if mask & bit:
            continue
        if any(c & bit and c & ~(mask | bit) == 0 for c in circuits):
            out |= bit
    return out


def exchange_fails(bases, b1, b2, x):
    """No y in b2 - b1 makes b1 - x + y a basis."""
    return not any(
        (b1 & ~(1 << x)) | (1 << y) in bases for y in _positions(b2 & ~b1)
    )


def basis_exchange_holds(bases):
    """Pairwise basis exchange, straight from the definition: for all bases
    b1, b2 and every x in b1 - b2, some y in b2 - b1 has b1 - x + y a basis."""
    return not any(
        exchange_fails(bases, b1, b2, x)
        for b1 in bases
        for b2 in bases
        for x in _positions(b1 & ~b2)
    )


def flats_scan(bases, n):
    """Closure fixed points over all 2^n subsets, canonically sorted."""
    def closure(mask):
        r = rank_from_bases(bases, mask)
        out = mask
        for y in range(n):
            bit = 1 << y
            if not mask & bit and rank_from_bases(bases, mask | bit) == r:
                out |= bit
        return out

    flats = {m for m in range(1 << n) if closure(m) == m}
    return sorted(flats, key=lambda m: (m.bit_count(), _positions(m)))


def _positions(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def count_maximal_chains(lattice):
    """Bottom-to-top cover path count, from scratch via leq queries.

    Covers are recomputed here from the comparability relation alone, so
    the library's own cover lists are not trusted.
    """
    names = lattice.names
    strictly_below = {
        a: {b for b in names if b != a and lattice.leq(a, b)} for a in names
    }
    covers = {
        a: [
            b
            for b in strictly_below[a]
            if not any(c in strictly_below[a] and b in strictly_below[c]
                       for c in names)
        ]
        for a in names
    }
    memo = {}

    def paths(a):
        if a == lattice.top:
            return 1
        if a not in memo:
            memo[a] = sum(paths(b) for b in covers[a])
        return memo[a]

    return paths(lattice.bottom)
