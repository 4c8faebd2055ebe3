"""Independent brute-force implementations used to cross-check the library.

Everything here works on plain int grids (0, 1, 2 with 2 the ghost) or on
raw basis masks, with the arithmetic tables written out literally, so that
agreement with the library is a genuine two-implementation check and not a
tautology.
"""

import csv
import io
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


def independent_column_sets(grid):
    """Bitmasks of the column sets of an int grid whose columns are
    independent vectors.

    A set holding a dependent set is dependent (the same combination
    works), so a set is tested from the definition only when every
    one-smaller subset is independent.
    """
    n = len(grid[0]) if grid else 0
    columns = [tuple(row[j] for row in grid) for j in range(n)]
    found = set()
    for mask in sorted(range(1 << n), key=int.bit_count):
        positions = _positions(mask)
        if all(mask & ~(1 << i) in found for i in positions) and vectors_independent(
            [columns[j] for j in positions]
        ):
            found.add(mask)
    return found


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


def _peel(nz_masks, one_masks, idxs):
    """Greedy peel: remove, round by round, every vector holding a plain 1
    on a coordinate that exactly one remaining vector hits, its lowest such
    coordinate being its witness.  Returns each round's (vector, witness)
    pairs and the vectors left when a round removes none; none are left
    exactly when the vectors are independent."""
    left = list(idxs)
    rounds = []
    while left:
        once = multi = 0
        for i in left:
            multi |= once & nz_masks[i]
            once |= nz_masks[i]
        free = once & ~multi
        lone = {i: one_masks[i] & free for i in left}
        peeled = [(i, (m & -m).bit_length() - 1) for i, m in lone.items() if m]
        if not peeled:
            break
        rounds.append(peeled)
        left = [i for i in left if not lone[i]]
    return rounds, left


def _all_peel(nz_masks, one_masks, idxs):
    """Are the vectors independent: does the greedy peel remove them all?"""
    return not _peel(nz_masks, one_masks, idxs)[1]


def _column_masks(grid, n_cols):
    """Per column of an int grid, the (nonzero, plain-1) row bitmasks."""
    nz = [sum(1 << i for i, row in enumerate(grid) if row[j]) for j in range(n_cols)]
    one = [sum(1 << i for i, row in enumerate(grid) if row[j] == 1) for j in range(n_cols)]
    return nz, one


def independent_column_sets_by_peel(grid, n_cols):
    """Bitmasks of the independent column sets of an int grid with n_cols
    columns (a grid of no rows has no width of its own), grown from the
    empty set with a whole greedy peel per candidate whose one-smaller
    subsets all passed."""
    nz, one = _column_masks(grid, n_cols)
    family = {0}
    level = [(0, ())]
    while level:
        grown = []
        for mask, cols in level:
            for j in range(mask.bit_length(), n_cols):
                cand = mask | (1 << j)
                if any(cand ^ (1 << i) not in family for i in cols):
                    continue
                if _all_peel(nz, one, cols + (j,)):
                    family.add(cand)
                    grown.append((cand, cols + (j,)))
        level = grown
    return family


def rank_by_independent_sets(grid):
    """Largest number of independent columns of an int grid, by a
    depth-first search over independent column sets, each extension decided
    by the greedy peel.  A child tries only the columns that extended its
    parent, and a branch ends once its chosen columns plus the viable ones
    left cannot beat the best size found."""
    n_cols = len(grid[0]) if grid else 0
    nz, one = _column_masks(grid, n_cols)
    best = 0

    def extend(chosen, candidates):
        nonlocal best
        viable = [j for j in candidates if _all_peel(nz, one, chosen + [j])]
        if viable:
            best = max(best, len(chosen) + 1)
        for t, j in enumerate(viable):
            if len(chosen) + len(viable) - t <= best:
                break
            extend(chosen + [j], viable[t + 1:])

    extend([], range(n_cols))
    return best


# -- labeled CSV, one csv field per cell -------------------------------------


def labeled_csv(row_labels, col_labels, token_rows) -> str:
    """The labeled CSV layout written field by field by the csv module: a
    header row of an empty field and the column labels, then each row's
    label and tokens.  Its line terminator is "\\n", so a label holding a
    bare "\\r" is left unquoted; the library quotes it."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["", *col_labels])
    writer.writerows([label, *row] for label, row in zip(row_labels, token_rows))
    return out.getvalue()


# -- the verified reducer's greedy pass, one row at a time -----------------


def _witness_rows(rounds) -> int:
    """Bitmask of the rows a peel used as witnesses."""
    rows = 0
    for peeled in rounds:
        for _, j in peeled:
            rows |= 1 << j
    return rows


def greedy_drops_one_row_at_a_time(nz, one, n_rows: int, bases, loose) -> int:
    """Bitmask of the rows the greedy pass drops, trying rows in order.

    The reference for `extraction._greedy_drops`, which tests runs of rows
    at once: this pass tries each row on its own, with this module's peel.
    Works on column masks alone: dropping row r clears bit r.  Each basis
    keeps the witness rows of its last peel, and a drop rechecks only the
    bases whose witness holds r, since the others keep their triangular
    nonsingular submatrix.  The loose circuits are rechecked until the
    first accepted drop; after it every circuit is dependent for good.
    """
    witnesses = []
    for basis in bases:
        rounds, stuck = _peel(nz, one, basis)
        if stuck:
            return 0  # a dependent basis stays dependent, so no drop is accepted
        witnesses.append(_witness_rows(rounds))
    gone = 0
    for r in range(n_rows):
        if n_rows - gone.bit_count() == 1:
            break
        bit = 1 << r
        keep = ~(gone | bit)
        trial_nz = [m & keep for m in nz]
        trial_one = [m & keep for m in one]
        renewed = {}
        for i, basis in enumerate(bases):
            if witnesses[i] & bit:
                rounds, stuck = _peel(trial_nz, trial_one, basis)
                if stuck:
                    break
                renewed[i] = _witness_rows(rounds)
        else:  # every rechecked basis still peels
            if all(_peel(trial_nz, trial_one, c)[1] for c in loose):
                gone |= bit
                for i, rows in renewed.items():
                    witnesses[i] = rows
                loose = ()
    return gone


# -- the certificate check, on an int grid ------------------------------------


def first_false_certificate(grid, n_cols, bases, circuits):
    """The first basis the grid calls column-dependent; failing that, the
    first circuit it calls column-independent; otherwise None.

    The reference for the peel loops of `extraction._certified`: bases
    and circuits are column-index tuples, each peeled on the int grid's
    column masks with this module's peel.
    """
    nz, one = _column_masks(grid, n_cols)
    for basis in bases:
        if not _all_peel(nz, one, basis):
            return basis
    for circuit in circuits:
        if _all_peel(nz, one, circuit):
            return circuit
    return None


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


def exchange_counterexample_scan(bases):
    """First (b1, x, b2) breaking basis exchange, or None, by a scan of the
    bases: b1 in canonical order, then x in b1 ascending, then b2 the
    canonically first basis holding none of the completions of b1 - x (the
    y with b1 - x + y a basis), x among them.  Each distinct completion
    mask is scanned once; a repeated one passed the first time."""
    order = sorted(bases, key=lambda m: (m.bit_count(), _positions(m)))
    union = 0
    for b in bases:
        union |= b
    scanned = set()
    for b1 in order:
        for x in _positions(b1):
            rest = b1 & ~(1 << x)
            completions = sum(
                1 << y for y in _positions(union & ~rest) if rest | (1 << y) in bases
            )
            if completions in scanned:
                continue
            scanned.add(completions)
            b2 = next((b for b in order if not b & completions), None)
            if b2 is not None:
                return (b1, x, b2)
    return None


def augmentation_violation_scan(family):
    """First (X, Y) members with |Y| = |X| + 1 and no y in Y - X making
    X + y a member, or None: every such pair of a downward-closed family
    of masks, level by level, straight from the augmentation axiom."""
    by_size = {}
    for m in family:
        by_size.setdefault(m.bit_count(), []).append(m)
    for k in sorted(by_size):
        for x in by_size[k]:
            for y in by_size.get(k + 1, ()):
                if not any(x | (1 << i) in family for i in _positions(y & ~x)):
                    return (x, y)
    return None


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


def maximal_chains_by_order(lattice):
    """Every bottom-to-top cover chain, by element name, lexicographic in
    element index.

    Uses the `up` bitsets alone, through `order_covers`; the library's
    cover lists and chain walk are not used.
    """
    n = lattice.size
    up = lattice.up
    covers = order_covers(up)
    bottom = next(i for i in range(n) if all(up[i] >> j & 1 for j in range(n)))
    chains = []

    def extend(path):
        if not covers[path[-1]]:
            chains.append(tuple(lattice.names[i] for i in path))
        for j in covers[path[-1]]:
            extend(path + [j])

    extend([bottom])
    return chains


# -- lattice axioms, from the definition ------------------------------------


def order_meet(up, i, j):
    """Greatest common lower bound of i and j in the order whose element k
    lies below exactly the elements set in up[k]; None when there is none."""
    lows = [k for k in range(len(up)) if up[k] >> i & 1 and up[k] >> j & 1]
    return next((m for m in lows if all(up[k] >> m & 1 for k in lows)), None)


def order_join(up, i, j):
    """Least common upper bound of i and j, as order_meet; None when none."""
    highs = [k for k in range(len(up)) if up[i] >> k & 1 and up[j] >> k & 1]
    return next((m for m in highs if all(up[m] >> k & 1 for k in highs)), None)


def lattice_axiom_failure(names, up):
    """The first failed lattice axiom of the order up, in FlatLattice's
    wording and check order, or None when up is a lattice.

    Joins and meets are decided pair by pair from the definition, scanning
    the common bounds for one that all the others lie above (below), so a
    full check costs O(n^3).  FlatLattice checks joins and the bottom only;
    the meets come last here, so a "no meet" failure would mean that
    every pair having a join, with a bottom, does not give every meet.
    """
    n = len(names)
    if len(set(names)) != n:
        return "repeated lattice element name"
    if len(up) != n:
        return "order relation size does not match element count"
    for i, mask in enumerate(up):
        if mask >> n:
            return "order relation points outside the element list"
        if not mask >> i & 1:
            return f"order not reflexive at {names[i]!r}"
        for j in _positions(mask):
            if i != j and up[j] >> i & 1:
                return f"order not antisymmetric on {names[i]!r}, {names[j]!r}"
            if up[j] & ~mask:
                return f"order not transitive through {names[i]!r} <= {names[j]!r}"
    for i in range(n):
        for j in range(i + 1, n):
            if order_join(up, i, j) is None:
                return f"no join for {names[i]!r}, {names[j]!r}"
    if (1 << n) - 1 not in up:
        return "lattice has no bottom element"
    for i in range(n):
        for j in range(i + 1, n):
            if order_meet(up, i, j) is None:
                return f"no meet for {names[i]!r}, {names[j]!r}"
    return None


def upper_covers_by_upsets(up):
    """Per element, the elements immediately above it: the minimal
    elements of its strict up-set, which is that set cleared of the strict
    up-sets of its members.  `FlatLattice.upper_covers` reads a directly
    built lattice's covers by the same rule, so the tests check this one
    against `order_covers`, the definition of a cover, on small lattices
    too."""
    out = []
    for i, mask in enumerate(up):
        strict = mask & ~(1 << i)
        higher = 0
        for j in _positions(strict):
            higher |= up[j] & ~(1 << j)
        out.append(tuple(_positions(strict & ~higher)))
    return tuple(out)


def order_closure(n, pairs):
    """Up-set masks of the reflexive transitive closure of (low, high)
    index pairs on n elements, by Warshall's algorithm."""
    rel = [[i == j for j in range(n)] for i in range(n)]
    for low, high in pairs:
        rel[low][high] = True
    for k in range(n):
        for i in range(n):
            if rel[i][k]:
                for j in range(n):
                    rel[i][j] = rel[i][j] or rel[k][j]
    return [sum(1 << j for j in range(n) if rel[i][j]) for i in range(n)]


# -- geometric lattices, from the definitions -------------------------------


def order_covers(up):
    """Per element, the elements covering it in the order up: j above i with
    no k strictly between, found by trying every k."""
    n = len(up)

    def below(i, j):
        return i != j and up[i] >> j & 1

    return [
        [j for j in range(n) if below(i, j)
         and not any(below(i, k) and below(k, j) for k in range(n))]
        for i in range(n)
    ]


def chain_lengths_to(up, covers, high):
    """Per element below high, the set of lengths of its maximal chains up
    to high; every cover path is walked, memoised per element."""
    memo = {high: {0}}

    def lengths(x):
        if x not in memo:
            memo[x] = {
                1 + k for y in covers[x] if up[y] >> high & 1 for k in lengths(y)
            }
        return memo[x]

    return {x: lengths(x) for x in range(len(up)) if up[x] >> high & 1}


def geometric_lattice_oracle(up):
    """(heights, geometric) of a lattice given by its up-set masks.

    Heights are the longest chain length from the bottom.  The lattice is
    geometric when maximal chains between every comparable pair all have
    one length, the semimodular inequality h(a) + h(b) >= h(a v b) + h(a ^ b)
    holds on every pair, and every element is the join of the atoms below it.
    Covers, meets and joins are recomputed from the order alone.
    """
    n = len(up)
    covers = order_covers(up)
    bottom = next(i for i in range(n) if up[i] == (1 << n) - 1)
    graded = True
    heights = [None] * n
    for high in range(n):
        below = chain_lengths_to(up, covers, high)
        heights[high] = max(below[bottom])
        if any(len(lengths) != 1 for lengths in below.values()):
            graded = False
    semimodular = all(
        heights[a] + heights[b]
        >= heights[order_join(up, a, b)] + heights[order_meet(up, a, b)]
        for a in range(n)
        for b in range(n)
    )
    atoms = covers[bottom]
    atomistic = True
    for x in range(n):
        joined = bottom
        for a in atoms:
            if up[a] >> x & 1:
                joined = order_join(up, joined, a)
        atomistic = atomistic and joined == x
    return tuple(heights), graded and semimodular and atomistic


def gaussian_binomial(n, k, q):
    """[n choose k]_q, the number of k-dimensional subspaces of GF(q)^n:
    the product over i < k of (q^(n-i) - 1) / (q^(i+1) - 1)."""
    if not 0 <= k <= n:
        return 0
    top = bottom = 1
    for i in range(k):
        top *= q ** (n - i) - 1
        bottom *= q ** (i + 1) - 1
    return top // bottom
