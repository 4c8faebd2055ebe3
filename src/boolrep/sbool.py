"""Exact arithmetic in the three-element superboolean semiring and its matrices.

Scalars are totally ordered 1v > 1 > 0, where 1v = 1 + 1 is the ghost
element and {0, 1v} is the ghost ideal.  A matrix is labeled and immutable,
and is its rows' masks: bit j of `nonzero[i]` is set iff entry (i, j) is
not 0, and bit j of `ones[i]` iff it is a plain 1.  Every operation reads
and returns masks; the cells (`entries`) are a read-only view of them.
Only this module converts between cells and masks: into masks in `of` and
`from_csv`, out of them in `entries`, `to_csv`, `text` and `_bit_rows` (the
0/1 rows other modules read).

Decisions rest on two facts: a set of columns is independent iff some
square submatrix on it is nonsingular, and a matrix is nonsingular iff it
has a triangular form with plain 1s on the diagonal.  One greedy peel
(`_peel`) is the one test of independence for a set given on its own.  It
answers row and column independence, nonsingularity (a square matrix whose
rows all peel), triangular forms and witness rows in polynomial time, and
it decides each node of rank's search.  One grower
(`_independent_column_sets`) lists every independent column set of a
matrix from the empty set up.  It tests a set only when its one-smaller
subsets all passed, and there one round of the peel decides (the growth
lemma below), so it carries that round's masks from each set to the next
and calls no peel; `verify_representation` and `hereditary_from_matrix`
read it.  The permanent is 1 iff the matrix is
nonsingular, and otherwise 1v or 0 as its nonzero pattern does or does not
hold a perfect matching (Kuhn's algorithm, each augmenting path found depth
first on an explicit stack).

Rank is a depth-first search over U, the union of the nonzero coordinates
of the vectors chosen so far, and rests on three facts.

1. Order.  Vectors are independent iff they have an order in which each
   has a plain 1 on a coordinate where every earlier vector is 0.  Proof:
   those coordinates, taken in the same order, carry a triangular square
   submatrix with plain 1s on its diagonal, which is nonsingular; and the
   peel of an independent set, read from its last round to its first, is
   such an order (see `_peel`).  So a vector can follow the chosen ones
   iff it has a plain 1 outside U, and the rest of a search depends on U
   alone: a union already reached at the same or a greater depth is
   skipped.
2. Split.  At a union U, the viable vectors (those with a plain 1 outside
   U) are peeled cut to the free coordinates, those outside U.  The peeled
   vectors, last round first, can follow any order of the chosen and the
   stuck vectors: a peeled vector's witness is free, so the chosen vectors
   are 0 there, and no other vector still present in its round hits it,
   neither a stuck one nor a peeled one placed before it (from a later
   round or its own).  Dropping peeled vectors from earlier in an order
   only frees coordinates.  So some largest order ends with every peeled
   vector: they count exactly, and the search branches only on the stuck
   core, which is dependent, since a nonempty independent set always
   peels something.
3. Bounds.  Let d be the depth, p the number of peeled vectors and C the
   core.  With C empty, d + p is exact.  Otherwise any one core vector
   followed by the peeled ones is an order, so d + p + 1 is reached; and
   the core vectors of an order are independent cut to the free
   coordinates, so fewer than |C|, and each holds its own plain 1 there,
   where the earlier ones are 0, so at most as many as the core's plain-1
   free coordinates.  That gives the one upper bound,
   d + p + min(|C| - 1, |core's plain-1 free coordinates|).

Growth lemma.  If every one-smaller subset of a set T of vectors is
independent, then T is independent iff some member has a plain 1 on a
coordinate no other member hits.  Proof: if x has one, T - x is
independent, so it has an order (fact 1), and x appended to that order
has a plain 1 where every earlier vector is 0, so T has an order.
Conversely, the last vector of any order of T has such a coordinate; this
direction holds without the precondition.  Let `once` be the coordinates
some member hits, `multi` those at least two hit, and `ones` the OR of the
members' plain-1 masks.  Plain 1s are nonzero, so such a coordinate exists
iff `ones & once & ~multi` is nonzero, that is `ones & ~multi`, since
`ones` lies inside `once`.  This is the first round of `_peel` on T, and on
this precondition it is the whole answer.  Adding a vector v updates all
three in O(1): `multi | (once & v)`, `once | v` and `ones | v's plain 1s`.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, reduce, total_ordering
from itertools import chain
from operator import or_, xor
from types import SimpleNamespace
from typing import Iterable, Sequence

from .bitops import bits, transpose
from .errors import DuplicateLabels, MatrixParseError, NonSquareError, UnknownLabel

__all__ = [
    "SBool",
    "ZERO",
    "ONE",
    "GHOST",
    "as_sbool",
    "SbMatrix",
    "BoolMatrix",
]

@total_ordering
class SBool(Enum):
    """Superboolean scalar: 0, 1, or the ghost element 1v."""

    ZERO = 0
    ONE = 1
    GHOST = 2

    def __add__(self, other):
        if not isinstance(other, SBool):
            return NotImplemented
        if self is SBool.ZERO:
            return other
        if other is SBool.ZERO:
            return self
        return SBool.GHOST  # any two nonzero summands collide: 1 + 1 = 1v

    def __mul__(self, other):
        if not isinstance(other, SBool):
            return NotImplemented
        if self is SBool.ZERO or other is SBool.ZERO:
            return SBool.ZERO
        if self is SBool.ONE and other is SBool.ONE:
            return SBool.ONE
        return SBool.GHOST

    def __lt__(self, other):
        if not isinstance(other, SBool):
            return NotImplemented
        return self.value < other.value

    @property
    def is_ghost(self) -> bool:
        """True for members of the ghost ideal {0, 1v}."""
        return self is not SBool.ONE

    @property
    def token(self) -> str:
        return _TOKENS[self._value_]

    @classmethod
    def from_token(cls, text: str) -> "SBool":
        try:
            return _FROM_TOKEN[text.strip()]
        except KeyError:
            raise MatrixParseError(f"not a superboolean entry: {text!r}") from None

    def __repr__(self):
        return f"SBool.{self.name}"


ZERO, ONE, GHOST = SBool.ZERO, SBool.ONE, SBool.GHOST

# Indexed by value: a dict keyed by SBool would run Enum.__hash__ per entry.
_CELLS = (ZERO, ONE, GHOST)
_TOKENS = ("0", "1", "1v")
_FROM_TOKEN = {"0": ZERO, "1": ONE, "1v": GHOST}
_TOKEN_SET = frozenset(_TOKENS)
_BITS = bytes.maketrans(b"01", b"\0\1")  # the characters "0", "1" to the bytes 0, 1


def as_sbool(value) -> SBool:
    """Coerce an SBool, a bool, 0/1/2, or a token string to a scalar."""
    if isinstance(value, SBool):
        return value
    if isinstance(value, bool):
        return ONE if value else ZERO
    if isinstance(value, int):
        if not 0 <= value < len(_CELLS):
            raise ValueError(f"not a superboolean value: {value!r}")
        return _CELLS[value]
    if isinstance(value, str):
        return SBool.from_token(value)
    raise TypeError(f"cannot interpret {value!r} as a superboolean scalar")


def sb_sum(values: Iterable[SBool]) -> SBool:
    total = ZERO
    for v in values:
        total = total + v
    return total


def sb_product(values: Iterable[SBool]) -> SBool:
    total = ONE
    for v in values:
        total = total * v
        if total is ZERO:
            break
    return total


def _default_labels(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(count))


def _indices(keys: Iterable, lookup: dict, size: int, axis: str) -> list[int]:
    """Positions of labels or integer indices along one axis, in order.

    A key is a `str` label or an `int` index; anything else, `bool`
    included, raises rather than being truncated to an index.
    """
    out = []
    for key in keys:
        if isinstance(key, str):
            try:
                out.append(lookup[key])
            except KeyError:
                raise UnknownLabel(f"no {axis} labeled {key!r}") from None
        elif isinstance(key, int) and not isinstance(key, bool):
            if not 0 <= key < size:
                raise UnknownLabel(f"{axis} index {key} out of range")
            out.append(key)
        else:
            raise UnknownLabel(f"{axis} key {key!r} is neither a label nor an index")
    return out


def _peel(nz_masks, one_masks, idxs):
    """Peel rounds of the given vectors, and the vectors they get stuck on.

    Vectors are given as (nonzero, plain-1) coordinate bitmasks.  Each round
    finds the coordinates hit by exactly one remaining vector; every vector
    holding a plain 1 on such a coordinate peels, and that coordinate is its
    witness.  The vectors are independent exactly when all of them peel:
    the sum of an independent set has a coordinate hit once, by a plain 1,
    and a subset of an independent set is independent, so a round on an
    independent set always peels something.  Peeling only frees coordinates,
    so the order does not matter, and the witnesses of one round differ.
    At most k rounds of O(k) mask operations.

    Returns (rounds, stuck): one list per round of (vector, witness) pairs,
    in visiting order, and the vectors left when a round peels nothing, in
    the given order.  The vectors are independent iff `stuck` is empty.
    Read from the last round to the first, the peeled vectors and their
    witnesses form a triangular nonsingular submatrix: a witness freed in
    round t is hit by no other vector still present at round t, so every
    vector placed before its own is 0 there, and the diagonal holds the
    plain 1s.
    """
    left = list(idxs)
    rounds = []
    while left:
        once = multi = 0
        for i in left:
            nz = nz_masks[i]
            multi |= once & nz
            once |= nz
        free = once & ~multi
        kept = []
        peeled = []
        for i in left:
            lone = one_masks[i] & free
            if lone:
                peeled.append((i, (lone & -lone).bit_length() - 1))
            else:
                kept.append(i)
        if not peeled:
            break
        rounds.append(peeled)
        left = kept
    return rounds, left


def _independent_column_sets(matrix) -> set:
    """The independent column sets of a matrix, as column-index bitmasks.

    Column independence is hereditary, so candidates are grown one column
    at a time, each its parent plus one column above the parent's top, so
    it is generated once.  Each set carries the coordinates its columns hit
    at least once, those they hit at least twice and the OR of their plain
    1s, and a candidate extends all three in O(1).  By the growth lemma of
    the module docstring, a candidate whose one-smaller subsets all passed
    is independent iff a plain 1 of it lies on a coordinate hit once: one
    round of `_peel`, with no peel call.  `_peel` stays the test for a set
    given on its own.  The one-round test is necessary even without the
    precondition (the last vector of an order), so it runs before the
    subset lookups.
    """
    nz, one = matrix._col_masks
    family = {0}
    level = [(0, (), 0, 0, 0)]  # (set, its columns, once, multi, ones)
    while level:
        grown = []
        for mask, cols, once, multi, ones in level:
            for j in range(mask.bit_length(), len(nz)):
                cand_multi = multi | (once & nz[j])
                cand_ones = ones | one[j]
                if not cand_ones & ~cand_multi:
                    continue
                cand = mask | (1 << j)
                for i in cols:
                    if cand ^ (1 << i) not in family:
                        break
                else:
                    family.add(cand)
                    grown.append((cand, cols + (j,), once | nz[j], cand_multi, cand_ones))
        level = grown
    return family


def _max_independent(nz_masks, one_masks) -> int:
    """Size of the largest independent sub-collection of the given vectors.

    The search of the module docstring, which proves its three facts.  The
    core vectors that leave the most coordinates free go first, since a
    smaller union admits every order a larger one does.  The steps wait on
    an explicit stack, each with the bound of the step that pushed it, so
    the search holds no reference cycle and its memo is freed as soon as
    it returns.
    """
    best = 0
    reached = {}  # union -> the greatest depth it was reached at
    # steps: (union, depth, candidates, bound of the step that pushed it);
    # the root's bound exceeds every set, so it never prunes
    stack = [(0, 0, range(len(nz_masks)), len(nz_masks) + 1)]
    while stack:
        union, depth, candidates, bound = stack.pop()
        if bound <= best or reached.get(union, -1) >= depth:
            continue
        reached[union] = depth
        free = ~union
        viable = [i for i in candidates if one_masks[i] & free]
        nz = [nz_masks[i] & free for i in viable]
        one = [one_masks[i] & free for i in viable]
        stuck = _peel(nz, one, range(len(viable)))[1]
        counted = depth + len(viable) - len(stuck)  # chosen and peeled
        if not stuck:
            best = max(best, counted)
            continue
        best = max(best, counted + 1)
        lone = 0
        for j in stuck:
            lone |= one[j]
        bound = counted + min(len(stuck) - 1, lone.bit_count())
        if bound <= best:
            continue
        # pushed in reverse, so the fewest new coordinates are popped first
        for j in reversed(sorted(stuck, key=lambda k: nz[k].bit_count())):
            stack.append((union | nz[j], depth + 1, viable, bound))
    return best


def _has_perfect_matching(row_nz, n: int) -> bool:
    """Does the nonzero pattern hold a perfect matching?  Kuhn's algorithm:
    each row in turn is matched along an augmenting path, found depth first
    over the row bitmasks on an explicit stack.  A step takes an unowned
    column when its row has one, which ends the path at once."""
    owner = [-1] * n  # column -> its matched row
    full = (1 << n) - 1
    unowned = full
    for r in range(n):
        unseen = full  # columns not yet reached in this search
        stack = [[r, row_nz[r], -1]]  # steps: [row, columns left, column taken]
        while stack:
            step = stack[-1]
            left = step[1] & unseen
            if not left:
                stack.pop()
                continue
            pick = (left & unowned) or left
            bit = pick & -pick
            unseen ^= bit
            step[1] = left
            step[2] = j = bit.bit_length() - 1
            if unowned & bit:
                unowned ^= bit
                for row, _, col in stack:
                    owner[col] = row
                break
            stack.append([owner[j], row_nz[owner[j]], -1])
        else:
            return False
    return True


def _bit_rows(matrix) -> list[list[int]]:
    """Each row's entries as the ints 0 and 1; a ghost raises ValueError."""
    if matrix.ones != matrix.nonzero:
        raise ValueError("0/1 entries are defined on {0, 1} only, not on the ghost 1v")
    return [list("".join(row).encode().translate(_BITS)) for row in matrix._token_rows()]


def _labeled_csv(row_labels, col_labels, cell_rows) -> str:
    """Labeled CSV, the layout `SbMatrix.from_csv` reads: a header row of an
    empty field and the column labels, then each row's label and cells.
    Each row's cells come as one string, already joined by ","; each line
    is its label field, as the csv module quotes it, and that string.  The
    csv writer hands each row to `write` whole, and its line terminator is
    "\\r\\n", so that it quotes a label holding "\\r" as well as one holding
    "\\n"; each line then ends in "\\n".  A row with no cells is its label
    alone, quoted when empty."""
    fields = []
    writer = csv.writer(SimpleNamespace(write=fields.append), lineterminator="\r\n")
    writer.writerow(["", *col_labels])
    cell = [""] if col_labels else []  # "label,\r\n" or "label\r\n"
    writer.writerows([label, *cell] for label in row_labels)
    return "".join([field[:-2] + cells + "\n" for field, cells in zip(fields, ["", *cell_rows])])


def _check_axes(n_rows: int, row_labels, col_labels, widths=()) -> None:
    """One label per row, every row of a grid (given its row widths) as
    long as the column labels, and no label twice on either axis."""
    if len(row_labels) != n_rows:
        raise ValueError("row label count does not match the grid")
    widths = set(widths)
    if len(widths) > 1:
        raise ValueError("ragged matrix")
    if widths and widths.pop() != len(col_labels):
        raise ValueError("column label count does not match the grid")
    for axis in (row_labels, col_labels):
        if len(set(axis)) != len(axis):
            raise DuplicateLabels(f"repeated label in {axis!r}")


@dataclass(frozen=True)
class SbMatrix:
    """Immutable labeled matrix over the superboolean semiring, held as its
    rows' masks: bit j of nonzero[i] is set iff entry (i, j) is not 0, and
    bit j of ones[i] iff it is a plain 1.  The cells are a view (`entries`).
    """

    nonzero: tuple[int, ...]
    ones: tuple[int, ...]
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.ones) != len(self.nonzero):
            raise ValueError("nonzero and plain-1 mask counts differ")
        _check_axes(len(self.nonzero), self.row_labels, self.col_labels)
        for m in chain(self.nonzero, self.ones):
            if type(m) is not int:
                raise TypeError(f"row mask {m!r} is not an int")
        top = 1 << len(self.col_labels)
        for nz, one in zip(self.nonzero, self.ones):
            if not 0 <= nz < top:
                raise ValueError(f"row mask {nz:#x} has bits outside {len(self.col_labels)} columns")
            if one & ~nz:
                raise ValueError(f"plain-1 mask {one:#x} is not inside nonzero mask {nz:#x}")

    @classmethod
    def of(
        cls,
        rows: Iterable[Iterable],
        row_labels: Sequence[str] | None = None,
        col_labels: Sequence[str] | None = None,
    ):
        """The matrix of a grid of cells: SBools, bools, 0/1/2 or tokens."""
        grid = [[as_sbool(v).token for v in row] for row in rows]
        width = len(grid[0]) if grid else len(col_labels or ())
        rl = tuple(row_labels) if row_labels is not None else _default_labels("r", len(grid))
        cl = tuple(col_labels) if col_labels is not None else _default_labels("c", width)
        _check_axes(len(grid), rl, cl, map(len, grid))
        return cls._of_tokens([row[::-1] for row in grid], rl, cl)

    @classmethod
    def _of_tokens(cls, token_rows, row_labels, col_labels):
        """The matrix of rows of tokens, each row last column first.

        All tokens are joined, the last row first, after a row of zeros
        (as in `bitops.transpose`).  With "1v" read as 1 (as 0) the text
        holds one bit per cell of the nonzero (plain-1) masks, highest
        first.  Read as one number, row i is its width bits from i * width
        up; every width-th character from width - 1 - j is column j, whose
        masks are cached.
        """
        n, width = len(token_rows), len(col_labels)
        text = "0" * width + "".join(chain.from_iterable(reversed(token_rows)))
        full = (1 << width) - 1
        rows, cols = [], []
        for digits in (text.replace("1v", "1"), text.replace("1v", "0")):
            whole = int(digits or "0", 2)
            rows.append(tuple([whole >> (i * width) & full for i in range(n)]))
            cols.append(tuple([int(digits[k::width], 2) for k in range(width - 1, -1, -1)]))
        matrix = cls(*rows, row_labels, col_labels)
        matrix.__dict__["_col_masks"] = tuple(cols)
        return matrix

    # -- shape and access -------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self.nonzero)

    @property
    def n_cols(self) -> int:
        return len(self.col_labels)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @cached_property
    def _row_lookup(self) -> dict:
        return {label: i for i, label in enumerate(self.row_labels)}

    @cached_property
    def _col_lookup(self) -> dict:
        return {label: j for j, label in enumerate(self.col_labels)}

    def _row_idxs(self, keys: Iterable) -> list[int]:
        return _indices(keys, self._row_lookup, self.n_rows, "row")

    def _col_idxs(self, keys: Iterable) -> list[int]:
        return _indices(keys, self._col_lookup, self.n_cols, "column")

    def entry(self, row, col) -> SBool:
        """One cell, read off its row's masks: nonzero bit plus ghost bit."""
        i, j = self._row_idxs((row,))[0], self._col_idxs((col,))[0]
        return _CELLS[(self.nonzero[i] >> j & 1) + ((self.nonzero[i] & ~self.ones[i]) >> j & 1)]

    @cached_property
    def entries(self) -> tuple[tuple[SBool, ...], ...]:
        """The cells row by row, a read-only view of the masks."""
        return tuple(tuple(map(_FROM_TOKEN.__getitem__, row)) for row in self._token_rows())

    def _token_rows(self) -> list:
        """Each row's tokens, column 0 first: the nonzero mask's digit
        string, and with ghosts a list of its digits with "1v" written over
        each ghost.

        A sentinel bit at position n_cols pads each mask's string to
        n_cols + 1 characters; the reverse slice drops it and reads from
        bit 0 up, so a width-0 row is empty (format(0, "00b") would be "0").
        """
        top = 1 << self.n_cols
        rows = [format(m | top, "b")[:0:-1] for m in self.nonzero]
        if self.ones != self.nonzero:
            rows = [list(row) for row in rows]
            for row, nz, one in zip(rows, self.nonzero, self.ones):
                for j in bits(nz ^ one):
                    row[j] = "1v"
        return rows

    @cached_property
    def _col_masks(self):
        """Per column: row bitmasks of its (nonzero, one) entries, the peel's input."""
        nz = tuple(transpose(self.nonzero, self.n_cols))
        one = nz if self.ones == self.nonzero else tuple(transpose(self.ones, self.n_cols))
        return nz, one  # with no ghost, one transpose serves both

    # -- rearrangement ----------------------------------------------------

    def complement(self):
        """Entrywise 0 -> 1, 1 -> 0, 1v -> 1v: a cell is nonzero after
        unless it was a plain 1, and a plain 1 after iff it was 0."""
        full = (1 << self.n_cols) - 1
        nonzero = tuple([full & ~m for m in self.ones])
        ones = nonzero if self.ones == self.nonzero else tuple([full & ~m for m in self.nonzero])
        return type(self)(nonzero, ones, self.row_labels, self.col_labels)

    def transpose(self):
        """The columns as rows; this matrix's rows are the result's column
        masks, so they are seeded rather than transposed back."""
        turned = type(self)(*self._col_masks, self.col_labels, self.row_labels)
        turned.__dict__["_col_masks"] = (self.nonzero, self.ones)
        return turned

    def submatrix(self, rows=None, cols=None):
        """Restriction to the given rows/columns (labels or indices), in order.

        Rows are picked from the row masks; picked columns are gathered as
        the transpose of their column masks.
        """
        ri = range(self.n_rows) if rows is None else self._row_idxs(rows)
        ci = range(self.n_cols) if cols is None else self._col_idxs(cols)
        nz, one = self.nonzero, self.ones
        if cols is not None:
            nz, one = (transpose([masks[j] for j in ci], self.n_rows) for masks in self._col_masks)
        return type(self)(
            tuple([nz[i] for i in ri]),
            tuple([one[i] for i in ri]),
            tuple([self.row_labels[i] for i in ri]),
            tuple([self.col_labels[j] for j in ci]),
        )

    def permuted(self, row_order: Sequence[int], col_order: Sequence[int]):
        return self.submatrix(rows=row_order, cols=col_order)

    def relabeled(self, row_labels=None, col_labels=None):
        return type(self)(
            self.nonzero,
            self.ones,
            tuple(row_labels) if row_labels is not None else self.row_labels,
            tuple(col_labels) if col_labels is not None else self.col_labels,
        )

    # -- nonsingularity and rank -------------------------------------------

    def _square(self) -> int:
        if self.n_rows != self.n_cols:
            raise NonSquareError(f"{self.n_rows}x{self.n_cols} matrix is not square")
        return self.n_rows

    def permanent(self) -> SBool:
        """Sum over all permutations of the entry products (the 0x0 sum is 1).

        It is 1 exactly when the matrix is nonsingular.  Otherwise it lies in
        the ghost ideal: 1v when some permutation avoids every zero (a perfect
        matching of the nonzero pattern), else 0.
        """
        n = self._square()
        if self.is_nonsingular():
            return ONE
        return GHOST if _has_perfect_matching(self.nonzero, n) else ZERO

    def is_nonsingular(self) -> bool:
        """True when the permanent is exactly 1: the matrix has a triangular form."""
        return self.triangular_form() is not None

    def triangular_form(self):
        """Permutations putting 1s on the diagonal and 0s strictly above.

        Returns (row order, column order) as index tuples, or None when the
        matrix is singular.  The rows are the peel's, last round first; each
        column is its row's witness.
        """
        n = self._square()
        rounds, stuck = _peel(self.nonzero, self.ones, range(n))
        if stuck:
            return None
        pairs = [pair for peeled in reversed(rounds) for pair in peeled]
        return tuple(i for i, _ in pairs), tuple(j for _, j in pairs)

    def columns_independent(self, cols: Iterable) -> bool:
        """No nonzero 0/1 combination of these columns lies in the ghost ideal.

        Decided by the peel: the columns are independent exactly when they
        carry a triangular nonsingular square submatrix.
        """
        idxs = dict.fromkeys(self._col_idxs(cols))
        return not _peel(*self._col_masks, idxs)[1]

    def rows_independent(self, rows: Iterable) -> bool:
        idxs = dict.fromkeys(self._row_idxs(rows))
        return not _peel(self.nonzero, self.ones, idxs)[1]

    def rank(self) -> int:
        """Maximal number of independent rows.

        Equals the maximal number of independent columns and the size of the
        largest nonsingular square submatrix, so the search
        (`_max_independent`) runs over the shorter side.  Its order, split
        and bounds facts are proved in the module docstring.
        """
        masks = self._col_masks if self.n_cols < self.n_rows else (self.nonzero, self.ones)
        return _max_independent(*masks)

    def witness(self, cols: Iterable):
        """Row labels carrying a nonsingular square submatrix on these columns.

        The rows are the ones the peel picks, in row order; they are some
        valid witness, not necessarily the lexicographically first.  Returns
        None when the columns are dependent.
        """
        idxs = dict.fromkeys(self._col_idxs(cols))
        rounds, stuck = _peel(*self._col_masks, idxs)
        if stuck:
            return None
        rows = sorted(j for peeled in rounds for _, j in peeled)
        return tuple(self.row_labels[i] for i in rows)

    # -- text forms ---------------------------------------------------------

    def to_csv(self) -> str:
        """Labeled CSV: header row of column labels, first field of each row
        its label, entries rendered 0 / 1 / 1v."""
        cells = [",".join(row) for row in self._token_rows()]
        return _labeled_csv(self.row_labels, self.col_labels, cells)

    @classmethod
    def from_csv(cls, text: str):
        try:
            # untranslated lines, as the csv module asks: it ends a record at
            # "\n", "\r" or "\r\n" and keeps either inside a quoted field
            rows = [r for r in csv.reader(io.StringIO(text, newline="")) if r]
        except csv.Error as exc:  # e.g. a field past the csv module's size limit
            raise MatrixParseError(f"bad CSV: {exc}") from None
        if not rows:
            raise MatrixParseError("empty matrix text")
        header = rows[0]
        if header[0] != "":
            raise MatrixParseError("first header field must be empty")
        col_labels = tuple(header[1:])
        token_rows = []
        for r in rows[1:]:
            if len(r) != len(col_labels) + 1:
                raise MatrixParseError(f"row {r[:1]} has {len(r) - 1} entries, expected {len(col_labels)}")
            tokens = r[:0:-1]
            if not _TOKEN_SET.issuperset(tokens):  # a token with spaces, or a bad one
                tokens = [tok.strip() for tok in tokens]
                if not _TOKEN_SET.issuperset(tokens):
                    for tok in r[1:]:
                        SBool.from_token(tok)  # raises, naming the first bad raw token
            token_rows.append(tokens)
        try:
            return cls._of_tokens(token_rows, tuple([r[0] for r in rows[1:]]), col_labels)
        except (ValueError, DuplicateLabels) as exc:
            raise MatrixParseError(str(exc)) from None

    def text(self) -> str:
        """Aligned human-readable grid.  A column is as wide as its label or
        its widest token, read off the OR of the rows' ghost masks
        (nonzero ^ ones): "1v" where some row holds a ghost, otherwise "0"
        or "1", and no token at all when there are no rows."""
        tokens = self._token_rows()
        ghosts = reduce(or_, map(xor, self.nonzero, self.ones), 0)
        widths = [max(len(c), bool(tokens) + (ghosts >> j & 1)) for j, c in enumerate(self.col_labels)]
        label_w = max((len(s) for s in self.row_labels), default=0)

        def line(first: str, cells) -> str:
            return " ".join([first.ljust(label_w)] + [t.rjust(w) for t, w in zip(cells, widths)]).rstrip()

        lines = [line("", self.col_labels)]
        lines += [line(label, row) for label, row in zip(self.row_labels, tokens)]
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"<{type(self).__name__} {self.n_rows}x{self.n_cols}>"


@dataclass(frozen=True, repr=False)
class BoolMatrix(SbMatrix):
    """Superboolean matrix whose entries are restricted to {0, 1}: its
    plain-1 masks are its nonzero masks."""

    def __post_init__(self):
        super().__post_init__()
        if self.ones != self.nonzero:
            raise ValueError("boolean matrix cannot hold the ghost 1v")
