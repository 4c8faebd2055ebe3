"""Exact arithmetic in the three-element superboolean semiring and its matrices.

Scalars are totally ordered 1v > 1 > 0, where 1v = 1 + 1 is the ghost
element and {0, 1v} is the ghost ideal.  Matrices are dense, labeled and
immutable; every operation returns a new value.  Only this module reads or
writes a cell: other modules read a matrix through its (nonzero, plain-1)
masks or its 0/1 rows (`_bit_rows`).

Decisions rest on two facts: a set of columns is independent iff some
square submatrix on it is nonsingular, and a matrix is nonsingular iff it
has a triangular form with plain 1s on the diagonal.  One greedy peel
(`_peel`) is the only test of independence.  It answers row and column
independence, nonsingularity (a square matrix whose rows all peel),
triangular forms and witness rows in polynomial time, and it decides each
node of rank's search.  The permanent is 1 iff the matrix is nonsingular,
and otherwise 1v or 0 as its nonzero pattern does or does not hold a
perfect matching (Kuhn's algorithm, each augmenting path found depth first
on an explicit stack).

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
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, total_ordering
from typing import Iterable, Sequence

from .errors import DuplicateLabels, MatrixParseError, NonSquareError, UnknownLabel

__all__ = [
    "SBool",
    "ZERO",
    "ONE",
    "GHOST",
    "as_sbool",
    "sb_sum",
    "sb_product",
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
_COMPLEMENT = (ONE, ZERO, GHOST)
_FROM_TOKEN = {"0": ZERO, "1": ONE, "1v": GHOST}


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


def _masks(vectors):
    """Per vector: coordinate bitmasks of its (nonzero, one) entries."""
    nz, one = [], []
    for vector in vectors:
        a = b = 0
        for j, v in enumerate(vector):
            if v is not ZERO:
                a |= 1 << j
                if v is ONE:
                    b |= 1 << j
        nz.append(a)
        one.append(b)
    return tuple(nz), tuple(one)


def _max_independent(nz_masks, one_masks) -> int:
    """Size of the largest independent sub-collection of the given vectors.

    Depth first over the union of the chosen vectors' nonzero coordinates,
    on the three facts of the module docstring: a union is peeled again
    only when reached at a greater depth, the peeled vectors are counted,
    and the search branches on the stuck core until the upper bound cannot
    beat the best size found.  The core vectors that leave the most
    coordinates free go first, since a smaller union admits every order a
    larger one does.  The steps wait on an explicit stack, each with the
    bound of the step that pushed it, so the search holds no reference
    cycle and its memo is freed as soon as it returns.
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


def _zero_set_rows(masks, width: int) -> tuple[tuple[SBool, ...], ...]:
    """0/1 rows of the given width, row r zero exactly on masks[r].

    A sentinel bit at position width pads each mask's string to width + 1
    characters; the reverse slice drops it and reads from position 0 up, so
    a width-0 row is empty (format(0, "00b") would be "0").
    """
    top = 1 << width
    cell = {"0": ONE, "1": ZERO}.__getitem__
    return tuple(tuple(map(cell, format(m | top, "b")[:0:-1])) for m in masks)


def _bit_rows(matrix) -> list[list[int]]:
    """Each row's entries as the ints 0 and 1; a ghost raises ValueError."""
    rows = [[v._value_ for v in row] for row in matrix.entries]
    if any(GHOST._value_ in row for row in rows):
        raise ValueError("0/1 entries are defined on {0, 1} only, not on the ghost 1v")
    return rows


def _labeled_csv(row_labels, col_labels, token_rows) -> str:
    """Labeled CSV, the layout `SbMatrix.from_csv` reads: a header row of an
    empty field and the column labels, then each row's label and tokens."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["", *col_labels])
    writer.writerows([label, *row] for label, row in zip(row_labels, token_rows))
    return out.getvalue()


@dataclass(frozen=True)
class SbMatrix:
    """Immutable labeled matrix over the superboolean semiring."""

    entries: tuple[tuple[SBool, ...], ...]
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.row_labels) != len(self.entries):
            raise ValueError("row label count does not match the grid")
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged matrix")
        if widths and widths.pop() != len(self.col_labels):
            raise ValueError("column label count does not match the grid")
        for axis in (self.row_labels, self.col_labels):
            if len(set(axis)) != len(axis):
                raise DuplicateLabels(f"repeated label in {axis!r}")
        self._check_entries()

    def _check_entries(self):
        for row in self.entries:
            for v in row:
                if not isinstance(v, SBool):
                    raise TypeError(f"matrix entry {v!r} is not an SBool")

    @classmethod
    def of(
        cls,
        rows: Iterable[Iterable],
        row_labels: Sequence[str] | None = None,
        col_labels: Sequence[str] | None = None,
    ):
        grid = tuple(tuple(as_sbool(v) for v in row) for row in rows)
        n_rows = len(grid)
        if grid:
            n_cols = len(grid[0])
        else:
            n_cols = len(col_labels) if col_labels is not None else 0
        rl = tuple(row_labels) if row_labels is not None else _default_labels("r", n_rows)
        cl = tuple(col_labels) if col_labels is not None else _default_labels("c", n_cols)
        return cls(grid, rl, cl)

    # -- shape and access -------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self.entries)

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
        return _indices(keys, self._row_lookup, len(self.entries), "row")

    def _col_idxs(self, keys: Iterable) -> list[int]:
        return _indices(keys, self._col_lookup, len(self.col_labels), "column")

    def entry(self, row, col) -> SBool:
        return self.entries[self._row_idxs((row,))[0]][self._col_idxs((col,))[0]]

    # -- cached bitmask views ---------------------------------------------

    @cached_property
    def _row_masks(self):
        """Per row: column bitmasks of its (nonzero, one) entries, the peel's input."""
        return _masks(self.entries)

    @cached_property
    def _col_masks(self):
        """Per column: row bitmasks of its (nonzero, one) entries, the peel's input."""
        return _masks(zip(*self.entries) if self.entries else [()] * self.n_cols)

    # -- rearrangement ----------------------------------------------------

    def complement(self):
        """Entrywise 0 -> 1, 1 -> 0, 1v -> 1v."""
        grid = tuple(tuple([_COMPLEMENT[v._value_] for v in row]) for row in self.entries)
        return type(self)(grid, self.row_labels, self.col_labels)

    def transpose(self):
        grid = tuple(zip(*self.entries)) if self.entries else ((),) * self.n_cols
        return type(self)(grid, self.col_labels, self.row_labels)

    def submatrix(self, rows=None, cols=None):
        """Restriction to the given rows/columns (labels or indices), in order."""
        ri = range(self.n_rows) if rows is None else self._row_idxs(rows)
        ci = range(self.n_cols) if cols is None else self._col_idxs(cols)
        grid = tuple(tuple(self.entries[i][j] for j in ci) for i in ri)
        return type(self)(
            grid,
            tuple(self.row_labels[i] for i in ri),
            tuple(self.col_labels[j] for j in ci),
        )

    def permuted(self, row_order: Sequence[int], col_order: Sequence[int]):
        return self.submatrix(rows=row_order, cols=col_order)

    def relabeled(self, row_labels=None, col_labels=None):
        return type(self)(
            self.entries,
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
        return GHOST if _has_perfect_matching(self._row_masks[0], n) else ZERO

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
        nz, one = self._row_masks
        rounds, stuck = _peel(nz, one, range(n))
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
        nz, one = self._col_masks
        return not _peel(nz, one, idxs)[1]

    def rows_independent(self, rows: Iterable) -> bool:
        idxs = dict.fromkeys(self._row_idxs(rows))
        nz, one = self._row_masks
        return not _peel(nz, one, idxs)[1]

    def rank(self) -> int:
        """Maximal number of independent rows.

        Equals the maximal number of independent columns and the size of the
        largest nonsingular square submatrix, so the search runs over the
        shorter side.  It rests on three facts, proved at more length in the
        module docstring:
        - Order: vectors are independent iff some order gives each a plain 1
          where every earlier vector is 0.  Those coordinates carry a
          triangular nonsingular submatrix, and the peel of an independent
          set, read last round first, is such an order.  So the search state
          is U, the union of the chosen vectors' nonzero coordinates.
        - Split: at each union, the peel of the viable vectors cut to the
          coordinates outside U splits them into peeled vectors and a stuck
          core.  A peeled vector's witness lies outside U and is hit by no
          stuck vector and no peeled vector placed before it, so the peeled
          vectors can always go last and count exactly.  The core is
          dependent, and it is the only part branched on.
        - Bounds: depth + peeled is exact when the core is empty.  Otherwise
          one core vector followed by the peeled ones is an order, so
          depth + peeled + 1 is reached; and the core vectors of an order
          are independent outside U, so fewer than |core|, and each needs
          its own plain-1 coordinate outside U, which bounds every branch by
          depth + peeled + min(|core| - 1, core's plain-1 free coordinates).
        """
        nz, one = self._col_masks if self.n_cols < self.n_rows else self._row_masks
        return _max_independent(nz, one)

    def witness(self, cols: Iterable):
        """Row labels carrying a nonsingular square submatrix on these columns.

        The rows are the ones the peel picks, in row order; they are some
        valid witness, not necessarily the lexicographically first.  Returns
        None when the columns are dependent.
        """
        idxs = dict.fromkeys(self._col_idxs(cols))
        nz, one = self._col_masks
        rounds, stuck = _peel(nz, one, idxs)
        if stuck:
            return None
        rows = sorted(j for peeled in rounds for _, j in peeled)
        return tuple(self.row_labels[i] for i in rows)

    # -- text forms ---------------------------------------------------------

    def to_csv(self) -> str:
        """Labeled CSV: header row of column labels, first field of each row
        its label, entries rendered 0 / 1 / 1v."""
        tokens = ([_TOKENS[v._value_] for v in row] for row in self.entries)
        return _labeled_csv(self.row_labels, self.col_labels, tokens)

    @classmethod
    def from_csv(cls, text: str):
        try:
            rows = [r for r in csv.reader(io.StringIO(text)) if r]
        except csv.Error as exc:  # e.g. a field past the csv module's size limit
            raise MatrixParseError(f"bad CSV: {exc}") from None
        if not rows:
            raise MatrixParseError("empty matrix text")
        header = rows[0]
        if not header or header[0] not in ("", None):
            raise MatrixParseError("first header field must be empty")
        col_labels = tuple(header[1:])
        row_labels = []
        grid = []
        for r in rows[1:]:
            if len(r) != len(col_labels) + 1:
                raise MatrixParseError(f"row {r[:1]} has {len(r) - 1} entries, expected {len(col_labels)}")
            row_labels.append(r[0])
            try:
                grid.append(tuple([_FROM_TOKEN[tok.strip()] for tok in r[1:]]))
            except KeyError:
                for tok in r[1:]:
                    SBool.from_token(tok)  # raises, naming the raw token
                raise
        try:
            return cls(tuple(grid), tuple(row_labels), tuple(col_labels))
        except (ValueError, DuplicateLabels) as exc:
            raise MatrixParseError(str(exc)) from None

    def text(self) -> str:
        """Aligned human-readable grid."""
        tokens = [[_TOKENS[v._value_] for v in row] for row in self.entries]
        label_w = max((len(s) for s in self.row_labels), default=0)
        widths = [
            max([len(c)] + [len(tokens[i][j]) for i in range(self.n_rows)])
            for j, c in enumerate(self.col_labels)
        ]
        lines = [
            " ".join([" " * label_w] + [c.rjust(w) for c, w in zip(self.col_labels, widths)]).rstrip()
        ]
        for label, row in zip(self.row_labels, tokens):
            lines.append(
                " ".join([label.ljust(label_w)] + [t.rjust(w) for t, w in zip(row, widths)]).rstrip()
            )
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"<{type(self).__name__} {self.n_rows}x{self.n_cols}>"


@dataclass(frozen=True, repr=False)
class BoolMatrix(SbMatrix):
    """Superboolean matrix whose entries are restricted to {0, 1}."""

    def _check_entries(self):
        for row in self.entries:
            for v in row:
                if v is not ZERO and v is not ONE:
                    # a non-SBool anywhere outranks a ghost: TypeError first
                    super()._check_entries()
                    raise ValueError("boolean matrix cannot hold the ghost 1v")
