"""Extract, reduce, verify, bound, and tropicalize boolean representations.

The pipeline reads the flats of a simple matroid, one row per flat that is
1 on the elements outside it: the lattice of flats' complemented containment
table cut to the atom rows and transposed, with no lattice built.  The
matrix has exactly the matroid's independent sets as its independent
column sets.  Reductions shrink the row set; every reduction is checked
against the matroid rather than trusted, and each checked one ends in the
same certificate step (`_certified`), which returns the result or raises
ReductionError naming the first certificate broken.  It tries
meet-generation (below) first and peels bases only when that fails.

Five facts about superboolean column independence keep that checking
cheap.  It is hereditary, so a matrix represents a matroid exactly when
every basis is matrix-independent and every circuit is matrix-dependent;
those certificates are the reducers' only check, for each row drop and for
the result.  Deleting a row can only turn an independent column set
dependent, never the reverse, so a circuit that is dependent once stays
dependent as rows go.  And the witness rows the peel finds for an
independent set carry a triangular nonsingular submatrix, which survives
the deletion of any row outside it, so a drop rechecks only the bases whose
witness used the dropped row.  Once the kept rows R represent the
matroid, a run S of rows can be tested at once (the run fact): if R - S
represents it, so does R - S' for every S' inside S, and so a pass that
drops one row at a time drops each row of S in turn.  Proof: deleting rows
only shrinks the independent family, so family(R - S) lies in
family(R - S'), which lies in family(R); the two ends are the matroid's.
Last, a matrix of flat rows alone calls no circuit independent, so its
circuits need no listing.  A flat row holds no ghost and its zero set is
closed, as is each row of the extraction (zero exactly on its flat), and
so each row a reduction of it keeps.  Proof: were a circuit C
independent, the first column c its peel removes would have a witness
row, 1 at c and 0 on C - c.  That row's zero set Z then holds C - c but
not c; yet Z is closed, so it holds cl(C - c), which contains c.

Theorem (`paper_reduce`): for a simple matroid of rank at least 3, the
extraction's rows of the bottom and of the proper flats of height at least
2 represent the matroid.  Proof: dropping rows never makes a column set
independent, so dependent sets stay dependent.  An independent set
x1..xk keeps a triangular nonsingular submatrix on rows Z1..Zk with x_i
not in Z_i and x_{i+1..k} in Z_i:
- Z_k is the bottom;
- Z_i = cl(x_{i+1..k}) when k - i >= 2, a proper flat of height k - i;
- Z_{k-1} = cl(x_k, y), where y extends {x_{k-1}, x_k} to an independent
  triple, which rank at least 3 provides.
Each Z_i is the bottom or a proper flat of height at least 2, so each is
kept.  Rank 2 can fail: only the bottom row is left, and it cannot
separate an independent pair.

Theorem (meet-generation): a matrix of flat rows whose zero sets include
every hyperplane represents the matroid.  It rests on the coatomistic
fact: every flat Z other than E is the intersection of the hyperplanes
that contain it (Oxley, *Matroid Theory*, 2nd ed., §1.4 and §1.7), since
for x outside Z a basis of Z plus x extends to a basis B, and cl(B - x)
is a hyperplane that holds Z and misses x.  Proof: dependent sets stay
dependent by the flat-row fact.  For an independent set x1..xk, the flat
cl(x_{i+1..k}) misses x_i, so some hyperplane H_i holds it and misses
x_i.  Row H_i is 1 at x_i and 0 on x_{i+1..k}, so rows H1..Hk on
x1..xk form a triangular nonsingular submatrix.  When it applies, the
certificate step peels nothing; the `paper_reduce` rows apply from rank
3 on, where every hyperplane is a proper flat of height r - 1 >= 2.

`verify_representation` still answers every subset, reading the answers
off the matrix's independent column sets grown from the empty set, to
report every disagreement.  The grower decides each set whose one-smaller
subsets all passed by one peel round carried from its parent, with no
peel call (the growth lemma in the `sbool` docstring); the reducers'
certificates are sets given on their own, and each is peeled.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

from .bitops import bits, mask_of
from .errors import GroundTooLarge, LabelMismatch, ReductionError, UnknownLabel
from .matroid import GroundSet, Matroid
from .sbool import (
    BoolMatrix, SbMatrix, _bit_rows, _check_axes, _independent_column_sets, _labeled_csv, _peel,
)

__all__ = [
    "Representation",
    "VerificationReport",
    "TropicalMatrix",
    "extract_representation",
    "paper_reduce",
    "dedupe_reduce",
    "verified_reduce",
    "verify_representation",
    "size_bound",
    "tropicalize",
    "representation_to_json",
]

# Exhaustive verification walks all 2^n column subsets.
VERIFY_CAP = 12

REDUCTION_MODES = ("full", "paper", "dedupe", "verified")


@dataclass(frozen=True)
class Representation:
    """A boolean matrix representing a matroid, plus where its rows came from.

    Columns are the ground elements in canonical order; rows are the
    retained flats, named by the row labels that `provenance` returns
    (their lattice, when wanted, is `FlatLattice.from_matroid(rep.matroid)`).
    """

    matrix: BoolMatrix
    reduction_mode: str
    matroid: Matroid

    def __post_init__(self):
        if self.reduction_mode not in REDUCTION_MODES:
            raise ValueError(f"unknown reduction mode {self.reduction_mode!r}")
        if self.matrix.col_labels != self.matroid.ground.labels:
            raise LabelMismatch("columns must be the ground elements in order")

    @property
    def provenance(self) -> tuple[str, ...]:
        return self.matrix.row_labels

    @property
    def row_count(self) -> int:
        return self.matrix.n_rows


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of an exhaustive independence comparison; ok means no mismatches."""

    mismatches: tuple[tuple[str, ...], ...]
    checked_count: int

    @property
    def ok(self) -> bool:
        return not self.mismatches


def extract_representation(matroid: Matroid) -> Representation:
    """The full representation: one row per flat, one column per element.

    Entry (F, x) is 1 iff x is not in F.  This is the lattice
    representation cut down to the atom rows and transposed, since the
    atom of x lies below F exactly when x is in F; it is read straight off
    `flat_masks`, rows named by `flat_names`, so no lattice is built.
    """
    ground = matroid.ground
    rows = tuple([ground.full_mask & ~flat for flat in matroid.flat_masks])
    return Representation(BoolMatrix(rows, rows, matroid.flat_names, ground.labels), "full", matroid)


def _check_cap(ground: GroundSet) -> None:
    if ground.size > VERIFY_CAP:
        raise GroundTooLarge(
            f"exhaustive verification is capped at {VERIFY_CAP} elements"
        )


def _flat_rows(matrix: SbMatrix, matroid: Matroid) -> bool:
    """Is every row a flat row: free of ghosts, with a closed zero set?

    Columns are the ground elements in order.
    """
    full = matroid.ground.full_mask
    rows = matrix.nonzero
    return matrix.ones == rows and all(matroid.is_flat_mask(full & ~nz) for nz in rows)


def _certificates(matroid: Matroid, flat: bool):
    """The bases and the circuits as column-index tuples, canonically ordered.

    The circuits are left out when every row of the matrix is a flat row
    (`flat`, from `_flat_rows`), since such a matrix calls none of them
    independent.
    """
    ground = matroid.ground
    bases = [tuple(bits(b)) for b in sorted(matroid.bases, key=ground.sort_key)]
    circuits = [] if flat else [tuple(bits(c)) for c in matroid.circuit_masks()]
    return bases, circuits


def _certified(matroid: Matroid, matrix: SbMatrix, mode: str, what: str, certificates=None):
    """The matrix as the matroid's `mode` representation, or a
    ReductionError saying `what` went wrong and naming the first broken
    certificate.  Every checked reduction ends here.

    When the rows' zero sets hold every hyperplane and every row is a flat
    row (`_flat_rows`), the matrix represents the matroid by the
    meet-generation theorem of the module docstring, and nothing is
    peeled; the cheaper subset test goes first, and the rows are
    classified at most once.  Otherwise each basis of `certificates` (by
    default all of `_certificates` for these rows) is peeled, then each
    circuit: the first basis the matrix calls column-dependent, or failing
    that the first circuit it calls column-independent, is the one named.
    With all bases and circuits given, passing means exactly that the
    matrix represents the matroid, since column independence is hereditary:
    - an independent set lies in a basis, whose subsets are all independent;
    - a dependent set holds a circuit, whose supersets are all dependent;
    - and each certificate is itself a subset the two must agree on.
    """
    full = matroid.ground.full_mask
    held = matroid.hyperplane_masks <= {full & ~nz for nz in matrix.nonzero}
    flat = (held or not certificates) and _flat_rows(matrix, matroid)
    if held and flat:
        return Representation(matrix, mode, matroid)
    bases, circuits = certificates or _certificates(matroid, flat)
    nz, one = matrix._col_masks
    name = matroid.ground.subset_name
    for basis in bases:
        if _peel(nz, one, basis)[1]:
            raise ReductionError(f"{what}: basis {name(mask_of(basis))} is column-dependent")
    for circuit in circuits:
        if not _peel(nz, one, circuit)[1]:
            raise ReductionError(f"{what}: circuit {name(mask_of(circuit))} is column-independent")
    return Representation(matrix, mode, matroid)


def paper_reduce(rep: Representation) -> Representation:
    """Keep the bottom row and the rows of proper flats above the atoms.

    A row is kept, by position, when its flat is empty, or is not the
    ground set and has two or more elements: a simple matroid's rank-1
    flats are its singletons.  A row that names no flat raises
    UnknownLabel.  From rank 3 the rows kept from an extraction always
    represent the matroid (the theorem in the module docstring); at rank 2
    they never do.  The certificate step checks the result, as the runtime
    guard of that proof: kept flat rows holding every hyperplane pass by
    meet-generation, which they do from rank 3 on; otherwise every basis
    is peeled and, only when some kept row is not a flat row, every
    circuit.  Ground sets past `VERIFY_CAP` are refused.
    """
    if rep.reduction_mode != "full":
        raise ReductionError("can only reduce a full representation")
    matroid = rep.matroid
    _check_cap(matroid.ground)
    n = matroid.ground.size
    sizes = dict(zip(matroid.flat_names, (f.bit_count() for f in matroid.flat_masks)))
    keep = []
    for i, name in enumerate(rep.provenance):
        if name not in sizes:
            raise UnknownLabel(f"no flat named {name!r}")
        if sizes[name] == 0 or 2 <= sizes[name] < n:
            keep.append(i)
    matrix = rep.matrix.submatrix(rows=keep)
    return _certified(matroid, matrix, "paper", "dropping atom and top rows broke a certificate")


def _strip_rows(matrix: BoolMatrix) -> BoolMatrix:
    """The matrix without its all-zero and repeated rows, read off each
    row's (nonzero, plain-1) masks: the first row of each nonzero pair."""
    first = {}
    for i, (nz, one) in enumerate(zip(matrix.nonzero, matrix.ones)):
        if nz:
            first.setdefault((nz, one), i)
    return matrix.submatrix(rows=list(first.values()))


def dedupe_reduce(rep: Representation) -> Representation:
    """Drop duplicate rows and all-zero rows; both are provably inert.

    A zero row puts every combination in the ghost ideal at that
    coordinate no matter what, and a duplicate row tracks its twin, so
    column independence is untouched.  No re-verification needed.
    """
    return Representation(_strip_rows(rep.matrix), "dedupe", rep.matroid)


def _witness_rows(rounds) -> int:
    """Bitmask of the rows a peel used as witnesses."""
    rows = 0
    for peeled in rounds:
        for _, j in peeled:
            rows |= 1 << j
    return rows


def _greedy_drops(nz, one, n_rows: int, bases, loose) -> int:
    """Bitmask of the rows the one-row greedy pass drops, trying rows in
    order: a row goes when the rows still kept without it represent the
    matroid, and the last row stays.

    Works on column masks alone: dropping rows S clears their bits.  Each
    basis keeps the witness rows of its last peel, and a test rechecks only
    the bases whose witness meets S, since the others keep their triangular
    nonsingular submatrix.  The loose circuits are rechecked until the
    first accepted drop; after it every circuit is dependent for good, and
    the kept rows represent the matroid.  From then on a run S of the next
    untried rows is tested at once, and all of S goes when every rechecked
    basis still peels: by the run fact of the module docstring the one-row
    pass would drop each row of S in turn.  The run doubles after a drop
    and halves after a failure; a failed one-row test keeps its row.
    """
    witnesses = []
    for basis in bases:
        rounds, stuck = _peel(nz, one, basis)
        if stuck:
            return 0  # a dependent basis stays dependent, so no drop is accepted
        witnesses.append(_witness_rows(rounds))
    gone = r = 0
    run = 1  # stays 1 while loose circuits remain: it grows only after a drop
    while r < n_rows:
        left = n_rows - gone.bit_count()
        if left == 1:
            break
        run = min(run, left - 1, n_rows - r)
        span = ((1 << run) - 1) << r
        keep = ~(gone | span)
        trial_nz = [m & keep for m in nz]
        trial_one = trial_nz if one is nz else [m & keep for m in one]
        renewed = {}
        for i, basis in enumerate(bases):
            if witnesses[i] & span:
                rounds, stuck = _peel(trial_nz, trial_one, basis)
                if stuck:
                    break
                renewed[i] = _witness_rows(rounds)
        else:  # every rechecked basis still peels
            if all(_peel(trial_nz, trial_one, c)[1] for c in loose):
                gone |= span
                for i, rows in renewed.items():
                    witnesses[i] = rows
                loose = ()
                r += run
                run *= 2
                continue
        if run == 1:
            r += 1  # the row stays
        else:
            run //= 2
    return gone


def verified_reduce(rep: Representation) -> Representation:
    """Greedy row minimization, each drop decided by basis and circuit
    certificates.

    After stripping duplicates and zero rows, each remaining row, in order,
    is dropped whenever the matrix without it still induces exactly the
    matroid's independent family (`_greedy_drops`, on the facts of the
    module docstring): the bases are checked, and the circuits the stripped
    matrix calls independent only until the first accepted drop.  After
    that drop, runs of consecutive rows are tested at once, and the rows
    dropped are exactly those of the one-row pass.  When every stripped row
    is a flat row, the circuits are never listed.  The result goes through
    the certificate step, on the bases and loose circuits held here; the
    step tries meet-generation on the kept rows first, and fails only when
    no drop was accepted and the starting matrix is no representation.
    Ground sets past `VERIFY_CAP` are refused.
    """
    matroid = rep.matroid
    _check_cap(matroid.ground)
    start = _strip_rows(rep.matrix)
    bases, circuits = _certificates(matroid, _flat_rows(start, matroid))
    nz, one = start._col_masks
    loose = [c for c in circuits if not _peel(nz, one, c)[1]]
    gone = _greedy_drops(nz, one, start.n_rows, bases, loose)
    matrix = start.submatrix(rows=[i for i in range(start.n_rows) if not gone >> i & 1])
    return _certified(
        matroid, matrix, "verified", "greedy reduction produced a non-representation",
        (bases, loose),
    )


def verify_representation(rep, matroid: Matroid) -> VerificationReport:
    """Compare column independence against the matroid on every subset.

    Accepts a Representation or a bare matrix.  Column labels must be
    exactly the ground elements (any order); the columns are put in ground
    order once, and every disagreement is reported, in canonical subset
    order.  The matrix's answers are its independent column sets, grown
    one column at a time by `sbool._independent_column_sets`: dependence
    survives adding columns, so a set is tested only when all its
    one-smaller subsets are independent, and then one peel round carried
    from its parent decides it.  The matroid's answers are the
    keys of its extension table (`Matroid.independent_masks`).  Both are
    sets of ground masks, downward closed by construction, so neither is
    copied, wrapped or checked again: the disagreements are their
    symmetric difference, and only those are sorted.
    """
    matrix = rep.matrix if isinstance(rep, Representation) else rep
    ground = matroid.ground
    if sorted(matrix.col_labels) != sorted(ground.labels):
        raise LabelMismatch(
            f"matrix columns {matrix.col_labels} against ground {ground.labels}"
        )
    _check_cap(ground)
    if matrix.col_labels != ground.labels:
        matrix = matrix.submatrix(cols=ground.labels)
    wrong = _independent_column_sets(matrix) ^ matroid.independent_masks
    mismatches = tuple(ground.labels_of(m) for m in sorted(wrong, key=ground.sort_key))
    return VerificationReport(mismatches, 1 << ground.size)


def size_bound(matroid: Matroid) -> int:
    """Binomial-sum ceiling on the rows any lattice-derived representation
    needs: subsets of the ground set of size at most the rank.

    The hyperplane count is a proved and much lower bound: the hyperplane
    rows alone represent the matroid (meet-generation, in the module
    docstring), so no representation needs more rows than
    `Matroid.hyperplane_masks` holds.  Hyperplanes against this ceiling on
    the catalog: u34 6 / 15, fivept 6 / 26, k4 7 / 42, w3 9 / 42.
    """
    n = matroid.ground.size
    return sum(math.comb(n, i) for i in range(matroid.rank + 1))


@dataclass(frozen=True)
class TropicalMatrix:
    """Max-plus image of a boolean matrix: entries 0.0 or -inf."""

    entries: tuple[tuple[float, ...], ...]
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]

    def __post_init__(self):
        for row in self.entries:
            for v in row:
                if v != 0.0 and v != float("-inf"):
                    raise ValueError(f"tropical entry must be 0 or -inf, got {v!r}")
        _check_axes(len(self.entries), self.row_labels, self.col_labels, map(len, self.entries))

    def to_boolean(self) -> BoolMatrix:
        """Inverse of the embedding: 0.0 back to 1, -inf back to 0."""
        rows = ((1 if v == 0.0 else 0 for v in row) for row in self.entries)
        return BoolMatrix.of(rows, self.row_labels, self.col_labels)

    def to_csv(self) -> str:
        cells = [",".join(["0" if v == 0.0 else "-inf" for v in row]) for row in self.entries]
        return _labeled_csv(self.row_labels, self.col_labels, cells)


def tropicalize(rep) -> TropicalMatrix:
    """Entrywise embedding into the max-plus semiring: 1 to 0, 0 to -inf."""
    matrix = rep.matrix if isinstance(rep, Representation) else rep
    value = (float("-inf"), 0.0)
    grid = tuple(tuple([value[v] for v in row]) for row in _bit_rows(matrix))
    return TropicalMatrix(grid, matrix.row_labels, matrix.col_labels)


def representation_to_json(rep: Representation) -> str:
    matrix = rep.matrix
    return json.dumps(
        {
            "rows": list(matrix.row_labels),
            "cols": list(matrix.col_labels),
            "entries": _bit_rows(matrix),
        }
    )
