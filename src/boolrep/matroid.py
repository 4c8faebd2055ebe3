"""Hereditary collections and matroids over a finite labeled ground set.

Subsets of the ground set are bitmasks over label positions.  A matroid is
stored by its bases; one walk down from them builds its extension table,
each independent set I mapped to the elements e with I + e independent.
Independence is membership in it, rank the greedy algorithm (Edmonds 1971),
and the span of an independent set, the one closure rule, the complement of
its extensions (Oxley, *Matroid Theory*, 2nd ed., §1.2-1.4).  Closure,
flats, loops, simplicity and the basis exchange check read that table, and
so do the circuits, the minimal dependent sets (§1.1), and the independent
masks verification compares.  The table is downward closed by
construction, so a matroid's family becomes a validated
`HereditaryCollection` only when a caller asks for `independent_family`;
families that arrive from outside are always validated.  One walk,
`_circuit_masks`, lists the circuits of either.

The exchange check works on basis bitsets: holds[e] is the set of basis
indices whose basis contains e, so the bases that avoid a mask C are
every & ~OR(holds[e] for e in C), one big-integer OR per element of C.  A
basis b2 breaks exchange for a basis b1 and x in b1 exactly when it avoids
the completion mask of b1 - x, so the family is a matroid's bases iff no
basis avoids any completion mask of an (r-1)-set of the table.  Those are
all the masks there are to check: the table is the downward closure of the
bases, so each of its (r-1)-sets is b1 - x for some basis b1.  They are
the walk's first level (`_completions`), which the check reads alone, and
their spans, the complements of their completion masks, are the
hyperplanes.  A basis avoiding the completion mask C of an (r-1)-set I
lies in E - C, which holds I, and misses some element of I, since I + y
for y outside C is not a basis; so it fits only when n - |C| > r.  Only
those masks are tested, and the bitsets are built only when one is left.
The counterexample is built only when the check fails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, permutations, repeat
from typing import Iterable, KeysView, Mapping

from .bitops import bits, mask_of, transpose
from .errors import (
    AllLoops,
    AmbiguousLabel,
    DuplicateLabels,
    EmptyFamily,
    ExchangeFails,
    GroundTooLarge,
    MatroidParseError,
    NotDownwardClosed,
    NotSimple,
    UnequalBasisSizes,
    UnknownLabel,
)
from .sbool import SbMatrix, _independent_column_sets

__all__ = [
    "GroundSet",
    "HereditaryCollection",
    "Matroid",
    "hereditary_from_matrix",
    "find_isomorphism",
    "matroid_from_json",
    "matroid_to_json",
]

# Exhaustive isomorphism search walks up to n! bijections.
ISOMORPHISM_CAP = 8


@dataclass(frozen=True)
class GroundSet:
    """Ordered, unique element labels; the order fixes all bitmask layouts."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise DuplicateLabels(f"repeated ground element in {self.labels!r}")

    @classmethod
    def of(cls, labels: Iterable[str]) -> "GroundSet":
        return cls(tuple(str(x) for x in labels))

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    @cached_property
    def _bit(self) -> dict:
        return {label: 1 << i for i, label in enumerate(self.labels)}

    def index(self, label: str) -> int:
        """Position of a label; an unknown or unhashable one raises UnknownLabel."""
        return self.mask_of((label,)).bit_length() - 1

    def mask_of(self, labels: Iterable[str]) -> int:
        """Mask of the given labels, one lookup each; a label listed twice
        counts once."""
        bit = self._bit
        mask = 0
        for label in labels:
            try:
                mask |= bit[label]
            except (KeyError, TypeError):
                raise UnknownLabel(f"no ground element labeled {label!r}") from None
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in bits(mask))

    def subset_name(self, mask: int) -> str:
        """Brace-delimited name in ground order, e.g. "{1,4}"; "{}" when empty."""
        labels = self.labels
        return "{" + ",".join([labels[i] for i in bits(mask)]) + "}"

    @cached_property
    def _bit_format(self) -> str:
        return f"0{len(self.labels)}b"

    def sort_key(self, mask: int):
        """Canonical subset order: cardinality, then positions lexicographically.

        The key is the cardinality and the complement's bits read from the
        lowest position up.  Of two sets of one size, the one holding the
        lowest position of their symmetric difference has the smaller
        position tuple, and a 0 where the other's complement has a 1.
        """
        return (mask.bit_count(), format(mask ^ self.full_mask, self._bit_format)[::-1])


def _distinct(labels: Iterable[str]) -> tuple[str, ...]:
    """The labels as a tuple.  A label listed twice raises DuplicateLabels
    rather than being dropped, which would silently change the set (or a
    witness's row count); an unhashable one raises UnknownLabel."""
    labels = tuple(labels)
    try:
        repeated = len(set(labels)) != len(labels)
    except TypeError:
        raise UnknownLabel(f"set {labels!r} holds an unhashable label") from None
    if repeated:
        raise DuplicateLabels(f"repeated label in set {labels!r}")
    return labels


def _set_mask(ground: GroundSet, labels: Iterable[str]) -> int:
    """Mask of one set given by its labels, for callers and JSON alike: an
    unknown or unhashable label raises first (`GroundSet.mask_of`), then a
    repeated one (`_distinct`), since a repeat leaves fewer bits than
    labels."""
    labels = tuple(labels)
    mask = ground.mask_of(labels)
    if mask.bit_count() != len(labels):
        _distinct(labels)  # raises, naming the set
    return mask


def _check_inside(ground: GroundSet, masks, kind: str) -> None:
    """Raise UnknownLabel naming a mask with bits outside the ground set."""
    outside = ~ground.full_mask
    stray = next((m for m in masks if m & outside), None)
    if stray is not None:
        raise UnknownLabel(f"{kind} mask {stray:#x} has bits outside the ground set")


def _validate_downward_closed(ground: GroundSet, family: frozenset) -> None:
    if not family:
        raise EmptyFamily("the family must contain at least one subset")
    for mask in family:
        for i in bits(mask):
            sub = mask ^ (1 << i)
            if sub not in family:
                raise NotDownwardClosed(ground.labels_of(sub), ground.labels_of(mask))


def _level_below(level) -> dict:
    """Each mask one element smaller than a member of `level` mapped to
    the elements that put it back into `level`."""
    below = {}
    for mask in level:
        rest = mask
        while rest:
            low = rest & -rest
            sub = mask ^ low
            below[sub] = below.get(sub, 0) | low
            rest ^= low
    return below


def _circuit_masks(ground: GroundSet, family) -> tuple[int, ...]:
    """Minimal dependent subsets of a downward-closed family of masks (a
    set of them, or a dict keyed by them), canonically ordered.

    A circuit C minus its largest element is a member, so candidates
    extend each member only by elements above its top bit, and each
    circuit is met exactly once.  Minimality then needs only the
    single-element deletions within the member, because the family is
    downward closed and the member itself is in it.
    """
    found = []
    for member in family:
        for i in range(member.bit_length(), ground.size):
            top = 1 << i
            if member | top in family:
                continue
            if all(member ^ (1 << j) | top in family for j in bits(member)):
                found.append(member | top)
    return tuple(sorted(found, key=ground.sort_key))


@dataclass(frozen=True)
class HereditaryCollection:
    """A nonempty, downward-closed family of subsets of the ground set."""

    ground: GroundSet
    family: frozenset

    def __post_init__(self):
        _check_inside(self.ground, self.family, "family")
        _validate_downward_closed(self.ground, self.family)

    @classmethod
    def of(cls, ground: GroundSet, subsets: Iterable[Iterable[str]]) -> "HereditaryCollection":
        return cls(ground, frozenset(_set_mask(ground, s) for s in subsets))

    @property
    def rank(self) -> int:
        """Cardinality of the largest member."""
        return max(m.bit_count() for m in self.family)

    def is_independent(self, labels: Iterable[str]) -> bool:
        return self.ground.mask_of(labels) in self.family

    def members(self) -> tuple[tuple[str, ...], ...]:
        """The family in canonical subset order, as label tuples."""
        order = sorted(self.family, key=self.ground.sort_key)
        return tuple(self.ground.labels_of(m) for m in order)

    def circuit_masks(self) -> tuple[int, ...]:
        """Minimal dependent subsets, canonically ordered (`_circuit_masks`)."""
        return _circuit_masks(self.ground, self.family)

    def circuits(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self.ground.labels_of(m) for m in self.circuit_masks())

    def point_replacement_violation(self):
        """Counterexample (p, J) to point replacement, or None.

        Point replacement: for every independent singleton {p} and nonempty
        member J, some x in J keeps J - x + p in the family.
        """
        singles = [i for i in range(self.ground.size) if (1 << i) in self.family]
        for p in singles:
            pbit = 1 << p
            for member in self.family:
                if member == 0 or member & pbit:
                    continue
                if not any(member ^ (1 << x) | pbit in self.family for x in bits(member)):
                    return (self.ground.labels[p], self.ground.labels_of(member))
        return None

    @property
    def satisfies_point_replacement(self) -> bool:
        return self.point_replacement_violation() is None

    def augmentation_violation(self):
        """Counterexample (X, Y) to independence augmentation, or None.

        Augmentation: members X, Y with |Y| = |X| + 1 admit y in Y minus X
        with X + y a member.  Holding for all pairs makes the family a
        matroid's independent family, so `Matroid`'s exchange check on the
        largest members decides it.  ExchangeFails(b1, b2, x) gives
        X = b1 - x and Y = b2, since b2 holds no completion of b1 - x.
        Otherwise a largest member M outside that matroid's extension table
        extends by no element (M + e would be larger and outside too), so Y
        is the first |M| + 1 labels of the canonically first largest member.
        """
        try:
            matroid, small = self._largest_matroid()
        except ExchangeFails as exc:
            return (tuple(x for x in exc.basis1 if x != exc.element), exc.basis2)
        if small is None:
            return None
        first = self.ground.labels_of(min(matroid.bases, key=self.ground.sort_key))
        return (self.ground.labels_of(small), first[: small.bit_count() + 1])

    def _largest_matroid(self):
        """`Matroid` on the largest members, and the canonically last member
        outside its extension table, or None when there is none.  The table
        is the downward closure of those members, which this family holds,
        so None means the family is exactly that matroid's independent
        family.  Raises ExchangeFails when the largest members break basis
        exchange."""
        rank = self.rank
        matroid = Matroid(self.ground, frozenset(m for m in self.family if m.bit_count() == rank))
        outside = (m for m in self.family if m not in matroid._extensions)
        return matroid, max(outside, key=self.ground.sort_key, default=None)

    @property
    def is_matroid(self) -> bool:
        return self.augmentation_violation() is None


@dataclass(frozen=True)
class Matroid:
    """A matroid stored by its bases (equicardinal, exchange-closed).

    Construction builds the extension table (`_extensions`) and checks basis
    exchange once per completion mask of an (r-1)-subset, by its span; every
    other answer reads the table.
    """

    ground: GroundSet
    bases: frozenset

    def __post_init__(self):
        if not self.bases:
            raise EmptyFamily("a matroid needs at least one basis")
        sizes = {b.bit_count() for b in self.bases}
        if len(sizes) > 1:
            raise UnequalBasisSizes(f"bases of cardinalities {sorted(sizes)}")
        _check_inside(self.ground, self.bases, "basis")
        self._check_exchange()

    def _check_exchange(self):
        """Basis exchange, once per completion mask of an (r-1)-set.

        For a basis b1 and x in b1, the bases b1 - x + y are I + y for
        I = b1 - x and y a completion of I: an element of its extensions,
        x among them.  A basis b2 fails the exchange for (b1, x) exactly
        when it avoids every completion, that is, lies inside the span of I.
        The (r-1)-sets of the table (`_completions`) are exactly the sets
        b1 - x, since the table is the downward closure of the bases, so
        each distinct completion mask C among them is checked once.  A
        basis avoiding C lies in E - C, which holds I, and misses some
        element of I (else it is I + y with y a completion, in C), so it
        fits only when n - |C| > r: the other masks are skipped, and the
        basis bitsets are built only when some mask is left.  The bases
        avoiding C are every & ~OR(holds[e] for e in C), where holds[e] is
        the bitset of the basis indices whose basis contains e.  Only when
        some mask fails is the counterexample built: the first b1 in
        canonical order, then x ascending, with a failing mask, then the
        canonically first basis b2 avoiding it.
        """
        room = self.ground.size - self.rank
        avoidable = [c for c in set(self._completions.values()) if c.bit_count() < room]
        if not avoidable:
            return
        holds = transpose(tuple(self.bases), self.ground.size)
        every = (1 << len(self.bases)) - 1
        failing = set()
        for c in avoidable:
            covered = 0
            for e in bits(c):
                covered |= holds[e]
            if covered != every:
                failing.add(c)
        if not failing:
            return
        order = sorted(self.bases, key=self.ground.sort_key)
        for b1 in order:
            for x in bits(b1):
                c = self._completions[b1 ^ (1 << x)]
                if c in failing:
                    b2 = next(b for b in order if not b & c)
                    raise ExchangeFails(
                        self.ground.labels_of(b1),
                        self.ground.labels_of(b2),
                        self.ground.labels[x],
                    )

    @classmethod
    def from_bases(cls, ground: GroundSet, bases: Iterable[Iterable[str]]) -> "Matroid":
        return cls(ground, frozenset(_set_mask(ground, b) for b in bases))

    # -- rank and independence ----------------------------------------------

    @property
    def rank(self) -> int:
        return next(iter(self.bases)).bit_count()

    @cached_property
    def _completions(self) -> dict:
        """The first level of the `_extensions` walk: each (r-1)-set of
        the table mapped to its completions, the elements that extend it
        to a basis."""
        return _level_below(self.bases)

    @cached_property
    def _extensions(self) -> dict:
        """Each independent set I mapped to the mask of the elements e with
        I + e independent: a walk down from the bases, one cardinality at a
        time, each member M giving bit i to M - i for each i in M.  A basis
        maps to 0."""
        ext = dict.fromkeys(self.bases, 0)
        level = self._completions
        while level:
            ext.update(level)
            level = _level_below(level)
        return ext

    def _greedy_basis(self, mask: int) -> int:
        """A maximal independent subset of the mask, grown element by element."""
        ext = self._extensions
        basis = 0
        for i in bits(mask):
            grown = basis | (1 << i)
            if grown in ext:
                basis = grown
        return basis

    def rank_of_mask(self, mask: int) -> int:
        return self._greedy_basis(mask).bit_count()

    def rank_of(self, labels: Iterable[str]) -> int:
        return self.rank_of_mask(self.ground.mask_of(labels))

    def is_independent_mask(self, mask: int) -> bool:
        return mask in self._extensions

    def is_independent(self, labels: Iterable[str]) -> bool:
        return self.is_independent_mask(self.ground.mask_of(labels))

    def basis_sets(self) -> tuple[tuple[str, ...], ...]:
        order = sorted(self.bases, key=self.ground.sort_key)
        return tuple(self.ground.labels_of(b) for b in order)

    @property
    def independent_masks(self) -> KeysView[int]:
        """The independent sets as masks: a read-only view of the extension
        table's keys, downward closed by construction."""
        return self._extensions.keys()

    @cached_property
    def independent_family(self) -> HereditaryCollection:
        """The independent sets as a validated `HereditaryCollection`, built
        and checked once, on first request.  No library path asks for it:
        verification, the reducers and `circuits` read the table itself
        (`independent_masks`, `circuit_masks`)."""
        return HereditaryCollection(self.ground, frozenset(self._extensions))

    def circuit_masks(self) -> tuple[int, ...]:
        """Minimal dependent subsets, canonically ordered, walked on the
        extension table (`_circuit_masks`)."""
        return _circuit_masks(self.ground, self._extensions)

    def circuits(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self.ground.labels_of(m) for m in self.circuit_masks())

    # -- closure and flats ----------------------------------------------------

    def _span(self, independent: int) -> int:
        """Closure of an independent set: the set plus every element whose
        addition makes it dependent, the complement of its extensions."""
        return self.ground.full_mask & ~self._extensions[independent]

    def closure_mask(self, mask: int) -> int:
        """Smallest flat containing the subset: the span of its greedy basis."""
        return self._span(self._greedy_basis(mask))

    def is_flat_mask(self, mask: int) -> bool:
        """Is the subset closed?  The span of its greedy basis adds nothing."""
        return self._span(self._greedy_basis(mask)) == mask

    def closure(self, labels: Iterable[str]) -> tuple[str, ...]:
        return self.ground.labels_of(self.closure_mask(self.ground.mask_of(labels)))

    def loops(self) -> tuple[str, ...]:
        return self.ground.labels_of(self._span(0))

    @property
    def is_simple(self) -> bool:
        """No loops and no parallel pairs: the empty set and every single
        element are closed."""
        return self._span(0) == 0 and all(
            self._span(1 << i) == 1 << i for i in range(self.ground.size)
        )

    @cached_property
    def flat_masks(self) -> tuple[int, ...]:
        """All closed subsets, canonically ordered.  A flat is the span of
        any basis of it, so the flats are the complements of the extension
        table's values; a basis maps to 0, giving the ground set."""
        if not self.is_simple:
            raise NotSimple("flats are enumerated for simple matroids only")
        full = self.ground.full_mask
        flats = {full & ~e for e in self._extensions.values()}
        return tuple(sorted(flats, key=self.ground.sort_key))

    @cached_property
    def hyperplane_masks(self) -> frozenset:
        """The hyperplanes, the flats of rank r - 1: the spans of the
        (r-1)-sets, each the complement of its completions (`_completions`)."""
        full = self.ground.full_mask
        return frozenset([full & ~c for c in self._completions.values()])

    @cached_property
    def flat_names(self) -> tuple[str, ...]:
        """Each flat's subset name, e.g. "{1,4}", in `flat_masks` order.  A
        label must be nonempty and comma-free, or two names could be equal;
        such a label raises AmbiguousLabel."""
        for label in self.ground.labels:
            if label == "" or "," in label:
                reason = "is empty" if label == "" else "contains a comma"
                raise AmbiguousLabel(
                    f"ground label {label!r} {reason}, so two flat names could be equal"
                )
        return tuple(self.ground.subset_name(m) for m in self.flat_masks)

    def flats(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self.ground.labels_of(m) for m in self.flat_masks)

    # -- simplification --------------------------------------------------------

    def simplify(self):
        """Strip loops and merge parallel classes onto representatives.

        Returns (simple matroid, map non-loop label -> representative label).
        The bases of the simple matroid are the images of the bases: a basis
        holds no loop and no parallel pair, and swapping an element for a
        parallel one keeps a basis.
        """
        loops = self._span(0)
        non_loops = list(bits(self.ground.full_mask & ~loops))
        if not non_loops:
            raise AllLoops("every element is a loop")
        reps: list[int] = []
        assignment: dict = {}
        for i in non_loops:
            if i not in assignment:
                reps.append(i)
                for j in bits(self._span(1 << i) & ~loops):
                    assignment[j] = i
        ground = GroundSet(tuple(self.ground.labels[r] for r in reps))
        position = {r: k for k, r in enumerate(reps)}
        bases = frozenset(
            mask_of(position[assignment[i]] for i in bits(b)) for b in self.bases
        )
        simple = Matroid(ground, bases)
        mapping = {
            self.ground.labels[i]: self.ground.labels[assignment[i]] for i in non_loops
        }
        return simple, mapping


def hereditary_from_matrix(matrix: SbMatrix) -> HereditaryCollection:
    """Independent column subsets of a matrix, as a hereditary collection:
    the sets `sbool._independent_column_sets` grows, over the column labels."""
    family = frozenset(_independent_column_sets(matrix))
    return HereditaryCollection(GroundSet(matrix.col_labels), family)


def _element_signature(hc: HereditaryCollection, pos: int):
    """Multiset of member sizes through one element; an isomorphism invariant."""
    bit = 1 << pos
    counts: dict = {}
    for m in hc.family:
        if m & bit:
            k = m.bit_count()
            counts[k] = counts.get(k, 0) + 1
    return tuple(sorted(counts.items()))


def find_isomorphism(first: HereditaryCollection, second: HereditaryCollection):
    """A bijection of ground labels carrying one family onto the other,
    or None.  Exhaustive over label bijections, pruned by per-element
    member-size signatures."""
    n = first.ground.size
    if n != second.ground.size or len(first.family) != len(second.family):
        return None
    if n > ISOMORPHISM_CAP:
        raise GroundTooLarge(
            f"isomorphism search is exhaustive and capped at {ISOMORPHISM_CAP} elements"
        )
    sig1 = [_element_signature(first, i) for i in range(n)]
    sig2 = [_element_signature(second, j) for j in range(n)]
    if sorted(sig1) != sorted(sig2):
        return None
    for perm in permutations(range(n)):
        if any(sig1[i] != sig2[perm[i]] for i in range(n)):
            continue
        image = {mask_of(perm[i] for i in bits(m)) for m in first.family}
        if image == second.family:
            return {
                first.ground.labels[i]: second.ground.labels[perm[i]] for i in range(n)
            }
    return None


def matroid_to_json(matroid: Matroid) -> str:
    return json.dumps(
        {
            "ground": list(matroid.ground.labels),
            "bases": [list(b) for b in matroid.basis_sets()],
        }
    )


def matroid_from_json(text: str) -> Matroid:
    """Load {"ground": [...], "bases": [[...]]} or {"ground", "independent"}.

    An explicit independent family must be exactly the downward closure of
    its maximum-cardinality members.  Each set is read by `_set_mask`, so an
    unknown or repeated label raises MatroidParseError naming the key;
    anything else is rejected rather than silently reinterpreted.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integer literals past the
        # interpreter's digit limit; RecursionError, nesting too deep to parse.
        raise MatroidParseError(f"bad JSON: {exc}") from None
    if not isinstance(data, Mapping):
        raise MatroidParseError("top level must be an object")
    if "ground" not in data:
        raise MatroidParseError('missing "ground"')
    labels = data["ground"]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise MatroidParseError('"ground" must be a list of strings')
    ground = GroundSet(tuple(labels))

    def collect(key):
        raw = data[key]
        if not (
            isinstance(raw, list)
            and all(isinstance(s, list) for s in raw)
            and all(map(isinstance, chain.from_iterable(raw), repeat(str)))
        ):
            raise MatroidParseError(f'"{key}" must be a list of label lists')
        try:
            return frozenset(_set_mask(ground, s) for s in raw)
        except (UnknownLabel, DuplicateLabels) as exc:
            raise MatroidParseError(f'"{key}": {exc}') from None

    has_bases = "bases" in data
    has_independent = "independent" in data
    if has_bases == has_independent:
        raise MatroidParseError('need exactly one of "bases" or "independent"')
    if has_bases:
        return Matroid(ground, collect("bases"))
    # raises EmptyFamily or NotDownwardClosed, then ExchangeFails
    matroid, outside = HereditaryCollection(ground, collect("independent"))._largest_matroid()
    if outside is not None:
        raise MatroidParseError(
            "the independent family is not the downward closure of its largest members"
        )
    return matroid
