"""Hereditary collections and matroids over a finite labeled ground set.

Subsets of the ground set are bitmasks over label positions.  A matroid is
stored by its bases; the independent family is their downward closure.
Validation happens once, at construction, as a per-basis exchange check
that raises a counterexample-carrying error, never a bare bool.  Rank,
independence and closure are all answered by membership in the independent
family: rank by the greedy algorithm (Edmonds 1971), closure from one greedy
basis of the subset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from typing import Iterable, Mapping

from .bitops import bits, mask_of
from .errors import (
    AllLoops,
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
from .sbool import SbMatrix

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

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    @cached_property
    def _index(self) -> dict:
        return {label: i for i, label in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"no ground element labeled {label!r}") from None

    def mask_of(self, labels: Iterable[str]) -> int:
        return mask_of(self.index(x) for x in labels)

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in bits(mask))

    def subset_name(self, mask: int) -> str:
        """Brace-delimited name in ground order, e.g. "{1,4}"; "{}" when empty."""
        return "{" + ",".join(self.labels_of(mask)) + "}"

    def sort_key(self, mask: int):
        """Canonical subset order: cardinality, then positions lexicographically."""
        positions = tuple(bits(mask))
        return (len(positions), positions)


def _validate_downward_closed(ground: GroundSet, family: frozenset) -> None:
    if not family:
        raise EmptyFamily("the family must contain at least one subset")
    for mask in family:
        for i in bits(mask):
            sub = mask ^ (1 << i)
            if sub not in family:
                raise NotDownwardClosed(ground.labels_of(sub), ground.labels_of(mask))


@dataclass(frozen=True)
class HereditaryCollection:
    """A nonempty, downward-closed family of subsets of the ground set."""

    ground: GroundSet
    family: frozenset

    def __post_init__(self):
        _validate_downward_closed(self.ground, self.family)
        stray = next((m for m in self.family if m & ~self.ground.full_mask), None)
        if stray is not None:
            raise UnknownLabel(f"family mask {stray:#x} has bits outside the ground set")

    @classmethod
    def of(cls, ground: GroundSet, subsets: Iterable[Iterable[str]]) -> "HereditaryCollection":
        return cls(ground, frozenset(ground.mask_of(s) for s in subsets))

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
        """Minimal dependent subsets, canonically ordered.

        Every circuit is one element above a member, so candidates come from
        single-element extensions; minimality then needs only single-element
        deletions, because the family is downward closed.
        """
        full = self.ground.full_mask
        found = set()
        for member in self.family:
            rest = full & ~member
            for i in bits(rest):
                cand = member | (1 << i)
                if cand in found or cand in self.family:
                    continue
                if all(cand ^ (1 << j) in self.family for j in bits(cand)):
                    found.add(cand)
        return tuple(sorted(found, key=self.ground.sort_key))

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
        matroid's independent family.
        """
        by_size: dict = {}
        for m in self.family:
            by_size.setdefault(m.bit_count(), []).append(m)
        for k in sorted(by_size):
            if k + 1 not in by_size:
                continue
            for x in by_size[k]:
                for y in by_size[k + 1]:
                    gain = y & ~x
                    if gain == 0:
                        continue
                    if not any(x | (1 << i) in self.family for i in bits(gain)):
                        return (self.ground.labels_of(x), self.ground.labels_of(y))
        return None

    @property
    def is_matroid(self) -> bool:
        return self.augmentation_violation() is None


@dataclass(frozen=True)
class Matroid:
    """A matroid stored by its bases (equicardinal, exchange-closed).

    Construction checks basis exchange once, per basis.  Every rank,
    independence and closure query is then answered from one oracle:
    membership in the downward closure of the bases (`independent_family`).
    """

    ground: GroundSet
    bases: frozenset

    def __post_init__(self):
        if not self.bases:
            raise EmptyFamily("a matroid needs at least one basis")
        sizes = {b.bit_count() for b in self.bases}
        if len(sizes) > 1:
            raise UnequalBasisSizes(f"bases of cardinalities {sorted(sizes)}")
        stray = next((b for b in self.bases if b & ~self.ground.full_mask), None)
        if stray is not None:
            raise UnknownLabel(f"basis mask {stray:#x} has bits outside the ground set")
        self._check_exchange()

    def _check_exchange(self):
        """Basis exchange, one basis at a time.

        For a basis b1 and x in b1, let S hold every y outside b1 with
        b1 - x + y a basis.  A basis b2 fails the exchange for (b1, x)
        exactly when it avoids x and all of S.  Bit k of hits[e] marks that
        the k-th basis contains e, so the bases meeting {x} + S are one OR.
        """
        order = sorted(self.bases, key=self.ground.sort_key)
        hits = [0] * self.ground.size
        for k, b in enumerate(order):
            for e in bits(b):
                hits[e] |= 1 << k
        every = (1 << len(order)) - 1
        full = self.ground.full_mask
        for b1 in order:
            rest = full & ~b1
            for x in bits(b1):
                stripped = b1 ^ (1 << x)
                met = hits[x]
                for y in bits(rest):
                    if stripped | (1 << y) in self.bases:
                        met |= hits[y]
                free = every & ~met
                if free:
                    b2 = order[(free & -free).bit_length() - 1]
                    raise ExchangeFails(
                        self.ground.labels_of(b1),
                        self.ground.labels_of(b2),
                        self.ground.labels[x],
                    )

    @classmethod
    def from_bases(cls, ground: GroundSet, bases: Iterable[Iterable[str]]) -> "Matroid":
        return cls(ground, frozenset(ground.mask_of(b) for b in bases))

    # -- rank and independence ----------------------------------------------

    @property
    def rank(self) -> int:
        return next(iter(self.bases)).bit_count()

    def _greedy_basis(self, mask: int) -> int:
        """A maximal independent subset of the mask, grown element by element."""
        family = self.independent_family.family
        basis = 0
        for i in bits(mask):
            grown = basis | (1 << i)
            if grown in family:
                basis = grown
        return basis

    def rank_of_mask(self, mask: int) -> int:
        return self._greedy_basis(mask).bit_count()

    def rank_of(self, labels: Iterable[str]) -> int:
        return self.rank_of_mask(self.ground.mask_of(labels))

    def is_independent_mask(self, mask: int) -> bool:
        return mask in self.independent_family.family

    def is_independent(self, labels: Iterable[str]) -> bool:
        return self.is_independent_mask(self.ground.mask_of(labels))

    def basis_sets(self) -> tuple[tuple[str, ...], ...]:
        order = sorted(self.bases, key=self.ground.sort_key)
        return tuple(self.ground.labels_of(b) for b in order)

    @cached_property
    def independent_family(self) -> HereditaryCollection:
        """Downward closure of the bases as a validated hereditary collection."""
        seen = set(self.bases)
        frontier = list(self.bases)
        while frontier:
            mask = frontier.pop()
            for i in bits(mask):
                sub = mask ^ (1 << i)
                if sub not in seen:
                    seen.add(sub)
                    frontier.append(sub)
        return HereditaryCollection(self.ground, frozenset(seen))

    def circuits(self) -> tuple[tuple[str, ...], ...]:
        return self.independent_family.circuits()

    # -- closure and flats ----------------------------------------------------

    def closure_mask(self, mask: int) -> int:
        """Smallest flat containing the subset: adjoin every outside element
        e for which I + e is dependent, I a greedy basis of the subset."""
        family = self.independent_family.family
        basis = self._greedy_basis(mask)
        out = mask
        for i in bits(self.ground.full_mask & ~mask):
            if basis | (1 << i) not in family:
                out |= 1 << i
        return out

    def closure(self, labels: Iterable[str]) -> tuple[str, ...]:
        return self.ground.labels_of(self.closure_mask(self.ground.mask_of(labels)))

    def loops(self) -> tuple[str, ...]:
        return tuple(
            x for i, x in enumerate(self.ground.labels) if self.rank_of_mask(1 << i) == 0
        )

    @property
    def is_simple(self) -> bool:
        """No loops and no two-element circuits."""
        n = self.ground.size
        if any(self.rank_of_mask(1 << i) == 0 for i in range(n)):
            return False
        return all(
            self.rank_of_mask((1 << i) | (1 << j)) == 2
            for i in range(n)
            for j in range(i + 1, n)
        )

    @cached_property
    def flat_masks(self) -> tuple[int, ...]:
        """All closed subsets, canonically ordered; grown breadth-first from
        the closure of the empty set instead of closing all 2^n subsets."""
        if not self.is_simple:
            raise NotSimple("flats are enumerated for simple matroids only")
        bottom = self.closure_mask(0)
        seen = {bottom}
        frontier = [bottom]
        while frontier:
            flat = frontier.pop()
            for i in bits(self.ground.full_mask & ~flat):
                grown = self.closure_mask(flat | (1 << i))
                if grown not in seen:
                    seen.add(grown)
                    frontier.append(grown)
        return tuple(sorted(seen, key=self.ground.sort_key))

    def flats(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self.ground.labels_of(m) for m in self.flat_masks)

    # -- simplification --------------------------------------------------------

    def simplify(self):
        """Strip loops and merge parallel classes onto representatives.

        Returns (simple matroid, map non-loop label -> representative label).
        """
        n = self.ground.size
        non_loops = [i for i in range(n) if self.rank_of_mask(1 << i) == 1]
        if not non_loops:
            raise AllLoops("every element is a loop")
        reps: list[int] = []
        assignment: dict = {}
        for i in non_loops:
            home = next(
                (r for r in reps if self.rank_of_mask((1 << r) | (1 << i)) == 1), None
            )
            if home is None:
                reps.append(i)
                assignment[i] = i
            else:
                assignment[i] = home
        ground = GroundSet(tuple(self.ground.labels[r] for r in reps))
        rep_masks = [1 << r for r in reps]
        bases = set()
        for combo in combinations(range(len(reps)), self.rank):
            mask = 0
            for c in combo:
                mask |= rep_masks[c]
            if self.is_independent_mask(mask):
                bases.add(mask_of(combo))
        simple = Matroid(ground, frozenset(bases))
        mapping = {
            self.ground.labels[i]: self.ground.labels[assignment[i]] for i in non_loops
        }
        return simple, mapping


def hereditary_from_matrix(matrix: SbMatrix) -> HereditaryCollection:
    """Independent column subsets of a matrix, as a hereditary collection.

    Column independence is hereditary, so candidates are grown one element
    at a time and a subset is tested only when all its one-smaller subsets
    already passed.
    """
    ground = GroundSet(matrix.col_labels)
    n = ground.size
    family = {0}
    level = [0]
    while level:
        grown = []
        for mask in level:
            top = mask.bit_length()
            for j in range(top, n):
                cand = mask | (1 << j)
                if cand in family:
                    continue
                if any(cand ^ (1 << i) not in family for i in bits(mask)):
                    continue
                if matrix.columns_independent(ground.labels_of(cand)):
                    family.add(cand)
                    grown.append(cand)
        level = grown
    return HereditaryCollection(ground, frozenset(family))


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
    its maximum-cardinality members, and no set may list a label twice;
    anything else is rejected rather than silently reinterpreted.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
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
        if not isinstance(raw, list) or not all(
            isinstance(s, list) and all(isinstance(x, str) for x in s) for s in raw
        ):
            raise MatroidParseError(f'"{key}" must be a list of label lists')
        masks = set()
        for s in raw:
            try:
                mask = ground.mask_of(s)
            except UnknownLabel as exc:
                raise MatroidParseError(str(exc)) from None
            if mask.bit_count() != len(s):
                raise MatroidParseError(f'repeated label in "{key}" set {s!r}')
            masks.add(mask)
        return frozenset(masks)

    has_bases = "bases" in data
    has_independent = "independent" in data
    if has_bases == has_independent:
        raise MatroidParseError('need exactly one of "bases" or "independent"')
    if has_bases:
        return Matroid(ground, collect("bases"))
    family = collect("independent")
    hc = HereditaryCollection(ground, family)
    top = max(m.bit_count() for m in family)
    matroid = Matroid(ground, frozenset(m for m in family if m.bit_count() == top))
    if matroid.independent_family.family != family:
        raise MatroidParseError(
            "the independent family is not the downward closure of its largest members"
        )
    return matroid
