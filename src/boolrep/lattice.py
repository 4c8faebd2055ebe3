"""The lattice of flats of a simple matroid and its boolean representation.

Elements are kept in canonical flat order.  The structure matrix records
containment; its entrywise complement is the representation, entry (x, z)
1 iff x is not below z, whose row rank realizes lattice heights.  Chains,
witnesses, and the maps between them live here; partition machinery builds
on top in a sibling module.

Theorem: in every finite lattice the rank of the representation is the
height h, so `representation_rank()` reads it off the heights.
- Lower bound: a longest chain x_0 < ... < x_h gives rows x_1..x_h and
  columns x_0..x_{h-1}.  Row x_i is 1 on column x_{i-1} (x_i is not below
  it) and 0 on columns x_i..x_{h-1} (it is below them), so the submatrix
  is triangular with 1s on its diagonal, hence nonsingular.
- Upper bound: independent rows have an order x_1..x_k in which each x_i
  has a witness column z_i, 1 on x_i and 0 on every earlier row (`sbool`'s
  order fact).  So x_1..x_{i-1} <= z_i, and their join y_{i-1} <= z_i,
  while x_i is not below z_i: the prefix joins strictly increase,
  y_{i-1} < y_i.  As x_1 is not below z_1, it is not the bottom, so
  bottom < y_1 < ... < y_k is a chain of length k, and k <= h.

Each element is held as a bitset over the element list: its up-set (the
elements above it).  In a partial order the common upper bounds of two
elements have a least element m exactly when they equal up[m], so one map
from up-sets decides any join with one set lookup.  Dually, one map from
down-sets (the elements below each), built on the first meet, answers
every meet, which a bottom guarantees (see `FlatLattice`), in O(1).

Generator lemma: call G generating when every up(x) is the AND of up(g)
over the g in G below x (over none, every element).  Validation
(`_generator_pass`) then looks up only the joins x ∨ g for g in G, F·|G|
lookups for F elements; for a lattice of flats G is the atoms, so F·n
lookups instead of F²/2.
- The relation is transitive: take w <= x <= z.  Each g in G below w has
  up(w) inside up(g), so x is in up(g), so up(x) is inside up(g) and z is
  in it; so z is in up(w).
- x ∨ y exists once every x' ∨ g does: with g_1..g_k the members of G
  below y, joining x with g_1, then g_2, and so on, reaches an element
  whose up-set is up(x) & up(g_1) & ... & up(g_k) = up(x) & up(y).
- A lattice passes, with G its join-irreducibles.  Visiting elements by
  up-set size, largest first, puts all below x before x.  An element that
  is the join of the elements strictly below it is the join of the
  join-irreducibles below it, so it is no generator; a join-irreducible x
  is one, since the elements strictly below it join to its one lower
  cover, whose up-set holds more than up(x).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .bitops import bits, mask_of, transpose
from .errors import (
    BoolrepError,
    DuplicateLabels,
    InvalidWitness,
    UnknownLabel,
)
from .matroid import GroundSet, Matroid, _distinct
from .sbool import BoolMatrix

__all__ = ["FlatLattice", "LatticeWitness", "pentagon"]


@dataclass(frozen=True)
class LatticeWitness:
    """Equal-sized row and column subsets of the representation matrix.

    A witness is valid when the designated square submatrix is nonsingular;
    validity is checked by the lattice, which owns the matrix.
    """

    rows: tuple[str, ...]
    cols: tuple[str, ...]

    def __post_init__(self):
        if len(self.rows) != len(self.cols):
            raise InvalidWitness(
                f"{len(self.rows)} rows against {len(self.cols)} columns"
            )


@dataclass(frozen=True)
class FlatLattice:
    """A finite lattice, element i below element j iff bit j of up[i] is set.

    Construction validates the full partial-order and lattice axioms on
    every path by one generator pass (`_generator_pass`, exact by the
    generator lemma of the module docstring), F·|G| join lookups for F
    elements and G generators, and the bottom.  Then every pair a, b has a
    meet: their common lower bounds hold the bottom, and the join of them
    all, built from pairwise joins, lies below a and b, so it is the
    greatest.  Only when the pass refuses does the pairwise scan
    (`_axiom_scan`) run, to name the first failed axiom.  The up-set map
    stays with the lattice and answers joins; the down-sets and their map
    are built on the first meet.  When built from a matroid, flat_masks
    and ground record what the elements are; order-only instances leave
    both None.
    """

    names: tuple[str, ...]
    up: tuple[int, ...]
    flat_masks: tuple[int, ...] | None = None
    ground: GroundSet | None = None
    _up_index: dict = field(init=False, repr=False, compare=False)
    _joins: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.names)
        if len(set(self.names)) != n:
            raise DuplicateLabels("repeated lattice element name")
        if len(self.up) != n:
            raise BoolrepError("order relation size does not match element count")
        if self.flat_masks is not None and len(self.flat_masks) != n:
            raise BoolrepError("flat mask count does not match element count")
        found = _generator_pass(self.up)
        if found is None:
            _axiom_scan(self.names, self.up)
            raise RuntimeError("the generator pass refused a lattice")
        object.__setattr__(self, "_up_index", found[0])
        object.__setattr__(self, "_joins", found[1])

    # -- construction -------------------------------------------------------

    @classmethod
    def from_matroid(cls, matroid: Matroid) -> "FlatLattice":
        """The flats of a simple matroid by containment, named by
        `Matroid.flat_names`, e.g. "{1,4}".

        The result is a geometric lattice whose atoms are the singleton
        flats and whose maximal chains all have rank + 1 elements (Oxley,
        *Matroid Theory*, 2nd ed., §1.7).  Neither is checked at run time:
        both are theorems for every simple matroid, `Matroid` checks basis
        exchange when built, and `flat_masks` raises `NotSimple` otherwise.
        """
        names = matroid.flat_names
        flats = matroid.flat_masks
        # holds[e]: the flats containing element e; a flat's up-set is the
        # AND of holds[e] over its elements, O(total flat size) in all
        holds = transpose(flats, matroid.ground.size)
        full = (1 << len(flats)) - 1
        up = []
        for flat in flats:
            mask = full
            for e in bits(flat):
                mask &= holds[e]
            up.append(mask)
        return cls(names, tuple(up), flats, matroid.ground)

    @classmethod
    def from_order(
        cls, names: Sequence[str], below: Iterable[tuple[str, str]]
    ) -> "FlatLattice":
        """Build from generating (lower, upper) pairs; the reflexive
        transitive closure is taken before validation."""
        names = tuple(names)
        index = {x: i for i, x in enumerate(names)}
        n = len(names)
        up = [1 << i for i in range(n)]
        for low, high in below:
            if low not in index or high not in index:
                raise UnknownLabel(f"unknown element in pair ({low!r}, {high!r})")
            up[index[low]] |= 1 << index[high]
        for k in range(n):  # Warshall's algorithm
            for i in range(n):
                if up[i] >> k & 1:
                    up[i] |= up[k]
        return cls(names, tuple(up))

    # -- basic structure ------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.names)

    @cached_property
    def _index(self) -> dict:
        return {name: i for i, name in enumerate(self.names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):
            raise UnknownLabel(f"no lattice element named {name!r}") from None

    @cached_property
    def bottom_index(self) -> int:
        return self._up_index[(1 << self.size) - 1]

    @cached_property
    def top_index(self) -> int:
        return self._join_of_set(range(self.size))

    @property
    def bottom(self) -> str:
        return self.names[self.bottom_index]

    @property
    def top(self) -> str:
        return self.names[self.top_index]

    def leq(self, low: str, high: str) -> bool:
        return bool(self.up[self.index(low)] >> self.index(high) & 1)

    @cached_property
    def upper_covers(self) -> tuple[tuple[int, ...], ...]:
        """Per element x, the elements immediately above it: the minimal
        ones among its joins x ∨ g with the generators g not below it
        (`_generator_pass`).  Each cover y is such a join: y is the join of
        the generators below it, so one of them, g, is not below x, and
        x < x ∨ g <= y.  Every such join lies above x, so above a cover."""
        up = self.up
        out = []
        for joins in self._joins:
            higher = 0
            for j in joins:
                higher |= up[j] ^ 1 << j
            out.append(tuple(sorted(j for j in joins if not higher >> j & 1)))
        return tuple(out)

    def _require_flats(self) -> None:
        if self.ground is None or self.flat_masks is None:
            raise BoolrepError("this lattice does not come from a matroid")

    @cached_property
    def cover_blocks(self) -> tuple[dict[int, int], ...]:
        """Per element i, each upper cover j mapped to the mask of the
        block F_j minus F_i.

        Each cover's flats must be strictly nested, the bottom flat empty
        and the top flat the whole ground set.  Then along any bottom-to-top
        cover chain the blocks are nonempty, disjoint and telescope to the
        ground set.
        """
        self._require_flats()
        masks = self.flat_masks
        if masks[self.bottom_index] != 0 or masks[self.top_index] != self.ground.full_mask:
            raise BoolrepError("the bottom flat must be empty and the top flat the ground set")
        out = []
        for i, ups in enumerate(self.upper_covers):
            edges = {}
            for j in ups:
                if masks[i] & ~masks[j] or masks[i] == masks[j]:
                    raise BoolrepError(
                        f"flat {self.names[i]!r} is not strictly inside {self.names[j]!r}"
                    )
                edges[j] = masks[j] & ~masks[i]
            out.append(edges)
        return tuple(out)

    @cached_property
    def atom_indices(self) -> tuple[int, ...]:
        return self.upper_covers[self.bottom_index]

    @property
    def atoms(self) -> tuple[str, ...]:
        return tuple(self.names[i] for i in self.atom_indices)

    def atom_of(self, element: str) -> str:
        """Name of the atom that is this ground element's singleton flat."""
        self._require_flats()
        mask = 1 << self.ground.index(element)
        for i in self.atom_indices:
            if self.flat_masks[i] == mask:
                return self.names[i]
        raise UnknownLabel(f"no atom for ground element {element!r}")

    @cached_property
    def _topological(self) -> tuple[int, ...]:
        """Elements by up-set size, largest first, so each follows
        everything below it: an element strictly below another has a
        strictly larger up-set."""
        return tuple(sorted(range(self.size), key=lambda i: -self.up[i].bit_count()))

    @cached_property
    def heights(self) -> tuple[int, ...]:
        """Length of the longest chain from the bottom, per element: one
        relaxation over the upper covers, in `_topological` order."""
        heights = [0] * self.size
        for i in self._topological:
            for j in self.upper_covers[i]:
                heights[j] = max(heights[j], heights[i] + 1)
        return tuple(heights)

    @property
    def height(self) -> int:
        return self.heights[self.top_index]

    def element_height(self, name: str) -> int:
        return self.heights[self.index(name)]

    # -- meets and joins --------------------------------------------------------

    @cached_property
    def down(self) -> tuple[int, ...]:
        """Per element, its down-set: the elements below it."""
        return tuple(transpose(self.up, self.size))

    @cached_property
    def _down_index(self) -> dict:
        return {mask: i for i, mask in enumerate(self.down)}

    def _meet_index(self, i: int, j: int) -> int:
        return self._down_index[self.down[i] & self.down[j]]

    def _join_index(self, i: int, j: int) -> int:
        return self._up_index[self.up[i] & self.up[j]]

    def meet(self, first: str, second: str) -> str:
        return self.names[self._meet_index(self.index(first), self.index(second))]

    def join(self, first: str, second: str) -> str:
        return self.names[self._join_index(self.index(first), self.index(second))]

    def _join_of_set(self, idxs: Iterable[int]) -> int:
        common = (1 << self.size) - 1
        for i in idxs:
            common &= self.up[i]
        return self._up_index[common]

    # -- matrices and rank --------------------------------------------------------

    @cached_property
    def structure_matrix(self) -> BoolMatrix:
        """Square containment table: entry (i, j) is 1 iff element i <= j,
        so row i is the up-set of i."""
        return BoolMatrix(self.up, self.up, self.names, self.names)

    @cached_property
    def representation(self) -> BoolMatrix:
        """Complement of the structure matrix; entry (i, j) is 1 iff i is
        not below j.  Row independence in this matrix drives everything."""
        return self.structure_matrix.complement()

    def _element_indices(self, elements: Iterable[str]) -> list[int]:
        """Indices of the named elements.  A repeat raises DuplicateLabels
        (`_distinct`); then an unknown name, or a matrix row index, raises
        UnknownLabel (`index`)."""
        return [self.index(name) for name in _distinct(elements)]

    def representation_rank(self, elements: Iterable[str] | None = None) -> int:
        """Rank of the representation rows for these elements (all by
        default).  All the rows have rank the height, by the theorem proved
        in the module docstring, so that is read with no search.  The search
        on the F x F matrix stays the tests' reference."""
        if elements is None:
            return self.height
        return self.representation.submatrix(rows=self._element_indices(elements)).rank()

    def elements_independent(self, elements: Iterable[str]) -> bool:
        """Are the representation rows of these elements independent?"""
        return self.representation.rows_independent(self._element_indices(elements))

    # -- witnesses and chains ---------------------------------------------------

    def witness_for(self, elements: Iterable[str]):
        """A valid witness for these elements, or None when they are
        dependent.  The peel runs on the columns of the transpose, which
        are the representation's own row masks."""
        rows = _distinct(elements)
        cols = self.representation.transpose().witness([self.index(name) for name in rows])
        return None if cols is None else LatticeWitness(rows, cols)

    def _witness_form(self, witness: LatticeWitness):
        """The witness's column indices, and the triangular form of the
        square submatrix it names (None when that is singular)."""
        rows, cols = self._element_indices(witness.rows), self._element_indices(witness.cols)
        return cols, self.representation.submatrix(rows=rows, cols=cols).triangular_form()

    def is_valid_witness(self, witness: LatticeWitness) -> bool:
        return self._witness_form(witness)[1] is not None

    def chain_witness(self, chain: Sequence[str]) -> LatticeWitness:
        """Witness certifying a strict chain above the bottom: columns are
        the bottom followed by all chain elements but the last."""
        idxs = [self.index(name) for name in chain]
        if not idxs:
            raise BoolrepError("empty chain")
        if idxs[0] == self.bottom_index:
            raise BoolrepError("the chain must start strictly above the bottom")
        for a, b in zip(idxs, idxs[1:]):
            if a == b or not self.up[a] >> b & 1:
                raise BoolrepError(
                    f"{self.names[a]!r} is not strictly below {self.names[b]!r}"
                )
        cols = (self.bottom,) + tuple(chain[:-1])
        return LatticeWitness(tuple(chain), cols)

    def witness_to_chain(self, witness: LatticeWitness) -> tuple[str, ...]:
        """Strict chain recovered from a valid witness.

        After triangularizing the witness submatrix, the j-th chain element
        is the meet of the j-th through last reordered columns; strictness
        comes from each diagonal row escaping its own column.
        """
        cols, form = self._witness_form(witness)
        if form is None:
            raise InvalidWitness("the witness submatrix is singular")
        _, col_order = form
        ordered = [cols[c] for c in col_order]
        chain = []
        running = None
        for i in reversed(ordered):
            running = i if running is None else self._meet_index(i, running)
            chain.append(running)
        chain.reverse()
        for a, b in zip(chain, chain[1:]):
            if a == b or not self.up[a] >> b & 1:
                raise BoolrepError("recovered chain is not strictly increasing")
        return tuple(self.names[i] for i in chain)

    # -- geometric test -----------------------------------------------------------

    @cached_property
    def is_geometric(self) -> bool:
        """The semimodular height inequality h(a) + h(d) ≥ h(a ∨ d) + h(a ∧ d)
        for every pair, and every element a join of atoms.  A geometric
        lattice is also graded (Oxley, *Matroid Theory*, 2nd ed., §1.7), which
        the inequality forces when h is the longest-chain height.

        Lemma: then every cover a ⋖ b has h(b) = h(a) + 1.  Proof: take a cover
        a ⋖ b with h(b) ≥ h(a) + 2 and h(b) least.  A longest chain to b ends
        in some c ⋖ b with h(c) = h(b) − 1.  So c ≠ a, and c ≰ a, since
        c < a < b would contradict c ⋖ b.  Let m = a ∧ c < c, and pick d with
        m ⋖ d ≤ c.  Any cover x ⋖ y with y ≤ c has h(y) ≤ h(c) < h(b), so by
        the choice of b it rises by exactly 1; hence h(d) = h(m) + 1.  Also
        d ≰ a (else d ≤ a ∧ c = m), so a < a ∨ d ≤ b gives a ∨ d = b, and
        m ≤ a ∧ d ≤ a ∧ c gives a ∧ d = m.  The inequality then gives
        h(a) + h(m) + 1 ≥ h(b) + h(m), so h(b) ≤ h(a) + 1, a contradiction."""
        n = self.size
        h = self.heights
        for i in range(n):
            for j in range(i + 1, n):
                if h[i] + h[j] < h[self._join_index(i, j)] + h[self._meet_index(i, j)]:
                    return False
        atom_mask = mask_of(self.atom_indices)
        for i in range(n):
            if self._join_of_set(bits(self.down[i] & atom_mask)) != i:
                return False
        return True

    # -- export ---------------------------------------------------------------------

    def to_dot(self) -> str:
        """Hasse diagram in DOT form, bottom-up, deterministic order."""
        lines = ["digraph flats {", "  rankdir=BT;"]
        ids = [
            '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'
            for name in self.names
        ]
        for node in ids:
            lines.append(f"  {node};")
        for i in range(self.size):
            for j in self.upper_covers[i]:
                lines.append(f"  {ids[i]} -> {ids[j]};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"<FlatLattice of {self.size} elements, height {self.height}>"


def _generator_pass(up: Sequence[int]):
    """(up-set map, per-element join sets) when up is a lattice's order,
    else None; the generator lemma in the module docstring proves both
    directions.

    Bounds, reflexivity and antisymmetry hold when up[i] & down[i] is
    exactly bit i.  Elements are visited by up-set size, largest first,
    and the pass refuses at one with an unvisited element below it.  An
    element becomes a generator when the AND of the up-sets of the
    generators below it is not its own up-set, and must then lie inside
    it.  Last, x ∨ g is looked up for every generator g; joins[x] is the
    set of those other than x itself, the joins with the g not below x.
    """
    n = len(up)
    full = (1 << n) - 1
    if any(mask & ~full for mask in up):
        return None
    down = transpose(up, n)
    if any(up[i] & down[i] != 1 << i for i in range(n)):
        return None
    up_index = {mask: i for i, mask in enumerate(up)}
    if full not in up_index:
        return None
    gens = seen = 0
    for x in sorted(range(n), key=lambda i: -up[i].bit_count()):
        bit = 1 << x
        below = down[x] ^ bit
        if below & ~seen:
            return None
        common = full
        for g in bits(below & gens):
            common &= up[g]
        if common != up[x]:
            if up[x] & ~common:
                return None
            gens |= bit
        seen |= bit
    gen_ups = [up[g] for g in bits(gens)]
    get = up_index.get
    joins = []
    for x, mask in enumerate(up):
        found = {get(mask & g) for g in gen_ups}
        if None in found:
            return None
        found.discard(x)
        joins.append(found)
    return up_index, tuple(joins)


def _axiom_scan(names: Sequence[str], up: Sequence[int]) -> None:
    """Raise BoolrepError naming the first failed axiom: the order axioms
    element by element, then a join for every pair, then the bottom.  Run
    only to word a refusal of `_generator_pass`, so it costs O(F^2)
    lookups only on an order that is no lattice."""
    n = len(names)
    full = (1 << n) - 1
    for i, mask in enumerate(up):
        if mask & ~full:
            raise BoolrepError("order relation points outside the element list")
        if not mask >> i & 1:
            raise BoolrepError(f"order not reflexive at {names[i]!r}")
        for j in bits(mask):
            if i != j and up[j] >> i & 1:
                raise BoolrepError(
                    f"order not antisymmetric on {names[i]!r}, {names[j]!r}"
                )
            if up[j] & ~mask:
                raise BoolrepError(
                    f"order not transitive through {names[i]!r} <= {names[j]!r}"
                )
    ups = set(up)
    for i in range(n):
        for j in range(i + 1, n):
            if up[i] & up[j] not in ups:
                raise BoolrepError(f"no join for {names[i]!r}, {names[j]!r}")
    if full not in ups:
        raise BoolrepError("lattice has no bottom element")


def pentagon() -> FlatLattice:
    """The five-element lattice with a three-step side and a two-step side;
    the smallest lattice violating uniform chain lengths."""
    return FlatLattice.from_order(
        ("B", "a", "b", "c", "T"),
        [("B", "a"), ("a", "b"), ("b", "T"), ("B", "c"), ("c", "T")],
    )
