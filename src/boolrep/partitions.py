"""Maximal chains of a flat lattice and the ground-set partitions they induce.

Each maximal chain F_0 < ... < F_k from bottom to top cuts the ground set
into blocks Q_i = F_i minus F_{i-1}.  Partial transversals of these blocks
are exactly the subsets whose atoms are independent in the lattice
representation; the witness construction makes one direction explicit.

Cost model.  Chains are walked once, depth first (`_fold_chains`): a
value is folded down each cover edge from the bottom, and each chain
yields the value folded to the top.  `chain_indices` folds index tuples,
and `maximal_chains` only maps them to names; the `partitions` command
folds the two halves of its line, so each walk node adds its flat's and
its edge's text once and a chain costs one concatenation.  The lattice
caches each cover edge's block `F_j − F_i` as a mask
(`FlatLattice.cover_blocks`), and labels are made only where text or a
partition is produced.  Every `ChainPartition`, including those returned
here, is checked by its one constructor in O(n) for n ground elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Sequence

from .errors import BoolrepError, ChainLimitExceeded, UnknownLabel
from .lattice import FlatLattice, LatticeWitness
from .matroid import GroundSet, _distinct

__all__ = [
    "DEFAULT_CHAIN_LIMIT",
    "ChainPartition",
    "maximal_chains",
    "partition_of_chain",
    "is_partial_transversal",
    "transversal_bases",
    "exists_transversal_partition",
    "transversal_witness",
]

DEFAULT_CHAIN_LIMIT = 10**6


@dataclass(frozen=True)
class ChainPartition:
    """The ordered blocks cut out of the ground set by one maximal chain.

    Partitions are kept keyed to their generating chain; two chains may cut
    identical blocks and still count separately.  Each chain flat is the
    union of the blocks below it, so `chain_flats` reads them off the blocks.
    """

    ground: GroundSet
    chain: tuple[str, ...]
    blocks: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if len(self.blocks) + 1 != len(self.chain):
            raise BoolrepError("a k-step chain must cut exactly k blocks")
        union = 0
        total = 0
        for block in self.blocks:
            if not block:
                raise BoolrepError("empty partition block")
            mask = self.ground.mask_of(block)
            union |= mask
            total += len(block)
        if union != self.ground.full_mask or total != self.ground.size:
            raise BoolrepError("blocks do not partition the ground set")

    @property
    def chain_flats(self) -> tuple[tuple[str, ...], ...]:
        """Labels of the running union of the blocks, from the empty flat."""
        flats = [()]
        union = 0
        for block in self.blocks:
            union |= self.ground.mask_of(block)
            flats.append(self.ground.labels_of(union))
        return tuple(flats)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def block_index_of(self, element: str) -> int:
        """Zero-based index of the block holding this ground element."""
        for i, block in enumerate(self.blocks):
            if element in block:
                return i
        raise UnknownLabel(f"no block holds {element!r}")

    def to_json_dict(self) -> dict:
        return {
            "chain": [list(flat) for flat in self.chain_flats],
            "blocks": [list(block) for block in self.blocks],
        }


def chain_indices(
    lattice: FlatLattice, limit: int = DEFAULT_CHAIN_LIMIT
) -> Iterator[tuple[int, ...]]:
    """All bottom-to-top cover chains as element-index tuples, in
    lexicographic order, with the limit rules of `maximal_chains`."""
    return _fold_chains(lattice, (lattice.bottom_index,), lambda path, _, j: path + (j,), limit)


def _fold_chains(lattice: FlatLattice, start, step, limit: int) -> Iterator:
    """For each maximal chain, in lexicographic order, the value folded
    along it: `start` at the bottom, then `step(value, i, j)` down each
    cover edge i -> j.  A step is taken once per chain prefix, however
    many chains share it.  A negative limit raises at once; the walk
    raises on the chain after the first `limit`."""
    if limit < 0:
        raise BoolrepError(f"chain limit must be nonnegative, got {limit}")
    return _walk(lattice.upper_covers, lattice.bottom_index, lattice.top_index, limit, start, step)


def _walk(covers, bottom: int, top: int, limit: int, start, step) -> Iterator:
    # Each stack entry is an element to visit and the value folded to it;
    # covers are pushed last first, so they are visited in order.  An
    # element the top covers has no other cover (any other would lie
    # strictly between them), so its chain ends there and the top is
    # never pushed; only a one-element lattice visits its top.
    count = 0
    stack = [(bottom, start)]
    while stack:
        i, value = stack.pop()
        ups = covers[i]
        if i != top and ups[0] != top:
            stack.extend([(j, step(value, i, j)) for j in reversed(ups)])
            continue
        count += 1
        if count > limit:
            raise ChainLimitExceeded(f"more than {limit} maximal chains")
        yield value if i == top else step(value, i, top)


def maximal_chains(
    lattice: FlatLattice, limit: int = DEFAULT_CHAIN_LIMIT
) -> Iterator[tuple[str, ...]]:
    """All bottom-to-top cover chains, lexicographic in element index.

    Yields up to `limit` chains; asking for one more raises, so a truncated
    enumeration is never silently mistaken for a complete one.  A negative
    limit is a bad argument and raises at once.
    """
    names = lattice.names
    return (
        tuple(names[i] for i in chain) for chain in chain_indices(lattice, limit)
    )


def _require_flats(lattice: FlatLattice) -> None:
    if lattice.ground is None:
        raise BoolrepError("partitions need a lattice built from a matroid")


def _partition(lattice: FlatLattice, chain: Sequence[int]) -> ChainPartition:
    """The partition a cover chain cuts, labelled from the cached block
    masks of `FlatLattice.cover_blocks`."""
    ground = lattice.ground
    edges = lattice.cover_blocks
    return ChainPartition(
        ground,
        tuple(lattice.names[i] for i in chain),
        tuple(ground.labels_of(edges[a][b]) for a, b in zip(chain, chain[1:])),
    )


def partition_of_chain(lattice: FlatLattice, chain: Sequence[str]) -> ChainPartition:
    """Blocks Q_i = F_i minus F_(i-1) for a maximal chain of flats."""
    _require_flats(lattice)
    idxs = [lattice.index(name) for name in chain]
    if not idxs or idxs[0] != lattice.bottom_index or idxs[-1] != lattice.top_index:
        raise BoolrepError("a maximal chain runs from the bottom to the top")
    for a, b in zip(idxs, idxs[1:]):
        if b not in lattice.upper_covers[a]:
            raise BoolrepError(
                f"{lattice.names[b]!r} does not cover {lattice.names[a]!r}"
            )
    return _partition(lattice, idxs)


def is_partial_transversal(partition: ChainPartition, labels: Iterable[str]) -> bool:
    """True when the subset meets every block at most once."""
    mask = partition.ground.mask_of(labels)
    for block in partition.blocks:
        if (partition.ground.mask_of(block) & mask).bit_count() > 1:
            return False
    return True


def transversal_bases(partition: ChainPartition) -> tuple[tuple[str, ...], ...]:
    """All full-size transversals: one element picked from every block,
    in canonical subset order."""
    ground = partition.ground
    picks = {ground.mask_of(choice) for choice in product(*partition.blocks)}
    return tuple(ground.labels_of(m) for m in sorted(picks, key=ground.sort_key))


def exists_transversal_partition(
    lattice: FlatLattice,
    labels: Iterable[str],
    limit: int = DEFAULT_CHAIN_LIMIT,
):
    """Some chain partition having the subset as a partial transversal, or
    None after exhausting every chain.  A tripped chain cap propagates, so
    the caller never confuses "searched everything" with "gave up".

    Each chain is tested on the cached block masks; only the chain
    returned becomes a `ChainPartition`.
    """
    chains = chain_indices(lattice, limit)
    _require_flats(lattice)
    wanted = lattice.ground.mask_of(labels)
    edges = lattice.cover_blocks
    for chain in chains:
        if all(
            (edges[a][b] & wanted).bit_count() <= 1
            for a, b in zip(chain, chain[1:])
        ):
            return _partition(lattice, chain)
    return None


def transversal_witness(
    lattice: FlatLattice, partition: ChainPartition, labels: Iterable[str]
) -> LatticeWitness:
    """The explicit independence certificate for a partial transversal.

    Rows are the atoms of the chosen elements ordered by block position;
    column j is the chain flat just below block j's upper flat.  Every row
    escapes its own column and is inside all later ones, so the submatrix
    is triangular with a unit diagonal.
    """
    labels = _distinct(labels)
    placed = sorted(
        ((partition.block_index_of(x), x) for x in labels), key=lambda p: p[0]
    )
    for (b1, x1), (b2, x2) in zip(placed, placed[1:]):
        if b1 == b2:
            raise BoolrepError(
                f"{x1!r} and {x2!r} share a block; not a partial transversal"
            )
    rows = tuple(lattice.atom_of(x) for _, x in placed)
    cols = tuple(partition.chain[b] for b, _ in placed)
    return LatticeWitness(rows, cols)
