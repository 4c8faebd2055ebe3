"""Built-in example matroids with their expected desk-check numbers."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .matroid import GroundSet, Matroid

__all__ = ["CATALOG", "CatalogEntry", "uniform", "example_5pt", "k4", "whirl_w3"]


def uniform(k: int, n: int) -> Matroid:
    """The matroid on n points whose bases are all k-subsets."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    ground = GroundSet(tuple(str(i) for i in range(1, n + 1)))
    bases = frozenset(
        sum(1 << i for i in combo) for combo in combinations(range(n), k)
    )
    return Matroid(ground, bases)


def _three_subsets_except(n: int, excluded: tuple[tuple[int, ...], ...]) -> Matroid:
    ground = GroundSet(tuple(str(i) for i in range(1, n + 1)))
    banned = {ground.mask_of(str(i) for i in trio) for trio in excluded}
    bases = frozenset(
        mask
        for combo in combinations(range(n), 3)
        if (mask := sum(1 << i for i in combo)) not in banned
    )
    return Matroid(ground, bases)


def example_5pt() -> Matroid:
    """Rank-3 matroid on 5 points with two dependent triples."""
    return _three_subsets_except(5, ((1, 2, 3), (3, 4, 5)))


def k4() -> Matroid:
    """Cycle matroid of the complete graph on four vertices (edges 1..6)."""
    return _three_subsets_except(6, ((1, 2, 4), (1, 3, 5), (3, 4, 6), (2, 5, 6)))


def whirl_w3() -> Matroid:
    """The rank-3 whirl: relax all but one triangle of the wheel."""
    return _three_subsets_except(6, ((1, 2, 4), (1, 3, 5), (2, 3, 6)))


@dataclass(frozen=True)
class CatalogEntry:
    """A named example with its expected flat and reduced-row counts."""

    name: str
    matroid: Matroid
    flat_count: int
    reduced_rows: int


def _build() -> dict:
    entries = [
        CatalogEntry("u34", uniform(3, 4), 12, 7),
        CatalogEntry("fivept", example_5pt(), 13, 7),
        CatalogEntry("k4", k4(), 15, 8),
        CatalogEntry("w3", whirl_w3(), 17, 10),
    ]
    return {e.name: e for e in entries}


CATALOG = _build()
