"""Hereditary collections, matroid axioms, closure, flats, simplification."""

import json
import random
from collections import Counter
from itertools import combinations, product
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolrep import (
    AllLoops,
    BoolrepError,
    DuplicateLabels,
    EmptyFamily,
    ExchangeFails,
    FlatLattice,
    GroundSet,
    GroundTooLarge,
    HereditaryCollection,
    Matroid,
    MatroidParseError,
    NotDownwardClosed,
    NotSimple,
    SbMatrix,
    UnequalBasisSizes,
    UnknownLabel,
    extract_representation,
    find_isomorphism,
    hereditary_from_matrix,
    matroid_from_json,
    matroid_to_json,
    paper_reduce,
    uniform,
    verified_reduce,
)
from boolrep import matroid as matroid_module
from boolrep.matroid import _distinct, _set_mask
from boolrep.partitions import chain_indices
from boolrep.sbool import _independent_column_sets

from conftest import (
    _xor_rank, ag32, gf2_matroid, ladder_sized, pg25, pg32, projective_plane, random_bool_matrix,
    random_matrix, vamos,
)
from oracles import (
    augmentation_violation_scan,
    basis_exchange_holds,
    circuits_scan,
    closure_by_circuits,
    exchange_counterexample_scan,
    exchange_fails,
    flats_scan,
    gaussian_binomial,
    indep_from_bases,
    independent_column_sets,
    independent_column_sets_by_peel,
    rank_from_bases,
)


def hc(labels, subsets):
    return HereditaryCollection.of(GroundSet.of(labels), subsets)


# -- ground set ---------------------------------------------------------------


def test_ground_set_basics():
    g = GroundSet.of("abc")
    assert g.size == 3
    assert g.full_mask == 0b111
    assert g.index("b") == 1
    assert g.mask_of(("a", "c")) == 0b101
    assert g.labels_of(0b101) == ("a", "c")
    assert g.subset_name(0b101) == "{a,c}"
    assert g.subset_name(0) == "{}"
    with pytest.raises(UnknownLabel):
        g.index("z")


def test_canonical_subset_order_is_cardinality_then_positions():
    g = GroundSet.of([str(i) for i in range(1, 7)])
    masks = [g.mask_of(s) for s in (("1", "6"), ("2", "3"), ("4", "5"))]
    shuffled = [masks[1], masks[2], masks[0]]
    assert sorted(shuffled, key=g.sort_key) == masks
    assert g.sort_key(g.mask_of(("1",))) < g.sort_key(g.mask_of(("1", "2")))


def _positional_key(mask):
    positions = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
    return (len(positions), positions)


def test_sort_key_orders_as_the_position_tuples():
    """The complement-string key sorts exactly as (size, positions) does:
    every subset for n <= 10, the empty ground set, and seeded random masks
    on 40 and 64 elements, sparse and dense."""
    for n in range(11):
        g = GroundSet(tuple(str(i) for i in range(n)))
        masks = list(range(1 << n))
        random.Random(n).shuffle(masks)
        assert sorted(masks, key=g.sort_key) == sorted(masks, key=_positional_key)
    assert sorted([0], key=GroundSet(()).sort_key) == [0]
    rng = random.Random(20261019)
    for n in (40, 64):
        g = GroundSet(tuple(str(i) for i in range(n)))
        masks = [
            sum(1 << i for i in range(n) if rng.random() < density)
            for density in (0.05, 0.1, 0.5, 0.9)
            for _ in range(500)
        ]
        masks += [rng.getrandbits(n) & ~(1 << rng.randrange(n)) for _ in range(500)]
        assert sorted(masks, key=g.sort_key) == sorted(masks, key=_positional_key)


# -- hereditary collections ------------------------------------------------------


def test_a_set_listing_a_label_twice_is_rejected():
    g = GroundSet.of("123")
    with pytest.raises(DuplicateLabels, match=r"\('1', '1', '2'\)"):
        Matroid.from_bases(g, [["1", "1", "2"], ["1", "3", "3"], ["2", "3"]])
    with pytest.raises(DuplicateLabels, match=r"\('2', '2'\)"):
        HereditaryCollection.of(g, [[], ["1"], ["2"], ["2", "2"]])
    assert Matroid.from_bases(g, [["1", "2"], ["1", "3"], ["2", "3"]]) == uniform(2, 3)


def test_hereditary_accepts_valid_family():
    h = hc("ab", [(), ("a",)])
    assert h.rank == 1
    assert h.is_independent(("a",))
    assert not h.is_independent(("b",))


def test_hereditary_rejects_empty_family():
    with pytest.raises(EmptyFamily):
        hc("ab", [])


def test_hereditary_rejects_gap_with_counterexample():
    with pytest.raises(NotDownwardClosed) as info:
        hc("ab", [(), ("a", "b")])
    err = info.value
    assert set(err.superset) == {"a", "b"}
    assert len(err.subset) == 1


def test_hereditary_rejects_masks_outside_the_ground_set():
    """A stray or negative mask raises UnknownLabel before the closure
    check, whose message would name labels for bits outside the ground."""
    with pytest.raises(UnknownLabel):
        HereditaryCollection(GroundSet.of("a"), frozenset({0b10}))
    with pytest.raises(UnknownLabel):
        HereditaryCollection(GroundSet.of("ab"), frozenset({0, -1}))


def test_masks_outside_the_ground_set_are_named_by_kind():
    ground = GroundSet.of("a")
    with pytest.raises(UnknownLabel, match=r"^basis mask 0x2 has bits outside the ground set$"):
        Matroid(ground, frozenset({0b10}))
    with pytest.raises(UnknownLabel, match=r"^family mask 0x2 has bits outside the ground set$"):
        HereditaryCollection(ground, frozenset({0, 0b10}))


def test_members_canonical_order():
    h = hc("abc", [(), ("a",), ("c",), ("a", "c")])
    assert h.members() == ((), ("a",), ("c",), ("a", "c"))


def test_hc_rank_examples():
    assert uniform(3, 4).independent_family.rank == 3
    assert hc("ab", [()]).rank == 0


def test_circuits_examples():
    u = uniform(3, 4)
    assert u.circuits() == (("1", "2", "3", "4"),)
    five = uniform(3, 5)  # free of special triples: circuits are 4-subsets
    assert all(len(c) == 4 for c in five.circuits())
    free = hc("abc", [(), ("a",), ("b",), ("c",), ("a", "b"), ("a", "c"),
                      ("b", "c"), ("a", "b", "c")])
    assert free.circuits() == ()


def test_circuits_match_power_set_scan():
    rng = random.Random(23)
    collections = [uniform(2, 4).independent_family, uniform(3, 5).independent_family]
    for _ in range(10):
        m = random_bool_matrix(rng, rng.randint(2, 4), rng.randint(2, 5))
        collections.append(hereditary_from_matrix(m))
    for h in collections:
        # any member list works as the covering sets for the oracle scan
        expected = circuits_scan(sorted(h.family), h.ground.size)
        assert sorted(h.circuit_masks()) == sorted(expected)


def test_matroid_circuits_are_walked_on_its_table(pool):
    """`Matroid.circuit_masks()` walks the extension table: on the pool it
    equals the power-set scan, in canonical order, and on ladder-sized
    matroids the walk on the validated `independent_family`."""
    for m in pool:
        expected = tuple(sorted(circuits_scan(m.bases, m.ground.size), key=m.ground.sort_key))
        assert m.circuit_masks() == expected
        assert m.circuits() == tuple(m.ground.labels_of(c) for c in expected)
    sizes = set()
    for m in ladder_sized():
        fresh = Matroid(m.ground, m.bases)  # no family cached yet
        assert fresh.circuit_masks() == fresh.independent_family.circuit_masks()
        sizes.add(fresh.ground.size)
    assert min(sizes) == 4 and max(sizes) == 15


def test_independent_masks_are_the_sets_inside_a_basis(pool):
    """`independent_masks` holds exactly the masks the oracle accepts, a
    read-only view that the validated family copies."""
    for m in pool:
        is_indep = indep_from_bases(m.bases)
        expected = {mask for mask in range(1 << m.ground.size) if is_indep(mask)}
        assert set(m.independent_masks) == expected
        assert not hasattr(m.independent_masks, "add")
    assert set(uniform(2, 3).independent_masks) == uniform(2, 3).independent_family.family


def test_point_replacement_examples():
    assert uniform(3, 4).independent_family.satisfies_point_replacement
    bad = hc("abc", [(), ("a",), ("b",), ("c",), ("a", "b")])
    assert bad.point_replacement_violation() == ("c", ("a", "b"))
    assert not bad.satisfies_point_replacement


def test_augmentation_violation_and_is_matroid():
    bad = hc("abc", [(), ("a",), ("b",), ("c",), ("a", "b")])
    violation = bad.augmentation_violation()
    assert violation is not None
    small, large = violation
    assert len(large) == len(small) + 1
    assert not bad.is_matroid
    assert uniform(2, 3).independent_family.is_matroid


def _downward_closure(tops):
    family = set()
    frontier = list(tops)
    while frontier:
        mask = frontier.pop()
        if mask not in family:
            family.add(mask)
            frontier.extend(mask & ~(1 << i) for i in range(mask.bit_length()))
    return frozenset(family)


def test_augmentation_violation_agrees_with_the_pairwise_scan():
    """4,000 seeded families on 0-7 elements, half closures of random top
    sets and half independent column sets of random boolean matrices: the
    verdict is the oracle scan's, and every counterexample is a member pair
    (X, Y) with |Y| = |X| + 1 and no y in Y - X making X + y a member."""
    rng = random.Random(20)
    verdicts = Counter()
    for trial in range(4000):
        if trial % 2:
            matrix = random_bool_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
            h = hereditary_from_matrix(matrix)
        else:
            n = rng.randint(0, 7)
            tops = [rng.getrandbits(n) for _ in range(rng.randint(1, 4))]
            h = HereditaryCollection(GroundSet.of(map(str, range(n))), _downward_closure(tops))
        verdict = h.is_matroid
        assert verdict == (augmentation_violation_scan(h.family) is None)
        verdicts[verdict] += 1
        violation = h.augmentation_violation()
        assert (violation is None) == verdict
        if violation is not None:
            small, large = (h.ground.mask_of(labels) for labels in violation)
            assert violation == (h.ground.labels_of(small), h.ground.labels_of(large))
            assert small in h.family and large in h.family
            assert large.bit_count() == small.bit_count() + 1
            gain = large & ~small
            assert not any(
                small | 1 << i in h.family for i in range(h.ground.size) if gain >> i & 1
            )
    assert verdicts[True] and verdicts[False]


# -- matroid construction ----------------------------------------------------------


def test_uniform_u34_is_a_rank_3_matroid():
    u = uniform(3, 4)
    assert u.rank == 3
    assert len(u.bases) == 4
    assert u.is_independent(("1", "2"))
    assert not u.is_independent(("1", "2", "3", "4"))


def test_from_bases_rejects_broken_families():
    g = GroundSet.of(["1", "2", "3", "4"])
    with pytest.raises(ExchangeFails):
        Matroid.from_bases(g, [("1", "2"), ("3", "4")])
    with pytest.raises(UnequalBasisSizes):
        Matroid.from_bases(g, [("1",), ("2", "3")])
    with pytest.raises(EmptyFamily):
        Matroid.from_bases(g, [])


def test_exchange_counterexample_is_reported():
    g = GroundSet.of(["1", "2", "3", "4"])
    with pytest.raises(ExchangeFails) as info:
        Matroid.from_bases(g, [("1", "2"), ("3", "4")])
    err = info.value
    assert set(err.basis1) | set(err.basis2) <= {"1", "2", "3", "4"}
    assert len(err.basis1) == 2


def _agrees_with_pairwise_exchange(ground, bases):
    """Construction accepts exactly when the pairwise oracle does, and a
    rejection reports the first real failure in canonical order: b1, then
    x ascending, then b2.  Returns whether the family was accepted."""
    try:
        Matroid(ground, bases)
    except ExchangeFails as err:
        assert not basis_exchange_holds(bases)
        b1 = ground.mask_of(err.basis1)
        b2 = ground.mask_of(err.basis2)
        x = ground.index(err.element)
        assert b1 in bases and b2 in bases
        assert b1 >> x & 1 and not b2 >> x & 1
        assert exchange_fails(bases, b1, b2, x)
        order = sorted(bases, key=ground.sort_key)
        first = next(
            (c1, y, c2)
            for c1 in order
            for y in range(ground.size)
            if c1 >> y & 1
            for c2 in order
            if not c2 >> y & 1 and exchange_fails(bases, c1, c2, y)
        )
        assert (b1, x, b2) == first
        return False
    assert basis_exchange_holds(bases)
    return True


def test_exchange_check_matches_pairwise_definition():
    """Every nonempty family of k-subsets of n elements, for (n, k) in
    (4, 2), (5, 2), (5, 3), against the pairwise oracle."""
    verdicts = Counter()
    for n, k in ((4, 2), (5, 2), (5, 3)):
        ground = GroundSet(tuple(str(i + 1) for i in range(n)))
        subsets = [sum(1 << i for i in c) for c in combinations(range(n), k)]
        for choice in range(1, 1 << len(subsets)):
            bases = frozenset(s for j, s in enumerate(subsets) if choice >> j & 1)
            verdicts[_agrees_with_pairwise_exchange(ground, bases)] += 1
    assert verdicts[True] and verdicts[False]


def _has_small_span(bases, n, r):
    """Some (r-1)-subset I of a basis spans fewer than r elements: the
    complement of its completions, the y with I + y a basis, is that small."""
    full = (1 << n) - 1
    for b in bases:
        for x in range(n):
            if b >> x & 1:
                rest = b ^ (1 << x)
                completions = sum(
                    1 << y for y in range(n) if not rest >> y & 1 and rest | 1 << y in bases
                )
                if (full & ~completions).bit_count() < r:
                    return True
    return False


def test_exchange_check_matches_pairwise_definition_on_random_families():
    """Seeded random equicardinal families on 0-8 elements at every rank
    0..n: the uniform matroid, GF(2) column matroids (zero and repeated
    columns allowed), each of those with one r-subset toggled, and families
    drawn at random.  Each must agree with the pairwise oracle; the sweep
    holds both verdicts at every rank that has both, and both verdicts on
    families where some span has fewer than r elements."""
    rng = random.Random(20261019)
    verdicts = Counter()
    small_span = Counter()
    for n in range(9):
        ground = GroundSet(tuple(str(i + 1) for i in range(n)))
        for r in range(n + 1):
            subsets = [sum(1 << i for i in c) for c in combinations(range(n), r)]
            families = [frozenset(subsets)]
            for _ in range(4):
                cols = [rng.randrange(1 << r) for _ in range(n)]
                families.append(frozenset(
                    s for s in subsets
                    if _xor_rank([cols[i] for i in range(n) if s >> i & 1]) == r
                ))
            families += [
                fam ^ {rng.choice(subsets)} for fam in families for _ in range(2)
            ]
            for _ in range(4):
                density = rng.random()
                families.append(frozenset(s for s in subsets if rng.random() < density))
            for bases in families:
                if not bases:
                    continue
                accepted = _agrees_with_pairwise_exchange(ground, bases)
                verdicts[n, r, accepted] += 1
                small_span[accepted] += _has_small_span(bases, n, r)
    assert all(verdicts[n, r, True] for n in range(9) for r in range(n + 1))
    # every family of rank 1 or of rank n - 1 is a matroid's bases
    assert all(verdicts[n, r, False] for n in range(9) for r in range(2, n - 1))
    assert small_span[True] and small_span[False]


def test_exchange_check_matches_the_basis_scan():
    """Past the exhaustive sweep's 8 elements: accept or reject, and the
    counterexample (b1, x, b2), agree with the canonical scan of the bases
    on U(4,10), U(3,12), two GF(2) rank-4 matroids, PG(2,3), and seeded
    copies of each with one r-subset toggled.  Removing one basis of a
    uniform matroid leaves a matroid (the set becomes a circuit-hyperplane),
    so the rejections come from the others."""
    matroids = [
        uniform(4, 10),
        uniform(3, 12),
        gf2_matroid(random.Random(1108), 10, 4),
        gf2_matroid(random.Random(1473), 12, 4),
        projective_plane(3),
    ]
    rng = random.Random(20261019)
    verdicts = Counter()
    for m in matroids:
        ground, n, r = m.ground, m.ground.size, m.rank
        assert exchange_counterexample_scan(m.bases) is None
        for _ in range(12):
            bases = m.bases ^ {sum(1 << i for i in rng.sample(range(n), r))}
            try:
                Matroid(ground, bases)
                found = None
            except ExchangeFails as err:
                found = (
                    ground.mask_of(err.basis1),
                    ground.index(err.element),
                    ground.mask_of(err.basis2),
                )
            assert found == exchange_counterexample_scan(bases)
            verdicts[found is None] += 1
    assert verdicts[True] >= 24 and verdicts[False] >= 30


@pytest.mark.parametrize(
    "build, bases", [(lambda: uniform(4, 10), 210), (lambda: projective_plane(2), 28)], ids=["u410", "fano"]
)
def test_masks_no_basis_can_avoid_build_no_bitsets(monkeypatch, build, bases):
    """A basis avoiding the completion mask C of an (r-1)-set I lies in
    E - C and misses an element of I, so it needs n - |C| > r.  In U(4,10)
    each C has n - r + 1 elements and in the Fano plane n - r (each pair's
    line leaves 4 completions): no mask is tested and the basis bitsets
    are never built."""

    def refuse(*args):
        raise AssertionError("basis bitsets built")

    monkeypatch.setattr(matroid_module, "transpose", refuse)
    assert len(build().bases) == bases


def test_basis_sets_canonical():
    u = uniform(2, 3)
    assert u.basis_sets() == (("1", "2"), ("1", "3"), ("2", "3"))


def test_independent_family_is_downward_closure():
    u = uniform(2, 3)
    h = u.independent_family
    assert len(h.family) == 1 + 3 + 3
    assert h.is_independent(())
    assert all(u.is_independent_mask(m) for m in h.family)


def test_rank_of_subsets():
    u = uniform(2, 4)
    assert u.rank_of(()) == 0
    assert u.rank_of(("1",)) == 1
    assert u.rank_of(("1", "2", "3")) == 2


# -- closure and flats ------------------------------------------------------------


def test_closure_examples(fivept):
    assert fivept.closure(("1", "2")) == ("1", "2", "3")
    assert fivept.closure(()) == ()
    for basis in fivept.basis_sets():
        assert fivept.closure(basis) == fivept.ground.labels


def test_closure_is_a_closure_operator(fivept, k4m):
    for m in (fivept, k4m):
        n = m.ground.size
        for mask in range(1 << n):
            closed = m.closure_mask(mask)
            assert closed & mask == mask
            assert m.closure_mask(closed) == closed
            for i in range(n):
                grown = m.closure_mask(mask | (1 << i))
                assert closed & ~grown == 0


def test_closure_exchange_property(fivept):
    m = fivept
    n = m.ground.size
    for mask in range(1 << n):
        closed = m.closure_mask(mask)
        for x in range(n):
            if mask >> x & 1:
                continue
            with_x = m.closure_mask(mask | (1 << x))
            for y in range(n):
                if (with_x >> y & 1) and not (closed >> y & 1) and y != x:
                    assert m.closure_mask(mask | (1 << y)) >> x & 1


def test_rank_closure_and_independence_agree_with_oracles(pool):
    """Every subset of every pool matroid, plus a non-simple matroid with a
    loop and a parallel pair."""
    g = GroundSet.of("abcdl")
    non_simple = Matroid.from_bases(
        g, [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    )
    assert non_simple.loops() == ("l",) and non_simple.rank_of(("a", "b")) == 1
    for m in list(pool) + [non_simple]:
        bases = sorted(m.bases)
        n = m.ground.size
        circuits = circuits_scan(bases, n)
        is_indep = indep_from_bases(bases)
        for mask in range(1 << n):
            assert m.rank_of_mask(mask) == rank_from_bases(bases, mask)
            assert m.is_independent_mask(mask) == is_indep(mask)
            assert m.closure_mask(mask) == closure_by_circuits(circuits, n, mask)


def test_every_circuit_element_is_in_closure_of_the_rest(u34, fivept, k4m, w3m):
    for m in (u34, fivept, k4m, w3m):
        for circuit in m.circuits():
            for c in circuit:
                rest = tuple(x for x in circuit if x != c)
                assert c in m.closure(rest)


def test_independent_iff_no_element_in_closure_of_rest(fivept, k4m):
    for m in (fivept, k4m):
        n = m.ground.size
        for mask in range(1 << n):
            labels = m.ground.labels_of(mask)
            spanned = any(
                x in m.closure(tuple(y for y in labels if y != x)) for x in labels
            )
            assert m.is_independent(labels) == (not spanned)


def test_family_containment_iff_no_foreign_circuit_inside(k4m, w3m):
    pairs = [(k4m, w3m), (w3m, k4m), (k4m, uniform(3, 6)), (uniform(3, 6), w3m)]
    for small, large in pairs:
        h = small.independent_family.family
        h2 = large.independent_family.family
        contained = h <= h2
        circuit_free = not any(
            large.ground.mask_of(c) in h for c in large.circuits()
        )
        assert contained == circuit_free


def test_flat_counts(u34, fivept, k4m, w3m):
    assert len(u34.flats()) == 12
    assert len(fivept.flats()) == 13
    assert len(k4m.flats()) == 15
    assert len(w3m.flats()) == 17


def test_flats_contain_bottom_singletons_and_top(fivept):
    flats = fivept.flats()
    assert () in flats
    for x in fivept.ground.labels:
        assert (x,) in flats
    assert fivept.ground.labels in flats


def test_flats_match_power_set_scan(pool):
    for m in pool:
        expected = flats_scan(sorted(m.bases), m.ground.size)
        assert list(m.flat_masks) == expected


def test_is_flat_mask_matches_power_set_scan(pool):
    for m in pool:
        flats = set(flats_scan(sorted(m.bases), m.ground.size))
        assert {s for s in range(1 << m.ground.size) if m.is_flat_mask(s)} == flats


def test_hyperplanes_are_the_flats_of_rank_one_less(pool):
    """`hyperplane_masks` holds exactly the flats of the power-set scan
    whose rank is r - 1, on the pool and on a non-simple matroid."""
    parallel = Matroid.from_bases(GroundSet.of("abcl"), [("a", "c"), ("b", "c")])
    for m in [*pool, parallel]:
        flats = flats_scan(sorted(m.bases), m.ground.size)
        expected = {f for f in flats if rank_from_bases(m.bases, f) == m.rank - 1}
        assert m.hyperplane_masks == expected
    assert parallel.hyperplane_masks == {0b1011, 0b1100}  # {a,b,l} and {c,l}


def test_flats_require_simple():
    g = GroundSet.of("ab")
    parallel = Matroid.from_bases(g, [("a",), ("b",)])
    with pytest.raises(NotSimple):
        parallel.flats()


def test_loops_and_is_simple():
    g = GroundSet.of("ab")
    m = Matroid.from_bases(g, [("a",)])
    assert m.loops() == ("b",)
    assert not m.is_simple
    assert uniform(2, 4).is_simple
    assert not uniform(1, 2).is_simple  # two parallel points
    lone_loop = Matroid(GroundSet.of("a"), frozenset({0}))
    assert lone_loop.rank == 0
    assert not lone_loop.is_simple
    assert lone_loop.loops() == ("a",)
    empty = Matroid(GroundSet(()), frozenset({0}))
    assert empty.is_simple
    assert empty.loops() == ()
    assert empty.flats() == ((),)


def test_spans_alone_answer_simplicity_flats_and_the_lattice(pool, monkeypatch):
    """Simplicity, loops, flats, the lattice and the paper reduction never
    go through `closure_mask`: each reads spans of independent sets."""

    def refuse(self, mask):
        raise AssertionError("closure_mask called")

    monkeypatch.setattr(Matroid, "closure_mask", refuse)
    non_simple = Matroid.from_bases(
        GroundSet.of("abcdl"), [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    )
    assert not non_simple.is_simple
    assert non_simple.loops() == ("l",)
    simple, mapping = non_simple.simplify()
    assert simple.ground.labels == ("a", "c", "d") and mapping["b"] == "a"
    for m in pool:
        rebuilt = Matroid(m.ground, m.bases)
        assert rebuilt.is_simple
        assert rebuilt.loops() == ()
        assert rebuilt.flat_masks == m.flat_masks
        assert FlatLattice.from_matroid(rebuilt).size == len(rebuilt.flat_masks)
        if rebuilt.rank >= 3:  # below rank 3 the paper's rows cannot suffice
            paper_reduce(extract_representation(rebuilt))


def test_the_extension_table_alone_answers_the_matroid(pool, monkeypatch):
    """Construction, flats, closure, loops, simplicity, simplification, the
    lattice, extraction and both reducers on flat rows build no
    `HereditaryCollection`: every answer comes from the extension table."""

    def refuse(self):
        raise AssertionError("HereditaryCollection built")

    monkeypatch.setattr(HereditaryCollection, "__post_init__", refuse)
    non_simple = Matroid.from_bases(
        GroundSet.of("abcdl"), [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    )
    simple, mapping = non_simple.simplify()
    assert simple.ground.labels == ("a", "c", "d") and mapping["b"] == "a"
    for m in pool:
        rebuilt = Matroid(m.ground, m.bases)
        assert rebuilt.flat_masks == m.flat_masks
        assert rebuilt.flat_names == m.flat_names
        assert rebuilt.is_simple and rebuilt.loops() == ()
        full = rebuilt.ground.full_mask
        assert rebuilt.closure_mask(full) == full
        assert FlatLattice.from_matroid(rebuilt).size == len(rebuilt.flat_masks)
        rep = extract_representation(rebuilt)
        verified_reduce(rep)
        if rebuilt.rank >= 3:  # below rank 3 the paper's rows cannot suffice
            paper_reduce(rep)


def pg_closed_forms(d, q):
    """Bases, flats by rank and maximal chains of PG(d,q), from formulas:
    ordered bases of GF(q)^r up to scalars and order, the Gaussian binomials
    [d+1 choose k]_q, and the complete flags of GF(q)^(d+1)."""
    r = d + 1
    bases = prod(q**r - q**i for i in range(r)) // ((q - 1) ** r * factorial(r))
    flats = [gaussian_binomial(r, k, q) for k in range(r + 1)]
    chains = prod((q**k - 1) // (q - 1) for k in range(1, r + 1))
    return bases, flats, chains


@pytest.mark.parametrize(
    "build, d, q",
    [(lambda: projective_plane(3), 2, 3), (pg32, 3, 2), (pg25, 2, 5)],
    ids=["PG(2,3)", "PG(3,2)", "PG(2,5)"],
)
def test_projective_geometries_match_closed_forms(build, d, q):
    """Closed forms, not oracles: they hold past the brute-force oracles'
    reach, and share no code with the library."""
    m = build()
    bases, flats, chains = pg_closed_forms(d, q)
    assert m.ground.size == flats[1]
    assert len(m.bases) == bases
    by_rank = Counter(m.rank_of_mask(f) for f in m.flat_masks)
    assert [by_rank[k] for k in range(d + 2)] == flats
    assert sum(1 for _ in chain_indices(FlatLattice.from_matroid(m))) == chains


def test_projective_plane_of_order_5():
    m = pg25()
    assert m.ground.size == 31
    assert m.is_simple
    sizes = [f.bit_count() for f in m.flat_masks]
    assert sizes == [0] + [1] * 31 + [6] * 31 + [31]
    lines = set(m.flat_masks[32:63])
    for i, j in combinations(range(31), 2):
        closed = m.closure_mask((1 << i) | (1 << j))
        assert closed in lines
    assert FlatLattice.from_matroid(m).height == 3


def pg33():
    """PG(3,3): the 40 points of GF(3)^4 up to scalars, each scaled so its
    first nonzero coordinate is 1.  The signed 3x3 minors of three points
    are the cofactors of a fourth row, so a fourth point completes a basis
    when its dot product with them, the 4x4 determinant, is nonzero mod 3."""
    points = [
        v for v in product(range(3), repeat=4)
        if any(v) and v[next(i for i, x in enumerate(v) if x)] == 1
    ]

    def det(a, b, c):
        return (
            a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0])
        )

    bases = set()
    for i, j, k in combinations(range(len(points)), 3):
        rows = (points[i], points[j], points[k])
        cofactors = [
            (-1) ** (c + 1) * det(*(v[:c] + v[c + 1:] for v in rows)) for c in range(4)
        ]
        for m in range(k + 1, len(points)):
            if sum(x * y for x, y in zip(cofactors, points[m])) % 3:
                bases.add((1 << i) | (1 << j) | (1 << k) | (1 << m))
    ground = GroundSet(tuple(str(i + 1) for i in range(len(points))))
    return Matroid(ground, frozenset(bases))


def test_projective_space_of_dimension_3_over_gf3():
    """Closed forms, not oracles: the basis count is the product formula,
    the flats by rank are the Gaussian binomials [4 choose k]_3 and the
    maximal chains are the complete flags of GF(3)^4."""
    m = pg33()
    bases, flats, chains = pg_closed_forms(3, 3)
    assert m.ground.size == 40 and len(m.bases) == bases == 63180
    assert m.is_simple
    assert m.independent_family.is_matroid
    by_rank = Counter(m.rank_of_mask(f) for f in m.flat_masks)
    assert [by_rank[k] for k in range(5)] == flats == [1, 40, 130, 40, 1]
    assert sum(1 for _ in chain_indices(FlatLattice.from_matroid(m))) == chains == 2080
    lines = {f for f in m.flat_masks if m.rank_of_mask(f) == 2}
    assert {f.bit_count() for f in lines} == {4}
    for i, j in combinations(range(40), 2):
        assert m.closure_mask((1 << i) | (1 << j)) in lines


# -- simplification -----------------------------------------------------------------


def test_simplify_identity_on_simple(u34):
    simple, mapping = u34.simplify()
    assert simple == u34
    assert mapping == {x: x for x in u34.ground.labels}


def test_simplify_merges_parallel_point():
    labels = ("1", "2", "3", "4", "x")
    g = GroundSet.of(labels)
    bases = [c for c in combinations(("1", "2", "3", "4"), 3)]
    bases += [("x",) + c for c in combinations(("2", "3", "4"), 2)]
    m = Matroid.from_bases(g, bases)
    assert not m.is_simple
    simple, mapping = m.simplify()
    assert simple == uniform(3, 4)
    assert mapping["x"] == "1"
    assert mapping["2"] == "2"


def test_simplify_drops_loops():
    g = GroundSet.of("ab")
    m = Matroid.from_bases(g, [("a",)])
    simple, mapping = m.simplify()
    assert simple.ground.labels == ("a",)
    assert mapping == {"a": "a"}


def test_simplify_all_loops_raises():
    with pytest.raises(AllLoops):
        uniform(0, 3).simplify()


def planted(matroid):
    """The matroid with a loop put first and parallel copies appended: one
    of every element, and a second of the first.  Returns it with the
    mapping its simplification should give."""
    labels = matroid.ground.labels
    twins = [(x + "'", x) for x in labels] + [(labels[0] + "''", labels[0])]
    ground = GroundSet(("loop",) + labels + tuple(twin for twin, _ in twins))
    parallel_class = {x: [x] for x in labels}
    for twin, x in twins:
        parallel_class[x].append(twin)
    bases = [
        choice
        for basis in matroid.basis_sets()
        for choice in product(*(parallel_class[x] for x in basis))
    ]
    return Matroid.from_bases(ground, bases), {x: x for x in labels} | dict(twins)


def test_simplify_undoes_a_planted_loop_and_parallel_copies(pool):
    for m in pool:
        extended, mapping = planted(m)
        assert extended.loops() == ("loop",)
        assert not extended.is_simple
        assert extended.simplify() == (m, mapping)


# -- hereditary collections from matrices ----------------------------------------------


def test_hereditary_from_identity_matrix():
    h = hereditary_from_matrix(SbMatrix.of([[1, 0], [0, 1]], col_labels=("a", "b")))
    assert len(h.family) == 4
    assert h.is_independent(("a", "b"))


def test_hereditary_from_single_row():
    h = hereditary_from_matrix(SbMatrix.of([[1, 1]], col_labels=("a", "b")))
    assert h.members() == ((), ("a",), ("b",))


def test_hereditary_from_matrix_matches_direct_scan():
    """Random matrices with ghosts, with a column of zeros and one of ghosts
    and zeros, and matrices with no rows or no columns."""
    rng = random.Random(29)
    matrices = [random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5)) for _ in range(60)]
    for _ in range(20):
        n_rows, n_cols = rng.randint(1, 4), rng.randint(2, 5)
        grid = [[rng.choice(("0", "1", "1v")) for _ in range(n_cols)] for _ in range(n_rows)]
        for row in grid:
            row[0] = "0"  # a column of zeros
            if row[-1] == "1":
                row[-1] = "1v"  # a column of ghosts and zeros
        matrices.append(SbMatrix.of(grid))
    matrices.extend(SbMatrix.of([], col_labels=("a", "b", "c")[:k]) for k in range(4))
    matrices.extend(SbMatrix.of([[]] * k) for k in (1, 3))
    for m in matrices:
        h = hereditary_from_matrix(m)
        for mask in range(1 << m.n_cols):
            labels = tuple(m.col_labels[j] for j in range(m.n_cols) if mask >> j & 1)
            assert (mask in h.family) == m.columns_independent(labels)


def _grower_grid(rng, n_rows, n_cols):
    """An int grid (2 the ghost) with zero, ghost-only and repeated columns
    among fresh ones drawn at one density.  In half the grids the k-th
    column, fresh, has a plain 1 on the k-th row of a shuffled order and is
    mostly 0 on the rows before it, so large independent sets occur."""
    density = rng.uniform(0.1, 0.5)
    noise = rng.uniform(0, 0.2) if rng.random() < 0.5 else None
    order = rng.sample(range(n_rows), n_rows)
    columns = []
    for _ in range(n_cols):
        kind = rng.choice(("fresh",) * 5 + ("zero", "ghost", "copy"))
        if kind == "copy" and columns:
            columns.append(rng.choice(columns))
        elif kind == "zero":
            columns.append([0] * n_rows)
        elif kind == "ghost":
            columns.append([2 if rng.random() < density else 0 for _ in range(n_rows)])
        else:
            column = [rng.choice((1, 1, 1, 2)) if rng.random() < density else 0 for _ in range(n_rows)]
            k = len(columns)
            if noise is not None and k < n_rows:
                for r in order[:k]:
                    if rng.random() >= noise:
                        column[r] = 0
                column[order[k]] = 1
            columns.append(column)
    return [list(row) for row in zip(*columns)]


def _grown(grid, n_cols):
    labels = tuple(map(str, range(n_cols)))
    return _independent_column_sets(SbMatrix.of(grid, col_labels=labels))


def test_grower_matches_the_per_candidate_peel():
    """2,000 seeded matrices of 0-16 rows and 1-11 columns with zero,
    ghost-only and repeated columns: the one carried peel round gives the
    family a whole peel per candidate gives."""
    rng = random.Random(2029)
    sizes = Counter()
    for _ in range(2000):
        n_rows, n_cols = rng.randint(0, 16), rng.randint(1, 11)
        grid = _grower_grid(rng, n_rows, n_cols)
        family = _grown(grid, n_cols)
        assert family == independent_column_sets_by_peel(grid, n_cols)
        sizes[max(map(int.bit_count, family))] += 1
    assert set(range(10)) <= set(sizes)  # largest sets of every size 0 to 9 are met


def test_grower_matches_the_definition():
    """300 seeded matrices of 0-4 rows and 1-6 columns: the grown family
    is the column sets no nonzero 0/1 combination sends into the ghost
    ideal."""
    rng = random.Random(2030)
    for _ in range(300):
        n_rows, n_cols = rng.randint(0, 4), rng.randint(1, 6)
        grid = _grower_grid(rng, n_rows, n_cols)
        expected = independent_column_sets(grid) if n_rows else {0}
        assert _grown(grid, n_cols) == expected


def test_grower_gives_the_independent_sets_of_extractions(pool):
    """On the extraction of every pool matroid, PG(3,2) and PG(2,5), the
    grown column sets are the matroid's independent sets."""
    for m in [*pool, pg32(), pg25()]:
        matrix = extract_representation(m).matrix
        assert matrix.col_labels == m.ground.labels
        assert _independent_column_sets(matrix) == m.independent_masks


def test_collections_from_boolean_matrices_satisfy_point_replacement():
    rng = random.Random(31)
    for _ in range(80):
        m = random_bool_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        assert hereditary_from_matrix(m).satisfies_point_replacement


# -- isomorphism ----------------------------------------------------------------------


def test_isomorphism_to_self_is_identity(fivept):
    h = fivept.independent_family
    assert find_isomorphism(h, h) == {x: x for x in h.ground.labels}


def test_isomorphism_distinguishes_ranks():
    assert find_isomorphism(
        uniform(2, 3).independent_family, uniform(1, 3).independent_family
    ) is None


def test_isomorphism_recovers_a_relabeling(fivept):
    h = fivept.independent_family
    perm = {"1": "3", "2": "1", "3": "5", "4": "2", "5": "4"}
    ground = h.ground
    remapped = frozenset(
        ground.mask_of(perm[x] for x in ground.labels_of(m)) for m in h.family
    )
    other = HereditaryCollection(ground, remapped)
    found = find_isomorphism(h, other)
    assert found is not None
    image = frozenset(
        ground.mask_of(found[x] for x in ground.labels_of(m)) for m in h.family
    )
    assert image == remapped


def graph_complex(edges):
    """The 1-dimensional complex of a graph on the labels a..f: the empty
    set, every vertex of an edge, and the edges."""
    vertices = sorted(set("".join(edges)))
    return hc("abcdef", [[]] + [[v] for v in vertices] + [list(e) for e in edges])


def test_isomorphism_rejects_unequal_signatures():
    # same ground and member count, but the path's inner vertices lie on
    # two edges and the star's centre on three
    path, star = graph_complex(["ab", "bc", "cd"]), graph_complex(["ab", "ac", "ad"])
    assert len(path.family) == len(star.family)
    assert find_isomorphism(path, star) is None


def test_isomorphism_rejects_equal_signatures_when_no_bijection_fits():
    # every vertex of both lies on two edges, but a hexagon is connected
    hexagon = graph_complex(["ab", "bc", "cd", "de", "ef", "fa"])
    triangles = graph_complex(["ab", "bc", "ca", "de", "ef", "fd"])
    signatures = [
        sorted(matroid_module._element_signature(c, i) for i in range(6))
        for c in (hexagon, triangles)
    ]
    assert signatures[0] == signatures[1]
    assert find_isomorphism(hexagon, triangles) is None
    assert find_isomorphism(hexagon, hexagon) is not None


def test_isomorphism_caps_ground_size():
    h = uniform(1, 9).independent_family
    with pytest.raises(GroundTooLarge):
        find_isomorphism(h, h)


# -- JSON -------------------------------------------------------------------------------


def test_json_round_trip(u34, fivept):
    for m in (u34, fivept):
        again = matroid_from_json(matroid_to_json(m))
        assert again == m


def test_json_independent_form():
    text = json.dumps(
        {"ground": ["a", "b"], "independent": [[], ["a"], ["b"], ["a", "b"]]}
    )
    m = matroid_from_json(text)
    assert m.rank == 2
    assert m.basis_sets() == (("a", "b"),)


def test_json_rejects_malformed_input():
    cases = [
        "not json",
        "[1,2]",
        '{"bases": [["a"]]}',
        '{"ground": ["a"], "bases": [["a"]], "independent": [[]]}',
        '{"ground": ["a"]}',
        '{"ground": "a", "bases": [["a"]]}',
        '{"ground": ["a"], "bases": [["z"]]}',
        '{"ground": ["a"], "bases": "a"}',
        '{"ground": ["a"], "bases": [[["a"]]]}',
        '{"ground": ["a"], "independent": [[], [1]]}',
        "[" * 100_000 + "]" * 100_000,
        '{"ground": ' + "9" * 5000 + "}",
    ]
    for text in cases:
        with pytest.raises(MatroidParseError):
            matroid_from_json(text)


def test_json_rejects_family_that_is_not_a_closure_of_its_tops():
    text = json.dumps(
        {"ground": ["a", "b", "c"],
         "independent": [[], ["a"], ["b"], ["c"], ["a", "b"]]}
    )
    with pytest.raises(MatroidParseError):
        matroid_from_json(text)


@pytest.mark.parametrize("key", ["bases", "independent"])
@pytest.mark.parametrize(
    "labels, reason",
    [(["z"], "no ground element labeled 'z'"), (["a", "a"], r"repeated label in set \('a', 'a'\)")],
)
def test_json_label_errors_name_the_key(key, labels, reason):
    text = json.dumps({"ground": ["a", "b"], key: [[], ["a"], labels]})
    with pytest.raises(MatroidParseError, match=f'^"{key}": {reason}$'):
        matroid_from_json(text)


def test_json_rejects_repeated_label_in_a_set():
    cases = [
        {"ground": ["1", "2"], "bases": [["1", "1"]]},
        {"ground": ["1", "2"], "bases": [["1", "2"], ["2", "1", "2"]]},
        {"ground": ["1", "2"], "independent": [[], ["1"], ["1", "1"]]},
    ]
    for data in cases:
        with pytest.raises(MatroidParseError, match="repeated label"):
            matroid_from_json(json.dumps(data))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "c", "d", "z", ["a"]]), max_size=6))
def test_set_mask_sums_bits_and_words_each_error_as_the_checked_path(labels):
    """`_set_mask` gives the mask, or the error type and message, of the
    per-label lookup followed by `_distinct`, on sets with unknown,
    repeated and unhashable labels."""
    ground = GroundSet.of("abcd")

    def outcome(build):
        try:
            return build()
        except BoolrepError as exc:
            return type(exc), str(exc)

    def checked():
        mask = ground.mask_of(labels)
        _distinct(labels)
        return mask

    assert outcome(lambda: _set_mask(ground, labels)) == outcome(checked)
