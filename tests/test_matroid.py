"""Hereditary collections, matroid axioms, closure, flats, simplification."""

import json
import random
from itertools import combinations

import pytest

from boolrep import (
    AllLoops,
    EmptyFamily,
    ExchangeFails,
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
    find_isomorphism,
    hereditary_from_matrix,
    matroid_from_json,
    matroid_to_json,
    uniform,
)

from conftest import random_bool_matrix, random_matrix
from oracles import (
    basis_exchange_holds,
    circuits_scan,
    closure_by_circuits,
    exchange_fails,
    flats_scan,
    indep_from_bases,
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


# -- hereditary collections ------------------------------------------------------


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


def test_exchange_check_matches_pairwise_definition():
    """Every nonempty family of k-subsets of n elements, for (n, k) in
    (4, 2), (5, 2), (5, 3): construction accepts exactly the families the
    pairwise oracle accepts, and every reported triple is a real failure."""
    accepted = rejected = 0
    for n, k in ((4, 2), (5, 2), (5, 3)):
        ground = GroundSet(tuple(str(i + 1) for i in range(n)))
        subsets = [sum(1 << i for i in c) for c in combinations(range(n), k)]
        for choice in range(1, 1 << len(subsets)):
            bases = frozenset(s for j, s in enumerate(subsets) if choice >> j & 1)
            try:
                Matroid(ground, bases)
            except ExchangeFails as err:
                rejected += 1
                assert not basis_exchange_holds(bases)
                b1 = ground.mask_of(err.basis1)
                b2 = ground.mask_of(err.basis2)
                x = ground.index(err.element)
                assert b1 in bases and b2 in bases
                assert b1 >> x & 1 and not b2 >> x & 1
                assert exchange_fails(bases, b1, b2, x)
            else:
                accepted += 1
                assert basis_exchange_holds(bases)
    assert accepted and rejected


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


def test_flats_match_power_set_scan(u34, fivept, k4m, w3m, random_matroids):
    sample = [u34, fivept, k4m, w3m] + list(random_matroids[:12])
    for m in sample:
        expected = flats_scan(sorted(m.bases), m.ground.size)
        assert list(m.flat_masks) == expected


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


# -- hereditary collections from matrices ----------------------------------------------


def test_hereditary_from_identity_matrix():
    h = hereditary_from_matrix(SbMatrix.of([[1, 0], [0, 1]], col_labels=("a", "b")))
    assert len(h.family) == 4
    assert h.is_independent(("a", "b"))


def test_hereditary_from_single_row():
    h = hereditary_from_matrix(SbMatrix.of([[1, 1]], col_labels=("a", "b")))
    assert h.members() == ((), ("a",), ("b",))


def test_hereditary_from_matrix_matches_direct_scan():
    rng = random.Random(29)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        h = hereditary_from_matrix(m)
        for mask in range(1 << m.n_cols):
            labels = tuple(m.col_labels[j] for j in range(m.n_cols) if mask >> j & 1)
            assert (mask in h.family) == m.columns_independent(labels)


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


def test_json_rejects_repeated_label_in_a_set():
    cases = [
        {"ground": ["1", "2"], "bases": [["1", "1"]]},
        {"ground": ["1", "2"], "bases": [["1", "2"], ["2", "1", "2"]]},
        {"ground": ["1", "2"], "independent": [[], ["1"], ["1", "1"]]},
    ]
    for data in cases:
        with pytest.raises(MatroidParseError, match="repeated label"):
            matroid_from_json(json.dumps(data))
