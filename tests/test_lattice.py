"""Order validation, heights, the two lattice matrices, chains and witnesses."""

import json
import random
import re
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boolrep import (
    CATALOG,
    AmbiguousLabel,
    BoolrepError,
    DuplicateLabels,
    FlatLattice,
    GroundSet,
    InvalidWitness,
    LatticeWitness,
    Matroid,
    NotSimple,
    SbMatrix,
    UnknownLabel,
    ZERO,
    ONE,
    extract_representation,
    matroid_from_json,
    maximal_chains,
    partition_of_chain,
    pentagon,
    transversal_witness,
    uniform,
)
from boolrep import sbool
import boolrep.lattice as lattice_module
from boolrep import partitions

from conftest import ag32, ladder_sized, vamos
from oracles import (
    circuits_scan,
    closure_by_circuits,
    geometric_lattice_oracle,
    grid_of,
    lattice_axiom_failure,
    maximal_chains_by_order,
    order_closure,
    order_covers,
    order_join,
    order_meet,
    permanent_perms,
    upper_covers_by_upsets,
)


def two_chain():
    return FlatLattice.from_order(("B", "T"), [("B", "T")])


def strict_chains(lat):
    """Every nonempty strict chain whose least element is above the bottom."""
    names = [n for n in lat.names if n != lat.bottom]
    chains = [[n] for n in names]
    out = []
    while chains:
        chain = chains.pop()
        out.append(tuple(chain))
        last = chain[-1]
        for n in names:
            if n != last and lat.leq(last, n):
                chains.append(chain + [n])
    return out


def covers_from_leq(lat, members):
    below = {
        a: {b for b in members if b != a and lat.leq(a, b)} for a in members
    }
    return {
        a: [b for b in below[a] if not any(b in below[c] for c in below[a])]
        for a in members
    }


def interval_chain_lengths(lat, low, high):
    members = [x for x in lat.names if lat.leq(low, x) and lat.leq(x, high)]
    covers = covers_within = covers_from_leq(lat, members)
    lengths = set()

    def walk(x, steps):
        if x == high:
            lengths.add(steps)
            return
        for y in covers[x]:
            walk(y, steps + 1)

    walk(low, 0)
    return lengths


# -- construction and validation --------------------------------------------------


def test_from_matroid_counts_and_heights(u34, k4m):
    lat = FlatLattice.from_matroid(u34)
    assert lat.size == 12
    assert lat.height == 3
    assert FlatLattice.from_matroid(k4m).size == 15
    tiny = FlatLattice.from_matroid(uniform(1, 1))
    assert tiny.names == ("{}", "{1}")
    assert tiny.height == 1


def test_from_matroid_requires_simple():
    with pytest.raises(NotSimple):
        FlatLattice.from_matroid(uniform(1, 2))


@pytest.mark.parametrize(
    "text, label, reason",
    [
        (
            '{"ground": ["a", "b", "c", "a,b"], "bases": [["a", "b", "c"], ["a", "b", "a,b"],'
            ' ["a", "c", "a,b"], ["b", "c", "a,b"]]}',
            "'a,b'",
            "contains a comma",
        ),
        ('{"ground": ["", "b"], "bases": [["", "b"]]}', "''", "is empty"),
    ],
)
def test_from_matroid_rejects_labels_that_make_flat_names_equal(text, label, reason):
    # "{a,b}" names both the line through a and b and the atom of "a,b";
    # "{}" names both the bottom and the atom of ""
    for build in (FlatLattice.from_matroid, extract_representation):
        with pytest.raises(AmbiguousLabel) as info:
            build(matroid_from_json(text))
        assert label in str(info.value) and reason in str(info.value)


def test_bottom_top_atoms(catalog_lattices):
    lat = catalog_lattices["fivept"]
    assert lat.bottom == "{}"
    assert lat.top == "{1,2,3,4,5}"
    assert lat.atoms == ("{1}", "{2}", "{3}", "{4}", "{5}")
    assert lat.element_height(lat.bottom) == 0
    assert all(lat.element_height(a) == 1 for a in lat.atoms)


def test_atoms_biject_with_ground(catalog_lattices, pool_lattices):
    # from_matroid does not check this theorem at run time
    for lat in [*catalog_lattices.values(), *pool_lattices]:
        assert len(lat.atoms) == lat.ground.size
        for x in lat.ground.labels:
            assert lat.atom_of(x) == "{" + x + "}"


def test_heights_are_ranks_and_maximal_chains_have_rank_plus_one_flats(pool, pool_lattices):
    # the lattice of flats is graded by the matroid's rank function; the
    # reference is the rank oracle, not lattice code
    for m, lat in zip(pool, pool_lattices):
        for i, flat in enumerate(lat.flat_masks):
            assert lat.heights[i] == m.rank_of_mask(flat)
        chains = list(maximal_chains(lat))
        assert chains
        assert all(len(chain) == m.rank + 1 for chain in chains)


def test_atom_of_needs_a_matroid_lattice():
    with pytest.raises(BoolrepError):
        two_chain().atom_of("B")


def test_atom_of_refuses_an_element_with_no_singleton_atom():
    # a hand-built flats lattice whose one atom is {1,2}: neither element
    # has its own singleton flat
    lat = FlatLattice(("{}", "{1,2}"), (0b11, 0b10), (0b00, 0b11), GroundSet.of("12"))
    with pytest.raises(UnknownLabel, match="^no atom for ground element '1'$"):
        lat.atom_of("1")


def test_construction_refuses_repeated_names_and_a_wrong_up_set_count():
    with pytest.raises(DuplicateLabels, match="^repeated lattice element name$"):
        FlatLattice(("a", "a"), (0b11, 0b10))
    with pytest.raises(
        BoolrepError, match="^order relation size does not match element count$"
    ):
        FlatLattice(("a", "b"), (0b11,))


def test_flat_masks_must_match_the_element_count(u34):
    lat = FlatLattice.from_matroid(u34)
    with pytest.raises(BoolrepError, match="flat mask count"):
        FlatLattice(lat.names, lat.up, lat.flat_masks[:-1], lat.ground)


def test_flat_masks_and_a_ground_set_come_together(u34):
    """Either one alone is refused when built, not later by a reader."""
    lat = FlatLattice.from_matroid(u34)
    for masks, ground in ((lat.flat_masks, None), (None, lat.ground)):
        with pytest.raises(BoolrepError, match="^flat masks and a ground set come together"):
            FlatLattice(lat.names, lat.up, masks, ground)


def test_from_order_rejects_broken_posets():
    with pytest.raises(BoolrepError):
        FlatLattice.from_order(("a", "b"), [])  # two bottoms, no meet
    with pytest.raises(BoolrepError):
        FlatLattice.from_order(("a", "b"), [("a", "b"), ("b", "a")])
    with pytest.raises(UnknownLabel):
        FlatLattice.from_order(("a",), [("a", "z")])
    with pytest.raises(BoolrepError):
        # diamond with two incomparable middles but no top
        FlatLattice.from_order(("B", "x", "y"), [("B", "x"), ("B", "y")])


def test_the_empty_order_has_no_bottom():
    # at n = 0 the bottom check used to be skipped, and repr() then raised
    # a bare StopIteration
    with pytest.raises(BoolrepError, match="^lattice has no bottom element$"):
        FlatLattice.from_order((), [])
    with pytest.raises(BoolrepError, match="^lattice has no bottom element$"):
        FlatLattice((), ())
    assert lattice_module._generator_pass(()) is False


NAMES = tuple("abcdefg")


def _agrees_with_the_axiom_oracle(names, up, build):
    """build() raises exactly when the oracle names a failure, with the
    oracle's message, and the generator pass answers False there and True
    otherwise; an accepted lattice has the oracle's meets and joins.
    The oracle checks meets last, and the library not at all, so this also
    checks that every pair has a meet once all have joins and a bottom."""
    expected = lattice_axiom_failure(names, up)
    try:
        lat = build()
    except BoolrepError as exc:
        assert str(exc) == expected
        assert lattice_module._generator_pass(up) is False
        return
    assert expected is None
    assert lat.up == tuple(up)
    assert lattice_module._generator_pass(up) is True
    for i in range(len(names)):
        for j in range(len(names)):
            assert lat._meet_index(i, j) == order_meet(up, i, j)
            assert lat._join_index(i, j) == order_join(up, i, j)


@st.composite
def raw_orders(draw):
    """Up-set masks on up to 7 elements, reflexive or not, sometimes with a
    bit past the last element."""
    n = draw(st.integers(0, 7))
    width = n + draw(st.sampled_from((0, 0, 0, 1)))
    reflexive = draw(st.booleans())
    up = [
        draw(st.integers(0, (1 << width) - 1)) | (reflexive << i) for i in range(n)
    ]
    return NAMES[:n], up


@st.composite
def generated_orders(draw):
    """Generating pairs on up to 7 elements; acyclic ones (low index below
    high) close to partial orders, and often to lattices."""
    n = draw(st.integers(0, 7))
    if n == 0:
        return NAMES[:0], []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = draw(st.lists(pair, max_size=2 * n))
    if draw(st.booleans()):
        pairs = [(min(a, b), max(a, b)) for a, b in pairs]
    return NAMES[:n], pairs


@st.composite
def bounded_orders(draw):
    """A generated order under a new bottom B and over a new top T: a
    bounded poset, and a lattice about nine times in ten."""
    names, pairs = draw(generated_orders())
    n = len(names)
    bounds = [(n, i) for i in range(n)] + [(i, n + 1) for i in range(n)] + [(n, n + 1)]
    return names + ("B", "T"), pairs + bounds


@settings(max_examples=300, deadline=None)
@given(raw_orders())
@example((NAMES[:3], [0b111, 0b011, 0b110]))  # transitivity fails
@example((NAMES[:2], [0b11, 0b11]))  # antisymmetry fails
@example((NAMES[:2], [0b01, 0b110]))  # points outside the list
# The next two reach the generator pass's two transitivity refusals, an
# element visited before something below it and a generator outside the
# AND of the generators below it; the raw strategy rarely draws either.
# The pass's other checks refuse both inputs too, so these pin agreement
# with the oracle here and do not catch the loss of one check alone.
@example((NAMES[:4], [0b1001, 0b1111, 0b0101, 0b1000]))  # visited too early
@example((NAMES[:4], [0b1111, 0b0110, 0b1100, 0b1000]))  # generator escapes
def test_validation_agrees_with_the_axiom_oracle_on_raw_relations(order):
    names, up = order
    _agrees_with_the_axiom_oracle(names, up, lambda: FlatLattice(names, tuple(up)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(generated_orders(), bounded_orders()))
@example((NAMES[:5], [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]))  # pentagon
@example((NAMES[:5], [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]))  # diamond
@example((NAMES[:4], [(0, 2), (0, 3), (1, 2), (1, 3)]))  # no meet, no join
@example((NAMES[:3], [(0, 1), (0, 2)]))  # no join
@example((NAMES[:3], [(0, 2), (1, 2)]))  # no meet, so no bottom
def test_validation_agrees_with_the_axiom_oracle_after_closure(order):
    names, pairs = order
    up = order_closure(len(names), pairs)
    named = [(names[a], names[b]) for a, b in pairs]
    _agrees_with_the_axiom_oracle(
        names, up, lambda: FlatLattice.from_order(names, named)
    )


def direct(lat):
    """The same lattice built by its constructor, through the generator pass."""
    return FlatLattice(lat.names, lat.up, lat.flat_masks, lat.ground)


def test_upper_covers_agree_with_the_up_set_walk(catalog_lattices, pool_lattices):
    """Covers equal the up-set walk's on the catalog, the pool and matroids
    of the benchmark ladder's kind, read off the matroid's cover walk
    (`from_matroid`) and off the up-sets when each ladder lattice is built
    directly; and on the named and 400 seeded random lattices, which are
    not all geometric, where the covers also match their definition.  On
    all of them the bottom is the element whose up-set is full and the top
    the one whose up-set is itself."""
    ladder = [FlatLattice.from_matroid(m) for m in ladder_sized()]
    built = [*ladder, *map(direct, ladder)]
    small = [pentagon(), diamond(), hexagon(), three_chain(), two_chain(),
             *random_lattices(random.Random(20261018), 400)]
    for lat in [*catalog_lattices.values(), *pool_lattices, *built, *small]:
        assert lat.upper_covers == upper_covers_by_upsets(lat.up)
        full = (1 << lat.size) - 1
        assert [i for i, mask in enumerate(lat.up) if mask == full] == [lat.bottom_index]
        assert [i for i, mask in enumerate(lat.up) if mask == 1 << i] == [lat.top_index]
    for lat in small:
        assert list(map(list, lat.upper_covers)) == order_covers(lat.up)
    assert max(lat.size for lat in ladder) == 177  # U(4,10)
    assert {lat.is_geometric for lat in small} == {True, False}


def test_from_matroid_agrees_with_direct_construction(pool):
    """A lattice of flats read off the cover walk equals the one the
    generator pass validates, on the catalog, the pool, the ladder and the
    empty ground set; on the pool every meet and join agrees too."""
    empty = Matroid(GroundSet(()), frozenset({0}))
    small = {id(m) for m in pool}
    matroids = [*(e.matroid for e in CATALOG.values()), *pool, *ladder_sized(), empty]
    for m in matroids:
        walked = FlatLattice.from_matroid(m)
        passed = direct(walked)
        assert walked == passed
        for attr in ("up", "upper_covers", "bottom", "top", "heights", "atoms", "down",
                     "is_geometric"):
            assert getattr(walked, attr) == getattr(passed, attr), attr
        if id(m) in small:
            for a in walked.names:
                for b in walked.names:
                    assert walked.meet(a, b) == passed.meet(a, b)
                    assert walked.join(a, b) == passed.join(a, b)
    assert walked.size == 1 and walked.heights == (0,)


def test_from_matroid_runs_no_generator_pass(monkeypatch):
    """A work gate: calls counted, not timed.  On each ladder rung
    `from_matroid` runs neither the generator pass nor the pairwise scan,
    and its meets, joins and `is_geometric` run neither afterwards, while
    direct construction and `from_order` run the pass once each."""
    calls = []
    generator_pass = lattice_module._generator_pass

    def counted(up):
        calls.append(len(up))
        return generator_pass(up)

    def refuse(names, up):
        raise AssertionError("the pairwise scan ran")

    monkeypatch.setattr(lattice_module, "_generator_pass", counted)
    monkeypatch.setattr(lattice_module, "_axiom_scan", refuse)
    for m in ladder_sized():
        lat = FlatLattice.from_matroid(m)
        assert lat.is_geometric
        assert lat.meet(lat.top, lat.bottom) == lat.bottom
        assert lat.join(lat.top, lat.bottom) == lat.top
        assert calls == []
        direct(lat)
        assert calls == [lat.size]
        calls.clear()
    pentagon()
    assert calls == [5]


def test_a_direct_lattice_reads_its_order_on_first_use(u34):
    """The constructor keeps what it is given and the pass's verdict only:
    the covers, the down-sets and the join map each enter `__dict__` when
    first read.  `from_matroid` seeds the covers from the cover walk."""
    walked = FlatLattice.from_matroid(u34)
    assert walked.__dict__["upper_covers"] is u34.flat_covers
    for lat in (pentagon(), direct(walked)):
        for name in ("upper_covers", "down", "_up_index"):
            assert name not in lat.__dict__, name
            getattr(lat, name)
            assert name in lat.__dict__, name
    assert lat.upper_covers == walked.upper_covers


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    raw_orders(),
    st.one_of(generated_orders(), bounded_orders()).map(
        lambda order: (order[0], order_closure(len(order[0]), order[1]))
    ),
))
def test_upper_covers_agree_with_the_up_set_walk_on_random_orders(order):
    names, up = order
    try:
        lat = FlatLattice(names, tuple(up))
    except BoolrepError:
        return
    assert lat.upper_covers == upper_covers_by_upsets(lat.up)
    assert lat.up[lat.bottom_index] == (1 << lat.size) - 1
    assert lat.up[lat.top_index] == 1 << lat.top_index


@settings(max_examples=300, deadline=None)
@given(st.one_of(generated_orders(), bounded_orders()))
@example((NAMES[:5], [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]))  # pentagon: chains of two lengths
@example((NAMES[:1], []))  # one element: its one chain is the bottom
def test_chain_fold_agrees_with_the_order_oracle_on_random_lattices(order):
    """The walk folds each chain's cover edges in order from the bottom,
    on lattices whose maximal chains differ in length too."""
    names, pairs = order
    try:
        lat = FlatLattice.from_order(names, [(names[a], names[b]) for a, b in pairs])
    except BoolrepError:
        return
    chains = maximal_chains_by_order(lat)
    edges = list(partitions._fold_chains(lat, (), lambda path, i, j: path + ((i, j),), 10**6))
    assert [tuple(lat.names[j] for _, j in e) for e in edges] == [c[1:] for c in chains]
    assert all(e[0][0] == lat.bottom_index for e in edges if e)
    assert all(a[1] == b[0] for e in edges for a, b in zip(e, e[1:]))
    assert list(maximal_chains(lat)) == chains


def test_from_matroid_never_runs_the_pairwise_scan(pool, monkeypatch):
    """The pairwise scan, which only words a refusal, never runs on a
    lattice of flats: `from_matroid` validates nothing, and the generator
    pass accepts the same lattice on its own when it is built directly."""

    def refuse(names, up):
        raise AssertionError("the pairwise scan ran")

    monkeypatch.setattr(lattice_module, "_axiom_scan", refuse)
    for m in pool:
        direct(FlatLattice.from_matroid(m))
    with pytest.raises(AssertionError, match="pairwise scan"):
        FlatLattice.from_order(("a", "b"), [])  # no bottom: the pass refuses


def test_a_refusal_the_scan_does_not_word_is_an_internal_error(monkeypatch):
    """Were the pass to refuse an order the scan accepts, construction
    raises RuntimeError, never a lattice."""
    monkeypatch.setattr(lattice_module, "_axiom_scan", lambda names, up: None)
    with pytest.raises(RuntimeError, match="generator pass"):
        FlatLattice.from_order(("a", "b"), [])


def test_flat_lattice_agrees_with_the_flats_on_the_pool(pool):
    for m in pool:
        lat = FlatLattice.from_matroid(m)
        assert lattice_axiom_failure(lat.names, lat.up) is None
        flats = lat.flat_masks
        where = {flat: i for i, flat in enumerate(flats)}
        n = m.ground.size
        circuits = circuits_scan(m.bases, n)
        for i, a in enumerate(flats):
            assert lat.up[i] == sum(1 << j for j, b in enumerate(flats) if a & ~b == 0)
            for j, b in enumerate(flats):
                meet = lat.meet(lat.names[i], lat.names[j])
                join = lat.join(lat.names[i], lat.names[j])
                assert meet == lat.names[where[a & b]]
                assert join == lat.names[where[closure_by_circuits(circuits, n, a | b)]]
        assert lat.representation == lat.structure_matrix.complement()
        atom_rows = tuple(lat.atom_of(x) for x in m.ground.labels)
        by_atoms = (
            lat.representation.submatrix(rows=atom_rows)
            .transpose()
            .relabeled(col_labels=m.ground.labels)
        )
        assert extract_representation(m).matrix == by_atoms


def test_down_sets_read_the_order_the_other_way(catalog_lattices, pool_lattices):
    for lat in [pentagon(), *catalog_lattices.values(), *pool_lattices]:
        n = lat.size
        assert lat.down == tuple(
            sum(1 << i for i in range(n) if lat.up[i] >> j & 1) for j in range(n)
        )


def test_leq_and_index(catalog_lattices):
    lat = catalog_lattices["u34"]
    assert lat.leq("{1}", "{1,2}")
    assert not lat.leq("{1,2}", "{1}")
    assert lat.leq("{2}", "{2}")
    with pytest.raises(UnknownLabel):
        lat.index("{9}")


# -- order structure ------------------------------------------------------------------


def test_meet_is_intersection_and_join_is_closure_of_union(catalog_lattices):
    for name, lat in catalog_lattices.items():
        matroid = {"u34": uniform(3, 4)}.get(name)
        for i, a in enumerate(lat.names):
            for b in lat.names[i:]:
                ma = lat.flat_masks[lat.index(a)]
                mb = lat.flat_masks[lat.index(b)]
                met = lat.flat_masks[lat.index(lat.meet(a, b))]
                assert met == ma & mb
                joined = lat.flat_masks[lat.index(lat.join(a, b))]
                assert joined & (ma | mb) == (ma | mb)
                assert lat.leq(lat.meet(a, b), a)
                assert lat.leq(a, lat.join(a, b))


def test_lattice_absorption_laws(catalog_lattices):
    lat = catalog_lattices["u34"]
    for a in lat.names:
        for b in lat.names:
            assert lat.meet(a, lat.join(a, b)) == a
            assert lat.join(a, lat.meet(a, b)) == a


def test_uniform_chain_lengths_between_comparable_pairs(catalog_lattices):
    for lat in catalog_lattices.values():
        for a in lat.names:
            for b in lat.names:
                if lat.leq(a, b):
                    lengths = interval_chain_lengths(lat, a, b)
                    assert len(lengths) == 1


def test_semimodular_inequality(catalog_lattices):
    for lat in catalog_lattices.values():
        h = {x: lat.element_height(x) for x in lat.names}
        for a in lat.names:
            for b in lat.names:
                assert h[a] + h[b] >= h[lat.join(a, b)] + h[lat.meet(a, b)]


def test_every_element_is_a_join_of_atoms(catalog_lattices):
    for lat in catalog_lattices.values():
        for x in lat.names:
            below = [a for a in lat.atoms if lat.leq(a, x)]
            joined = lat.bottom
            for a in below:
                joined = lat.join(joined, a)
            assert joined == x


def test_is_geometric(catalog_lattices):
    for lat in catalog_lattices.values():
        assert lat.is_geometric
    assert FlatLattice.from_matroid(uniform(2, 2)).is_geometric
    assert not pentagon().is_geometric


def random_lattices(rng, count):
    """Seeded lattices from `from_order` on up to 8 elements: a bottom, a
    top, and random pairs among the rest in index order; orders lacking a
    meet or a join are skipped."""
    names = tuple("abcdefgh")
    out = []
    while len(out) < count:
        n = rng.randint(1, 8)
        pairs = [(0, i) for i in range(1, n)] + [(i, n - 1) for i in range(n - 1)]
        p = rng.random()
        pairs += [
            (a, b)
            for a in range(1, n - 1)
            for b in range(a + 1, n - 1)
            if rng.random() < p
        ]
        try:
            out.append(
                FlatLattice.from_order(names[:n], [(names[a], names[b]) for a, b in pairs])
            )
        except BoolrepError:
            pass
    return out


def diamond():
    """M3: three atoms under one top, the smallest geometric lattice that
    is not distributive."""
    return FlatLattice.from_order(
        ("B", "x", "y", "z", "T"),
        [("B", "x"), ("B", "y"), ("B", "z"), ("x", "T"), ("y", "T"), ("z", "T")],
    )


def hexagon():
    """Two three-step sides: graded, but two atoms join at height 3."""
    return FlatLattice.from_order(
        ("B", "a1", "a2", "b1", "b2", "T"),
        [("B", "a1"), ("a1", "a2"), ("a2", "T"), ("B", "b1"), ("b1", "b2"), ("b2", "T")],
    )


def three_chain():
    """Graded and semimodular, but its top is no join of atoms."""
    return FlatLattice.from_order(("B", "m", "T"), [("B", "m"), ("m", "T")])


def test_heights_and_is_geometric_agree_with_the_oracle(catalog_lattices, pool_lattices):
    named = [pentagon(), diamond(), hexagon(), three_chain(), two_chain()]
    lattices = (
        named
        + list(catalog_lattices.values())
        + pool_lattices
        + random_lattices(random.Random(20261018), 400)
    )
    verdicts = []
    for lat in lattices:
        heights, geometric = geometric_lattice_oracle(lat.up)
        assert lat.heights == heights
        assert lat.is_geometric == geometric
        verdicts.append(geometric)
    assert verdicts[:5] == [False, True, False, False, True]
    assert all(verdicts[5:5 + len(catalog_lattices) + len(pool_lattices)])
    assert set(verdicts[-400:]) == {True, False}


def test_pentagon_shape():
    p = pentagon()
    assert p.size == 5
    assert p.height == 3
    assert repr(p) == "<FlatLattice of 5 elements, height 3>"
    assert repr(p.representation) == "<BoolMatrix 5x5>"
    assert p.element_height("c") == 1
    assert p.element_height("b") == 2
    assert sorted(interval_chain_lengths(p, "B", "T")) == [2, 3]


# -- matrices ---------------------------------------------------------------------------


def test_structure_matrix_two_chain():
    lat = two_chain()
    s = lat.structure_matrix
    assert s.entries == ((ONE, ONE), (ZERO, ONE))
    assert lat.representation.entries == ((ZERO, ZERO), (ONE, ZERO))


def test_structure_matrix_shape_and_diagonal(catalog_lattices):
    lat = catalog_lattices["u34"]
    s = lat.structure_matrix
    assert s.shape == (12, 12)
    assert s.row_labels == lat.names
    bottom = lat.index(lat.bottom)
    for j in range(12):
        assert s.entries[j][j] is ONE
        assert s.entries[bottom][j] is ONE
    for i in range(12):
        for j in range(i + 1, 12):
            assert (s.entries[i][j], s.entries[j][i]) != (ONE, ONE)


def test_structure_matrix_is_flat_containment_on_the_pool(pool_lattices):
    for lat in pool_lattices:
        flats = lat.flat_masks
        s = lat.structure_matrix
        assert s.row_labels == s.col_labels == lat.names
        assert s.entries == tuple(
            tuple(ONE if a & ~b == 0 else ZERO for b in flats) for a in flats
        )


def test_representation_is_complement(catalog_lattices):
    for lat in catalog_lattices.values():
        assert lat.representation == lat.structure_matrix.complement()
        top = lat.index(lat.top)
        assert all(row[top] is ZERO for row in lat.representation.entries)


def test_representation_spot_row(catalog_lattices):
    row = catalog_lattices["fivept"].representation.submatrix(rows=("{1}",))
    tokens = tuple(v.token for v in row.entries[0])
    assert tokens == ("1", "0", "1", "1", "1", "1", "0", "0", "1", "1", "0", "1", "0")


# -- rank and witnesses --------------------------------------------------------------------


def test_full_rank_equals_height(catalog_lattices):
    for lat in catalog_lattices.values():
        assert lat.representation_rank() == lat.height
        assert lat.representation.rank() == lat.height


def lattice_of(order):
    """The lattice an order closes to, or None when it is none."""
    names, pairs = order
    try:
        return FlatLattice.from_order(names, [(names[a], names[b]) for a, b in pairs])
    except BoolrepError:
        return None


def fresh_transpose(lat):
    """The representation's transpose, built from its cells, column by
    column, with nothing read from the matrix's cached masks."""
    grid = lat.representation.entries
    return SbMatrix.of([[row[j] for row in grid] for j in range(lat.size)], lat.names, lat.names)


def check_rank_and_witnesses(lat, element_sets):
    """Full rank is the search's rank and the height; each witness is the
    peel on a fresh transpose, and valid."""
    assert lat.representation_rank() == lat.representation.rank() == lat.height
    transposed = fresh_transpose(lat)
    for elements in element_sets:
        witness = lat.witness_for(elements)
        cols = transposed.witness(elements)
        if cols is None:
            assert witness is None
        else:
            assert witness == LatticeWitness(tuple(elements), cols)
            assert lat.is_valid_witness(witness)


def small_sets(names, most=3):
    return [c for k in range(most + 1) for c in combinations(names, k)]


@settings(max_examples=200, deadline=None)
@given(bounded_orders())
@example((NAMES[:5], [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]))  # pentagon
@example((NAMES[:6], [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)]))  # hexagon
def test_rank_is_height_and_witnesses_are_the_peel_on_random_orders(order):
    lat = lattice_of(order)
    if lat is not None:
        check_rank_and_witnesses(lat, small_sets(lat.names))


def test_rank_is_height_and_witnesses_are_the_peel_on_the_pool(catalog_lattices, pool_lattices):
    for lat in list(catalog_lattices.values()) + pool_lattices:
        check_rank_and_witnesses(lat, small_sets(lat.atoms))


def test_witness_for_reads_the_rows_without_transposing_back(catalog_lattices, monkeypatch):
    """The transpose's column masks are the representation's own rows, so
    a witness query after the first transposes nothing."""
    lat = catalog_lattices["fivept"]
    lat.witness_for(lat.atoms[:2])
    calls = []
    real = sbool.transpose
    monkeypatch.setattr(sbool, "transpose", lambda *args: calls.append(args) or real(*args))
    assert lat.witness_for(lat.atoms[:2]) is not None
    assert calls == []


@pytest.mark.parametrize(
    "build, size",
    [(ag32, 52), (vamos, 79), (lambda: uniform(4, 10), 177)],
    ids=["AG(3,2)", "Vamos", "U(4,10)"],
)
def test_square_lattice_matrices_rank_as_their_matroids(build, size):
    """Lattice matrices the independent-set search took seconds to minutes
    on: their rank is the matroid rank, read from the bases."""
    m = build()
    matrix = FlatLattice.from_matroid(m).representation
    assert matrix.shape == (size, size)
    assert matrix.rank() == m.rank == 4


def test_rank_of_subsets_is_bounded(catalog_lattices):
    lat = catalog_lattices["u34"]
    for x in lat.names:
        assert lat.representation_rank((x,)) <= lat.height
    assert lat.representation_rank(()) == 0


def test_three_collinear_atoms_have_rank_two(catalog_lattices):
    assert catalog_lattices["fivept"].representation_rank(("{1}", "{2}", "{3}")) == 2


def test_strict_chains_are_independent_with_the_stated_witness(catalog_lattices):
    for name in ("u34", "fivept"):
        lat = catalog_lattices[name]
        for chain in strict_chains(lat):
            witness = lat.chain_witness(chain)
            assert witness.rows == chain
            assert witness.cols == (lat.bottom,) + chain[:-1]
            assert lat.is_valid_witness(witness)
            assert lat.representation_rank(chain) == len(chain)
            assert lat.elements_independent(chain)


def test_chain_witness_rejects_non_chains(catalog_lattices):
    lat = catalog_lattices["u34"]
    with pytest.raises(BoolrepError):
        lat.chain_witness(())
    with pytest.raises(BoolrepError):
        lat.chain_witness(("{}", "{1}"))
    with pytest.raises(BoolrepError):
        lat.chain_witness(("{1}", "{2}"))
    with pytest.raises(BoolrepError):
        lat.chain_witness(("{1,2}", "{1}"))


def test_witness_for_independent_and_dependent_sets(catalog_lattices):
    lat = catalog_lattices["k4"]
    dependent = ("{1}", "{2}", "{4}")  # the triple 124 spans a line
    assert lat.witness_for(dependent) is None
    independent = ("{1}", "{2}", "{3}")
    w = lat.witness_for(independent)
    assert w is not None
    assert lat.is_valid_witness(w)


def test_witness_for_names_a_repeated_element(catalog_lattices):
    """A witness has one row per element, so a repeat raises rather than
    being dropped by the peel."""
    lat = catalog_lattices["u34"]
    for elements in (("{1}", "{1}"), ("{2}", "{1}", "{3}", "{1}")):
        with pytest.raises(DuplicateLabels) as err:
            lat.witness_for(elements)
        assert str(err.value) == f"repeated label in set {elements!r}"


def test_every_element_query_refuses_a_repeated_element(catalog_lattices):
    """One repeat rule for element sets: independence, rank and witness
    queries all raise the same DuplicateLabels, rather than dropping the
    repeat or naming the matrix's row labels."""
    for lat, element in ((pentagon(), "a"), (catalog_lattices["fivept"], "{1}")):
        other = lat.atoms[-1]
        for elements in ((element, element), (other, element, element), [element, other, element]):
            for query in (lat.elements_independent, lat.representation_rank, lat.witness_for):
                with pytest.raises(DuplicateLabels) as err:
                    query(elements)
                assert str(err.value) == f"repeated label in set {tuple(elements)!r}"
        assert lat.elements_independent((element,)) and lat.representation_rank([element]) == 1


def test_element_queries_take_names_not_matrix_indices(catalog_lattices):
    """Every element query resolves names through `index` after the repeat
    check: an int, which the matrix would read as a row index, and an
    unknown name raise UnknownLabel naming the element; a repeat raises
    DuplicateLabels."""
    for lat in (pentagon(), catalog_lattices["u34"]):
        first = lat.names[1]
        queries = (
            lat.representation_rank,
            lat.elements_independent,
            lat.witness_for,
            lambda xs: lat.is_valid_witness(LatticeWitness(tuple(xs), (lat.bottom,) * len(xs))),
            lambda xs: lat.is_valid_witness(LatticeWitness(lat.names[-len(xs):], tuple(xs))),
            lambda xs: lat.witness_to_chain(LatticeWitness(tuple(xs), (lat.bottom,) * len(xs))),
        )
        for query in queries:
            for elements, unknown in (([1, first], 1), ([0], 0), (["zz"], "zz"), ([first, 2], 2)):
                with pytest.raises(UnknownLabel) as err:
                    query(elements)
                assert str(err.value) == f"no lattice element named {unknown!r}"
            with pytest.raises(DuplicateLabels) as err:
                query([first, first])
            assert str(err.value) == f"repeated label in set {(first, first)!r}"


@pytest.mark.parametrize("wrap", [lambda x: [x], lambda x: {x: 1}], ids=["list", "dict"])
def test_unhashable_labels_raise_unknown_label(catalog_lattices, wrap):
    """A list or dict where a label belongs is an unknown label, at every
    label lookup and at the witness builders' repeat check, never a bare
    TypeError."""
    lat = catalog_lattices["u34"]
    ground = lat.ground
    matroid = uniform(3, 4)
    part = partition_of_chain(lat, ("{}", "{1}", "{1,2}", "{1,2,3,4}"))
    label, element = wrap("1"), wrap("{1}")
    calls = [
        lambda: ground.index(label),
        lambda: ground.mask_of([label]),
        lambda: ground.mask_of(["1", label]),
        lambda: matroid.is_independent([label]),
        lambda: lat.index(element),
        lambda: lat.leq(element, "{1}"),
        lambda: lat.meet("{1}", element),
        lambda: lat.join(element, "{1}"),
        lambda: lat.element_height(element),
        lambda: lat.chain_witness([element]),
        lambda: lat.witness_for([element]),
        lambda: lat.witness_for(["{1}", element]),
        lambda: transversal_witness(lat, part, [label]),
    ]
    for call in calls:
        with pytest.raises(UnknownLabel):
            call()


def test_witness_length_mismatch_rejected():
    with pytest.raises(InvalidWitness):
        LatticeWitness(("a", "b"), ("c",))


def test_witness_to_chain_round_trip(catalog_lattices):
    for name in ("u34", "fivept", "k4"):
        lat = catalog_lattices[name]
        for chain in strict_chains(lat):
            recovered = lat.witness_to_chain(lat.chain_witness(chain))
            assert len(recovered) == len(chain)
            for a, b in zip(recovered, recovered[1:]):
                assert a != b and lat.leq(a, b)


def test_witness_to_chain_two_chain_case():
    lat = two_chain()
    chain = lat.witness_to_chain(LatticeWitness(("T",), ("B",)))
    assert chain == ("B",)
    assert not lat.leq("T", "B")


def test_witness_to_chain_rejects_singular_witness(catalog_lattices):
    lat = catalog_lattices["u34"]
    with pytest.raises(InvalidWitness):
        lat.witness_to_chain(LatticeWitness(("{1}", "{2}"), ("{}", "{3,4}")))


def test_any_valid_witness_yields_a_full_length_chain(catalog_lattices):
    lat = catalog_lattices["w3"]
    triple = ("{1}", "{2}", "{3}")
    w = lat.witness_for(triple)
    assert w is not None
    chain = lat.witness_to_chain(w)
    assert len(chain) == 3


def test_witness_submatrix_agrees_with_permanent_oracle(catalog_lattices):
    lat = catalog_lattices["fivept"]
    for chain in strict_chains(lat):
        w = lat.chain_witness(chain)
        sub = lat.representation.submatrix(rows=w.rows, cols=w.cols)
        assert permanent_perms(grid_of(sub)) == 1


# -- export -----------------------------------------------------------------------------------


def test_to_dot_two_chain_exact():
    assert two_chain().to_dot() == (
        'digraph flats {\n  rankdir=BT;\n  "B";\n  "T";\n  "B" -> "T";\n}\n'
    )


def test_to_dot_lists_every_cover_once(catalog_lattices):
    lat = catalog_lattices["u34"]
    dot = lat.to_dot()
    assert dot.count("->") == sum(len(c) for c in lat.upper_covers)
    assert '"{}" -> "{1}";' in dot
    assert '"{1,2}" -> "{1,2,3,4}";' in dot


def test_to_dot_escapes_quotes_and_backslashes():
    text = json.dumps({"ground": ['a"b', "c\\d"], "bases": [['a"b', "c\\d"]]})
    dot = FlatLattice.from_matroid(matroid_from_json(text)).to_dot()
    assert '  "{a\\"b}";\n' in dot
    assert '  "{c\\\\d}";\n' in dot
    assert '  "{a\\"b}" -> "{a\\"b,c\\\\d}";\n' in dot
    # every quoted ID is a DOT string: read back, it gives the flat name
    ids = re.findall(r'"((?:[^"\\]|\\.)*)"', dot)
    names = {re.sub(r"\\(.)", r"\1", x) for x in ids}
    assert names == {"{}", '{a"b}', "{c\\d}", '{a"b,c\\d}'}

