"""Maximal chains, the induced set partitions, and transversal independence."""

import pytest

from boolrep import (
    BoolrepError,
    ChainLimitExceeded,
    ChainPartition,
    DuplicateLabels,
    FlatLattice,
    GroundSet,
    exists_transversal_partition,
    maximal_chains,
    partition_of_chain,
    transversal_bases,
    transversal_witness,
    is_partial_transversal,
)

from boolrep.partitions import chain_indices
from oracles import count_maximal_chains, maximal_chains_by_order


# -- chain enumeration ---------------------------------------------------------


def test_u34_has_twelve_maximal_chains(catalog_lattices):
    chains = list(maximal_chains(catalog_lattices["u34"]))
    assert len(chains) == 12
    assert chains[0] == ("{}", "{1}", "{1,2}", "{1,2,3,4}")
    assert len(set(chains)) == 12


def test_chain_counts_match_path_counting_oracle(catalog_lattices):
    for name, lat in catalog_lattices.items():
        assert len(list(maximal_chains(lat))) == count_maximal_chains(lat)


def test_chains_match_the_order_oracle(pool_lattices):
    for lat in pool_lattices:
        assert list(maximal_chains(lat)) == maximal_chains_by_order(lat)


def test_chain_indices_name_the_same_chains(pool_lattices):
    for lat in pool_lattices:
        named = [tuple(lat.names[i] for i in c) for c in chain_indices(lat)]
        assert named == list(maximal_chains(lat))


def test_one_element_lattice_has_one_chain():
    lat = FlatLattice.from_order(("B",), [])
    assert list(maximal_chains(lat)) == [("B",)]
    with pytest.raises(ChainLimitExceeded):
        list(maximal_chains(lat, limit=0))


def test_chains_are_sorted_and_saturated(catalog_lattices):
    lat = catalog_lattices["fivept"]
    chains = list(maximal_chains(lat))
    as_indices = [tuple(lat.index(x) for x in chain) for chain in chains]
    assert as_indices == sorted(as_indices)
    for chain in chains:
        assert chain[0] == lat.bottom
        assert chain[-1] == lat.top
        assert len(chain) == lat.height + 1
        for a, b in zip(chain, chain[1:]):
            assert lat.index(b) in lat.upper_covers[lat.index(a)]


def test_two_chain_lattice_has_one_chain():
    lat = FlatLattice.from_order(("B", "T"), [("B", "T")])
    assert list(maximal_chains(lat)) == [("B", "T")]


def test_chain_limit_is_inclusive(catalog_lattices):
    lat = catalog_lattices["u34"]
    assert len(list(maximal_chains(lat, limit=12))) == 12
    with pytest.raises(ChainLimitExceeded):
        list(maximal_chains(lat, limit=11))


def test_chain_limit_message_names_the_cap(catalog_lattices):
    with pytest.raises(ChainLimitExceeded) as err:
        list(maximal_chains(catalog_lattices["k4"], limit=3))
    assert "3" in str(err.value)


def test_negative_chain_limit_is_a_bad_argument(catalog_lattices):
    lat = catalog_lattices["u34"]
    for call in (
        lambda: maximal_chains(lat, limit=-5),
        lambda: exists_transversal_partition(lat, ("1", "2"), limit=-1),
    ):
        with pytest.raises(BoolrepError) as err:
            call()
        assert not isinstance(err.value, ChainLimitExceeded)
        assert "nonnegative" in str(err.value)
    # zero still means no chain is allowed
    with pytest.raises(ChainLimitExceeded):
        list(maximal_chains(lat, limit=0))


# -- partitions ------------------------------------------------------------------


def test_partition_of_chain_examples(catalog_lattices):
    u34 = catalog_lattices["u34"]
    part = partition_of_chain(u34, ("{}", "{1}", "{1,2}", "{1,2,3,4}"))
    assert part.blocks == (("1",), ("2",), ("3", "4"))
    part = partition_of_chain(u34, ("{}", "{4}", "{3,4}", "{1,2,3,4}"))
    assert part.blocks == (("4",), ("3",), ("1", "2"))
    fv = catalog_lattices["fivept"]
    part = partition_of_chain(fv, ("{}", "{1}", "{1,2,3}", "{1,2,3,4,5}"))
    assert part.blocks == (("1",), ("2", "3"), ("4", "5"))


def test_partition_blocks_cover_the_ground(catalog_lattices):
    for lat in catalog_lattices.values():
        for chain in maximal_chains(lat):
            part = partition_of_chain(lat, chain)
            seen = [x for block in part.blocks for x in block]
            assert sorted(seen) == sorted(lat.ground.labels)
            assert len(seen) == len(set(seen))
            assert part.block_count == lat.height


def test_blocks_follow_the_chain_differences(pool_lattices):
    for lat in pool_lattices:
        for chain in maximal_chains(lat):
            part = partition_of_chain(lat, chain)
            assert part.chain == chain
            assert part.chain_flats == tuple(
                lat.ground.labels_of(lat.flat_masks[lat.index(x)]) for x in chain
            )
            for i, block in enumerate(part.blocks):
                lower = lat.flat_masks[lat.index(chain[i])]
                upper = lat.flat_masks[lat.index(chain[i + 1])]
                assert lat.ground.mask_of(block) == upper & ~lower
                assert block == lat.ground.labels_of(upper & ~lower)
            # the partition passes the check a hand-built one gets
            assert ChainPartition(lat.ground, chain, part.blocks) == part


def test_cover_blocks_refuse_flats_that_break_the_partition_proof():
    ground = GroundSet.of(("1",))
    three = (0b111, 0b110, 0b100)  # B < M < T
    for masks in ((1, 1, 1), (0, 0, 0), (0, 1, 1), (0, 0, 1)):
        lat = FlatLattice(("B", "M", "T"), three, masks, ground)
        with pytest.raises(BoolrepError):
            partition_of_chain(lat, ("B", "M", "T"))
        with pytest.raises(BoolrepError):
            exists_transversal_partition(lat, ())
    # strictly nested, but the bottom is not empty or the top is not the ground
    for masks in ((0b001, 0b011, 0b111), (0b000, 0b001, 0b011)):
        lat = FlatLattice(("B", "M", "T"), three, masks, GroundSet.of(("1", "2", "3")))
        with pytest.raises(BoolrepError):
            partition_of_chain(lat, ("B", "M", "T"))


def test_every_returned_partition_is_checked_once(catalog_lattices, monkeypatch):
    """Partitions the library returns go through the one checked
    constructor, exactly once each."""
    checked = []
    check = ChainPartition.__post_init__

    def counted(self):
        checked.append(self)
        check(self)

    monkeypatch.setattr(ChainPartition, "__post_init__", counted)
    for lat in catalog_lattices.values():
        for chain in maximal_chains(lat):
            checked.clear()
            part = partition_of_chain(lat, chain)
            assert len(checked) == 1 and checked[0] is part
    checked.clear()
    found = exists_transversal_partition(catalog_lattices["fivept"], ("1", "2", "4"))
    assert found is not None
    assert len(checked) == 1 and checked[0] is found


def test_partitions_need_flats():
    lat = FlatLattice.from_order(("B", "T"), [("B", "T")])
    for call in (
        lambda: partition_of_chain(lat, ("B", "T")),
        lambda: exists_transversal_partition(lat, ()),
    ):
        with pytest.raises(BoolrepError) as err:
            call()
        assert str(err.value) == "partitions need a lattice built from a matroid"


def test_partitions_keyed_by_chain_are_not_deduplicated(catalog_lattices):
    lat = catalog_lattices["u34"]
    parts = [partition_of_chain(lat, c) for c in maximal_chains(lat)]
    assert len(parts) == 12
    assert len({p.blocks for p in parts}) == 12


def test_partition_of_chain_rejects_bad_chains(catalog_lattices):
    lat = catalog_lattices["u34"]
    with pytest.raises(BoolrepError):
        partition_of_chain(lat, ("{}", "{1,2}", "{1,2,3,4}"))  # not maximal
    with pytest.raises(BoolrepError):
        partition_of_chain(lat, ("{1}", "{1,2}", "{1,2,3,4}"))


def test_chain_partition_validates_block_shape():
    ground = GroundSet.of(("1", "2"))
    with pytest.raises(BoolrepError):
        ChainPartition(
            ground=ground,
            chain=("{}", "{1}", "E"),
            blocks=(("1",), ("1", "2")),
        )
    with pytest.raises(BoolrepError):
        ChainPartition(
            ground=ground,
            chain=("{}", "{1}", "E"),
            blocks=(("1",),),
        )


def test_block_index_of(catalog_lattices):
    lat = catalog_lattices["fivept"]
    part = partition_of_chain(lat, ("{}", "{1}", "{1,2,3}", "{1,2,3,4,5}"))
    assert part.block_index_of("1") == 0
    assert part.block_index_of("3") == 1
    assert part.block_index_of("5") == 2
    with pytest.raises(BoolrepError):
        part.block_index_of("9")


def test_to_json_dict_shape(catalog_lattices):
    lat = catalog_lattices["u34"]
    part = partition_of_chain(lat, ("{}", "{1}", "{1,2}", "{1,2,3,4}"))
    assert part.to_json_dict() == {
        "chain": [[], ["1"], ["1", "2"], ["1", "2", "3", "4"]],
        "blocks": [["1"], ["2"], ["3", "4"]],
    }


def test_hand_built_chain_flats_are_the_running_union_of_the_blocks():
    part = ChainPartition(GroundSet.of("12"), ("{}", "{1}", "E"), (("1",), ("2",)))
    assert part.to_json_dict()["chain"] == [[], ["1"], ["1", "2"]]
    # flats come out in ground order whatever the order within a block
    part = ChainPartition(GroundSet.of("123"), ("B", "T"), (("3", "1", "2"),))
    assert part.chain_flats == ((), ("1", "2", "3"))


# -- transversals ------------------------------------------------------------------


def test_is_partial_transversal_basics(catalog_lattices):
    lat = catalog_lattices["u34"]
    part = partition_of_chain(lat, ("{}", "{1}", "{1,2}", "{1,2,3,4}"))
    assert is_partial_transversal(part, ())
    assert is_partial_transversal(part, ("1", "2", "3"))
    assert is_partial_transversal(part, ("3",))
    assert not is_partial_transversal(part, ("3", "4"))  # same block
    assert is_partial_transversal(part, ("1", "1"))  # labels act as a set


def test_partial_transversals_are_downward_closed(catalog_lattices):
    lat = catalog_lattices["fivept"]
    ground = lat.ground.labels
    for chain in maximal_chains(lat):
        part = partition_of_chain(lat, chain)
        for mask in range(1 << len(ground)):
            subset = tuple(
                ground[i] for i in range(len(ground)) if mask >> i & 1
            )
            ok = is_partial_transversal(part, subset)
            hits = [part.block_index_of(x) for x in subset]
            assert ok == (len(hits) == len(set(hits)))
            if ok and subset:
                assert is_partial_transversal(part, subset[1:])


def test_transversal_bases_examples(catalog_lattices):
    lat = catalog_lattices["u34"]
    part = partition_of_chain(lat, ("{}", "{1}", "{1,2}", "{1,2,3,4}"))
    assert transversal_bases(part) == (("1", "2", "3"), ("1", "2", "4"))


def test_transversal_bases_count_is_product_of_block_sizes(catalog_lattices):
    for lat in catalog_lattices.values():
        for chain in maximal_chains(lat):
            part = partition_of_chain(lat, chain)
            expected = 1
            for block in part.blocks:
                expected *= len(block)
            assert len(transversal_bases(part)) == expected


def test_exists_transversal_partition(catalog_lattices):
    u34 = catalog_lattices["u34"]
    assert exists_transversal_partition(u34, ("1", "2", "3")) is not None
    assert exists_transversal_partition(u34, ("2", "4")) is not None
    fv = catalog_lattices["fivept"]
    assert exists_transversal_partition(fv, ("1", "2", "3")) is None
    assert exists_transversal_partition(fv, ("1", "2", "4")) is not None
    assert exists_transversal_partition(fv, ()) is not None


def test_exists_transversal_matches_matroid_independence(catalog_lattices):
    from boolrep import CATALOG

    for name, lat in catalog_lattices.items():
        matroid = CATALOG[name].matroid
        ground = matroid.ground.labels
        for mask in range(1 << len(ground)):
            subset = tuple(
                ground[i] for i in range(len(ground)) if mask >> i & 1
            )
            found = exists_transversal_partition(lat, subset)
            assert (found is not None) == matroid.is_independent(subset)
            if found is not None:
                assert is_partial_transversal(found, subset)


def _first_transversal_by_partitions(lat, labels, limit):
    """The search as a loop over whole partitions: one `ChainPartition`
    and one `is_partial_transversal` per chain."""
    for chain in maximal_chains(lat, limit):
        part = partition_of_chain(lat, chain)
        if is_partial_transversal(part, labels):
            return part
    return None


def _outcome(call):
    try:
        return call()
    except ChainLimitExceeded as exc:
        return ("cap", str(exc))


def test_exists_transversal_matches_the_partition_loop(pool_lattices):
    """Same first hit, and the same cap trips, as a search that builds
    every chain's partition; labels listed twice act as a set."""
    for lat in pool_lattices:
        ground = lat.ground.labels
        chain_count = len(list(maximal_chains(lat)))
        for mask in range(1 << len(ground)):
            subset = tuple(ground[i] for i in range(len(ground)) if mask >> i & 1)
            for labels in (subset, subset + subset[:1]):
                for limit in (chain_count, chain_count // 2):
                    got = _outcome(lambda: exists_transversal_partition(lat, labels, limit))
                    want = _outcome(lambda: _first_transversal_by_partitions(lat, labels, limit))
                    assert got == want


def test_exists_transversal_propagates_chain_cap(catalog_lattices):
    fv = catalog_lattices["fivept"]
    # the first chain runs through {1,4}, so {1,2,4} is settled within one pull
    found = exists_transversal_partition(fv, ("1", "2", "4"), limit=1)
    assert found is not None and found.chain == ("{}", "{1}", "{1,4}", "{1,2,3,4,5}")
    # {1,2,3} fails on that chain, and a second pull trips the cap
    with pytest.raises(ChainLimitExceeded):
        exists_transversal_partition(fv, ("1", "2", "3"), limit=1)


def test_transversal_witness_valid(catalog_lattices):
    lat = catalog_lattices["u34"]
    part = partition_of_chain(lat, ("{}", "{1}", "{1,2}", "{1,2,3,4}"))
    w = transversal_witness(lat, part, ("1", "2", "3"))
    assert w.rows == ("{1}", "{2}", "{3}")
    assert w.cols == ("{}", "{1}", "{1,2}")
    assert lat.is_valid_witness(w)


def test_transversal_witness_rows_follow_block_order(catalog_lattices):
    lat = catalog_lattices["fivept"]
    part = partition_of_chain(lat, ("{}", "{1}", "{1,2,3}", "{1,2,3,4,5}"))
    w = transversal_witness(lat, part, ("4", "2", "1"))
    assert w.rows == ("{1}", "{2}", "{4}")
    assert lat.is_valid_witness(w)


def test_transversal_witness_validates_every_partial_transversal(catalog_lattices):
    lat = catalog_lattices["w3"]
    for chain in maximal_chains(lat):
        part = partition_of_chain(lat, chain)
        for picks in transversal_bases(part):
            assert lat.is_valid_witness(transversal_witness(lat, part, picks))


def test_transversal_witness_names_a_repeated_label(catalog_lattices):
    lat = catalog_lattices["u34"]
    part = partition_of_chain(lat, ("{}", "{1}", "{1,2}", "{1,2,3,4}"))
    assert is_partial_transversal(part, ("1", "1"))
    assert exists_transversal_partition(lat, ("1", "1")) is not None
    for labels in (("1", "1"), ("2", "1", "3", "1")):
        with pytest.raises(DuplicateLabels) as err:
            transversal_witness(lat, part, labels)
        assert "'1' twice" in str(err.value)


def test_transversal_witness_rejects_shared_blocks(catalog_lattices):
    lat = catalog_lattices["u34"]
    part = partition_of_chain(lat, ("{}", "{1}", "{1,2}", "{1,2,3,4}"))
    with pytest.raises(BoolrepError):
        transversal_witness(lat, part, ("3", "4"))
