"""The public surface, pinned: every exported name, and the constructor
fields of every exported dataclass, so that adding or dropping either is a
visible change to this file."""

import dataclasses

import boolrep

EXPORTS = (
    "SBool", "ZERO", "ONE", "GHOST", "as_sbool", "SbMatrix", "BoolMatrix",
    "GroundSet", "HereditaryCollection", "Matroid", "hereditary_from_matrix",
    "find_isomorphism", "matroid_from_json", "matroid_to_json",
    "FlatLattice", "LatticeWitness", "pentagon",
    "DEFAULT_CHAIN_LIMIT", "ChainPartition", "maximal_chains",
    "partition_of_chain", "is_partial_transversal", "transversal_bases",
    "exists_transversal_partition", "transversal_witness",
    "Representation", "VerificationReport", "TropicalMatrix",
    "extract_representation", "paper_reduce", "dedupe_reduce",
    "verified_reduce", "verify_representation", "size_bound", "tropicalize",
    "representation_to_json",
    "CATALOG", "CatalogEntry", "uniform", "example_5pt", "k4", "whirl_w3",
    "BoolrepError", "NonSquareError", "UnknownLabel", "DuplicateLabels",
    "MatrixParseError", "MatroidParseError", "EmptyFamily",
    "NotDownwardClosed", "UnequalBasisSizes", "ExchangeFails", "AllLoops",
    "AmbiguousLabel", "NotSimple", "GroundTooLarge", "ChainLimitExceeded",
    "InvalidWitness", "LabelMismatch", "ReductionError",
)

INIT_FIELDS = {
    "SbMatrix": ("nonzero", "ones", "row_labels", "col_labels"),
    "BoolMatrix": ("nonzero", "ones", "row_labels", "col_labels"),
    "GroundSet": ("labels",),
    "HereditaryCollection": ("ground", "family"),
    "Matroid": ("ground", "bases"),
    "FlatLattice": ("names", "up", "flat_masks", "ground"),
    "LatticeWitness": ("rows", "cols"),
    "ChainPartition": ("ground", "chain", "blocks"),
    "Representation": ("matrix", "reduction_mode", "matroid"),
    "VerificationReport": ("mismatches", "checked_count"),
    "TropicalMatrix": ("entries", "row_labels", "col_labels"),
    "CatalogEntry": ("name", "matroid", "flat_count", "reduced_rows"),
}


def test_exports_are_pinned():
    assert tuple(boolrep.__all__) == EXPORTS
    for name in EXPORTS:
        assert hasattr(boolrep, name)


def test_dataclass_constructor_fields_are_pinned():
    found = {}
    for name in boolrep.__all__:
        obj = getattr(boolrep, name)
        if isinstance(obj, type) and dataclasses.is_dataclass(obj):
            found[name] = tuple(f.name for f in dataclasses.fields(obj) if f.init)
    assert found == INIT_FIELDS
