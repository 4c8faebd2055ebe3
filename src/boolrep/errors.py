"""Exceptions shared across the library."""

__all__ = [
    "BoolrepError",
    "NonSquareError",
    "UnknownLabel",
    "DuplicateLabels",
    "MatrixParseError",
    "MatroidParseError",
    "EmptyFamily",
    "NotDownwardClosed",
    "UnequalBasisSizes",
    "ExchangeFails",
    "AllLoops",
    "AmbiguousLabel",
    "NotSimple",
    "GroundTooLarge",
    "ChainLimitExceeded",
    "InvalidWitness",
    "LabelMismatch",
    "ReductionError",
]


class BoolrepError(Exception):
    """Base class for all library errors."""


class NonSquareError(BoolrepError):
    """Operation defined only for square matrices."""


class UnknownLabel(BoolrepError):
    """A row, column or ground-set label is not present."""


class DuplicateLabels(BoolrepError):
    """Labels within one axis or ground set must be unique."""


class MatrixParseError(BoolrepError):
    """Malformed matrix text."""


class MatroidParseError(BoolrepError):
    """Malformed matroid JSON."""


class EmptyFamily(BoolrepError):
    """A hereditary collection must contain at least one subset."""


class NotDownwardClosed(BoolrepError):
    """Downward closure fails; carries a (subset, superset) counterexample."""

    def __init__(self, subset, superset):
        self.subset = tuple(subset)
        self.superset = tuple(superset)
        super().__init__(
            f"family contains {self.superset} but not its subset {self.subset}"
        )


class UnequalBasisSizes(BoolrepError):
    """All bases of a matroid must have the same cardinality."""


class ExchangeFails(BoolrepError):
    """Basis exchange fails; carries the counterexample: no element of
    basis2 - basis1 replaces `element` in basis1."""

    def __init__(self, basis1, basis2, element):
        self.basis1 = tuple(basis1)
        self.basis2 = tuple(basis2)
        self.element = element
        super().__init__(
            f"no exchange for {element!r} from {self.basis1} into {self.basis2}"
        )


class AllLoops(BoolrepError):
    """Simplification removed every element."""


class NotSimple(BoolrepError):
    """Operation requires a matroid without loops or parallel elements."""


class GroundTooLarge(BoolrepError):
    """An exhaustive search cap was exceeded."""


class ChainLimitExceeded(BoolrepError):
    """Maximal-chain enumeration hit its configured cap."""


class InvalidWitness(BoolrepError):
    """The designated submatrix is not nonsingular."""


class AmbiguousLabel(BoolrepError):
    """A ground label that could make two flat names equal.

    Flat names join labels with commas inside braces, so a label may be
    neither empty nor contain a comma.
    """


class LabelMismatch(BoolrepError):
    """Matrix column labels do not match the matroid ground set."""


class ReductionError(BoolrepError):
    """A reduced representation failed its basis and circuit certificate check."""
