"""Exact boolean and superboolean matrix algebra for matroids.

Every finite matroid has a boolean matrix representation built from its
lattice of flats; this package constructs it, reduces it, and verifies it
against brute-force oracles at desk scale.

Each module's `__all__` declares what the package exports from it, and
the package's `__all__` joins those lists.
"""

from .catalog import *
from .errors import *
from .extraction import *
from .lattice import *
from .matroid import *
from .partitions import *
from .sbool import GHOST, ONE, ZERO, BoolMatrix, SBool, SbMatrix, as_sbool

__all__ = (
    sbool.__all__ + matroid.__all__ + lattice.__all__ + partitions.__all__
    + extraction.__all__ + catalog.__all__ + errors.__all__
)
