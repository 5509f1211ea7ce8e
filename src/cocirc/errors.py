"""Domain exceptions shared across the package."""


class CocircError(Exception):
    """Base class for all domain errors."""


class NotConnected(CocircError):
    """Grid faces do not form a single edge-connected region."""


class NotConvex(CocircError):
    """Grid region has a reflex turn or a hole in its boundary."""


class NotACocirculation(CocircError):
    """Some little-triangle circuit has a nonzero value sum."""


class NotConcave(CocircError):
    """Some little rhombus violates the concavity inequality."""


class NotPreHoneycomb(CocircError):
    """A weighted line system violates nonnegativity or zero tension."""


class NoNonintegralEdge(CocircError):
    """Path search requested on a fully integral honeycomb."""


class EpsilonOutOfRange(CocircError):
    """Deformation parameter outside its admissible interval."""


class FNotSubsetOfEdges(CocircError):
    """Pinned edge set contains edges not in the grid."""


class NonIntegerTruncationPoint(CocircError):
    """Boundary fixup ray carries no integer point."""


class SchemaError(CocircError):
    """Malformed JSON input."""
