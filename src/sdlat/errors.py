"""Exception types raised by the lattice toolkit."""


class LatticeError(Exception):
    """Base class for all structural and input errors."""


class CycleError(LatticeError):
    """The cover digraph contains a directed cycle."""


class NotTransitiveReduction(LatticeError):
    """A listed cover is implied by other covers (redundant edge)."""


class NotALattice(LatticeError):
    """Some pair of elements has no unique join or meet."""


class NoBoundsError(LatticeError):
    """The poset has no unique minimum or maximum element."""


class NotComparable(LatticeError):
    """An interval endpoint pair is not ordered lo <= hi."""


class NotSemidistributive(LatticeError):
    """Operation requires a semidistributive lattice."""


class NoUniqueMax(LatticeError):
    """The cover-label guard: a cover's j-label mask is not a single bit, so
    the cover has no unique minimal join label."""


class InconsistentLabels(LatticeError):
    """Label data that theory makes consistent is not: the label sets of a
    core label order fail to separate elements (the separation guard of
    ``cores._label_order``), or a stored fig1/fig4 label disagrees with the
    computed j-label."""


class NotACover(LatticeError):
    """The given pair is not a cover relation."""


class NotJoinIrreducible(LatticeError):
    """An element outside cji(L) was passed where a join-irreducible is required."""


class SizeLimitExceeded(LatticeError):
    """Input exceeds the configured size cap for an exhaustive search."""


class RecursionMismatch(LatticeError):
    """The recursive labeling of the upper core label order failed to line up."""


class MissingLabel(LatticeError):
    """A cover relation of a labeled poset carries no label."""


class ChainCapExceeded(LatticeError):
    """An interval has more maximal chains than the configured cap."""


class SchemaError(LatticeError):
    """A lattice document does not conform to the JSON schema; a poset's names
    are not distinct non-empty strings, or a cover is not a pair of them; or
    a name given to a library call, such as ``join`` or ``cjr``, is no element."""


class BadParameter(LatticeError):
    """A function was called with an out-of-range or unknown parameter, such
    as a generator size or a label order that is not a permutation of the
    alphabet."""
