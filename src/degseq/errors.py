"""Exception hierarchy shared by all degseq modules.

Every library error derives from DegseqError so callers (in particular the
CLI) can distinguish domain errors from programming bugs. The two classes at
the bottom signal internal inconsistencies: they mean a verified invariant
failed and must never be swallowed.
"""


class DegseqError(Exception):
    """Base class for all degseq library errors."""


# -- graph layer --------------------------------------------------------

class SelfLoopError(DegseqError):
    """Attempt to create an edge from a vertex to itself."""


class EdgeExistsError(DegseqError):
    """Attempt to add an edge that is already present."""


# -- sequence / order layer ---------------------------------------------

class LengthMismatchError(DegseqError):
    """Compared sequences have different lengths."""


class ZeroSumError(DegseqError):
    """Normalized Lorenz machinery needs a positive total."""


class OrderViolatedError(DegseqError):
    """A transfer would break the non-increasing ordering."""


class UnderflowError(DegseqError):
    """A subtraction would push an entry below zero."""


class NotMajorizedError(DegseqError):
    """Decomposition requested for a pair that is not ordered."""


class SumMismatchError(DegseqError):
    """Operation requires equal totals."""


class IndexOutOfRangeError(DegseqError):
    """A rank argument is outside 1..N."""


# -- realizability layer -------------------------------------------------

class HeadTooLargeError(DegseqError):
    """Leading entry exceeds N-1, so no simple graph can realize it."""


class BadRankError(DegseqError):
    """Reduction rank k outside 1..N."""


class BadCountError(DegseqError):
    """Reduction count n outside its legal range."""


class NotGraphicalError(DegseqError):
    """The sequence is not the degree sequence of any simple graph."""


class NotCGraphicalError(DegseqError):
    """The sequence is not realizable by a connected simple graph."""


class PreconditionViolatedError(DegseqError):
    """Caller-supplied arguments violate a documented precondition."""


class BadSumError(DegseqError):
    """Sequence total is odd or otherwise outside the operation's domain."""


# -- constructions / enumeration layer ------------------------------------

class OutOfRangeError(DegseqError):
    """Parameter (n, d) outside the legal or configured range."""


class OracleMismatchError(DegseqError):
    """Two independent enumeration oracles disagreed. Fatal."""


class InternalInconsistencyError(DegseqError):
    """A proven-impossible situation occurred; indicates a bug."""
