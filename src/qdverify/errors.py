"""Exception types shared across the toolkit."""


class QdvError(Exception):
    """Base class for all toolkit errors."""


class DimMismatch(QdvError):
    """Operands have incompatible dimensions."""


class NotHermitian(QdvError):
    """A matrix expected to be Hermitian is not, within tolerance."""


class MissingBipartition(QdvError):
    """Operation requires a bipartite density operator."""


class BadDimension(QdvError):
    """Operation restricted to a specific dimension was given another."""


class NotInformationallyComplete(QdvError):
    """POVM effects do not span the operator space."""


class CompletenessFailure(QdvError):
    """Random POVM generation kept failing the completeness check."""


class GeometryMismatch(QdvError):
    """Phase-space grids do not share the same geometry."""


class TruncationTail(QdvError):
    """Fock-space operator carries too much weight near the cutoff."""


class Unphysical(QdvError):
    """Covariance matrix violates the uncertainty constraint."""


class SingularConditioning(QdvError):
    """Heterodyne conditioning is singular for this covariance."""


class DegenerateOutcomes(QdvError):
    """Heterodyne outcomes share a quadrature value; the test would be blind."""


class InsufficientOutcomes(QdvError):
    """Fewer than two conditional states are available."""


class ParseError(QdvError):
    """State file is malformed or violates the format contract."""


class DomainError(QdvError, ValueError):
    """An argument or value lies outside the domain an operation accepts."""
