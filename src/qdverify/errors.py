"""Exception types shared across the toolkit, one per remedy, and the check
on thresholds."""
import math


class QdvError(Exception):
    """Base class for all toolkit errors."""


class ParseError(QdvError):
    """State file is malformed or violates the format contract."""


class DomainError(QdvError, ValueError):
    """An argument or value lies outside the domain an operation accepts."""


class DimMismatch(QdvError):
    """Dimensions, bipartitions or grid geometries do not fit the step or each other."""


class NotInformationallyComplete(QdvError):
    """POVM effects do not span the operator space."""


class InsufficientOutcomes(QdvError):
    """Fewer than two conditional states are available."""


class TruncationTail(QdvError):
    """Fock-space operator carries too much weight near the cutoff."""


class TooLarge(QdvError):
    """A step would need more memory than the machine has."""


def check_threshold(name: str, value: float) -> None:
    """value, if finite and nonnegative; DomainError naming it otherwise. A
    negative threshold flags exact zeros, a NaN or infinite one flags nothing."""
    if not (math.isfinite(value) and value >= 0):
        raise DomainError(f"{name} must be finite and nonnegative, got {value}")
