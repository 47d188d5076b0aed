"""Exception types shared across the package."""

from __future__ import annotations


class ImpactError(Exception):
    """Base class for all errors raised by this package."""


class InvalidConceptError(ImpactError):
    """A concept or its file breaks a structural invariant (bad edge, bad root, depth cap)."""


class InputShapeError(ImpactError):
    """An input vector has the wrong length or contains non-bit values."""


class MalformedAutomatonError(ImpactError):
    """An automaton walk ran out of input before reaching a terminal state."""


class InvalidParameterError(ImpactError):
    """A numeric parameter is outside its documented range."""


class InsufficientDataError(ImpactError):
    """A moderated subset is too small to continue the teaching session.

    Carries enough context for a session driver to report which round
    starved and how many examples it needed.
    """

    def __init__(self, message: str, *, node: int | None = None,
                 round_index: int | None = None, subset_size: int | None = None,
                 required: int | None = None):
        super().__init__(message)
        self.node = node
        self.round_index = round_index
        self.subset_size = subset_size
        self.required = required


class UndefinedMetricError(ImpactError):
    """A metric was requested over an empty example set."""


class EnumerationCapError(ImpactError):
    """An exhaustive check was requested beyond the configured input-width cap."""


class ConfigError(ImpactError):
    """A sweep or CLI configuration file failed validation."""
