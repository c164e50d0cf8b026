"""Exception hierarchy shared by all chainfix modules."""

from __future__ import annotations


class ChainfixError(Exception):
    """Base class for every error raised by this package."""


class InvalidInstanceError(ChainfixError):
    """A space, map, or instance file failed validation.

    Carries the first violated requirement: ``field`` is the document key at
    fault, bare from a space or map constructor (``table``) and as a dotted
    path once ``parse_instance`` has prefixed it (``map.table``); ``witness``
    is the offending indices or points.
    """

    def __init__(self, message: str, *, field: str | None = None, witness=None):
        super().__init__(message)
        self.field = field
        self.witness = witness


class GrammarError(InvalidInstanceError):
    """An expression from a document's ``formula`` fell outside the grammar."""

    def __init__(self, message: str, *, field: str | None = "formula", witness=None):
        super().__init__(message, field=field, witness=witness)


class DomainError(ChainfixError):
    """An operation was called with arguments outside its domain."""


class EscapeError(ChainfixError):
    """An expression map produced a value outside its box.

    Signals an ill-posed instance; the solver reports it as divergence.
    ``witness`` is the pair of points (x, y) whose image left the box.
    """

    def __init__(self, message: str, *, witness=None):
        super().__init__(message)
        self.witness = witness


class SamplingError(ChainfixError):
    """A sampling plan produced no usable points or quadruples."""
