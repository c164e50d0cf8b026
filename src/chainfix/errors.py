"""Exception hierarchy and message helpers shared by all chainfix modules,
and ``Frozen``, the base of the package's validated records."""

from __future__ import annotations

_SHOWN = 80  # characters of an offending value that a message repeats


def clipped(text: str) -> str:
    """``text``; past ``_SHOWN`` characters, its start and its length, so a
    message about a huge value stays one short line."""
    if len(text) <= _SHOWN:
        return text
    return f"{text[:_SHOWN]}... ({len(text)} characters)"


def clipped_repr(value) -> str:
    """``repr(value)``, clipped."""
    return clipped(repr(value))


class Frozen:
    """A record whose ``__init__`` sets its attributes once, with
    ``vars(self).update``; assigning or deleting one later raises
    ``AttributeError``. ``_fields`` names what ``repr`` shows and, unless a
    subclass compares otherwise, what equality and the hash read."""

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"


class ChainfixError(Exception):
    """Base class for every error raised by this package.

    Carries the first violated requirement, when it has one: ``field`` is
    the document key at fault, bare from a space or map constructor
    (``table``) and as a dotted path once ``parse_instance`` has prefixed it
    (``map.table``); ``witness`` is the offending indices or points. A
    subclass that always blames one key names it as its class's ``field``.
    """

    field: str | None = None

    def __init__(self, *args, field: str | None = None, witness=None):
        super().__init__(*args)
        if field is not None:
            self.field = field
        self.witness = witness


class InvalidInstanceError(ChainfixError):
    """A space, map, or instance file failed validation."""


class GrammarError(InvalidInstanceError):
    """An expression from a document's ``formula`` fell outside the grammar."""

    field = "formula"


class DomainError(ChainfixError):
    """An operation was called with arguments outside its domain."""


class EscapeError(ChainfixError):
    """An expression map produced a value outside its box.

    Signals an ill-posed instance; the solver reports it as divergence.
    ``field`` is always ``map.formula``; ``witness`` is the pair of points
    (x, y) whose image left the box.
    """

    field = "map.formula"


class SamplingError(ChainfixError):
    """A box sample that cannot be built: a grid step that is not positive,
    a grid over its point cap, or tables over their byte budget. ``field``
    names the document key that sets the sample (``space.grid_step``) when
    that key is at fault."""
