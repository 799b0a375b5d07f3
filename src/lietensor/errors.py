"""Exception classes, the one check result type, and Immutable, the base of
the package's value types, which derives their constructors, equality,
hashes and reprs from the fields each type declares."""

from __future__ import annotations

from typing import Optional


class Immutable:
    """Base of the package's value types.  A type declares its fields once,
    in constructor order, as _fields, the defaults of trailing fields as
    _defaults, and as _hashed how many leading fields the hash reads (by
    default all).  From these the base derives:

    - __init__, taking fields by position or keyword and storing them
      through the instance __dict__, as cached_property does for the views
      built on first use; too many positional arguments, an unknown or
      repeated keyword and a missing field raise TypeError.  A type whose
      constructor checks or adds something ends it by calling this one;
    - equality: the same type and equal fields;
    - the hash of the tuple of the first _hashed fields;
    - the repr Type(field=value, ...).

    Assigning or deleting an attribute raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _hashed: Optional[int] = None

    def __init__(self, *args, **kwargs):
        fields, d = self._fields, self.__dict__
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} "
                            f"fields but {len(args)} were given")
        d.update(zip(fields, args))
        for name, value in kwargs.items():
            if name in d or name not in fields:
                raise TypeError(f"{type(self).__name__}() got "
                                f"{'repeated' if name in d else 'unknown'} "
                                f"field {name!r}")
            d[name] = value
        if len(d) < len(fields):
            for name in fields:
                if name not in d:
                    if name not in self._defaults:
                        raise TypeError(f"{type(self).__name__}() is "
                                        f"missing field {name!r}")
                    d[name] = self._defaults[name]

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values()[:self._hashed])

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}"
                          for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Verdict(Immutable):
    """The result of a check: whether it passed, a detail for reports and
    messages, and a structured witness of what failed (an axiom kind with
    its basis indices, or failing basis pairs and triples) or, for a passing
    theorem map, the map."""

    _fields = ("ok", "detail", "witness")
    _defaults = {"detail": "", "witness": None}

    def __bool__(self) -> bool:
        return self.ok


class InvalidInputError(ValueError):
    """User-supplied document or CLI argument is malformed or inconsistent."""


class OutsideEnvelopeError(InvalidInputError):
    """An object a computation would build from valid input exceeds the
    design envelope; nothing has been built."""


class NotIdealError(ValueError):
    """A subspace handed to a quotient construction is not an ideal."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotNilpotentError(ValueError):
    """Free presentations are built only for nilpotent algebras
    (presentation_of); covers are built for every algebra."""


class InternalCheckError(AssertionError):
    """A construction self-check fired; indicates a bug, not bad input."""


class TheoremViolationError(AssertionError):
    """A mechanically verified statement failed on a concrete algebra."""
