"""Exception classes, the one check result type, and the immutable base of
the package's value types."""

from __future__ import annotations

from typing import Optional


class Immutable:
    """Base of the package's value types, which are immutable after
    construction.  Each sets its fields once in __init__, through the
    instance __dict__, as cached_property does for the views built on first
    use; assigning or deleting an attribute afterwards raises AttributeError.
    Each type writes out its own equality, hash and repr."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Verdict(Immutable):
    """The result of a check: whether it passed, a detail for reports and
    messages, and a structured witness of what failed (an axiom kind with
    its basis indices, or failing basis pairs and triples)."""

    def __init__(self, ok: bool, detail: str = "",
                 witness: Optional[tuple] = None):
        d = self.__dict__
        d["ok"] = ok
        d["detail"] = detail
        d["witness"] = witness

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ok, self.detail, self.witness) == \
            (other.ok, other.detail, other.witness)

    def __hash__(self):
        return hash((self.ok, self.detail, self.witness))

    def __repr__(self):
        return (f"Verdict(ok={self.ok!r}, detail={self.detail!r}, "
                f"witness={self.witness!r})")

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
    """The free-presentation engine only accepts nilpotent algebras."""


class InternalCheckError(AssertionError):
    """A construction self-check fired; indicates a bug, not bad input."""


class TheoremViolationError(AssertionError):
    """A mechanically verified statement failed on a concrete algebra."""
