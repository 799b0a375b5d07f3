"""Exception classes and the one check result type shared across the
package."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Verdict:
    """The result of a check: whether it passed, a detail for reports and
    messages, and a structured witness of what failed (an axiom kind with
    its basis indices, or failing basis pairs and triples)."""

    ok: bool
    detail: str = ""
    witness: Optional[tuple] = None

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
