"""Exception classes shared across the package."""


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
