"""Exception hierarchy.  Every error carries a stable machine-readable code."""

from __future__ import annotations


class ZetaforgeError(Exception):
    """Base class; ``code`` is the stable identifier surfaced by the CLI."""

    code = "error"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class InvalidArgumentError(ZetaforgeError, ValueError):
    code = "invalid-argument"


class InvariantViolationError(ZetaforgeError):
    code = "invariant-violation"


class InfiniteGroupError(ZetaforgeError):
    code = "infinite-group"


class InfiniteCohomologyError(ZetaforgeError):
    code = "infinite-cohomology"


class WeilViolationError(ZetaforgeError):
    code = "weil-violation"


class CharZeroAtomError(ZetaforgeError):
    code = "char-zero-atom"


class MixedBaseError(ZetaforgeError):
    code = "mixed-base"


class GradedDataUnavailableError(ZetaforgeError):
    code = "graded-data-unavailable"


class PrecisionUnderflowError(ZetaforgeError):
    code = "precision-underflow"


class RationalityFailureError(ZetaforgeError):
    code = "rationality-failure"


class ExprSyntaxError(ZetaforgeError):
    code = "syntax-error"

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ArityError(ZetaforgeError):
    code = "arity-error"


class NotPrimePowerError(ZetaforgeError):
    code = "not-prime-power"


class ManifestError(ZetaforgeError):
    code = "manifest-error"


class UsageError(ZetaforgeError):
    """Malformed command line: no or unknown verb, unknown option, bad value."""

    code = "usage"
