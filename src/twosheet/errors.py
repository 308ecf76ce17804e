"""Exception types shared across the package, and the finiteness check."""

import numpy as np


class TwoSheetError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(TwoSheetError):
    """Operands have incompatible or unsupported dimensions."""


class DomainError(TwoSheetError):
    """An argument lies outside the mathematical domain of the operation."""


class CausalityError(TwoSheetError):
    """The operation requires causally related events."""


class StateError(TwoSheetError):
    """A state is malformed (negative weights, wrong length, unknown label)."""


class UnsupportedAlgebra(TwoSheetError):
    """The internal algebra is outside the class handled by the operation."""


class UnsupportedTriple(TwoSheetError):
    """The finite triple does not have the shape the operation expects."""


class OracleIntractable(TwoSheetError):
    """The brute-force oracle would need an unreasonably large grid."""


class KreinNullError(TwoSheetError):
    """The spinor is Krein-null, so the classification quotient is undefined."""


class NonHermitianError(TwoSheetError):
    """A matrix expected to be Hermitian has a significant non-Hermitian part."""


class InternalError(TwoSheetError):
    """An internal consistency check failed; indicates a bug, not bad input."""


def require_finite(what: str, *values) -> None:
    """Raise DomainError unless every value (real, complex or array) is finite."""
    if not all(np.all(np.isfinite(v)) for v in values):
        raise DomainError(f"{what} must be finite")
