"""Exception types shared across the package."""


class QflatError(Exception):
    """Base class for all qflatlab errors."""


class InputError(QflatError):
    """Malformed user input (CLI documents, bad parameters)."""


class FieldSyntaxError(InputError):
    """Expression source could not be parsed.

    Carries the 0-based character position of the offending token.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(FieldSyntaxError):
    pass


class ArityError(FieldSyntaxError):
    pass


class DomainEvalError(QflatError):
    """Evaluation left the function's domain (log/sqrt of a negative, 1/0, ...)."""


class DimensionError(InputError):
    """Dimension is invalid, unsupported, or does not match between operands."""


class NotRadialError(QflatError):
    """A radial-only code path received a field that fails the rotation check."""


class NonIntegrableError(QflatError):
    """Tail sums of an improper integral fail the convergence test."""


class QuadratureError(QflatError):
    """Adaptive quadrature did not converge within its refinement budget."""


class RangeOverflowError(QflatError):
    """An exponential factor would overflow double precision; reported, never clipped."""


class GridError(QflatError):
    """Grid geodesic query outside the box, or resolution too coarse."""
