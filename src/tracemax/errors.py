"""Exception types shared across the package."""


class TracemaxError(Exception):
    """Base class for all package errors."""


class DimensionError(TracemaxError):
    """Operands have incompatible or invalid dimensions."""


class InvalidExponent(TracemaxError):
    """A norm or power exponent violates its admissible range."""


class BudgetExceeded(TracemaxError):
    """A request exceeds a hard enumeration or precision budget."""


class ConstraintViolated(TracemaxError):
    """An ensemble violates its norm-cap or expectation-norm constraints."""


class SamplerFailed(TracemaxError):
    """The constrained ensemble sampler did not converge for a given seed."""
