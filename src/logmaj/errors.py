"""Exception types shared across the library."""


class LogmajError(Exception):
    """Base class for all library errors."""


class NotHermitian(LogmajError):
    """Operation requires a hermitian operator."""


class NotPSD(LogmajError):
    """Operation requires a positive semidefinite operator."""


class DomainError(LogmajError):
    """Scalar function undefined at a point of the spectrum."""


class ShapeMismatch(LogmajError):
    """Block shapes or algebra descriptors do not match."""


class OutOfDomain(LogmajError):
    """Argument outside the domain of a step function."""


class NegativeValue(LogmajError):
    """Step function has a negative piece where nonnegativity is required."""


class WeightTooShort(LogmajError):
    """Lorentz weight does not cover the trace length of the algebra."""


class GenerationFailure(LogmajError):
    """Randomized constructor exhausted its attempt budget."""


class ClassificationFailure(LogmajError):
    """A central summand is neither multiplicative nor anti-multiplicative."""


class PlanMismatch(LogmajError):
    """Jordan construction plan is inconsistent with the algebras."""


class CalibrationError(LogmajError):
    """Synthesis spec violates the isometry calibration equation."""


class Singular(LogmajError):
    """Linear map is not invertible."""


class JMissing(LogmajError):
    """No Jordan map was extracted to work with."""


class InternalError(LogmajError):
    """Invariant that cannot fail mathematically was violated numerically."""
