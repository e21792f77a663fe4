"""Exception types shared across the package."""


class EtagapError(Exception):
    """Base class for all package errors."""


class EmptyDomain(EtagapError):
    """The mask leaves no interior node."""


class InvalidHalfPlane(EtagapError):
    """A box touches or crosses rho <= 0 (x_n <= 0 in the half-space)."""


class OutOfDomain(EtagapError):
    """A point lies outside the metric model's domain."""


class OriginInsideDomain(EtagapError):
    """The reference origin lies inside the closed masked region."""


class NotPositiveDefinite(EtagapError):
    """A coefficient tensor failed the positive-definiteness check."""


class DerivativeUnavailable(EtagapError):
    """A required derivative evaluator is missing."""


class DimensionMismatch(EtagapError):
    """Vector/matrix dimensions do not agree."""


class NonFiniteValue(EtagapError):
    """A function produced NaN or infinity where a finite value is required."""


class ConvergenceFailure(EtagapError):
    """Eigensolver did not reach the requested residual tolerance."""


class NonpositiveRadicand(EtagapError):
    """A gap-bound constant has a nonpositive expression under its square root."""


class NonpositiveUpsilon(EtagapError):
    """The shifted ground eigenvalue in the growth bound is nonpositive."""


class InsufficientSpectrum(EtagapError):
    """Fewer eigenvalues available than the requested check range needs."""


class InvalidInstance(EtagapError):
    """A sequence-inequality instance violates its structural invariants."""


class UnitGradientViolation(EtagapError):
    """A test function does not have unit metric gradient on the domain."""


class ConfigError(EtagapError):
    """Scenario configuration is malformed or inconsistent."""
