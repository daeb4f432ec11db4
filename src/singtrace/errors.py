"""Exception types raised by the library.

Errors are split between input rejection (bad data) and honest refusals
(a quantity that cannot be decided on the available horizon).
"""


class SingTraceError(Exception):
    """Base class for library errors."""


class NegativeValue(SingTraceError, ValueError):
    """A spectral value was negative."""


class NonpositiveWeight(SingTraceError, ValueError):
    """A spectral weight was zero or negative."""


class NonFinite(SingTraceError, ValueError):
    """A parameter, breakpoint or value was nan or infinite."""


class NonpositiveLambda(SingTraceError, ValueError):
    """Dilation parameter must be strictly positive."""


class NotInfinitesimal(SingTraceError, ValueError):
    """The resulting decay profile does not tend to zero on the checkable range."""


class UndecidedBranch(SingTraceError):
    """Integrability cannot be decided, so neither integral branch applies."""


class SupportExceeded(SingTraceError):
    """Evaluation point lies past the support of a finite rank profile."""


class ZeroDenominator(SingTraceError):
    """The profile vanishes before the evaluation point."""


class QuadratureUnconverged(SingTraceError):
    """A quadrature panel failed its error test at the bisection cap."""


class HorizonTooShort(SingTraceError):
    """The tail window is too short for the requested increment lengths."""


class PreconditionFailed(SingTraceError):
    """An index precondition for the requested bound does not hold."""


class NoWitnessOnHorizon(SingTraceError):
    """No constant validates the bound on the verification grid."""


class FiniteRank(SingTraceError):
    """Operation requires an infinite rank input."""


class Bounded(SingTraceError):
    """The input stays bounded on the representable range, so the inductive
    breakpoint search cannot reach its next target."""


class ConstructionRange(SingTraceError):
    """Breakpoints or step values left the representable floating point range."""


class TooFewSteps(SingTraceError, ValueError):
    """A staircase needs at least two breakpoints."""


class VerificationFailed(SingTraceError):
    """A staircase verification check was violated."""


class NotRegular(SingTraceError):
    """The reference profile is not regular."""


class NotApplicable(SingTraceError):
    """The dichotomy preconditions do not hold for these inputs."""
