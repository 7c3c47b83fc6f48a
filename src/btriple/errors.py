"""Exception and warning types shared across the package."""


class BTripleError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(BTripleError):
    """A linear solve met a pivot small enough that the system is singular
    to working precision."""


class NoConvergence(BTripleError):
    """An iterative routine exhausted its iteration budget without meeting
    its residual target, or a special function gave no finite value."""


class NotPositiveDefinite(BTripleError):
    """A matrix that must be Hermitian positive definite has a nonpositive
    eigenvalue."""


class DegenerateInput(BTripleError):
    """Input data carries no usable information for the requested fit."""


class BirmanSchwingerSingular(BTripleError):
    """I - B M(lambda) is singular to tolerance: lambda is, or is
    indistinguishable from, an eigenvalue of the Robin realization."""


class NotAnEigenvalue(BTripleError):
    """A kernel lift was requested at a point where the indicator does not
    vanish to tolerance."""


class NotCertified(BTripleError):
    """An operation that requires a certified spectral point was invoked
    outside the certified region without an explicit override."""


class ThresholdNotFound(BTripleError):
    """The geometric scan for the contraction threshold walked past its cap
    without finding a passing point."""


class InvalidPotential(BTripleError):
    """Potential parameters violate their integrability constraint."""


class ConstraintSingular(BTripleError):
    """A boundary-condition elimination produced a singular block, so the
    requested realization does not define a solvable reduced system."""


class StepSizeUnderflow(BTripleError):
    """The adaptive integrator's step fell below the representable floor,
    typically near a strong potential singularity."""


class MatchingSingular(BTripleError):
    """A kernel or Neumann solve is singular: the spectral parameter sits on
    (or numerically on top of) the Neumann spectrum. The fd1d banded solve,
    the shoot1d matching system and the disk collocation LU or mode Weyl
    value all raise it there."""


class NoRootInBracket(BTripleError):
    """A bracketing scan found no sign change in the searched interval."""


class ConfigError(BTripleError):
    """A configuration file or flag set failed validation."""


class TruncationWarning(UserWarning):
    """An infinite structure (mode sum, exterior domain) was truncated where
    the neglected tail may matter."""
