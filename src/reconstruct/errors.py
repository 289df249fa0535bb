"""Exception types shared across the package."""


class ReconstructError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ReconstructError):
    """Array shapes are incompatible with the requested operation."""


class NotPositiveDefinite(ReconstructError):
    """A matrix could not be factorized even after maximal jitter."""


class SingularSystem(ReconstructError):
    """A linear system is singular or numerically unsolvable."""


class DuplicateKnots(ReconstructError):
    """Knot locations must be pairwise distinct."""


class UnsortedKnots(ReconstructError):
    """1-D knots must be strictly increasing."""


class UnsupportedNu(ReconstructError):
    """Matern smoothness outside the supported half-integer set."""


class RankDeficientRegression(ReconstructError):
    """Regression-function matrix does not have full column rank."""


class NoCandidatesLeft(ReconstructError):
    """Every candidate point already belongs to the knot set."""


class LengthMismatch(ReconstructError):
    """Vector length does not match the design it belongs to."""


class DegenerateData(ReconstructError):
    """Data carry no variation to estimate from."""


class UnknownFunction(ReconstructError):
    """Unrecognized test-function identifier."""


class BadSchema(ReconstructError):
    """An input file or stored model does not match the expected layout."""


class NonFiniteInput(ReconstructError):
    """Inputs, responses or query points contain NaN or infinite values."""
