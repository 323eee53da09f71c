"""Exception hierarchy for the markovdual package."""


class MarkovDualityError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatchError(MarkovDualityError):
    """Matrix/vector dimensions are incompatible with the requested operation."""


class NotIrreducibleError(MarkovDualityError):
    """The positive-rate digraph of the generator is not strongly connected."""


class NoPositiveSolutionError(MarkovDualityError):
    """The computed kernel vector is not strictly positive after sign normalization."""


class DecompositionFailedError(MarkovDualityError):
    """Jordan decomposition residuals exceed the requested tolerance."""


class NotEigenpairError(MarkovDualityError):
    """A supplied function fails eigenfunction validation for the stated generator."""


class NotChainError(MarkovDualityError):
    """A supplied sequence of functions is not a generalized-eigenfunction chain."""


class NotOrthonormalError(MarkovDualityError):
    """A supplied function system fails the weighted orthonormality check."""


class NotBiorthogonalError(MarkovDualityError):
    """Two function families fail the bi-orthogonality precondition."""


class ComplexResidueError(MarkovDualityError):
    """A constructed duality matrix has non-negligible imaginary parts."""


class AlreadyConservativeError(MarkovDualityError):
    """Cemetery extension requested for a matrix whose rows already sum to zero."""


class PreconditionFailedError(MarkovDualityError):
    """A validated precondition (residual bound) does not hold for the inputs."""


class SpaceTooLargeError(MarkovDualityError):
    """Configuration-space enumeration would exceed the configured cap."""


class DomainError(MarkovDualityError):
    """Invalid base/exponent combination in a product-form duality function."""


class ParseError(MarkovDualityError):
    """Malformed JSON input for a matrix, measure or operator."""


class UnknownScenarioError(MarkovDualityError):
    """Unrecognized scenario name."""
