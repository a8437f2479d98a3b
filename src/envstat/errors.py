"""Exception types raised by the simulation layers."""


class EnvstatError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(EnvstatError):
    """Operator or state dimensions are incompatible."""


class InvalidStateError(EnvstatError):
    """A state or operator violates its construction invariants."""


class BasisMismatchError(EnvstatError):
    """A phase shift is not aligned with the Schmidt structure of the state.

    This is the detector of non-envariance: when it fires, no exact
    countershift on the environment exists.
    """


class NotEvenError(EnvstatError):
    """Swapped branches carry unequal weights, so no counterswap restores."""


class BranchLimitError(EnvstatError):
    """Requested finegraining exceeds the branch budget."""


class SubspaceEscapeError(EnvstatError):
    """A unitary maps the even subspace outside itself."""


class TruncationError(EnvstatError):
    """Level truncation leaves a non-negligible Boltzmann tail."""


class BracketingError(EnvstatError):
    """Root bracketing failed inside a quantization-condition window."""


class RegimeError(EnvstatError):
    """Physical parameters are outside the regime a closed form needs."""


class ConfigError(EnvstatError):
    """Scenario configuration failed to parse or validate."""
