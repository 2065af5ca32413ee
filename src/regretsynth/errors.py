"""Exception hierarchy shared across the toolkit."""


class RegretSynthError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(RegretSynthError):
    """Matrix or signal dimensions are inconsistent."""


class SampleTimeError(RegretSynthError):
    """A sample time is not 'unit' or a finite positive number, or two
    systems with incompatible sample times were combined."""


class NonFiniteSystem(RegretSynthError):
    """A system matrix has a NaN or infinite entry."""


class UnstableSystem(RegretSynthError):
    """An operation requiring a Schur-stable system received an unstable one."""


class NonDecaying(RegretSynthError):
    """State energy failed to decay during a simulation window."""


class WellPosednessError(RegretSynthError):
    """An uncertainty interconnection has a singular algebraic loop."""


class AssumptionViolated(RegretSynthError):
    """A solver precondition failed.  Carries the diagnostic report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NoStabilizingSolution(RegretSynthError):
    """Riccati iteration did not produce a stabilizing solution."""


class NotStabilizable(RegretSynthError):
    """(A, B_u) is not stabilizable."""


class NotDetectable(RegretSynthError):
    """(A, C_y) is not detectable."""


class GammaDZero(RegretSynthError):
    """Spectral factorization requested with gamma_d <= 0."""


class StabilizabilityFailure(RegretSynthError):
    """Reduced spectral factorization stabilizability condition failed."""


class SingularX(RegretSynthError):
    """Riccati solution too ill-conditioned to invert."""


class SpectralFactorInaccurate(RegretSynthError):
    """A spectral factor misses its own frequency-domain identity check."""


class NoFeasibleUpperBound(RegretSynthError):
    """Doubling search never found a feasible synthesis level."""


class UnknownExample(RegretSynthError):
    """Example name not in the built-in catalogue."""


class PlantFileError(RegretSynthError):
    """System file could not be parsed."""
