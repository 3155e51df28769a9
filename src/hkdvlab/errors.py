"""Exception types shared across the package."""


class HkdvError(Exception):
    """Base class for package-specific failures."""


class BoundaryDecayError(HkdvError):
    """A field violates the decay gate at the edges of the periodic box."""


class UnstableConjugation(HkdvError):
    """Exponentially conjugated propagator called with a growing symbol."""


class SolverBlowup(HkdvError):
    """Time integration produced non-finite values.

    Carries the last finite trajectory in ``partial`` for post-mortem use.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class WindowExitsGrid(HkdvError):
    """A moving window left the grid's valid region at some stored time."""


class BandLimitError(HkdvError):
    """Input field carries spectral content beyond the allowed band."""


class TailFitError(HkdvError):
    """Spectral tail fit attempted on too narrow a frequency range."""


class KernelWindowError(HkdvError):
    """The oscillatory-kernel sup lies on the edge of its evaluation window."""


class KernelGridTooLarge(HkdvError, MemoryError):
    """The oscillatory-kernel grid exceeds the supported size."""


class PhaseRangeError(HkdvError):
    """A phase exceeds the range of the exact ``2 pi`` reduction."""


class ConfigError(HkdvError):
    """Experiment configuration failed validation."""
