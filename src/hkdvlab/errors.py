"""Exception types shared across the package."""


class HkdvError(Exception):
    """Base class for package-specific failures."""


class BoundaryDecayError(HkdvError):
    """A field violates the decay gate at the edges of the periodic box."""


class UnstableConjugation(HkdvError):
    """Exponentially conjugated propagator called with a growing symbol."""


class SolverBlowup(HkdvError):
    """Time integration produced non-finite values.

    Carries the last finite trajectory in ``partial`` for post-mortem use,
    the failing ``step`` and its time ``t``, and ``max_abs``, the max|u| of
    the last finite step.
    """

    def __init__(self, message, partial, step, t, max_abs):
        super().__init__(message)
        self.partial = partial
        self.step = step
        self.t = t
        self.max_abs = max_abs


class WindowExitsGrid(HkdvError):
    """A moving window left the grid's valid region at some stored time."""


class BandLimitError(HkdvError):
    """Input field carries spectral content beyond the allowed band."""


class TailFitError(HkdvError):
    """Spectral tail fit attempted on too narrow a frequency range."""


class KernelWindowError(HkdvError):
    """The oscillatory-kernel sup lies on the edge of its evaluation window."""


class ConfigError(HkdvError):
    """Experiment configuration failed validation."""
