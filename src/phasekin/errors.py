"""Exception types shared across the package."""


class PhasekinError(Exception):
    """Base class for all phasekin errors."""


class DecayGuardError(PhasekinError):
    """A field that must vanish at the box boundary does not.

    Periodic spectral methods silently alias non-decaying content; this
    guard turns that into a diagnosable failure.
    """


class GridMismatchError(PhasekinError):
    """Two objects that must share a grid were built on different grids."""


class NormalizationError(PhasekinError):
    """A distribution's quadrature integral is off its required value,
    or not finite because its values overflowed."""


class NonConvergenceError(PhasekinError):
    """A truncated derivative series hit its cap while terms were still large."""


class ImaginaryResidueError(PhasekinError):
    """A nominally real result carries a non-negligible imaginary part."""


class DegenerateFitError(PhasekinError):
    """A regression input is degenerate (e.g. a norm underflowed)."""


class NonFiniteError(PhasekinError):
    """A numpy operation overflowed, divided by zero or produced an
    invalid value (NaN), or Python arithmetic overflowed, while a command ran."""


class ConfigError(PhasekinError):
    """Scenario configuration is invalid; message carries the field path."""
