"""Exception hierarchy.

Every failure the library can diagnose raises a subclass of
:class:`DotwireError`, so callers can catch one type. Each class's
``exit_code`` is the CLI's exit status when a command raises it.
"""

from __future__ import annotations

__all__ = [
    "DotwireError",
    "ConfigError",
    "SingularSystem",
    "NoPeakInBracket",
    "NoMinimumInBracket",
    "TangentPole",
    "EmptyProjection",
    "GridTooCoarse",
    "StepTooLarge",
    "NotConverged",
    "PopulationUnderflow",
    "BandwidthTooWide",
]


class DotwireError(ValueError):
    """Base class for all library errors."""

    exit_code = 1


class ConfigError(DotwireError):
    """Invalid configuration: unknown keys, malformed values, bad ranges."""


class SingularSystem(DotwireError):
    """The 2x2 amplitude system is singular (|det| below threshold).

    Occurs only on a measure-zero parameter set (e.g. a lossless emitter pair
    exactly on resonance at kd = n*pi); reported explicitly, never regularized.
    """

    exit_code = 2


class NoPeakInBracket(DotwireError):
    """Reflection is monotone on the bracket; no interior maximum exists."""

    exit_code = 2


class NoMinimumInBracket(DotwireError):
    """No resonant-tunneling minimum exists inside the bracket."""

    exit_code = 2


class TangentPole(DotwireError):
    """kd is too close to an odd multiple of pi/2 where tan(kd) diverges."""

    exit_code = 2


class EmptyProjection(DotwireError):
    """Both emitter amplitudes are numerically zero; no post-selection."""

    exit_code = 2


class GridTooCoarse(DotwireError):
    """The mode grid cannot support the requested accuracy."""

    exit_code = 3


class StepTooLarge(DotwireError):
    """The storage run's step is too long for its control.

    A step of the storage splitting may turn the emitter-control kick block
    by at most 0.25 rad, since that angle bounds the splitting error; the
    mode phases are exact. The step is fixed by the control grid, so this
    means the control is too strong. The oracle propagates with a Chebyshev
    series, which has no step, and never raises it.
    """

    exit_code = 3


class NotConverged(DotwireError):
    """Time evolution ended before the emitter populations decayed, or the
    root iteration of the reflection-peak search reached its cap."""

    exit_code = 3


class PopulationUnderflow(DotwireError):
    """The matched design needs a negative stored population beyond the
    floor's tolerance, or a control beyond its cap."""

    exit_code = 2


class BandwidthTooWide(DotwireError):
    """Input field bandwidth violates the quasi-monochromatic bound."""

    exit_code = 2
