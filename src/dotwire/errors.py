"""Exception hierarchy.

Every failure the library can diagnose raises a subclass of
:class:`DotwireError`, so callers can catch one type. The CLI maps
:class:`ConfigError` to exit code 1; contract violations (a singular
parameter point, no peak or minimum in the bracket, a tangent pole, an empty
projection, a too-wide pulse bandwidth, a population underflow) and
verification failures detected by commands themselves to exit code 2; and
numerical failures (a too-coarse grid, a too-large step, no convergence) to
exit code 3.
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


class ConfigError(DotwireError):
    """Invalid configuration: unknown keys, malformed values, bad ranges."""


class SingularSystem(DotwireError):
    """The 2x2 amplitude system is singular (|det| below threshold).

    Occurs only on a measure-zero parameter set (e.g. a lossless emitter pair
    exactly on resonance at kd = n*pi); reported explicitly, never regularized.
    """


class NoPeakInBracket(DotwireError):
    """Reflection is monotone on the bracket; no interior maximum exists."""


class NoMinimumInBracket(DotwireError):
    """No resonant-tunneling minimum exists inside the bracket."""


class TangentPole(DotwireError):
    """kd is too close to an odd multiple of pi/2 where tan(kd) diverges."""


class EmptyProjection(DotwireError):
    """Both emitter amplitudes are numerically zero; no post-selection."""


class GridTooCoarse(DotwireError):
    """The mode grid cannot support the requested accuracy."""


class StepTooLarge(DotwireError):
    """The storage run's step is too long for its control.

    A step of the storage splitting may turn the emitter-control kick block
    by at most 0.25 rad, since that angle bounds the splitting error; the
    mode phases are exact. The step is fixed by the control grid, so this
    means the control is too strong. The oracle propagates with a Chebyshev
    series, which has no step, and never raises it.
    """


class NotConverged(DotwireError):
    """Time evolution ended before the emitter populations decayed."""


class PopulationUnderflow(DotwireError):
    """Pulse inversion hit the population floor at an active point."""


class BandwidthTooWide(DotwireError):
    """Input field bandwidth violates the quasi-monochromatic bound."""
