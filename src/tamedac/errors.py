"""Exception types and the argument checks shared by every module of the package."""

import math
from numbers import Integral, Real

_U64_MAX = 2 ** 64 - 1


def _integer(name: str, value, low: int = 0) -> int:
    """`value` as an int in [low, 2^64); it must be a Python or numpy integer, not a bool."""
    if isinstance(value, bool) or not (isinstance(value, Integral) and low <= value <= _U64_MAX):
        raise ValueError(f"{name} must be an integer in [{low}, 2^64), got {value!r}")
    return int(value)


def _real(name: str, value, sign: str = "") -> float:
    """`value` as a float; it must be a finite real, and also "positive" (> 0),
    "nonnegative" (>= 0) or "negative" (< 0) if `sign` names one of these."""
    try:
        real = math.nan if isinstance(value, bool) or not isinstance(value, Real) else float(value)
    except OverflowError:  # an int or fraction beyond the float range
        real = math.inf
    signed = {"": True, "positive": real > 0, "nonnegative": real >= 0, "negative": real < 0}
    if not (math.isfinite(real) and signed[sign]):
        raise ValueError(f"{name} must be {sign + ' and ' if sign else ''}finite, got {value!r}")
    return real


class ResolutionError(ValueError):
    """A grid is too coarse for the requested number of modes."""


class AlignmentError(ValueError):
    """A time interval is not aligned to the fine sampling grid."""


class BlowupError(RuntimeError):
    """A simulated path left the numerically trusted range.

    Raised when a drift evaluation produces non-finite values or a state
    coefficient exceeds the blowup threshold.  Carries enough context to
    point at the offending step and Monte Carlo sample.
    """

    def __init__(self, message: str, *, step_index: int | None = None,
                 sample_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index
        self.sample_index = sample_index
