"""Semantic exceptions, warnings and the admissibility policy of the package.

Hard violations of an operation's domain raise; soft violations of an
approximation's validity regime warn (or raise where a result would be
meaningless). Callers that sweep parameter grids can trap ``RegimeError``
separately from programming errors.

Every domain guard goes through the helpers at the end, which write each
rule once for a scalar or an array (at every element); NaN fails them all.
"""

import math

import numpy as np

#: Correlations lie in [0, R_MAX): r = 1 is a genuine singularity of the
#: Gaussian family, where metric entries diverge.
R_MAX = 1.0 - 1e-9


class GaussGeoError(Exception):
    """Base class for all package errors."""


class DomainError(GaussGeoError, ValueError):
    """Input violates a hard precondition (e.g. sigma <= 0, r outside [0, R_MAX))."""


class RegimeError(GaussGeoError):
    """Inputs are outside the validity regime of an approximation."""


class ResonanceError(RegimeError):
    """Phase-shift denominator vanishes; the solved form is singular here."""


class ConvergenceError(GaussGeoError):
    """A numeric oracle failed its own refinement self-test."""


class CountedWarning(UserWarning):
    """Warning about ``count`` elements of one (possibly array) call.

    An array call that strains a condition at many elements issues one
    warning carrying the number of affected elements, not one per element.
    """

    def __init__(self, message: str, count: int = 1):
        super().__init__(message)
        self.count = count


class RegimeWarning(CountedWarning):
    """Result returned, but inputs strain the stated validity regime."""


class SaturationWarning(CountedWarning):
    """Hyperbolic argument clamped to avoid overflow; output is saturated."""


class TruncationWarning(CountedWarning):
    """Table rows past an overflow guard were dropped; ``count`` rows."""


class ProlongationBoundWarning(CountedWarning):
    """Correlation at or past the bound below which a prolongation exists;
    the prolongation is reported as NaN."""


class RoundTripWarning(CountedWarning):
    """Algebraic inversions missed their input; ``count`` round-trips."""


class OmittedFieldsWarning(CountedWarning):
    """The output format cannot hold ``count`` fields of the result."""


def require(ok, message) -> None:
    """Raise DomainError unless ``ok`` holds (at every element of an array).

    ``message`` is a string or a callable, called only when the check fails.
    """
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise DomainError(message() if callable(message) else message)


def require_positive(**named) -> None:
    """Require each named value to be finite and > 0."""
    # tested in place, not through require: dataclasses on hot paths call this
    for name, value in named.items():
        ok = (0.0 < value) & (value < math.inf)
        if not (ok.all() if isinstance(ok, np.ndarray) else ok):
            raise DomainError(f"{name} must be positive and finite, got {value}")


def require_nonnegative(**named) -> None:
    """Require each named value to be finite and >= 0."""
    for name, value in named.items():
        require((0.0 <= value) & (value < math.inf),
                lambda: f"{name} must be non-negative and finite, got {value}")


def require_correlation(r):
    """Require r in [0, R_MAX) and return it."""
    ok = (0.0 <= r) & (r < R_MAX)
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise DomainError(f"correlation must lie in [0, {R_MAX}), got {r}")
    return r
