"""Semantic exceptions, warnings and the admissibility policy of the package.

Hard violations of an operation's domain raise; soft violations of an
approximation's validity regime warn (or raise where a result would be
meaningless). Callers that sweep parameter grids can trap ``RegimeError``
separately from programming errors.

Every domain guard goes through the helpers at the end, which write each
rule once for a scalar or an array. `require` alone tests a rule: it holds
only if it holds at every element, and NaN fails it; the other helpers
raise through it. `require_hyperbolic` is the one overflow guard of sinh,
cosh and tanh, `require_normal` the one range guard of a spread that scales
a geometry form, and `require_scalar` the one refusal of an array input.
"""

import math

import numpy as np

#: Correlations lie in [0, R_MAX): r = 1 is a genuine singularity of the
#: Gaussian family, where metric entries diverge.
R_MAX = 1.0 - 1e-9

#: Largest usable hyperbolic argument; sinh and cosh overflow near 710.
ARG_CLAMP = 700.0

#: The least and the largest positive normal float.
TINY, HUGE = float(np.finfo(float).tiny), float(np.finfo(float).max)


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
    for name, value in named.items():
        require((0.0 < value) & (value < math.inf),
                lambda: f"{name} must be positive and finite, got {value}")


def require_nonnegative(**named) -> None:
    """Require each named value to be finite and >= 0."""
    for name, value in named.items():
        require((0.0 <= value) & (value < math.inf),
                lambda: f"{name} must be non-negative and finite, got {value}")


def require_correlation(r):
    """Require r in [0, R_MAX) and return it."""
    require((0.0 <= r) & (r < R_MAX), lambda: f"correlation must lie in [0, {R_MAX}), got {r}")
    return r


def require_scalar(**named):
    """Require each named value to be a scalar, where a form does not
    broadcast over it, and return the last one named."""
    for name, value in named.items():
        if not isinstance(value, (float, int)):  # np.ndim costs a microsecond on a float
            require(np.ndim(value) == 0,
                    lambda: f"{name} must be a scalar here, got shape {np.shape(value)}")
    return value


def require_hyperbolic(arg, label: str) -> None:
    """Require |arg| <= ARG_CLAMP; ``label`` names arg in the message."""
    require(abs(arg) <= ARG_CLAMP, lambda: f"{label} = {np.max(abs(arg)):.3g} "
            f"exceeds the overflow guard {ARG_CLAMP}")


def require_normal(entries, table, power, **spreads) -> None:
    """Require the named spreads > 0 and ``entries``, the r-only ``table``
    times their product to ``power``, normal floats, where numpy ignores float
    errors; the message states the range, at the first point refused, of the
    product, in which TINY <= |t| product**power <= HUGE for each t."""
    ok = True
    for spread in spreads.values():
        ok = ok & (0.0 < spread)
    for x in map(abs, entries):
        ok = ok & (TINY <= x) & (x <= HUGE)
    require(ok, lambda: _normal_range(ok, table, power, spreads))


def _normal_range(ok, table, power, spreads) -> str:
    at = np.unravel_index(np.argmin(ok), np.shape(ok))  # the first point refused
    t, got = (np.array([np.broadcast_to(x, np.shape(ok))[at] for x in xs])
              for xs in (table, spreads.values()))
    lo, hi = sorted([(TINY / abs(t).min()) ** (1 / power), (HUGE / abs(t).max()) ** (1 / power)])
    return (f"{' * '.join(spreads)} must lie in [{lo:.3g}, {hi:.3g}] at this r, "
            f"got {', '.join(f'{float(x):g}' for x in got)}")
