"""Semantic exceptions and warnings shared across the package.

Hard violations of an operation's domain raise; soft violations of an
approximation's validity regime warn (or raise where a result would be
meaningless). Callers that sweep parameter grids can trap ``RegimeError``
separately from programming errors.
"""


class GaussGeoError(Exception):
    """Base class for all package errors."""


class DomainError(GaussGeoError, ValueError):
    """Input violates a hard precondition (e.g. sigma <= 0, r outside [0,1))."""


class RegimeError(GaussGeoError):
    """Inputs are outside the validity regime of an approximation."""


class ResonanceError(RegimeError):
    """Phase-shift denominator vanishes; the solved form is singular here."""


class ConvergenceError(GaussGeoError):
    """A numeric oracle failed its own refinement self-test."""


class ProlongationBoundError(DomainError):
    """Correlation exceeds the bound below which a prolongation exists.

    Carries the offending bound so sweeps can report it per row.
    """

    def __init__(self, r: float, r_bound: float):
        self.r = r
        self.r_bound = r_bound
        super().__init__(
            f"r={r:.6g} is at or above the prolongation bound 2/eta={r_bound:.6g}"
        )


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
