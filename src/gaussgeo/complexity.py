"""Statistical complexity of the geodesic flow: volume average and entropy.

The information geometric complexity (IGC) is the time-averaged Fisher
volume swept between the macrostates at 0 and tau:

    V(tau) = (1/tau) * Integral_0^tau vol[Theta(0) -> Theta(tau')] dtau',

where the volume element is the Fisher density sqrt(det g)
= 2/(sqrt(1-r^2) sigma^3). On the closed-form geodesics the nested integral
evaluates exactly: with lambda = 2 A0,

    V(tau; r) = (4/lambda) sqrt((1-r)/(1+r))
                * [ -(3/4) lambda + sinh(lambda tau)/(4 tau)
                    + tanh(lambda tau / 2)/tau ].

The correlation enters only through the prefactor, so

    V(tau; r) / V(tau; 0) = sqrt((1-r)/(1+r))     for every tau.

The information geometric entropy (IGE) is the asymptotic logarithm of the
volume average with the conventional normalization that drops the additive
-ln 2 left over from ln sinh:

    S(tau; r) = lambda tau - ln(lambda tau) + (1/2) ln((1-r)/(1+r)),

so the entropy gap between correlated and non-correlated flows is the
tau-independent constant (1/2) ln((1-r)/(1+r)).

The bracket cancels to O((lambda tau)^5) at small lambda tau, where the
direct form loses about log10(120/(lambda tau)^4) digits. Below
lambda tau = 0.7 `igc_closed` sums its Taylor series instead,

    tau * bracket = x^5/160 - x^7/2688 + x^9/23040 - ...,   x = lambda tau,

which converges for |x| < pi; twelve terms reach double precision there.

`igc_closed` and `ige_closed` broadcast over a numpy array of horizons tau;
a scalar tau is the 0-d case.

Both quantities shrink under correlation; `r_from_complexities` inverts the
volume ratio to recover r.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from ._elementwise import any_true, scalar_or_array
from .errors import RegimeWarning, require, require_correlation, require_positive
from .geodesics import InitialConditions, amplitude_A0
from .models import ModelParams

#: Hyperbolic overflow guard on lambda * tau.
LAMBDA_TAU_MAX = 700.0

#: Below this lambda * tau the asymptotic entropy form is unreliable.
IGE_ASYMPTOTIC_MIN = 5.0

#: Below this lambda * tau `igc_closed` sums the bracket's Taylor series.
IGC_SERIES_MAX = 0.7

#: Taylor coefficients of tau * bracket at x^5, x^7, ..., x^27 (x = lambda tau).
_IGC_SERIES = (
    1 / 160, -1 / 2688, 1 / 23040, -23 / 5322240, 331 / 754790400,
    -227 / 5109350400, 2134861 / 474249904128000, -217579 / 477039609446400,
    2629973 / 56909988495360000, -1173798401 / 250686222922520985600,
    426599046787 / 899200582222086144000000,
    -255636248993 / 5318129157713480908800000,
)


def _check_horizon(tau, lam_tau) -> None:
    require_positive(tau=tau)
    require(lam_tau <= LAMBDA_TAU_MAX, lambda: f"lambda*tau = {np.max(lam_tau):.3g} "
            f"exceeds the overflow guard {LAMBDA_TAU_MAX}")


def igc_closed(tau, params: ModelParams, ic: InitialConditions):
    """Closed-form IGC at horizon tau (exact finite-time average)."""
    lam = 2.0 * amplitude_A0(ic)
    lam_tau = lam * tau
    _check_horizon(tau, lam_tau)
    prefactor = 4.0 * igc_ratio(params)
    bracket = (
        -0.75 * lam
        + 0.25 * np.sinh(lam_tau) / tau
        + np.tanh(0.5 * lam * tau) / tau
    )
    value = prefactor / lam * bracket
    small = lam_tau < IGC_SERIES_MAX
    if any_true(small):
        # bracket / lam = x^4 (1/160 - x^2/2688 + ...), summed by Horner's rule
        x2 = lam_tau * lam_tau
        poly = 0.0
        for c in reversed(_IGC_SERIES):
            poly = poly * x2 + c
        value = np.where(small, prefactor * (x2 * x2 * poly), value)
    return scalar_or_array(value)


def ige_closed(tau, params: ModelParams, ic: InitialConditions):
    """Asymptotic IGE at horizon tau.

    One RegimeWarning per call counts the elements with lambda*tau < 5.
    """
    lam = 2.0 * amplitude_A0(ic)
    lam_tau = lam * tau
    _check_horizon(tau, lam_tau)
    early = lam_tau < IGE_ASYMPTOTIC_MIN
    if any_true(early):
        count = int(np.count_nonzero(early))
        warnings.warn(
            RegimeWarning(
                f"lambda*tau < {IGE_ASYMPTOTIC_MIN} at {count} of {np.size(lam_tau)} "
                f"elements (smallest {np.min(lam_tau):.3g}): asymptotic entropy "
                "form used outside its regime",
                count,
            ),
            stacklevel=2,
        )
    return scalar_or_array(lam_tau - np.log(lam_tau) + ige_gap(params))


def igc_ratio(params: ModelParams) -> float:
    """Correlated-to-flat volume ratio sqrt((1-r)/(1+r)), tau-independent."""
    r = params.r
    return math.sqrt((1.0 - r) / (1.0 + r))


def ige_gap(params: ModelParams) -> float:
    """Entropy deficit (1/2) ln((1-r)/(1+r)) of the correlated flow."""
    r = params.r
    return 0.5 * math.log((1.0 - r) / (1.0 + r))


def r_from_complexities(v_noncorr: float, v_corr: float) -> float:
    """Recover r from the two volume averages at equal horizon.

    r = (V0^2 - Vr^2) / (V0^2 + Vr^2), the algebraic inverse of the volume
    ratio sqrt((1-r)/(1+r)). A correlated volume above the non-correlated
    one would imply r < 0 and is rejected.
    """
    require_positive(v_noncorr=v_noncorr, v_corr=v_corr)
    return require_correlation(
        (v_noncorr**2 - v_corr**2) / (v_noncorr**2 + v_corr**2))

