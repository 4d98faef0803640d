"""Statistical complexity of the geodesic flow: volume average and entropy.

The information geometric complexity (IGC) is the time-averaged Fisher
volume swept between the macrostates at 0 and tau:

    V(tau) = (1/tau) * Integral_0^tau vol[Theta(0) -> Theta(tau')] dtau',

where the volume element is the Fisher density sqrt(det g)
= 2/(sqrt(1-r^2) sigma^3). On the closed-form geodesics the nested integral
evaluates exactly: with lambda = 2 A0, read from `chaos.lyapunov_exponent`,

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

`igc_closed` and `ige_closed` broadcast over numpy arrays of horizons tau
and of correlations ``ModelParams(r).r``, as do `igc_ratio` and `ige_gap`
over r; a scalar is the 0-d case. tau must be positive and finite, and
lambda tau within the overflow guard `errors.require_hyperbolic` (700).

Both quantities shrink under correlation; `r_from_complexities` inverts the
volume ratio to recover r.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import chaos, geodesics, models
from ._elementwise import any_true, scalar_or_array
from .errors import (RegimeWarning, require, require_correlation, require_hyperbolic,
                     require_positive)

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


def igc_closed(tau, params: models.ModelParams, ic: geodesics.InitialConditions):
    """Closed-form IGC at horizon tau (exact finite-time average)."""
    lam = chaos.lyapunov_exponent(geodesics.amplitude_A0(ic))
    require_positive(tau=tau)
    lam_tau = lam * tau
    require_hyperbolic(lam_tau, "lambda*tau")
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


def ige_closed(tau, params: models.ModelParams, ic: geodesics.InitialConditions):
    """Asymptotic IGE at horizon tau.

    One RegimeWarning per call counts the result's elements with lambda*tau < 5.
    """
    lam = chaos.lyapunov_exponent(geodesics.amplitude_A0(ic))
    require_positive(tau=tau)
    lam_tau = lam * tau
    require_hyperbolic(lam_tau, "lambda*tau")
    early = lam_tau < IGE_ASYMPTOTIC_MIN
    if any_true(early):
        early = np.broadcast_to(early, np.broadcast(lam_tau, params.r).shape)
        count = int(np.count_nonzero(early))
        warnings.warn(
            RegimeWarning(
                f"lambda*tau < {IGE_ASYMPTOTIC_MIN} at {count} of {early.size} "
                f"elements (smallest {np.min(lam_tau):.3g}): asymptotic entropy "
                "form used outside its regime",
                count,
            ),
            stacklevel=2,
        )
    return scalar_or_array(lam_tau - np.log(lam_tau) + ige_gap(params))


def igc_ratio(params: models.ModelParams):
    """Correlated-to-flat volume ratio sqrt((1-r)/(1+r)), tau-independent."""
    return scalar_or_array(np.sqrt((1.0 - params.r) / (1.0 + params.r)))


def ige_gap(params: models.ModelParams):
    """Entropy deficit (1/2) ln((1-r)/(1+r)) = -artanh(r) of the correlated flow."""
    return scalar_or_array(-np.arctanh(params.r))


def r_from_complexities(v_noncorr: float, v_corr: float) -> float:
    """Recover r from the two volume averages at equal horizon.

    r = (1 - q^2) / (1 + q^2) with q = Vr / V0, the algebraic inverse of the
    volume ratio q = sqrt((1-r)/(1+r)); the volumes enter through q alone, so
    no square of one leaves the floats. A correlated volume above the
    non-correlated one would imply r < 0 and is rejected.
    """
    require_positive(v_noncorr=v_noncorr, v_corr=v_corr)
    require(v_corr <= v_noncorr, lambda: (
        f"v_corr = {v_corr} exceeds v_noncorr = {v_noncorr}, which implies r < 0"))
    q = v_corr / v_noncorr
    return require_correlation((1.0 - q * q) / (1.0 + q * q))

