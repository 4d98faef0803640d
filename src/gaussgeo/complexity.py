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

`igc_closed` and `ige_closed` broadcast over a numpy array of horizons tau;
a scalar tau is the 0-d case.

Both quantities shrink under correlation; inverting the volume ratio
recovers r, which `purity_from_complexity` then maps onto the scattering
purity through the dimensionless coefficient eta_C.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._elementwise import any_true, scalar_or_array
from .errors import RegimeWarning, require, require_correlation, require_positive
from .geodesics import InitialConditions, amplitude_A0
from .models import ModelParams

#: Hyperbolic overflow guard on lambda * tau.
LAMBDA_TAU_MAX = 700.0

#: Below this lambda * tau the asymptotic entropy form is unreliable.
IGE_ASYMPTOTIC_MIN = 5.0


@dataclass(frozen=True)
class ComplexityReport:
    """IGC and IGE of one flow at a finite horizon."""

    igc: float
    ige: float
    tau: float
    params: ModelParams


def fisher_density(sigma: float, params: ModelParams) -> float:
    """sqrt(det g) = 2 / (sqrt(1 - r^2) sigma^3)."""
    require_positive(sigma=sigma)
    r = params.r
    return 2.0 / (math.sqrt(1.0 - r * r) * sigma**3)


def _check_horizon(tau, lam_tau) -> None:
    require_positive(tau=tau)
    require(lam_tau <= LAMBDA_TAU_MAX, lambda: f"lambda*tau = {np.max(lam_tau):.3g} "
            f"exceeds the overflow guard {LAMBDA_TAU_MAX}")


def igc_closed(tau, params: ModelParams, ic: InitialConditions):
    """Closed-form IGC at horizon tau (exact finite-time average)."""
    lam = 2.0 * amplitude_A0(ic)
    lam_tau = lam * tau
    _check_horizon(tau, lam_tau)
    r = params.r
    bracket = (
        -0.75 * lam
        + 0.25 * np.sinh(lam_tau) / tau
        + np.tanh(0.5 * lam * tau) / tau
    )
    return scalar_or_array(4.0 * math.sqrt((1.0 - r) / (1.0 + r)) / lam * bracket)


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
    r = params.r
    return scalar_or_array(
        lam_tau - np.log(lam_tau) + 0.5 * math.log((1.0 - r) / (1.0 + r))
    )


def igc_ratio(params: ModelParams) -> float:
    """Correlated-to-flat volume ratio sqrt((1-r)/(1+r)), tau-independent."""
    r = params.r
    return math.sqrt((1.0 - r) / (1.0 + r))


def ige_gap(params: ModelParams) -> float:
    """Entropy deficit (1/2) ln((1-r)/(1+r)) of the correlated flow."""
    r = params.r
    return 0.5 * math.log((1.0 - r) / (1.0 + r))


def report(tau: float, params: ModelParams, ic: InitialConditions) -> ComplexityReport:
    """IGC and IGE of the flow at horizon tau."""
    return ComplexityReport(
        igc=igc_closed(tau, params, ic),
        ige=ige_closed(tau, params, ic),
        tau=tau,
        params=params,
    )


def r_from_complexities(v_noncorr: float, v_corr: float) -> float:
    """Recover r from the two volume averages at equal horizon.

    r = (V0^2 - Vr^2) / (V0^2 + Vr^2), the algebraic inverse of the volume
    ratio sqrt((1-r)/(1+r)). A correlated volume above the non-correlated
    one would imply r < 0 and is rejected.
    """
    require_positive(v_noncorr=v_noncorr, v_corr=v_corr)
    return require_correlation(
        (v_noncorr**2 - v_corr**2) / (v_noncorr**2 + v_corr**2))


def purity_from_complexity(r: float, eta_c: float) -> float:
    """Purity P = 1 - eta_C * r predicted from the complexity deficit.

    eta_c is the dimensionless coefficient (8/3) k0^2 (2 k0^2 + sigma^2)
    R0 L^3 of the scattering configuration; the linear form is perturbative
    and rejected once it would drop below zero.
    """
    require_correlation(r)
    require_positive(eta_c=eta_c)
    p = 1.0 - eta_c * r
    require(p >= 0.0,
            lambda: f"eta_c*r = {eta_c * r:.3g} > 1: outside the perturbative regime")
    return p
