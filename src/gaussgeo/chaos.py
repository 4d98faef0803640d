"""Geodesic-spread chaos indicators: Jacobi fields and Lyapunov exponents.

On a maximally symmetric manifold the geodesic-deviation (Jacobi) equation
collapses to the scalar oscillator J'' + Q J = 0 with the constant

    Q = R ||v||^2 / (n(n-1)) = -A0^2,

using R = -3/2, n = 3 and the conserved squared velocity ||v||^2 = 4 A0^2
of the closed-form geodesics. Q < 0 makes the deviation grow like sinh, and
the growth-rate indicator (the Riemannian analogue of a Lyapunov exponent)
is lambda = 2 sqrt(-Q) = 2 A0 -- notably independent of the correlation r.

`jacobi_intensity` broadcasts over a numpy array of tau. It and
`lyapunov_estimate` reject a NaN A0 tau, or one beyond the geodesics'
hyperbolic clamp (700) where sinh and cosh overflow, with a DomainError;
A0, an intensity's initial rate omega0 and tau_max must be positive and finite.

`lyapunov_estimate` evaluates the defining log-ratio at a finite horizon.
The raw value converges only like 1/tau (the limit sheds a constant inside
the log), so the reported estimate Richardson-extrapolates the last two
horizon doublings, which kills the 1/tau term and leaves an exponentially
small error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._elementwise import scalar_or_array
from .errors import RegimeWarning, require, require_positive
from .geodesics import (
    ARG_CLAMP,
    InitialConditions,
    amplitude_A0,
    geodesic_corr,
    geodesic_velocity,
)
from .models import ModelParams, metric_corr3

#: Minimum A0 * tau_max for the asymptotic Lyapunov regime.
ASYMPTOTIC_MIN = 5.0


@dataclass(frozen=True)
class JacobiState:
    """Constants of the scalar Jacobi problem: Q = -A0^2 and the initial rate."""

    Q: float
    omega0: float
    A0: float

    def __post_init__(self):
        require_positive(A0=self.A0, minus_Q=-self.Q)


@dataclass(frozen=True)
class LyapunovEstimate:
    """Finite-horizon Lyapunov evaluation.

    ``value`` is the extrapolated estimate, ``raw`` the plain finite-horizon
    log-ratio at tau_max.
    """

    value: float
    raw: float
    tau_max: float


def jlc_coefficient(A0: float) -> float:
    """Constant Q of the reduced Jacobi equation: -A0^2."""
    require_positive(A0=A0)
    return -A0 * A0


def velocity_norm_squared(ic: InitialConditions) -> float:
    """Conserved squared velocity g_ab v^a v^b = 4 A0^2, at every tau and r."""
    A0 = amplitude_A0(ic)
    return 4.0 * A0 * A0


def velocity_norm_squared_contracted(
    params: ModelParams, ic: InitialConditions, tau: float
) -> float:
    """Direct contraction of the analytic velocity with the metric.

    Exists as the explicit counterpart of the constant value; agreement is
    asserted in the test suite.
    """
    state = geodesic_corr(tau, params, ic)
    v = geodesic_velocity(tau, params, ic)
    g = metric_corr3(state.sigma, params)
    return float(v @ g @ v)


def _check_overflow(arg) -> None:
    require(abs(arg) <= ARG_CLAMP, lambda: f"|A0*tau| = {np.max(abs(arg)):.3g} "
            f"exceeds the overflow guard {ARG_CLAMP}")


def jacobi_intensity(tau, omega0: float, A0: float):
    """Jacobi-field intensity J(tau) = (omega0/A0) sinh(A0 tau), scalar or array."""
    require_positive(omega0=omega0, A0=A0)
    arg = A0 * tau
    _check_overflow(arg)
    return scalar_or_array(omega0 / A0 * np.sinh(arg))


def jacobi_intensity_rate(tau: float, omega0: float, A0: float) -> float:
    """dJ/dtau = omega0 cosh(A0 tau) for the closed-form intensity."""
    return omega0 * math.cosh(A0 * tau)


def lyapunov_exponent(A0: float) -> float:
    """Asymptotic growth-rate indicator lambda = 2 A0; the same for every r."""
    require_positive(A0=A0)
    return 2.0 * A0


def _log_ratio(tau: float, A0: float) -> float:
    # log[(J^2 + J'^2)/omega0^2] / tau; omega0 cancels exactly. Written as
    # log[cosh^2 (1 + tanh^2/A0^2)] with cosh = 1 + 2 sinh^2(x/2): every term
    # is positive (no cancellation at small x) and none overflows below the guard
    x = A0 * tau
    log_cosh = math.log1p(2.0 * math.sinh(0.5 * x) ** 2)
    return (2.0 * log_cosh + math.log1p((math.tanh(x) / A0) ** 2)) / tau


def lyapunov_estimate(omega0: float, A0: float, tau_max: float) -> LyapunovEstimate:
    """Finite-horizon Lyapunov estimate converging to 2 A0.

    The initial rate omega0 cancels in the log-ratio and is accepted only
    for signature symmetry with `jacobi_intensity`.
    """
    require_positive(A0=A0, tau_max=tau_max)
    _check_overflow(A0 * tau_max)
    if A0 * tau_max < ASYMPTOTIC_MIN:
        warnings.warn(
            f"A0*tau_max = {A0 * tau_max:.3g} < {ASYMPTOTIC_MIN}: estimate returned "
            "before the asymptotic regime",
            RegimeWarning,
            stacklevel=2,
        )
    raw = _log_ratio(tau_max, A0)
    extrapolated = 2.0 * raw - _log_ratio(tau_max / 2.0, A0)
    return LyapunovEstimate(value=extrapolated, raw=raw, tau_max=tau_max)
