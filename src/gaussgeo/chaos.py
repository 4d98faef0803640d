"""Geodesic-spread chaos indicators: Jacobi fields and Lyapunov exponents.

On a maximally symmetric manifold the geodesic-deviation (Jacobi) equation
collapses to the scalar oscillator J'' + Q J = 0 with the constant

    Q = R ||v||^2 / (n(n-1)) = -A0^2,

using R = -3/2, n = 3 and the conserved squared velocity ||v||^2 = 4 A0^2
of the closed-form geodesics. Q < 0 makes the deviation grow like sinh, and
the growth-rate indicator (the Riemannian analogue of a Lyapunov exponent)
is lambda = 2 sqrt(-Q) = 2 A0 -- notably independent of the correlation r.

`jacobi_intensity` broadcasts over a numpy array of tau, and
`lyapunov_estimate` refuses an array omega0, A0 or tau_max by name. Both
reject a NaN A0 tau, or one past the overflow guard
`errors.require_hyperbolic` (|A0 tau| <= 700), with a DomainError; A0,
omega0 and tau_max must be positive and finite, and an A0 whose Q or lambda
overflows is refused.

`lyapunov_estimate` evaluates the defining log-ratio at a finite horizon.
The raw value converges only like 1/tau (the limit sheds a constant inside
the log), so the reported estimate Richardson-extrapolates the last two
horizon doublings, which kills the 1/tau term and leaves an exponentially
small error.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import errors, geodesics, models
from ._elementwise import scalar_or_array
from .errors import RegimeWarning, require, require_hyperbolic, require_positive, require_scalar

#: Minimum A0 * tau_max for the asymptotic Lyapunov regime.
ASYMPTOTIC_MIN = 5.0


@dataclass(frozen=True)
class LyapunovEstimate:
    """Finite-horizon Lyapunov evaluation.

    ``value`` is the extrapolated estimate, ``raw`` the plain finite-horizon
    log-ratio at tau_max.
    """

    value: float
    raw: float


def jlc_coefficient(A0: float) -> float:
    """Constant Q of the reduced Jacobi equation: -A0^2."""
    require_positive(A0=A0)
    require(A0 <= math.sqrt(sys.float_info.max),
            lambda: f"A0 = {A0} overflows the JLC coefficient -A0^2")
    return -A0 * A0


def velocity_norm_squared(ic: geodesics.InitialConditions) -> float:
    """Conserved squared velocity g_ab v^a v^b = 4 A0^2, at every tau and r."""
    A0 = geodesics.amplitude_A0(ic)
    return 4.0 * A0 * A0


def velocity_norm_squared_contracted(params: models.ModelParams,
                                     ic: geodesics.InitialConditions, tau):
    """Direct contraction of the analytic velocity with the metric, per tau.

    The explicit counterpart of the constant value, held to it by the tests.
    A tau past the clamp or the metric's range is refused by name.
    """
    require_hyperbolic(geodesics.amplitude_A0(ic) * tau, "|A0*tau|")
    try:
        g = models.metric_corr3(geodesics.geodesic_corr(tau, params, ic).sigma, params)
    except errors.DomainError as exc:  # it names the spread, which the caller did not pass
        raise errors.DomainError(f"tau takes the spread past the metric's range: {exc}") from exc
    v = geodesics.geodesic_velocity(tau, params, ic)  # the components lead
    return scalar_or_array(np.einsum("a...,...ab,b...->...", v, g, v))


def jacobi_intensity(tau, omega0: float, A0: float):
    """Jacobi-field intensity J(tau) = (omega0/A0) sinh(A0 tau), scalar or array."""
    require_positive(omega0=omega0, A0=A0)
    arg = A0 * tau
    require_hyperbolic(arg, "|A0*tau|")
    return scalar_or_array(omega0 / A0 * np.sinh(arg))


def lyapunov_exponent(A0: float) -> float:
    """Asymptotic growth-rate indicator lambda = 2 A0; the same for every r."""
    require_positive(A0=A0)
    require(A0 <= 0.5 * sys.float_info.max, lambda: f"A0 = {A0} overflows lambda = 2 A0")
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
    for signature symmetry with `jacobi_intensity`; it must still be
    positive and finite.
    """
    require_scalar(omega0=omega0, A0=A0, tau_max=tau_max)
    require_positive(omega0=omega0, A0=A0, tau_max=tau_max)
    require_hyperbolic(A0 * tau_max, "|A0*tau|")
    if A0 * tau_max < ASYMPTOTIC_MIN:
        warnings.warn(
            f"A0*tau_max = {A0 * tau_max:.3g} < {ASYMPTOTIC_MIN}: estimate returned "
            "before the asymptotic regime",
            RegimeWarning,
            stacklevel=2,
        )
    raw = _log_ratio(tau_max, A0)
    extrapolated = 2.0 * raw - _log_ratio(tau_max / 2.0, A0)
    return LyapunovEstimate(value=extrapolated, raw=raw)
