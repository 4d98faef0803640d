"""The oracles that integrate: geodesic and Jacobi ODEs, and the nested IGC.

Geodesics and Jacobi fields come from ODE integration of their defining
equations, read at the integrator's accepted steps, and the
complexity from the literal nested volume integral (``quad``); none calls
the closed form it validates. Both ODEs are written in numpy over one
sigma = 1 table of `curvature.christoffel`, which ``christoffel_fd`` checks,
divided by sigma: x'' = -Gamma(x', x'), and its linearisation about the
closed-form path, which the Jacobi right-hand side reads through
`geodesics.geodesic_corr` and `geodesics.geodesic_velocity` (it validates J,
not the path).
``igc_numeric`` raises ``ConvergenceError`` when ``quad``'s error bound fails,
the ODE oracles only when ``solve_ivp`` fails: they run no refinement of their
own, and only Tier-1 tests rerun them at a tighter ``OdeSpec``. No battery
check runs an oracle of this module, so ``verify`` loads no scipy: Tier-1
tests hold the ODE oracles, and the ``igc_numeric`` check runs
`battery.igc_gauss`.

Both ODE oracles take a scalar r alone: an array r, span end, ``tau_max``
or ``omega0`` is refused by name through `errors.require_scalar` before any
solve. The ODE engine is ``solve_ivp``'s DOP853 (Hairer, Norsett & Wanner,
Solving ODEs I, II.5), with no dense output.

This module imports scipy.integrate when it loads, and without scipy fails to
load with a ``ModuleNotFoundError`` that names the ``gaussgeo[oracle]`` extra.
It calls ``solve_ivp`` and ``quad`` through its globals, so wrapping them here
counts the oracles' work.
It re-exports the public names of :mod:`gaussgeo.battery` (the battery and
the numpy-only oracles), so ``gaussgeo.oracle`` stays the one public
namespace of every oracle and of `run_verification`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
try:
    from scipy.integrate import quad, solve_ivp
except ModuleNotFoundError as exc:  # an install without the oracle extra
    raise ModuleNotFoundError("gaussgeo.oracle needs scipy, which the gaussgeo[oracle] "
                              "extra installs", name="scipy") from exc

from . import chaos, curvature, geodesics, models
from .battery import (CheckResult, curvature_fd, fisher_metric_numeric,  # noqa: F401
                      igc_gauss, purity_bruteforce, purity_gaussian_state, run_verification)
from .errors import (ConvergenceError, require, require_hyperbolic, require_positive,
                     require_scalar)
from .geodesics import InitialConditions
from .models import ModelParams


@dataclass(frozen=True)
class OdeSpec:
    """Tolerances of the adaptive DOP853 integration behind the ODE oracles.

    Both must be positive and finite: at a NaN tolerance DOP853 never accepts
    a step, and at an infinite one every step passes its error test.
    """

    rtol: float = 1e-10
    atol: float = 1e-12

    def __post_init__(self):
        require_scalar(**vars(self))
        require_positive(rtol=self.rtol, atol=self.atol)


# ---------------------------------------------------------------------------
# Geodesic equations by ODE integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicComparison:
    """Numeric geodesic solution at the integrator's steps against the closed form."""

    tau: np.ndarray          # shape (n,): the accepted steps, both span ends included
    numeric: np.ndarray      # shape (n, 6): mu1, mu2, sigma and their velocities
    max_rel_error: float


def _geodesic_rhs(params: ModelParams):
    # x'' = -Gamma(x', x'), with Gamma the sigma = 1 table over sigma
    G1 = curvature.christoffel(1.0, params)

    def rhs(_t, y):
        v = y[3:]
        return np.concatenate([v, -(G1 @ v) @ v / y[2]])

    return rhs


def _jacobi_rhs(params: ModelParams, ic: InitialConditions):
    # the geodesic equation linearised about the closed-form path, by
    # d_sigma Gamma = -Gamma / sigma: J'' = -2 Gamma(v, J') + Gamma(v, v) J^sigma / sigma
    # = -Gamma(v, w), w = 2 J' - v J^sigma / sigma (|A0 t| kept within the clamp)
    G1 = curvature.christoffel(1.0, params)

    def rhs(t, y):
        sg = geodesics.geodesic_corr(t, params, ic).sigma
        v = geodesics.geodesic_velocity(t, params, ic)
        w = 2.0 * y[3:] - v * (y[2] / sg)
        return np.concatenate([y[3:], -(G1 @ w) @ v / sg])

    return rhs


def _geodesic_start(params: ModelParams, ic: InitialConditions, t0: float):
    # closed-form (mu1, mu2, sigma) and their velocities at t0
    return np.concatenate([geodesics.geodesic_corr(t0, params, ic).as_array(),
                           geodesics.geodesic_velocity(t0, params, ic)])


def _integrate(rhs, y0, t0, t1, spec: OdeSpec):
    # at every accepted step, both span ends included, with no interpolation
    # error: solve_ivp takes no t_eval and builds no dense output
    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=spec.rtol, atol=spec.atol)
    if not sol.success:
        raise ConvergenceError(f"ODE integration failed: {sol.message}")
    return sol.t, sol.y.T


def geodesic_integrate(
    params: ModelParams,
    ic: InitialConditions,
    tau_span: tuple[float, float],
    spec: OdeSpec = OdeSpec(),
) -> GeodesicComparison:
    """Integrate the geodesic equations from closed-form initial data.

    Starts from the closed-form state and velocity at ``tau_span[0]`` and
    reports, over the integrator's accepted steps from one span end to the
    other, the maximum relative deviation from the closed form, measured per
    coordinate against that coordinate's largest magnitude at those steps.

    That error is the integrator's rtol grown by geodesic deviation: nearby
    geodesics separate like cosh(A0 tau), as the Jacobi intensity grows, so
    it stays within a few times rtol cosh(A0 max|tau|) (2.1 at most seen for
    A0 max|tau| <= 25, r <= 0.9 and A0 in [0.9, 20]) and says nothing of the
    closed form past A0 max|tau| ~ 20 at the default rtol.
    """
    require_scalar(r=params.r)
    require(hasattr(tau_span, "__len__") and len(tau_span) == 2,
            lambda: f"tau_span must be a pair of span ends, got {tau_span!r}")
    t0, t1 = (require_scalar(tau_span=end) for end in tau_span)
    # refused before the start state: a NaN end would keep solve_ivp stepping forever
    require(math.isfinite(t0) and math.isfinite(t1) and t0 != t1,
            lambda: f"ODE span ends must be finite and distinct, got {t0}, {t1}")
    ts, ys = _integrate(_geodesic_rhs(params), _geodesic_start(params, ic, t0), t0, t1, spec)
    closed = geodesics.geodesic_corr(ts, params, ic).as_array().T
    error = np.abs(ys[:, :3] - closed) / np.abs(closed).max(axis=0)
    return GeodesicComparison(ts, ys, float(error.max()))


# ---------------------------------------------------------------------------
# Jacobi field as the linearised geodesic flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JacobiComparison:
    """Numeric Jacobi intensity at the integrator's steps against the closed form."""

    tau: np.ndarray             # the accepted steps, from 0 to tau_max
    intensity: np.ndarray       # |J|_g at each of them
    max_rel_error: float        # over taus with A0*tau >= 0.5
    fitted_rate: float          # slope of ln J over the final half-window
    orthogonality_max: float    # max |g(J, u)| along the trajectory


def _orthonormal_seed(params: ModelParams, ic: InitialConditions) -> np.ndarray:
    # g-unit combination orthogonal to the initial velocity (which has no
    # sigma component and equal-and-opposite momentum components)
    start = _geodesic_start(params, ic, 0.0)
    g, v = models.metric_corr3(start[2], params), start[3:]
    w = np.array([1.0, 1.0, 0.5])
    gv = g @ v
    w = w - (w @ gv) / (v @ gv) * v
    return w / math.sqrt(w @ g @ w)


def jacobi_integrate(
    params: ModelParams,
    ic: InitialConditions,
    tau_max: float,
    spec: OdeSpec = OdeSpec(),
    omega0: float = 1.0,
) -> JacobiComparison:
    """Integrate the vector geodesic-deviation equation along the geodesic.

    A Jacobi field is the variation field of a family of geodesics, so it
    obeys x'' = -Gamma(x', x') linearised about the closed-form path with
    velocity v: J'' = -2 Gamma(v, J') + Gamma(v, v) J^sigma / sigma, the
    covariant D^2 J + R(J, v) v = 0 in coordinates. Gamma alone drives it.

    Initial data: J(0) = 0 and DJ/dtau(0) = omega0 * w, omega0 > 0 and
    finite, with w a g-unit vector orthogonal to the velocity; orthogonality
    of J to the velocity is monitored along the whole trajectory. Every
    result is read at the integrator's accepted steps on [0, tau_max],
    tau_max > 0.5/A0.
    """
    require_scalar(r=params.r, tau_max=tau_max, omega0=omega0)
    require_positive(omega0=omega0)
    A0 = geodesics.amplitude_A0(ic)
    require(0.5 / A0 < tau_max,
            lambda: f"tau_max = {tau_max} must exceed 0.5/A0 = {0.5 / A0:.3g}")
    require_hyperbolic(A0, tau_max, "|A0*tau|")
    y0 = np.concatenate([np.zeros(3), omega0 * _orthonormal_seed(params, ic)])
    ts, ys = _integrate(_jacobi_rhs(params, ic), y0, 0.0, tau_max, spec)

    closed = chaos.jacobi_intensity(ts, omega0, A0)
    window = ts >= 0.5 / A0
    fit = ts >= ts[-1] / 2.0
    # the metric along the path, contracted per step
    g = models.metric_corr3(geodesics.geodesic_corr(ts, params, ic).sigma, params)
    J, v = ys[:, :3], geodesics.geodesic_velocity(ts, params, ic).T
    intensity = np.sqrt(np.maximum(np.einsum("...a,...ab,...b->...", J, g, J), 0.0))
    Jgu = (np.einsum("...a,...ab,...b->...", J, g, v)
           / np.sqrt(np.einsum("...a,...ab,...b->...", v, g, v)))
    ortho = np.max(np.abs(Jgu) / np.maximum(intensity, 1e-30))
    error = np.abs(intensity[window] - closed[window]) / closed[window]
    rate = np.polyfit(ts[fit], np.log(intensity[fit]), 1)[0]
    return JacobiComparison(ts, intensity, *map(float, (error.max(), rate, ortho)))


# ---------------------------------------------------------------------------
# Complexity by the literal nested integral
# ---------------------------------------------------------------------------

def igc_numeric(tau: float, params: ModelParams, ic: InitialConditions) -> float:
    """Time-averaged Fisher volume by the literal nested integral.

    The mu integrals are exact (the density does not depend on mu); the sigma
    integral and the time average are adaptive quadratures, up to lambda tau = 20.
    """
    require_positive(tau=tau)
    lam = 2.0 * geodesics.amplitude_A0(ic)
    require(lam * tau <= 20.0,
            lambda: f"lambda*tau = {lam * tau:.3g} > 20: past the range of the nested quad")
    r = require_scalar(tau=tau, r=params.r)
    fac = 1.0 / math.sqrt(1.0 - r * r)
    s0_state = geodesics.geodesic_corr(0.0, params, ic)

    def volume(tp):
        state = geodesics.geodesic_corr(tp, params, ic)
        inner, _ = quad(
            lambda s: 2.0 / s**3, s0_state.sigma, state.sigma,
            epsabs=1e-14, epsrel=1e-12,
        )
        return fac * (state.mu1 - s0_state.mu1) * (state.mu2 - s0_state.mu2) * inner

    total, err = quad(volume, 0.0, tau, epsabs=1e-13, epsrel=1e-11, limit=200)
    result = total / tau
    if err / tau > max(1e-9, 1e-7 * abs(result)):
        raise ConvergenceError(f"IGC time average did not converge (err {err:.3g})")
    return result
