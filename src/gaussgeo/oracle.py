"""The oracles that integrate: geodesic and Jacobi ODEs, and the nested IGC.

Geodesics and Jacobi fields come from ODE integration of their defining
equations (DOP853), and the complexity from the literal nested volume
integral (``quad``); none calls the closed form it validates. One table of
`curvature.christoffel`, which ``christoffel_fd`` checks, drives both ODEs:
x'' = -Gamma(x', x'), and its linearisation about the closed-form path.
Self-tests raise ``ConvergenceError``: the ODE oracles refine through a
tighter ``OdeSpec``, and ``igc_numeric`` tests ``quad``'s error bound.
The battery's ``igc_numeric`` check runs `battery.igc_gauss` instead, so
that ``verify --only complexity`` loads no scipy.

This module imports scipy.integrate when it loads and calls ``solve_ivp`` and
``quad`` through its globals, so wrapping them here counts the oracles' work.
It re-exports the public names of :mod:`gaussgeo.battery` (the battery and
the numpy-only oracles), so ``gaussgeo.oracle`` stays the one public
namespace of every oracle and of `run_verification`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp

from . import chaos, curvature, geodesics, models
from .battery import (CheckResult, curvature_fd, fisher_metric_numeric,  # noqa: F401
                      igc_gauss, purity_bruteforce, purity_gaussian_state, run_verification)
from .errors import ConvergenceError, require
from .geodesics import InitialConditions
from .models import ModelParams


@dataclass(frozen=True)
class OdeSpec:
    """Tolerances of the adaptive DOP853 integration behind the ODE oracles."""

    rtol: float = 1e-10
    atol: float = 1e-12


# ---------------------------------------------------------------------------
# Geodesic equations by ODE integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicComparison:
    """Numeric geodesic solution sampled against the closed form."""

    numeric: np.ndarray      # shape (n, 6): mu1, mu2, sigma and their velocities
    max_rel_error: float


def _christoffel_terms(params: ModelParams):
    # the nonzero (a, b, c, Gamma^a_bc) of the sigma = 1 table as floats: the
    # one Gamma both ODEs sum over (numpy calls on 3-vectors cost more)
    return [(a, b, c, float(G)) for (a, b, c), G in
            np.ndenumerate(curvature.christoffel(1.0, params)) if G]


def _geodesic_rhs(params: ModelParams):
    # x'' = -Gamma(x', x') with Gamma = Gamma_1 / sigma
    terms = _christoffel_terms(params)

    def rhs(_t, y):
        sg, *v = y[2:].tolist()
        acc = [0.0, 0.0, 0.0]
        for a, b, c, G in terms:
            acc[a] -= G * v[b] * v[c]
        return [*v, acc[0] / sg, acc[1] / sg, acc[2] / sg]

    return rhs


def _jacobi_rhs(params: ModelParams, ic: InitialConditions):
    # the geodesic equation linearised about the closed-form path, by
    # d_sigma Gamma = -Gamma / sigma: J'' = -2 Gamma(v, J') + Gamma(v, v) J^sigma / sigma
    terms = _christoffel_terms(params)

    def rhs(t, y):
        sg = geodesics.geodesic_corr(t, params, ic).sigma
        v = geodesics.geodesic_velocity(t, params, ic).tolist()
        Js, *K = y[2:].tolist()
        acc = [0.0, 0.0, 0.0]
        for a, b, c, G in terms:
            acc[a] -= G * v[b] * (2.0 * K[c] - v[c] * Js / sg)
        return [*K, acc[0] / sg, acc[1] / sg, acc[2] / sg]

    return rhs


def _geodesic_start(params: ModelParams, ic: InitialConditions, t0: float):
    # closed-form (mu1, mu2, sigma) and their velocities at t0
    return np.concatenate([
        geodesics.geodesic_corr(t0, params, ic).as_array(),
        geodesics.geodesic_velocity(t0, params, ic),
    ])


def _integrate(rhs, y0, t0, t1, spec: OdeSpec, t_eval=None):
    # samples at t_eval, or at every accepted step when t_eval is None
    sol = solve_ivp(
        rhs, (t0, t1), y0, method="DOP853", rtol=spec.rtol, atol=spec.atol, t_eval=t_eval
    )
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

    Starts from the closed-form state and velocity at ``tau_span[0]``,
    samples 201 points of the span, and reports the maximum relative
    deviation from the closed form, measured per coordinate against that
    coordinate's largest magnitude on the span.
    """
    t0, t1 = tau_span
    y0 = _geodesic_start(params, ic, t0)
    t_eval = np.linspace(t0, t1, 201)
    ts, ys = _integrate(_geodesic_rhs(params), y0, t0, t1, spec, t_eval=t_eval)
    closed = geodesics.geodesic_corr(ts, params, ic).as_array().T
    scale = np.abs(closed).max(axis=0)
    rel = np.abs(ys[:, :3] - closed) / scale[None, :]
    return GeodesicComparison(ys, float(rel.max()))


# ---------------------------------------------------------------------------
# Jacobi field as the linearised geodesic flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JacobiComparison:
    """Numeric Jacobi intensity sampled against the closed form."""

    intensity: np.ndarray
    max_rel_error: float        # over taus with A0*tau >= 0.5
    fitted_rate: float          # slope of ln J over the final half-window
    orthogonality_max: float    # max |g(J, u)| along the trajectory


def _orthonormal_seed(params: ModelParams, ic: InitialConditions) -> np.ndarray:
    # g-unit combination orthogonal to the initial velocity (which has no
    # sigma component and equal-and-opposite momentum components)
    g = models.metric_corr3(geodesics.geodesic_corr(0.0, params, ic).sigma, params)
    w = np.array([1.0, 1.0, 0.5])
    v = geodesics.geodesic_velocity(0.0, params, ic)
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

    Initial data: J(0) = 0 and DJ/dtau(0) = omega0 * w with w a g-unit
    vector orthogonal to the velocity; orthogonality of J to the velocity
    is monitored along the whole trajectory. The run is sampled at 400
    points of [0, tau_max].
    """
    A0 = geodesics.amplitude_A0(ic)
    w = _orthonormal_seed(params, ic)
    y0 = np.concatenate([np.zeros(3), omega0 * w])
    t_eval = np.linspace(0.0, tau_max, 400)
    ts, ys = _integrate(_jacobi_rhs(params, ic), y0, 0.0, tau_max, spec, t_eval=t_eval)

    # g = g1 / sigma^2 along the path, contracted per sample
    g1 = models.metric_corr3(1.0, params)
    s2 = geodesics.geodesic_corr(ts, params, ic).sigma ** 2
    J, v = ys[:, :3], geodesics.geodesic_velocity(ts, params, ic).T
    intensity = np.sqrt(np.maximum(np.einsum("ia,ab,ib->i", J, g1, J) / s2, 0.0))
    Jgu = np.einsum("ia,ab,ib->i", J, g1, v) / np.sqrt(
        np.einsum("ia,ab,ib->i", v, g1, v) * s2)
    ortho = np.max(np.abs(Jgu) / np.maximum(intensity, 1e-30))

    closed = chaos.jacobi_intensity(ts, omega0, A0)
    window = ts >= 0.5 / A0
    error = np.abs(intensity[window] - closed[window]) / closed[window]
    fit = ts >= ts[-1] / 2.0
    rate = np.polyfit(ts[fit], np.log(intensity[fit]), 1)[0]
    return JacobiComparison(intensity, float(error.max()), float(rate), float(ortho))



# ---------------------------------------------------------------------------
# Complexity by the literal nested integral
# ---------------------------------------------------------------------------

def igc_numeric(tau: float, params: ModelParams, ic: InitialConditions) -> float:
    """Time-averaged Fisher volume by the literal nested integral.

    The mu integrals are exact (the density does not depend on mu); the
    sigma integral and the time average are adaptive quadratures.
    """
    lam = 2.0 * geodesics.amplitude_A0(ic)
    require(lam * tau <= 20.0,
            lambda: f"lambda*tau = {lam * tau:.3g} > 20: cosh overflow guard")
    r = params.r
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
