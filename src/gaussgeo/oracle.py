"""The oracles that integrate: geodesic and Jacobi ODEs, and the nested IGC.

Geodesics and Jacobi fields come from ODE integration of their defining
equations, read at the integrator's accepted steps, and the
complexity from the literal nested volume integral (``quad``); none calls
the closed form it validates. One table of
`curvature.christoffel`, which ``christoffel_fd`` checks, drives both ODEs:
x'' = -Gamma(x', x'), and its linearisation about the closed-form path, which
the Jacobi right-hand side reads through the geodesics path helpers in Python
floats, their constants computed once per run (it validates J, not the path).
``igc_numeric`` raises ``ConvergenceError`` when ``quad``'s error bound fails,
the ODE oracles only when ``solve_ivp`` fails: they run no refinement of their
own, and only Tier-1 tests rerun them at a tighter ``OdeSpec``. No battery
check runs an oracle of this module, so ``verify`` loads no scipy: Tier-1
tests hold the ODE oracles, and the ``igc_numeric`` check runs
`battery.igc_gauss`.

Both ODE oracles take a scalar r or a 1-D array of k correlations and
integrate the k systems as one solve of 6k states, r-major in blocks of 6,
so the integrator's per-step cost is paid once; a scalar r is k = 1, with the
same arithmetic in the same order, and a 2-D or empty r is refused before any
solve. For an array r each report field but ``tau`` gains a k axis: the
start state and the path constants come from one closed-form call over r,
and the report from the closed forms on the steps as a column against r,
each block's growth rate fit alone.

The ODE engine is ``solve_ivp``'s DOP853 (Hairer, Norsett & Wanner, Solving
ODEs I, II.5), with no dense output.

Each right-hand side loops over the r blocks, each summing its own paired
table, built once per solve, that keeps each symmetric pair
Gamma^a_bc = Gamma^a_cb once; the Jacobi one forms tanh(A0 t) and
cosh(A0 t) once per call, J^sigma/sigma and w = 2 J' - v J^sigma/sigma once
per call and block, and sums -Gamma(v, w).

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
from ._elementwise import scalar_or_array
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
        require_positive(rtol=self.rtol, atol=self.atol)


# ---------------------------------------------------------------------------
# Geodesic equations by ODE integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicComparison:
    """Numeric geodesic solution at the integrator's steps against the closed form."""

    tau: np.ndarray          # shape (n,): the accepted steps, both span ends included
    numeric: np.ndarray      # shape (n, 6), or (n, k, 6): mu1, mu2, sigma and their velocities
    max_rel_error: float     # or shape (k,)


def _blocks(params: ModelParams) -> list[ModelParams]:
    # the k correlations that the ODE oracles integrate as one system of 6k
    # states, r-major in blocks of 6, one ModelParams each: a scalar r is k = 1
    r = np.asarray(params.r)
    require(r.ndim <= 1 and r.size > 0, lambda: (
        f"r must be a scalar or a non-empty 1-D array of correlations, got shape {r.shape}"))
    return [ModelParams(x) for x in r.reshape(-1).tolist()]


def _christoffel_terms(params: ModelParams):
    # the nonzero (a, b, c, Gamma^a_bc) of the sigma = 1 table as floats: the
    # one Gamma both ODEs sum over, each right-hand side through its paired
    # table built once per solve (numpy calls on 3-vectors cost more)
    return [(a, b, c, float(G)) for (a, b, c), G in
            np.ndenumerate(curvature.christoffel(1.0, params)) if G]


def _pair_terms(params: ModelParams):
    # each symmetric pair Gamma^a_bc = Gamma^a_cb once (b <= c), the diagonal
    # halved: Gamma(x, y)^a is the sum of G (x_b y_c + x_c y_b) over the pairs
    return [(a, b, c, G if b < c else 0.5 * G)
            for a, b, c, G in _christoffel_terms(params) if b <= c]


def _geodesic_rhs(params: ModelParams):
    # x'' = -Gamma(x', x') with Gamma = Gamma_1 / sigma, per block of 6 states:
    # the pairs doubled and their velocity indices shifted to index the state
    # (x, x') itself
    blocks = [(6 * i, [(a, 6 * i + b + 3, 6 * i + c + 3, 2.0 * G)
                       for a, b, c, G in _pair_terms(p)])
              for i, p in enumerate(_blocks(params))]

    def rhs(_t, y):
        x = y.tolist()
        out = []
        for o, terms in blocks:
            acc = [0.0, 0.0, 0.0]
            for a, b, c, G in terms:
                acc[a] -= G * x[b] * x[c]
            sg = x[o + 2]
            out += [x[o + 3], x[o + 4], x[o + 5], acc[0] / sg, acc[1] / sg, acc[2] / sg]
        return out

    return rhs


def _jacobi_rhs(params: ModelParams, ic: InitialConditions):
    # the geodesic equation linearised about the closed-form path, by
    # d_sigma Gamma = -Gamma / sigma: J'' = -2 Gamma(v, J') + Gamma(v, v) J^sigma / sigma
    # = -Gamma(v, w) with w = 2 J' - v J^sigma / sigma, formed once per call and
    # block. sigma and v come from the closed forms' path helpers in Python
    # floats, their constants hoisted, from tanh(A0 t) and cosh(A0 t), which do
    # not depend on r; jacobi_integrate keeps |A0 t| within the clamp
    A0, m, spread = geodesics._path_constants(ic, params.r)
    blocks = [(6 * i, m_i, _pair_terms(p))
              for i, (p, m_i) in enumerate(zip(_blocks(params), np.ravel(m).tolist()))]

    def rhs(t, y):
        th, ch = math.tanh(A0 * t), math.cosh(A0 * t)
        x = y.tolist()
        out = []
        for o, m, terms in blocks:
            sg = geodesics._state(m, spread, th, ch)[2]
            v = geodesics._velocity(A0, m, spread, th, ch)
            _, _, Js, K0, K1, K2 = x[o:o + 6]
            u = Js / sg
            w = (2.0 * K0 - v[0] * u, 2.0 * K1 - v[1] * u, 2.0 * K2 - v[2] * u)
            acc = [0.0, 0.0, 0.0]
            for a, b, c, G in terms:
                acc[a] -= G * (v[b] * w[c] + v[c] * w[b])
            out += [K0, K1, K2, acc[0] / sg, acc[1] / sg, acc[2] / sg]
        return out

    return rhs


def _geodesic_start(params: ModelParams, ic: InitialConditions, t0: float):
    # closed-form (mu1, mu2, sigma) and their velocities at t0, r-major in
    # blocks of 6
    return np.concatenate([
        geodesics.geodesic_corr(t0, params, ic).as_array(),
        geodesics.geodesic_velocity(t0, params, ic),
    ]).T.ravel()


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
    ``params.r`` may be a 1-D array of k correlations: the k geodesics are
    then integrated as one system and reported per r.
    """
    rhs = _geodesic_rhs(params)  # refuses a bad r before any solve
    t0, t1 = tau_span
    # refused before the start state: a NaN end would keep solve_ivp stepping forever
    require(math.isfinite(t0) and math.isfinite(t1) and t0 != t1,
            lambda: f"ODE span ends must be finite and distinct, got {t0}, {t1}")
    ts, ys = _integrate(rhs, _geodesic_start(params, ic, t0), t0, t1, spec)
    numeric = ys.reshape(len(ts), *np.shape(params.r), 6)
    steps = ts[:, None] if np.ndim(params.r) else ts  # a column against an array r
    closed = np.moveaxis(geodesics.geodesic_corr(steps, params, ic).as_array(), 0, -1)
    error = np.abs(numeric[..., :3] - closed) / np.abs(closed).max(axis=0)
    return GeodesicComparison(ts, numeric, scalar_or_array(error.max(axis=(0, -1))))


# ---------------------------------------------------------------------------
# Jacobi field as the linearised geodesic flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JacobiComparison:
    """Numeric Jacobi intensity at the integrator's steps against the closed form."""

    tau: np.ndarray             # the accepted steps, from 0 to tau_max
    intensity: np.ndarray       # |J|_g at each of them: shape (n,), or (n, k)
    max_rel_error: float        # over taus with A0*tau >= 0.5; each float or shape (k,)
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
    tau_max > 0.5/A0. ``params.r`` may be a 1-D array of k correlations: the
    k fields are then integrated as one system and reported per r.
    """
    blocks = _blocks(params)
    require_positive(omega0=omega0)
    A0 = geodesics.amplitude_A0(ic)
    require(0.5 / A0 < tau_max,
            lambda: f"tau_max = {tau_max} must exceed 0.5/A0 = {0.5 / A0:.3g}")
    require_hyperbolic(A0 * tau_max, "|A0*tau|")
    y0 = np.concatenate([np.concatenate([np.zeros(3), omega0 * _orthonormal_seed(p, ic)])
                         for p in blocks])
    ts, ys = _integrate(_jacobi_rhs(params, ic), y0, 0.0, tau_max, spec)

    steps = ts[:, None] if np.ndim(params.r) else ts  # a column against an array r
    closed = chaos.jacobi_intensity(steps, omega0, A0)
    window = ts >= 0.5 / A0
    fit = ts >= ts[-1] / 2.0
    # the metric along the path, contracted per step and r
    g = models.metric_corr3(geodesics.geodesic_corr(steps, params, ic).sigma, params)
    J = ys.reshape(len(ts), *np.shape(params.r), 6)[..., :3]
    v = np.moveaxis(geodesics.geodesic_velocity(steps, params, ic), 0, -1)
    intensity = np.sqrt(np.maximum(np.einsum("...a,...ab,...b->...", J, g, J), 0.0))
    Jgu = (np.einsum("...a,...ab,...b->...", J, g, v)
           / np.sqrt(np.einsum("...a,...ab,...b->...", v, g, v)))
    ortho = np.max(np.abs(Jgu) / np.maximum(intensity, 1e-30), axis=0)
    error = np.abs(intensity[window] - closed[window]) / closed[window]
    # each column fit alone: lstsq over several columns at once rounds them differently
    rate = np.apply_along_axis(lambda y: np.polyfit(ts[fit], y, 1)[0], 0, np.log(intensity[fit]))
    return JacobiComparison(ts, intensity, *map(scalar_or_array, (error.max(axis=0), rate, ortho)))


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
