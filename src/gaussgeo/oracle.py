"""Independent numeric verification engines.

Everything the closed-form modules claim is re-derived here from a more
primitive representation: Fisher metrics by quadrature of the defining
expectation, curvature by finite differences of the metric, geodesics and
Jacobi fields by ODE integration of the defining equations, purity by
brute-force quadrature of the four-fold trace integral, and the complexity
by the literal nested volume integral. None of these calls the closed-form
operation it validates.

Oracles carry refinement self-tests (``check_convergence=True``): doubling
the quadrature order or halving the step must move the result by less than
a tenth of the comparison tolerance, otherwise ``ConvergenceError``.

`run_verification` drives the whole battery and returns structured results;
the command-line ``verify`` command is a thin formatter over it. Each check
yields its per-point residuals and `run_verification` scores it by their
maximum, which propagates NaN: a non-finite residual at any point fails the
check's band.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp

from . import chaos, complexity, curvature, geodesics, models, scattering
from .errors import (
    ConvergenceError, DomainError, require, require_correlation, require_positive
)
from .geodesics import InitialConditions
from .groups import GROUPS
from .models import ModelParams
from .scattering import ScatteringConfig


# Half-width of the momentum quadrature boxes in packet spreads; narrower
# boxes truncate the Gaussians.
CUTOFF_SIGMAS = 8.0


@dataclass(frozen=True)
class OdeSpec:
    """Tolerances of the adaptive RK45 integration behind the ODE oracles."""

    rtol: float = 1e-10
    atol: float = 1e-12


# ---------------------------------------------------------------------------
# Fisher metric by quadrature of the defining expectation
# ---------------------------------------------------------------------------

def _scores_corr3(xy, mu1, mu2, sg, r):
    dx, dy = xy[0] - mu1, xy[1] - mu2
    omr2 = 1.0 - r * r
    qt = dx * dx - 2.0 * r * dx * dy + dy * dy
    return np.array(
        [
            (dx - r * dy) / (sg * sg * omr2),
            (dy - r * dx) / (sg * sg * omr2),
            -2.0 / sg + qt / (sg**3 * omr2),
        ]
    )


def _scores_corr4(xy, mux, muy, sx, sy, r):
    dx, dy = xy[0] - mux, xy[1] - muy
    omr2 = 1.0 - r * r
    return np.array(
        [
            (dx / sx**2 - r * dy / (sx * sy)) / omr2,
            -1.0 / sx + (dx**2 / sx**3 - r * dx * dy / (sx**2 * sy)) / omr2,
            (dy / sy**2 - r * dx / (sx * sy)) / omr2,
            -1.0 / sy + (dy**2 / sy**3 - r * dx * dy / (sx * sy**2)) / omr2,
        ]
    )


def _fisher_quadrature(mean, cov, score_fn, order):
    # E[s s^T] under N(mean, cov): the Gauss-Hermite product mesh, mapped
    # through the Cholesky factor, summed as one weighted product
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    z = np.stack(np.meshgrid(nodes, nodes, indexing="ij")).reshape(2, -1)
    xy = mean[:, None] + math.sqrt(2.0) * np.linalg.cholesky(cov) @ z
    s = score_fn(xy)
    w = np.outer(weights, weights).ravel()
    return (s * w) @ s.T / math.pi


def fisher_metric_numeric(
    model: str,
    state,
    params: ModelParams,
    check_convergence: bool = False,
) -> np.ndarray:
    """Fisher metric g_ab = E[d_a ln P d_b ln P] by Gaussian quadrature.

    ``model`` selects the family: "corr3" (state: Macrostate3) or "corr4"
    (state: Macrostate4). Scores are analytic; only the expectation is
    numeric, on a 40 x 40 Gauss-Hermite product mesh.
    """
    if model == "corr3":
        r, sg = params.r, state.sigma
        mean = np.array([state.mu1, state.mu2])
        cov = sg * sg * np.array([[1.0, r], [r, 1.0]])
        score = lambda xy: _scores_corr3(xy, state.mu1, state.mu2, sg, r)
    elif model == "corr4":
        r = params.r
        sx, sy = state.sigma_x, state.sigma_y
        mean = np.array([state.mu_x, state.mu_y])
        cov = np.array([[sx * sx, r * sx * sy], [r * sx * sy, sy * sy]])
        score = lambda xy: _scores_corr4(xy, state.mu_x, state.mu_y, sx, sy, r)
    else:
        raise DomainError(f"unknown model {model!r}")

    g = _fisher_quadrature(mean, cov, score, 40)
    if check_convergence:
        g2 = _fisher_quadrature(mean, cov, score, 80)
        if np.abs(g - g2).max() > 1e-7:
            raise ConvergenceError(
                f"Fisher quadrature drift {np.abs(g - g2).max():.3g} at order doubling"
            )
    return g


# ---------------------------------------------------------------------------
# Geodesic equations by ODE integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicComparison:
    """Numeric geodesic solution sampled against the closed form."""

    taus: np.ndarray
    numeric: np.ndarray      # shape (n, 3): mu1, mu2, sigma
    closed: np.ndarray
    max_rel_error: float


def _geodesic_rhs(r):
    d = r * r - 1.0

    def rhs(_t, y):
        mu1d, mu2d, sigd = y[3], y[4], y[5]
        sig = y[2]
        return [
            mu1d,
            mu2d,
            sigd,
            2.0 * mu1d * sigd / sig,
            2.0 * mu2d * sigd / sig,
            sigd * sigd / sig
            + (mu1d * mu1d + mu2d * mu2d) / (4.0 * sig * d)
            - r * mu1d * mu2d / (2.0 * sig * d),
        ]

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
        rhs, (t0, t1), y0, method="RK45", rtol=spec.rtol, atol=spec.atol, t_eval=t_eval
    )
    if not sol.success:
        raise ConvergenceError(f"ODE integration failed: {sol.message}")
    return sol.t, sol.y.T


def geodesic_integrate(
    params: ModelParams,
    ic: InitialConditions,
    tau_span: tuple[float, float],
    spec: OdeSpec = OdeSpec(),
    n_samples: int = 201,
) -> GeodesicComparison:
    """Integrate the geodesic equations from closed-form initial data.

    Starts from the closed-form state and velocity at ``tau_span[0]`` and
    reports the maximum relative deviation from the closed form, measured
    per coordinate against that coordinate's largest magnitude on the span.
    """
    t0, t1 = tau_span
    y0 = _geodesic_start(params, ic, t0)
    t_eval = np.linspace(t0, t1, n_samples)
    ts, ys = _integrate(_geodesic_rhs(params.r), y0, t0, t1, spec, t_eval=t_eval)
    closed = geodesics.geodesic_corr(ts, params, ic).as_array().T
    scale = np.abs(closed).max(axis=0)
    rel = np.abs(ys[:, :3] - closed) / scale[None, :]
    return GeodesicComparison(ts, ys[:, :3], closed, float(rel.max()))


def geodesic_roundtrip_error(
    params: ModelParams,
    ic: InitialConditions,
    tau_span: tuple[float, float],
    spec: OdeSpec = OdeSpec(),
) -> float:
    """Forward-then-backward integration error at the start state (reversibility)."""
    t0, t1 = tau_span
    y0 = _geodesic_start(params, ic, t0)
    rhs = _geodesic_rhs(params.r)
    _, fwd = _integrate(rhs, y0, t0, t1, spec)
    _, back = _integrate(rhs, fwd[-1], t1, t0, spec)
    scale = np.maximum(np.abs(y0), 1.0)
    return float(np.abs((back[-1] - y0) / scale).max())


# ---------------------------------------------------------------------------
# Jacobi field by integrating the full vector deviation equation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JacobiComparison:
    """Numeric Jacobi intensity sampled against the closed form."""

    taus: np.ndarray
    intensity: np.ndarray
    closed: np.ndarray
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
    n_samples: int = 400,
) -> JacobiComparison:
    """Integrate the vector geodesic-deviation equation along the geodesic.

    Initial data: J(0) = 0 and DJ/dtau(0) = omega0 * w with w a g-unit
    vector orthogonal to the velocity; orthogonality of J to the velocity
    is monitored along the whole trajectory.
    """
    A0 = geodesics.amplitude_A0(ic)
    w = _orthonormal_seed(params, ic)
    # The r-only tensors at sigma = 1; the exact sigma scalings
    # Gamma ~ 1/sigma, d_sigma Gamma = -Gamma/sigma and g^-1 R ~ 1/sigma^2
    # (checked by christoffel_fd and riemann_fd) carry them along the path.
    G1 = curvature.christoffel(1.0, params)
    S1 = np.einsum(
        "ae,ebcd->abcd",
        models.metric_corr3_inverse(1.0, params),
        curvature.riemann(1.0, params),
    )

    def rhs(t, y):
        J, K = y[:3], y[3:]
        sg = geodesics.geodesic_corr(t, params, ic).sigma
        v = geodesics.geodesic_velocity(t, params, ic)
        acc = geodesics.geodesic_acceleration(t, params, ic)
        # Gv[a, b] = Gamma^a_bc v^c, the connection contracted with the velocity
        Gv = (G1 @ v) / sg
        Jdd = (
            -2.0 * Gv @ K
            - (G1 @ acc) @ J / sg
            + v[2] / sg * Gv @ J
            - Gv @ Gv @ J
            - ((S1 @ v) @ J) @ v / sg**2
        )
        return np.concatenate([K, Jdd])

    y0 = np.concatenate([np.zeros(3), omega0 * w])
    t_eval = np.linspace(0.0, tau_max, n_samples)
    ts, ys = _integrate(rhs, y0, 0.0, tau_max, spec, t_eval=t_eval)

    # g = g1 / sigma^2 along the path, contracted per sample
    g1 = models.metric_corr3(1.0, params)
    s2 = geodesics.geodesic_corr(ts, params, ic).sigma ** 2
    J, v = ys[:, :3], geodesics.geodesic_velocity(ts, params, ic).T
    intensity = np.sqrt(np.maximum(np.einsum("ia,ab,ib->i", J, g1, J) / s2, 0.0))
    Jgu = np.einsum("ia,ab,ib->i", J, g1, v) / np.sqrt(
        np.einsum("ia,ab,ib->i", v, g1, v) * s2)
    ortho = np.max(np.abs(Jgu) / np.maximum(intensity, 1e-30))

    closed = chaos.jacobi_intensity(ts, omega0, A0)
    window = (ts >= 0.5 / A0)
    rel = np.abs(intensity[window] - closed[window]) / closed[window]

    fit_window = ts >= ts[-1] / 2.0
    slope = np.polyfit(ts[fit_window], np.log(intensity[fit_window]), 1)[0]
    return JacobiComparison(
        ts, intensity, closed, float(rel.max()), float(slope), float(ortho)
    )


# ---------------------------------------------------------------------------
# Curvature by finite differences
# ---------------------------------------------------------------------------

def curvature_fd(
    sigma: float, params: ModelParams, step: float | None = None
) -> curvature.CurvatureBundle:
    """Curvature tensors from central differences of the metric.

    Christoffels come from differencing the closed-form metric; Riemann
    from differencing the closed-form Christoffels (plus their quadratic
    terms); Ricci and Weyl are assembled from those. A Richardson check on
    the Christoffels guards against a bad step choice.
    """
    if step is None:
        step = 1e-5 * sigma

    def christoffel_at(h):
        ginv = np.linalg.inv(models.metric_corr3(sigma, params))
        dg = (
            models.metric_corr3(sigma + h, params)
            - models.metric_corr3(sigma - h, params)
        ) / (2.0 * h)
        dgf = np.zeros((3, 3, 3))
        dgf[2] = dg  # the metric depends on sigma only
        return 0.5 * (
            np.einsum("ad,bdc->abc", ginv, dgf)
            + np.einsum("ad,cbd->abc", ginv, dgf)
            - np.einsum("ad,dbc->abc", ginv, dgf)
        )

    G_fd = christoffel_at(step)
    richardson = np.abs(G_fd - christoffel_at(step / 2.0)).max()
    if richardson > 1e-4 / sigma:
        raise ConvergenceError(
            f"Christoffel finite-difference step {step:.3g} fails the "
            f"Richardson check (drift {richardson:.3g})"
        )

    dG = np.zeros((3, 3, 3, 3))  # dG[e, a, b, c] = d_e Gamma^a_bc
    dG[2] = (
        curvature.christoffel(sigma + step, params)
        - curvature.christoffel(sigma - step, params)
    ) / (2.0 * step)
    G = curvature.christoffel(sigma, params)
    # R^a_bcd = d_c G^a_bd - d_d G^a_bc + G^a_fc G^f_bd - G^a_fd G^f_bc
    Rup = (
        np.einsum("cabd->abcd", dG)
        - np.einsum("dabc->abcd", dG)
        + np.einsum("afc,fbd->abcd", G, G)
        - np.einsum("afd,fbc->abcd", G, G)
    )
    g = models.metric_corr3(sigma, params)
    riem = np.einsum("ae,ebcd->abcd", g, Rup)
    ginv = np.linalg.inv(g)
    ric = np.einsum("bd,abcd->ac", ginv, riem)
    scal = float(np.einsum("ac,ac->", ginv, ric))
    weyl_fd = riem - (
        np.einsum("bd,ac->abcd", ric, g) - np.einsum("bc,ad->abcd", ric, g)
    ) / 2.0
    # coordinate-plane sectional curvatures R_ijij / (g_ii g_jj - g_ij^2)
    den = np.outer(np.diag(g), np.diag(g)) - g * g
    K = np.divide(np.einsum("ijij->ij", riem), den,
                  out=np.full((3, 3), np.nan), where=~np.eye(3, dtype=bool))
    return curvature.CurvatureBundle(
        christoffel=G_fd, riemann=riem, ricci=ric, scalar=scal, sectional=K, weyl=weyl_fd
    )


# ---------------------------------------------------------------------------
# Brute-force purity
# ---------------------------------------------------------------------------

def _legendre_grid(center: float, half_width: float, order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return center + half_width * nodes, half_width * weights


def _momentum_mesh(cfg: ScatteringConfig, order: int):
    # Gauss-Legendre product mesh (K1, K2) about the packet centres +k0 and
    # -k0, CUTOFF_SIGMAS spreads wide, with the per-axis weights
    half = CUTOFF_SIGMAS * cfg.sigma_k0
    k1g, w1 = _legendre_grid(cfg.k0, half, order)
    k2g, w2 = _legendre_grid(-cfg.k0, half, order)
    K1, K2 = np.meshgrid(k1g, k2g, indexing="ij")
    return K1, K2, w1, w2


def _post_collision_psi(cfg: ScatteringConfig, K1, K2) -> np.ndarray:
    # unnormalized two-particle wave function at t = 0 after the collision,
    # with the constant amplitude f = -a_s
    Krel = 0.5 * (K1 - K2)
    Ktot = K1 + K2
    s2 = cfg.sigma_k0**2
    envelope = np.exp(-(Ktot**2 + 4.0 * (Krel - cfg.k0) ** 2) / (8.0 * s2))
    rho_k = 4.0j * (cfg.k0 - 1.0j * s2 * cfg.R0) * Krel**2 * (-cfg.a_s) / s2
    phase = np.exp(-1.0j * (Krel - cfg.k0) * cfg.R0)
    return envelope * (1.0 + rho_k) * phase


def _reduced_purity(psi: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> float:
    # Tr(M^2) of the numerically normalized discretized reduced density
    # M[i,k] = sum_j w_i^(1/2) w_k^(1/2) w_j psi(k_i, k_j) conj(psi(k_k, k_j))
    B = np.sqrt(w1)[:, None] * psi * np.sqrt(w2)[None, :]
    M = B @ B.conj().T
    M /= np.real(np.trace(M))
    return float(np.real(np.einsum("ik,ki->", M, M)))


def purity_bruteforce(cfg: ScatteringConfig, check_convergence: bool = False) -> float:
    """Purity Tr(rho_1^2) by quadrature of the four-fold trace integral.

    Builds the post-collision two-particle wave function at t = 0 with the
    constant amplitude f = -a_s on a 64 x 64 Gauss-Legendre mesh, normalizes
    numerically, and contracts the discretized reduced density matrix:
    P = Tr(M^2) with
    M[i,k] = sum_j w_i^(1/2) w_k^(1/2) w_j psi(k_i, k_j) conj(psi(k_k, k_j)).

    Note: for this state the purity deficit is second order in the
    scattering length, 1 - P = 8 (k0^2 + sigma^4 R0^2) a_s^2 + O(a_s^3).
    The first-order admixture 2 Re(rho) cancels exactly between the trace
    numerator and the squared normalization, so only the part of rho(k)
    that couples k1 and k2 (the bilinear term of k^2 = ((k1-k2)/2)^2)
    contributes, and it enters squared.
    """

    def compute(order):
        K1, K2, w1, w2 = _momentum_mesh(cfg, order)
        return _reduced_purity(_post_collision_psi(cfg, K1, K2), w1, w2)

    p = compute(64)
    if check_convergence:
        p2 = compute(128)
        if abs(p - p2) > 2e-7:
            raise ConvergenceError(
                f"purity quadrature drift {abs(p - p2):.3g} at order doubling"
            )
    return p


def purity_gaussian_state(cfg: ScatteringConfig, r: float) -> float:
    """Purity of the correlated-Gaussian pure state (square root of the
    identified post-collision density), by the same trace quadrature.

    Closed form sqrt(1 - r^2); serves as an exactly-solvable anchor for the
    trace machinery and as the quantum-side purity of the identified state.
    """
    require_correlation(r)
    K1, K2, w1, w2 = _momentum_mesh(cfg, 64)
    d1, d2 = K1 - cfg.k0, K2 + cfg.k0
    s2 = cfg.sigma_k0**2
    q = (d1 * d1 - 2.0 * r * d1 * d2 + d2 * d2) / s2
    return _reduced_purity(np.exp(-q / (4.0 * (1.0 - r * r))), w1, w2)


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


# ---------------------------------------------------------------------------
# Dimensional reduction of the isotropic 3D product state
# ---------------------------------------------------------------------------

def dimensional_reduction_check(cfg: ScatteringConfig, k0: float | None = None) -> float:
    """Relative residual between the 6D and reduced 2D normalization integrals.

    The 6D side is the product of six per-axis Gaussian integrals of the
    isotropic two-particle density (means (+k0,0,0) and (-k0,0,0), spread
    sigma_k0 on every axis); the 2D side is the reduced density over the
    collision axis. Both equal 1. ``k0`` overrides the configuration's wave
    number (k0 = 0 probes the fully centered case).

    The two sides share the collision-axis factors, so the residual reduces
    algebraically to |I(0)^4 - 1|, with I(0) the Legendre integral of a
    centred 1-D Gaussian: a sanity check of the quadrature, not a test of a
    6D-to-2D marginalisation.
    """
    sg = cfg.sigma_k0
    center_k = cfg.k0 if k0 is None else k0

    def axis_integral(center):
        nodes, weights = _legendre_grid(center, CUTOFF_SIGMAS * sg, 64)
        vals = np.exp(-((nodes - center) ** 2) / (2.0 * sg * sg))
        return float(weights @ vals) / math.sqrt(2.0 * math.pi * sg * sg)

    six_d = 1.0
    for mean_vec in ((center_k, 0.0, 0.0), (-center_k, 0.0, 0.0)):
        for c in mean_vec:
            six_d *= axis_integral(c)
    two_d = axis_integral(center_k) * axis_integral(-center_k)
    return abs(six_d - two_d) / abs(two_d)


# ---------------------------------------------------------------------------
# Verification battery
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    group: str
    residual: float
    tolerance: float
    passed: bool
    seconds: float

    def as_dict(self) -> dict:
        return {**asdict(self), "seconds": round(self.seconds, 4)}


# (sigma, params) points of the metric and curvature checks
_GRID = [(sg, ModelParams(r)) for sg in (0.1, 1.0, 10.0) for r in (0.0, 0.3, 0.7, 0.9)]
_DESK_IC = InitialConditions(p0=1.0, sigma0=0.1, tau0=1.0, R0=10.0)
_DESK_CFG_KW = dict(k0=1.0, sigma_k0=0.1, R0=10.0, L=0.1)

# Each _check_* yields its residuals, one or more per point it samples.


def _check_metric3_quadrature(fault: bool = False):
    # fault: perturb the closed form's off-diagonal entries by 1e-3
    for sg, params in _GRID:
        closed = models.metric_corr3(sg, params)
        if fault:
            closed = closed.copy()
            closed[0, 1] += 1e-3
            closed[1, 0] += 1e-3
        numeric = fisher_metric_numeric("corr3", models.Macrostate3(0.4, -0.3, sg), params)
        yield np.abs(closed - numeric).max()


def _check_metric4_quadrature():
    for sx, sy in ((1.0, 2.0), (0.5, 1.0)):
        for r in (0.0, 0.3, 0.7):
            params = ModelParams(r)
            state = models.Macrostate4(0.2, -0.5, sx, sy)
            closed = models.metric_corr4(sx, sy, params)
            yield np.abs(closed - fisher_metric_numeric("corr4", state, params)).max()


def _check_curvature_fd(residual):
    # residual(fd, sigma, params): the gap between curvature_fd and the closed form
    for sg, params in _GRID:
        yield residual(curvature_fd(sg, params), sg, params)


def _check_curvature_constants():
    for sg, params in _GRID:
        yield abs(curvature.scalar_curvature(params) + 1.5)
        K = curvature.sectional_coordinate_planes(sg, params)
        yield np.abs(K[~np.isnan(K)] + 0.25).max()
        yield curvature.maximal_symmetry_check(sg, params).max_residual()
        # Weyl in units of the Riemann scale (components grow ~ 1/sigma^4)
        yield (np.abs(curvature.weyl(sg, params)).max()
               / np.abs(curvature.riemann(sg, params)).max())


def _check_geodesic_residual():
    grid = np.linspace(-1.0, 1.0, 9)
    for r in (0.0, 0.3, 0.5):
        yield geodesics.geodesic_residual(ModelParams(r), _DESK_IC, grid)


def _check_geodesic_ode():
    for r in (0.0, 0.5):
        yield geodesic_integrate(ModelParams(r), _DESK_IC, (-1.0, 1.0)).max_rel_error


def _check_geodesic_reversibility():
    yield geodesic_roundtrip_error(ModelParams(0.5), _DESK_IC, (-1.0, 1.0))


def _check_velocity_norm():
    expected = 4.0 * geodesics.amplitude_A0(_DESK_IC) ** 2
    for r in (0.0, 0.5, 0.9):
        for t in np.linspace(-2.0, 2.0, 11):
            got = chaos.velocity_norm_squared_contracted(ModelParams(r), _DESK_IC, t)
            yield abs(got - expected) / expected


def _check_jacobi_intensity():
    A0 = geodesics.amplitude_A0(_DESK_IC)
    for r in (0.0, 0.5):
        yield jacobi_integrate(ModelParams(r), _DESK_IC, 5.0 / A0).max_rel_error


def _check_lyapunov_fit():
    A0 = geodesics.amplitude_A0(_DESK_IC)
    rates = [2.0 * jacobi_integrate(ModelParams(r), _DESK_IC, 20.0 / A0).fitted_rate
             for r in (0.0, 0.5)]
    for rate in rates:
        yield abs(rate - 2.0 * A0) / (2.0 * A0)
    yield abs(rates[0] - rates[1]) / (2.0 * A0)


def _check_igc_numeric():
    lam = 2.0 * geodesics.amplitude_A0(_DESK_IC)
    for lt in (1.0, 5.0, 10.0):
        for r in (0.0, 0.3, 0.7):
            params = ModelParams(r)
            closed = complexity.igc_closed(lt / lam, params, _DESK_IC)
            numeric = igc_numeric(lt / lam, params, _DESK_IC)
            yield abs(closed - numeric) / abs(numeric)


def _check_complexity_relations():
    lam = 2.0 * geodesics.amplitude_A0(_DESK_IC)
    for lt in (2.0, 7.0):
        base = complexity.igc_closed(lt / lam, ModelParams(0.0), _DESK_IC)
        for r in (0.3, 0.7):
            params = ModelParams(r)
            igc = complexity.igc_closed(lt / lam, params, _DESK_IC)
            yield abs(igc / base - complexity.igc_ratio(params))
            yield abs(complexity.r_from_complexities(base, igc) - r)


def _purity_deficit(a_s: float) -> float:
    return 1.0 - purity_bruteforce(ScatteringConfig(a_s=a_s, **_DESK_CFG_KW))


def _check_purity_scaling():
    # the brute-force purity deficit is quadratic in a_s, so halving a_s
    # must shrink it by 3.5x-4.5x; the ratio itself is the reported value
    yield _purity_deficit(1e-5) / _purity_deficit(5e-6)


def _check_purity_quadratic():
    # deficit agrees with the analytic quadratic coefficient
    cfg = ScatteringConfig(**_DESK_CFG_KW)
    for a_s in (1e-5, 2e-5):
        predicted = 8.0 * (cfg.k0**2 + cfg.sigma_k0**4 * cfg.R0**2) * a_s**2
        yield abs(_purity_deficit(a_s) - predicted) / predicted


def _check_purity_gaussian_identity():
    cfg = ScatteringConfig(a_s=0.0, **_DESK_CFG_KW)
    for r in (0.04, 0.2):
        yield abs(purity_gaussian_state(cfg, r) - math.sqrt(1.0 - r * r))


def _check_phase_chain():
    for k0L, r in ((0.1, 0.01), (0.05, 0.1), (0.2, 0.05)):
        cfg = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=k0L)
        exact = scattering.phase_shift_exact(cfg, r)
        series = scattering.phase_shift_series(cfg, r)
        from_v = scattering.phase_shift_from_potential(
            scattering.potential_from_r(r, cfg), cfg
        )
        yield abs(exact - series) / abs(exact)
        yield abs(exact - from_v) / abs(exact)


def _check_inversions():
    cfg = ScatteringConfig(a_s=0.0, **_DESK_CFG_KW)
    for r in (1e-6, 1e-3, 0.01, 0.1):
        yield abs(scattering.r_from_potential(cfg, scattering.potential_from_r(r, cfg)) - r)
        yield abs(scattering.r_from_cross_section(cfg, scattering.cross_section(cfg, r)) - r)
        yield abs(scattering.r_from_purity(cfg, scattering.purity_from_r(cfg, r)) - r)


def _check_prolongation():
    for ic in (_DESK_IC, InitialConditions(1.0, 1e-3, 1.0, 10.0)):
        bound = scattering.prolongation(ic, 0.0).r_bound
        for frac in (0.1, 0.25, 0.5):
            rep = scattering.prolongation(ic, frac * bound)
            yield abs(rep.delta_approx - rep.delta) / rep.delta


def _check_normalization_quadrature():
    # bracket integral of the raw (unnormalized) post-collision density
    cfg = ScatteringConfig(a_s=1e-5, **_DESK_CFG_KW)
    K1, K2, w1, w2 = _momentum_mesh(cfg, 96)
    numeric = float(w1 @ np.abs(_post_collision_psi(cfg, K1, K2)) ** 2 @ w2)
    closed = scattering.normalization_integral(cfg)
    yield abs(numeric - closed) / closed


def _check_dimensional_reduction():
    yield dimensional_reduction_check(ScatteringConfig(a_s=0.0, **_DESK_CFG_KW))


# (name, group, (lo, hi), check): a check passes when its residual lies in
# [lo / tol_scale, hi * tol_scale]; hi * tol_scale is its reported tolerance.
_CHECKS = [
    ("metric3_quadrature", "models", (0.0, 1e-6), _check_metric3_quadrature),
    ("metric4_quadrature", "models", (0.0, 1e-6), _check_metric4_quadrature),
    # Christoffels scale as 1/sigma and Riemann components as 1/sigma^4
    ("christoffel_fd", "curvature", (0.0, 1e-6), lambda: _check_curvature_fd(
        lambda fd, sg, p: np.abs(fd.christoffel - curvature.christoffel(sg, p)).max() * sg)),
    ("riemann_fd", "curvature", (0.0, 1e-5), lambda: _check_curvature_fd(
        lambda fd, sg, p: np.abs(fd.riemann - curvature.riemann(sg, p)).max() * sg**4)),
    ("weyl_fd", "curvature", (0.0, 1e-5), lambda: _check_curvature_fd(
        lambda fd, sg, p: np.abs(fd.weyl).max() * sg**4)),
    ("curvature_constants", "curvature", (0.0, 1e-12), _check_curvature_constants),
    ("geodesic_residual", "geodesics", (0.0, 1e-6), _check_geodesic_residual),
    ("geodesic_ode", "geodesics", (0.0, 1e-6), _check_geodesic_ode),
    ("geodesic_reversibility", "geodesics", (0.0, 1e-8), _check_geodesic_reversibility),
    ("velocity_norm", "geodesics", (0.0, 1e-9), _check_velocity_norm),
    ("jacobi_intensity", "chaos", (0.0, 1e-5), _check_jacobi_intensity),
    ("lyapunov_fit", "chaos", (0.0, 0.01), _check_lyapunov_fit),
    ("igc_numeric", "complexity", (0.0, 1e-5), _check_igc_numeric),
    ("complexity_relations", "complexity", (0.0, 1e-12), _check_complexity_relations),
    ("purity_scaling", "scattering", (3.5, 4.5), _check_purity_scaling),
    ("purity_quadratic", "scattering", (0.0, 0.02), _check_purity_quadratic),
    ("purity_gaussian_identity", "scattering", (0.0, 1e-9), _check_purity_gaussian_identity),
    ("phase_chain", "scattering", (0.0, 0.02), _check_phase_chain),
    ("inversions_roundtrip", "scattering", (0.0, 1e-10), _check_inversions),
    ("prolongation_agreement", "scattering", (0.0, 0.01), _check_prolongation),
    ("normalization_quadrature", "scattering", (0.0, 1e-8), _check_normalization_quadrature),
    ("dimensional_reduction", "oracle", (0.0, 1e-9), _check_dimensional_reduction),
]


# Negative controls: a check named by ``fault`` runs its hook here instead,
# and one without a hook yields an infinite residual, outside every band.
_FAULTS = {"metric3_quadrature": lambda: _check_metric3_quadrature(fault=True)}


def _no_fault_hook():
    yield math.inf


def run_verification(
    only: str | None = None,
    tol_scale: float = 1.0,
    fault: str | None = None,
) -> list[CheckResult]:
    """Run the oracle-vs-closed-form battery.

    ``only`` filters by group name; ``tol_scale`` widens (> 1) or narrows
    every pass band; ``fault`` names a check to fault-inject (negative-control
    hook used by the test suite). A check's residual is the maximum of the
    residuals it yields; NaN propagates, so a non-finite value fails the band.
    """
    require_positive(tol_scale=tol_scale)
    require(only is None or only in GROUPS,
            lambda: f"unknown check group {only!r}; available: {GROUPS}")
    require(fault is None or fault in {row[0] for row in _CHECKS},
            lambda: f"unknown check {fault!r} to fault-inject")
    results = []
    for name, group, (lo, hi), fn in _CHECKS:
        if only is not None and group != only:
            continue
        if fault == name:
            fn = _FAULTS.get(name, _no_fault_hook)
        start = time.perf_counter()
        residual = float(np.max(np.fromiter(fn(), float)))
        elapsed = time.perf_counter() - start
        tolerance = hi * tol_scale
        passed = lo / tol_scale <= residual <= tolerance
        results.append(CheckResult(name, group, residual, tolerance, passed, elapsed))
    return results
