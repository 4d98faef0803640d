"""The verification battery and the oracles that need only numpy.

Fisher metrics come from quadrature of the defining expectation, curvature
from finite differences of the metric, purity from brute-force quadrature
of the four-fold trace integral, and the complexity from Gauss-Legendre
rules on its nested volume integral; none calls the closed form it
validates. Self-tests raise ``ConvergenceError``: ``purity_bruteforce``
doubles its order behind ``check_convergence`` and ``igc_gauss`` on every
call; ``curvature_fd`` differences once, at a step of 1e-5 sigma. The Fisher
rule, exact at order 4, and ``igc_gauss``, which refuses a clamped path,
broadcast. Each rule calls a closed form once: ``igc_gauss`` its path at
the nodes of both orders, ``curvature_fd`` the metric and the Christoffels
at sigma + h and sigma - h stacked.

`run_verification` drives the battery; ``verify`` formats its results. Each
row is one record, made by a decorator on its check: its group, one fixed
tolerance, and the cells (closed forms, report fields, curvature constants)
whose fault it catches, to which the tests' mutation matrix holds it. The
check's per-point residuals have a maximum (NaN propagates) that must be at
most the tolerance; a check that raises a ``GaussGeoError`` or an
``ArithmeticError`` fails with residual inf and keeps the message. The three
finite-difference checks share one run within a battery. Every check needs
numpy alone, so no group loads scipy; the ODE oracles of
:mod:`gaussgeo.oracle` are held by Tier-1 tests.
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass

import numpy as np

from . import chaos, complexity, curvature, geodesics, models, scattering
from ._elementwise import scalar_or_array
from .errors import (ConvergenceError, DomainError, GaussGeoError, require, require_correlation,
                     require_hyperbolic, require_positive, require_scalar, require_within)
from .geodesics import InitialConditions
from .models import ModelParams
from .scattering import ScatteringConfig


# Half-width of the momentum quadrature boxes in packet spreads; narrower
# boxes truncate the Gaussians.
CUTOFF_SIGMAS = 8.0


@functools.cache
def _gauss_rule(build, order: int):
    # a Gauss rule is a constant table: built once per order, read-only
    nodes, weights = build(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# ---------------------------------------------------------------------------
# Fisher metric by quadrature of the defining expectation
# ---------------------------------------------------------------------------

def _scores_corr4(a, b, sx, sy, r):
    # with the standardized offsets a = (x - mux)/sx and b = (y - muy)/sy, a
    # mean's score is (a - r b)/(sx (1 - r^2)), and its spread's is that times
    # a, less 1/sx
    omr2 = 1.0 - r * r
    ux, uy = (a - r * b) / (sx * omr2), (b - r * a) / (sy * omr2)
    return np.array([ux, a * ux - 1.0 / sx, uy, b * uy - 1.0 / sy])


def _hermite_product(order: int):
    # nodes (2, order^2) and weights of the 2D Gauss-Hermite product rule
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    mesh = np.stack(np.meshgrid(nodes, nodes, indexing="ij")).reshape(2, -1)
    return mesh, np.outer(weights, weights).ravel()


def _fisher_quadrature(mux, muy, sx, sy, r, embed, order):
    # E[s s^T] of the scores s = embed^T s4, s4 the corr4 scores: the
    # Gauss-Hermite product mesh, mapped through the correlation's Cholesky
    # factor [[1, 0], [r, sqrt(1 - r^2)]] straight to the standardized
    # offsets, not through x = mux + sqrt(2) sx z, which rounds back to mux
    # at a spread far below the means; summed as one weighted product per
    # point of the broadcast inputs, which lead the result
    z, w = _gauss_rule(_hermite_product, order)
    _, _, sx, sy, r = (np.asarray(v, float)[..., None]  # the means set only the points
                       for v in np.broadcast_arrays(mux, muy, sx, sy, r))
    a, b = math.sqrt(2.0) * z[0], math.sqrt(2.0) * (r * z[0] + np.sqrt(1.0 - r * r) * z[1])
    s = np.einsum("ak,a...n->...kn", embed, _scores_corr4(a, b, sx, sy, r))
    return (s * w) @ np.swapaxes(s, -1, -2) / math.pi


# d(mux, sigmax, muy, sigmay) / d(mu1, mu2, sigma) on the corr3 submanifold
_CORR3_EMBEDDING = np.array([[1.0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 0, 1]])


def fisher_metric_numeric(model: str, state, params: ModelParams) -> np.ndarray:
    """Fisher metric g_ab = E[d_a ln P d_b ln P] by Gaussian quadrature.

    ``model`` selects the family: "corr3" (state: Macrostate3) or "corr4"
    (state: Macrostate4). Scores are analytic; only the expectation is
    numeric, on a 4 x 4 Gauss-Hermite product mesh. That is exact up to
    rounding: the integrand is a degree-4 polynomial in the nodes, and an
    n-point rule is exact to degree 2n - 1, so any n >= 3 would do. corr3 is
    corr4 at sigma_x = sigma_y = sigma, so its scores are the corr4 scores
    pulled back by the constant embedding Jacobian C, C^T s4, and its metric
    is their quadrature. Array state fields and r broadcast: the points lead
    the result, whose last two axes hold each point's metric. Each spread
    must lie in [1e-140, 1e140]: the scores scale as 1/spread, grow by at
    most 1/sqrt(1 - r^2) < 2.3e4 and by the nodes' reach, and the metric
    holds their products, which stay normal floats there.
    """
    if model == "corr3":
        spreads = {"sigma": state.sigma}
        args = (state.mu1, state.mu2, state.sigma, state.sigma, params.r, _CORR3_EMBEDDING)
    elif model == "corr4":
        spreads = {"sigma_x": state.sigma_x, "sigma_y": state.sigma_y}
        args = (state.mu_x, state.mu_y, state.sigma_x, state.sigma_y, params.r, np.eye(4))
    else:
        raise DomainError(f"unknown model {model!r}")
    require_within(1e-140, 1e140, **spreads)
    return _fisher_quadrature(*args, 4)


# ---------------------------------------------------------------------------
# Curvature by finite differences
# ---------------------------------------------------------------------------

def curvature_fd(sigma, params: ModelParams) -> curvature.CurvatureBundle:
    """Curvature tensors from central differences of the metric.

    Christoffels come from differencing the closed-form metric; Riemann
    from differencing the closed-form Christoffels (plus their quadratic
    terms); Ricci and Weyl are assembled from those. The step, 1e-5 sigma,
    needs no self-test: the metric and the Christoffels are r-only tables
    times powers of sigma, so a fixed fraction of sigma leaves the same
    relative truncation error at every (sigma, r), and every caller holds
    the result to a tolerance. Array sigma and r broadcast as in
    `curvature.bundle`: sigma is broadcast against r first, and sigma + h and
    sigma - h stack on a leading axis, so that the metric and the
    Christoffels are each evaluated in one call.
    """
    g = models.metric_corr3(sigma, params)  # checks sigma before the step reads it
    ginv = np.linalg.inv(g)
    # on the points' shape, so that the steps stack against an array r
    sigma = np.broadcast_to(sigma, np.broadcast_shapes(np.shape(sigma), np.shape(params.r)))
    h = 1e-5 * sigma
    steps = np.stack([sigma + h, sigma - h])

    def d_sigma(tensor, rank):
        # d_e of a tensor of sigma alone, as an axis e before the tensor axes
        plus, minus = tensor(steps, params)
        diff = plus - minus
        diff /= np.reshape(2.0 * h, np.shape(h) + (1,) * rank)
        return np.stack([np.zeros_like(diff), np.zeros_like(diff), diff], axis=-rank - 1)

    dgf = d_sigma(models.metric_corr3, 2)
    G_fd = 0.5 * (np.einsum("...ad,...bdc->...abc", ginv, dgf)
                  + np.einsum("...ad,...cbd->...abc", ginv, dgf)
                  - np.einsum("...ad,...dbc->...abc", ginv, dgf))

    dG = d_sigma(curvature.christoffel, 3)  # dG[..., e, a, b, c] = d_e Gamma^a_bc
    G = curvature.christoffel(sigma, params)
    # R^a_bcd = d_c G^a_bd - d_d G^a_bc + G^a_fc G^f_bd - G^a_fd G^f_bc
    Rup = (np.einsum("...cabd->...abcd", dG) - np.einsum("...dabc->...abcd", dG)
           + np.einsum("...afc,...fbd->...abcd", G, G)
           - np.einsum("...afd,...fbc->...abcd", G, G))
    riem = np.einsum("...ae,...ebcd->...abcd", g, Rup)
    ric = np.einsum("...bd,...abcd->...ac", ginv, riem)
    scal = scalar_or_array(np.einsum("...ac,...ac->...", ginv, ric))
    return curvature.CurvatureBundle.from_tensors(G_fd, riem, ric, scal, g)


# ---------------------------------------------------------------------------
# Brute-force purity
# ---------------------------------------------------------------------------

def _legendre_grid(center: float, half_width: float, order: int):
    nodes, weights = _gauss_rule(np.polynomial.legendre.leggauss, order)
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
    require_correlation(require_scalar(r=r))
    K1, K2, w1, w2 = _momentum_mesh(cfg, 64)
    d1, d2 = K1 - cfg.k0, K2 + cfg.k0
    s2 = cfg.sigma_k0**2
    q = (d1 * d1 - 2.0 * r * d1 * d2 + d2 * d2) / s2
    return _reduced_purity(np.exp(-q / (4.0 * (1.0 - r * r))), w1, w2)


# ---------------------------------------------------------------------------
# Complexity by Gauss-Legendre rules
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")  # an overflow is inf, refused or failed below
def igc_gauss(tau, params: ModelParams, ic: InitialConditions):
    """Time-averaged Fisher volume at a positive horizon tau, by the literal nested
    integral: Gauss-Legendre rules over tau' and over u = ln sigma, where 2/sigma^3 dsigma
    is 2 exp(-2u) du (the mu integrals are exact). Array tau and r broadcast. Each 48-point
    value must match the 96-point one (NaN fails), and a tau whose path is clamped is refused.
    One closed-form call gives the path at the nodes of both rules; each rule then runs
    the float operations it runs alone, on its own nodes."""
    require_positive(tau=tau)
    require_hyperbolic(geodesics.amplitude_A0(ic), tau, "|A0*tau|")
    start = geodesics.geodesic_corr(0.0, ModelParams(), ic)  # the same at every r
    tau, path = np.expand_dims(tau, -1), ModelParams(np.expand_dims(params.r, -1))
    rules = [_gauss_rule(np.polynomial.legendre.leggauss, order) for order in (48, 96)]
    # the nodes of both rules on a last axis, in one closed-form call
    state = geodesics.geodesic_corr(
        0.5 * tau * (np.concatenate([x for x, _ in rules]) + 1.0), path, ic)
    u0 = math.log(start.sigma)

    def average(x, w, nodes):
        sigma, mu1, mu2 = (field[..., nodes] for field in (state.sigma, state.mu1, state.mu2))
        half = 0.5 * (np.log(sigma) - u0)  # half-widths of the u intervals
        # exp(-2u) in one buffer; einsum, unlike @, sums a point of a stack as it sums one
        grid = np.multiply.outer(half, x + 1.0)
        grid += u0
        grid *= -2.0
        inner = half * (2.0 * np.einsum("...j,j->...", np.exp(grid, out=grid), w))
        volume = (mu1 - start.mu1) * (mu2 - start.mu2) * inner
        return 0.5 * np.einsum("...j,j->...", volume, w) / np.sqrt(1.0 - params.r * params.r)

    result = average(*rules[0], slice(48))  # exp(-2u) of a tiny sigma is inf
    drift = np.abs(average(*rules[1], slice(48, None)) - result)  # inf - inf is NaN
    if not np.all(drift <= np.maximum(1e-9, 1e-7 * np.abs(result))):
        raise ConvergenceError(f"IGC time average drift {np.max(drift):.3g} at order doubling")
    return scalar_or_array(result)


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
    error: str | None = None    # the message of an exception the check raised

    def as_dict(self) -> dict:
        """The check's fields without its timing, so equal runs give equal
        bytes; ``error`` only when the check raised."""
        return {k: v for k, v in asdict(self).items()
                if k != "seconds" and (k != "error" or v is not None)}


@dataclass(frozen=True)
class _Check:
    """A row: it passes when the largest residual ``run`` yields, one or more per
    point it samples, is at most ``tolerance`` (so NaN fails). A cell of
    ``guards`` times 1 + 1e-6 fails it; one of ``coarse`` only times 1 + 1e-2."""

    name: str
    group: str
    tolerance: float
    run: Callable[[], Iterator[float]]
    guards: tuple[str, ...]
    coarse: tuple[str, ...]


_CHECKS: list[_Check] = []  # in the order they run, each added by `_check` at its code


def _check(group: str, tolerance: float, guards: str = "", coarse: str = ""):
    # adds its function as the next row, named without the underscore; cells space-separated
    def add(run):
        _CHECKS.append(_Check(run.__name__[1:], group, tolerance, run,
                              tuple(guards.split()), tuple(coarse.split())))
        return run
    return add


# the (sigma, r) points of the metric and curvature checks: two flat axes, sigma-major
_SIGMA, _R = np.repeat([0.1, 1.0, 10.0], 4), np.tile([0.0, 0.3, 0.7, 0.9], 3)
_DESK_IC = InitialConditions(p0=1.0, sigma0=0.1, tau0=1.0, R0=10.0)
_DESK_CFG_KW = dict(k0=1.0, sigma_k0=0.1, R0=10.0, L=0.1)
# the correlations of the path checks
_PATH_R = np.array([0.0, 0.5])


@_check("models", 1e-6, guards="models.metric_corr3")
def _metric3_quadrature():
    params = ModelParams(_R)
    numeric = fisher_metric_numeric("corr3", models.Macrostate3(0.4, -0.3, _SIGMA), params)
    yield from curvature._max_abs(models.metric_corr3(_SIGMA, params) - numeric, 2)


@_check("models", 1e-6, guards="models.metric_corr4")
def _metric4_quadrature():
    # (sigma_x, sigma_y) = (1, 2) and (0.5, 1), each at r = 0, 0.3 and 0.7
    sx, sy, r = np.repeat([1.0, 0.5], 3), np.repeat([2.0, 1.0], 3), np.tile([0.0, 0.3, 0.7], 2)
    numeric = fisher_metric_numeric("corr4", models.Macrostate4(0.2, -0.5, sx, sy), ModelParams(r))
    yield from curvature._max_abs(models.metric_corr4(sx, sy, ModelParams(r)) - numeric, 2)


# One finite-difference bundle over the grid serves the three fd checks. It is
# cached until run_verification clears it; runs are deterministic, so another
# thread's run is the same.
_curvature_fd_run = functools.cache(lambda: curvature_fd(_SIGMA, ModelParams(_R)))


# Christoffels scale as 1/sigma and Riemann components as 1/sigma^4
@_check("curvature", 1e-6, guards="curvature.christoffel")
def _christoffel_fd():
    gap = _curvature_fd_run().christoffel - curvature.christoffel(_SIGMA, ModelParams(_R))
    yield from curvature._max_abs(gap, 3) * _SIGMA


@_check("curvature", 1e-5, coarse="models.metric_corr3 curvature.christoffel curvature.riemann "
        "curvature.SCALAR_CURVATURE")
def _riemann_fd():
    # also holds the finite-difference scalar to SCALAR_CURVATURE
    fd = _curvature_fd_run()
    gap = fd.riemann - curvature.riemann(_SIGMA, ModelParams(_R))
    yield from curvature._max_abs(gap, 4) * _SIGMA**4
    yield from np.abs(fd.scalar - curvature.SCALAR_CURVATURE)


@_check("curvature", 1e-5, coarse="curvature.christoffel")
def _weyl_fd():
    yield from curvature._max_abs(_curvature_fd_run().weyl, 4) * _SIGMA**4


# (u, v): two fixed planes off the coordinate axes, spanned by rows of u and v
_OBLIQUE = ([[1.0, 1.0, 0.5], [0.3, -0.7, 1.0]], [[0.0, 1.0, -2.0], [1.0, 0.2, 0.4]])


@_check("curvature", 1e-12, guards="models.metric_corr3 models.metric_corr3_inverse "
        "curvature.riemann curvature.ricci curvature.sectional curvature.bundle.sectional "
        "curvature.SCALAR_CURVATURE curvature.SECTIONAL_CURVATURE")
def _curvature_constants():
    b = curvature.bundle(_SIGMA, ModelParams(_R))
    yield np.abs(b.sectional[~np.isnan(b.sectional)] - curvature.SECTIONAL_CURVATURE).max()
    # a point axis against the two planes
    oblique = curvature.sectional(_SIGMA[:, None], ModelParams(_R[:, None]), *_OBLIQUE)
    yield np.abs(oblique - curvature.SECTIONAL_CURVATURE).max()
    yield from curvature.maximal_symmetry_check(_SIGMA, ModelParams(_R)).max_residual()
    # Weyl in units of the Riemann scale (components grow ~ 1/sigma^4)
    yield from curvature._max_abs(b.weyl, 4) / curvature._max_abs(b.riemann, 4)


@_check("geodesics", 1e-6, guards="curvature.christoffel geodesics.geodesic_corr.mu1 "
        "geodesics.geodesic_corr.mu2 geodesics.geodesic_corr.sigma")
def _geodesic_residual():
    grid = np.linspace(-1.0, 1.0, 9)
    for r in (0.0, 0.3, 0.5):
        yield geodesics.geodesic_residual(ModelParams(r), _DESK_IC, grid)


@_check("geodesics", 1e-13, guards="geodesics.amplitude_A0 geodesics.joined_path.mu1 "
        "geodesics.joined_path.mu2 geodesics.joined_path.sigma")
def _boundary_data():
    # the data that fix A0 and the join: the joined path passes through
    # (p0, -p0, sigma0) at tau = -tau0 and (-m, m, sigma0), m = sqrt(1-r) p0,
    # at +tau0; the relative residuals stayed within 2.8e-15, 1/35 of the
    # tolerance, on a seeded grid of 20000 initial conditions
    for ic in (_DESK_IC, InitialConditions(2.5, 1e-3, 0.4)):
        # -tau0 and +tau0 down the rows, r = 0 and 0.5 across
        path = geodesics.joined_path(np.array([[-ic.tau0], [ic.tau0]]), ModelParams(_PATH_R), ic)
        mu1 = np.array([np.full(2, ic.p0), -np.sqrt(1.0 - _PATH_R) * ic.p0])
        expected = np.array([mu1, -mu1, np.full((2, 2), ic.sigma0)])
        yield from (np.abs(path.as_array() - expected) / np.abs(expected)).ravel()


@_check("geodesics", 1e-9, guards="models.metric_corr3 geodesics.geodesic_corr.sigma "
        "geodesics.geodesic_velocity chaos.velocity_norm_squared "
        "chaos.velocity_norm_squared_contracted")
def _velocity_norm():
    expected = chaos.velocity_norm_squared(_DESK_IC)
    tau = np.linspace(-2.0, 2.0, 11)[:, None]
    got = chaos.velocity_norm_squared_contracted(ModelParams(np.array([0.0, 0.5, 0.9])),
                                                 _DESK_IC, tau)
    yield from (np.abs(got - expected) / expected).ravel()


@_check("chaos", 1e-8, guards="models.metric_corr3 curvature.SECTIONAL_CURVATURE "
        "geodesics.geodesic_corr.sigma geodesics.geodesic_velocity "
        "chaos.velocity_norm_squared_contracted chaos.jlc_coefficient chaos.jacobi_intensity "
        "chaos.lyapunov_exponent chaos.lyapunov_estimate.value")
def _constant_curvature():
    # at constant curvature K the deviation equation is J'' + K g(v, v) J = 0 (do
    # Carmo, Riemannian Geometry, ch. 5): with c = sqrt(-K g(v, v)) the
    # intensity is omega0 sinh(c tau)/c, the exponent 2c and Q = K g(v, v)
    A0 = geodesics.amplitude_A0(_DESK_IC)
    tau = np.linspace(0.0, 20.0, 51)[1:, None] / A0
    Q = curvature.SECTIONAL_CURVATURE * chaos.velocity_norm_squared_contracted(
        ModelParams(_PATH_R), _DESK_IC, 0.0)
    c = np.sqrt(-Q)
    exact = 2.5 * np.sinh(c * tau) / c
    yield from (np.abs(chaos.jacobi_intensity(tau, 2.5, A0) - exact) / exact).ravel()
    yield from np.abs(chaos.lyapunov_exponent(A0) - 2.0 * c) / (2.0 * c)
    yield from np.abs(chaos.jlc_coefficient(A0) - Q) / -Q
    yield from np.abs(chaos.lyapunov_estimate(1.0, A0, 20.0 / A0).value - 2.0 * c) / (2.0 * c)


@_check("complexity", 5e-12, guards="geodesics.geodesic_corr.mu1 geodesics.geodesic_corr.mu2 "
        "geodesics.geodesic_corr.sigma chaos.lyapunov_exponent complexity.igc_closed "
        "complexity.igc_ratio")
def _igc_numeric():
    lam = chaos.lyapunov_exponent(geodesics.amplitude_A0(_DESK_IC))
    tau, params = np.array([[1.0], [5.0], [10.0]]) / lam, ModelParams(np.array([0.0, 0.3, 0.7]))
    numeric = igc_gauss(tau, params, _DESK_IC)
    closed = complexity.igc_closed(tau, params, _DESK_IC)
    yield from (np.abs(closed - numeric) / np.abs(numeric)).ravel()


@_check("complexity", 1e-12, guards="complexity.igc_ratio complexity.r_from_complexities")
def _complexity_relations():
    # horizons lambda tau = 2, 7 down the rows, correlations 0.3, 0.7 across
    lam = chaos.lyapunov_exponent(geodesics.amplitude_A0(_DESK_IC))
    tau, params = np.array([[2.0], [7.0]]) / lam, ModelParams(np.array([0.3, 0.7]))
    base = complexity.igc_closed(tau, ModelParams(0.0), _DESK_IC)
    igc = complexity.igc_closed(tau, params, _DESK_IC)
    yield np.abs(igc / base - complexity.igc_ratio(params)).max()
    yield np.abs(complexity.r_from_complexities(base, igc) - params.r).max()


@_check("oracle", 1e-9)
def _purity_gaussian_identity():
    # the trace quadrature against the exact sqrt(1 - r^2); reads no closed form
    cfg = ScatteringConfig(a_s=0.0, **_DESK_CFG_KW)
    for r in (0.04, 0.2):
        yield abs(purity_gaussian_state(cfg, r) - math.sqrt(1.0 - r * r))


@_check("scattering", 0.02)
def _phase_chain():
    for k0L, r in ((0.1, 0.01), (0.05, 0.1), (0.2, 0.05)):
        cfg = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=k0L)
        exact = scattering.phase_shift_exact(cfg, r)
        series = scattering.phase_shift_series(cfg, r)
        from_v = scattering.phase_shift_from_potential(
            scattering.potential_from_r(r, cfg), cfg
        )
        yield abs(exact - series) / abs(exact)
        yield abs(exact - from_v) / abs(exact)


@_check("scattering", 1e-10, guards="scattering.potential_from_r "
        "scattering.scattering_length_from_r scattering.cross_section scattering.purity_from_r "
        "scattering.r_from_potential scattering.r_from_cross_section scattering.r_from_purity")
def _inversions_roundtrip():
    cfg = ScatteringConfig(a_s=0.0, **_DESK_CFG_KW)
    for r in (1e-6, 1e-3, 0.01, 0.1):
        yield abs(scattering.r_from_potential(cfg, scattering.potential_from_r(r, cfg)) - r)
        yield abs(scattering.r_from_cross_section(cfg, scattering.cross_section(cfg, r)) - r)
        yield abs(scattering.r_from_purity(cfg, scattering.purity_from_r(cfg, r)) - r)


@_check("scattering", 0.01, coarse="scattering.prolongation.delta_approx")
def _prolongation_agreement():
    for ic in (_DESK_IC, InitialConditions(1.0, 1e-3, 1.0, 10.0)):
        bound = scattering.prolongation(ic, 0.0).r_bound
        rep = scattering.prolongation(ic, np.array([0.1, 0.25, 0.5]) * bound)
        yield (np.abs(rep.delta_approx - rep.delta) / rep.delta).max()


@_check("scattering", 1e-8, guards="scattering.normalization_integral")
def _normalization_quadrature():
    # bracket integral of the raw (unnormalized) post-collision density; in
    # sigma_k0 units it is a unit Gaussian times a quartic, cut at
    # CUTOFF_SIGMAS, so order 48 converges whatever the config
    cfg = ScatteringConfig(a_s=1e-5, **_DESK_CFG_KW)
    K1, K2, w1, w2 = _momentum_mesh(cfg, 48)
    numeric = float(w1 @ np.abs(_post_collision_psi(cfg, K1, K2)) ** 2 @ w2)
    closed = scattering.normalization_integral(cfg)
    yield abs(numeric - closed) / closed


#: Check groups of the battery, sorted: the values ``verify --only`` takes.
GROUPS = tuple(sorted({check.group for check in _CHECKS}))


def run_verification(only: str | None = None) -> list[CheckResult]:
    """Run the oracle-vs-closed-form battery.

    ``only`` filters by group name. A check's residual is the maximum of the
    residuals it yields, and it passes when that is at most its tolerance;
    NaN propagates, so a non-finite value fails. A check that raises a
    ``GaussGeoError`` or an ``ArithmeticError`` fails with residual inf and
    its message in ``error``; an unknown group raises ``DomainError``.
    """
    require(only is None or only in GROUPS,
            lambda: f"unknown check group {only!r}; available: {', '.join(GROUPS)}")
    _curvature_fd_run.cache_clear()
    results = []
    for check in _CHECKS:
        if only is not None and check.group != only:
            continue
        start = time.perf_counter()
        error = None
        try:
            residual = float(np.max(np.fromiter(check.run(), float)))
        except (GaussGeoError, ArithmeticError) as exc:
            residual, error = math.inf, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(check.name, check.group, residual, check.tolerance,
                                   residual <= check.tolerance, time.perf_counter() - start,
                                   error))
    return results

