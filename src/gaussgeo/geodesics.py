"""Closed-form geodesics of the 3D Gaussian manifolds.

The geodesic equations for (mu1, mu2, sigma) decouple through a Riccati
reduction: mu' is proportional to sigma^2, which collapses the system to a
constant-coefficient Riccati equation with hyperbolic solutions. With the
boundary data (momenta +-p0, common spread sigma0 at affine time -tau0) the
trajectories are

    mu1(tau; r) = -sqrt((1-r)(p0^2 + 2 sigma0^2)) * tanh(A0 tau)
    mu2(tau; r) = -mu1(tau; r)
    sigma(tau; r) = sqrt(p0^2/2 + sigma0^2) / cosh(A0 tau)

with the rate constant

    A0 = (1/tau0) * asinh(p0 / (sqrt(2) sigma0)).

The non-correlated branch is r = 0. A collision history joins the two at
tau = 0: non-correlated before (tau < 0), correlated after (tau >= 0); all
three coordinates are continuous there.

Every trajectory function broadcasts a numpy array of tau against an array
``ModelParams(r)``, ``tau[:, None]`` against k correlations giving shape
(n, k); scalars are the 0-d case and return Python floats. The Jacobi ODE
oracle reads the path through these public forms alone.

A NaN tau is rejected with a DomainError. Hyperbolic arguments are clamped
to |A0 tau| <= 700, `errors.ARG_CLAMP`: beyond that cosh overflows while
the state is already saturated (tanh = +-1, sigma at the underflow floor),
so the clamped state is returned with one SaturationWarning per call that
counts the clamped elements, also an element where A0 tau overflows.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from . import errors
from ._elementwise import any_true, scalar_or_array
from .errors import SaturationWarning, require, require_positive, require_scalar
from .models import Macrostate3, ModelParams

#: Loosest admissible spread-to-momentum ratio for the well-localized regime.
LOCALIZATION_MAX = 0.1


@dataclass(frozen=True)
class InitialConditions:
    """Initial data (p0, sigma0, tau0, R0) of the collision history.

    Wave packets must be well localized in momentum: sigma0/p0 <= 0.1, up to
    the rounding of a common factor such as hbar. Nothing reads R0 (the
    initial separation): the scattering side reads ``ScatteringConfig.R0``,
    and the field stays only because the benchmark constructs it.
    """

    p0: float
    sigma0: float
    tau0: float = 1.0
    R0: float = 10.0

    def __post_init__(self):
        require_scalar(**vars(self))
        require_positive(p0=self.p0, sigma0=self.sigma0, tau0=self.tau0, R0=self.R0)
        require(self.sigma0 / self.p0 <= LOCALIZATION_MAX * (1.0 + 1e-15), lambda: (
            f"sigma0/p0 = {self.sigma0 / self.p0:.4g} exceeds the "
            f"well-localized bound {LOCALIZATION_MAX}"))


def amplitude_A0(ic: InitialConditions) -> float:
    """Geodesic rate constant A0 = asinh(p0 / (sqrt(2) sigma0)) / tau0."""
    return math.asinh(ic.p0 / (math.sqrt(2.0) * ic.sigma0)) / ic.tau0


def _clamped(arg):
    over = abs(arg) > errors.ARG_CLAMP
    if not any_true(over):
        return arg
    count = int(np.count_nonzero(over))
    warnings.warn(
        SaturationWarning(
            f"|A0*tau| clamped to {errors.ARG_CLAMP} at {count} of {np.size(arg)} elements "
            f"(largest {np.max(abs(arg)):.3g}); state is saturated",
            count,
        ),
        stacklevel=4,
    )
    return np.where(over, np.copysign(errors.ARG_CLAMP, arg), arg)


def _path_constants(ic: InitialConditions, r):
    # A0, the momentum scale m = sqrt((1-r)(p0^2 + 2 sigma0^2)) and the spread
    # scale sqrt(p0^2/2 + sigma0^2), by hypot: p0^2 itself under- or
    # overflows long before the scales do, and hypot returns inf silently.
    # m has r's shape: for a scalar r a numpy float, which _hyperbolic takes as a float
    scale = math.hypot(ic.p0, math.sqrt(2.0) * ic.sigma0)
    if scale == math.inf:
        raise OverflowError("momentum scale sqrt(p0^2 + 2 sigma0^2) overflows")
    return amplitude_A0(ic), np.sqrt(1.0 - r) * scale, scale / math.sqrt(2.0)


def _state(m, spread, th, ch):
    # (mu1, mu2, sigma) from th = tanh(A0 tau) and ch = cosh(A0 tau), by
    # arithmetic alone: scalars and numpy arrays alike
    return -m * th, m * th, spread / ch


def _hyperbolic(tau, params: ModelParams, ic: InitialConditions):
    # the path constants, and tanh and cosh at the clamped A0 tau; every
    # closed form takes tau here, so here alone a NaN is refused. An array r
    # broadcasts against tau, so the clamp counts the elements of the result
    A0, m, spread = _path_constants(ic, params.r)
    arg = errors.unwarned(operator.mul, A0, tau)  # an element that overflows is clamped
    require(arg == arg, "tau must not be NaN")  # false only at NaN
    if not isinstance(m, float):
        arg, m = np.broadcast_arrays(arg, m)
    arg = _clamped(arg)
    return A0, m, spread, np.tanh(arg), np.cosh(arg)


def geodesic_corr(tau, params: ModelParams, ic: InitialConditions) -> Macrostate3:
    """Correlated-branch macrostate at affine time tau (scalar or array)."""
    _, m, spread, th, ch = _hyperbolic(tau, params, ic)
    return Macrostate3(*map(scalar_or_array, _state(m, spread, th, ch)))


def geodesic_velocity(tau, params: ModelParams, ic: InitialConditions) -> np.ndarray:
    """Analytic (dmu1, dmu2, dsigma)/dtau along the correlated branch.

    Shape (3,) + shape(tau): the three components lead.
    """
    A0, m, spread, th, ch = _hyperbolic(tau, params, ic)
    # in sech and tanh, not cosh^2, which overflows beyond |A0 tau| ~ 355
    sech = 1.0 / ch
    dmu = m * A0 * (sech * sech)
    return np.array([-dmu, dmu, -spread * A0 * th * sech])


def geodesic_acceleration(
    tau, params: ModelParams, ic: InitialConditions
) -> np.ndarray:
    """Analytic second derivatives of the correlated branch, components leading."""
    A0, m, spread, th, ch = _hyperbolic(tau, params, ic)
    sech = 1.0 / ch
    # squares by multiplication: numpy's scalar ** rounds some apart from
    # the array square, which would break the array contract
    A0_sq = A0 * A0
    ddmu = 2.0 * m * A0_sq * th * sech * sech
    ddsig = spread * A0_sq * (2.0 * th * th - 1.0) * sech
    return np.array([ddmu, -ddmu, ddsig])


def joined_path(tau, params: ModelParams, ic: InitialConditions) -> Macrostate3:
    """Macrostate on the joined (before/after) path at affine time tau.

    Element-wise: the r = 0 branch where tau < 0, the correlated one elsewhere.
    """
    _, m, spread, th, ch = _hyperbolic(tau, params, ic)
    m = np.where(tau < 0.0, _path_constants(ic, 0.0)[1], m)
    return Macrostate3(*map(scalar_or_array, _state(m, spread, th, ch)))


def geodesic_residual(
    params: ModelParams, ic: InitialConditions, tau_grid
) -> float:
    """Max norm, along the closed form, of the geodesic equations' x'' + Gamma(x', x').

    Gamma is `curvature.christoffel`'s sigma = 1 table divided by sigma.

    Derivatives are taken by 5-point central differences with step
    h = 3e-3/A0. The stencil's truncation error shrinks like h^4 while its
    rounding noise grows like 1/h^2 (up to 64 eps |x| / (12 h^2) in the
    second difference). At this step the noise bound is below 1e-9 and the
    truncation error near 1e-11, far below the 1e-6 verification target,
    so the residual tests the closed form, not the stencil (a step of
    1e-4/A0 would leave ~4e-7 of rounding noise).
    """
    from . import curvature  # read here alone, so the path forms load without it

    require_scalar(r=params.r)
    tau_grid = np.asarray(tau_grid, dtype=float)
    require(tau_grid.size >= 5, "tau grid needs at least 5 points")
    A0 = amplitude_A0(ic)
    h = 3e-3 / A0

    # stencil[k] holds the coordinates at tau_grid + (k - 2) h, shape (3, n)
    stencil = geodesic_corr(
        tau_grid + np.arange(-2, 3)[:, None] * h, params, ic
    ).as_array().swapaxes(0, 1)
    vel = (stencil[0] - 8 * stencil[1] + 8 * stencil[3] - stencil[4]) / (12 * h)
    acc = (
        -stencil[0] + 16 * stencil[1] - 30 * stencil[2] + 16 * stencil[3] - stencil[4]
    ) / (12 * h * h)
    G1 = curvature.christoffel(1.0, params)
    lhs = acc + np.einsum("abc,b...,c...->a...", G1, vel, vel) / stencil[2, 2]  # sigma
    return float(np.abs(lhs).max())
