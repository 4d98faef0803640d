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

Every trajectory function broadcasts over a numpy array of tau; a scalar
tau is the 0-d case and returns Python floats.

Hyperbolic arguments are clamped to |A0 tau| <= 700: beyond that cosh
overflows while the state is already saturated (tanh = +-1, sigma at the
underflow floor), so the clamped state is returned with one
SaturationWarning per call that counts the clamped elements.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import curvature
from ._elementwise import any_true, scalar_or_array
from .errors import SaturationWarning, require, require_positive
from .models import Macrostate3, ModelParams

#: Largest usable hyperbolic argument; cosh overflows near 710.
ARG_CLAMP = 700.0

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
        require_positive(p0=self.p0, sigma0=self.sigma0, tau0=self.tau0, R0=self.R0)
        require(self.sigma0 / self.p0 <= LOCALIZATION_MAX * (1.0 + 1e-15), lambda: (
            f"sigma0/p0 = {self.sigma0 / self.p0:.4g} exceeds the "
            f"well-localized bound {LOCALIZATION_MAX}"))


def amplitude_A0(ic: InitialConditions) -> float:
    """Geodesic rate constant A0 = asinh(p0 / (sqrt(2) sigma0)) / tau0."""
    return math.asinh(ic.p0 / (math.sqrt(2.0) * ic.sigma0)) / ic.tau0


def _clamped(arg):
    over = abs(arg) > ARG_CLAMP
    if not any_true(over):
        return arg
    count = int(np.count_nonzero(over))
    warnings.warn(
        SaturationWarning(
            f"|A0*tau| clamped to {ARG_CLAMP} at {count} of {np.size(arg)} elements "
            f"(largest {np.max(abs(arg)):.3g}); state is saturated",
            count,
        ),
        stacklevel=3,
    )
    return np.where(over, np.copysign(ARG_CLAMP, arg), arg)


def _momentum_scale(ic: InitialConditions, r: float) -> float:
    return math.sqrt((1.0 - r) * (ic.p0**2 + 2.0 * ic.sigma0**2))


def _spread_scale(ic: InitialConditions) -> float:
    return math.sqrt(0.5 * ic.p0**2 + ic.sigma0**2)


def _state(arg, m, spread) -> Macrostate3:
    t = np.tanh(arg)
    return Macrostate3(
        scalar_or_array(-m * t),
        scalar_or_array(m * t),
        scalar_or_array(spread / np.cosh(arg)),
    )


def geodesic_corr(tau, params: ModelParams, ic: InitialConditions) -> Macrostate3:
    """Correlated-branch macrostate at affine time tau (scalar or array)."""
    arg = _clamped(amplitude_A0(ic) * tau)
    return _state(arg, _momentum_scale(ic, params.r), _spread_scale(ic))


def geodesic_velocity(tau, params: ModelParams, ic: InitialConditions) -> np.ndarray:
    """Analytic (dmu1, dmu2, dsigma)/dtau along the correlated branch.

    Shape (3,) + shape(tau): the three components lead.
    """
    A0 = amplitude_A0(ic)
    arg = _clamped(A0 * tau)
    m = _momentum_scale(ic, params.r)
    # in sech and tanh, not cosh^2, which overflows beyond |A0 tau| ~ 355
    sech = 1.0 / np.cosh(arg)
    sech2 = sech * sech
    dsig = -_spread_scale(ic) * A0 * np.tanh(arg) * sech
    return np.array([-m * A0 * sech2, m * A0 * sech2, dsig])


def geodesic_acceleration(
    tau, params: ModelParams, ic: InitialConditions
) -> np.ndarray:
    """Analytic second derivatives of the correlated branch, components leading."""
    A0 = amplitude_A0(ic)
    arg = _clamped(A0 * tau)
    m = _momentum_scale(ic, params.r)
    th, sech = np.tanh(arg), 1.0 / np.cosh(arg)
    ddmu = 2.0 * m * A0**2 * th * sech * sech
    ddsig = _spread_scale(ic) * A0**2 * (2.0 * th**2 - 1.0) * sech
    return np.array([ddmu, -ddmu, ddsig])


def joined_path(tau, params: ModelParams, ic: InitialConditions) -> Macrostate3:
    """Macrostate on the joined (before/after) path at affine time tau.

    Element-wise: the r = 0 branch where tau < 0, the correlated one elsewhere.
    """
    arg = _clamped(amplitude_A0(ic) * tau)
    m = np.where(tau < 0.0, _momentum_scale(ic, 0.0), _momentum_scale(ic, params.r))
    return _state(arg, m, _spread_scale(ic))


def geodesic_equations_lhs(
    state: np.ndarray, velocity: np.ndarray, accel: np.ndarray, r: float
) -> np.ndarray:
    """Left sides x'' + Gamma(x', x') of the three geodesic equations.

    Gamma is `curvature.christoffel`'s sigma = 1 table divided by sigma. The
    three coordinates lead each argument; trailing axes broadcast.
    """
    G1 = curvature.christoffel(1.0, ModelParams(r))
    return accel + np.einsum("abc,b...,c...->a...", G1, velocity, velocity) / state[2]


def geodesic_residual(
    params: ModelParams, ic: InitialConditions, tau_grid
) -> float:
    """Max norm of the geodesic-equation left sides along the closed form.

    Derivatives are taken by 5-point central differences with step
    h = 3e-3/A0. The stencil's truncation error shrinks like h^4 while its
    rounding noise grows like 1/h^2 (up to 64 eps |x| / (12 h^2) in the
    second difference). At this step the noise bound is below 1e-9 and the
    truncation error near 1e-11, far below the 1e-6 verification target,
    so the residual tests the closed form, not the stencil (a step of
    1e-4/A0 would leave ~4e-7 of rounding noise).
    """
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
    lhs = geodesic_equations_lhs(stencil[2], vel, acc, params.r)
    return float(np.abs(lhs).max())
