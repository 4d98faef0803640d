"""Correlated Gaussian probability families and their Fisher-Rao metrics.

Two families are implemented, both bivariate normals over the microscopic
variables (x, y):

* the 4-parameter family with macrostate (mu_x, mu_y, sigma_x, sigma_y) and
  a fixed correlation coefficient r, and
* its equal-spread restriction with macrostate (mu1, mu2, sigma), which is
  the manifold the rest of the package works on.

The Fisher-Rao metric g_ab = E[d_a ln P d_b ln P] has closed form for both.
For the 3-parameter family, with coordinate order (mu1, mu2, sigma),

    g = (1/sigma^2) * [[ 1/(1-r^2), -r/(1-r^2), 0 ],
                       [ -r/(1-r^2), 1/(1-r^2), 0 ],
                       [ 0,           0,        4 ]]

with det g = 4 / ((1-r^2) sigma^6). The 4-parameter metric uses coordinate
order (mu_x, sigma_x, mu_y, sigma_y).

Only non-negative correlations r in [0, 1) are admitted. Metric entries
diverge as r -> 1, so values within 1e-9 of 1 are rejected rather than
returned as huge floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# r == 1 is a genuine singularity of the family; stop just short of it.
R_MAX = 1.0 - 1e-9

#: Default small-r threshold for the perturbative metric split.
SPLIT_R_MAX = 0.1


@dataclass(frozen=True)
class Macrostate3:
    """Point (mu1, mu2, sigma) on the equal-spread 3D manifold.

    The fields may also be numpy arrays of one shape: a set of points.
    """

    mu1: float
    mu2: float
    sigma: float

    def __post_init__(self):
        positive = self.sigma > 0
        if not (positive.all() if isinstance(positive, np.ndarray) else positive):
            raise DomainError(f"sigma must be positive, got {self.sigma}")

    def as_array(self) -> np.ndarray:
        """(mu1, mu2, sigma) stacked on the leading axis."""
        return np.array([self.mu1, self.mu2, self.sigma])


@dataclass(frozen=True)
class Macrostate4:
    """Point (mu_x, mu_y, sigma_x, sigma_y) on the 4D manifold."""

    mu_x: float
    mu_y: float
    sigma_x: float
    sigma_y: float

    def __post_init__(self):
        if not (self.sigma_x > 0 and self.sigma_y > 0):
            raise DomainError(
                f"spreads must be positive, got ({self.sigma_x}, {self.sigma_y})"
            )


@dataclass(frozen=True)
class ModelParams:
    """Micro-correlation coefficient of the Gaussian family.

    Restricted to the non-negative branch r in [0, 1).
    """

    r: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.r < R_MAX:
            raise DomainError(f"correlation must lie in [0, {R_MAX}), got {self.r}")


def _check_sigma(sigma: float) -> None:
    if not sigma > 0:
        raise DomainError(f"sigma must be positive, got {sigma}")


def pdf_corr3(state: Macrostate3, params: ModelParams, point) -> float:
    """Equal-spread correlated bivariate normal density at ``point=(x, y)``."""
    x, y = point
    r, s = params.r, state.sigma
    dx, dy = x - state.mu1, y - state.mu2
    q = (dx * dx - 2.0 * r * dx * dy + dy * dy) / (s * s)
    norm = 2.0 * math.pi * s * s * math.sqrt(1.0 - r * r)
    return math.exp(-q / (2.0 * (1.0 - r * r))) / norm


def pdf_corr4(state: Macrostate4, params: ModelParams, point) -> float:
    """Correlated bivariate normal with distinct spreads at ``point=(x, y)``."""
    x, y = point
    r = params.r
    sx, sy = state.sigma_x, state.sigma_y
    dx, dy = x - state.mu_x, y - state.mu_y
    q = dx * dx / (sx * sx) - 2.0 * r * dx * dy / (sx * sy) + dy * dy / (sy * sy)
    norm = 2.0 * math.pi * sx * sy * math.sqrt(1.0 - r * r)
    return math.exp(-q / (2.0 * (1.0 - r * r))) / norm


def metric_corr3(sigma: float, params: ModelParams) -> np.ndarray:
    """Fisher-Rao metric of the equal-spread family, coordinates (mu1, mu2, sigma)."""
    _check_sigma(sigma)
    r = params.r
    d = 1.0 - r * r
    g = np.array(
        [
            [1.0 / d, -r / d, 0.0],
            [-r / d, 1.0 / d, 0.0],
            [0.0, 0.0, 4.0],
        ]
    )
    return g / (sigma * sigma)


def metric_corr3_inverse(sigma: float, params: ModelParams) -> np.ndarray:
    """Exact inverse of :func:`metric_corr3`.

    The momentum block inverts to sigma^2 [[1, r], [r, 1]]; kept in closed
    form so index raising never goes through a numeric inverse.
    """
    _check_sigma(sigma)
    r = params.r
    s2 = sigma * sigma
    return np.array(
        [
            [s2, r * s2, 0.0],
            [r * s2, s2, 0.0],
            [0.0, 0.0, s2 / 4.0],
        ]
    )


def metric_corr4(sigma_x: float, sigma_y: float, params: ModelParams) -> np.ndarray:
    """Fisher-Rao metric of the 4-parameter family.

    Coordinate order is fixed to (mu_x, sigma_x, mu_y, sigma_y).
    """
    _check_sigma(sigma_x)
    _check_sigma(sigma_y)
    r = params.r
    d = r * r - 1.0
    sx, sy = sigma_x, sigma_y
    return np.array(
        [
            [-1.0 / (sx * sx * d), 0.0, r / (sx * sy * d), 0.0],
            [0.0, -(2.0 - r * r) / (sx * sx * d), 0.0, r * r / (sx * sy * d)],
            [r / (sx * sy * d), 0.0, -1.0 / (sy * sy * d), 0.0],
            [0.0, r * r / (sx * sy * d), 0.0, -(2.0 - r * r) / (sy * sy * d)],
        ]
    )


def metric_split(
    sigma: float, params: ModelParams, max_r: float = SPLIT_R_MAX
) -> tuple[np.ndarray, np.ndarray]:
    """Split the correlated metric into a flat part and a small-r perturbation.

    Returns (g0, h) with g0 the non-correlated metric and h the perturbation
    truncated at second order in r:

        h = (1/sigma^2) * [[ r^2, -r, 0 ], [ -r, r^2, 0 ], [ 0, 0, 0 ]]

    so that g0 + h = metric_corr3 + O(r^3). Rejected above ``max_r``, where
    the truncation error is no longer negligible.
    """
    _check_sigma(sigma)
    r = params.r
    if r > max_r:
        raise DomainError(
            f"metric_split is a small-r expansion; r={r} exceeds max_r={max_r}"
        )
    g0 = metric_corr3(sigma, ModelParams(0.0))
    h = np.array(
        [
            [r * r, -r, 0.0],
            [-r, r * r, 0.0],
            [0.0, 0.0, 0.0],
        ]
    ) / (sigma * sigma)
    return g0, h


def micro_correlation(cov: float, sigma: float) -> float:
    """Correlation coefficient r = Cov(x, y) / sigma^2 for equal spreads."""
    _check_sigma(sigma)
    r = cov / (sigma * sigma)
    if abs(r) >= 1.0:
        raise DomainError(f"|cov|/sigma^2 = {abs(r)} >= 1 is not a valid correlation")
    return r
