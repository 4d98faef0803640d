"""Fisher-Rao metrics of correlated Gaussian probability families.

Two families are covered, both bivariate normals over the microscopic
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
order (mu_x, sigma_x, mu_y, sigma_y); its determinant is
4 / (sigma_x^4 sigma_y^4 (1-r^2)^2). Both determinants and the eigenvalues
are taken in closed form from the 2x2 blocks.

`metric_corr3` and its inverse broadcast an array sigma against an array
``ModelParams(r)``; the point axes lead and the tensor axes trail. The
determinants broadcast over r too; `metric_corr4` and the eigenvalues take a
scalar r alone.

Only non-negative correlations r in [0, R_MAX) = [0, 1 - 1e-9) are
admitted: metric entries diverge as r -> 1, so values within 1e-9 of 1 are
rejected rather than returned as huge floats. Every spread must be positive
and finite, and every mean finite (the policy lives in `errors`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._elementwise import gather
from .errors import require, require_correlation, require_positive, require_scalar


@dataclass(frozen=True)
class Macrostate3:
    """Point (mu1, mu2, sigma) on the equal-spread 3D manifold.

    The fields may also be numpy arrays of one shape: a set of points.
    """

    mu1: float
    mu2: float
    sigma: float

    def __post_init__(self):
        require_positive(sigma=self.sigma)
        require((abs(self.mu1) < math.inf) & (abs(self.mu2) < math.inf),
                lambda: f"means must be finite, got mu1 = {self.mu1}, mu2 = {self.mu2}")

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
        require_positive(sigma_x=self.sigma_x, sigma_y=self.sigma_y)
        require((abs(self.mu_x) < math.inf) & (abs(self.mu_y) < math.inf),
                lambda: f"means must be finite, got mu_x = {self.mu_x}, mu_y = {self.mu_y}")


@dataclass(frozen=True)
class ModelParams:
    """Micro-correlation coefficient of the Gaussian family.

    Restricted to the non-negative branch r in [0, R_MAX). ``r`` may be an
    array of correlations: each callable that takes a ModelParams either
    broadcasts over it or refuses it with a DomainError that names r and its
    shape (`errors.require_scalar`).
    """

    r: float = 0.0

    def __post_init__(self):
        require_correlation(self.r)


# [[a, b, 0], [b, a, 0], [0, 0, c]], the metric's, its inverse's and Ricci's form
_BLOCK_SLOTS = np.array([[1, 2, 0], [2, 1, 0], [0, 0, 3]])


def metric_corr3(sigma, params: ModelParams) -> np.ndarray:
    """Fisher-Rao metric of the equal-spread family, coordinates (mu1, mu2, sigma)."""
    require_positive(sigma=sigma)
    r = params.r
    d = (1.0 - r) * (1.0 + r)  # 1 - r^2 to one rounding as r -> 1
    s2 = sigma * sigma
    return gather(_BLOCK_SLOTS, 1.0 / d / s2, -r / d / s2, 4.0 / s2)


def metric_corr3_inverse(sigma, params: ModelParams) -> np.ndarray:
    """Exact inverse of :func:`metric_corr3`.

    The momentum block inverts to sigma^2 [[1, r], [r, 1]]; kept in closed
    form so index raising never goes through a numeric inverse.
    """
    require_positive(sigma=sigma)
    s2 = sigma * sigma
    return gather(_BLOCK_SLOTS, s2, params.r * s2, s2 / 4.0)


def metric_corr4(sigma_x: float, sigma_y: float, params: ModelParams) -> np.ndarray:
    """Fisher-Rao metric of the 4-parameter family.

    Coordinate order is fixed to (mu_x, sigma_x, mu_y, sigma_y).
    """
    require_positive(sigma_x=sigma_x, sigma_y=sigma_y)
    r = require_scalar(sigma_x=sigma_x, sigma_y=sigma_y, r=params.r)
    d = (r - 1.0) * (r + 1.0)  # r^2 - 1 to one rounding as r -> 1
    sx, sy = sigma_x, sigma_y
    return np.array(
        [
            [-1.0 / (sx * sx * d), 0.0, r / (sx * sy * d), 0.0],
            [0.0, -(2.0 - r * r) / (sx * sx * d), 0.0, r * r / (sx * sy * d)],
            [r / (sx * sy * d), 0.0, -1.0 / (sy * sy * d), 0.0],
            [0.0, r * r / (sx * sy * d), 0.0, -(2.0 - r * r) / (sy * sy * d)],
        ]
    )


def metric_corr3_determinant(sigma: float, params: ModelParams) -> float:
    """Determinant of :func:`metric_corr3`, 4 / ((1-r^2) sigma^6), at a scalar sigma.

    In closed form, with no LU rounding; it may overflow to inf or underflow
    to 0 where the metric itself is finite.
    """
    require_positive(sigma=sigma)
    r = params.r
    s2 = sigma * sigma
    return 4.0 / ((1.0 - r) * (1.0 + r) * (s2 * s2 * s2))


def metric_corr3_eigenvalues(sigma: float, params: ModelParams) -> np.ndarray:
    """Eigenvalues of :func:`metric_corr3`, ascending, at a scalar sigma.

    The momentum block [[a, b], [b, a]] has a + b = 1/((1+r) sigma^2) and
    a - b = 1/((1-r) sigma^2); the spread entry is 4/sigma^2.
    """
    require_positive(sigma=sigma)
    r = require_scalar(sigma=sigma, r=params.r)
    s2 = sigma * sigma
    return np.sort([1.0 / ((1.0 + r) * s2), 1.0 / ((1.0 - r) * s2), 4.0 / s2])


def _corr4_block_determinant(sigma_x: float, sigma_y: float, r: float) -> float:
    # the determinant of the means' 2x2 block of metric_corr4,
    # 1/(sigma_x^2 sigma_y^2 (1-r^2)); the spreads' block has 4 times it
    return 1.0 / ((sigma_x * sigma_y) ** 2 * ((1.0 - r) * (1.0 + r)))


def metric_corr4_determinant(sigma_x: float, sigma_y: float, params: ModelParams) -> float:
    """Determinant of :func:`metric_corr4`, 4 / (sigma_x^4 sigma_y^4 (1-r^2)^2).

    The product of its two block determinants, as for :func:`metric_corr3_determinant`.
    """
    require_positive(sigma_x=sigma_x, sigma_y=sigma_y)
    det = _corr4_block_determinant(sigma_x, sigma_y, params.r)
    return det * (4.0 * det)


def metric_corr4_eigenvalues(sigma_x: float, sigma_y: float, params: ModelParams) -> np.ndarray:
    """Eigenvalues of :func:`metric_corr4`, ascending, from its two 2x2 blocks.

    The means (mu_x, mu_y) and the spreads (sigma_x, sigma_y) each form a
    block [[p, c], [c, q]]. Its larger root is (p+q)/2 + hypot((p-q)/2, c);
    its smaller is the block determinant over the larger, with the
    determinants in closed form, 1/(sigma_x^2 sigma_y^2 (1-r^2)) and 4 times
    that, so neither root subtracts nearly equal terms. (An eigensolver's
    error scales with the largest eigenvalue and swamps the smallest.)
    """
    g = metric_corr4(sigma_x, sigma_y, params).tolist()
    det = _corr4_block_determinant(sigma_x, sigma_y, params.r)
    roots = []
    for i, j, block_det in ((0, 2, det), (1, 3, 4.0 * det)):
        p, q, c = g[i][i], g[j][j], g[i][j]
        larger = 0.5 * (p + q) + math.hypot(0.5 * (p - q), c)
        roots += [block_det / larger, larger]
    return np.sort(roots)
