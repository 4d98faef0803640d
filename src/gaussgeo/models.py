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

Every form broadcasts its spreads against an array ``ModelParams(r)``, the
point axes before the tensor axes. Each is an r-only table times a power of
the spreads (`_elementwise.scaled`), which refuses by name, with its range,
a spread at which an entry nonzero at every r leaves the normal floats.
Only r in [0, R_MAX) = [0, 1 - 1e-9) is admitted, as metric entries diverge
as r -> 1, and every mean must be finite (the policy lives in `errors`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._elementwise import BLOCK_SLOTS, gather, scalar_or_array, scaled
from .errors import require, require_correlation, require_positive


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


# the corr4 metric's entries 1/d and (2 - r^2)/d over sigma_x^2 (slots 1, 2) and over
# sigma_y^2 (3, 4), and -r/d and -r^2/d over sigma_x sigma_y (5, 6), with d = 1 - r^2
_CORR4_SLOTS = np.array([[1, 0, 5, 0], [0, 2, 0, 6], [5, 0, 3, 0], [0, 6, 0, 4]])


def metric_corr3(sigma, params: ModelParams) -> np.ndarray:
    """Fisher-Rao metric of the equal-spread family, coordinates (mu1, mu2, sigma)."""
    r = params.r
    d = (1.0 - r) * (1.0 + r)  # 1 - r^2 to one rounding as r -> 1
    return gather(BLOCK_SLOTS, *scaled(-2, (1.0 / d, 4.0), -r / d, sigma=sigma))


def metric_corr3_inverse(sigma, params: ModelParams) -> np.ndarray:
    """Exact inverse of :func:`metric_corr3`, so that index raising never goes
    through a numeric inverse: the momentum block inverts to sigma^2 [[1, r], [r, 1]]."""
    return gather(BLOCK_SLOTS, *scaled(2, (1.0, 0.25), params.r, sigma=sigma))


def metric_corr4(sigma_x, sigma_y, params: ModelParams) -> np.ndarray:
    """Fisher-Rao metric of the 4-parameter family, coordinates (mu_x, sigma_x,
    mu_y, sigma_y): the unit-spread one congruent by diag(1/sigma_x, 1/sigma_x,
    1/sigma_y, 1/sigma_y)."""
    r = params.r
    d = (1.0 - r) * (1.0 + r)
    diagonal = (1.0 / d, (2.0 - r * r) / d)
    return gather(_CORR4_SLOTS, *scaled(-2, diagonal, sigma_x=sigma_x),
                  *scaled(-2, diagonal, sigma_y=sigma_y),
                  *scaled(-1, (), -r / d, -r * r / d, sigma_x=sigma_x, sigma_y=sigma_y))


def metric_corr3_determinant(sigma, params: ModelParams):
    """Determinant of :func:`metric_corr3`, 4 / ((1-r^2) sigma^6), in closed
    form, with no LU rounding."""
    r = params.r
    return scalar_or_array(scaled(-6, (4.0 / ((1.0 - r) * (1.0 + r)),), sigma=sigma)[0])


def metric_corr3_eigenvalues(sigma, params: ModelParams) -> np.ndarray:
    """Eigenvalues of :func:`metric_corr3`, ascending along the last axis: those
    of the momentum block, 1/((1+r) sigma^2) (the least, as r >= 0) and
    1/((1-r) sigma^2), and the spread entry 4/sigma^2."""
    r = params.r
    upper = 1.0 / (1.0 - r)  # passes 4 at r = 3/4
    return gather(np.arange(1, 4), *scaled(
        -2, (1.0 / (1.0 + r), np.minimum(upper, 4.0), np.maximum(upper, 4.0)), sigma=sigma))


def metric_corr4_determinant(sigma_x, sigma_y, params: ModelParams):
    """Determinant of :func:`metric_corr4`, 4 / (sigma_x^4 sigma_y^4 (1-r^2)^2):
    the product of its block determinants, 1/(sigma_x^2 sigma_y^2 (1-r^2))
    and 4 times that."""
    r = params.r
    b = 1.0 / ((1.0 - r) * (1.0 + r))  # the means' block determinant at unit spreads
    return scalar_or_array(scaled(-4, (b * (4.0 * b),), sigma_x=sigma_x, sigma_y=sigma_y)[0])


def metric_corr4_eigenvalues(sigma_x, sigma_y, params: ModelParams) -> np.ndarray:
    """Eigenvalues of :func:`metric_corr4`, ascending along the last axis.

    The means (mu_x, mu_y) and the spreads (sigma_x, sigma_y) each form a
    block [[p, c], [c, q]]. Its larger root is (p+q)/2 + hypot((p-q)/2, c),
    and its smaller the block determinant, in closed form, over the larger:
    neither subtracts nearly equal terms, as an eigensolver's smallest does.
    Every root lies in [1/(2 max(sigma)^2), 2/((1-r^2) min(sigma)^2)] over the
    spreads, and a spread that takes those bounds out of the normal floats is refused.
    """
    g = metric_corr4(sigma_x, sigma_y, params)
    r = params.r
    d = (1.0 - r) * (1.0 + r)
    for spread in ({"sigma_x": sigma_x}, {"sigma_y": sigma_y}):
        scaled(-2, (0.5, 2.0 / d), **spread)
    dets = np.stack(scaled(-2, (1.0 / d, 4.0 / d), sigma_x=sigma_x, sigma_y=sigma_y), axis=-1)
    p, q, c = g[..., [0, 1], [0, 1]], g[..., [2, 3], [2, 3]], g[..., [0, 1], [2, 3]]
    larger = 0.5 * (p + q) + np.hypot(0.5 * (p - q), c)
    return np.sort(np.concatenate([dets / larger, larger], axis=-1), axis=-1)
