"""Connection and curvature tensors of the 3D correlated Gaussian manifold.

All tensors are dense numpy arrays indexed 0..2 in coordinate order
(mu1, mu2, sigma). An array sigma broadcasts against an array
``ModelParams(r)``: the point axes lead and the tensor axes trail, so a
scalar call is the 0-d case. Gamma, R_abcd and R_ab are r-only tables times
1/sigma, 1/sigma^4 and 1/sigma^2 (`_elementwise.scaled`), each refusing a
sigma at which it leaves the normal floats; `sectional`, `bundle` and
`maximal_symmetry_check` refuse one at which a product of two metric entries
does. The curvature convention is

    R^a_bcd = d_c Gamma^a_bd - d_d Gamma^a_bc
              + Gamma^a_fc Gamma^f_bd - Gamma^a_fd Gamma^f_bc,

lowered with the exact closed-form metric (never a numeric inverse, which
loses conditioning as r -> 1). Sign conventions differ between textbooks;
this one makes the manifold's scalar curvature -3/2 and every sectional
curvature -1/4, independent of sigma and r. The sectional curvature of the
plane spanned by u, v uses the Gram denominator

    K(u, v) = R_abcd u^a v^b u^c v^d / (<u,u><v,v> - <u,v>^2),

the sign of which is fixed by requiring consistency with the
maximal-symmetry form R_abcd = R/(n(n-1)) (g_bd g_ac - g_bc g_ad).

The manifold is maximally symmetric and isotropic: the projective Weyl
tensor W_abcd (`bundle`'s ``weyl``) vanishes identically, which
:func:`maximal_symmetry_check` verifies together with R_ab = (R/n) g_ab
and the trace identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from ._elementwise import BLOCK_SLOTS, gather, scalar_or_array, scaled
from .errors import require

DIM = 3

#: Scalar curvature of the manifold, independent of sigma and r.
SCALAR_CURVATURE = -1.5

#: Sectional curvature of every 2-plane, independent of sigma and r.
SECTIONAL_CURVATURE = -0.25


@dataclass(frozen=True)
class CurvatureBundle:
    """All curvature data of the manifold at one point, or at an array of
    points, whose axes lead the tensor axes."""

    christoffel: np.ndarray  # Gamma^a_bc, shape (..., 3, 3, 3)
    riemann: np.ndarray      # R_abcd lowered, shape (..., 3, 3, 3, 3)
    ricci: np.ndarray        # R_ab, shape (..., 3, 3)
    scalar: float
    sectional: np.ndarray    # K(e_i, e_j) for i != j, shape (..., 3, 3), diag nan
    weyl: np.ndarray         # W_abcd, shape (..., 3, 3, 3, 3)

    @classmethod
    def from_tensors(cls, christoffel, riemann, ricci, scalar, metric) -> CurvatureBundle:
        """The bundle of these tensors, with the sectional curvatures of the
        coordinate planes and the Weyl tensor assembled from them."""
        i, j = _PLANES  # K(e_i, e_j) = R_ijij / (g_ii g_jj - g_ij^2), nan on the diagonal
        K = np.full(riemann.shape[:-4] + (DIM, DIM), np.nan)
        g_ij = metric[..., i, j]
        K[..., i, j] = riemann[..., i, j, i, j] / (
            metric[..., i, i] * metric[..., j, j] - g_ij * g_ij)
        weyl = riemann - _wedge(ricci, metric) / (DIM - 1)
        return cls(christoffel, riemann, ricci, scalar, K, weyl)


@dataclass(frozen=True)
class SymmetryReport:
    """Residuals of the maximal-symmetry identities, per point.

    Each residual is normalized by the magnitude of the tensor it compares
    (the identities are scale-covariant; tensor components grow like
    1/sigma^4, so an absolute threshold would only measure float
    representation at small sigma).
    """

    ricci_residual: float    # |R_ab - (R/n) g_ab| / max|R_ab|
    riemann_residual: float  # |R_abcd - R/(n(n-1))(g_bd g_ac - g_bc g_ad)| / max|R_abcd|
    trace_residual: float    # |delta^a_a - n|

    def max_residual(self):
        """The largest of the three residuals per point; NaN propagates."""
        return scalar_or_array(np.max(
            [self.ricci_residual, self.riemann_residual, self.trace_residual], axis=0))


# Gather slots of each tensor's values, listed in its function's docstring.
_CHRISTOFFEL_SLOTS = np.array([
    [[0, 0, 1], [0, 0, 0], [1, 0, 0]],  # Gamma^mu1
    [[0, 0, 0], [0, 0, 1], [0, 1, 0]],  # Gamma^mu2
    [[2, 3, 0], [3, 2, 0], [0, 0, 1]],  # Gamma^sigma
])
# R_1212, R_1313, R_1323 and R_2323 in slots 1, 2, 3 and 2, then their antisymmetry
# and pair images; slot -k, the k-th from the end, holds the negation of slot k
_RIEMANN_SLOTS = np.zeros((DIM,) * 4, dtype=int)
_RIEMANN_SLOTS[(0, 0, 0, 1), (1, 2, 2, 2), (0, 0, 1, 1), (1, 2, 2, 2)] = 1, 2, 3, 2
_RIEMANN_SLOTS -= _RIEMANN_SLOTS.transpose(1, 0, 2, 3)
_RIEMANN_SLOTS -= _RIEMANN_SLOTS.transpose(0, 1, 3, 2)
_RIEMANN_SLOTS += _RIEMANN_SLOTS.transpose(2, 3, 0, 1) * (_RIEMANN_SLOTS == 0)


def christoffel(sigma, params: models.ModelParams) -> np.ndarray:
    """Connection coefficients Gamma^a_bc: -1/sigma (Gamma^1_13, Gamma^2_23,
    Gamma^3_33 and their b, c images), -1/(4 sigma (r^2-1)) (Gamma^3_11,
    Gamma^3_22) and r/(4 sigma (r^2-1)) (Gamma^3_12, Gamma^3_21); the rest are 0."""
    r = params.r
    d = (r - 1.0) * (r + 1.0)  # r^2 - 1 to one rounding as r -> 1
    return gather(_CHRISTOFFEL_SLOTS, *scaled(-1, (-1.0, -1.0 / (4.0 * d)), r / (4.0 * d),
                                              sigma=sigma))


def riemann(sigma, params: models.ModelParams) -> np.ndarray:
    """Lowered Riemann tensor R_abcd. Its independent nonzero components
    (indices 1-based (mu1, mu2, sigma)) are R_1212 = 1/(4 sigma^4 (r^2-1)),
    R_1313 = R_2323 = 1/(sigma^4 (r^2-1)) and R_1323 = -r/(sigma^4 (r^2-1));
    the rest follow from the antisymmetries and the pair symmetry."""
    r = params.r
    d = (r - 1.0) * (r + 1.0)
    values = scaled(-4, (1.0 / (4.0 * d), 1.0 / d), -r / d, sigma=sigma)
    return gather(_RIEMANN_SLOTS, *values, *(-x for x in reversed(values)))


def ricci(sigma, params: models.ModelParams) -> np.ndarray:
    """Ricci tensor R_ab = g^{cd} R_cadb (equivalently g^{bd} R_abcd by pair symmetry)."""
    r = params.r
    d = (r - 1.0) * (r + 1.0)
    return gather(BLOCK_SLOTS, *scaled(-2, (1.0 / (2.0 * d), -2.0), -r / (2.0 * d), sigma=sigma))


def sectional(sigma, params: models.ModelParams, u, v):
    """Sectional curvature of the plane spanned by tangent vectors u, v, or
    of each pair of rows when u and v are stacks (..., 3); the leading axes
    of u and v broadcast against the points. u and v count as linearly
    dependent when the Gram determinant is below 1e-12 of <u,u><v,v>, a
    test that does not depend on the scale of g; u and v must be finite."""
    _require_products(sigma, params.r)
    R, g = riemann(sigma, params), models.metric_corr3(sigma, params)
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    for name, x in (("u", u), ("v", v)):
        require(np.isfinite(x), lambda: f"{name} must be finite, got {x}")
    num = np.einsum("...abcd,...a,...b,...c,...d->...", R, u, v, u, v)
    uu, vv, uv = (np.einsum("...a,...ab,...b->...", x, g, y)
                  for x, y in ((u, u), (v, v), (u, v)))
    den = uu * vv - uv * uv  # numpy's scalar ** rounds some apart from the array square
    require(np.all(abs(den) > 1e-12 * uu * vv),
            "u and v are (numerically) linearly dependent")
    return scalar_or_array(num / den)


def _require_products(sigma, r) -> None:
    # the Gram determinants, g_ii g_jj and g wedge g multiply two metric entries:
    # 1/d^2, 4/d and 16 over sigma^4, d = 1 - r^2, which must stay normal floats
    d = (1.0 - r) * (1.0 + r)
    scaled(-4, (1.0 / (d * d), 4.0 / d, 16.0), sigma=sigma)


# the (i, j) indices of the six off-diagonal coordinate planes
_PLANES = np.nonzero(~np.eye(DIM, dtype=bool))


def _max_abs(x: np.ndarray, rank: int) -> np.ndarray:
    # the largest |component| of each point's tensor, over its trailing rank axes
    return np.abs(x).max(axis=tuple(range(-rank, 0)) if x.ndim > rank else None)


def _wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a_bd b_ac - a_bc b_ad, the tensor structure of a maximally symmetric Riemann
    return np.einsum("...bd,...ac->...abcd", a, b) - np.einsum("...bc,...ad->...abcd", a, b)


def maximal_symmetry_check(sigma, params: models.ModelParams) -> SymmetryReport:
    """Residuals of the three maximal-symmetry identities, per point."""
    _require_products(sigma, params.r)
    g, R, ric = models.metric_corr3(sigma, params), riemann(sigma, params), ricci(sigma, params)
    ginv = models.metric_corr3_inverse(sigma, params)
    ricci_res = _max_abs(ric - (SCALAR_CURVATURE / DIM) * g, 2) / _max_abs(ric, 2)
    expected = (SCALAR_CURVATURE / (DIM * (DIM - 1))) * _wedge(g, g)
    riemann_res = _max_abs(R - expected, 4) / _max_abs(R, 4)
    trace_res = abs(np.einsum("...ab,...ab->...", ginv, g) - DIM)
    return SymmetryReport(*map(scalar_or_array, (ricci_res, riemann_res, trace_res)))


def bundle(sigma, params: models.ModelParams) -> CurvatureBundle:
    """Assemble every curvature quantity at (sigma, r), or at each point of
    their broadcast arrays."""
    _require_products(sigma, params.r)
    return CurvatureBundle.from_tensors(
        christoffel(sigma, params), riemann(sigma, params), ricci(sigma, params),
        SCALAR_CURVATURE, models.metric_corr3(sigma, params))
