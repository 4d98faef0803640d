"""Connection and curvature tensors of the 3D correlated Gaussian manifold.

All tensors are dense numpy arrays indexed 0..2 in coordinate order
(mu1, mu2, sigma). The curvature convention is

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

from .errors import require, require_positive
from .models import ModelParams, metric_corr3, metric_corr3_inverse

DIM = 3

#: Scalar curvature of the manifold, independent of sigma and r.
SCALAR_CURVATURE = -1.5

#: Sectional curvature of every 2-plane, independent of sigma and r.
SECTIONAL_CURVATURE = -0.25


@dataclass(frozen=True)
class CurvatureBundle:
    """All curvature data of the manifold at one point."""

    christoffel: np.ndarray  # Gamma^a_bc, shape (3,3,3)
    riemann: np.ndarray      # R_abcd lowered, shape (3,3,3,3)
    ricci: np.ndarray        # R_ab, shape (3,3)
    scalar: float
    sectional: np.ndarray    # K(e_i, e_j) for i != j, shape (3,3), diag nan
    weyl: np.ndarray         # W_abcd, shape (3,3,3,3)

    @classmethod
    def from_tensors(cls, christoffel, riemann, ricci, scalar, metric) -> CurvatureBundle:
        """The bundle of these tensors, with the sectional curvatures of the
        coordinate planes and the Weyl tensor assembled from them."""
        K = _on_planes(_sectional(riemann, metric, _PLANE_U, _PLANE_V))
        weyl = riemann - _wedge(ricci, metric) / (DIM - 1)
        return cls(christoffel, riemann, ricci, scalar, K, weyl)


@dataclass(frozen=True)
class SymmetryReport:
    """Residuals of the maximal-symmetry identities.

    Each residual is normalized by the magnitude of the tensor it compares
    (the identities are scale-covariant; tensor components grow like
    1/sigma^4, so an absolute threshold would only measure float
    representation at small sigma).
    """

    ricci_residual: float    # |R_ab - (R/n) g_ab| / max|R_ab|
    riemann_residual: float  # |R_abcd - R/(n(n-1))(g_bd g_ac - g_bc g_ad)| / max|R_abcd|
    trace_residual: float    # |delta^a_a - n|

    def max_residual(self) -> float:
        return max(self.ricci_residual, self.riemann_residual, self.trace_residual)


def christoffel(sigma: float, params: ModelParams) -> np.ndarray:
    """Connection coefficients Gamma^a_bc; six nonzero families, rest zero."""
    require_positive(sigma=sigma)
    r = params.r
    d = r * r - 1.0
    G = np.zeros((DIM, DIM, DIM))
    G[0, 0, 2] = G[0, 2, 0] = -1.0 / sigma
    G[1, 1, 2] = G[1, 2, 1] = -1.0 / sigma
    G[2, 0, 0] = -1.0 / (4.0 * sigma * d)
    G[2, 0, 1] = G[2, 1, 0] = r / (4.0 * sigma * d)
    G[2, 1, 1] = -1.0 / (4.0 * sigma * d)
    G[2, 2, 2] = -1.0 / sigma
    return G


def _set_riemann_component(R: np.ndarray, a, b, c, d, value: float) -> None:
    # write one independent component plus its antisymmetry and pair images
    for (i, j, k, l, s) in (
        (a, b, c, d, 1.0),
        (b, a, c, d, -1.0),
        (a, b, d, c, -1.0),
        (b, a, d, c, 1.0),
    ):
        R[i, j, k, l] = s * value
        R[k, l, i, j] = s * value


def riemann(sigma: float, params: ModelParams) -> np.ndarray:
    """Lowered Riemann tensor R_abcd.

    Independent nonzero components (indices 1-based (mu1, mu2, sigma)):
    R_1212, R_1313, R_1323, R_2323; everything else follows from the
    antisymmetries and the pair symmetry.
    """
    require_positive(sigma=sigma)
    r = params.r
    d = r * r - 1.0
    s4 = sigma ** 4
    R = np.zeros((DIM,) * 4)
    _set_riemann_component(R, 0, 1, 0, 1, 1.0 / (4.0 * s4 * d))
    _set_riemann_component(R, 0, 2, 0, 2, 1.0 / (s4 * d))
    _set_riemann_component(R, 0, 2, 1, 2, -r / (s4 * d))
    _set_riemann_component(R, 1, 2, 1, 2, 1.0 / (s4 * d))
    return R


def ricci(sigma: float, params: ModelParams) -> np.ndarray:
    """Ricci tensor R_ab = g^{cd} R_cadb (equivalently g^{bd} R_abcd by pair symmetry)."""
    require_positive(sigma=sigma)
    r = params.r
    d = r * r - 1.0
    s2 = sigma * sigma
    return np.array(
        [
            [1.0 / (2.0 * s2 * d), -r / (2.0 * s2 * d), 0.0],
            [-r / (2.0 * s2 * d), 1.0 / (2.0 * s2 * d), 0.0],
            [0.0, 0.0, -2.0 / s2],
        ]
    )


def _sectional(R: np.ndarray, g: np.ndarray, u, v):
    # K(u, v) per pair of rows of u and v (leading axes broadcast)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    num = np.einsum("abcd,...a,...b,...c,...d->...", R, u, v, u, v)
    uu, vv, uv = (np.einsum("...a,ab,...b->...", x, g, y) for x, y in ((u, u), (v, v), (u, v)))
    den = uu * vv - uv**2
    require(np.all(abs(den) > 1e-12 * uu * vv),
            "u and v are (numerically) linearly dependent")
    return num / den


def sectional(sigma: float, params: ModelParams, u, v):
    """Sectional curvature of the plane spanned by tangent vectors u, v, or
    of each pair of rows when u and v are stacks (..., 3). u and v count as
    linearly dependent when the Gram determinant is below 1e-12 of
    <u,u><v,v>, a test that does not depend on the scale of g."""
    return _sectional(riemann(sigma, params), metric_corr3(sigma, params), u, v)


# mask of the six off-diagonal (i, j) coordinate planes, and their e_i, e_j
_PLANES = ~np.eye(DIM, dtype=bool)
_PLANE_U, _PLANE_V = (np.eye(DIM)[idx] for idx in np.nonzero(_PLANES))


def _on_planes(values: np.ndarray) -> np.ndarray:
    # the six coordinate-plane values as a (3, 3) table with nan on the diagonal
    K = np.full((DIM, DIM), np.nan)
    K[_PLANES] = values
    return K


def _wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a_bd b_ac - a_bc b_ad, the tensor structure of a maximally symmetric Riemann
    return np.einsum("bd,ac->abcd", a, b) - np.einsum("bc,ad->abcd", a, b)


def maximal_symmetry_check(sigma: float, params: ModelParams) -> SymmetryReport:
    """Residuals of the three maximal-symmetry identities."""
    g = metric_corr3(sigma, params)
    R = riemann(sigma, params)
    ric = ricci(sigma, params)
    ginv = metric_corr3_inverse(sigma, params)

    ricci_res = np.abs(ric - (SCALAR_CURVATURE / DIM) * g).max() / np.abs(ric).max()
    expected = (SCALAR_CURVATURE / (DIM * (DIM - 1))) * _wedge(g, g)
    riemann_res = np.abs(R - expected).max() / np.abs(R).max()
    trace_res = abs(np.einsum("ab,ab->", ginv, g) - DIM)
    return SymmetryReport(float(ricci_res), float(riemann_res), float(trace_res))


def bundle(sigma: float, params: ModelParams) -> CurvatureBundle:
    """Assemble every curvature quantity at (sigma, r)."""
    return CurvatureBundle.from_tensors(
        christoffel(sigma, params), riemann(sigma, params), ricci(sigma, params),
        SCALAR_CURVATURE, metric_corr3(sigma, params))
