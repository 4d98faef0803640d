"""Closed-form curvature tensors, symmetries, and isotropy checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussgeo import curvature, oracle
from gaussgeo.errors import DomainError
from gaussgeo.models import ModelParams

from conftest import grid_cases


class TestChristoffel:
    def test_printed_values_flat(self):
        G = curvature.christoffel(1.0, ModelParams(0.0))
        assert G[2, 0, 0] == pytest.approx(0.25, rel=1e-15)
        assert G[0, 0, 2] == pytest.approx(-1.0, rel=1e-15)
        assert G[2, 0, 1] == 0.0

    def test_printed_value_correlated(self):
        G = curvature.christoffel(2.0, ModelParams(0.5))
        assert G[2, 0, 1] == pytest.approx(-1.0 / 12.0, rel=1e-14)

    @pytest.mark.parametrize("sg,r", grid_cases())
    def test_lower_index_symmetry(self, sg, r):
        G = curvature.christoffel(sg, ModelParams(r))
        np.testing.assert_array_equal(G, np.swapaxes(G, 1, 2))

    @pytest.mark.parametrize("sg,r", grid_cases())
    def test_matches_finite_difference(self, sg, r):
        fd = oracle.curvature_fd(sg, ModelParams(r))
        closed = curvature.christoffel(sg, ModelParams(r))
        assert np.abs(fd.christoffel - closed).max() < 1e-6

    def test_sigma_derivative_exact(self):
        # every coefficient scales as 1/sigma: d Gamma / d sigma = -Gamma / sigma
        G = curvature.christoffel(1.5, ModelParams(0.4))
        h = 1e-6
        fd = (
            curvature.christoffel(1.5 + h, ModelParams(0.4))
            - curvature.christoffel(1.5 - h, ModelParams(0.4))
        ) / (2 * h)
        assert np.abs(-G / 1.5 - fd).max() < 1e-8


class TestRiemann:
    def test_printed_flat_component(self):
        R = curvature.riemann(1.0, ModelParams(0.0))
        assert R[0, 1, 0, 1] == pytest.approx(-0.25, rel=1e-15)

    def test_printed_correlated_component(self):
        R = curvature.riemann(1.0, ModelParams(0.5))
        assert R[0, 2, 1, 2] == pytest.approx(2.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("sg,r", grid_cases())
    def test_matches_finite_difference(self, sg, r):
        fd = oracle.curvature_fd(sg, ModelParams(r))
        closed = curvature.riemann(sg, ModelParams(r))
        # compare in units of the component scale 1/sigma^4
        assert np.abs(fd.riemann - closed).max() * sg**4 < 1e-5

    @pytest.mark.parametrize("sg,r", grid_cases())
    def test_symmetries_exact(self, sg, r):
        R = curvature.riemann(sg, ModelParams(r))
        np.testing.assert_array_equal(R, -np.swapaxes(R, 0, 1))
        np.testing.assert_array_equal(R, -np.swapaxes(R, 2, 3))
        np.testing.assert_array_equal(R, np.moveaxis(R, (0, 1, 2, 3), (2, 3, 0, 1)))

    @pytest.mark.parametrize("sg,r", grid_cases())
    def test_first_bianchi_identity(self, sg, r):
        R = curvature.riemann(sg, ModelParams(r))
        cyclic = R + np.moveaxis(R, (1, 2, 3), (2, 3, 1)) + np.moveaxis(
            R, (1, 2, 3), (3, 1, 2)
        )
        assert np.abs(cyclic).max() / np.abs(R).max() < 1e-12


class TestRicci:
    def test_printed_flat_components(self):
        ric = curvature.ricci(1.0, ModelParams(0.0))
        assert ric[0, 0] == pytest.approx(-0.5, rel=1e-15)
        assert ric[2, 2] == pytest.approx(-2.0, rel=1e-15)

    def test_printed_correlated_component(self):
        ric = curvature.ricci(1.0, ModelParams(0.5))
        assert ric[0, 1] == pytest.approx(1.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("sg,r", grid_cases())
    def test_contraction_of_riemann(self, sg, r):
        # R_ac = g^{bd} R_abcd with the exact inverse metric
        from gaussgeo.models import metric_corr3_inverse

        R = curvature.riemann(sg, ModelParams(r))
        ginv = metric_corr3_inverse(sg, ModelParams(r))
        contracted = np.einsum("bd,abcd->ac", ginv, R)
        ric = curvature.ricci(sg, ModelParams(r))
        assert np.abs(contracted - ric).max() / np.abs(ric).max() < 1e-10


class TestScalarAndSectional:
    @pytest.mark.parametrize("r", [0.0, 0.5, 0.9])
    def test_scalar_constant(self, r):
        assert curvature.bundle(1.0, ModelParams(r)).scalar == -1.5

    @pytest.mark.parametrize("sg,r", grid_cases())
    def test_scalar_from_contraction(self, sg, r):
        from gaussgeo.models import metric_corr3_inverse

        ginv = metric_corr3_inverse(sg, ModelParams(r))
        ric = curvature.ricci(sg, ModelParams(r))
        assert np.einsum("ab,ab->", ginv, ric) == pytest.approx(-1.5, abs=1e-12)

    def test_coordinate_planes(self):
        e = np.eye(3)
        assert curvature.sectional(1.0, ModelParams(0.0), e[0], e[1]) == pytest.approx(
            -0.25, abs=1e-14
        )
        assert curvature.sectional(2.0, ModelParams(0.5), e[0], e[2]) == pytest.approx(
            -0.25, abs=1e-14
        )

    def test_random_planes_isotropy(self, rng):
        for _ in range(100):
            sg = rng.uniform(0.2, 5.0)
            r = rng.uniform(0.0, 0.95)
            u, v = rng.normal(size=3), rng.normal(size=3)
            K = curvature.sectional(sg, ModelParams(r), u, v)
            assert K == pytest.approx(-0.25, abs=1e-10)

    def test_degenerate_plane_rejected(self):
        with pytest.raises(DomainError):
            curvature.sectional(1.0, ModelParams(0.0), [1, 0, 0], [2, 0, 0])

    @pytest.mark.parametrize("sg", [2e3, 1e4])
    def test_coordinate_planes_at_large_sigma(self, sg):
        # the Gram determinant scales as 1/sigma^4; the dependence test must not
        K = curvature.bundle(sg, ModelParams(0.5)).sectional
        np.testing.assert_allclose(K[~np.eye(3, dtype=bool)], -0.25, rtol=1e-12)

    @pytest.mark.parametrize("sg", [1.0, 1e4])
    def test_collinear_vectors_rejected_at_any_sigma(self, sg):
        with pytest.raises(DomainError):
            curvature.sectional(sg, ModelParams(0.3), [1.0, 2.0, 0.5], [2.0, 4.0, 1.0])

    @pytest.mark.parametrize("form", ["bundle", "maximal_symmetry_check", "sectional"])
    def test_product_past_the_floats_is_refused(self, form):
        # g_ii g_jj ~ 1/(sigma^4 (1 - r^2)^2) overflows here, though every
        # entry of g and R is normal
        planes = ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) if form == "sectional" else ()
        with pytest.raises(DomainError, match=r"sigma must lie in \[6\.11e-75, 1\.64e\+77\]"):
            getattr(curvature, form)(8e-76, ModelParams(0.999999), *planes)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["u", "v"])
    def test_non_finite_vector_rejected_by_name(self, name, bad):
        # refused before the Gram test, which would call it linearly dependent
        vectors = {"u": [1.0, 1.0, 0.0], "v": [0.0, 1.0, 1.0]}
        vectors[name][0] = bad
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            curvature.sectional(1.0, ModelParams(0.3), **vectors)


class TestWeylAndSymmetry:
    @pytest.mark.parametrize("sg,r", [(1.0, 0.0), (3.0, 0.7), (10.0, 0.9)])
    def test_weyl_vanishes_absolute(self, sg, r):
        assert np.abs(curvature.bundle(sg, ModelParams(r)).weyl).max() < 1e-12

    @pytest.mark.parametrize("sg,r", grid_cases())
    def test_weyl_vanishes_scaled(self, sg, r):
        W = np.abs(curvature.bundle(sg, ModelParams(r)).weyl).max()
        scale = np.abs(curvature.riemann(sg, ModelParams(r))).max()
        assert W / scale < 1e-12

    @pytest.mark.parametrize("sg,r", grid_cases())
    def test_weyl_from_finite_differences(self, sg, r):
        fd = oracle.curvature_fd(sg, ModelParams(r))
        assert np.abs(fd.weyl).max() * sg**4 < 1e-5

    def test_symmetry_residuals_flat(self):
        report = curvature.maximal_symmetry_check(1.0, ModelParams(0.0))
        assert report.ricci_residual == 0.0
        assert report.riemann_residual == 0.0
        assert report.trace_residual == 0.0

    def test_symmetry_residuals_correlated(self):
        report = curvature.maximal_symmetry_check(2.0, ModelParams(0.5))
        assert report.max_residual() < 1e-12

    @pytest.mark.parametrize("field", range(3))
    def test_max_residual_propagates_nan(self, field):
        residuals = [1e-16, 0.0, 2e-16]
        residuals[field] = math.nan
        assert math.isnan(curvature.SymmetryReport(*residuals).max_residual())

    def test_negative_control(self, monkeypatch):
        # a wrong scalar curvature must leave visibly nonzero residuals
        monkeypatch.setattr(curvature, "SCALAR_CURVATURE", -1.4)
        report = curvature.maximal_symmetry_check(1.0, ModelParams(0.0))
        assert report.max_residual() > 1e-3


class TestBundle:
    def test_bundle_assembly(self):
        b = curvature.bundle(1.0, ModelParams(0.3))
        assert b.scalar == -1.5
        assert b.riemann.shape == (3, 3, 3, 3)
        assert np.isnan(b.sectional[0, 0])
        assert b.sectional[0, 1] == pytest.approx(-0.25, abs=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    sg=st.floats(min_value=0.1, max_value=10.0),
    r=st.floats(min_value=0.0, max_value=0.95),
)
def test_sectional_constant_everywhere(sg, r):
    K = curvature.bundle(sg, ModelParams(r)).sectional
    off = K[~np.isnan(K)]
    np.testing.assert_allclose(off, -0.25, atol=1e-11)
