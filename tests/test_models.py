"""Fisher-Rao metrics of the Gaussian families against quadrature oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussgeo import models, oracle, scattering
from gaussgeo.errors import R_MAX, DomainError
from gaussgeo.geodesics import InitialConditions
from gaussgeo.models import Macrostate3, Macrostate4, ModelParams
from gaussgeo.scattering import ScatteringConfig

from conftest import grid_cases


class TestMetric3:
    def test_flat_case(self):
        np.testing.assert_array_equal(
            models.metric_corr3(1.0, ModelParams(0.0)), np.diag([1.0, 1.0, 4.0])
        )

    def test_printed_entries(self):
        g = models.metric_corr3(2.0, ModelParams(0.5))
        assert g[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert g[0, 1] == pytest.approx(-1.0 / 6.0, rel=1e-14)
        assert g[2, 2] == pytest.approx(1.0, rel=1e-14)

    def test_noncorr_scaling(self):
        np.testing.assert_allclose(
            models.metric_corr3(2.0, ModelParams(0.0)), np.diag([0.25, 0.25, 1.0]),
            rtol=1e-15,
        )

    def test_noncorr_equals_corr_at_r0(self):
        for sg in (0.1, 1.0, 3.7):
            np.testing.assert_array_equal(
                np.diag([1.0, 1.0, 4.0]) / (sg * sg),
                models.metric_corr3(sg, ModelParams(0.0)),
            )

    @pytest.mark.parametrize("sg,r", grid_cases())
    def test_determinant_identity(self, sg, r):
        g = models.metric_corr3(sg, ModelParams(r))
        expected = 4.0 / ((1 - r * r) * sg**6)
        assert np.linalg.det(g) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("sg,r", grid_cases())
    def test_positive_definite(self, sg, r):
        eig = np.linalg.eigvalsh(models.metric_corr3(sg, ModelParams(r)))
        assert np.all(eig > 0)

    def test_matches_quadrature_oracle(self):
        state = Macrostate3(0.4, -0.3, 2.0)
        params = ModelParams(0.5)
        numeric = oracle.fisher_metric_numeric("corr3", state, params)
        closed = models.metric_corr3(2.0, params)
        assert np.abs(numeric - closed).max() < 1e-7

    def test_noncorr_matches_quadrature_oracle(self):
        state = Macrostate3(0.0, 0.0, 1.0)
        numeric = oracle.fisher_metric_numeric("corr3", state, ModelParams(0.0))
        assert np.abs(numeric - models.metric_corr3(1.0, ModelParams(0.0))).max() < 1e-7

    def test_inverse_is_exact(self):
        for sg, r in grid_cases():
            g = models.metric_corr3(sg, ModelParams(r))
            ginv = models.metric_corr3_inverse(sg, ModelParams(r))
            np.testing.assert_allclose(g @ ginv, np.eye(3), atol=1e-12)


class TestMetric4:
    def test_flat_case(self):
        np.testing.assert_allclose(
            models.metric_corr4(1.0, 1.0, ModelParams(0.0)),
            np.diag([1.0, 2.0, 1.0, 2.0]),
            rtol=1e-15,
        )

    def test_printed_cross_entry(self):
        g = models.metric_corr4(1.0, 2.0, ModelParams(0.5))
        assert g[0, 2] == pytest.approx(-1.0 / 3.0, rel=1e-14)

    def test_matches_quadrature_oracle(self):
        state = Macrostate4(0.2, -0.5, 1.0, 2.0)
        params = ModelParams(0.3)
        numeric = oracle.fisher_metric_numeric("corr4", state, params)
        closed = models.metric_corr4(1.0, 2.0, params)
        assert np.abs(numeric - closed).max() < 1e-6

    @pytest.mark.parametrize("r", [0.0, 0.5, 0.9])
    def test_symmetric_positive_definite(self, r):
        g = models.metric_corr4(0.7, 1.9, ModelParams(r))
        np.testing.assert_array_equal(g, g.T)
        assert np.all(np.linalg.eigvalsh(g) > 0)


@settings(max_examples=60, deadline=None)
@given(
    sg=st.floats(min_value=0.05, max_value=20.0),
    r=st.floats(min_value=0.0, max_value=0.99),
)
def test_metric_symmetry_and_positivity(sg, r):
    g = models.metric_corr3(sg, ModelParams(r))
    np.testing.assert_array_equal(g, g.T)
    assert np.all(np.linalg.eigvalsh(g) > 0)


@settings(max_examples=60, deadline=None)
@given(
    sx=st.floats(min_value=0.05, max_value=10.0),
    sy=st.floats(min_value=0.05, max_value=10.0),
    r=st.floats(min_value=0.0, max_value=0.99),
)
def test_metric4_symmetry_and_positivity(sx, sy, r):
    g = models.metric_corr4(sx, sy, ModelParams(r))
    np.testing.assert_array_equal(g, g.T)
    assert np.all(np.linalg.eigvalsh(g) > 0)


_CFG = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=0.1, a_s=1e-5)


def _printed_perturbation(sg, r):
    # second-order small-r part of the metric as printed:
    # h = [[r^2, -r, 0], [-r, r^2, 0], [0, 0, 0]] / sigma^2
    return np.array([[r * r, -r, 0.0], [-r, r * r, 0.0], [0.0, 0.0, 0.0]]) / (sg * sg)


class TestMetricSplit:
    def test_zero_perturbation_at_r0(self):
        np.testing.assert_array_equal(_printed_perturbation(1.3, 0.0), np.zeros((3, 3)))
        np.testing.assert_array_equal(
            models.metric_corr3(1.3, ModelParams(0.0)), np.diag([1.0, 1.0, 4.0]) / (1.3 * 1.3)
        )

    def test_printed_small_r_entries(self):
        # the metric's departure from flat has the printed entries up to O(r^3)
        r = 0.01
        dg = models.metric_corr3(1.0, ModelParams(r)) - models.metric_corr3(1.0, ModelParams(0.0))
        assert abs(dg[0, 1] - (-r)) <= 1.01 * r**3
        assert abs(dg[0, 0] - r * r) <= 1.01 * r**4

    def test_cubic_truncation_error(self):
        # residual / r^3 must be stable across r (third-order truncation)
        g0 = models.metric_corr3(1.0, ModelParams(0.0))
        constants = []
        for r in (0.01, 0.02, 0.04):
            res = np.abs(models.metric_corr3(1.0, ModelParams(r))
                         - (g0 + _printed_perturbation(1.0, r))).max()
            constants.append(res / r**3)
        assert max(constants) / min(constants) < 1.1


#: prolongation takes r as a scalar and as an array, whose path masks each
#: element on its own; both are kept apart here
_PROLONGATION_R = {
    "prolongation": lambda r: scattering.prolongation(_IC, r),
    "prolongation_array": lambda r: scattering.prolongation(_IC, np.array([0.0, r])),
}
_IC = InitialConditions(p0=1.0, sigma0=0.1)


class TestAdmissibilityPolicy:
    """One correlation range [0, R_MAX); tests/test_api_surface.py refuses
    every input outside it and each bad value by name."""

    @pytest.mark.parametrize("entry", _PROLONGATION_R)
    def test_raw_r_outside_the_range_rejected(self, entry):
        for r in (R_MAX, -1e-12, math.nan, math.inf):
            with pytest.raises(DomainError, match="correlation"):
                _PROLONGATION_R[entry](r)

    def test_largest_admitted_r(self):
        # the perturbative forms strain long before R_MAX; the range's upper
        # end is probed where no regime check intervenes
        r = np.nextafter(R_MAX, 0.0)
        assert ModelParams(r).r == r
        assert scattering.potential_from_r(r, _CFG) == r * _CFG.kinetic_energy
