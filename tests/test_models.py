"""Gaussian families and Fisher-Rao metrics against quadrature oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussgeo import models, oracle
from gaussgeo.errors import DomainError
from gaussgeo.models import Macrostate3, Macrostate4, ModelParams

from conftest import grid_cases


def gauss_legendre_2d(f, x_range, y_range, order=80):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    xh = 0.5 * (x_range[1] - x_range[0])
    yh = 0.5 * (y_range[1] - y_range[0])
    x, wx = 0.5 * sum(x_range) + xh * nodes, xh * weights
    y, wy = 0.5 * sum(y_range) + yh * nodes, yh * weights
    total = 0.0
    for xi, wxi in zip(x, wx):
        for yj, wyj in zip(y, wy):
            total += wxi * wyj * f(xi, yj)
    return total


class TestPdfCorr3:
    def test_standard_peak(self):
        state = Macrostate3(0.0, 0.0, 1.0)
        assert models.pdf_corr3(state, ModelParams(0.0), (0.0, 0.0)) == pytest.approx(
            0.15915494309189535, rel=1e-12
        )

    def test_correlated_peak(self):
        state = Macrostate3(0.0, 0.0, 1.0)
        assert models.pdf_corr3(state, ModelParams(0.5), (0.0, 0.0)) == pytest.approx(
            0.1837762984739307, rel=1e-12
        )

    @pytest.mark.parametrize("r", [0.0, 0.3, 0.8])
    def test_normalization_by_quadrature(self, r):
        state = Macrostate3(0.5, -1.0, 0.7)
        s = state.sigma
        total = gauss_legendre_2d(
            lambda x, y: models.pdf_corr3(state, ModelParams(r), (x, y)),
            (state.mu1 - 8 * s, state.mu1 + 8 * s),
            (state.mu2 - 8 * s, state.mu2 + 8 * s),
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_marginals_are_univariate_normals(self):
        # integrate out y at fixed x: must equal N(mu1, sigma) at x
        state = Macrostate3(0.3, -0.4, 0.8)
        params = ModelParams(0.6)
        s = state.sigma
        nodes, weights = np.polynomial.legendre.leggauss(120)
        y = state.mu2 + 8 * s * nodes
        w = 8 * s * weights
        for x in (0.3, 0.9, -0.5):
            marginal = sum(
                wi * models.pdf_corr3(state, params, (x, yi)) for yi, wi in zip(y, w)
            )
            expected = math.exp(-((x - state.mu1) ** 2) / (2 * s * s)) / math.sqrt(
                2 * math.pi * s * s
            )
            assert marginal == pytest.approx(expected, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ModelParams(-0.1)
        with pytest.raises(DomainError):
            ModelParams(1.0)
        with pytest.raises(DomainError):
            Macrostate3(0.0, 0.0, 0.0)


class TestPdfNoncorr3:
    def test_bitwise_equal_to_r0(self):
        # at r = 0 the density is the product of two 1-D normals
        state = Macrostate3(1.2, -0.7, 0.5)
        for x, y in [(0.0, 0.0), (1.5, -2.0), (0.3, 0.4)]:
            dx, dy, s = x - 1.2, y + 0.7, 0.5
            product = math.exp(-((dx * dx + dy * dy) / (s * s)) / 2.0) / (
                2.0 * math.pi * s * s
            )
            assert models.pdf_corr3(state, ModelParams(0.0), (x, y)) == product

    def test_peak_value(self):
        state = Macrostate3(1.0, -1.0, 1.0)
        assert models.pdf_corr3(state, ModelParams(0.0), (1.0, -1.0)) == pytest.approx(
            0.15915494309189535, rel=1e-12
        )

    def test_off_peak_value(self):
        state = Macrostate3(0.0, 0.0, 2.0)
        assert models.pdf_corr3(state, ModelParams(0.0), (2.0, 0.0)) == pytest.approx(
            0.02413308815751348, rel=1e-12
        )


class TestPdfCorr4:
    def test_equal_spread_reduction(self):
        s3 = Macrostate3(0.2, -0.3, 0.9)
        s4 = Macrostate4(0.2, -0.3, 0.9, 0.9)
        params = ModelParams(0.4)
        for point in [(0.0, 0.0), (1.0, -1.0), (0.5, 0.1)]:
            assert models.pdf_corr4(s4, params, point) == pytest.approx(
                models.pdf_corr3(s3, params, point), rel=1e-14
            )

    def test_peak(self):
        s4 = Macrostate4(0.5, 1.5, 0.7, 1.3)
        r = 0.6
        expected = 1.0 / (2 * math.pi * 0.7 * 1.3 * math.sqrt(1 - r * r))
        assert models.pdf_corr4(s4, ModelParams(r), (0.5, 1.5)) == pytest.approx(
            expected, rel=1e-14
        )

    def test_normalization(self):
        s4 = Macrostate4(0.0, 0.0, 1.0, 2.0)
        total = gauss_legendre_2d(
            lambda x, y: models.pdf_corr4(s4, ModelParams(0.5), (x, y)),
            (-8.0, 8.0), (-16.0, 16.0), order=120,
        )
        assert total == pytest.approx(1.0, abs=1e-10)


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

    def test_rejects_bad_sigma(self):
        with pytest.raises(DomainError):
            models.metric_corr3(-1.0, ModelParams(0.0))
        with pytest.raises(DomainError):
            models.metric_corr3(0.0, ModelParams(0.0))


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


class TestMetricSplit:
    def test_zero_perturbation_at_r0(self):
        g0, h = models.metric_split(1.3, ModelParams(0.0))
        np.testing.assert_array_equal(h, np.zeros((3, 3)))
        np.testing.assert_array_equal(g0, np.diag([1.0, 1.0, 4.0]) / (1.3 * 1.3))

    def test_printed_small_r_entries(self):
        _, h = models.metric_split(1.0, ModelParams(0.01))
        assert h[0, 1] == pytest.approx(-0.01, rel=1e-14)
        assert h[0, 0] == pytest.approx(1e-4, rel=1e-14)

    def test_cubic_truncation_error(self):
        # residual / r^3 must be stable across r (third-order truncation)
        constants = []
        for r in (0.01, 0.02, 0.04):
            g0, h = models.metric_split(1.0, ModelParams(r))
            res = np.abs(models.metric_corr3(1.0, ModelParams(r)) - (g0 + h)).max()
            constants.append(res / r**3)
        assert max(constants) / min(constants) < 1.1

    def test_rejects_large_r(self):
        with pytest.raises(DomainError):
            models.metric_split(1.0, ModelParams(0.2))
        # configurable threshold admits it
        models.metric_split(1.0, ModelParams(0.2), max_r=0.3)


class TestMicroCorrelation:
    def test_trivial_values(self):
        assert models.micro_correlation(0.0, 1.0) == 0.0
        assert models.micro_correlation(0.5, 1.0) == 0.5

    def test_rejects_invalid(self):
        with pytest.raises(DomainError):
            models.micro_correlation(4.0, 1.0)
        with pytest.raises(DomainError):
            models.micro_correlation(1.0, 0.0)

    def test_monte_carlo_estimate(self, rng):
        # sample the correlated density and recover r from the sample covariance
        r_true, sg = 0.3, 1.0
        cov = sg * sg * np.array([[1.0, r_true], [r_true, 1.0]])
        samples = rng.multivariate_normal([0.0, 0.0], cov, size=1_000_000)
        cov_hat = np.cov(samples[:, 0], samples[:, 1])[0, 1]
        sg_hat = math.sqrt(0.5 * (samples[:, 0].var() + samples[:, 1].var()))
        assert models.micro_correlation(cov_hat, sg_hat) == pytest.approx(
            r_true, abs=5e-3
        )


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
