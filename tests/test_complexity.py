"""Volume-average complexity, entropy, and the correlation bridge."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussgeo import complexity, geodesics, models, oracle, scattering
from gaussgeo.errors import DomainError, RegimeError, RegimeWarning
from gaussgeo.models import ModelParams
from gaussgeo.scattering import ScatteringConfig


def lam(ic):
    return 2.0 * geodesics.amplitude_A0(ic)


class TestFisherDensity:
    # the volume element sqrt(det g) = 2 / (sqrt(1 - r^2) sigma^3) of the
    # volumes whose averages are the IGC
    @staticmethod
    def density(sg, r):
        return math.sqrt(np.linalg.det(models.metric_corr3(sg, ModelParams(r))))

    def test_flat_value(self):
        assert self.density(1.0, 0.0) == pytest.approx(2.0, rel=1e-14)

    def test_correlated_value(self):
        assert self.density(1.0, 0.6) == pytest.approx(2.5, rel=1e-14)

    @pytest.mark.parametrize("sg", [0.1, 1.0, 5.0])
    @pytest.mark.parametrize("r", [0.0, 0.5, 0.9])
    def test_equals_sqrt_det_metric(self, desk_ic, sg, r):
        # the IGC ratio is the density ratio times the squared ratio of the
        # momentum ranges the correlated and flat geodesics sweep
        tau = 2.0 / lam(desk_ic)
        momentum = (geodesics.geodesic_corr(tau, ModelParams(r), desk_ic).mu2
                    / geodesics.geodesic_corr(tau, ModelParams(0.0), desk_ic).mu2)
        assert self.density(sg, r) / self.density(sg, 0.0) * momentum**2 == \
            pytest.approx(complexity.igc_ratio(ModelParams(r)), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            self.density(0.0, 0.0)


class TestIgcClosed:
    def test_vanishes_at_small_horizon(self, desk_ic):
        # the bracket vanishes like (lambda tau)^5
        value = complexity.igc_closed(1e-6, ModelParams(0.3), desk_ic)
        assert abs(value) < 1e-10

    @pytest.mark.parametrize("lt", [0.5, 2.0, 8.0])
    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    def test_ratio_factorizes(self, desk_ic, lt, r):
        tau = lt / lam(desk_ic)
        ratio = complexity.igc_closed(tau, ModelParams(r), desk_ic) / \
            complexity.igc_closed(tau, ModelParams(0.0), desk_ic)
        assert abs(ratio - complexity.igc_ratio(ModelParams(r))) < 1e-12

    def test_matches_nested_integral(self, desk_ic):
        params = ModelParams(0.3)
        tau = 5.0 / lam(desk_ic)
        closed = complexity.igc_closed(tau, params, desk_ic)
        numeric = oracle.igc_numeric(tau, params, desk_ic)
        assert abs(closed - numeric) / numeric < 1e-5

    def test_nonnegative_and_increasing(self, desk_ic):
        params = ModelParams(0.4)
        taus = np.linspace(1.0, 10.0, 19) / lam(desk_ic)
        values = [complexity.igc_closed(t, params, desk_ic) for t in taus]
        assert all(v >= 0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))


class TestIgeClosed:
    def test_flat_reference_value(self, desk_ic):
        tau = 10.0 / lam(desk_ic)
        assert complexity.ige_closed(tau, ModelParams(0.0), desk_ic) == pytest.approx(
            7.697414907005954, rel=1e-12
        )

    @pytest.mark.parametrize("lt", [6.0, 11.0, 30.0])
    def test_gap_is_horizon_independent(self, desk_ic, lt):
        tau = lt / lam(desk_ic)
        gap = complexity.ige_closed(tau, ModelParams(0.5), desk_ic) - \
            complexity.ige_closed(tau, ModelParams(0.0), desk_ic)
        assert gap == pytest.approx(-0.5493061443340549, abs=1e-12)

    def test_gap_helper(self):
        assert complexity.ige_gap(ModelParams(0.5)) == pytest.approx(
            0.5 * math.log(1.0 / 3.0), rel=1e-14
        )

    def test_log_volume_offset(self, desk_ic):
        # ln(IGC) approaches IGE shifted by the volume normalization -ln 2
        params = ModelParams(0.3)
        for lt, tol in ((20.0, 1e-6), (40.0, 1e-10)):
            tau = lt / lam(desk_ic)
            diff = math.log(
                complexity.igc_closed(tau, params, desk_ic)
            ) - complexity.ige_closed(tau, params, desk_ic)
            assert abs(diff + math.log(2.0)) < tol

    def test_warns_below_asymptotic_regime(self, desk_ic):
        with pytest.warns(RegimeWarning) as record:
            complexity.ige_closed(1.0 / lam(desk_ic), ModelParams(0.0), desk_ic)
        assert [w.filename for w in record] == [__file__]


@pytest.mark.parametrize("form", [complexity.igc_closed, complexity.ige_closed])
def test_overflowing_horizon_is_refused_by_name_before_any_warning(desk_ic, form):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^lambda\*tau = inf exceeds the overflow guard"):
            form(np.array([1.0, 1e308]), ModelParams(0.3), desk_ic)


class TestRatioAndInversion:
    def test_ratio_endpoints(self):
        assert complexity.igc_ratio(ModelParams(0.0)) == 1.0
        assert complexity.igc_ratio(ModelParams(0.5)) == pytest.approx(
            0.5773502691896257, rel=1e-14
        )

    def test_ratio_monotone(self):
        rs = np.linspace(0.0, 0.99, 50)
        values = [complexity.igc_ratio(ModelParams(r)) for r in rs]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_inversion_trivial(self):
        assert complexity.r_from_complexities(1.0, 1.0) == 0.0
        assert complexity.r_from_complexities(
            1.0, math.sqrt(1.0 / 3.0)
        ) == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300, 1e308])
    @pytest.mark.parametrize("r", [1e-6, 1e-3, 0.01, 0.1, 0.5, 0.9])
    def test_roundtrip(self, r, scale):
        # the volumes enter as their ratio, so no square leaves the floats
        ratio = complexity.igc_ratio(ModelParams(r))
        assert complexity.r_from_complexities(scale, ratio * scale) == pytest.approx(
            r, abs=1e-12
        )

    @pytest.mark.parametrize("v_noncorr, v_corr", [
        (1e-300, 1e300),  # q*q overflows to inf, and r to NaN
        (1.0, 2.0),  # r = -0.6
        (1.0, math.nextafter(1.0, 2.0)),  # the least excess, r = -2.2e-16
    ])
    def test_correlated_volume_above_the_flat_one_is_refused_by_name(self, v_noncorr, v_corr):
        # refused before q*q, naming both volumes rather than an r < 0
        message = f"v_corr = {v_corr} exceeds v_noncorr = {v_noncorr}, which implies r < 0"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            complexity.r_from_complexities(v_noncorr, v_corr)


class TestPurityBridge:
    # the correlation recovered from the complexities fixes the purity
    # P = 1 - eta_C r through the scattering chain
    def test_uncorrelated_is_pure(self, desk_cfg):
        assert scattering.purity_from_r(desk_cfg, 0.0) == 1.0

    def test_linear_form(self, desk_cfg):
        eta = scattering.eta_c(desk_cfg)
        assert scattering.purity_from_r(desk_cfg, 1e-3) == pytest.approx(
            1.0 - 1e-3 * eta, rel=1e-14
        )

    def test_consistent_with_scattering_chain(self, desk_cfg, desk_ic):
        eta = scattering.eta_c(desk_cfg)
        tau = 2.0 / lam(desk_ic)
        base = complexity.igc_closed(tau, ModelParams(0.0), desk_ic)
        for r in (1e-4, 1e-3, 0.01):
            igc = complexity.igc_closed(tau, ModelParams(r), desk_ic)
            r_hat = complexity.r_from_complexities(base, igc)
            assert scattering.purity_from_r(desk_cfg, r_hat) == pytest.approx(
                1.0 - eta * r, rel=1e-12
            )

    def test_perturbative_guard(self):
        cfg = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=1000.0, L=0.1)
        with pytest.raises(RegimeError):
            scattering.purity_from_r(cfg, 0.5)


@settings(max_examples=50, deadline=None)
@given(r=st.floats(min_value=0.0, max_value=0.99))
def test_ratio_gap_consistency(r):
    # the volume ratio and the entropy gap encode the same correlation
    params = ModelParams(r)
    assert math.log(complexity.igc_ratio(params)) == pytest.approx(
        complexity.ige_gap(params), abs=1e-12
    )
