"""Jacobi fields, the reduced deviation equation, and Lyapunov indicators."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from gaussgeo import chaos, curvature, geodesics
from gaussgeo.errors import DomainError, RegimeWarning
from gaussgeo.geodesics import InitialConditions
from gaussgeo.models import ModelParams

A0_DESK = 2.6541215945495007


class TestJlcCoefficient:
    def test_unit_value(self):
        assert chaos.jlc_coefficient(1.0) == -1.0

    def test_square(self):
        assert chaos.jlc_coefficient(2.6542969) == pytest.approx(
            -7.045292033349609, rel=1e-12
        )

    def test_assembled_from_parts(self, desk_ic):
        # Q = R ||v||^2 / (n(n-1)) built from independently computed pieces
        R = curvature.SCALAR_CURVATURE
        v2 = chaos.velocity_norm_squared(desk_ic)
        A0 = geodesics.amplitude_A0(desk_ic)
        assert R * v2 / 6.0 == pytest.approx(chaos.jlc_coefficient(A0), abs=1e-12)


class TestVelocityNorm:
    def test_constant_value(self, desk_ic):
        expected = 4.0 * A0_DESK**2
        assert chaos.velocity_norm_squared(desk_ic) == pytest.approx(expected, rel=1e-14)

    def test_desk_value(self, desk_ic):
        assert chaos.velocity_norm_squared(desk_ic) == pytest.approx(
            28.17744575461594, rel=1e-12
        )

    def test_contraction_agrees(self, desk_ic):
        expected = 4.0 * A0_DESK**2
        for r in (0.0, 0.5, 0.9):
            params = ModelParams(r)
            for tau in np.linspace(-2.0, 2.0, 9):
                got = chaos.velocity_norm_squared_contracted(params, desk_ic, tau)
                assert abs(got - expected) / expected < 1e-9

    @pytest.mark.parametrize("tau, message", [
        # |A0 tau| = 796: the path is clamped
        (np.array([0.3, 300.0]), r"^\|A0\*tau\| = 796 exceeds the overflow guard"),
        # |A0 tau| = 398: the spread 1.8e-173 is below the metric's range
        (150.0, r"^tau takes the spread past the metric's range: sigma must lie in "),
    ], ids=["clamped", "spread_past_the_metric"])
    def test_refuses_tau_by_name_before_any_warning(self, tau, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                chaos.velocity_norm_squared_contracted(ModelParams(0.5),
                                                       InitialConditions(1.0, 0.1), tau)


class TestJacobiIntensity:
    def test_vanishes_at_origin(self):
        assert chaos.jacobi_intensity(0.0, 1.3, 2.0) == 0.0

    def test_unit_case(self):
        assert chaos.jacobi_intensity(1.0, 1.0, 1.0) == pytest.approx(
            1.1752011936438014, rel=1e-14
        )

    def test_satisfies_reduced_equation_analytically(self):
        # J'' + Q J with the analytic second derivative w0*A0*sinh(A0 tau)
        A0, w0 = 1.7, 0.8
        Q = chaos.jlc_coefficient(A0)
        for tau in np.linspace(0.0, 4.0, 9):
            J = chaos.jacobi_intensity(tau, w0, A0)
            Jpp = w0 * A0 * math.sinh(A0 * tau)
            assert abs(Jpp + Q * J) < 1e-9

    def test_against_ode_oracle(self, desk_ic):
        # integrate J'' = -Q J from (J, J')(0) = (0, w0)
        A0 = geodesics.amplitude_A0(desk_ic)
        w0 = 1.0
        Q = chaos.jlc_coefficient(A0)
        sol = solve_ivp(
            lambda t, y: [y[1], -Q * y[0]],
            (0.0, 5.0 / A0),
            [0.0, w0],
            rtol=1e-12,
            atol=1e-14,
            dense_output=True,
        )
        for tau in np.linspace(0.0, 5.0 / A0, 21):
            closed = chaos.jacobi_intensity(tau, w0, A0)
            assert abs(sol.sol(tau)[0] - closed) <= 1e-8 * max(1.0, abs(closed))

    def test_rate(self):
        # dJ/dtau = omega0 cosh(A0 tau), by central differences
        w0, A0, h = 0.7, 2.0, 1e-6
        for tau in (0.0, 0.5):
            rate = (chaos.jacobi_intensity(tau + h, w0, A0)
                    - chaos.jacobi_intensity(tau - h, w0, A0)) / (2 * h)
            assert rate == pytest.approx(w0 * math.cosh(A0 * tau))


class TestLyapunov:
    def test_closed_form(self):
        assert chaos.lyapunov_exponent(1.0) == 2.0

    def test_desk_value(self, desk_ic):
        A0 = geodesics.amplitude_A0(desk_ic)
        assert chaos.lyapunov_exponent(A0) == pytest.approx(
            5.308243189099001, rel=1e-12
        )

    def test_estimate_converges(self):
        est = chaos.lyapunov_estimate(1.0, 1.0, 20.0)
        assert abs(est.value - 2.0) / 2.0 < 0.005

    def test_raw_monotone_convergence(self):
        raw20 = chaos.lyapunov_estimate(1.0, 1.0, 20.0).raw
        raw40 = chaos.lyapunov_estimate(1.0, 1.0, 40.0).raw
        assert abs(raw40 - 2.0) < abs(raw20 - 2.0)

    def test_omega0_cancels(self):
        a = chaos.lyapunov_estimate(1.0, 1.3, 15.0)
        b = chaos.lyapunov_estimate(250.0, 1.3, 15.0)
        assert a.value == b.value and a.raw == b.raw

    def test_exponential_error_decay(self, desk_ic):
        A0 = geodesics.amplitude_A0(desk_ic)
        errs = [
            abs(chaos.lyapunov_estimate(1.0, A0, t / A0).value - 2.0 * A0)
            for t in (10.0, 20.0, 40.0)
        ]
        # extrapolated error decays far faster than 1/tau (floored by eps)
        assert errs[1] <= max(0.05 * errs[0], 5e-14)
        assert errs[2] <= max(errs[1], 5e-14)

    @pytest.mark.parametrize("omega0", [math.nan, 0.0, -1.0])
    def test_estimate_rejects_omega0_not_positive_and_finite(self, omega0):
        with pytest.raises(DomainError, match="omega0 must be positive and finite"):
            chaos.lyapunov_estimate(omega0, 1.0, 10.0)

    def test_warns_below_asymptotic_regime(self):
        with pytest.warns(RegimeWarning) as record:
            chaos.lyapunov_estimate(1.0, 1.0, 2.0)
        assert [w.filename for w in record] == [__file__]

    def test_r_independent_through_initial_conditions(self, desk_ic):
        # the exponent depends on the initial conditions only, never on r
        A0 = geodesics.amplitude_A0(desk_ic)
        lam = chaos.lyapunov_exponent(A0)
        for r in (0.0, 0.3, 0.7):
            v2 = chaos.velocity_norm_squared(desk_ic)
            assert 2.0 * math.sqrt(
                -curvature.bundle(1.0, ModelParams(r)).scalar * v2 / 6.0
            ) == pytest.approx(lam, rel=1e-14)

