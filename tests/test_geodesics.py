"""Closed-form geodesics, Riccati constants, junction, and residuals."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import fsolve

from gaussgeo import errors, geodesics
from gaussgeo.errors import DomainError, SaturationWarning
from gaussgeo.geodesics import InitialConditions
from gaussgeo.models import ModelParams

A0_DESK = 2.6541215945495007  # asinh(1/(sqrt(2)*0.1)), frozen at high precision


class TestAmplitude:
    def test_reference_value_narrow(self, narrow_ic):
        # A0*tau0 for sigma0/p0 = 1e-3
        assert geodesics.amplitude_A0(narrow_ic) * narrow_ic.tau0 == pytest.approx(
            7.254329369, abs=1e-6
        )

    def test_desk_value(self, desk_ic):
        assert geodesics.amplitude_A0(desk_ic) == pytest.approx(A0_DESK, rel=1e-14)

    @staticmethod
    def log_series(ic):
        # asymptotic series of A0 in powers of sigma0/p0
        rat = ic.sigma0 / ic.p0
        return (math.log(math.sqrt(2.0) * ic.p0 / ic.sigma0)
                + 0.5 * rat**2 - 0.375 * rat**4) / ic.tau0

    def test_series_matches_exact_narrow(self, narrow_ic):
        exact = geodesics.amplitude_A0(narrow_ic)
        assert abs(self.log_series(narrow_ic) - exact) < 1e-9

    def test_series_error_grows_with_ratio(self, desk_ic):
        # at sigma0/p0 = 0.1 the truncation is visible but bounded
        exact = geodesics.amplitude_A0(desk_ic)
        assert 1e-9 < abs(self.log_series(desk_ic) - exact) < 1e-5


class TestNonCorrelated:
    def test_junction_state(self, desk_ic):
        s = geodesics.geodesic_corr(0.0, ModelParams(0.0), desk_ic)
        assert s.mu1 == 0.0 and s.mu2 == 0.0
        assert s.sigma == pytest.approx(math.sqrt(0.51), rel=1e-14)

    def test_boundary_conditions_via_numeric_solve(self, desk_ic):
        # independently solve the boundary system B*tanh(A*tau0) = p0,
        # (B/sqrt(2))/cosh(A*tau0) = sigma0 for (B, A), then compare
        p0, s0, t0 = desk_ic.p0, desk_ic.sigma0, desk_ic.tau0

        def system(x):
            B, A = x
            return [
                B * math.tanh(A * t0) - p0,
                B / math.sqrt(2.0) / math.cosh(A * t0) - s0,
            ]

        B_num, A_num = fsolve(system, [1.0, 2.0], xtol=1e-13)
        assert A_num == pytest.approx(geodesics.amplitude_A0(desk_ic), abs=1e-9)
        state = geodesics.geodesic_corr(-t0, ModelParams(0.0), desk_ic)
        assert state.mu1 == pytest.approx(p0, abs=1e-9)
        assert state.mu2 == pytest.approx(-p0, abs=1e-9)
        assert state.sigma == pytest.approx(s0, abs=1e-9)
        assert B_num == pytest.approx(math.sqrt(p0**2 + 2 * s0**2), abs=1e-9)

    def test_asymptotic_momentum(self, desk_ic):
        s = geodesics.geodesic_corr(50.0, ModelParams(0.0), desk_ic)
        assert s.mu1 == pytest.approx(-math.sqrt(1.02), rel=1e-12)


class TestCorrelated:
    def test_r0_reduction(self, desk_ic):
        # the r = 0 branch is the non-correlated one: the joined path runs
        # on it before the collision whatever r is, and on both sides at r = 0
        for tau in (-1.5, -0.2, 0.0, 0.4, 2.0):
            a = geodesics.geodesic_corr(tau, ModelParams(0.0), desk_ic)
            assert a == geodesics.joined_path(tau, ModelParams(0.0), desk_ic)
            if tau < 0:
                assert a == geodesics.joined_path(tau, ModelParams(0.5), desk_ic)

    def test_momentum_at_reversal_time(self, desk_ic):
        # mu2(tau0; r) = sqrt(1-r) * p0 exactly, by the boundary identities
        s = geodesics.geodesic_corr(1.0, ModelParams(0.5), desk_ic)
        assert s.mu2 == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_spread_independent_of_r(self, desk_ic):
        for tau in np.linspace(-2, 2, 9):
            base = geodesics.geodesic_corr(tau, ModelParams(0.0), desk_ic).sigma
            for r in (0.1, 0.5, 0.9):
                assert geodesics.geodesic_corr(tau, ModelParams(r), desk_ic).sigma == base


class TestScaleCovariance:
    """p0 and sigma0 scaled together by s scale the state and the velocity by
    s, since A0 reads only their ratio. The scales of the closed form avoid
    squaring p0, which under- or overflows far inside the float range."""

    @pytest.mark.parametrize("s", [1e-170, 1e-160, 1e150, 1e300])
    @pytest.mark.parametrize("r", [0.0, 0.5])
    def test_state_and_velocity_scale_with_the_data(self, desk_ic, s, r):
        scaled = InitialConditions(p0=s * desk_ic.p0, sigma0=s * desk_ic.sigma0,
                                   tau0=desk_ic.tau0)
        tau, params = np.linspace(-1.0, 1.0, 9), ModelParams(r)
        for fn in (lambda ic: geodesics.geodesic_corr(tau, params, ic).as_array(),
                   lambda ic: geodesics.geodesic_velocity(tau, params, ic)):
            want = s * fn(desk_ic)
            assert np.all(np.abs(fn(scaled) - want) <= 4 * np.spacing(np.abs(want)))


class TestJoinedPath:
    def test_continuity_at_junction(self, desk_ic):
        params = ModelParams(0.5)
        left = geodesics.joined_path(-1e-300, params, desk_ic)
        right = geodesics.joined_path(0.0, params, desk_ic)
        assert left.mu1 == pytest.approx(right.mu1, abs=1e-290)
        assert left.sigma == right.sigma

    def test_slope_ratio_across_junction(self, desk_ic):
        params = ModelParams(0.5)
        h = 1e-7
        slope_before = (
            geodesics.joined_path(-h, params, desk_ic).mu1
            - geodesics.joined_path(-2 * h, params, desk_ic).mu1
        ) / h
        slope_after = (
            geodesics.joined_path(2 * h, params, desk_ic).mu1
            - geodesics.joined_path(h, params, desk_ic).mu1
        ) / h
        assert slope_after / slope_before == pytest.approx(math.sqrt(0.5), rel=1e-6)

    def test_profile_shape(self, desk_ic):
        # odd crossing momenta, even bell-shaped spread peaking at the junction
        params = ModelParams(0.5)
        taus = np.linspace(-2.0, 2.0, 41)
        states = [geodesics.joined_path(t, params, desk_ic) for t in taus]
        mu1 = np.array([s.mu1 for s in states])
        sigma = np.array([s.sigma for s in states])
        assert np.all(np.diff(mu1) < 0)          # strictly decreasing through zero
        assert sigma.argmax() == len(taus) // 2  # peak at tau = 0
        assert np.all(sigma > 0)

    def test_branch_labels(self, desk_ic):
        # before the collision (tau < 0) the r = 0 branch, from tau = 0 on the
        # correlated one
        params = ModelParams(0.3)
        taus = np.array([-0.1, 0.0, 0.1])
        path = geodesics.joined_path(taus, params, desk_ic)
        before = geodesics.geodesic_corr(taus, ModelParams(0.0), desk_ic)
        after = geodesics.geodesic_corr(taus, params, desk_ic)
        assert path.mu1[0] == before.mu1[0] != after.mu1[0]
        assert path.mu1[1] == after.mu1[1]
        assert path.mu1[2] == after.mu1[2] != before.mu1[2]
        assert geodesics.amplitude_A0(desk_ic) == pytest.approx(A0_DESK, rel=1e-14)


def _written_out(tau, r, ic):
    """The four closed forms as written before they shared the path helpers,
    kept as the bit-for-bit reference: state, velocity, acceleration and the
    joined path's state."""
    A0 = geodesics.amplitude_A0(ic)
    arg = np.clip(A0 * tau, -errors.ARG_CLAMP, errors.ARG_CLAMP)
    scale = math.hypot(ic.p0, math.sqrt(2.0) * ic.sigma0)
    m, spread = math.sqrt(1.0 - r) * scale, scale / math.sqrt(2.0)
    t = np.tanh(arg)
    sech = 1.0 / np.cosh(arg)
    sech2 = sech * sech
    velocity = [-m * A0 * sech2, m * A0 * sech2, -spread * A0 * np.tanh(arg) * sech]
    th, sech = np.tanh(arg), 1.0 / np.cosh(arg)
    ddmu = 2.0 * m * A0**2 * th * sech * sech
    accel = [ddmu, -ddmu, spread * A0**2 * (2.0 * th**2 - 1.0) * sech]
    mj = np.where(tau < 0.0, scale, m)
    return {
        "geodesic_corr": [-m * t, m * t, spread / np.cosh(arg)],
        "geodesic_velocity": velocity,
        "geodesic_acceleration": accel,
        "joined_path": [-mj * t, mj * t, spread / np.cosh(arg)],
    }


class TestPathHelper:
    """The closed forms share the path helpers and keep their bits."""

    @pytest.mark.parametrize("r", [0.0, 0.5, 0.9])
    def test_closed_forms_keep_their_bits(self, desk_ic, r):
        # a grid through 0, both signs and the clamp at |A0 tau| = 700
        A0 = geodesics.amplitude_A0(desk_ic)
        tau = np.concatenate([np.linspace(-30.0, 30.0, 121),
                              [-0.0, 699.9, 700.0, -800.0, 1e4]]) / A0
        params = ModelParams(r)

        def bits(values):
            return np.asarray(values, dtype=float).view(np.uint64)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SaturationWarning)
            expected = _written_out(tau, r, desk_ic)
            for name, want in expected.items():
                fn = getattr(geodesics, name)
                got = fn(tau, params, desk_ic)
                got = got.as_array() if hasattr(got, "as_array") else got
                assert np.array_equal(bits(got), bits(want)), name
                for t in tau.tolist():
                    got = fn(t, params, desk_ic)
                    got = got.as_array() if hasattr(got, "as_array") else got
                    assert np.array_equal(bits(got), bits(_written_out(t, r, desk_ic)[name]))


class TestNanTau:
    """A NaN tau is refused by name in every closed form, scalar or element."""

    @pytest.mark.parametrize("tau", [math.nan, np.array([-1.0, math.nan, 1.0])])
    @pytest.mark.parametrize("name", ["geodesic_corr", "geodesic_velocity",
                                      "geodesic_acceleration", "joined_path"])
    def test_closed_forms_reject_nan(self, desk_ic, name, tau):
        with pytest.raises(DomainError, match="tau must not be NaN"):
            getattr(geodesics, name)(tau, ModelParams(0.3), desk_ic)

    def test_residual_rejects_a_nan_grid_point(self, desk_ic):
        grid = np.array([-1.0, -0.5, math.nan, 0.5, 1.0])
        with pytest.raises(DomainError, match="tau must not be NaN"):
            geodesics.geodesic_residual(ModelParams(0.3), desk_ic, grid)


class TestGeodesicResidual:
    def test_perturbed_path_fails(self, desk_ic, monkeypatch):
        # adding a secular drift to mu1 must produce a visible residual
        params, grid = ModelParams(0.0), np.linspace(-1.0, 1.0, 7)
        assert geodesics.geodesic_residual(params, desk_ic, grid) < 1e-6
        clean = geodesics.geodesic_corr

        def drifted(tau, params, ic):
            state = clean(tau, params, ic)
            return dataclasses.replace(state, mu1=state.mu1 + 0.01 * tau)

        monkeypatch.setattr(geodesics, "geodesic_corr", drifted)
        assert geodesics.geodesic_residual(params, desk_ic, grid) > 1e-3

    def test_requires_five_points(self, desk_ic):
        with pytest.raises(DomainError):
            geodesics.geodesic_residual(ModelParams(0.0), desk_ic, [0.0, 1.0])


class TestMomentumDifference:
    # the relative momentum (mu2 - mu1)/2 is mu2, since mu1 = -mu2
    def test_asymptotic_value(self, desk_ic):
        assert geodesics.geodesic_corr(
            60.0, ModelParams(0.0), desk_ic
        ).mu2 == pytest.approx(math.sqrt(1.02), rel=1e-12)

    def test_factorized_scaling(self, desk_ic):
        for tau in (0.1, 0.5, 2.0):
            base = geodesics.geodesic_corr(tau, ModelParams(0.0), desk_ic).mu2
            half = geodesics.geodesic_corr(tau, ModelParams(0.5), desk_ic).mu2
            assert half == pytest.approx(math.sqrt(0.5) * base, rel=1e-14)

    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    def test_correlation_slows_momentum(self, desk_ic, r):
        for tau in np.linspace(0.0, 3.0, 13):
            assert geodesics.geodesic_corr(
                tau, ModelParams(0.0), desk_ic
            ).mu2 >= geodesics.geodesic_corr(tau, ModelParams(r), desk_ic).mu2


class TestConservationAndParity:
    @pytest.mark.parametrize("r", [0.0, 0.4, 0.9])
    def test_total_momentum_conserved(self, desk_ic, r):
        for tau in np.linspace(-3.0, 3.0, 25):
            s = geodesics.joined_path(tau, ModelParams(r), desk_ic)
            assert s.mu1 + s.mu2 == 0.0

    def test_parity(self, desk_ic):
        params = ModelParams(0.6)
        for tau in (0.3, 1.1, 2.7):
            plus = geodesics.geodesic_corr(tau, params, desk_ic)
            minus = geodesics.geodesic_corr(-tau, params, desk_ic)
            assert plus.mu1 == -minus.mu1
            assert plus.sigma == minus.sigma

    def test_saturation_warning(self, desk_ic):
        with pytest.warns(SaturationWarning) as record:
            s = geodesics.geodesic_corr(1e5, ModelParams(0.0), desk_ic)
        assert [w.filename for w in record] == [__file__]
        assert s.sigma > 0.0
        assert abs(s.mu2) == pytest.approx(math.sqrt(1.02), rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    tau=st.floats(min_value=-50.0, max_value=50.0),
    r=st.floats(min_value=0.0, max_value=0.99),
    p0=st.floats(min_value=0.1, max_value=10.0),
    ratio=st.floats(min_value=1e-4, max_value=0.099),
)
def test_momentum_conservation_property(tau, r, p0, ratio):
    ic = InitialConditions(p0=p0, sigma0=ratio * p0, tau0=1.0, R0=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationWarning)
        s = geodesics.joined_path(tau, ModelParams(r), ic)
    assert s.mu1 + s.mu2 == 0.0
    assert s.sigma > 0.0
