"""Self-tests of the numeric verification engines, and the mutation matrix that
holds each `verify` row to the closed forms whose fault it catches."""

import dataclasses
import math
import sys
import threading
import types
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import gaussgeo
from gaussgeo import (battery, chaos, cli, complexity, curvature, geodesics, models, oracle,
                      scattering)
from gaussgeo.errors import R_MAX, ConvergenceError, DomainError, RegimeWarning
from gaussgeo.geodesics import InitialConditions
from gaussgeo.models import Macrostate3, Macrostate4, ModelParams
from gaussgeo.oracle import OdeSpec
from gaussgeo.scattering import ScatteringConfig

from conftest import CELLS


def _coarse_rule_at(monkeypatch, order):
    """Replace the Gauss rule of one order by a 4-node one with 1% heavier
    weights, so that a self-test doubling to that order sees the result
    move."""
    rule = battery._gauss_rule

    def patched(build, n):
        if n != order:
            return rule(build, n)
        nodes, weights = rule(build, 4)
        return nodes, 1.01 * weights

    monkeypatch.setattr(battery, "_gauss_rule", patched)


def _scale(monkeypatch, cell, factor):
    """Patch a cell to its value times ``factor``: ``module.name``, a form or
    a constant, or ``module.name.field``, one field of the report a form
    returns."""
    module, name, *field = cell.split(".")
    module = getattr(gaussgeo, module)
    form = getattr(module, name)

    def scaled(*args, **kwargs):
        out = form(*args, **kwargs)
        return (dataclasses.replace(out, **{field[0]: factor * getattr(out, field[0])})
                if field else factor * out)

    monkeypatch.setattr(module, name, scaled if callable(form) else factor * form)


# the corr3 grid and the corr4 points of the battery, as _fisher_quadrature args
_FISHER_POINTS = [
    *[(0.4, -0.3, sg, sg, r, battery._CORR3_EMBEDDING)
      for sg, r in zip(battery._SIGMA.tolist(), battery._R.tolist())],
    *[(0.2, -0.5, sx, sy, r, np.eye(4))
      for sx, sy in ((1.0, 2.0), (0.5, 1.0)) for r in (0.0, 0.3, 0.7)],
]


class TestFisherMetricNumeric:
    @pytest.mark.parametrize("args", _FISHER_POINTS)
    def test_rule_is_exact(self, args):
        # the integrand is a degree-4 polynomial in the nodes and an n-point
        # Gauss-Hermite rule is exact to degree 2n - 1, so order 3 already
        # gives the order-40 metric, as does order 4, the order of
        # fisher_metric_numeric, and order 2 does not
        g40 = battery._fisher_quadrature(*args, 40)
        scale = np.abs(g40).max()
        for order in (3, 4):
            assert np.abs(battery._fisher_quadrature(*args, order) - g40).max() <= 1e-12 * scale
        assert np.abs(battery._fisher_quadrature(*args, 2) - g40).max() > 0.5 * scale

    def test_flat_reference(self):
        state = Macrostate3(0.0, 0.0, 1.0)
        numeric = oracle.fisher_metric_numeric("corr3", state, ModelParams(0.0))
        assert np.abs(numeric - np.diag([1.0, 1.0, 4.0])).max() < 1e-7

    def test_correlated_reference(self):
        state = Macrostate3(0.1, 0.2, 2.0)
        numeric = oracle.fisher_metric_numeric("corr3", state, ModelParams(0.5))
        closed = models.metric_corr3(2.0, ModelParams(0.5))
        assert np.abs(numeric - closed).max() < 1e-6

    def test_four_parameter_family(self):
        state = Macrostate4(0.0, 0.0, 1.0, 2.0)
        numeric = oracle.fisher_metric_numeric("corr4", state, ModelParams(0.3))
        closed = models.metric_corr4(1.0, 2.0, ModelParams(0.3))
        assert np.abs(numeric - closed).max() < 1e-6

    def test_unknown_model(self):
        with pytest.raises(DomainError):
            oracle.fisher_metric_numeric("corr5", None, None)

    @pytest.mark.parametrize("sigma", [1e-20, 1e-60, 1e-140])
    def test_keeps_its_nodes_at_a_spread_far_below_the_means(self, sigma):
        # nodes formed as x = mu + sqrt(2) sigma z round back to mu here
        state = Macrostate3(0.4, -0.4, sigma)
        got = oracle.fisher_metric_numeric("corr3", state, ModelParams(0.0)) * (sigma * sigma)
        assert np.abs(got - np.diag([1.0, 1.0, 4.0])).max() <= 1e-12

    @pytest.mark.parametrize("model", ["corr3", "corr4"])
    def test_mesh_product_matches_node_loop(self, model):
        # reference: the node-by-node double loop the weighted product replaced,
        # with the corr3 scores written as the chain-rule matrix C applied to
        # the corr4 scores; only the summation order differs, so agreement is
        # to rounding
        r = 0.6
        if model == "corr3":
            mux, muy, sx, sy = 0.4, -0.3, 0.7, 0.7
            state = Macrostate3(mux, muy, sx)
            C = np.array([[1.0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1]])
        else:
            mux, muy, sx, sy = 0.2, -0.5, 0.5, 1.5
            state = Macrostate4(mux, muy, sx, sy)
            C = np.eye(4)
        mean = np.array([mux, muy])
        cov = np.array([[sx * sx, r * sx * sy], [r * sx * sy, sy * sy]])
        nodes, weights = np.polynomial.hermite.hermgauss(40)
        L = np.linalg.cholesky(cov)
        ref = 0.0
        for i, zi in enumerate(nodes):
            for j, zj in enumerate(nodes):
                a, b = (mean + math.sqrt(2.0) * L @ np.array([zi, zj]) - mean) / (sx, sy)
                s = C @ battery._scores_corr4(a, b, sx, sy, r)
                ref = ref + (weights[i] * weights[j]) * np.outer(s, s)
        ref = ref / math.pi
        got = oracle.fisher_metric_numeric(model, state, ModelParams(r))
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


class TestGeodesicIntegrate:
    @pytest.mark.parametrize("r", [0.0, 0.3, 0.5, 0.9])
    def test_reproduces_closed_form(self, desk_ic, r):
        cmp = oracle.geodesic_integrate(ModelParams(r), desk_ic, (-1.0, 1.0))
        assert cmp.max_rel_error < 1e-6

    def test_reversibility(self, desk_ic):
        # integrated back from its end state, a forward run returns to its start
        for r in (0.0, 0.5):
            params = ModelParams(r)
            fwd = oracle.geodesic_integrate(params, desk_ic, (-1.0, 1.0)).numeric
            rhs = oracle._geodesic_rhs(params)
            _, back = oracle._integrate(rhs, fwd[-1], 1.0, -1.0, OdeSpec())
            assert np.abs((back[-1] - fwd[0]) / np.maximum(np.abs(fwd[0]), 1.0)).max() < 1e-8

    def test_failed_integration_raises(self, desk_ic, monkeypatch):
        failed = types.SimpleNamespace(success=False, message="step size too small")
        monkeypatch.setattr(oracle, "solve_ivp", lambda *args, **kwargs: failed)
        with pytest.raises(ConvergenceError, match="step size too small"):
            oracle.geodesic_integrate(ModelParams(0.5), desk_ic, (-1.0, 1.0))

    @pytest.mark.parametrize("span", [(0.0, math.nan), (0.0, math.inf), (0.0, -math.inf),
                                      (1.0, 1.0), (math.nan, 0.0), (-math.inf, 0.0)])
    def test_rejects_a_span_without_finite_distinct_ends(self, desk_ic, span):
        # refused before solve_ivp, which steps forever towards a NaN end, and
        # before the start state, which would raise or warn at a bad first end
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match="ODE span ends must be finite and distinct"):
                oracle.geodesic_integrate(ModelParams(0.5), desk_ic, span)
        assert caught == []

    @pytest.mark.parametrize("r", [0.0, 0.9])
    @pytest.mark.parametrize("tau0", [3.0, 1.0])  # A0 = 0.883 and 2.65
    def test_error_is_rtol_grown_by_geodesic_deviation(self, tau0, r):
        # the integrator's local errors grow like cosh(A0 tau) along the flow,
        # as nearby geodesics separate, so the comparison holds to
        # rtol cosh(A0 max|tau|) far into the tails (2.07 x seen at most)
        ic = InitialConditions(p0=1.0, sigma0=0.1, tau0=tau0)
        A0, spec = geodesics.amplitude_A0(ic), OdeSpec()
        for end in (2.0, 10.0, 20.0):
            cmp = oracle.geodesic_integrate(ModelParams(r), ic, (-end / A0, end / A0), spec)
            bound = 4.0 * spec.rtol * math.cosh(A0 * np.abs(cmp.tau).max())
            assert cmp.max_rel_error <= bound

    def test_tolerance_refinement_self_test(self, desk_ic):
        # tightening the tolerance by 10x moves the solution on a fixed
        # 201-point grid, and the oracle's error, by far less than a tenth of
        # the 1e-6 comparison tolerance; the oracle reads its own steps, which
        # differ between the two specs, so the grid comes from dense output
        params = ModelParams(0.5)
        specs = (OdeSpec(rtol=1e-10, atol=1e-12), OdeSpec(rtol=1e-11, atol=1e-13))
        rhs, y0 = oracle._geodesic_rhs(params), oracle._geodesic_start(params, desk_ic, -1.0)
        grid = np.linspace(-1.0, 1.0, 201)
        a, b = (solve_ivp(rhs, (-1.0, 1.0), y0, method="DOP853", rtol=spec.rtol,
                          atol=spec.atol, t_eval=grid).y for spec in specs)
        assert np.abs(a - b).max() < 1e-7
        a, b = (oracle.geodesic_integrate(params, desk_ic, (-1.0, 1.0), spec) for spec in specs)
        assert abs(a.max_rel_error - b.max_rel_error) < 1e-7

    @pytest.mark.parametrize("span", [(-1.0, 1.0), (1.0, -1.0), (0.0, 0.3)])
    def test_reports_the_steps_from_end_to_end(self, desk_ic, span):
        # the reversal test starts from numeric[-1] and returns to numeric[0]
        params = ModelParams(0.5)
        cmp = oracle.geodesic_integrate(params, desk_ic, span)
        assert (cmp.tau[0], cmp.tau[-1]) == span
        assert np.all(np.diff(cmp.tau) * np.sign(span[1] - span[0]) > 0)
        assert cmp.numeric.shape == (len(cmp.tau), 6)
        assert np.array_equal(cmp.numeric[0], oracle._geodesic_start(params, desk_ic, span[0]))

    @pytest.mark.parametrize("r", [0.0, 0.5, 0.9])
    def test_rhs_is_the_geodesic_equation(self, rng, r):
        # the RHS, over the sigma = 1 table divided by sigma, agrees within a
        # few ulps of its largest component with -Gamma(sigma)(v, v) written
        # out term by term over all 27 entries of curvature.christoffel at the
        # state's sigma; at r = 0.9 the sigma row cancels to a tenth of its
        # terms (7 ulps seen)
        params = ModelParams(r)
        rhs = oracle._geodesic_rhs(params)
        for _ in range(200):
            y = rng.standard_normal(6)
            y[2] = rng.uniform(0.01, 3.0)
            G, v = curvature.christoffel(y[2], params), y[3:].tolist()
            acc = [-sum(G[a, b, c] * v[b] * v[c] for b in range(3) for c in range(3))
                   for a in range(3)]
            got, want = np.array(rhs(0.0, y)), np.array(v + acc)
            assert np.array_equal(got[:3], y[3:])
            assert np.abs(got - want).max() <= 16 * np.spacing(np.abs(want).max())


class TestPurityBruteforce:
    def test_product_state_is_pure(self):
        cfg = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=0.1, a_s=0.0)
        assert oracle.purity_bruteforce(cfg) == pytest.approx(1.0, abs=1e-10)

    def test_deficit_matches_quadratic_coefficient(self, desk_cfg):
        # 1 - P = 8 (k0^2 + sigma^4 R0^2) a_s^2 to leading order
        for a_s in (1e-5, 2e-5):
            deficit = 1.0 - oracle.purity_bruteforce(dataclasses.replace(desk_cfg, a_s=a_s))
            predicted = 8.0 * (1.0 + 0.1**4 * 100.0) * a_s**2
            assert deficit == pytest.approx(predicted, rel=0.01)

    def test_deficit_scales_quadratically(self, desk_cfg):
        deficits = [1.0 - oracle.purity_bruteforce(dataclasses.replace(desk_cfg, a_s=a_s))
                    for a_s in (1e-5, 5e-6)]
        assert 3.5 < deficits[0] / deficits[1] < 4.5

    def test_convergence_self_test(self, desk_cfg):
        oracle.purity_bruteforce(desk_cfg, check_convergence=True)

    def test_convergence_self_test_raises(self, monkeypatch):
        # a product state is pure on any mesh; an entangled one shows the rule
        _coarse_rule_at(monkeypatch, 128)
        cfg = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=0.1, a_s=0.05)
        with pytest.raises(ConvergenceError, match="purity quadrature drift"):
            oracle.purity_bruteforce(cfg, check_convergence=True)

    def test_gaussian_state_anchor(self, desk_cfg):
        # trace machinery reproduces the exact sqrt(1-r^2) purity of the
        # correlated-Gaussian pure state
        for r in (0.0, 0.04, 0.3):
            got = oracle.purity_gaussian_state(desk_cfg, r)
            assert got == pytest.approx(math.sqrt(1 - r * r), abs=1e-12)

    def test_gaussian_state_matches_rqm_prediction(self, desk_cfg):
        # the identified post-collision Gaussian state loses purity like
        # 1 - r_qm^2/2 at leading order
        r = scattering.r_qm(desk_cfg)
        got = oracle.purity_gaussian_state(desk_cfg, r)
        assert got == pytest.approx(1.0 - 0.5 * r * r, abs=1e-6)


def test_normalization_mesh_is_converged(rng):
    # the order-48 momentum mesh of the normalization_quadrature row against
    # order 96: in sigma_k0 units the bracket integrand is a unit Gaussian
    # times a quartic, cut at CUTOFF_SIGMAS, so no config needs more nodes
    def log_uniform(lo, hi):
        return np.exp(rng.uniform(math.log(lo), math.log(hi), 200)).tolist()

    def bracket(cfg, order):
        K1, K2, w1, w2 = battery._momentum_mesh(cfg, order)
        return w1 @ np.abs(battery._post_collision_psi(cfg, K1, K2)) ** 2 @ w2

    configs = zip(log_uniform(0.1, 10.0), log_uniform(1e-3, 0.3), log_uniform(1.0, 100.0),
                  log_uniform(1e-8, 1e-3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)  # spreads past LOCALIZATION_MAX
        cfgs = [ScatteringConfig(k0=k0, sigma_k0=rel * k0, R0=R0, L=0.1 / k0, a_s=a_s)
                for k0, rel, R0, a_s in configs]
    gaps = [abs(bracket(cfg, 48) / bracket(cfg, 96) - 1.0) for cfg in cfgs]
    assert max(gaps) <= 1e-12


class TestIgcNumeric:
    def test_matches_closed_form(self, desk_ic):
        lam = 2.0 * geodesics.amplitude_A0(desk_ic)
        for lt, r in ((1.0, 0.0), (5.0, 0.3), (10.0, 0.7)):
            tau = lt / lam
            numeric = oracle.igc_numeric(tau, ModelParams(r), desk_ic)
            closed = complexity.igc_closed(tau, ModelParams(r), desk_ic)
            assert abs(numeric - closed) / abs(numeric) < 1e-5

    def test_degenerate_box_at_small_horizon(self, desk_ic):
        assert abs(oracle.igc_numeric(1e-8, ModelParams(0.3), desk_ic)) < 1e-10

    def test_overflow_guard(self, desk_ic):
        lam = 2.0 * geodesics.amplitude_A0(desk_ic)
        with pytest.raises(DomainError, match="past the range of the nested quad"):
            oracle.igc_numeric(25.0 / lam, ModelParams(0.0), desk_ic)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
    def test_requires_a_positive_finite_horizon(self, desk_ic, tau):
        # igc_closed's precondition; 0 divided by zero and -1 returned a value
        with pytest.raises(DomainError, match="tau must be positive and finite"):
            oracle.igc_numeric(tau, ModelParams(0.0), desk_ic)

    def test_unconverged_time_average_raises(self, desk_ic, monkeypatch):
        # quad reporting an error estimate of 1 on every integral
        quad = oracle.quad
        monkeypatch.setattr(oracle, "quad", lambda *args, **kwargs: (quad(*args, **kwargs)[0], 1.0))
        with pytest.raises(ConvergenceError, match="did not converge"):
            oracle.igc_numeric(1.0, ModelParams(0.3), desk_ic)


class TestIgcGauss:
    @pytest.mark.parametrize("lt", [1.0, 5.0, 10.0, 20.0])
    @pytest.mark.parametrize("r", [0.0, 0.3, 0.9])
    def test_matches_quad_and_closed_form(self, desk_ic, lt, r):
        tau = lt / (2.0 * geodesics.amplitude_A0(desk_ic))
        gauss = oracle.igc_gauss(tau, ModelParams(r), desk_ic)
        assert gauss == pytest.approx(oracle.igc_numeric(tau, ModelParams(r), desk_ic), rel=1e-12)
        assert gauss == pytest.approx(complexity.igc_closed(tau, ModelParams(r), desk_ic),
                                      rel=1e-12)

    def test_degenerate_box_at_small_horizon(self, desk_ic):
        assert abs(oracle.igc_gauss(1e-8, ModelParams(0.3), desk_ic)) < 1e-10

    def test_accurate_up_to_the_overflow_guard(self, desk_ic):
        # its own guard refuses only a clamped path (lambda tau > 1400): the
        # order doubling holds it to the closed form far past quad's range,
        # and fails at the overflow guard of the closed form
        lam = 2.0 * geodesics.amplitude_A0(desk_ic)
        for lt in (25.0, 100.0, 300.0):
            for r in (0.0, 0.3, 0.9):
                gauss = oracle.igc_gauss(lt / lam, ModelParams(r), desk_ic)
                closed = complexity.igc_closed(lt / lam, ModelParams(r), desk_ic)
                assert gauss == pytest.approx(closed, rel=2e-12)
        with pytest.raises(ConvergenceError, match="drift .* at order doubling"):
            oracle.igc_gauss(700.0 / lam, ModelParams(0.3), desk_ic)

    def test_non_finite_result_fails_order_doubling(self, desk_ic):
        # past the guard exp(-2u) overflows; inf - inf is a NaN drift, which
        # fails with no RuntimeWarning first
        lam = 2.0 * geodesics.amplitude_A0(desk_ic)
        for lt in (720.0, 1000.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConvergenceError, match="drift nan"):
                    oracle.igc_gauss(lt / lam, ModelParams(0.3), desk_ic)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
    def test_requires_a_positive_finite_horizon(self, desk_ic, tau):
        with pytest.raises(DomainError, match="tau must be positive and finite"):
            oracle.igc_gauss(tau, ModelParams(0.0), desk_ic)

    def test_order_doubling_drift_raises(self, desk_ic, monkeypatch):
        _coarse_rule_at(monkeypatch, 96)
        with pytest.raises(ConvergenceError, match="drift .* at order doubling"):
            oracle.igc_gauss(1.0, ModelParams(0.3), desk_ic)


class TestCurvatureFd:
    def test_matches_closed_forms(self):
        params = ModelParams(0.5)
        fd = oracle.curvature_fd(2.0, params)
        assert np.abs(fd.christoffel - curvature.christoffel(2.0, params)).max() < 1e-6
        assert np.abs(fd.riemann - curvature.riemann(2.0, params)).max() < 1e-5
        assert np.abs(fd.weyl).max() < 1e-5
        assert fd.scalar == pytest.approx(-1.5, abs=1e-7)
        assert fd.sectional[0, 1] == pytest.approx(-0.25, abs=1e-7)

    @pytest.mark.parametrize("r", [1.0 - 1e-7, 1.0 - 1e-8, np.nextafter(R_MAX, 0.0)])
    def test_christoffels_hold_near_the_largest_correlation(self, r):
        # Gamma^sigma_11 = 1/(4 sigma (1 - r^2)) grows without bound as r -> 1,
        # and the step, a fixed fraction of sigma, still differences it to rounding
        params = ModelParams(r)
        exact = curvature.christoffel(1.0, params)
        gap = np.abs(oracle.curvature_fd(1.0, params).christoffel - exact).max()
        assert gap <= 1e-9 * np.abs(exact).max()


class TestOdeSpec:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("field", ["rtol", "atol"])
    def test_rejects_a_tolerance_not_positive_and_finite(self, field, value):
        # DOP853 never accepts a step at a NaN tolerance, and accepts every one at an infinite one
        with pytest.raises(DomainError, match=f"{field} must be positive and finite"):
            OdeSpec(**{field: value})


class TestDop853:
    """The DOP853 integration behind both ODE oracles, run through ``_integrate``."""

    def test_blow_up_fails_with_dop853s_message(self):
        # y' = y^2 from y(0) = 1 blows up at t = 1: DOP853 shrinks its step
        # towards it until the step underflows, and fails with no warning
        def rhs(_t, y):
            return [y[0] * y[0]]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="^ODE integration failed: Required step "
                                                       "size is less than spacing between numbers"):
                oracle._integrate(rhs, [1.0], 0.0, 2.0, OdeSpec())

    def test_last_step_ends_at_the_span_end(self):
        # both ends are read exactly, on a span whose end t1 a last step
        # taken to t + (t1 - t) overshoots by an ulp
        span = (-0.9757069477727749, 0.3022548378547494)

        def rhs(t, y):
            return [0.8670027222549126 * y[0] + math.cos(t)]

        ts, _ = oracle._integrate(rhs, [1.0], *span, OdeSpec(rtol=1.4735340930131697e-07))
        assert (ts[0], ts[-1]) == span

    @pytest.mark.parametrize("calls", [0, 1, 5, 40])
    def test_an_exception_in_the_rhs_is_raised_as_it_is(self, calls):
        # at the first call, inside the initial step or inside a later step:
        # the exception itself comes out, with no warning and no further call
        seen = []

        def rhs(t, y):
            seen.append(t)
            if len(seen) > calls:
                raise KeyError("rhs")
            return [-y[0]]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(KeyError, match="rhs"):
                oracle._integrate(rhs, [1.0], 0.0, 100.0, OdeSpec())
        assert len(seen) == calls + 1


class TestJacobiIntegrate:
    @pytest.mark.parametrize("r", [0.0, 0.3, 0.5, 0.9])
    def test_intensity_matches_closed_form(self, desk_ic, r):
        A0 = geodesics.amplitude_A0(desk_ic)
        cmp = oracle.jacobi_integrate(ModelParams(r), desk_ic, 5.0 / A0)
        assert cmp.max_rel_error < 1e-5
        assert cmp.orthogonality_max < 1e-8

    def test_growth_rate_fit(self, desk_ic):
        A0 = geodesics.amplitude_A0(desk_ic)
        estimate = chaos.lyapunov_estimate(1.0, A0, 20.0 / A0).value
        rates = []
        for r in (0.0, 0.3, 0.5, 0.9):
            cmp = oracle.jacobi_integrate(ModelParams(r), desk_ic, 20.0 / A0)
            rates.append(2.0 * cmp.fitted_rate)
            assert abs(rates[-1] - 2.0 * A0) / (2.0 * A0) < 0.01
            # the finite-horizon estimate extrapolates to the fitted rate
            assert abs(estimate - rates[-1]) / (2.0 * A0) < 0.01
        # the indicator is correlation-independent
        assert np.ptp(rates) / (2.0 * A0) < 1e-4

    def test_omega0_scales_intensity(self, desk_ic):
        # the equation is linear in J: doubling omega0 and atol doubles every
        # state and error scale exactly, so the steps are the same and the
        # intensity doubles bit for bit
        A0 = geodesics.amplitude_A0(desk_ic)
        one = oracle.jacobi_integrate(ModelParams(0.0), desk_ic, 2.0 / A0, omega0=1.0)
        two = oracle.jacobi_integrate(ModelParams(0.0), desk_ic, 2.0 / A0, OdeSpec(atol=2e-12),
                                      omega0=2.0)
        assert np.array_equal(two.tau, one.tau)
        assert np.array_equal(two.intensity, 2.0 * one.intensity)

    def test_tolerance_refinement_self_test(self, desk_ic):
        # tightening the tolerance by 10x moves the intensity error and the
        # fitted rate by less than a tenth of their 1e-5 and 1%-of-2-A0 bounds
        A0 = geodesics.amplitude_A0(desk_ic)
        a, b = (
            oracle.jacobi_integrate(ModelParams(0.5), desk_ic, 20.0 / A0, spec)
            for spec in (OdeSpec(rtol=1e-10, atol=1e-12), OdeSpec(rtol=1e-11, atol=1e-13))
        )
        assert abs(a.max_rel_error - b.max_rel_error) < 1e-6
        assert abs(2.0 * (a.fitted_rate - b.fitted_rate)) / (2.0 * A0) < 1e-3

    def test_rejects_tau_max_past_the_clamp(self, desk_ic):
        # refused before any step, with jacobi_intensity's error and no warning
        A0 = geodesics.amplitude_A0(desk_ic)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match="exceeds the overflow guard 700.0"):
                oracle.jacobi_integrate(ModelParams(0.5), desk_ic, 800.0 / A0)
        assert caught == []

    @pytest.mark.parametrize("span", [400.0, 699.0])
    def test_rejects_tau_max_past_the_metric_range_by_name(self, desk_ic, span, monkeypatch):
        # the path's spread at A0 tau_max = span leaves the metric's range at r = 0.5
        monkeypatch.setattr(oracle, "solve_ivp", None)  # any call would fail otherwise
        tau_max = span / geodesics.amplitude_A0(desk_ic)
        with pytest.raises(DomainError, match="^tau_max takes the spread past the metric's range"):
            oracle.jacobi_integrate(ModelParams(0.5), desk_ic, tau_max)

    @pytest.mark.parametrize("tau_max", [1e-3, 0.0, -1.0, math.nan])
    def test_rejects_an_empty_intensity_window(self, desk_ic, tau_max):
        # the intensity error is measured from A0 tau = 0.5 on: a shorter run has no sample
        with pytest.raises(DomainError, match=r"tau_max = \S+ must exceed 0.5/A0 = 0.188"):
            oracle.jacobi_integrate(ModelParams(0.5), desk_ic, tau_max)

    @pytest.mark.parametrize("omega0", [0.0, -1.0, math.nan])
    def test_rejects_omega0_before_integrating(self, desk_ic, omega0, monkeypatch):
        monkeypatch.setattr(oracle, "solve_ivp", None)  # any call would fail otherwise
        A0 = geodesics.amplitude_A0(desk_ic)
        with pytest.raises(DomainError, match="omega0 must be positive and finite"):
            oracle.jacobi_integrate(ModelParams(0.5), desk_ic, 2.0 / A0, omega0=omega0)

    def test_shortest_window_runs(self, desk_ic):
        A0 = geodesics.amplitude_A0(desk_ic)
        assert oracle.jacobi_integrate(ModelParams(0.5), desk_ic, 0.6 / A0).max_rel_error < 1e-5

    @pytest.mark.parametrize("span", [0.6, 5.0, 20.0])
    def test_reports_the_steps_from_end_to_end(self, desk_ic, span):
        tau_max = span / geodesics.amplitude_A0(desk_ic)
        cmp = oracle.jacobi_integrate(ModelParams(0.5), desk_ic, tau_max)
        assert (cmp.tau[0], cmp.tau[-1]) == (0.0, tau_max)
        assert np.all(np.diff(cmp.tau) > 0)
        assert cmp.intensity.shape == cmp.tau.shape

    @pytest.mark.parametrize("r", [0.0, 0.5, 0.9])
    def test_rhs_reads_the_closed_form_path(self, desk_ic, rng, r):
        # the RHS, over the sigma = 1 table divided by sigma, agrees within a
        # few ulps of its largest component with -Gamma(sigma)(v, w) written
        # out term by term over all 27 entries of curvature.christoffel at the
        # path's sigma, from the public closed forms
        params = ModelParams(r)

        def written_out(t, y):
            sg = geodesics.geodesic_corr(t, params, desk_ic).sigma
            G = curvature.christoffel(sg, params)
            v = geodesics.geodesic_velocity(t, params, desk_ic).tolist()
            Js, *K = y[2:].tolist()
            w = [2.0 * K[c] - v[c] * Js / sg for c in range(3)]
            return [*K, *(-sum(G[a, b, c] * v[b] * w[c] for b in range(3) for c in range(3))
                          for a in range(3))]

        rhs = oracle._jacobi_rhs(params, desk_ic)
        A0 = geodesics.amplitude_A0(desk_ic)
        for tau in rng.uniform(0.0, 20.0 / A0, 200):
            y = rng.standard_normal(6)
            got, want = np.array(rhs(tau, y)), np.array(written_out(tau, y))
            assert np.abs(got - want).max() <= 16 * np.spacing(np.abs(want).max())

    @pytest.mark.parametrize("r", [0.0, 0.3, 0.7, 0.9])
    def test_rhs_is_covariant_jacobi_equation(self, desk_ic, rng, r):
        # the linearised geodesic flow equals the covariant deviation equation
        # D^2 J + R(J, v) v = 0 written out in coordinates, with
        # DJ = J' + Gamma(v) J and d_sigma Gamma = -Gamma / sigma
        params = ModelParams(r)
        rhs = oracle._jacobi_rhs(params, desk_ic)
        for tau in rng.uniform(-3.0, 3.0, 50):
            J, K = rng.standard_normal(3), rng.standard_normal(3)
            sg = geodesics.geodesic_corr(tau, params, desk_ic).sigma
            v = geodesics.geodesic_velocity(tau, params, desk_ic)
            G = curvature.christoffel(sg, params)
            Rup = np.einsum("ae,ebcd->abcd", models.metric_corr3_inverse(sg, params),
                            curvature.riemann(sg, params))
            Gv = G @ v  # Gv[a, b] = Gamma^a_bc v^c
            acc = -Gv @ v
            expected = (
                -2.0 * Gv @ K
                - (G @ acc) @ J
                + v[2] / sg * Gv @ J
                - Gv @ Gv @ J
                - np.einsum("abcd,b,c,d->a", Rup, v, J, v)
            )
            got = np.asarray(rhs(tau, np.concatenate([J, K])))
            assert np.array_equal(got[:3], K)
            assert np.abs(got[3:] - expected).max() <= 1e-12 * np.abs(expected).max()


def _solve_counts(monkeypatch):
    # (accepted steps, nfev) of each solve_ivp call the oracles make
    counts, solve = [], oracle.solve_ivp

    def counted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        counts.append((len(sol.t) - 1, sol.nfev))
        return sol

    monkeypatch.setattr(oracle, "solve_ivp", counted)
    return counts


_DESK = InitialConditions(p0=1.0, sigma0=0.1, tau0=1.0)


class TestScalarOdes:
    """Both ODE oracles integrate one system of 6 states, for a scalar r alone."""

    @pytest.mark.parametrize("r, counts", [(0.0, (34, 446)), (0.5, (34, 458))])
    def test_scalar_geodesic_keeps_its_steps(self, monkeypatch, r, counts):
        solves = _solve_counts(monkeypatch)
        oracle.geodesic_integrate(ModelParams(r), _DESK, (-1.0, 1.0))
        assert solves == [counts]

    @pytest.mark.parametrize("r, counts", [(0.0, (55, 674)), (0.5, (54, 662))])
    def test_scalar_jacobi_keeps_its_steps(self, monkeypatch, r, counts):
        solves = _solve_counts(monkeypatch)
        oracle.jacobi_integrate(ModelParams(r), _DESK, 20.0 / geodesics.amplitude_A0(_DESK))
        assert solves == [counts]

    @pytest.mark.parametrize("r", [np.array([0.0, 0.5]), np.array([[0.0, 0.5]]), np.array([])])
    def test_rejects_an_array_r_before_integrating(self, monkeypatch, r):
        monkeypatch.setattr(oracle, "solve_ivp", None)  # any call would fail otherwise
        A0 = geodesics.amplitude_A0(_DESK)
        for run in (lambda: oracle.geodesic_integrate(ModelParams(r), _DESK, (-1.0, 1.0)),
                    lambda: oracle.jacobi_integrate(ModelParams(r), _DESK, 20.0 / A0)):
            with pytest.raises(DomainError, match=r"^r must be a scalar here, got shape \("):
                run()

    @pytest.mark.parametrize("span", [(-1.0, 0.0, 1.0), (1.0,), (), 1.0, np.array([[-1.0, 1.0]])])
    def test_rejects_a_tau_span_that_is_not_a_pair_before_integrating(self, monkeypatch, span):
        monkeypatch.setattr(oracle, "solve_ivp", None)  # any call would fail otherwise
        with pytest.raises(DomainError, match=r"^tau_span must be a pair of span ends, got "):
            oracle.geodesic_integrate(ModelParams(0.5), _DESK, span)


class TestVerificationBattery:
    def test_group_filter(self):
        results = oracle.run_verification(only="curvature")
        assert results
        assert all(res.group == "curvature" for res in results)

    def test_unknown_group(self):
        with pytest.raises(DomainError):
            oracle.run_verification(only="nonsense")

    def test_fault_injection_fails_check(self, monkeypatch):
        # the corr3 closed form with its off-diagonal entries 1e-3 off
        off = np.array([[0.0, 1e-3, 0.0], [1e-3, 0.0, 0.0], [0.0, 0.0, 0.0]])
        metric_corr3 = models.metric_corr3
        monkeypatch.setattr(models, "metric_corr3",
                            lambda sigma, params: metric_corr3(sigma, params) + off)
        results = oracle.run_verification(only="models")
        passed = {res.name: res.passed for res in results}
        assert passed == {"metric3_quadrature": False, "metric4_quadrature": True}

    def test_nan_closed_form_fails_check(self, monkeypatch):
        # a closed form that is NaN at one grid point, (sigma 1, r 0.3)
        metric_corr3 = models.metric_corr3

        def patched(sigma, params):
            g = metric_corr3(sigma, params)
            at = (np.asarray(sigma) == 1.0) & (np.asarray(params.r) == 0.3)
            return np.where(at[..., None, None], math.nan, g)

        monkeypatch.setattr(models, "metric_corr3", patched)
        res = oracle.run_verification(only="models")[0]
        assert res.name == "metric3_quadrature"
        assert math.isnan(res.residual)
        assert res.passed is False

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_residual_fails_check(self, monkeypatch, bad):
        # the largest finite residual lies within the tolerance
        row = battery._Check("probe", "oracle", 1.0, lambda: iter([0.0, bad, 0.5]), (), ())
        monkeypatch.setattr(battery, "_CHECKS", [row])
        (res,) = oracle.run_verification()
        assert res.name == "probe"
        assert res.passed is False

    def test_raising_check_fails_and_the_battery_goes_on(self, monkeypatch):
        # a purity 1% high has no correlation, so r_from_purity raises inside
        # inversions_roundtrip; that check fails and the others still run
        purity_from_r = scattering.purity_from_r
        monkeypatch.setattr(scattering, "purity_from_r",
                            lambda cfg, r: 1.01 * purity_from_r(cfg, r))
        results = oracle.run_verification(only="scattering")
        assert [res.name for res in results] == [
            check.name for check in battery._CHECKS if check.group == "scattering"]
        failed = {res.name: res for res in results if not res.passed}
        assert set(failed) == {"inversions_roundtrip"}
        res = failed["inversions_roundtrip"]
        assert res.residual == math.inf
        assert res.error.startswith("DomainError: correlation must lie in [0, 0.999999999)")
        assert res.as_dict()["error"] == res.error

    def test_oracle_convergence_error_fails_its_check(self, monkeypatch):
        # a coarse 96-point rule makes igc_gauss's order doubling raise
        _coarse_rule_at(monkeypatch, 96)
        res = {res.name: res for res in oracle.run_verification(only="complexity")}
        assert res["igc_numeric"].residual == math.inf and not res["igc_numeric"].passed
        assert res["igc_numeric"].error.startswith("ConvergenceError: IGC time average")
        assert res["complexity_relations"].passed and res["complexity_relations"].error is None

    def test_lyapunov_exponent_fault_fails_igc(self, monkeypatch):
        # igc_closed reads lambda from chaos.lyapunov_exponent, igc_gauss
        # from the geodesics, so a lambda 1e-5 high fails the oracle check
        lyapunov_exponent = chaos.lyapunov_exponent
        monkeypatch.setattr(chaos, "lyapunov_exponent",
                            lambda A0: (1.0 + 1e-5) * lyapunov_exponent(A0))
        res = {res.name: res for res in oracle.run_verification(only="complexity")}
        assert not res["igc_numeric"].passed
        assert res["igc_numeric"].residual > 5e-5

    @pytest.mark.parametrize("cell", [f"chaos.{name}" for name in (
        "jacobi_intensity", "lyapunov_exponent", "jlc_coefficient", "lyapunov_estimate.value")],
        ids=["jacobi_intensity", "lyapunov_exponent", "jlc_coefficient", "lyapunov_estimate"])
    def test_chaos_fault_fails_constant_curvature(self, monkeypatch, cell):
        # each chaos form follows exactly from K and g(v, v), so 1e-6 off fails
        # constant_curvature by 1e-6
        _scale(monkeypatch, cell, 1.0 + 1e-6)
        res = {res.name: res for res in oracle.run_verification(only="chaos")}
        assert not res["constant_curvature"].passed
        assert res["constant_curvature"].residual == pytest.approx(1e-6, rel=1e-3)

    @pytest.mark.parametrize("cell", ["geodesics.amplitude_A0", "geodesics.joined_path.mu1"],
                             ids=["amplitude_A0", "joined_path"])
    def test_path_fault_fails_boundary_data(self, monkeypatch, cell):
        # A0 1e-6 high moves sigma(tau0) by about 2.6e-6 on the desk data
        _scale(monkeypatch, cell, 1.0 + 1e-6)
        res = {res.name: res for res in oracle.run_verification(only="geodesics")}
        assert not res["boundary_data"].passed
        assert res["boundary_data"].residual >= 1e-6 * (1.0 - 1e-9)

    def test_tilted_jacobi_seed_fails_intensity(self, desk_ic, monkeypatch):
        # a seed tilted by 1e-4 along the velocity moves the intensity by
        # about 5e-9, well within its 1e-5 bound, and the rate not at all,
        # but J leaves the normal plane, far past the 1e-8 bound
        seed = oracle._orthonormal_seed

        def tilted(params, ic):
            v = geodesics.geodesic_velocity(0.0, params, ic)
            g = models.metric_corr3(geodesics.geodesic_corr(0.0, params, ic).sigma, params)
            return seed(params, ic) + 1e-4 * v / math.sqrt(v @ g @ v)

        monkeypatch.setattr(oracle, "_orthonormal_seed", tilted)
        A0 = geodesics.amplitude_A0(desk_ic)
        for r in (0.0, 0.5):
            cmp = oracle.jacobi_integrate(ModelParams(r), desk_ic, 20.0 / A0)
            assert cmp.orthogonality_max == pytest.approx(1e-4, rel=0.01)
            assert cmp.max_rel_error < 1e-5
            assert abs(2.0 * cmp.fitted_rate - 2.0 * A0) / (2.0 * A0) < 0.01

    def test_full_battery_contract(self):
        # every row keeps its name, group and tolerance, and passes
        expected = [
            ("metric3_quadrature", "models", 1e-6),
            ("metric4_quadrature", "models", 1e-6),
            ("christoffel_fd", "curvature", 1e-6),
            ("riemann_fd", "curvature", 1e-5),
            ("weyl_fd", "curvature", 1e-5),
            ("curvature_constants", "curvature", 1e-12),
            ("geodesic_residual", "geodesics", 1e-6),
            ("boundary_data", "geodesics", 1e-13),
            ("velocity_norm", "geodesics", 1e-9),
            ("constant_curvature", "chaos", 1e-8),
            ("igc_numeric", "complexity", 5e-12),
            ("complexity_relations", "complexity", 1e-12),
            ("purity_gaussian_identity", "oracle", 1e-9),
            ("phase_chain", "scattering", 0.02),
            ("inversions_roundtrip", "scattering", 1e-10),
            ("prolongation_agreement", "scattering", 0.01),
            ("normalization_quadrature", "scattering", 1e-8),
        ]
        payloads = [res.as_dict() for res in oracle.run_verification()]
        assert [(p["name"], p["group"], p["tolerance"]) for p in payloads] == expected
        for p in payloads:
            assert set(p) == {"name", "group", "residual", "tolerance", "passed"}
            assert p["passed"] is True, p

    def test_no_result_outlives_a_battery(self, monkeypatch):
        # the three fd checks share one finite-difference run within a
        # battery, but a second battery runs it again
        calls = []
        curvature_fd = battery.curvature_fd

        def counted(*args, **kwargs):
            calls[-1] += 1
            return curvature_fd(*args, **kwargs)

        monkeypatch.setattr(battery, "curvature_fd", counted)
        for _ in range(2):
            calls.append(0)
            assert all(res.passed for res in oracle.run_verification(only="curvature"))
        assert calls == [1, 1]

    def test_concurrent_batteries_agree(self):
        # four threads run the curvature battery, which shares its fd run,
        # three times each with the interpreter switching every microsecond:
        # none raises, and each reports the serial residuals bit for bit
        def run():
            return [res.as_dict() for res in oracle.run_verification(only="curvature")]

        expected = run()
        got, errors = [], []

        def work():
            try:
                for _ in range(3):
                    got.append(run())
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert got == [expected] * 12

    def test_christoffel_fault_reaches_every_user(self, desk_ic, monkeypatch):
        # curvature.christoffel is the one Gamma table behind the fd check,
        # the stencil residual, the geodesic ODE and the Jacobi ODE: its
        # Gamma^sigma_{mu mu} family 1% off fails both checks and breaks
        # both oracles' bounds
        christoffel = curvature.christoffel
        scale = np.ones((3, 3, 3))
        scale[2, :2, :2] = 1.01
        monkeypatch.setattr(curvature, "christoffel",
                            lambda sigma, params: christoffel(sigma, params) * scale)
        failed = {res.name for group in ("curvature", "geodesics")
                  for res in oracle.run_verification(only=group) if not res.passed}
        assert {"christoffel_fd", "geodesic_residual"} <= failed
        params, A0 = ModelParams(0.5), geodesics.amplitude_A0(desk_ic)
        assert oracle.geodesic_integrate(params, desk_ic, (-1.0, 1.0)).max_rel_error > 1e-6
        jacobi = oracle.jacobi_integrate(params, desk_ic, 20.0 / A0)
        assert jacobi.max_rel_error > 1e-5 and jacobi.orthogonality_max > 1e-8

    @pytest.mark.parametrize("build, order", [
        (np.polynomial.hermite.hermgauss, 40), (np.polynomial.legendre.leggauss, 64)])
    def test_gauss_rules_are_read_only(self, build, order):
        nodes, weights = battery._gauss_rule(build, order)
        assert battery._gauss_rule(build, order)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable

    def test_check_result_serializes(self):
        res = oracle.run_verification(only="models")[0]
        payload = res.as_dict()
        assert set(payload) == {"name", "group", "residual", "tolerance", "passed"}

    def test_verify_output_is_deterministic(self, capsys):
        # timings stay on stderr, so two identical runs print identical bytes
        outputs = []
        for _ in range(2):
            assert cli.main(["verify", "--only", "oracle"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


#: cell: why no row fails at its 1e-6 mutation; the table only shrinks, and a
#: cell leaves it once a row catches it
ESCAPES = {cell: reason for cells, reason in [
    ("models.metric_corr3_determinant models.metric_corr3_eigenvalues "
     "models.metric_corr4_determinant models.metric_corr4_eigenvalues",
     "printed by the metric record alone; no row holds the spectrum"),
    ("curvature.maximal_symmetry_check.ricci_residual curvature.bundle.weyl "
     "curvature.maximal_symmetry_check.riemann_residual geodesics.geodesic_residual "
     "curvature.maximal_symmetry_check.trace_residual",
     "zero in exact arithmetic, so a scaled value is still rounding"),
    ("curvature.bundle.christoffel curvature.bundle.ricci curvature.bundle.scalar",
     "no row reads this field of the bundle; the row of its own form does"),
    ("curvature.bundle.riemann", "read only as the scale of the Weyl residual"),
    ("geodesics.geodesic_acceleration", "geodesic_residual differences the path instead"),
    ("chaos.lyapunov_estimate.raw", "constant_curvature holds the extrapolated value alone"),
    ("complexity.ige_closed complexity.ige_gap", "no row holds the entropy"),
    ("scattering.r_qm scattering.purity_series scattering.eta_c scattering.potential_density",
     "printed by the scatter record alone; no row ties them to their definitions"),
    ("scattering.phase_shift_exact scattering.phase_shift_series "
     "scattering.phase_shift_from_potential",
     "phase_chain holds the routes to each other within their truncation, 0.02"),
    ("scattering.prolongation.delta scattering.prolongation.delta_approx",
     "prolongation_agreement holds the two within their truncation, 0.01"),
    ("scattering.prolongation.r_bound", "prolongation_agreement samples at fractions of it"),
] for cell in cells.split()}


def test_every_cell_is_declared_or_escapes():
    # a new form or row needs a deliberate entry, and a stale one fails; a row
    # names each cell once, in guards or in coarse
    for check in battery._CHECKS:
        cells = [*check.guards, *check.coarse]
        assert len(set(cells)) == len(cells), check.name
    caught = {cell for check in battery._CHECKS for cell in check.guards}
    coarse = {cell for check in battery._CHECKS for cell in check.coarse}
    assert sorted(set(CELLS) - caught - ESCAPES.keys()) == []
    assert sorted(caught & ESCAPES.keys()) == []
    assert sorted((caught | coarse | ESCAPES.keys()) - set(CELLS)) == []
    assert all(ESCAPES.values())


@pytest.mark.parametrize("cell", CELLS)
def test_mutation_fails_the_rows_that_declare_it(monkeypatch, cell):
    # the full battery under each mutation fails exactly the rows that declare it
    for eps in (1e-6, 1e-2):
        declared = {check.name for check in battery._CHECKS
                    if cell in check.guards or (eps > 1e-6 and cell in check.coarse)}
        with monkeypatch.context() as patch:
            _scale(patch, cell, 1.0 + eps)
            failed = {res.name for res in battery.run_verification() if not res.passed}
        assert failed == declared, f"at 1 + {eps:g}"
