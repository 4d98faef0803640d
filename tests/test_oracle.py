"""Self-tests of the numeric verification engines."""

import math
import sys
import threading
import types
import warnings

import numpy as np
import pytest

from gaussgeo import (battery, chaos, cli, complexity, curvature, geodesics, models, oracle,
                      scattering)
from gaussgeo.errors import ConvergenceError, DomainError
from gaussgeo.models import Macrostate3, Macrostate4, ModelParams
from gaussgeo.oracle import OdeSpec
from gaussgeo.scattering import ScatteringConfig


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
        # gives the order-40 metric and order 2 does not
        g40 = battery._fisher_quadrature(*args, 40)
        scale = np.abs(g40).max()
        assert np.abs(battery._fisher_quadrature(*args, 3) - g40).max() <= 1e-12 * scale
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

    @pytest.mark.parametrize("model", ["corr3", "corr4"])
    @pytest.mark.parametrize("mean", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_mean(self, model, mean):
        # refused before the quadrature, which would return NaN or warn on inf - inf
        state = (Macrostate3(mean, 0.0, 1.0) if model == "corr3"
                 else Macrostate4(0.0, mean, 1.0, 2.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match="means must be finite"):
                oracle.fisher_metric_numeric(model, state, ModelParams(0.3))
        assert caught == []

    def test_unknown_model(self):
        with pytest.raises(DomainError):
            oracle.fisher_metric_numeric("corr5", None, None)

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
                xy = mean + math.sqrt(2.0) * L @ np.array([zi, zj])
                s = C @ battery._scores_corr4(xy, mux, muy, sx, sy, r)
                ref = ref + (weights[i] * weights[j]) * np.outer(s, s)
        ref = ref / math.pi
        got = oracle.fisher_metric_numeric(model, state, ModelParams(r))
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


class TestGeodesicIntegrate:
    @pytest.mark.parametrize("r", [0.0, 0.5])
    def test_reproduces_closed_form(self, desk_ic, r):
        cmp = oracle.geodesic_integrate(ModelParams(r), desk_ic, (-1.0, 1.0))
        assert cmp.max_rel_error < 1e-6

    def test_reversibility(self):
        # the battery integrates its r = 0.5 geodesic_ode run back to its start
        results = {res.name: res for res in oracle.run_verification(only="geodesics")}
        assert results["geodesic_reversibility"].residual < 1e-8

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

    def test_tolerance_refinement_self_test(self, desk_ic):
        # tightening the tolerance by 10x moves the solution by far less
        # than a tenth of the 1e-6 comparison tolerance
        a = oracle.geodesic_integrate(
            ModelParams(0.5), desk_ic, (-1.0, 1.0), OdeSpec(rtol=1e-10, atol=1e-12)
        )
        b = oracle.geodesic_integrate(
            ModelParams(0.5), desk_ic, (-1.0, 1.0), OdeSpec(rtol=1e-11, atol=1e-13)
        )
        assert np.abs(a.numeric - b.numeric).max() < 1e-7


class TestPurityBruteforce:
    def test_product_state_is_pure(self):
        cfg = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=0.1, a_s=0.0)
        assert oracle.purity_bruteforce(cfg) == pytest.approx(1.0, abs=1e-10)

    def test_deficit_matches_quadratic_coefficient(self, desk_cfg):
        # 1 - P = 8 (k0^2 + sigma^4 R0^2) a_s^2 to leading order
        deficit = 1.0 - oracle.purity_bruteforce(desk_cfg)
        predicted = 8.0 * (1.0 + 0.1**4 * 100.0) * (1e-5) ** 2
        assert deficit == pytest.approx(predicted, rel=0.01)

    def test_deficit_scales_quadratically(self):
        deficits = []
        for a_s in (1e-5, 5e-6):
            cfg = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=0.1, a_s=a_s)
            deficits.append(1.0 - oracle.purity_bruteforce(cfg))
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
        # no horizon guard of its own: the order doubling holds it to the
        # closed form far past quad's range, and fails at the guard
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

    def test_bad_step_detected(self):
        with pytest.raises(ConvergenceError):
            oracle.curvature_fd(1.0, ModelParams(0.0), step=0.5)

    @pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_a_step_not_positive_and_finite(self, step):
        # refused by name before any difference: a zero step would divide 0 by 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match="step must be positive and finite"):
                oracle.curvature_fd(1.0, ModelParams(0.3), step=step)
        assert caught == []

    @pytest.mark.parametrize("sigma,step", [(1.0, 1.0), (1.0, 2.0), (np.array([0.1, 1.0]), 0.5)])
    def test_rejects_a_step_not_below_sigma(self, sigma, step):
        # named as the step, not as the point sigma - step it would reach
        with pytest.raises(DomainError, match="step must be below sigma, got step"):
            oracle.curvature_fd(sigma, ModelParams(0.3), step=step)


class TestOdeSpec:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("field", ["rtol", "atol"])
    def test_rejects_a_tolerance_not_positive_and_finite(self, field, value):
        # solve_ivp never finishes a step at a NaN or infinite tolerance
        with pytest.raises(DomainError, match=f"{field} must be positive and finite"):
            OdeSpec(**{field: value})


class TestJacobiIntegrate:
    def test_intensity_matches_closed_form(self, desk_ic):
        A0 = geodesics.amplitude_A0(desk_ic)
        cmp = oracle.jacobi_integrate(ModelParams(0.5), desk_ic, 5.0 / A0)
        assert cmp.max_rel_error < 1e-5
        assert cmp.orthogonality_max < 1e-8

    def test_growth_rate_fit(self, desk_ic):
        A0 = geodesics.amplitude_A0(desk_ic)
        rates = {}
        for r in (0.0, 0.5):
            cmp = oracle.jacobi_integrate(ModelParams(r), desk_ic, 20.0 / A0)
            rates[r] = 2.0 * cmp.fitted_rate
            assert abs(rates[r] - 2.0 * A0) / (2.0 * A0) < 0.01
        # the indicator is correlation-independent
        assert abs(rates[0.0] - rates[0.5]) / (2.0 * A0) < 1e-4

    def test_omega0_scales_intensity(self, desk_ic):
        A0 = geodesics.amplitude_A0(desk_ic)
        one = oracle.jacobi_integrate(ModelParams(0.0), desk_ic, 2.0 / A0, omega0=1.0)
        two = oracle.jacobi_integrate(ModelParams(0.0), desk_ic, 2.0 / A0, omega0=2.0)
        np.testing.assert_allclose(two.intensity, 2.0 * one.intensity, rtol=1e-7)

    def test_tolerance_refinement_self_test(self, desk_ic):
        # tightening the tolerance by 10x moves the intensity error and the
        # fitted rate by less than a tenth of the jacobi_intensity (1e-5)
        # and lyapunov_fit (1% of 2 A0) bands
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

    @pytest.mark.parametrize("r", [0.0, 0.5, 0.9])
    def test_rhs_reads_the_closed_form_path(self, desk_ic, rng, r):
        # the RHS in Python floats agrees within a few ulps of its largest
        # component with one built from the public closed forms
        params = ModelParams(r)
        terms = oracle._christoffel_terms(params)

        def written_out(t, y):
            sg = geodesics.geodesic_corr(t, params, desk_ic).sigma
            v = geodesics.geodesic_velocity(t, params, desk_ic).tolist()
            Js, *K = y[2:].tolist()
            acc = [0.0, 0.0, 0.0]
            for a, b, c, G in terms:
                acc[a] -= G * v[b] * (2.0 * K[c] - v[c] * Js / sg)
            return [*K, acc[0] / sg, acc[1] / sg, acc[2] / sg]

        rhs = oracle._jacobi_rhs(params, desk_ic)
        A0 = geodesics.amplitude_A0(desk_ic)
        for tau in rng.uniform(0.0, 20.0 / A0, 200):
            y = rng.standard_normal(6)
            got, want = np.array(rhs(tau, y)), np.array(written_out(tau, y))
            assert np.abs(got - want).max() <= 16 * np.spacing(np.abs(want).max())

    def test_battery_nfev(self, monkeypatch):
        # the two Jacobi runs and the whole battery keep their step sequences
        nfev = {}
        solve_ivp = oracle.solve_ivp

        def counted(rhs, *args, **kwargs):
            sol = solve_ivp(rhs, *args, **kwargs)
            nfev.setdefault(rhs.__qualname__.split(".")[0], []).append(sol.nfev)
            return sol

        monkeypatch.setattr(oracle, "solve_ivp", counted)
        assert all(res.passed for res in oracle.run_verification())
        assert nfev["_jacobi_rhs"] == [839, 824]
        assert sum(map(sum, nfev.values())) == 3229

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

    def test_metric_fault_fails_every_check_that_reads_it(self, monkeypatch):
        # curvature and chaos call models.metric_corr3 through the module, so
        # one patch reaches the sectional curvatures and the contracted norm
        metric_corr3 = models.metric_corr3
        monkeypatch.setattr(models, "metric_corr3",
                            lambda sigma, params: (1.0 + 1e-6) * metric_corr3(sigma, params))
        failed = {res.name for res in oracle.run_verification() if not res.passed}
        assert failed == {"metric3_quadrature", "curvature_constants", "velocity_norm"}

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
        row = ("probe", "oracle", 1.0, lambda: iter([0.0, bad, 0.5]))
        monkeypatch.setattr(battery, "_CHECKS", [row])
        (res,) = oracle.run_verification()
        assert res.name == "probe"
        assert res.passed is False

    def test_two_sided_band(self, monkeypatch):
        # purity_scaling holds the deficit ratio of a_s = 1e-5 to 5e-6 within
        # 0.5 of 4, so a ratio too far below or above 4 fails
        row = next(row for row in battery._CHECKS if row[0] == "purity_scaling")
        monkeypatch.setattr(battery, "_CHECKS", [row])
        for ratio, passed in ((3.4, False), (3.6, True), (4.6, False)):
            monkeypatch.setattr(battery, "_purity_deficit", {1e-5: ratio, 5e-6: 1.0}.get)
            (res,) = oracle.run_verification()
            assert res.residual == pytest.approx(abs(ratio - 4.0))
            assert res.tolerance == 0.5 and res.passed is passed

    def test_raising_check_fails_and_the_battery_goes_on(self, monkeypatch):
        # a purity 1% high has no correlation, so r_from_purity raises inside
        # inversions_roundtrip; that check fails and the others still run
        purity_from_r = scattering.purity_from_r
        monkeypatch.setattr(scattering, "purity_from_r",
                            lambda cfg, r: 1.01 * purity_from_r(cfg, r))
        results = oracle.run_verification(only="scattering")
        assert [res.name for res in results] == [
            row[0] for row in battery._CHECKS if row[1] == "scattering"]
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

    def test_lyapunov_exponent_fault_fails_fit(self, monkeypatch):
        # lyapunov_fit holds the fitted rate to chaos.lyapunov_exponent
        lyapunov_exponent = chaos.lyapunov_exponent
        monkeypatch.setattr(chaos, "lyapunov_exponent", lambda A0: 1.05 * lyapunov_exponent(A0))
        res = {res.name: res for res in oracle.run_verification(only="chaos")}
        assert not res["lyapunov_fit"].passed
        assert res["lyapunov_fit"].residual == pytest.approx(0.05 / 1.05, rel=1e-6)
        assert res["jacobi_intensity"].passed

    def test_lyapunov_exponent_fault_fails_igc(self, monkeypatch):
        # igc_closed reads lambda from chaos.lyapunov_exponent, igc_gauss
        # from the geodesics, so a lambda 1e-5 high fails the oracle check
        lyapunov_exponent = chaos.lyapunov_exponent
        monkeypatch.setattr(chaos, "lyapunov_exponent",
                            lambda A0: (1.0 + 1e-5) * lyapunov_exponent(A0))
        res = {res.name: res for res in oracle.run_verification(only="complexity")}
        assert not res["igc_numeric"].passed
        assert res["igc_numeric"].residual > 5e-5

    def test_lyapunov_estimate_fault_fails_fit(self, monkeypatch):
        # lyapunov_fit holds the finite-horizon estimate to the fitted rate,
        # so an estimate 2% high fails it and the exponent alone does not
        lyapunov_estimate = chaos.lyapunov_estimate

        def high(omega0, A0, tau_max):
            est = lyapunov_estimate(omega0, A0, tau_max)
            return chaos.LyapunovEstimate(1.02 * est.value, est.raw)

        monkeypatch.setattr(chaos, "lyapunov_estimate", high)
        (res,) = [res for res in oracle.run_verification(only="chaos")
                  if res.name == "lyapunov_fit"]
        assert not res.passed
        assert res.residual == pytest.approx(0.02, rel=1e-3)

    def test_tilted_jacobi_seed_fails_intensity(self, monkeypatch):
        # a seed tilted by 1e-4 along the velocity moves the intensity by
        # about 5e-9, well within the tolerance, but J leaves the normal plane
        seed = oracle._orthonormal_seed

        def tilted(params, ic):
            v = geodesics.geodesic_velocity(0.0, params, ic)
            g = models.metric_corr3(geodesics.geodesic_corr(0.0, params, ic).sigma, params)
            return seed(params, ic) + 1e-4 * v / math.sqrt(v @ g @ v)

        monkeypatch.setattr(oracle, "_orthonormal_seed", tilted)
        res = {res.name: res for res in oracle.run_verification(only="chaos")}
        assert res["jacobi_intensity"].residual == pytest.approx(1e-4, rel=0.01)
        assert not res["jacobi_intensity"].passed
        assert res["lyapunov_fit"].passed

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
            ("geodesic_ode", "geodesics", 1e-6),
            ("geodesic_reversibility", "geodesics", 1e-8),
            ("velocity_norm", "geodesics", 1e-9),
            ("jacobi_intensity", "chaos", 1e-5),
            ("lyapunov_fit", "chaos", 0.01),
            ("igc_numeric", "complexity", 1e-5),
            ("complexity_relations", "complexity", 1e-12),
            ("purity_scaling", "scattering", 0.5),
            ("purity_quadratic", "scattering", 0.02),
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
        # the chaos checks share one Jacobi run per r within a battery, but
        # a second battery integrates everything again
        nfev = []
        solve_ivp = oracle.solve_ivp

        def counted(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            nfev[-1] += sol.nfev
            return sol

        monkeypatch.setattr(oracle, "solve_ivp", counted)
        for _ in range(2):
            nfev.append(0)
            assert all(res.passed for res in oracle.run_verification(only="chaos"))
        assert nfev[0] == nfev[1] > 0

    def test_concurrent_batteries_agree(self):
        # batteries in more threads than cores, switching often, each read
        # only their own memo: none raises and all report the serial residuals
        expected = [res.as_dict() for res in oracle.run_verification(only="scattering")]
        got, errors = [], []

        def battery():
            try:
                for _ in range(3):
                    got.append([res.as_dict()
                                for res in oracle.run_verification(only="scattering")])
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=battery) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert got == [expected] * 12

    def test_christoffel_fault_reaches_every_user(self, monkeypatch):
        # curvature.christoffel is the one Gamma table behind the fd check,
        # the stencil residual, the geodesic ODE and the Jacobi ODE: its
        # Gamma^sigma_{mu mu} family 1% off fails all four
        christoffel = curvature.christoffel
        scale = np.ones((3, 3, 3))
        scale[2, :2, :2] = 1.01
        monkeypatch.setattr(curvature, "christoffel",
                            lambda sigma, params: christoffel(sigma, params) * scale)
        failed = {res.name for group in ("curvature", "geodesics", "chaos")
                  for res in oracle.run_verification(only=group) if not res.passed}
        assert {"christoffel_fd", "geodesic_residual", "geodesic_ode",
                "jacobi_intensity"} <= failed

    def test_riemann_fault_reaches_its_checks(self, monkeypatch):
        # the ODE oracles do not read R: curvature.riemann 1% off fails the
        # checks that compare it and only those
        riemann = curvature.riemann
        monkeypatch.setattr(curvature, "riemann",
                            lambda sigma, params: riemann(sigma, params) * 1.01)
        failed = {res.name for res in oracle.run_verification() if not res.passed}
        assert failed == {"riemann_fd", "curvature_constants"}

    def test_scalar_curvature_fault_reaches_riemann_fd(self, monkeypatch):
        # riemann_fd also holds the finite-difference scalar to SCALAR_CURVATURE
        monkeypatch.setattr(curvature, "SCALAR_CURVATURE", -1.4)
        failed = {res.name for res in oracle.run_verification(only="curvature")
                  if not res.passed}
        assert "riemann_fd" in failed

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
