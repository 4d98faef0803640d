"""Scattering chain: purity, phase shifts, inversions, prolongation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from gaussgeo import geodesics, scattering
from gaussgeo.errors import RegimeError, RegimeWarning, ResonanceError
from gaussgeo.scattering import ScatteringConfig


def _born(cfg, r):
    """Born phase shift at the potential V = r E that the correlation r induces."""
    return scattering.phase_shift_from_potential(scattering.potential_from_r(r, cfg), cfg)


class TestConfig:
    # each warning names the line that built the config, not the dataclass's
    # generated __init__, whose filename is '<string>'
    def test_warns_outside_low_energy_regime(self):
        with pytest.warns(RegimeWarning, match=r"k0\*L") as record:
            ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=0.5)
        assert [w.filename for w in record] == [__file__]

    def test_warns_poor_localization(self):
        with pytest.warns(RegimeWarning, match="sigma_k0/k0") as record:
            ScatteringConfig(k0=1.0, sigma_k0=0.2, R0=10.0, L=0.1)
        assert [w.filename for w in record] == [__file__]

    def test_kinetic_energy(self, desk_cfg):
        assert desk_cfg.kinetic_energy == pytest.approx(1.0, rel=1e-14)

    def test_initial_conditions_bridge(self, desk_cfg):
        ic = desk_cfg.initial_conditions(tau0=2.0)
        assert (ic.p0, ic.sigma0, ic.tau0, ic.R0) == (1.0, 0.1, 2.0, 10.0)


class TestRqm:
    def test_zero_without_scattering(self):
        cfg = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=0.1, a_s=0.0)
        assert scattering.r_qm(cfg) == 0.0

    def test_reference_value(self, desk_cfg):
        assert scattering.r_qm(desk_cfg) == pytest.approx(
            0.040099875311526846, rel=1e-12
        )

    def test_warns_out_of_regime(self):
        cfg = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=0.1, a_s=1e-3)
        with pytest.warns(RegimeWarning) as record:
            scattering.r_qm(cfg)
        assert [w.filename for w in record] == [__file__]

    def test_norm_matches_correlated_gaussian_to_leading_order(self, desk_cfg):
        # bracket of the norm integral vs sqrt(1 - r_qm^2) expansion
        r = scattering.r_qm(desk_cfg)
        bracket = scattering.normalization_integral(desk_cfg) / (
            2 * math.pi * desk_cfg.sigma_k0**2
        )
        assert abs(bracket - (1 - 0.5 * r * r)) < 10.0 * r**4


class TestNormalizationIntegral:
    def test_reduces_without_scattering(self):
        cfg = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=0.1, a_s=0.0)
        assert scattering.normalization_integral(cfg) == pytest.approx(
            2 * math.pi * 0.01, rel=1e-14
        )

    def test_linear_coefficient(self, desk_cfg):
        base = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=0.1, a_s=0.0)
        n0 = scattering.normalization_integral(base)
        a = 1e-10
        cfg = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=0.1, a_s=a)
        slope = (scattering.normalization_integral(cfg) - n0) / (a * n0)
        expected = -4.0 * (2 * 1.0 + 0.01) * 10.0
        assert slope == pytest.approx(expected, rel=1e-4)


class TestPuritySeries:
    def test_no_scattering(self):
        cfg = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=0.1, a_s=0.0)
        assert scattering.purity_series(cfg) == 1.0

    def test_reference_value(self, desk_cfg):
        assert scattering.purity_series(desk_cfg) == pytest.approx(0.998392, abs=1e-9)

    def test_equals_one_minus_rqm_squared(self, desk_cfg):
        r = scattering.r_qm(desk_cfg)
        assert scattering.purity_series(desk_cfg) == pytest.approx(
            1.0 - r * r, abs=1e-15
        )

    def test_warns_when_strained(self):
        # kappa a_s = 160.8 * 2e-3 ~ 0.32: inside the first-order regime, strained
        cfg = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=0.1, a_s=2e-3)
        with pytest.warns(RegimeWarning, match="first-order form is strained") as record:
            assert scattering.purity_series(cfg) == pytest.approx(1.0 - 0.3216)
        assert [w.filename for w in record] == [__file__]

    def test_regime_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=0.1, a_s=0.01)
            with pytest.raises(RegimeError):
                scattering.purity_series(cfg)


class TestPurityCrossSection:
    # the purity of a cross section: its correlation, then the purity of r
    @staticmethod
    def purity(cfg, sigma_cs):
        return scattering.purity_from_r(cfg, scattering.r_from_cross_section(cfg, sigma_cs))

    def test_no_scattering(self, desk_cfg):
        assert self.purity(desk_cfg, 0.0) == 1.0

    def test_reproduces_series(self, desk_cfg):
        sigma_cs = 4 * math.pi * desk_cfg.a_s**2
        assert self.purity(desk_cfg, sigma_cs) == pytest.approx(
            scattering.purity_series(desk_cfg), abs=1e-12
        )

    def test_reference_value(self, desk_cfg):
        assert self.purity(desk_cfg, 4 * math.pi * 1e-10) == pytest.approx(
            0.998392, abs=1e-9)


class TestPhaseShiftChain:
    def test_exact_vanishes_uncorrelated(self, desk_cfg):
        assert scattering.phase_shift_exact(desk_cfg, 0.0) == 0.0

    def test_exact_reference_value(self, desk_cfg):
        assert scattering.phase_shift_exact(desk_cfg, 0.01) == pytest.approx(
            -3.3265405076274336e-06, rel=1e-9
        )

    def test_exact_vs_reduced_series(self, desk_cfg):
        exact = scattering.phase_shift_exact(desk_cfg, 0.01)
        reduced = _born(desk_cfg, 0.01)
        assert reduced == pytest.approx(-0.01 * 0.1**3 / 3.0, rel=1e-14)
        assert abs(exact - reduced) / abs(exact) < 0.02

    def test_residual_fifth_order_scaling(self):
        # halving k0*L shrinks the exact-vs-reduced residual by ~2^5
        def residual(L):
            cfg = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=L)
            return abs(
                scattering.phase_shift_exact(cfg, 0.01)
                - _born(cfg, 0.01)
            )

        ratio = residual(0.1) / residual(0.05)
        assert 24.0 < ratio < 40.0

    def test_series_two_term_form(self, desk_cfg):
        r, x = 0.1, 0.1
        expected = math.atan((-(x**3) / 3 + x**5 / 15) * r + 2 * x**5 / 15 * r * r)
        assert scattering.phase_shift_series(desk_cfg, r) == pytest.approx(
            expected, rel=1e-14
        )

    def test_reduced_example(self, desk_cfg):
        assert _born(desk_cfg, 0.1) == pytest.approx(-3.3333333333333333e-05, rel=1e-12)

    def test_series_warns_out_of_regime(self, desk_cfg):
        with pytest.warns(RegimeWarning) as record:
            scattering.phase_shift_series(desk_cfg, 0.5)
        assert [w.filename for w in record] == [__file__]

    def test_from_potential_trivial(self, desk_cfg):
        assert scattering.phase_shift_from_potential(0.0, desk_cfg) == 0.0

    def test_from_potential_value(self, desk_cfg):
        assert scattering.phase_shift_from_potential(1.0, desk_cfg) == pytest.approx(
            -1e-3 / 3.0, rel=1e-14
        )

    def test_potential_route_equals_reduced_series(self, desk_cfg):
        # the Born route is the series' leading cubic term -r (k0 L)^3 / 3
        x = desk_cfg.k0 * desk_cfg.L
        for r in (1e-3, 0.01, 0.1):
            assert _born(desk_cfg, r) == pytest.approx(-r * x**3 / 3.0, rel=1e-14)

    def test_pairwise_agreement_on_grid(self):
        for k0L in (0.05, 0.1, 0.2):
            cfg = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=k0L)
            for r in (1e-3, 0.01, 0.1):
                exact = scattering.phase_shift_exact(cfg, r)
                series = scattering.phase_shift_series(cfg, r)
                via_v = scattering.phase_shift_from_potential(
                    scattering.potential_from_r(r, cfg), cfg
                )
                assert abs(exact - series) / abs(exact) < 0.02
                assert abs(exact - via_v) / abs(exact) < 0.02


class TestSquareWellMatching:
    # phase_shift_exact matches a square well of height V = r E, whose
    # interior wave number is k_in = sqrt(1 - r) k0
    def test_transparent_well(self, desk_cfg):
        assert scattering.phase_shift_exact(desk_cfg, 0.0) == 0.0

    def test_reproduces_exact_phase_shift(self, desk_cfg):
        # the interior wave number sqrt(2 mu (E - V)) / hbar of the well
        # V = r E satisfies the matching with phase_shift_exact(r)
        E, L = desk_cfg.kinetic_energy, desk_cfg.L
        k_out = math.sqrt(2 * desk_cfg.reduced_mass * E) / desk_cfg.hbar
        for r in (0.01, 0.1, 0.3):
            V = scattering.potential_from_r(r, desk_cfg)
            k_in = math.sqrt(2 * desk_cfg.reduced_mass * (E - V)) / desk_cfg.hbar
            theta = scattering.phase_shift_exact(desk_cfg, r)
            assert k_in / math.tan(k_in * L) == pytest.approx(
                k_out / math.tan(k_out * L + theta), rel=1e-12
            )

    def test_matching_equation_residual(self, desk_cfg):
        # theta must satisfy k_in cot(k_in L) = k_out cot(k_out L + theta)
        r = 0.3
        theta = scattering.phase_shift_exact(desk_cfg, r)
        k_out = desk_cfg.k0
        k_in = math.sqrt(1.0 - r) * k_out
        lhs = k_in / math.tan(k_in * desk_cfg.L)
        rhs = k_out / math.tan(k_out * desk_cfg.L + theta)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_weak_well_linear_form(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            cfg = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=0.05)
        V = 1e-3
        got = scattering.phase_shift_exact(cfg, scattering.r_from_potential(cfg, V))
        approx = scattering.phase_shift_from_potential(V, cfg)
        assert abs(got - approx) / abs(approx) < 0.02

    def test_resonant_denominator_raises(self):
        # engineer k_out tan(k_out L) tan(k_in L) = -k_in with k_in = 1, L = 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            target = lambda k: k * math.tan(k) + 1.0 / math.tan(1.0)
            k_out = brentq(target, 2.02, 3.0, xtol=1e-16, rtol=8.9e-16)
            cfg = ScatteringConfig(
                k0=k_out, sigma_k0=0.05 * k_out, R0=10.0, L=1.0
            )
            r = 1.0 - 1.0 / k_out**2  # makes k_in = 1
            with pytest.raises(ResonanceError):
                scattering.phase_shift_exact(cfg, r)


class TestPotentialAndCrossSection:
    def test_potential_trivial(self, desk_cfg):
        assert scattering.potential_from_r(0.0, desk_cfg) == 0.0

    def test_potential_is_energy_fraction(self, desk_cfg):
        assert scattering.potential_from_r(0.5, desk_cfg) == pytest.approx(
            0.5, rel=1e-14
        )

    def test_cross_section_values(self, desk_cfg):
        assert scattering.cross_section(desk_cfg, 0.0) == 0.0
        assert scattering.cross_section(desk_cfg, 0.1) == pytest.approx(
            1.3962634015954637e-08, rel=1e-12
        )

    def test_cross_section_equals_scattering_length_form(self, desk_cfg):
        for r in (1e-3, 0.01, 0.2):
            a_s = scattering.scattering_length_from_r(desk_cfg, r)
            assert scattering.cross_section(desk_cfg, r) == pytest.approx(
                4 * math.pi * a_s**2, rel=1e-13
            )

    def test_potential_density(self, desk_cfg):
        assert scattering.potential_density(desk_cfg) == pytest.approx(
            53.6, rel=1e-12
        )
        doubled = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=20.0, L=0.1, a_s=1e-5)
        assert scattering.potential_density(doubled) == pytest.approx(
            2 * 53.6, rel=1e-12
        )

    def test_potential_density_chain_consistency(self, desk_cfg):
        # the self-consistent correlation r* (where the induced correlation
        # equals the potential-chain correlation) reproduces V/L^3
        cfg = desk_cfg
        r_star = (
            8.0 * (2 * cfg.k0**2 + cfg.sigma_k0**2) * cfg.R0 * cfg.k0**2 * cfg.L**3 / 3.0
        )
        a_star = scattering.scattering_length_from_r(cfg, r_star)
        cfg_star = ScatteringConfig(
            k0=cfg.k0, sigma_k0=cfg.sigma_k0, R0=cfg.R0, L=cfg.L, a_s=a_star
        )
        assert scattering.r_qm(cfg_star) == pytest.approx(r_star, rel=1e-12)
        assert scattering.potential_from_r(r_star, cfg) / cfg.L**3 == pytest.approx(
            scattering.potential_density(cfg), rel=1e-12
        )


class TestInversions:
    @pytest.mark.parametrize("r", [1e-6, 1e-3, 0.01, 0.1])
    def test_roundtrips(self, desk_cfg, r):
        assert scattering.r_from_potential(
            desk_cfg, scattering.potential_from_r(r, desk_cfg)
        ) == pytest.approx(r, abs=1e-12)
        assert scattering.r_from_cross_section(
            desk_cfg, scattering.cross_section(desk_cfg, r)
        ) == pytest.approx(r, abs=1e-12)
        assert scattering.r_from_purity(
            desk_cfg, scattering.purity_from_r(desk_cfg, r)
        ) == pytest.approx(r, abs=1e-12)

    def test_pure_state_has_no_correlation(self, desk_cfg):
        assert scattering.r_from_purity(desk_cfg, 1.0) == 0.0


class TestPurityFromR:
    def test_trivial(self, desk_cfg):
        assert scattering.purity_from_r(desk_cfg, 0.0) == 1.0

    def test_reference_value(self, desk_cfg):
        assert scattering.purity_from_r(desk_cfg, 0.01) == pytest.approx(
            0.999464, abs=1e-9
        )

    def test_consistent_with_series_via_scattering_length(self, desk_cfg):
        for r in (1e-3, 0.01):
            a_s = scattering.scattering_length_from_r(desk_cfg, r)
            cfg2 = ScatteringConfig(
                k0=1.0, sigma_k0=0.1, R0=10.0, L=0.1, a_s=a_s
            )
            assert scattering.purity_from_r(desk_cfg, r) == pytest.approx(
                scattering.purity_series(cfg2), abs=1e-14
            )


def _assert_flagged(rep, r_bound):
    """A scalar r past the bound: flagged, NaN prolongations, the same bound."""
    assert rep.flagged is True
    assert math.isnan(rep.delta) and math.isnan(rep.delta_approx)
    assert rep.r_bound == r_bound


class TestProlongation:
    def test_vanishes_without_correlation(self, desk_ic):
        rep = scattering.prolongation(desk_ic, 0.0)
        assert rep.delta == 0.0 and rep.delta_approx == 0.0

    def test_narrow_packet_bound(self, narrow_ic):
        # printed estimate: r_bound ~ 2e-6 for sigma0/p0 = 1e-3
        rep = scattering.prolongation(narrow_ic, 0.0)
        assert rep.r_bound == pytest.approx(2e-6, rel=0.05)
        assert rep.r_bound == pytest.approx(1.9999980000025016e-06, rel=1e-9)

    def test_desk_reference_values(self, desk_ic):
        rep = scattering.prolongation(desk_ic, 0.01)
        assert rep.delta == pytest.approx(0.13343513663725792, rel=1e-10)
        assert rep.delta_approx == pytest.approx(0.13392715163663282, rel=1e-10)
        assert rep.delta_approx == pytest.approx(rep.delta, rel=5e-3)
        # the correlated branch reaches the reference momentum at tau0 + delta
        A0 = geodesics.amplitude_A0(desk_ic)
        assert math.tanh(A0 * (desk_ic.tau0 + rep.delta)) == pytest.approx(
            math.tanh(A0 * desk_ic.tau0) / math.sqrt(1.0 - 0.01), rel=1e-12)

    def test_exact_and_approx_agree_below_half_bound(self, desk_ic, narrow_ic):
        for ic in (desk_ic, narrow_ic):
            bound = scattering.prolongation(ic, 0.0).r_bound
            for frac in (0.1, 0.3, 0.5):
                rep = scattering.prolongation(ic, frac * bound)
                assert abs(rep.delta_approx - rep.delta) / rep.delta < 0.01

    def test_monotone_in_r(self, desk_ic):
        bound = scattering.prolongation(desk_ic, 0.0).r_bound
        deltas = [
            scattering.prolongation(desk_ic, f * bound).delta
            for f in np.linspace(0.05, 0.9, 12)
        ]
        assert all(b > a for a, b in zip(deltas, deltas[1:]))

    def test_bound_violation(self, desk_ic):
        bound = scattering.prolongation(desk_ic, 0.0).r_bound
        _assert_flagged(scattering.prolongation(desk_ic, bound * 1.01), bound)

    def test_no_solution_marginally_below_bound(self, desk_ic):
        # the exact solve loses its solution at sech^2(A0 tau0), slightly
        # below 2/eta; the sliver in between must also be flagged
        bound = scattering.prolongation(desk_ic, 0.0).r_bound
        A0 = geodesics.amplitude_A0(desk_ic)
        r_ns = 1.0 / math.cosh(A0 * desk_ic.tau0) ** 2
        assert r_ns < bound
        r_mid = 0.5 * (r_ns + bound)
        _assert_flagged(scattering.prolongation(desk_ic, r_mid), bound)

    def test_log_argument_threshold_also_raises(self, desk_ic):
        # the approximate form's log argument vanishes at
        # 1 - (eta/(1+eta))^2, marginally below the exact threshold
        rep = scattering.prolongation(desk_ic, 0.0)
        eta = 2.0 / rep.r_bound
        r_star = 1.0 - (eta / (1.0 + eta)) ** 2
        A0 = geodesics.amplitude_A0(desk_ic)
        r_ns = 1.0 / math.cosh(A0 * desk_ic.tau0) ** 2
        assert r_star < r_ns < rep.r_bound
        _assert_flagged(scattering.prolongation(desk_ic, 0.5 * (r_star + r_ns)), rep.r_bound)
        # just below every threshold the report is well formed
        rep_ok = scattering.prolongation(desk_ic, 0.999 * r_star)
        assert rep_ok.delta > 0 and rep_ok.delta_approx > 0 and rep_ok.flagged is False


class TestEtaC:
    def test_value(self, desk_cfg):
        assert scattering.eta_c(desk_cfg) == pytest.approx(
            8.0 / 3.0 * 2.01 * 10.0 * 1e-3, rel=1e-14
        )


@settings(max_examples=60, deadline=None)
@given(r=st.floats(min_value=0.0, max_value=0.29))
def test_inversion_roundtrip_property(r):
    cfg = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=0.1)
    V = scattering.potential_from_r(r, cfg)
    assert scattering.r_from_potential(cfg, V) == pytest.approx(r, abs=1e-13)
    sigma_cs = scattering.cross_section(cfg, r)
    assert scattering.r_from_cross_section(cfg, sigma_cs) == pytest.approx(
        r, abs=1e-13
    )
