"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Two checks are strict-xfail because their target values are
provably out of reach of the faithful constructions they compare against:

* the brute-force purity of the explicit t=0 post-collision wave function
  is 1 - 8(k0^2 + sigma^4 R0^2) a_s^2 -- second order in the scattering
  length, because the first-order admixture cancels exactly between the
  trace numerator and the squared norm -- so it cannot match the
  first-order series 1 - 8(2k0^2 + sigma^2) R0 a_s, and the residual
  halves rather than quarters when a_s is halved;
* the prolongation obeys Delta ~ -ln(1 - r/r_bound)/(2 A0) in both its
  exact and approximate forms, so Delta(0.9 rb)/Delta(0.5 rb) is
  ln(10)/ln(2) ~ 3.3-3.5 for every admissible configuration, never > 10.

Both are kept strict so that an unexpected pass flags a real change.
"""

import math
import time

import numpy as np
import pytest

from gaussgeo import chaos, complexity, curvature, geodesics, models, oracle, scattering
from gaussgeo.geodesics import InitialConditions
from gaussgeo.models import Macrostate3, Macrostate4, ModelParams
from gaussgeo.scattering import ScatteringConfig

SIGMA_GRID = (0.1, 1.0, 10.0)
R_GRID = (0.0, 0.3, 0.7, 0.9)
#: the (sigma, r) grid as two flat axes, sigma-major, for the forms that broadcast
SIGMA, R = (a.ravel() for a in np.meshgrid(SIGMA_GRID, R_GRID, indexing="ij"))
DESK_IC = InitialConditions(p0=1.0, sigma0=0.1, tau0=1.0, R0=10.0)
NARROW_IC = InitialConditions(p0=1.0, sigma0=1e-3, tau0=1.0, R0=10.0)


def report(criterion: str, detail: str, **conditions) -> None:
    """Print the criterion's PASS or FAIL line, then assert each named condition."""
    failed = [name for name, holds in conditions.items() if not holds]
    print(f"ACCEPTANCE {criterion}: {'FAIL' if failed else 'PASS'} - {detail}")
    assert not failed, f"criterion {criterion} failed: {', '.join(failed)}"


def test_criterion_01_curvature_constants():
    start = time.perf_counter()
    b, fd = curvature.bundle(SIGMA, ModelParams(R)), oracle.curvature_fd(SIGMA, ModelParams(R))
    worst_scalar = abs(b.scalar + 1.5)
    worst_sectional = float(np.nanmax(np.abs(b.sectional + 0.25)))
    worst_fd = float(max(np.abs(fd.scalar + 1.5).max(), np.nanmax(np.abs(fd.sectional + 0.25))))
    elapsed = time.perf_counter() - start
    report(
        "1 (curvature constants)",
        f"scalar dev {worst_scalar:.1e}, sectional dev {worst_sectional:.1e}, "
        f"FD dev {worst_fd:.1e}, {elapsed:.2f}s",
        scalar=worst_scalar == 0.0, sectional=worst_sectional < 1e-13, fd=worst_fd < 1e-5,
        elapsed=elapsed < 1.0,
    )


def test_criterion_02_isotropy():
    start = time.perf_counter()
    params, axes = ModelParams(R), (1, 2, 3, 4)
    weyl = np.abs(curvature.bundle(SIGMA, params).weyl).max(axis=axes)
    worst_closed = float((weyl / np.abs(curvature.riemann(SIGMA, params)).max(axis=axes)).max())
    worst_abs = float(weyl[SIGMA >= 1.0].max())
    worst_fd = float(np.abs(oracle.curvature_fd(SIGMA, params).weyl).max())
    worst_symmetry = float(curvature.maximal_symmetry_check(SIGMA, params).max_residual().max())
    elapsed = time.perf_counter() - start
    report(
        "2 (isotropy)",
        f"Weyl closed {worst_closed:.1e} (scaled) / {worst_abs:.1e} (abs, sigma>=1), "
        f"FD {worst_fd:.1e}, symmetry {worst_symmetry:.1e}, {elapsed:.2f}s",
        weyl_scaled=worst_closed < 1e-12, weyl_abs=worst_abs < 1e-12, fd=worst_fd < 1e-5,
        symmetry=worst_symmetry < 1e-12, elapsed=elapsed < 1.0,
    )


def test_criterion_03_geodesics():
    start = time.perf_counter()
    grid = np.linspace(-1.0, 1.0, 9)
    worst_residual = worst_ode = 0.0
    for r in (0.0, 0.5):
        worst_residual = max(
            worst_residual, geodesics.geodesic_residual(ModelParams(r), DESK_IC, grid)
        )
        cmp = oracle.geodesic_integrate(ModelParams(r), DESK_IC, (-1.0, 1.0))
        worst_ode = max(worst_ode, cmp.max_rel_error)
    elapsed = time.perf_counter() - start
    report(
        "3 (geodesic correctness)",
        f"equation residual {worst_residual:.1e}, ODE reproduction {worst_ode:.1e}, "
        f"{elapsed:.2f}s",
        residual=worst_residual < 1e-6, ode=worst_ode < 1e-6, elapsed=elapsed < 5.0,
    )


def test_criterion_04_amplitude_reproduction():
    start = time.perf_counter()
    value = geodesics.amplitude_A0(NARROW_IC) * NARROW_IC.tau0
    elapsed = time.perf_counter() - start
    report(
        "4 (A0 reproduction)",
        f"A0*tau0 = {value:.9f} vs 7.254329369, {elapsed * 1e6:.0f}us",
        value=abs(value - 7.254329369) < 1e-6, elapsed=elapsed < 1e-3,
    )


def test_criterion_05_velocity_norm_and_lyapunov():
    start = time.perf_counter()
    A0 = geodesics.amplitude_A0(DESK_IC)
    expected = 4.0 * A0 * A0
    worst_norm = 0.0
    for r in (0.0, 0.5):
        for tau in np.linspace(-2.0, 2.0, 11):
            got = chaos.velocity_norm_squared_contracted(ModelParams(r), DESK_IC, tau)
            worst_norm = max(worst_norm, abs(got - expected) / expected)
    rates = {}
    for r in (0.0, 0.5):
        cmp = oracle.jacobi_integrate(ModelParams(r), DESK_IC, 20.0 / A0)
        rates[r] = 2.0 * cmp.fitted_rate
    worst_rate = max(abs(v - 2.0 * A0) / (2.0 * A0) for v in rates.values())
    r_spread = abs(rates[0.0] - rates[0.5]) / (2.0 * A0)
    elapsed = time.perf_counter() - start
    report(
        "5 (velocity norm and Lyapunov)",
        f"norm dev {worst_norm:.1e}, rate dev {worst_rate:.1e}, "
        f"r-spread {r_spread:.1e}, {elapsed:.2f}s",
        norm=worst_norm < 1e-9, rate=worst_rate < 0.01, r_spread=r_spread < 1e-4,
        elapsed=elapsed < 5.0,
    )


def test_criterion_06_fisher_oracle_equivalence():
    start = time.perf_counter()
    # each family in one call over its grid, as both the oracle and the closed forms broadcast
    numeric = oracle.fisher_metric_numeric("corr3", Macrostate3(0.4, -0.3, SIGMA), ModelParams(R))
    worst = np.abs(numeric - models.metric_corr3(SIGMA, ModelParams(R))).max()
    sx, sy, r = np.repeat([1.0, 0.5], 3), np.repeat([2.0, 1.0], 3), np.tile([0.0, 0.3, 0.7], 2)
    numeric = oracle.fisher_metric_numeric("corr4", Macrostate4(0.2, -0.5, sx, sy), ModelParams(r))
    worst = float(max(worst, np.abs(numeric - models.metric_corr4(sx, sy, ModelParams(r))).max()))
    elapsed = time.perf_counter() - start
    report(
        "6 (Fisher metric oracle)", f"max entrywise deviation {worst:.1e}, {elapsed:.2f}s",
        deviation=worst < 1e-6, elapsed=elapsed < 10.0,
    )


def test_criterion_07_complexity_relations():
    import warnings

    from gaussgeo.errors import RegimeWarning

    start = time.perf_counter()
    lam = 2.0 * geodesics.amplitude_A0(DESK_IC)
    worst_numeric = worst_ratio = worst_gap = 0.0
    with warnings.catch_warnings():
        # the gap identity is tested down to lambda*tau = 1, below the
        # asymptotic-regime advisory of the entropy form
        warnings.simplefilter("ignore", RegimeWarning)
        for lt in (1.0, 5.0, 10.0):
            tau = lt / lam
            base = complexity.igc_closed(tau, ModelParams(0.0), DESK_IC)
            base_ige = complexity.ige_closed(tau, ModelParams(0.0), DESK_IC)
            for r in (0.0, 0.3, 0.7):
                params = ModelParams(r)
                closed = complexity.igc_closed(tau, params, DESK_IC)
                numeric = oracle.igc_numeric(tau, params, DESK_IC)
                worst_numeric = max(
                    worst_numeric, abs(closed - numeric) / abs(numeric)
                )
                worst_ratio = max(
                    worst_ratio, abs(closed / base - complexity.igc_ratio(params))
                )
                gap = complexity.ige_closed(tau, params, DESK_IC) - base_ige
                worst_gap = max(worst_gap, abs(gap - complexity.ige_gap(params)))
    elapsed = time.perf_counter() - start
    report(
        "7 (IGC/IGE relations)",
        f"numeric dev {worst_numeric:.1e}, ratio dev {worst_ratio:.1e}, "
        f"gap dev {worst_gap:.1e}, {elapsed:.2f}s",
        numeric=worst_numeric < 1e-5, ratio=worst_ratio < 1e-12, gap=worst_gap < 1e-12,
        elapsed=elapsed < 10.0,
    )


@pytest.mark.xfail(
    strict=True,
    reason="target unreachable: the brute-force purity of the explicit "
    "t=0 wave function is 1 - 8(k0^2 + sigma^4 R0^2) a_s^2 (second order in "
    "a_s; the first-order admixture cancels between trace and norm), so its "
    "residual against the first-order series halves rather than quarters "
    "when a_s is halved; see the module docstring",
)
def test_criterion_08_purity_bruteforce_vs_series():
    start = time.perf_counter()
    residuals = []
    for a_s in (1e-5, 5e-6):
        cfg = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=0.1, a_s=a_s)
        brute = oracle.purity_bruteforce(cfg)
        series = scattering.purity_series(cfg)
        residuals.append(abs(brute - series))
    ratio = residuals[0] / residuals[1]
    elapsed = time.perf_counter() - start
    report(
        "8 (purity scaling vs first-order series)",
        f"residuals {residuals[0]:.3e} / {residuals[1]:.3e}, ratio {ratio:.2f} "
        f"(required 3.5-4.5), {elapsed:.2f}s "
        "[expected FAIL: target unreachable, see module docstring]",
        ratio=3.5 <= ratio <= 4.5, elapsed=elapsed < 60.0,
    )


def test_criterion_08_companion_true_purity_behavior():
    # what the brute-force oracle actually satisfies, verified three ways
    start = time.perf_counter()
    cfg0 = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=0.1, a_s=0.0)
    pure = oracle.purity_bruteforce(cfg0)
    deficits = []
    for a_s in (1e-5, 5e-6):
        cfg = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=0.1, a_s=a_s)
        deficits.append(1.0 - oracle.purity_bruteforce(cfg))
    predicted = 8.0 * (1.0 + 0.1**4 * 100.0) * (1e-5) ** 2
    ratio = deficits[0] / deficits[1]
    anchor = abs(oracle.purity_gaussian_state(cfg0, 0.2) - math.sqrt(1 - 0.04))
    elapsed = time.perf_counter() - start
    report(
        "8c (true brute-force purity behavior)",
        f"a_s=0 purity dev {abs(pure - 1.0):.1e}, deficit vs analytic "
        f"{abs(deficits[0] - predicted) / predicted:.1e}, quadratic ratio "
        f"{ratio:.2f}, Gaussian-state anchor {anchor:.1e}, {elapsed:.2f}s",
        pure=abs(pure - 1.0) < 1e-10, deficit=abs(deficits[0] - predicted) / predicted < 0.01,
        quadratic=3.5 <= ratio <= 4.5, anchor=anchor < 1e-12, elapsed=elapsed < 60.0,
    )


def test_criterion_09_phase_shift_chain():
    start = time.perf_counter()

    def pair(L):
        cfg = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=L)
        exact = scattering.phase_shift_exact(cfg, 0.01)
        reduced = scattering.phase_shift_from_potential(
            scattering.potential_from_r(0.01, cfg), cfg)
        return exact, reduced

    exact1, reduced1 = pair(0.1)
    rel_dev = abs(exact1 - reduced1) / abs(exact1)
    exact2, reduced2 = pair(0.05)
    shrink = abs(exact1 - reduced1) / abs(exact2 - reduced2)
    elapsed = time.perf_counter() - start
    report(
        "9 (phase-shift chain)",
        f"exact-vs-series deviation {rel_dev:.2%} (limit 2%), fifth-order "
        f"shrink factor {shrink:.1f} (~2^5), {elapsed:.2f}s",
        deviation=rel_dev < 0.02, shrink=24.0 < shrink < 40.0, elapsed=elapsed < 1.0,
    )


def test_criterion_10_prolongation_main_clauses():
    start = time.perf_counter()
    narrow_bound = scattering.prolongation(NARROW_IC, 0.0).r_bound

    worst_gap = 0.0
    desk_bound = scattering.prolongation(DESK_IC, 0.0).r_bound
    for ic, bound in ((DESK_IC, desk_bound), (NARROW_IC, narrow_bound)):
        for frac in (0.1, 0.25, 0.5):
            rep = scattering.prolongation(ic, frac * bound)
            worst_gap = max(worst_gap, abs(rep.delta_approx - rep.delta) / rep.delta)

    zero = scattering.prolongation(DESK_IC, 0.0)
    deltas = [
        scattering.prolongation(DESK_IC, f * desk_bound).delta
        for f in np.linspace(0.05, 0.9, 10)
    ]
    monotone = all(b > a for a, b in zip(deltas, deltas[1:]))
    elapsed = time.perf_counter() - start
    report(
        "10a-d (prolongation)",
        f"r_bound {narrow_bound:.3e} (~2e-6), exact/approx gap {worst_gap:.2%}, "
        f"Delta(0) = {zero.delta}, monotone = {monotone}, {elapsed:.2f}s",
        bound=abs(narrow_bound - 2e-6) / 2e-6 < 0.05, gap=worst_gap < 0.01,
        zero=zero.delta == 0.0, monotone=monotone, elapsed=elapsed < 1.0,
    )


@pytest.mark.xfail(
    strict=True,
    reason="target unreachable: Delta ~ -ln(1 - r/r_bound)/(2 A0) for "
    "both the exact and approximate forms, so Delta(0.9 rb)/Delta(0.5 rb) "
    "= ln(10)/ln(2) ~ 3.3-3.5 for every admissible configuration; a ratio "
    "above 10 first appears within ~0.1% of the bound; see the module "
    "docstring",
)
def test_criterion_10e_prolongation_divergence_ratio():
    bound = scattering.prolongation(DESK_IC, 0.0).r_bound
    d_half = scattering.prolongation(DESK_IC, 0.5 * bound).delta
    d_nine = scattering.prolongation(DESK_IC, 0.9 * bound).delta
    report(
        "10e (prolongation divergence ratio)",
        f"Delta(0.9 rb)/Delta(0.5 rb) = {d_nine / d_half:.2f} (required > 10) "
        "[expected FAIL: target unreachable, see module docstring]",
        ratio=d_nine > 10.0 * d_half,
    )


def test_criterion_11_inversion_roundtrips():
    start = time.perf_counter()
    cfg = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=0.1)
    worst = 0.0
    for r in (1e-6, 1e-3, 0.01, 0.1):
        worst = max(
            worst,
            abs(scattering.r_from_potential(cfg, scattering.potential_from_r(r, cfg)) - r),
            abs(scattering.r_from_cross_section(cfg, scattering.cross_section(cfg, r)) - r),
            abs(scattering.r_from_purity(cfg, scattering.purity_from_r(cfg, r)) - r),
            abs(
                complexity.r_from_complexities(
                    1.0, complexity.igc_ratio(ModelParams(r))
                ) - r
            ),
        )
    elapsed = time.perf_counter() - start
    report(
        "11 (inversion round-trips)", f"max recovery error {worst:.1e}, {elapsed:.2f}s",
        recovery=worst < 1e-10, elapsed=elapsed < 1.0,
    )


def test_criterion_12_dimensional_reduction():
    # the quadrature norm of the reduced 2-D post-collision density against
    # normalization_integral
    start = time.perf_counter()
    (res,) = [res for res in oracle.run_verification(only="scattering")
              if res.name == "normalization_quadrature"]
    residual = res.residual
    elapsed = time.perf_counter() - start
    report("12 (reduced 2-D normalization)", f"residual {residual:.1e}, {elapsed:.2f}s",
           residual=residual < 1e-9, elapsed=elapsed < 5.0)
