"""Command-line surface: formats, determinism, exit codes, config files."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gaussgeo import battery, cli, curvature, errors, models, scattering
from gaussgeo.geodesics import InitialConditions


def run_cli(capsys, *argv):
    """Exit code, stdout and stderr of a CLI run; argparse's usage errors
    exit through SystemExit."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMetricCommand:
    def test_flat_json(self, capsys):
        code, out, _ = run_cli(capsys, "metric", "--sigma", "1", "--r", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["matrix"] == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 4.0]]
        assert payload["determinant"] == pytest.approx(4.0)
        assert payload["eigenvalues"] == [1.0, 1.0, 4.0]
        assert payload["warnings"] == []

    def test_csv_has_unique_entries(self, capsys):
        code, out, _ = run_cli(
            capsys, "metric", "--sigma", "2", "--r", "0.5", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "name,value"
        names = [line.split(",")[0] for line in lines[1:]]
        g_entries = [n for n in names if n.startswith("g_")]
        assert len(g_entries) == 6  # upper triangle of a symmetric 3x3
        values = {line.split(",")[0]: float(line.split(",")[1]) for line in lines[1:]}
        assert values["g_11"] == pytest.approx(1.0 / 3.0)
        assert values["g_12"] == pytest.approx(-1.0 / 6.0)

    def test_four_dimensional(self, capsys):
        code, out, _ = run_cli(
            capsys, "metric", "--dim", "4", "--sigma-x", "1", "--sigma-y", "2",
            "--r", "0.5",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["matrix"][0][2] == pytest.approx(-1.0 / 3.0)

    def test_domain_rejection_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "metric", "--r", "1.5")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv, named", [
        (["--sigma", "1e60"], "--sigma 1e+60"),    # determinant underflows to 0
        (["--sigma", "1e200"], "--sigma 1e+200"),  # an all-zero matrix
        (["--dim", "4", "--sigma-x", "1e100", "--sigma-y", "1e100"],
         "--sigma-x 1e+100, --sigma-y 1e+100"),    # determinant underflows to 0
        (["--sigma", "1e-60"], "--sigma 1e-60"),   # determinant overflows
        (["--sigma", "1e50"], None),
        (["--sigma", "1e-50"], None),
    ])
    def test_representable_range(self, capsys, argv, named):
        code, out, err = run_cli(capsys, "metric", *argv)
        if named is None:
            assert code == 0
            payload = json.loads(out)
            for value in [payload["determinant"], *payload["eigenvalues"]]:
                assert np.finfo(float).tiny <= value < math.inf
        else:
            assert (code, out) == (2, "")
            assert err.startswith(f"error: {named}: metric out of range")

    @pytest.mark.parametrize("argv, config, named", [
        (["--sigma-x", "2", "--sigma-y", "3"], None, "--sigma-x 2: needs --dim 4"),
        (["--dim", "4", "--sigma", "5"], None, "--sigma 5: needs --dim 3"),
        ([], {"sigma-y": 3}, "--sigma-y 3: needs --dim 4"),
        (["--dim", "4"], {"sigma": 5}, "--sigma 5: needs --dim 3"),
    ], ids=["flag corr4 spread", "flag corr3 spread", "config corr4 spread",
            "config corr3 spread"])
    def test_other_dimension_spread_is_rejected(self, capsys, tmp_path, argv, config,
                                                named):
        # the spreads of the dimension not chosen are not read, so one set
        # off its default is a usage error, not a silently ignored input
        if config is not None:
            path = tmp_path / "run.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        assert run_cli(capsys, "metric", *argv) == (2, "", f"error: {named}\n")


class TestCurvatureCommand:
    def test_constants(self, capsys):
        code, out, _ = run_cli(capsys, "curvature", "--sigma", "2", "--r", "0.5")
        payload = json.loads(out)
        assert code == 0
        assert payload["scalar"] == -1.5
        for key in ("sectional_12", "sectional_13", "sectional_23"):
            assert payload[key] == pytest.approx(-0.25, abs=1e-12)
        assert payload["weyl_max_abs"] < 1e-12
        assert payload["ricci_identity_residual"] < 1e-12

    def test_warning_is_reported(self, capsys, monkeypatch):
        check = curvature.maximal_symmetry_check

        def warning_check(sigma, params):
            warnings.warn("isotropy probe")
            return check(sigma, params)

        monkeypatch.setattr(curvature, "maximal_symmetry_check", warning_check)
        code, out, err = run_cli(capsys, "curvature")
        assert code == 0
        assert json.loads(out)["warnings"] == ["isotropy probe"]
        assert err == "warning: UserWarning: isotropy probe\n"


class TestGeodesicCommand:
    def test_table_columns_and_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "geodesic", "--r", "0.5", "--tau-min", "-1", "--tau-max", "1",
            "--n", "8", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "tau,mu1,mu2,sigma"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        taus = [row[0] for row in rows]
        assert taus.count(0.0) == 1  # junction row inserted exactly once
        for _, mu1, mu2, sigma in rows:
            assert mu1 == -mu2
            assert sigma > 0
        sigmas = {row[0]: row[3] for row in rows}
        assert max(sigmas.values()) == sigmas[0.0]

    def test_byte_identical_reruns(self, capsys):
        args = ("geodesic", "--r", "0.3", "--n", "17", "--format", "csv")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_rejects_bad_grid(self, capsys):
        code, _, err = run_cli(
            capsys, "geodesic", "--tau-min", "1", "--tau-max", "-1"
        )
        assert code == 2


@pytest.mark.parametrize("cmd", ["geodesic", "jacobi", "complexity", "prolongation"])
def test_table_commands_take_no_R0(capsys, cmd):
    # the initial separation reaches only the scatter record
    assert run_cli(capsys, cmd, "--R0", "20")[0] == 2


class TestTableGrids:
    @pytest.mark.parametrize("cmd", ["geodesic", "jacobi", "complexity", "prolongation"])
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_rejects_fewer_than_one_row(self, capsys, cmd, n):
        code, out, err = run_cli(capsys, cmd, "--n", n)
        assert code == 2
        assert out == ""
        assert "--n must be at least 1" in err

    @pytest.mark.parametrize("cmd,ends", [("geodesic", ["--tau-min=-1e308", "--tau-max=1e308"]),
                                          ("prolongation", ["--r-min=-1e308", "--r-max=1e308"])])
    def test_rejects_a_span_that_overflows(self, capsys, cmd, ends):
        # finite ends, refused because np.linspace would fill the grid with NaN
        code, out, err = run_cli(capsys, cmd, *ends, "--n", "3")
        assert code == 2
        assert out == ""
        assert err == "error: grid span from -1e+308 to 1e+308 overflows a float\n"

    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "jacobi", "--n", "1", "--format", "csv")
        assert code == 0
        assert out == "tau,intensity\n0,0\n"


class TestJacobiCommand:
    def test_rejects_horizon_past_overflow_guard(self, capsys):
        code, out, err = run_cli(capsys, "jacobi", "--tau-max", "1000")
        assert code == 2
        assert out == ""
        assert "overflow guard" in err

    def test_long_horizon_below_guard(self, capsys):
        # A0 tau_max = 531: the Lyapunov log-ratio squares no sinh/cosh
        code, out, _ = run_cli(capsys, "jacobi", "--tau-max", "200", "--n", "3")
        payload = json.loads(out)
        assert code == 0
        assert payload["lyapunov_estimate"] == pytest.approx(payload["lambda"], rel=1e-12)
        assert all(math.isfinite(row["intensity"]) for row in payload["rows"])

    def test_report_fields(self, capsys):
        code, out, _ = run_cli(capsys, "jacobi", "--tau-max", "4", "--n", "9")
        payload = json.loads(out)
        assert code == 0
        assert payload["lambda"] == pytest.approx(5.308243189099001, rel=1e-12)
        assert payload["jlc_coefficient"] == pytest.approx(
            -2.6541215945495007**2, rel=1e-12
        )
        assert abs(payload["lyapunov_estimate"] - payload["lambda"]) < 0.01
        first = payload["rows"][0]
        assert first["tau"] == 0.0 and first["intensity"] == 0.0


class TestComplexityCommand:
    def test_ratio_and_gap_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "complexity", "--r", "0.5", "--tau-min", "0.2",
            "--tau-max", "1.0", "--n", "5",
        )
        payload = json.loads(out)
        assert code == 0
        expected_ratio = math.sqrt(1.0 / 3.0)
        gaps = set()
        for row in payload["rows"]:
            assert row["ratio"] == pytest.approx(expected_ratio, abs=1e-12)
            gaps.add(round(row["ige_gap"], 12))
        assert gaps == {round(0.5 * math.log(1.0 / 3.0), 12)}

    def test_overflow_rows_truncated(self, capsys):
        code, out, err = run_cli(
            capsys, "complexity", "--r", "0.1", "--tau-min", "1",
            "--tau-max", "200", "--n", "6",
        )
        payload = json.loads(out)
        assert code == 0
        assert len(payload["rows"]) < 6
        assert payload["warnings"]


class TestScatterCommand:
    def test_no_scattering_report(self, capsys):
        code, out, _ = run_cli(capsys, "scatter", "--a-s", "0")
        payload = json.loads(out)
        assert code == 0
        assert payload["purity"] == 1.0
        assert payload["theta0"] == 0.0
        assert payload["cross_section"] == 0.0
        assert payload["potential"] == 0.0
        assert payload["prolongation"] == 0.0
        assert payload["r_qm"] == 0.0

    def test_narrow_packet_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "scatter", "--sigma-k0", "0.001", "--a-s", "1e-9"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["r_bound"] == pytest.approx(2e-6, rel=0.05)

    def test_consistency_roundtrips(self, capsys, desk_cfg):
        code, out, _ = run_cli(capsys, "scatter", "--a-s", "1e-5")
        payload = json.loads(out)
        assert code == 0
        assert payload["consistency_max_residual"] < 1e-10
        assert payload["r_qm"] == pytest.approx(0.040099875311526846, rel=1e-10)

    def test_json_roundtrips_through_parser(self, capsys):
        _, out, _ = run_cli(capsys, "scatter", "--a-s", "1e-5")
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload

    def test_hbar_does_not_decide_localization(self, capsys):
        # hbar cancels in sigma0/p0, so it must not decide the bound, though
        # the scaled ratio rounds above it: fl(3 * 0.1) / 3 > 0.1
        rng = np.random.default_rng(20261018)
        for hbar in [0.3, 3.0, 7.0, 30.0, *10.0 ** rng.uniform(-3.0, 3.0, 200)]:
            code, _, err = run_cli(capsys, "scatter", "--hbar", repr(float(hbar)))
            assert code == 0, (hbar, err)

    def test_poor_localization_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "scatter", "--sigma-k0", "0.11")
        assert code == 2
        assert "sigma_k0/k0 = 0.11 exceeds the well-localized bound 0.1" in err

    def test_failed_roundtrip_warns(self, capsys, monkeypatch):
        # an inversion that misses by 1e-6 is reported without failing the run
        r_from_potential = scattering.r_from_potential
        monkeypatch.setattr(scattering, "r_from_potential",
                            lambda cfg, V: r_from_potential(cfg, V) + 1e-6)
        code, out, err = run_cli(capsys, "scatter", "--a-s", "1e-7")
        assert code == 0
        assert "consistency round-trips failed: {'roundtrip_potential'" in err
        assert json.loads(out)["consistency_max_residual"] == pytest.approx(1e-6)

    def test_regime_violation_warns_but_exits_zero(self, capsys):
        code, out, err = run_cli(capsys, "scatter", "--a-s", "1e-3")
        payload = json.loads(out)
        assert code == 0
        regime, bound = payload["warnings"]
        # stderr names each warning's category; JSON keeps the bare message
        assert err.splitlines() == [f"warning: RegimeWarning: {regime}",
                                    f"warning: ProlongationBoundWarning: {bound}"]
        assert run_cli(capsys, "scatter", "--a-s", "1e-3", "--format", "csv")[2] == err


SUBPARSERS = cli.build_parser()._subparsers._group_actions[0].choices

#: A valid value off the default where doubling the default is not one
#: (zero, a choice, a repeatable flag, the sigma0/p0 <= 0.1 bound).
MOVED = {
    ("metric", "r"): "0.3", ("metric", "dim"): "4", ("curvature", "r"): "0.7",
    ("geodesic", "sigma0"): "0.05", ("geodesic", "r"): "0.5",
    ("jacobi", "sigma0"): "0.05", ("complexity", "sigma0"): "0.05",
    ("complexity", "r"): "0.5", ("scatter", "sigma_k0"): "0.05",
    ("scatter", "a_s"): "1e-6", ("prolongation", "sigma0"): "0.05",
    ("prolongation", "r_min"): "0.001",
}

#: Options that show only beside another: the corr4 spreads need --dim 4, at
#: r = 0 every curvature output is independent of sigma, and tau0 reaches the
#: scatter record through a finite prolongation, so a_s > 0.
CONTEXT = {("metric", "sigma_x"): ["--dim", "4"], ("metric", "sigma_y"): ["--dim", "4"],
           ("curvature", "sigma"): ["--r", "0.7"], ("scatter", "tau0"): ["--a-s", "1e-6"]}

#: Every option of every command but verify, except those that choose where
#: and how output is written.
OPTIONS = [(command, action.dest, action.option_strings[0])
           for command, sub in SUBPARSERS.items() if command != "verify"
           for action in sub._actions
           if action.option_strings and action.dest not in {"help", "format", "out", "config"}]


@pytest.mark.parametrize("command,dest,flag", OPTIONS,
                         ids=[f"{command} {flag}" for command, _, flag in OPTIONS])
def test_every_option_changes_the_output(capsys, command, dest, flag):
    # an option whose value no output reads is a dead input
    moved = MOVED.get((command, dest)) or repr(SUBPARSERS[command].get_default(dest) * 2)
    context = [command, *CONTEXT.get((command, dest), [])]
    code, base, _ = run_cli(capsys, *context)
    moved_code, out, err = run_cli(capsys, *context, flag, moved)
    assert code == moved_code == 0, err
    assert out != base, f"{command} {flag} {moved} leaves stdout unchanged"


class TestProlongationCommand:
    def test_sweep_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "prolongation", "--r-min", "0", "--r-max", "0.01", "--n", "5",
        )
        payload = json.loads(out)
        assert code == 0
        rows = payload["rows"]
        assert rows[0]["r"] == 0.0
        assert rows[0]["delta_exact"] == 0.0 and rows[0]["delta_approx"] == 0.0
        deltas = [row["delta_exact"] for row in rows]
        assert all(b > a for a, b in zip(deltas, deltas[1:]))
        assert all(row["flagged"] == 0 for row in rows)

    def test_rows_beyond_bound_flagged_not_fatal(self, capsys):
        code, out, _ = run_cli(
            capsys, "prolongation", "--r-min", "0.015", "--r-max", "0.03", "--n", "6",
        )
        payload = json.loads(out)
        assert code == 0
        flags = [row["flagged"] for row in payload["rows"]]
        assert 1 in flags and 0 in flags
        for row in payload["rows"]:
            if row["flagged"]:
                assert math.isnan(row["delta_exact"])


class TestVerifyCommand:
    def test_group_run_passes(self, capsys, tmp_path):
        out_path = tmp_path / "verify.json"
        code, _, err = run_cli(
            capsys, "verify", "--only", "models", "--out", str(out_path)
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["passed"] is True
        assert {c["group"] for c in payload["checks"]} == {"models"}
        assert "PASS" in err

    def test_fault_injection_exits_one(self, capsys, monkeypatch):
        # a closed form 1e-3 off fails its check, and verify exits 1
        metric_corr3 = models.metric_corr3
        monkeypatch.setattr(models, "metric_corr3",
                            lambda sigma, params: metric_corr3(sigma, params) + 1e-3)
        code, out, err = run_cli(capsys, "verify", "--only", "models")
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        assert "[FAIL] models/metric3_quadrature" in err

    def test_raising_check_exits_one(self, capsys, monkeypatch):
        # r_from_purity raises on a purity 1% high: its check fails with the
        # message, the other checks keep their lines, and verify exits 1
        purity_from_r = scattering.purity_from_r
        monkeypatch.setattr(scattering, "purity_from_r",
                            lambda cfg, r: 1.01 * purity_from_r(cfg, r))
        code, out, err = run_cli(capsys, "verify", "--only", "scattering")
        assert code == 1
        payload = json.loads(out)
        assert [c["passed"] for c in payload["checks"]] == [True] * 3 + [False] + [True] * 2
        lines = err.splitlines()
        assert len(lines) == 6 and sum(line.startswith("[PASS]") for line in lines) == 5
        assert re.fullmatch(r"\[FAIL\] scattering/inversions_roundtrip: residual inf "
                            r"\(tolerance 1\.000e-10, \d+\.\d\ds\): DomainError: correlation "
                            r"must lie in \[0, 0\.999999999\), got -0\.18\d+", lines[3])

    @pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
    def test_unknown_group_exits_two(self, capsys, tmp_path, by_config):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"only": "bogus"}))
        argv = ["--config", str(config)] if by_config else ["--only", "bogus"]
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: unknown check group 'bogus'") and err.count("\n") == 1
        assert all(group in err for group in battery.GROUPS) and len(battery.GROUPS) == 7

    def test_unknown_fault_exits_two(self, capsys):
        # the battery is fixed: it has no fault hook to set
        code, out, err = run_cli(
            capsys, "verify", "--only", "models", "--inject-fault", "bogus",
        )
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --inject-fault bogus" in err


class TestExtremeInput:
    """Non-finite and extreme finite input exits 2 with a message, no traceback."""

    @pytest.mark.parametrize("tol_scale", ["0", "-1", "nan", "inf"])
    def test_verify_rejects_bad_tol_scale(self, capsys, tol_scale):
        # each check has one fixed tolerance, so no scale is accepted
        code, out, err = run_cli(
            capsys, "verify", "--only", "oracle", "--tol-scale", tol_scale
        )
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: --tol-scale {tol_scale}" in err

    @pytest.mark.parametrize("argv", [
        ["metric", "--sigma", "inf"],   # an all-zero metric, exit 0
        ["jacobi", "--omega0", "nan"],  # a table of NaN, exit 0
    ])
    def test_non_finite_input_exits_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    ARITHMETIC = [
        # (argv, the options its error line names)
        (["metric", "--dim", "4", "--sigma-x", "1e-200"], "--sigma-x 1e-200"),  # range check
        (["curvature", "--sigma", "1e-100"], "--sigma 1e-100"),  # range check
        (["metric", "--sigma", "1e-200"], "--sigma 1e-200"),  # range check
        (["geodesic", "--p0", "1.79e308", "--sigma0", "1.7e307"],
         "--p0 1.79e+308, --sigma0 1.7e+307"),  # an infinite momentum scale
        (["scatter", "--k0", "1e200"], "--k0 1e+200"),  # OverflowError
        (["scatter", "--L", "1e-120"], "--L 1e-120"),  # ZeroDivisionError
        (["scatter", "--sigma-k0", "1e-200"], "--sigma-k0 1e-200"),  # OverflowError
        (["curvature", "--sigma", "1e80"], "--sigma 1e+80"),  # range check
        (["geodesic", "--p0", "1.79e308", "--sigma0", "1.7e307", "--tau-min", "0.5",
          "--tau-max", "1"], "--p0 1.79e+308, --sigma0 1.7e+307"),  # the same scale, off tau = 0
    ]

    @pytest.mark.parametrize("argv, named", ARITHMETIC,
                             ids=[f"argv{i}" for i in range(len(ARITHMETIC))])
    def test_arithmetic_failure_exits_two(self, capsys, argv, named):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    def test_infinite_momentum_scale(self, capsys):
        # hypot(p0, sqrt(2) sigma0) overflows for these finite inputs: geodesic
        # names the scale, and jacobi, which never reads it, still runs
        huge = ["--p0", "1.79e308", "--sigma0", "1.7e307"]
        code, out, err = run_cli(capsys, "geodesic", *huge, "--tau-min", "0.5", "--tau-max", "1")
        assert code == 2
        assert err.startswith("error: momentum scale sqrt(p0^2 + 2 sigma0^2) overflows (at ")
        code, out, err = run_cli(capsys, "jacobi", *huge)
        assert code == 0
        assert out and err == ""

    def test_arithmetic_failure_names_config_input(self, capsys, tmp_path):
        # a value from --config counts as set, like a flag
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"L": 1e-120}))
        code, out, err = run_cli(capsys, "scatter", "--a-s", "1e-6", "--config", str(config))
        assert code == 2
        assert out == ""
        assert err == "error: float division by zero (at --L 1e-120, --a-s 1e-06)\n"

    @pytest.mark.parametrize("r", ["0", "0.5", "0.9"])
    @pytest.mark.parametrize("sigma", ["1e77", "1e78", "1e-80"])
    def test_curvature_out_of_range_exits_two(self, capsys, sigma, r):
        # R_abcd ~ sigma^-4 overflows or leaves the normal floats: at 1e77 it
        # used to print sectional_12 0, at 1e78 and 1e-80 a raw float error
        code, out, err = run_cli(capsys, "curvature", "--sigma", sigma, "--r", r)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --sigma {float(sigma):g}: curvature out of range")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("r", ["0", "0.5", "0.9"])
    @pytest.mark.parametrize("sigma", ["5e76", "3e-77", "1e-40", "2000"])
    def test_curvature_inside_its_range(self, capsys, sigma, r):
        code, out, _ = run_cli(capsys, "curvature", "--sigma", sigma, "--r", r)
        assert code == 0
        payload = json.loads(out)
        for key in ("sectional_12", "sectional_13", "sectional_23"):
            assert abs(payload[key] + 0.25) <= 1e-15

    @pytest.mark.parametrize("sigma", ["2000", "5000", "1e4"])
    def test_curvature_at_large_sigma(self, capsys, sigma):
        code, out, _ = run_cli(capsys, "curvature", "--sigma", sigma)
        assert code == 0
        payload = json.loads(out)
        for key in ("sectional_12", "sectional_13", "sectional_23"):
            assert payload[key] == pytest.approx(-0.25, rel=1e-12)


def _python(*args):
    """A fresh interpreter run on this source tree."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120, check=True)


# defines verify(group): verify --only group in-process, output discarded
_VERIFY = ("import io, sys; from contextlib import redirect_stderr, redirect_stdout; "
           "from gaussgeo import cli\n"
           "def verify(g):\n"
           "    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):\n"
           "        assert cli.main(['verify', '--only', g]) == 0\n")


class TestImports:
    def test_cli_does_not_load_the_oracle(self):
        code = ("import sys, gaussgeo.cli; "
                "print(sorted(m for m in ('scipy.integrate', 'gaussgeo.oracle') "
                "if m in sys.modules))")
        assert _python("-c", code).stdout.strip() == "[]"

    def test_cli_does_not_load_the_battery(self):
        # verify --only is checked by the battery, not by a copy of its groups
        code = "import sys, gaussgeo.cli; print('gaussgeo.battery' in sys.modules)"
        assert _python("-c", code).stdout.strip() == "False"

    def test_oracle_imports_scipy_integrate(self):
        # the oracle binds solve_ivp and quad when it loads, so a caller can
        # wrap them there and time the import of scipy.integrate
        proc = _python("-X", "importtime", "-c", "import gaussgeo.cli, gaussgeo.oracle")
        imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert {"scipy.integrate", "gaussgeo.oracle"} <= imported

    def test_groups_without_an_ode_load_no_scipy(self):
        code = _VERIFY + (
            "for g in ('models', 'curvature', 'complexity', 'scattering', 'oracle'):\n"
            "    verify(g)\n"
            "    print(g, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert _python("-c", code).stdout.splitlines() == [
            "models []", "curvature []", "complexity []", "scattering []", "oracle []"]

    @pytest.mark.parametrize("group", ["geodesics", "chaos"])
    def test_groups_with_an_ode_load_scipy(self, group):
        code = _VERIFY + f"verify('{group}')\nprint('scipy.integrate' in sys.modules)"
        assert _python("-c", code).stdout.strip() == "True"

    def test_scipy_import_is_not_charged_to_a_check(self):
        # a cold run loads scipy before the first ODE check starts its clock
        err = _python("-m", "gaussgeo.cli", "verify", "--only", "geodesics").stderr
        seconds = re.search(r"geodesics/geodesic_ode: .*, ([0-9.]+)s\)", err)
        assert float(seconds[1]) < 0.3, err


class TestPlumbing:
    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "metric.json"
        code, out, _ = run_cli(capsys, "metric", "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["determinant"] == pytest.approx(4.0)

    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"sigma": 2.0, "r": 0.5}))
        code, out, _ = run_cli(capsys, "metric", "--config", str(config))
        payload = json.loads(out)
        assert code == 0
        assert payload["matrix"][0][0] == pytest.approx(1.0 / 3.0)

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"sigma": 2.0, "r": 0.5}))
        code, out, _ = run_cli(
            capsys, "metric", "--config", str(config), "--r", "0"
        )
        payload = json.loads(out)
        assert code == 0
        # sigma from config, r from the explicit flag
        assert payload["matrix"][0][0] == pytest.approx(0.25)
        assert payload["matrix"][0][1] == 0.0

    def test_missing_config_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "metric", "--config", "/nonexistent.json")
        assert code == 2

    @pytest.mark.parametrize("text", [
        json.dumps({"n": 5.0}),         # like --n 5.0: not an int
        json.dumps({"format": "xml"}),  # not one of the --format choices
        json.dumps({"r": [0.3, 0.7]}),  # --r is not repeatable on geodesic
        "not json",
        json.dumps([1, 2]),             # not an object
    ])
    def test_bad_config_is_a_usage_error(self, capsys, tmp_path, text):
        config = tmp_path / "run.json"
        config.write_text(text)
        code, out, err = run_cli(capsys, "geodesic", "--config", str(config))
        assert code == 2
        assert out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize("cmd, config, flags", [
        ("geodesic", {"r": "0.5"}, ["--r", "0.5"]),
        ("geodesic", {"fn": 1, "command": "metric"}, []),
        ("geodesic", {"tau-min": -1, "n": 5}, ["--tau-min", "-1", "--n", "5"]),
        ("complexity", {"r": 0.5}, ["--r", "0.5"]),
        ("complexity", {"r": [0.3, 0.7]}, ["--r", "0.3", "--r", "0.7"]),
        ("metric", {"dim": 4, "sigma-x": 2}, ["--dim", "4", "--sigma-x", "2"]),
    ])
    def test_config_values_parse_like_flags(self, capsys, tmp_path, cmd, config, flags):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        from_config = run_cli(capsys, cmd, "--config", str(path))
        from_flags = run_cli(capsys, cmd, *flags)
        assert from_config[0] == from_flags[0] == 0
        assert from_config[1] == from_flags[1]

    @pytest.mark.parametrize("cmd, config, flags", [
        # an abbreviated flag is as explicit as the full one
        ("geodesic", {"tau-max": 1.0}, ["--tau-ma", "2", "--n", "3"]),
        # an explicit repeatable flag replaces the config's list
        ("complexity", {"r": [0.3, 0.7]}, ["--r", "0.5"]),
    ])
    def test_explicit_flags_beat_config(self, capsys, tmp_path, cmd, config, flags):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        with_config = run_cli(capsys, cmd, "--config", str(path), *flags)
        from_flags = run_cli(capsys, cmd, *flags)
        assert with_config[0] == from_flags[0] == 0
        assert with_config[1] == from_flags[1]

    def test_flags_override_invalid_config_value(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"n": 5.0, "format": "xml"}))
        code, out, _ = run_cli(
            capsys, "geodesic", "--config", str(config), "--n", "3",
            "--format", "csv",
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + 3

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_csv_uses_17_significant_digits(self, capsys):
        _, out, _ = run_cli(
            capsys, "geodesic", "--n", "5", "--tau-min", "-1", "--tau-max", "1",
            "--format", "csv",
        )
        # values round-trip exactly through the printed representation
        for line in out.strip().split("\n")[1:]:
            for field in line.split(","):
                assert float(field) == float(format(float(field), ".17g"))

    @pytest.mark.parametrize("cmd", ["jacobi", "prolongation"])
    def test_csv_warns_of_the_fields_it_omits(self, capsys, cmd):
        _, out, err = run_cli(capsys, cmd, "--n", "5")
        payload = json.loads(out)
        extras = [k for k in payload if k not in ("columns", "rows", "warnings")]
        assert extras and payload["warnings"] == [] and err == ""
        code, _, err = run_cli(capsys, cmd, "--n", "5", "--format", "csv")
        assert code == 0
        (line,) = err.splitlines()
        match = re.fullmatch(r"warning: OmittedFieldsWarning: CSV output omits the fields "
                             r"(.*); --format json writes them", line)
        assert match[1].split(", ") == extras

    def test_each_cli_warning_has_its_own_category(self, capsys, monkeypatch):
        # the complexity truncation, the prolongation bound, failed round-trips
        # and the CSV extras; stderr names the category of each
        r_from_potential = scattering.r_from_potential
        monkeypatch.setattr(scattering, "r_from_potential",
                            lambda cfg, V: r_from_potential(cfg, V) + 1e-6)
        runs = [("complexity", "--tau-min", "1", "--tau-max", "200", "--n", "6"),
                ("scatter", "--a-s", "1e-3"),
                ("jacobi", "--n", "5", "--format", "csv")]
        categories = [line.split(": ")[1] for argv in runs
                      for line in run_cli(capsys, *argv)[2].splitlines()]
        assert [c for c in categories if c != "RegimeWarning"] == [
            "TruncationWarning", "ProlongationBoundWarning", "RoundTripWarning",
            "OmittedFieldsWarning"]
        for name in categories:
            assert issubclass(getattr(errors, name), errors.CountedWarning)


class TestReadmeSweeps:
    """The README's replacements for the former experiment scripts."""

    @pytest.mark.parametrize("r", ["0", "0.2", "0.5"])
    def test_collision_profiles(self, capsys, tmp_path, r):
        path = tmp_path / f"profile_r{r}.csv"
        code, _, _ = run_cli(
            capsys, "geodesic", "--r", r, "--tau-min", "-2", "--tau-max", "2",
            "--n", "321", "--format", "csv", "--out", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "tau,mu1,mu2,sigma"
        assert len(lines) == 1 + 321  # the grid already holds tau = 0
        assert all(len(line.split(",")) == 4 for line in lines[1:])

    @pytest.mark.parametrize("sigma0", ["0.1", "0.03", "0.01"])
    def test_entanglement_duration(self, capsys, tmp_path, sigma0):
        code, out, _ = run_cli(
            capsys, "prolongation", "--sigma0", sigma0, "--r-max", "0", "--n", "1",
        )
        assert code == 0
        r_bound = json.loads(out)["r_bound"]
        path = tmp_path / "duration.csv"
        code, _, _ = run_cli(
            capsys, "prolongation", "--sigma0", sigma0,
            "--r-max", repr(0.995 * r_bound), "--n", "200",
            "--format", "csv", "--out", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "r,delta_approx,delta_exact,flagged"
        assert len(lines) == 1 + 200
        ic = InitialConditions(p0=1.0, sigma0=float(sigma0))
        for line in lines[1:]:
            r, approx, exact, flagged = line.split(",")
            expected = scattering.prolongation(ic, float(r)).flagged
            assert flagged == str(int(expected))
            assert math.isnan(float(exact)) == expected
            assert math.isnan(float(approx)) == expected

    def test_loosest_packets_end_in_flagged_rows(self, capsys):
        # at sigma0/p0 = 0.1 the exact thresholds sit below 0.995 r_bound, so
        # the README sweep ends in flagged rows
        bound = scattering.prolongation(InitialConditions(1.0, 0.1), 0.0).r_bound
        code, out, _ = run_cli(
            capsys, "prolongation", "--sigma0", "0.1", "--r-max", repr(0.995 * bound),
            "--n", "200", "--format", "csv",
        )
        assert code == 0
        assert [line[-1] for line in out.splitlines()[-3:]] == ["0", "1", "1"]

    def test_verify_table(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--only", "scattering")
        assert code == 0
        assert json.loads(out)["passed"] is True
        table = err.splitlines()
        assert table and all(line.startswith("[PASS] scattering/") for line in table)
