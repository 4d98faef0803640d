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

    @pytest.mark.parametrize("argv, named", [
        (["--sigma", "1e60"], "--sigma 1e+60"),    # determinant underflows to 0
        (["--sigma", "1e200"], "--sigma 1e+200"),  # an all-zero matrix
        (["--dim", "4", "--sigma-x", "1e100", "--sigma-y", "1e100"],
         "--sigma-x 1e+100, --sigma-y 1e+100"),    # determinant underflows to 0
        (["--sigma", "1e-60"], "--sigma 1e-60"),   # determinant overflows
        (["--sigma", "1e50"], None),
        (["--sigma", "1e-50"], None),
        (["--sigma", "1e-52"], "--sigma 1e-52"),   # determinant rounds to inf
        (["--dim", "4", "--sigma-x", "1e-40", "--sigma-y", "1e-40"],
         "--sigma-x 1e-40, --sigma-y 1e-40"),      # determinant rounds to inf
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
            # the form refuses the spreads, or for the determinant their product, by name
            flags = dict(pair.split() for pair in named.split(", "))
            spreads = " * ".join(flag[2:].replace("-", "_") for flag in flags)
            got = re.escape(", ".join(flags.values()))
            assert re.fullmatch(rf"error: {re.escape(spreads)}{_RANGE}{got}\n", err), err

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


class TestTableGrids:
    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "jacobi", "--n", "1", "--format", "csv")
        assert code == 0
        assert out == "tau,intensity\n0,0\n"


class TestJacobiCommand:
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
        passed = [check.name != "inversions_roundtrip" for check in battery._CHECKS
                  if check.group == "scattering"]
        assert [c["passed"] for c in json.loads(out)["checks"]] == passed
        lines = err.splitlines()
        assert [line.startswith("[PASS]") for line in lines] == passed
        assert re.fullmatch(r"\[FAIL\] scattering/inversions_roundtrip: residual inf "
                            r"\(tolerance 1\.000e-10, \d+\.\d\ds\): DomainError: correlation "
                            r"must lie in \[0, 0\.999999999\), got -0\.18\d+",
                            lines[passed.index(False)])


class TestExtremeInput:
    """Extreme finite input that the forms can represent runs; REFUSED holds
    what is refused."""

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


_RANGE = r" must lie in \[\S+, \S+\] at this r, got "  # a form's refusal of a spread
_HUGE = "--p0 1.79e308 --sigma0 1.7e307"  # hypot(p0, sqrt(2) sigma0) overflows
_HUGE_AT = r"error: momentum scale sqrt\(p0\^2 \+ 2 sigma0\^2\) overflows \(at --p0 1\.79e\+308, "

#: (argv, config or None, pattern) of each refused input; a config is the text
#: of a file passed last as --config. The command's own error is one line, and
#: argparse's follows its usage; either matches the pattern in full
REFUSED = [
    # out of the domain, or not read: the spread of the dimension not chosen
    ("metric --r 1.5", None, r"error: correlation must lie in \[0, 0\.999999999\), got 1\.5"),
    ("metric --sigma inf", None, r"error: sigma must lie in \[1\.49e-154, 6\.7e\+153\] at "
     "this r, got inf"),
    ("jacobi --omega0 nan", None, "error: omega0 must be positive and finite, got nan"),
    ("scatter --sigma-k0 0.11", None,
     "error: sigma_k0/k0 = 0.11 exceeds the well-localized bound 0.1"),
    ("metric --sigma-x 2 --sigma-y 3", None, "error: --sigma-x 2: needs --dim 4"),
    ("metric --dim 4 --sigma 5", None, "error: --sigma 5: needs --dim 3"),
    ("metric", '{"sigma-y": 3}', "error: --sigma-y 3: needs --dim 4"),
    ("metric --dim 4", '{"sigma": 5}', "error: --sigma 5: needs --dim 3"),
    # a table grid that is empty, runs backwards, overflows or passes the guard
    *((f"{cmd} --n {n}", None, f"error: --n must be at least 1, got {n}")
      for cmd in ("geodesic", "jacobi", "complexity", "prolongation") for n in ("0", "-3")),
    ("geodesic --tau-min 1 --tau-max -1", None,
     r"error: tau grid must be increasing \(tau-max > tau-min\)"),
    *((f"{cmd} --{end}-min=-1e308 --{end}-max=1e308 --n 3", None,
       r"error: grid span from -1e\+308 to 1e\+308 overflows a float")
      for cmd, end in (("geodesic", "tau"), ("prolongation", "r"))),
    ("jacobi --tau-max 1000", None,
     r"error: \|A0\*tau\| = 2\.65e\+03 exceeds the overflow guard 700\.0"),
    # a spread past a form's range, which the form names; arithmetic that fails,
    # whose error names each numeric option off its default, from a flag or --config
    ("metric --sigma 1e-200", None, f"error: sigma{_RANGE}1e-200"),
    ("metric --dim 4 --sigma-x 1e-200", None, f"error: sigma_x{_RANGE}1e-200"),
    *((f"curvature --sigma {sigma}{r}", None,
       f"error: sigma{_RANGE}" + re.escape(f"{float(sigma):g}"))
      for sigma, r in [*((s, f" --r {r}") for s in ("1e77", "1e78", "1e-80")
                         for r in ("0", "0.5", "0.9")), ("1e-100", ""), ("1e80", ""),
                      ("8e-76", " --r 0.999999")]),
    (f"geodesic {_HUGE}", None, _HUGE_AT + r"--sigma0 1\.7e\+307\)"),
    (f"geodesic {_HUGE} --tau-min 0.5 --tau-max 1", None,
     _HUGE_AT + r"--sigma0 1\.7e\+307, --tau-min 0\.5, --tau-max 1\)"),
    ("scatter --k0 1e200", None, r"error: numerical result out of range \(at --k0 1e\+200\)"),
    ("scatter --sigma-k0 1e-200", None, r"error: math range error \(at --sigma-k0 1e-200\)"),
    ("scatter --L 1e-120", None, r"error: float division by zero \(at --L 1e-120\)"),
    ("scatter --a-s 1e-6", '{"L": 1e-120}',
     r"error: float division by zero \(at --L 1e-120, --a-s 1e-06\)"),
    # the battery checks a group against its own; it has no other input
    *((argv, config, "error: unknown check group 'bogus'; available: chaos, complexity, "
       "curvature, geodesics, models, oracle, scattering")
      for argv, config in (("verify --only bogus", None), ("verify", '{"only": "bogus"}'))),
    ("verify --only models --inject-fault bogus", None,
     "gaussgeo: error: unrecognized arguments: --inject-fault bogus"),
    *((f"verify --only oracle --tol-scale {scale}", None,
       f"gaussgeo: error: unrecognized arguments: --tol-scale {scale}")
      for scale in ("0", "-1", "nan", "inf")),
    # the initial separation reaches only the scatter record
    *((f"{cmd} --R0 20", None, "gaussgeo: error: unrecognized arguments: --R0 20")
      for cmd in ("geodesic", "jacobi", "complexity", "prolongation")),
    ("frobnicate", None,
     r"gaussgeo: error: argument command: invalid choice: 'frobnicate' \(choose from .+\)"),
    # a config file that is missing, or whose value its flag would refuse
    ("metric --config /nonexistent.json", None,
     r"error: \[Errno 2\] No such file or directory: '/nonexistent\.json'"),
    ("geodesic", '{"n": 5.0}', "gaussgeo geodesic: error: argument --n: invalid int value: '5.0'"),
    ("geodesic", '{"format": "xml"}',
     r"gaussgeo geodesic: error: argument --format: invalid choice: 'xml' \(choose from .+\)"),
    ("geodesic", '{"r": [0.3, 0.7]}',  # --r is not repeatable on geodesic
     r"gaussgeo geodesic: error: argument --r: invalid float value: '\[0\.3, 0\.7\]'"),
    ("geodesic", "not json",
     r"gaussgeo geodesic: error: --config \S+: Expecting value: line 1 column 1 \(char 0\)"),
    ("geodesic", "[1, 2]", r"gaussgeo geodesic: error: --config \S+: expected a JSON object"),
]


@pytest.mark.parametrize("argv, config, pattern", REFUSED, ids=[
    argv + (f" --config {config}" if config else "") for argv, config, _ in REFUSED])
def test_refused_input_exits_two(capsys, tmp_path, argv, config, pattern):
    argv = argv.split()
    if config is not None:
        (tmp_path / "run.json").write_text(config)
        argv += ["--config", str(tmp_path / "run.json")]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    *usage, last = err.splitlines()
    assert re.fullmatch(pattern, last), err
    assert usage[0].startswith("usage: ") if last.startswith("gaussgeo") else usage == []

def _source_env() -> dict:
    """The environment of a fresh interpreter that imports this source tree."""
    return dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))


def _python(*args):
    """A fresh interpreter run on this source tree."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=_source_env(), timeout=120, check=True)


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

    def test_commands_run_without_scipy(self, capsys):
        # a finder that refuses scipy, as an install without the oracle extra
        # does: verify, each of its groups and each other command exit 0 with
        # the bytes they print beside scipy, and gaussgeo.oracle fails to load,
        # naming the extra that installs scipy
        argvs = [["verify"], *(["verify", "--only", g] for g in battery.GROUPS),
                 *([command] for command in SUBPARSERS if command != "verify")]
        code = ("import io, json, sys\n"
                "from contextlib import redirect_stderr, redirect_stdout\n"
                "class NoScipy:\n"
                "    def find_spec(self, name, path=None, target=None):\n"
                "        if name.partition('.')[0] == 'scipy':\n"
                "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
                "sys.meta_path.insert(0, NoScipy())\n"
                "from gaussgeo import cli\n"
                "runs = []\n"
                f"for argv in {argvs!r}:\n"
                "    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):\n"
                "        runs.append([cli.main(argv), out.getvalue()])\n"
                "try:\n"
                "    import gaussgeo.oracle\n"
                "except ModuleNotFoundError as exc:\n"
                "    runs.append([exc.name, str(exc)])\n"
                "print(json.dumps(runs))\n")
        expected = [[0, run_cli(capsys, *argv)[1]] for argv in argvs]
        assert json.loads(_python("-c", code).stdout) == [*expected, [
            "scipy", "gaussgeo.oracle needs scipy, which the gaussgeo[oracle] extra installs"]]

    @pytest.mark.parametrize("group, solve", [
        ("geodesics", "geodesic_integrate(params, ic, (-1.0, 1.0))"),
        ("chaos", "jacobi_integrate(params, ic, 5.0)")], ids=["geodesics", "chaos"])
    def test_ode_oracle_loads_scipy_after_its_group(self, group, solve):
        # no check of the group integrates its ODE, so verify loads no scipy;
        # the oracle that does loads scipy.integrate with gaussgeo.oracle
        code = ("import io, sys; from contextlib import redirect_stdout; from gaussgeo import cli\n"
                "with redirect_stdout(io.StringIO()):\n"
                f"    assert cli.main(['verify', '--only', '{group}']) == 0\n"
                "print('scipy.integrate' in sys.modules)\n"
                "from gaussgeo import oracle; from gaussgeo.models import ModelParams\n"
                "from gaussgeo.geodesics import InitialConditions\n"
                "params, ic = ModelParams(0.5), InitialConditions(1.0, 0.1, 1.0, 10.0)\n"
                f"print(oracle.{solve}.max_rel_error < 1e-5, 'scipy.integrate' in sys.modules)")
        assert _python("-c", code).stdout.splitlines() == ["False", "True True"]

    def test_scipy_import_is_not_charged_to_a_check(self):
        # a cold run loads no scipy, so no check's clock holds its import
        err = _python("-m", "gaussgeo.cli", "verify").stderr
        seconds = re.findall(r"\[PASS\] \w+/\w+: .*, ([0-9.]+)s\)", err)
        assert len(seconds) == len(battery._CHECKS) and max(map(float, seconds)) < 0.3, err


class TestPlumbing:
    def test_reader_that_closes_early_is_no_error(self):
        # 1.6 MB of CSV, far past a pipe's buffer, so a write meets the closed pipe
        argv = ["-m", "gaussgeo.cli", "geodesic", "--n", "20000", "--format", "csv"]
        proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=_source_env())
        assert proc.stdout.readline() == b"tau,mu1,mu2,sigma\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b"")

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
