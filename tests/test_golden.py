"""Golden output of the four table commands (geodesic, jacobi, complexity,
prolongation) and of the ``metric``, ``curvature`` and ``scatter`` records
in CSV and JSON.

Each file under ``tests/golden`` is the stdout of ``gaussgeo <argv> --format
<fmt>`` for one case of `CASES`, as written by the row-at-a-time CLI that
evaluated every closed form with the ``math`` module. The comparison is
byte for byte on everything except computed floats: headers, keys, layout,
row counts, integer fields and the ``nan``/``NaN`` tokens.

Floats are compared to within `ULPS` units in the last place. numpy's
``tanh``/``cosh``/``sinh``/``arctanh``/``log`` may differ from ``math``'s by
up to 2 ulps on a sizeable share of inputs, so array code cannot reproduce
the scalar bytes exactly. Three columns subtract nearly equal quantities
and so turn those ulps of their inputs into many ulps of their own; for
them the ulp is taken of the largest term of the subtraction (`_scale`):

* ``igc``: the bracket -3/4 lam + sinh(lam tau)/(4 tau) + tanh(lam tau/2)/tau
  cancels to O((lam tau)^5) at small lam tau;
* ``ige_gap``: the difference of the correlated and flat entropies, each of
  size lam tau - ln(lam tau);
* ``delta_exact``: tau_star - tau0 with tau_star = artanh(...)/A0.

The records (`RECORD_CASES`) are compared byte for byte, floats and JSON
warnings included: the closed forms behind them are unchanged since the
fixtures were written, so any difference is a change of the program's
arithmetic or of its report.

JSON warnings are compared per kind: a kind may be reported as several
messages or as one message that carries the count ("at N of M elements"),
and the counts must agree.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from gaussgeo import cli

GOLDEN = Path(__file__).parent / "golden"

#: Tolerance on computed floats, in units in the last place.
ULPS = 4

CASES = {
    # a tau grid that straddles 0 without containing it: the CLI inserts 0
    "geodesic_straddle": ["geodesic", "--r", "0.5", "--p0", "1.7", "--sigma0",
                          "0.02", "--tau0", "0.8", "--tau-min", "-2",
                          "--tau-max", "2.1", "--n", "40"],
    # |A0 tau| beyond the 700 clamp at both ends
    "geodesic_clamp": ["geodesic", "--r", "0.3", "--tau-min", "-400",
                       "--tau-max", "300", "--n", "15"],
    "jacobi": ["jacobi", "--tau-max", "5", "--n", "51"],
    # A0 tau_max < 5: the Lyapunov estimate warns
    "jacobi_short": ["jacobi", "--omega0", "2.5", "--tau-max", "1.5", "--n", "31"],
    # lambda tau < 5 on the first rows: the entropy warns per element
    "complexity_two_r": ["complexity", "--r", "0.3", "--r", "0.7", "--tau-min",
                         "0.1", "--tau-max", "2", "--n", "20"],
    # lambda tau passes the overflow guard: the table is truncated
    "complexity_truncated": ["complexity", "--r", "0.2", "--r", "0.6",
                             "--tau-min", "0.5", "--tau-max", "200", "--n", "25"],
    # r_bound ~ 0.0199: the upper rows are flagged with NaN prolongations
    "prolongation_past_bound": ["prolongation", "--r-min", "0", "--r-max",
                                "0.03", "--n", "31"],
}

#: Record commands, pinned byte for byte.
RECORD_CASES = {
    "curvature_s1_r07": ["curvature", "--sigma", "1", "--r", "0.7"],
    "curvature_s01_r03": ["curvature", "--sigma", "0.1", "--r", "0.3"],
    "curvature_s2e3_r05": ["curvature", "--sigma", "2e3", "--r", "0.5"],
    "metric_s05_r03": ["metric", "--sigma", "0.5", "--r", "0.3"],
    "metric_dim4_r03": ["metric", "--dim", "4", "--sigma-x", "0.5", "--sigma-y", "2",
                        "--r", "0.3"],
    # r_QM ~ 0.04 is past the prolongation bound ~ 0.0198: NaN and one warning
    "scatter_as1e-5": ["scatter", "--a-s", "1e-5"],
    # r_QM ~ 0.4 also strains the perturbative regime: two warnings
    "scatter_as1e-3": ["scatter", "--a-s", "1e-3"],
    # non-default mu and hbar reach the kinetic energy; finite prolongation
    "scatter_k07_mu08": ["scatter", "--k0", "0.7", "--sigma-k0", "0.05", "--L", "0.2",
                         "--R0", "20", "--a-s", "5e-7", "--mu", "0.8", "--hbar", "1.3"],
}

#: Float literal of CSV (%.17g) or JSON (float repr); a bare integer or the
#: nan/NaN/Infinity tokens are left in the skeleton.
FLOAT_RE = re.compile(r"(?<![\w.])-?\d+(?:\.\d+(?:e[+-]?\d+)?|e[+-]?\d+)")

WARNING_KINDS = {
    "clamped to": "saturation",
    "asymptotic entropy form": "ige_regime",
    "before the asymptotic regime": "lyapunov_regime",
    "remaining rows truncated": "truncation",
}
COUNT_RE = re.compile(r"\bat (\d+) of \d+ elements\b")


def _run(capsys, argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def _case_constants(argv):
    """A0 and tau0 of a case, from its flags or the CLI defaults."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    p0 = float(flags.get("--p0", 1.0))
    sigma0 = float(flags.get("--sigma0", 0.1))
    tau0 = float(flags.get("--tau0", 1.0))
    return math.asinh(p0 / (math.sqrt(2.0) * sigma0)) / tau0, tau0


def _scale(cmd, column, row, A0, tau0):
    """Magnitude whose ulp bounds the error of ``row[column]``."""
    value = row[column]
    if (cmd, column) == ("complexity", "igc"):
        lam, tau = 2.0 * A0, row["tau"]
        terms = max(0.75 * lam, 0.25 * math.sinh(lam * tau) / tau,
                    math.tanh(0.5 * lam * tau) / tau)
        bracket = value * lam / (4.0 * math.sqrt((1.0 - row["r"]) / (1.0 + row["r"])))
        return abs(value) * (terms / abs(bracket))
    if (cmd, column) == ("complexity", "ige_gap"):
        return max(abs(row["ige"]), abs(row["ige"] - value))
    if (cmd, column) == ("prolongation", "delta_exact"):
        return abs(value) + tau0
    return abs(value)


def _rows(text, fmt):
    """Columns and rows (dicts of floats) of a table, plus the JSON payload."""
    if fmt == "csv":
        header, *lines = text.rstrip("\n").split("\n")
        columns = header.split(",")
        rows = [dict(zip(columns, map(float, line.split(",")))) for line in lines]
        return columns, rows, {}
    payload = json.loads(text)
    return payload["columns"], payload["rows"], payload


def _warning_counts(messages):
    counts = {}
    for msg in messages:
        kinds = [k for pattern, k in WARNING_KINDS.items() if pattern in msg]
        assert len(kinds) == 1, f"unclassified warning {msg!r}"
        match = COUNT_RE.search(msg)
        counts[kinds[0]] = counts.get(kinds[0], 0) + (int(match[1]) if match else 1)
    return counts


def _assert_matches_golden(cmd, argv, got, want, fmt):
    if fmt == "json":
        # the warnings list is the last key; it is compared per kind below
        got_body, _, _ = got.partition('\n  "warnings": ')
        want_body, _, _ = want.partition('\n  "warnings": ')
    else:
        got_body, want_body = got, want
    assert FLOAT_RE.sub("#", got_body) == FLOAT_RE.sub("#", want_body)

    A0, tau0 = _case_constants(argv)
    columns, got_rows, got_payload = _rows(got, fmt)
    _, want_rows, want_payload = _rows(want, fmt)
    assert len(got_rows) == len(want_rows)
    for i, (g, w) in enumerate(zip(got_rows, want_rows)):
        for c in columns:
            if math.isnan(w[c]):
                assert math.isnan(g[c]), (i, c)
                continue
            tol = ULPS * np.spacing(_scale(cmd, c, w, A0, tau0))
            assert abs(g[c] - w[c]) <= tol, (i, c, g[c], w[c])
    if fmt == "json":
        for key in want_payload:
            if key in ("columns", "rows", "warnings"):
                continue
            assert abs(got_payload[key] - want_payload[key]) <= ULPS * np.spacing(
                abs(want_payload[key])), key
        assert _warning_counts(got_payload["warnings"]) == _warning_counts(
            want_payload["warnings"])


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_table_matches_golden(capsys, name, fmt):
    argv = CASES[name] + ["--format", fmt]
    want = (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
    got = _run(capsys, argv)
    _assert_matches_golden(argv[0], argv, got, want, fmt)
    assert _run(capsys, argv) == got  # reruns are byte-identical


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(RECORD_CASES))
def test_record_matches_golden_bytes(capsys, name, fmt):
    want = (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
    assert _run(capsys, RECORD_CASES[name] + ["--format", fmt]) == want
