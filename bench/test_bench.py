"""Tests of the benchmark itself: inputs, output checks, tracing.

    python3 -m pytest bench/test_bench.py

The negative controls feed corrupted program output through the same
`runners.measure` path the workloads use and require the op to count as
failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import runners  # noqa: E402
import workloads as wl  # noqa: E402
from run import tail  # noqa: E402
from spans import NullTracer, Tracer, parse_importtime  # noqa: E402


@pytest.fixture
def table_runner(tmp_path):
    return runners.TableRunner(NullTracer(), tmp_path / "out.txt")


def _first_decks(workload, seed, n=3):
    it = wl.decks(workload, seed)
    return [next(it) for _ in range(n)]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_decks_repeat_for_a_seed_and_differ_across_seeds(workload):
    assert _first_decks(workload, 7) == _first_decks(workload, 7)
    if workload != "verify_battery":  # the battery takes no inputs
        assert _first_decks(workload, 7) != _first_decks(workload, 8)


def test_decks_hold_every_kind_once():
    for d in _first_decks("cli_session", 3):
        assert sorted(op["cmd"] for op in d) == sorted(wl.SESSION_OPS)
    for d in _first_decks("sweep_tables", 3):
        assert sorted((op["cmd"], op["fmt"]) for op in d) == sorted(wl.SWEEP_KINDS)
    lo, hi = wl.SWEEP_ROWS
    assert all(lo <= rows <= hi for rows in wl.SWEEP_KINDS.values())


def test_prolongation_sweeps_run_past_the_bound():
    for d in _first_decks("sweep_tables", 5, n=4):
        for op in d:
            if op["cmd"] == "prolongation":
                assert op["p"]["r_max"] > wl.r_bound(op["p"])


def _small_ops():
    rng = wl.rng_for("cli_session", 11)
    ops = [wl.SESSION_OPS[name](rng, fmt) for name in wl.SESSION_OPS
           for fmt in ("csv", "json")]
    return ops + [wl.metric_op(rng, "csv") for _ in range(4)]


@pytest.mark.parametrize("op", _small_ops(), ids=wl.describe)
def test_checker_accepts_program_output(table_runner, op):
    stats = runners.Stats()
    res = runners.measure(table_runner, op, stats)
    assert stats.failures == []
    assert res is not None and res[1] >= 1


def _corrupt_last_row(text: str) -> str:
    # bump the last number of the last data row by one part in 10^6
    lines = text.rstrip("\n").split("\n")
    head, _, last = lines[-1].rpartition(",")
    lines[-1] = f"{head},{float(last) * (1 + 1e-6)!r}"
    return "\n".join(lines) + "\n"


def test_corrupted_value_counts_as_failed(table_runner):
    op = wl.geodesic_op(wl.rng_for("sweep_tables", 3), "csv", 200)
    _, text = table_runner(op)
    stats = runners.Stats()
    assert runners.measure(lambda _op: (0.1, text), op, stats) is not None
    assert stats.failed_frac == 0.0
    assert runners.measure(lambda _op: (0.1, _corrupt_last_row(text)), op, stats) is None
    assert stats.failed == 1 and stats.failed_frac == 0.5
    assert "sigma" in stats.failures[0]["error"]


def test_csv_row_with_a_missing_field_counts_as_failed(table_runner):
    op = wl.jacobi_op(wl.rng_for("sweep_tables", 5), "csv", 50)
    _, text = table_runner(op)
    lines = text.split("\n")
    lines[3] = lines[3].partition(",")[0]
    stats = runners.Stats()
    runners.measure(lambda _op: (0.1, "\n".join(lines)), op, stats)
    runners.measure(lambda _op: (0.1, text.rstrip("\n")), op, stats)  # no final newline
    assert stats.failed == 2
    assert "fields per row" in stats.failures[0]["error"]


def test_corrupted_json_and_flags_count_as_failed(table_runner):
    op = wl.prolongation_op(wl.rng_for("sweep_tables", 4), "json", 50)
    _, text = table_runner(op)
    payload = json.loads(text)
    flagged = [row for row in payload["rows"] if row["flagged"]]
    assert flagged, "the sweep must run past r_bound"
    flagged[-1]["flagged"] = 0
    stats = runners.Stats()
    runners.measure(lambda _op: (0.1, json.dumps(payload)), op, stats)
    runners.measure(lambda _op: (0.1, text[:-20]), op, stats)  # truncated output
    assert stats.failed == 2 and stats.failed_frac == 1.0


def test_failed_battery_check_counts_as_failed():
    checks = [{"name": g, "group": g, "passed": True} for g in check.BATTERY_GROUPS]
    op = {"cmd": "battery", "fmt": "json", "p": {}}
    stats = runners.Stats()
    runners.measure(lambda _op: (1.0, {"passed": True, "checks": checks}), op, stats)
    checks[0] = dict(checks[0], passed=False)
    runners.measure(lambda _op: (1.0, {"passed": True, "checks": checks}), op, stats)
    assert stats.failed == 1


def test_raising_op_counts_as_failed():
    def boom(_op):
        raise OverflowError("math range error")

    stats = runners.Stats()
    assert runners.measure(boom, wl.jacobi_op(wl.rng_for("cli_session", 1), "csv"),
                           stats) is None
    assert stats.failures[0]["error"].startswith("OverflowError")


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(100))
    assert tail(values) == (89, 90.0)
    assert tail(list(range(15))) == (7, 50.0)


def test_parse_importtime():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |        120 |   gaussgeo.errors\n"
        "import time:      3000 |     176203 | gaussgeo\n"
    )
    assert parse_importtime(text) == {"gaussgeo.errors": 120e-6, "gaussgeo": 0.176203}


def test_counters_wrap_scipy_and_oracle_names_and_restore_them():
    import scipy.integrate as si

    from gaussgeo import geodesics, oracle
    from gaussgeo.models import ModelParams

    originals = (si.solve_ivp, si.quad, oracle.solve_ivp, oracle.quad)
    tracer = Tracer()
    tracer.install_counters()
    try:
        ic = geodesics.InitialConditions(1.0, 0.1, 1.0, 10.0)
        with tracer.span("igc") as rec:
            oracle.igc_numeric(0.5, ModelParams(0.3), ic)
        oracle.geodesic_integrate(ModelParams(0.5), ic, (-1.0, 1.0))
    finally:
        tracer.remove_counters()
    assert (si.solve_ivp, si.quad, oracle.solve_ivp, oracle.quad) == originals
    assert rec["counts"]["quad_neval"] == tracer.counts["quad_neval"] > 0
    assert tracer.counts["solve_ivp_nfev"] > 0
    assert tracer.self_times()["igc"][0] == 1
