"""Execute benchmark ops against gaussgeo, time them and check their output.

Each runner times only the call into the program; reading the output back
and checking it happen outside the timed region. A runner takes a tracer
(`spans.Tracer` or `spans.NullTracer`) and wraps each call into a layer in
a span named after that layer's entry point.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class OpError(Exception):
    """An op exited non-zero or raised."""


def program_env() -> dict:
    """Environment for a fresh interpreter that imports gaussgeo from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class SessionRunner:
    """One fresh ``python -m gaussgeo.cli`` process per op."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.env = program_env()

    def __call__(self, op):
        cmd = [sys.executable, "-m", "gaussgeo.cli", *workloads.argv(op)]
        with self.tracer.span(f"cli.process:{op['cmd']}"):
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  env=self.env, timeout=120)
            dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise OpError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return dt, proc.stdout


class TableRunner:
    """In-process ``cli.main([..., '--out', path])``; warnings go to devnull."""

    def __init__(self, tracer, out_path):
        from gaussgeo import cli

        self.main = cli.main
        self.tracer = tracer
        self.out = str(out_path)

    def __call__(self, op):
        args = workloads.argv(op) + ["--out", self.out]
        with open(os.devnull, "w") as devnull, contextlib.redirect_stderr(devnull):
            with self.tracer.span(f"cli.main:{op['cmd']}"):
                t0 = time.perf_counter()
                rc = self.main(args)
                dt = time.perf_counter() - t0
        if rc != 0:
            raise OpError(f"cli.main returned {rc}")
        return dt, Path(self.out).read_text(encoding="utf-8")


class BatteryRunner:
    """The full ``oracle.run_verification()`` battery in this process.

    The battery is one call, so its span ``run_verification:all`` covers
    every group; ``last`` keeps the `CheckResult` list of the latest call,
    whose per-check seconds give the per-group times.
    """

    def __init__(self, tracer):
        from gaussgeo import oracle

        self.run_verification = oracle.run_verification
        self.tracer = tracer
        self.last = []

    def __call__(self, op):
        with self.tracer.span("run_verification:all"):
            t0 = time.perf_counter()
            results = self.run_verification()
            dt = time.perf_counter() - t0
        self.last = results
        return dt, {"passed": all(r.passed for r in results),
                    "checks": [r.as_dict() for r in results]}


def make_runner(workload, tracer, out_path):
    if workload == "cli_session":
        return SessionRunner(tracer)
    if workload == "sweep_tables":
        return TableRunner(tracer, out_path)
    return BatteryRunner(tracer)


# ---------------------------------------------------------------------------
# reference kernels
#
# On a shared host the speed this process gets can change by 1.3x-2.5x
# within seconds, for minutes at a time. Each workload therefore has a
# reference kernel that does the same kind of work as its ops with code no
# change to gaussgeo can alter (stdlib, numpy, scipy only). The kernel runs
# between ops, and each op's time is rescaled by the kernel's time around
# it: t * REF_SECONDS / kernel. Over ten runs the rescaled op medians spread
# a third to a half of the raw ones. The kernels only track the ops with
# OpenBLAS held to one thread (run.py): with its threads spinning after the
# battery, the numeric kernel ran 2x slower between batteries than on its
# own, for half an hour at a time, and rescaled battery times fell from
# 0.96 to 0.55 s.
# ---------------------------------------------------------------------------

def _startup_kernel() -> None:
    # cold start: a fresh interpreter that imports numpy
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True, timeout=60)


def _numeric_kernel() -> None:
    # small-array numpy in Python loops and an adaptive ODE, as in the oracle
    import numpy as np
    from scipy.integrate import solve_ivp

    G = np.sin(np.arange(27.0)).reshape(3, 3, 3)
    R = 0.01 * np.cos(np.arange(81.0)).reshape(3, 3, 3, 3)

    def rhs(t, y):
        v = np.array([math.cos(t), math.sin(t), 0.5])
        acc = (-0.01 * np.einsum("abc,b,c->a", G, y[3:], v)
               - np.einsum("abcd,b,c,d->a", R, v, y[:3], v))
        return np.concatenate([y[3:], acc])

    for _ in range(4):
        solve_ivp(rhs, (0.0, 12.0), np.ones(6), rtol=1e-8, atol=1e-10)
    nodes, weights = np.polynomial.hermite.hermgauss(30)
    g = np.zeros((3, 3))
    for wi, zi in zip(weights, nodes):
        for wj, zj in zip(weights, nodes):
            s = np.array([zi - zj, zi + zj, zi * zj - 1.0])
            g += (wi * wj) * np.outer(s, s)


def _stdlib_kernel() -> None:
    # float math, formatting, dicts and JSON on a table-sized heap, as in
    # table output; the collector stays on, as it does for the ops
    rows = [{"a": math.tanh(i * 1e-4), "b": math.cosh(i * 1e-4),
             "c": format(math.sqrt(1.0 + i * 1e-4), ".17g")} for i in range(20000)]
    json.dumps(rows)


#: workload: (kernel, REF_SECONDS). REF_SECONDS is about the kernel's time
#: on the machine in bench/README.md, so rescaled times stay close to that
#: machine's seconds.
REFERENCES = {
    "cli_session": (_startup_kernel, 0.12),
    "sweep_tables": (_stdlib_kernel, 0.08),
    "verify_battery": (_numeric_kernel, 0.03),
}


def reference_time(workload: str) -> float:
    """Seconds the workload's reference kernel takes now."""
    t0 = time.perf_counter()
    REFERENCES[workload][0]()
    return time.perf_counter() - t0


def rescaled(workload: str, seconds: float, ref: float) -> float:
    """``seconds`` measured while the kernel took ``ref``, at the reference speed."""
    return seconds * REFERENCES[workload][1] / ref


class Stats:
    """Attempted ops and the failures among them."""

    def __init__(self):
        self.failures: list[dict] = []
        self.attempted = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def measure(runner, op, stats: Stats):
    """Run, check and record one op; returns (seconds, rows), or None if it failed.

    An op fails if it exits non-zero, raises, or writes output that does
    not parse or disagrees with `check`.
    """
    stats.attempted += 1
    try:
        dt, output = runner(op)
        if op["cmd"] == "battery":
            rows = check.check_battery(output)
        else:
            rows = check.check_output(op, output)
    except (OpError, check.CheckError, subprocess.TimeoutExpired) as exc:
        stats.failures.append({"op": workloads.describe(op), "error": str(exc)})
        return None
    except Exception as exc:  # a raising op is a failed op, not a crashed run
        stats.failures.append({"op": workloads.describe(op),
                               "error": f"{type(exc).__name__}: {exc}"})
        return None
    return dt, rows
