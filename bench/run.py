"""gaussgeo benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S
    python3 bench/run.py compare RESULTS_A RESULTS_B

Run from the repository root. W is one of cli_session, sweep_tables and
verify_battery (see workloads.py); ``all`` runs the three in turn. Every
op's output is checked against the paper's closed forms (check.py).

Untraced (``--trace 0``), one worker process runs as many whole decks of
ops as take S seconds on the machine in bench/README.md, and
SETUP_SAMPLES - 1 further fresh workers only set up; the report gives the
end-to-end metrics. Op and set-up times are rescaled by the workload's
reference kernel (runners.py) to the speed of that machine. Traced
(``--trace 1``), one worker alternates traced and untraced ops, then runs
the per-layer probes; the report gives the per-layer metrics and the
tracing overhead. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``compare`` is report-only: see compare.py.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One caller keeps one core busy. With OpenBLAS's default of one thread per
# core, its threads kept spinning on the second core after the battery's
# BLAS calls and slowed whatever ran next, the reference kernels included,
# by 1.5x-2x, by an amount that changed with the host's load. Workers and
# the CLI processes inherit this setting; set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import runners  # noqa: E402
from runners import rescaled  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "gaussgeo"
OUT = ROOT / ".bench_out"

#: Fresh processes whose set-up is timed per run; set-up_s is their median.
SETUP_SAMPLES = 3
#: The tail percentile is the highest with at least this many samples beyond it.
TAIL_BEYOND = 10
#: Seconds a worker may take beyond its measuring time before it is killed.
WORKER_GRACE = 120

END_TO_END_UNITS = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "rows_per_s": "rows/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


#: What ``rows_per_s`` counts. It is defined for sweep_tables; BENCHMARK.json
#: asks for every end-to-end metric on every workload, so the other two
#: count their ops' output rows too.
ROW_UNITS = {
    "cli_session": "rows (table rows, 1 per record command, checks of verify)",
    "sweep_tables": "table rows",
    "verify_battery": "checks",
}


def tail(values) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples beyond.

    With fewer than 2 * TAIL_BEYOND + 1 samples that percentile would sit
    below the median, so the median is returned instead.
    """
    xs = sorted(values)
    n = len(xs)
    i = n - 1 - TAIL_BEYOND
    if i < (n - 1) // 2:
        return statistics.median(xs), 50.0
    return xs[i], 100.0 * (i + 1) / n


def spawn(workload, seed, seconds, trace=0, setup_only=False) -> dict:
    """Run one worker; its result gains ``spawn_ref_s``, the kernel time just before."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds)),
           "--trace", str(trace), "--out-dir", str(OUT)]
    if setup_only:
        cmd.append("--setup-only")
    ref = runners.reference_time(workload)
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=seconds + WORKER_GRACE)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["spawn_ref_s"] = ref
    return result


def machine() -> str:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    versions = ", ".join(f"{pkg} {importlib.metadata.version(pkg)}"
                         for pkg in ("numpy", "scipy"))
    return (f"{cpu}, nproc {os.cpu_count()}, Python {platform.python_version()}, "
            f"{versions}")


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_untraced(workload, seed, seconds) -> tuple[dict, int, int]:
    # set-up-only workers on either side of the measuring one even out drift
    before = [spawn(workload, seed, 0, setup_only=True)
              for _ in range((SETUP_SAMPLES - 1) // 2)]
    main = spawn(workload, seed, seconds)
    after = [spawn(workload, seed, 0, setup_only=True)
             for _ in range(SETUP_SAMPLES - 1 - len(before))]
    workers = before + [main] + after
    setups = [rescaled(workload, w["setup_s"], (w["spawn_ref_s"] + w["setup_ref_s"]) / 2)
              for w in workers]
    samples = main["samples"]
    if not samples:
        raise RuntimeError(f"{workload}: no op succeeded")
    times = [rescaled(workload, t, ref) for _, t, _, ref, _ in samples]
    rows = sum(s[2] for s in samples)
    attempted = sum(w["attempted"] for w in workers)
    failures = [f for w in workers for f in w["failures"]]
    n = len(times)
    tail_value, tail_pct = tail(times)
    metrics = {
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        "rows_per_s": rows / sum(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    notes = {
        "op_p50_s": f"n={n}",
        "op_tail_s": f"n={n}, p{tail_pct:.0f}",
        "rows_per_s": f"n={n}, {rows} {ROW_UNITS[workload]}",
        "setup_s": f"n={len(setups)}, median of fresh processes",
        "peak_rss_mb": "n=1, " + ("peak of the CLI processes" if workload == "cli_session"
                                  else "worker process"),
    }
    print(f"== {workload}: seed {seed}, {main['seconds']:.1f} s measured, "
          f"{main['decks']} decks, one caller (closed loop)")
    refs = [s[3] for s in samples]
    print(f"  raw wall clock: op p50 {statistics.median(s[1] for s in samples):.4g} s, "
          f"setup {statistics.median(w['setup_s'] for w in workers):.4g} s; reference "
          f"kernel {1e3 * min(refs):.3g}..{1e3 * max(refs):.3g} ms "
          f"(rescaled to {1e3 * runners.REFERENCES[workload][1]:g} ms)")
    for name, value in metrics.items():
        unit = END_TO_END_UNITS[name]
        print(f"  {name:<14} {_fmt(value):>12} {unit:<7} {notes[name]}")
    print(f"  {'failed_frac':<14} {_fmt(len(failures) / attempted):>12} {'':<7} "
          f"{len(failures)} of {attempted} attempted")
    _print_failures(failures)
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
            attempted, len(failures))


def run_traced(workload, seed, seconds) -> tuple[dict, int, int]:
    res = spawn(workload, seed, seconds, trace=1)
    plain = [rescaled(workload, t, ref) for _, t, _, ref, on in res["samples"] if not on]
    traced = [rescaled(workload, t, ref) for _, t, _, ref, on in res["samples"] if on]
    if not plain or not traced:
        raise RuntimeError(f"{workload}: too few ops to compare traced and untraced")
    base = statistics.median(plain)
    overhead = statistics.median(traced) - base
    layers = dict(res["layers"])
    layers["trace.overhead_s"] = (overhead, "s")
    layers["trace.overhead_frac"] = (overhead / base, "frac")
    print(f"== {workload}: seed {seed}, traced run, {len(plain)} untraced and "
          f"{len(traced)} traced ops; spans in {res['trace_file']}")
    print(f"  tracing overhead: {overhead * 1e3:+.3f} ms per op "
          f"({100 * overhead / base:+.2f}% of the untraced median {base:.4g} s)")
    for name, (value, unit) in layers.items():
        print(f"  {name:<40} {_fmt(value):>12} {unit}")
    print("  top spans by self time (calls, total s, self s):")
    top = sorted(res["self_times"].items(), key=lambda kv: -kv[1][2])[:12]
    for name, (calls, total, self_s) in top:
        print(f"    {name:<44} {calls:>6} {total:>10.4f} {self_s:>10.4f}")
    _print_failures(res["failures"])
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    return metrics, res["attempted"], len(res["failures"])


def _print_failures(failures) -> None:
    for f in failures:
        print(f"  FAILED: {f['op']}: {f['error']}")


def _finite(metrics) -> bool:
    """Replace non-finite values, which JSON cannot carry, by null; False if any."""
    ok = True
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            m["value"] = None
            ok = False
    return ok


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no gaussgeo sources under {PACKAGE}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(PACKAGE), quiet=1):
        print("error: gaussgeo sources do not compile", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    print(f"machine: {machine()}")
    run = run_traced if args.trace else run_untraced
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, a, f = run(name, args.seed, args.seconds)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += a
        failed += f
    finite = _finite(metrics)
    result = {"correct": failed == 0 and finite, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
