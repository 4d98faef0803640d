"""One fresh benchmark process for one workload.

Set-up is everything from the parent's spawn of this process to the first
timed op: interpreter start, imports, generating the inputs and one
untimed, checked warm-up op. The worker then runs a fixed number of whole
decks, as many as take ``--seconds`` on the machine in bench/README.md, so
a run's mix of ops does not depend on how fast the host happens to be, and
prints one JSON line with its samples. The
workload's reference kernel (`runners.reference_time`) runs between ops,
so each op carries the host's speed at the time it ran.

With ``--trace 1`` ops alternate between untraced and traced (spans and
work counters on), which gives the tracing overhead, and the per-layer
probes of `layers` run after the timed loop.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import runners  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

#: A slow host may stretch a run to this multiple of --seconds, no further.
WALL_CAP = 1.25


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="parent's time.monotonic() just before spawning")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)
    w = args.workload
    out_dir = Path(args.out_dir)
    table_path = out_dir / f"table_{os.getpid()}.out"

    tracer = Tracer() if args.trace else None
    plain = runners.make_runner(w, NullTracer(), table_path)
    traced = runners.make_runner(w, tracer, table_path) if tracer else None
    plan = workloads.decks(w, args.seed)
    decks = [next(plan) for _ in range(max(1, round(args.seconds / workloads.DECK_SECONDS[w])))]
    stats = runners.Stats()
    runners.measure(plain, workloads.warmup_op(w), stats)
    t_first = time.monotonic()
    ref = runners.reference_time(w)
    result = {"setup_s": t_first - args.spawned_at, "setup_ref_s": ref}

    samples = []  # [cmd, seconds, rows, reference seconds around the op, traced]
    if not args.setup_only:
        i = 0
        while i < len(decks) and time.monotonic() - t_first < WALL_CAP * args.seconds:
            for op in decks[i]:
                on = bool(tracer) and len(samples) % 2 == 1
                if on:
                    tracer.install_counters()
                    try:
                        with tracer.span(f"op:{op['cmd']}", op=len(samples)):
                            res = runners.measure(traced, op, stats)
                    finally:
                        tracer.remove_counters()
                else:
                    res = runners.measure(plain, op, stats)
                ref_after = runners.reference_time(w)
                if res is not None:
                    samples.append([op["cmd"], res[0], res[1], (ref + ref_after) / 2, on])
                ref = ref_after
            i += 1
        result["decks"] = i
        result["seconds"] = time.monotonic() - t_first

    who = resource.RUSAGE_CHILDREN if w == "cli_session" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0

    if tracer:
        result["layers"] = layers.run_all(tracer, workloads.rng_for(w, args.seed, 2),
                                          stats, table_path)
        trace_path = out_dir / f"trace_{w}_seed{args.seed}.json"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path)
        result["self_times"] = tracer.self_times()

    result.update(samples=samples, attempted=stats.attempted, failures=stats.failures)
    table_path.unlink(missing_ok=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
