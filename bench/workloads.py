"""Seeded inputs and operations of the three benchmark workloads.

An op is one unit of work. Ops come in decks: a deck holds each kind of op
of the workload once, and a run executes a fixed number of whole decks
(`DECK_SECONDS`), so every run sees the same mix of kinds and sizes
whatever its seed. Op parameters are drawn from the run's seeded
generator. A ``cli_session`` deck is in a seeded order; a
``sweep_tables`` deck is in the fixed order of `SWEEP_KINDS`, because the
worker's peak memory depends on the order in which its heap grows: in a
seeded order it ranged over 132-139 MB across seeds, in the fixed order
it stays within 0.5 MB.

* ``cli_session``: one op is a fresh ``python -m gaussgeo.cli <cmd>``
  process. A deck holds the seven computing commands at their README/
  default grid sizes plus one ``verify --only <cheap group>``.
* ``sweep_tables``: one op is an in-process ``cli.main`` call writing a
  geodesic, complexity, prolongation or jacobi table as CSV or JSON with
  ``--out``. A deck holds the eight (command, format) pairs, each at its
  size in `SWEEP_KINDS`.
* ``verify_battery``: one op is the full ``oracle.run_verification()``
  battery in a warm process; a deck is one battery.

Parameter ranges follow the README examples and CLI defaults: sigma
log-uniform in [0.1, 10], r uniform in [0, 0.9], sigma0/p0 log-uniform in
[1e-3, 0.1], prolongation sweeps running past r_bound. The program only
ever sees the generated argv.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("cli_session", "sweep_tables", "verify_battery")

#: Cheap verification groups a CLI user re-runs; each still loads the oracle.
CHEAP_GROUPS = ("curvature", "oracle", "complexity")

#: Table kinds of ``sweep_tables`` and their rows. The sizes lie in
#: 10^4..10^5 and make every table take about 0.3 s on the machine in
#: bench/README.md, so that the median and tail op latencies sit inside one
#: cluster of similar ops instead of in a gap between sizes.
SWEEP_KINDS = {
    ("geodesic", "csv"): 26_000,
    ("geodesic", "json"): 14_000,
    ("complexity", "csv"): 18_000,
    ("complexity", "json"): 10_000,
    ("prolongation", "csv"): 48_000,
    ("prolongation", "json"): 23_000,
    ("jacobi", "csv"): 94_000,
    ("jacobi", "json"): 39_000,
}
SWEEP_ROWS = (10_000, 100_000)

#: Wall seconds of one deck, checks and reference kernels included, on the
#: machine in bench/README.md; a run of S seconds executes round(S / this)
#: decks.
DECK_SECONDS = {"cli_session": 6.0, "sweep_tables": 4.5, "verify_battery": 1.1}


def rng_for(workload: str, seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator per (workload, seed, stream)."""
    return np.random.default_rng([WORKLOADS.index(workload), seed, stream])


def logu(rng, lo, hi) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def uniform(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def draw_ic(rng) -> dict:
    p0 = logu(rng, 0.5, 2.0)
    sigma0 = p0 * logu(rng, 1e-3, 0.1)
    while sigma0 / p0 > 0.1:  # stay inside the documented sigma0/p0 <= 0.1
        sigma0 = math.nextafter(sigma0, 0.0)
    return {"p0": p0, "sigma0": sigma0, "tau0": logu(rng, 0.5, 2.0)}


def r_bound(p: dict) -> float:
    """Prolongation existence bound 2/eta = 4 exp(-2 A0 tau0)."""
    return 4.0 * math.exp(-2.0 * math.asinh(p["p0"] / (math.sqrt(2.0) * p["sigma0"])))


def argv(op: dict) -> list[str]:
    """Command-line arguments of an op, floats written exactly."""
    out = [op["cmd"]]
    for key, value in op["p"].items():
        flag = "--" + key.replace("_", "-")
        for v in value if isinstance(value, list) else [value]:
            out += [flag, repr(v) if isinstance(v, float) else str(v)]
    if op["cmd"] not in ("verify", "battery"):
        out += ["--format", op["fmt"]]
    return out


def describe(op: dict) -> str:
    return " ".join(argv(op))


# ---------------------------------------------------------------------------
# op builders; n is the requested number of table rows
# ---------------------------------------------------------------------------

def geodesic_op(rng, fmt, n=81) -> dict:
    p = draw_ic(rng)
    p.update(r=uniform(rng, 0.0, 0.9), tau_min=uniform(rng, -4.0, -0.5),
             tau_max=uniform(rng, 0.5, 4.0), n=n)
    return {"cmd": "geodesic", "fmt": fmt, "p": p}


def jacobi_op(rng, fmt, n=101) -> dict:
    p = draw_ic(rng)
    p.update(omega0=logu(rng, 0.1, 10.0), tau_max=uniform(rng, 1.0, 10.0), n=n)
    return {"cmd": "jacobi", "fmt": fmt, "p": p}


def complexity_op(rng, fmt, n=20) -> dict:
    p = draw_ic(rng)
    p.update(r=[uniform(rng, 0.0, 0.9), uniform(rng, 0.0, 0.9)],
             tau_min=uniform(rng, 0.05, 0.5), tau_max=uniform(rng, 1.0, 3.0), n=n // 2)
    return {"cmd": "complexity", "fmt": fmt, "p": p}


def prolongation_op(rng, fmt, n=19) -> dict:
    p = draw_ic(rng)
    p.update(r_min=0.0, r_max=r_bound(p) * uniform(rng, 1.05, 2.0), n=n)
    return {"cmd": "prolongation", "fmt": fmt, "p": p}


def metric_op(rng, fmt) -> dict:
    if rng.uniform(0.0, 1.0) < 0.5:
        p = {"dim": 4, "sigma_x": logu(rng, 0.1, 10.0), "sigma_y": logu(rng, 0.1, 10.0)}
    else:
        p = {"sigma": logu(rng, 0.1, 10.0)}
    p["r"] = uniform(rng, 0.0, 0.9)
    return {"cmd": "metric", "fmt": fmt, "p": p}


def curvature_op(rng, fmt) -> dict:
    p = {"sigma": logu(rng, 0.1, 10.0), "r": uniform(rng, 0.0, 0.9)}
    return {"cmd": "curvature", "fmt": fmt, "p": p}


def scatter_op(rng, fmt) -> dict:
    p = {"a_s": logu(rng, 1e-7, 1e-4), "tau0": logu(rng, 0.5, 2.0)}
    return {"cmd": "scatter", "fmt": fmt, "p": p}


def verify_op(rng, fmt="json") -> dict:
    return {"cmd": "verify", "fmt": "json",
            "p": {"only": CHEAP_GROUPS[int(rng.uniform(0.0, 1.0) * len(CHEAP_GROUPS))]}}


TABLE_OPS = {
    "geodesic": geodesic_op,
    "jacobi": jacobi_op,
    "complexity": complexity_op,
    "prolongation": prolongation_op,
}
SESSION_OPS = dict(TABLE_OPS, metric=metric_op, curvature=curvature_op,
                   scatter=scatter_op, verify=verify_op)

#: The one op of ``verify_battery``: the full battery, which takes no inputs.
BATTERY_OP = {"cmd": "battery", "fmt": "json", "p": {}}


def decks(workload: str, seed: int):
    """Endless iterator over the decks of a run, each a list of ops."""
    rng = rng_for(workload, seed)
    session = list(SESSION_OPS)
    sweep = list(SWEEP_KINDS.items())
    while True:
        if workload == "verify_battery":
            yield [BATTERY_OP]
        elif workload == "cli_session":
            yield [SESSION_OPS[session[i]](rng, ("csv", "json")[rng.integers(2)])
                   for i in rng.permutation(len(session))]
        else:
            yield [TABLE_OPS[cmd](rng, fmt, rows) for (cmd, fmt), rows in sweep]


def warmup_op(workload: str) -> dict:
    """The untimed op that ends set-up; the same for every seed.

    ``sweep_tables`` warms up on a small table, so that the worker's peak
    memory comes from the tables of the run's own decks.
    """
    rng = rng_for(workload, 0, 1)
    if workload == "sweep_tables":
        return geodesic_op(rng, "json", 1000)
    if workload == "cli_session":
        return metric_op(rng, "json")
    return BATTERY_OP
