"""Per-layer probes of the traced run.

Each probe times calls into one layer of gaussgeo from the benchmark, in a
span named after the layer, and returns ``{metric: (value, unit)}``. Which
end-to-end metric each one should move is tabulated in bench/README.md.

* import: ``python -X importtime`` cumulative times in fresh interpreters;
* cli: in-process ``cli.main`` per table row and per record command;
* closed forms: warm microseconds per scalar call on seeded inputs;
* oracle: milliseconds per engine call on the battery's reference inputs;
* verify: seconds per check group, summed from ``CheckResult.seconds``,
  and the battery's exact ``solve_ivp`` nfev and ``quad`` integrand counts.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
import warnings
from collections import defaultdict

import numpy as np

import check
import runners
import workloads as wl
from spans import parse_importtime

IMPORT_METRICS = {
    "import.gaussgeo_s": "gaussgeo",
    "import.gaussgeo.cli_s": "gaussgeo.cli",
    "import.gaussgeo.oracle_s": "gaussgeo.oracle",
    "import.scipy.integrate_s": "scipy.integrate",
}
IMPORT_PROBES = 5
TABLE_ROWS = 20_000
TABLE_REPEATS = 3
RECORD_REPEATS = 20
MICRO_INPUTS = 64
MICRO_BLOCKS = 5
MICRO_BLOCK_S = 0.02
VERIFY_BATTERIES = 2


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


def import_layer(tracer) -> dict:
    samples = defaultdict(list)
    code = "import gaussgeo.cli, gaussgeo.oracle"
    for _ in range(IMPORT_PROBES):
        with tracer.span("import:gaussgeo.cli+gaussgeo.oracle"):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                                  capture_output=True, text=True, cwd=runners.ROOT,
                                  env=runners.program_env(), timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr[-300:]}")
        cumulative = parse_importtime(proc.stderr)
        for metric, module in IMPORT_METRICS.items():
            samples[metric].append(cumulative[module])
    return {m: (_median(v), "s") for m, v in samples.items()}


def cli_layer(tracer, rng, stats, out_path) -> dict:
    run = runners.TableRunner(tracer, out_path)
    out = {}
    for cmd, fmt in wl.SWEEP_KINDS:
        per_row = []
        for _ in range(TABLE_REPEATS):
            res = runners.measure(run, wl.TABLE_OPS[cmd](rng, fmt, TABLE_ROWS), stats)
            if res is not None:
                per_row.append(res[0] / res[1] * 1e6)
        out[f"cli.{cmd}.{fmt}_us_per_row"] = (_median(per_row), "us/row")
    for cmd in ("metric", "curvature", "scatter"):
        times = []
        for _ in range(RECORD_REPEATS):
            op = wl.SESSION_OPS[cmd](rng, ("csv", "json")[rng.integers(2)])
            res = runners.measure(run, op, stats)
            if res is not None:
                times.append(res[0] * 1e3)
        out[f"cli.{cmd}_ms"] = (_median(times), "ms")
    return out


def _per_call(fn, inputs) -> float:
    """Median seconds per call over MICRO_BLOCKS blocks of about MICRO_BLOCK_S."""
    def block(reps):
        t0 = time.perf_counter()
        for _ in range(reps):
            for args in inputs:
                fn(*args)
        return (time.perf_counter() - t0) / (reps * len(inputs))

    reps = max(1, int(MICRO_BLOCK_S / (block(1) * len(inputs))))
    return statistics.median(block(reps) for _ in range(MICRO_BLOCKS))


def closed_form_layer(tracer, rng) -> dict:
    from gaussgeo import chaos, complexity, curvature, geodesics, models, scattering
    from gaussgeo.geodesics import InitialConditions
    from gaussgeo.models import ModelParams
    from gaussgeo.scattering import ScatteringConfig

    def inputs(make):
        return [make() for _ in range(MICRO_INPUTS)]

    def sig():
        return wl.logu(rng, 0.1, 10.0)

    def par():
        return ModelParams(wl.uniform(rng, 0.0, 0.9))

    def ic():
        return InitialConditions(**wl.draw_ic(rng))

    def jacobi_args():
        A0 = geodesics.amplitude_A0(ic())
        return wl.uniform(rng, 0.0, 10.0), wl.logu(rng, 0.1, 10.0), A0

    def lyapunov_args():
        A0 = geodesics.amplitude_A0(ic())
        return wl.logu(rng, 0.1, 10.0), A0, wl.uniform(rng, 5.0, 20.0) / A0

    def complexity_args():
        i = ic()
        return wl.uniform(rng, 5.0, 50.0) / (2.0 * geodesics.amplitude_A0(i)), par(), i

    def cfg():
        return ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=0.1,
                                a_s=wl.logu(rng, 1e-7, 1e-4))

    def prolongation_args():
        p = wl.draw_ic(rng)
        return InitialConditions(**p), wl.uniform(rng, 0.0, 0.9) * wl.r_bound(p)

    def tau_state():
        return wl.uniform(rng, -4.0, 4.0), par(), ic()

    grid = np.linspace(-1.0, 1.0, 9)
    probes = [
        ("models.metric_corr3_us", models.metric_corr3, lambda: (sig(), par())),
        ("models.metric_corr4_us", models.metric_corr4, lambda: (sig(), sig(), par())),
        ("models.metric_corr3_inverse_us", models.metric_corr3_inverse,
         lambda: (sig(), par())),
        ("curvature.christoffel_us", curvature.christoffel, lambda: (sig(), par())),
        ("curvature.riemann_us", curvature.riemann, lambda: (sig(), par())),
        ("curvature.bundle_us", curvature.bundle, lambda: (sig(), par())),
        ("curvature.maximal_symmetry_check_us", curvature.maximal_symmetry_check,
         lambda: (sig(), par())),
        ("geodesics.geodesic_corr_us", geodesics.geodesic_corr, tau_state),
        ("geodesics.joined_path_us", geodesics.joined_path, tau_state),
        ("geodesics.geodesic_velocity_us", geodesics.geodesic_velocity, tau_state),
        ("geodesics.geodesic_acceleration_us", geodesics.geodesic_acceleration,
         tau_state),
        ("geodesics.geodesic_residual_ms", geodesics.geodesic_residual,
         lambda: (par(), ic(), grid)),
        ("chaos.jacobi_intensity_us", chaos.jacobi_intensity, jacobi_args),
        ("chaos.lyapunov_estimate_us", chaos.lyapunov_estimate, lyapunov_args),
        ("complexity.igc_closed_us", complexity.igc_closed, complexity_args),
        ("complexity.ige_closed_us", complexity.ige_closed, complexity_args),
        ("scattering.r_qm_us", scattering.r_qm, lambda: (cfg(),)),
        ("scattering.phase_shift_exact_us", scattering.phase_shift_exact,
         lambda: (cfg(), wl.uniform(rng, 0.0, 0.9))),
        ("scattering.purity_from_r_us", scattering.purity_from_r,
         lambda: (cfg(), wl.uniform(rng, 0.0, 0.9))),
        ("scattering.prolongation_us", scattering.prolongation, prolongation_args),
    ]
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for metric, fn, make in probes:
            args = inputs(make)
            unit, scale = ("ms", 1e3) if metric.endswith("_ms") else ("us", 1e6)
            with tracer.span(f"micro:{metric}"):
                out[metric] = (_per_call(fn, args) * scale, unit)
    return out


def oracle_layer(tracer) -> dict:
    from gaussgeo import geodesics, models, oracle
    from gaussgeo.geodesics import InitialConditions
    from gaussgeo.models import ModelParams
    from gaussgeo.scattering import ScatteringConfig

    desk = InitialConditions(p0=1.0, sigma0=0.1, tau0=1.0, R0=10.0)
    A0 = geodesics.amplitude_A0(desk)
    params = ModelParams(0.5)
    cfg = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=0.1, a_s=1e-5)
    engines = [
        ("fisher_metric_numeric", 5, lambda: oracle.fisher_metric_numeric(
            "corr3", models.Macrostate3(0.4, -0.3, 1.0), params)),
        ("geodesic_integrate", 3,
         lambda: oracle.geodesic_integrate(params, desk, (-1.0, 1.0))),
        ("jacobi_integrate", 3, lambda: oracle.jacobi_integrate(params, desk, 20.0 / A0)),
        ("curvature_fd", 5, lambda: oracle.curvature_fd(1.0, params)),
        ("purity_bruteforce", 5, lambda: oracle.purity_bruteforce(cfg)),
        ("igc_numeric", 3,
         lambda: oracle.igc_numeric(5.0 / (2.0 * A0), ModelParams(0.3), desk)),
    ]
    out = {}
    for name, repeats, call in engines:
        times, nfev = [], []
        for _ in range(repeats):
            with tracer.span(f"oracle.{name}") as rec:
                call()
            times.append(rec["end"] - rec["start"])
            nfev.append(rec["counts"].get("solve_ivp_nfev", 0))
        out[f"oracle.{name}_ms"] = (_median(times) * 1e3, "ms")
        if name == "jacobi_integrate":
            per_nfev = _median(times) / nfev[0] * 1e6 if nfev[0] else float("nan")
            out["oracle.jacobi_us_per_nfev"] = (per_nfev, "us")
    return out


def verify_layer(tracer, stats) -> dict:
    run = runners.BatteryRunner(tracer)
    seconds = defaultdict(list)
    counts = []
    for _ in range(VERIFY_BATTERIES):
        with tracer.span("battery") as rec:
            ok = runners.measure(run, wl.BATTERY_OP, stats) is not None
        counts.append(rec["counts"])
        if ok:
            per_group = defaultdict(float)
            for r in run.last:
                per_group[r.group] += r.seconds
            for g in check.BATTERY_GROUPS:
                seconds[g].append(per_group[g])
    out = {f"verify.{g}_s": (_median(seconds[g]), "s") for g in check.BATTERY_GROUPS}
    for name in ("solve_ivp_nfev", "quad_neval"):
        out[f"oracle.{name}"] = (float(counts[0].get(name, 0)), "count")
    return out


def run_all(tracer, rng, stats, out_path) -> dict:
    """Every per-layer metric; work counters stay installed throughout."""
    import gaussgeo.oracle  # noqa: F401  (bind the names the counters wrap)

    tracer.install_counters()
    try:
        out = import_layer(tracer)
        out.update(cli_layer(tracer, rng, stats, out_path))
        out.update(closed_form_layer(tracer, rng))
        out.update(oracle_layer(tracer))
        out.update(verify_layer(tracer, stats))
    finally:
        tracer.remove_counters()
    return out
