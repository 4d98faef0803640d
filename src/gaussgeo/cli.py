"""Command-line surface: evaluation, sweeps, figure-data tables, verification.

Commands: metric, curvature, geodesic, jacobi, complexity, scatter,
prolongation, verify. Every emitted number is produced by exactly one core
operation; the CLI only formats. Output is deterministic: CSV uses 17
significant digits, '.' decimal separator, LF endings; JSON uses a stable
key order. Validity warnings go to stderr as ``warning: <Category>:
<message>`` lines (and as bare messages to the JSON ``warnings`` field)
without changing the exit code; a CSV table warns with the names of the
extra fields it cannot hold. Exit codes: 0 success, 1 verification
failure (a check that raises, an oracle's own ``ConvergenceError``
included, fails), 2 usage or domain error, including an arithmetic overflow
or a singular matrix from extreme finite input, whose error line names the
numeric options set off their defaults. numpy's divide, overflow and
invalid floating-point errors raise rather than warn.

The table commands (geodesic, jacobi, complexity, prolongation) evaluate
their closed forms once per column over the whole grid and write the
table column by column (complexity's grid is the flat (tau, r) mesh);
from `_SPLIT_ROWS` rows on, a POSIX system formats the two halves of a
table in two processes, with the same bytes. A command returns its table,
a (columns, extra) pair, or its record dict; `main` alone captures
warnings and writes output. Each command imports the modules it reads
when it runs, so a process compiles and loads only those: ``metric`` loads
`models` alone, and ``verify`` the battery, which checks ``verify --only
GROUP``, and through it every closed form; no command loads scipy.

A process (the ``gaussgeo`` script, or ``python -m gaussgeo.cli``) enters
through `run`, which calls `main` and then freezes the garbage collector's
objects. CPython's shutdown runs full collections over every object that
numpy and this package made, which took about a sixth of a cold ``geodesic``
process; they skip frozen objects, whose memory the OS takes back at exit.
`main` touches no collector state, so tests and library callers run it
in-process as before.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import threading
import warnings
from itertools import chain

import numpy as np

from . import errors
from .errors import (GaussGeoError, OmittedFieldsWarning, ProlongationBoundWarning,
                     RoundTripWarning, TruncationWarning, require, require_correlation)


def _no_negzero(obj):
    if isinstance(obj, float):
        return 0.0 if obj == 0.0 else obj
    if isinstance(obj, list):
        return [_no_negzero(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _no_negzero(v) for k, v in obj.items()}
    return obj


#: Rows from which `_in_two` forks: fork, pipe and reap took about 5 ms with
#: 60 MB of arrays resident, against 4-7 us per row formatted.
_SPLIT_ROWS = 4096


def _write_parts(parts, out: str | None) -> None:
    if out is None:
        try:
            sys.stdout.writelines(parts)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader closed early, which is no usage error
            # fd 1 to the null device, so that the flush at exit stays silent
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(parts)


def _in_two(rows, n: int) -> list[str]:
    """``rows(0, n)`` as text parts; from `_SPLIT_ROWS` rows on, a forked child
    formats the second half, and this process does so too if the child fails."""
    if n < _SPLIT_ROWS or not hasattr(os, "fork") or threading.active_count() > 1:
        return [rows(0, n)]
    half, (read_fd, write_fd) = n // 2, os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no child: the pipe reads empty and this process formats both halves
        pid = -1
    if pid == 0:  # the child never returns: it exits 0 once its half is written
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as fh:
                fh.write(rows(half, n).encode())
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    fh = open(read_fd, "rb")
    try:
        first, second = rows(0, half), fh.read()
    finally:  # closed before the reap, so a child blocked on a full pipe gets EPIPE
        fh.close()
        failed = pid < 0 or os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return [first, rows(half, n) if failed else second.decode()]


def _json_payload(fields: dict, warn_list) -> str:
    """JSON text of ``fields`` followed by ``warnings``, -0.0 normalized to 0.0."""
    return json.dumps(_no_negzero({**fields, "warnings": warn_list or []}), indent=2)


def _emit_table(columns: dict, fmt, out, extra=None, warn_list=None) -> None:
    """Write a table given as {name: 1-D array}, column by column.

    Bytes equal those of formatting each row's values with ``%.17g``
    (floats), ``%d`` (integers) or ``%s`` (strings) for CSV, or
    `_json_payload` with the rows in its fields for JSON, whose number text
    comes from `json.dumps`. Float columns are normalized from -0.0 to 0.0
    by adding 0.0. Each half of a table of `_SPLIT_ROWS` rows or more may be
    formatted in its own process (`_in_two`); the bytes are the same.
    """
    names = list(columns)
    cols = [c + 0.0 if c.dtype.kind == "f" else c for c in columns.values()]
    if fmt == "csv":
        row = ",".join({"i": "%d", "u": "%d", "U": "%s"}.get(c.dtype.kind, "%.17g")
                       for c in cols) + "\n"
        sep, pieces = "", np.ndarray.tolist
    else:
        fields = ",\n".join(f"      {json.dumps(name)}: %s" for name in names)
        row, sep = f"    {{\n{fields}\n    }}", ",\n"

        def pieces(c):
            # string columns come only from records, which reach this writer for CSV
            # alone, so each column holds numbers and json's ", " separates them
            return json.dumps(c.tolist())[1:-1].split(", ")

    def rows(lo, hi):
        template = sep.join([row] * (hi - lo))
        return ((sep if lo else "") + template) % tuple(
            chain.from_iterable(zip(*(pieces(c[lo:hi]) for c in cols))))

    n = len(cols[0])
    if fmt == "csv":
        _write_parts([",".join(names) + "\n", *_in_two(rows, n)], out)
        return
    text = _json_payload({"columns": names, "rows": [], **(extra or {})}, warn_list)
    head, _, tail = text.partition('\n  "rows": []')
    rows_text = ['\n  "rows": [\n', *_in_two(rows, n), "\n  ]"] if n else ['\n  "rows": []']
    _write_parts([head, *rows_text, tail, "\n"], out)


def _emit_record(record: dict, fmt, out, warn_list=None):
    """Write a record: JSON as it is, CSV as a name,value table with one row
    per list element (``eigenvalues_0``, ...)."""
    if fmt == "json":
        _write_parts([_json_payload(record, warn_list), "\n"], out)
        return
    rows = {}
    for key, value in record.items():
        rows.update({f"{key}_{i}": v for i, v in enumerate(value)}
                    if isinstance(value, list) else {key: value})
    _emit_table({"name": np.array(list(rows)), "value": np.array(list(rows.values()))}, fmt, out)


def _report_warnings(caught) -> list[str]:
    for w in caught:
        print(f"warning: {w.category.__name__}: {w.message}", file=sys.stderr)
    return [str(w.message) for w in caught]


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _cmd_metric(args) -> dict:
    from . import models

    params = models.ModelParams(args.r)
    corr3 = {"--sigma": args.sigma}
    corr4 = {"--sigma-x": args.sigma_x, "--sigma-y": args.sigma_y}
    spreads, unread, other = (corr3, corr4, 4) if args.dim == 3 else (corr4, corr3, 3)
    # the other dimension's spreads are not read, so one set off its default
    # of 1 (by flag or config) is an error, not a silently ignored input
    for flag, value in unread.items():
        require(value == 1.0, lambda: f"{flag} {value:g}: needs --dim {other}")
    # each form refuses, by name, a spread at which it leaves the normal floats
    g, det, eigenvalues = (form(*spreads.values(), params) for form in (
        (models.metric_corr3, models.metric_corr3_determinant, models.metric_corr3_eigenvalues)
        if args.dim == 3 else
        (models.metric_corr4, models.metric_corr4_determinant, models.metric_corr4_eigenvalues)))
    if args.format == "json":
        record = {"matrix": g.tolist()}
    else:  # CSV lists the upper triangle, one entry per line
        n = g.shape[0]
        record = {f"g_{i + 1}{j + 1}": float(g[i, j]) for i in range(n) for j in range(i, n)}
    record["determinant"] = det
    record["eigenvalues"] = eigenvalues.tolist()
    return record


def _cmd_curvature(args) -> dict:
    from . import curvature, models

    params = models.ModelParams(args.r)
    bundle = curvature.bundle(args.sigma, params)
    report = curvature.maximal_symmetry_check(args.sigma, params)
    return {
        "scalar": bundle.scalar,
        "sectional_12": float(bundle.sectional[0, 1]),
        "sectional_13": float(bundle.sectional[0, 2]),
        "sectional_23": float(bundle.sectional[1, 2]),
        "weyl_max_abs": float(np.abs(bundle.weyl).max()),
        "ricci_identity_residual": report.ricci_residual,
        "riemann_identity_residual": report.riemann_residual,
        "trace_identity_residual": report.trace_residual,
    }


def _grid(lo, hi, n) -> np.ndarray:
    require(n >= 1, lambda: f"--n must be at least 1, got {n}")
    require(math.isfinite(lo) and math.isfinite(hi),
            lambda: f"grid ends must be finite, got {lo}, {hi}")
    # np.linspace would fill a grid whose span overflows with NaN
    require(abs(hi - lo) < math.inf, lambda: f"grid span from {lo} to {hi} overflows a float")
    return np.linspace(lo, hi, n)


def _tau_grid(tau_min, tau_max, n) -> np.ndarray:
    require(tau_max > tau_min, "tau grid must be increasing (tau-max > tau-min)")
    grid = _grid(tau_min, tau_max, n)
    if tau_min < 0.0 < tau_max and not np.any(grid == 0.0):
        grid = np.sort(np.append(grid, 0.0))
    return grid


def _cmd_geodesic(args) -> tuple[dict, dict]:
    from . import geodesics, models

    ic = geodesics.InitialConditions(args.p0, args.sigma0, args.tau0)
    params = models.ModelParams(args.r)
    tau = _tau_grid(args.tau_min, args.tau_max, args.n)
    state = geodesics.joined_path(tau, params, ic)
    return {"tau": tau, "mu1": state.mu1, "mu2": state.mu2, "sigma": state.sigma}, {}


def _cmd_jacobi(args) -> tuple[dict, dict]:
    from . import chaos, geodesics

    ic = geodesics.InitialConditions(args.p0, args.sigma0, args.tau0)
    A0 = geodesics.amplitude_A0(ic)
    tau = _grid(0.0, args.tau_max, args.n)
    intensity = chaos.jacobi_intensity(tau, args.omega0, A0)
    estimate = chaos.lyapunov_estimate(args.omega0, A0, args.tau_max)
    return {"tau": tau, "intensity": intensity}, {
        "lambda": chaos.lyapunov_exponent(A0),
        "lyapunov_estimate": estimate.value,
        "lyapunov_raw": estimate.raw,
        "jlc_coefficient": chaos.jlc_coefficient(A0),
    }


def _cmd_complexity(args) -> tuple[dict, dict]:
    from . import chaos, complexity, geodesics, models

    ic = geodesics.InitialConditions(args.p0, args.sigma0, args.tau0)
    lam = chaos.lyapunov_exponent(geodesics.amplitude_A0(ic))
    r_axis = require_correlation(np.array(args.r or [0.0]))  # even if no row is kept
    tau = _tau_grid(args.tau_min, args.tau_max, args.n)
    # the grid increases, so rows past the overflow guard form its tail
    keep = int(np.count_nonzero(lam * tau <= errors.ARG_CLAMP))
    # the flat, tau-major (tau, r) mesh: one call of each closed form
    tau_col = np.repeat(tau[:keep], r_axis.size)
    params = models.ModelParams(np.tile(r_axis, keep))
    columns = {"tau": tau_col, "r": params.r,
               "igc": complexity.igc_closed(tau_col, params, ic),
               "ige": complexity.ige_closed(tau_col, params, ic),
               "ratio": complexity.igc_ratio(params), "ige_gap": complexity.ige_gap(params)}
    if keep < len(tau):
        warnings.warn(TruncationWarning(
            f"lambda*tau = {lam * tau[keep]:.3g} beyond overflow guard; "
            "remaining rows truncated", len(tau) - keep))
    return columns, {}


def _cmd_scatter(args) -> dict:
    from . import scattering

    cfg = scattering.ScatteringConfig(
        k0=args.k0, sigma_k0=args.sigma_k0, R0=args.R0, L=args.L,
        a_s=args.a_s, reduced_mass=args.mu, hbar=args.hbar,
    )
    ic = cfg.initial_conditions(args.tau0)
    r = scattering.r_qm(cfg)
    record = {
        "r_qm": r,
        "theta0": scattering.phase_shift_exact(cfg, r),
        "cross_section": scattering.cross_section(cfg, r),
        "potential": scattering.potential_from_r(r, cfg),
        "potential_density": scattering.potential_density(cfg),
        "purity": scattering.purity_from_r(cfg, r),
        "purity_series_a_s": scattering.purity_series(cfg),
        "a_s_effective": scattering.scattering_length_from_r(cfg, r),
        "eta_c": scattering.eta_c(cfg),
    }
    rep = scattering.prolongation(ic, r)
    if rep.flagged:
        warnings.warn(ProlongationBoundWarning(
            f"r={r:.6g} is at or above the prolongation bound 2/eta={rep.r_bound:.6g}"))
    record.update(prolongation=rep.delta, prolongation_approx=rep.delta_approx,
                  r_bound=rep.r_bound)
    # inline round-trip consistency of the algebraic inversions
    checks = {
        "roundtrip_potential": abs(
            scattering.r_from_potential(cfg, record["potential"]) - r),
        "roundtrip_cross_section": abs(
            scattering.r_from_cross_section(cfg, record["cross_section"]) - r),
        "roundtrip_purity": abs(
            scattering.r_from_purity(cfg, record["purity"]) - r),
    }
    failures = {k: v for k, v in checks.items() if not v <= 1e-10}
    if failures:
        warnings.warn(RoundTripWarning(f"consistency round-trips failed: {failures}",
                                       len(failures)))
    record["consistency_max_residual"] = max(checks.values())
    return record


def _cmd_prolongation(args) -> tuple[dict, dict]:
    from . import geodesics, scattering

    ic = geodesics.InitialConditions(args.p0, args.sigma0, args.tau0)
    r = _grid(args.r_min, args.r_max, args.n)
    rep = scattering.prolongation(ic, r)
    return ({"r": r, "delta_approx": rep.delta_approx, "delta_exact": rep.delta,
             "flagged": rep.flagged.astype(np.int64)}, {"r_bound": rep.r_bound})


def _cmd_verify(args) -> int:
    from . import battery

    results = battery.run_verification(args.only)
    all_passed = all(res.passed for res in results)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(
            f"[{status}] {res.group}/{res.name}: residual {res.residual:.3e} "
            f"(tolerance {res.tolerance:.3e}, {res.seconds:.2f}s)"
            + (f": {res.error}" if res.error else ""),
            file=sys.stderr,
        )
    payload = {
        "passed": all_passed,
        "checks": [res.as_dict() for res in results],
    }
    _write_parts([json.dumps(payload, indent=2), "\n"], args.out)
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_output_flags(sub, formats: bool = True):
    # verify always writes JSON, so it takes no --format
    if formats:
        sub.add_argument("--format", choices=("csv", "json"), default="json")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--config", default=None,
                     help="JSON file with defaults; explicit flags override")


def _add_ic_flags(sub):
    sub.add_argument("--p0", type=float, default=1.0)
    sub.add_argument("--sigma0", type=float, default=0.1)
    sub.add_argument("--tau0", type=float, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussgeo",
        description="Information geometry of correlated Gaussian manifolds",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("metric", help="Fisher-Rao metric, determinant, eigenvalues")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--dim", type=int, choices=(3, 4), default=3)
    p.add_argument("--sigma-x", dest="sigma_x", type=float, default=1.0)
    p.add_argument("--sigma-y", dest="sigma_y", type=float, default=1.0)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_metric)

    p = subs.add_parser("curvature", help="curvature constants and isotropy residuals")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--r", type=float, default=0.0)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_curvature)

    p = subs.add_parser("geodesic", help="joined collision path table")
    _add_ic_flags(p)
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--tau-min", dest="tau_min", type=float, default=-2.0)
    p.add_argument("--tau-max", dest="tau_max", type=float, default=2.0)
    p.add_argument("--n", type=int, default=81)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_geodesic)

    p = subs.add_parser("jacobi", help="Jacobi intensity table and Lyapunov estimates")
    _add_ic_flags(p)
    p.add_argument("--omega0", type=float, default=1.0)
    p.add_argument("--tau-max", dest="tau_max", type=float, default=5.0)
    p.add_argument("--n", type=int, default=101)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_jacobi)

    p = subs.add_parser("complexity", help="IGC/IGE table over a tau grid")
    _add_ic_flags(p)
    p.add_argument("--r", type=float, action="append", default=None,
                   help="repeatable correlation values")
    p.add_argument("--tau-min", dest="tau_min", type=float, default=0.1)
    p.add_argument("--tau-max", dest="tau_max", type=float, default=2.0)
    p.add_argument("--n", type=int, default=20)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_complexity)

    p = subs.add_parser("scatter", help="scattering/entanglement report")
    p.add_argument("--k0", type=float, default=1.0)
    p.add_argument("--sigma-k0", dest="sigma_k0", type=float, default=0.1)
    p.add_argument("--R0", type=float, default=10.0)
    p.add_argument("--L", type=float, default=0.1)
    p.add_argument("--a-s", dest="a_s", type=float, default=0.0)
    p.add_argument("--mu", type=float, default=0.5, help="reduced mass")
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--tau0", type=float, default=1.0)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_scatter)

    p = subs.add_parser("prolongation", help="entanglement-duration sweep over r")
    _add_ic_flags(p)
    p.add_argument("--r-min", dest="r_min", type=float, default=0.0)
    p.add_argument("--r-max", dest="r_max", type=float, default=0.01)
    p.add_argument("--n", type=int, default=11)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_prolongation)

    p = subs.add_parser("verify", help="oracle-vs-closed-form verification suite")
    p.add_argument("--only", metavar="GROUP", default=None, help="run one check group")
    _add_output_flags(p, formats=False)
    p.set_defaults(fn=_cmd_verify)

    return parser


def _apply_config(parser, args: argparse.Namespace, argv: list[str]) -> None:
    """Fill args from a JSON config file; explicit flags keep priority.

    Each key naming an option of the command is parsed as that flag with the
    value as its text (a list repeats a repeatable flag); other keys are
    ignored. A malformed file or value is a usage error (exit 2).
    """
    if not args.config:
        return
    # argparse has no public accessor for a subcommand's parser or actions
    sub = parser._subparsers._group_actions[0].choices[args.command]
    with open(args.config, encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except ValueError as exc:
            sub.error(f"--config {args.config}: {exc}")
    if not isinstance(config, dict):
        sub.error(f"--config {args.config}: expected a JSON object")
    # argv parsed again with no defaults holds exactly the options it sets,
    # abbreviated or not
    for action in sub._actions:
        action.default = argparse.SUPPRESS
    explicit = vars(parser.parse_args(argv))
    options = {a.dest: a for a in sub._actions if a.option_strings and a.nargs != 0}
    flags = []
    for key, value in config.items():
        action = options.get(key.replace("-", "_"))
        if action is None or action.dest in explicit:
            continue
        repeat = isinstance(value, list) and isinstance(action, argparse._AppendAction)
        for v in value if repeat else [value]:
            text = v if isinstance(v, str) else json.dumps(v)
            flags.append(f"{action.option_strings[0]}={text}")
    # args already holds every option, so only the config's flags are set
    sub.parse_args(flags, namespace=args)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(parser, args, argv)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            if args.command == "verify":
                return args.fn(args)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = args.fn(args)
                columns, extra = result if isinstance(result, tuple) else (None, {})
                if extra and args.format == "csv":
                    warnings.warn(OmittedFieldsWarning(
                        f"CSV output omits the fields {', '.join(extra)}; "
                        "--format json writes them", len(extra)))
            warn_list = _report_warnings(caught)
            if columns is None:
                _emit_record(result, args.format, args.out, warn_list)
            else:
                _emit_table(columns, args.format, args.out, extra, warn_list)
            return 0
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        # name the numeric options off their defaults, from argv or --config; a
        # flag is its dest with '-' for '_', and --config cleared this parser's defaults
        defaults = vars(build_parser().parse_args([args.command]))
        moved = ", ".join(f"--{k.replace('_', '-')} {x:g}" for k, v in vars(args).items()
                          if v != defaults.get(k) for x in (v if isinstance(v, list) else [v])
                          if isinstance(x, (int, float)))
        # a float ** that overflows carries the C library's (errno, text) pair,
        # whose text differs by platform
        errno_pair = isinstance(exc, OverflowError) and len(exc.args) == 2
        text = "numerical result out of range" if errno_pair else exc
        print(f"error: {text}" + (f" (at {moved})" if moved else ""), file=sys.stderr)
        return 2
    except (GaussGeoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """`main` as a whole process: freeze the collector's objects before the
    interpreter exits, so that its final collections pass them over."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
