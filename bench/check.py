"""Output checks for the benchmark, written without importing gaussgeo.

Every check recomputes values from the paper's closed forms with `math` and
`numpy` only, so a defect in the package cannot also hide in its checker:

* Fisher-Rao metric: g_33 = 4/sigma^2 and the momentum block
  1/(sigma^2 (1 - r^2)) [[1, -r], [-r, 1]] (4-parameter family: the
  sigma_x diagonal (2 - r^2)/(sigma_x^2 (1 - r^2)));
* curvature: scalar -3/2, every coordinate-plane sectional curvature -1/4;
* geodesics: sigma(tau) = sqrt(p0^2/2 + sigma0^2) / cosh(A0 tau) and
  mu2 = -mu1 = sqrt((1 - r)(p0^2 + 2 sigma0^2)) tanh(A0 tau), with r = 0
  before the collision and A0 = asinh(p0 / (sqrt(2) sigma0)) / tau0;
* Jacobi field: J = (omega0/A0) sinh(A0 tau), lambda = 2 A0;
* complexity: the IGC ratio sqrt((1-r)/(1+r)) and the IGE gap
  (1/2) ln((1-r)/(1+r));
* scattering: r_QM = sqrt(8 (2 k0^2 + sigma^2) R0 a_s);
* prolongation: rows at or past r_bound = 4 exp(-2 A0 tau0) are flagged,
  rows well inside it carry Delta = -ln(1 - (1/sqrt(1-r) - 1) eta)/(2 A0);
* verification: the battery reports ``passed: true`` for every check.

`check_output` raises `CheckError` on the first mismatch and otherwise
returns the number of output rows, the unit of the ``rows_per_s`` metric.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: Relative tolerance against the closed forms. The package evaluates the
#: same expressions in a different order, so agreement is to a few ulp.
RTOL = 1e-9

#: Check groups the full verification battery must cover, in battery order.
BATTERY_GROUPS = ("models", "curvature", "geodesics", "chaos", "complexity",
                  "scattering", "oracle")

TABLE_COLUMNS = {
    "geodesic": ("tau", "mu1", "mu2", "sigma"),
    "jacobi": ("tau", "intensity"),
    "complexity": ("tau", "r", "igc", "ige", "ratio", "ige_gap"),
    "prolongation": ("r", "delta_approx", "delta_exact", "flagged"),
}


class CheckError(Exception):
    """The program's output disagrees with the paper's closed forms."""


def _close(name, got, want, rtol=RTOL, atol=0.0) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckError(f"{name}: shape {got.shape}, expected {want.shape}")
    bad = ~np.isclose(got, want, rtol=rtol, atol=atol)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise CheckError(f"{name}[{i}] = {got.flat[i]!r}, expected {want.flat[i]!r}")


def _a0(p) -> float:
    return math.asinh(p["p0"] / (math.sqrt(2.0) * p["sigma0"])) / p["tau0"]


def _parse_table(text: str, fmt: str, columns) -> tuple[np.ndarray, dict]:
    if fmt == "csv":
        header, _, body = text.partition("\n")
        if header != ",".join(columns):
            raise CheckError(f"CSV header {header!r}, expected {','.join(columns)!r}")
        if not body.endswith("\n"):
            raise CheckError("CSV output does not end in a newline")
        # one flat parse keeps the checker's memory below the program's own
        rows = body.count("\n")
        if body.count(",") != rows * (len(columns) - 1):
            raise CheckError(f"CSV body does not have {len(columns)} fields per row")
        try:
            data = np.array(body[:-1].replace("\n", ",").split(","), dtype=float)
        except ValueError as exc:
            raise CheckError(f"CSV body does not parse: {exc}") from None
        return data.reshape(rows, len(columns)), {}
    payload = _parse_json(text)
    if payload.get("columns") != list(columns):
        raise CheckError(f"JSON columns {payload.get('columns')!r}")
    try:
        data = np.array(
            [[row[c] for c in columns] for row in payload["rows"]], dtype=float
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"JSON rows do not parse: {exc!r}") from None
    return data.reshape(-1, len(columns)), payload


def _parse_json(text: str) -> dict:
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise CheckError("JSON output is not an object")
    return payload


def _parse_record(text: str, fmt: str) -> dict:
    if fmt == "json":
        return _parse_json(text)
    lines = text.split("\n")
    if lines[0] != "name,value" or lines[-1] != "":
        raise CheckError("CSV record lacks its name,value header or final newline")
    record = {}
    for line in lines[1:-1]:
        key, _, value = line.partition(",")
        try:
            record[key] = float(value)
        except ValueError:
            raise CheckError(f"CSV record value {line!r} does not parse") from None
    return record


def _field(record: dict, key: str) -> float:
    try:
        return float(record[key])
    except (KeyError, TypeError, ValueError):
        raise CheckError(f"record lacks a numeric {key!r}") from None


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

def _check_metric(p, text, fmt) -> int:
    rec = _parse_record(text, fmt)
    r = p["r"]
    if p.get("dim", 3) == 4:
        sx, sy = p["sigma_x"], p["sigma_y"]
        want = {
            (0, 0): 1.0 / (sx * sx * (1.0 - r * r)),
            (1, 1): (2.0 - r * r) / (sx * sx * (1.0 - r * r)),
            (3, 3): (2.0 - r * r) / (sy * sy * (1.0 - r * r)),
        }
    else:
        s2 = p["sigma"] ** 2
        want = {
            (0, 0): 1.0 / (s2 * (1.0 - r * r)),
            (0, 1): -r / (s2 * (1.0 - r * r)),
            (2, 2): 4.0 / s2,
        }
    for (i, j), value in want.items():
        if fmt == "json":
            try:
                got = float(rec["matrix"][i][j])
            except (KeyError, IndexError, TypeError, ValueError):
                raise CheckError("metric JSON lacks its matrix") from None
        else:
            got = _field(rec, f"g_{i + 1}{j + 1}")
        _close(f"g_{i + 1}{j + 1}", got, value)
    return 1


def _check_curvature(p, text, fmt) -> int:
    rec = _parse_record(text, fmt)
    _close("scalar", _field(rec, "scalar"), -1.5, atol=1e-9)
    for key in ("sectional_12", "sectional_13", "sectional_23"):
        _close(key, _field(rec, key), -0.25, atol=1e-9)
    # Weyl components scale as 1/sigma^4; compare in that unit
    _close("weyl_max_abs*sigma^4", _field(rec, "weyl_max_abs") * p["sigma"] ** 4,
           0.0, atol=1e-9)
    return 1


def _tau_grid(tau_min, tau_max, n) -> np.ndarray:
    # linspace, plus the collision point tau = 0 when the grid straddles it
    grid = np.linspace(tau_min, tau_max, n)
    if tau_min < 0.0 < tau_max and not np.any(grid == 0.0):
        grid = np.sort(np.append(grid, 0.0))
    return grid


def _check_geodesic(p, text, fmt) -> int:
    data, _ = _parse_table(text, fmt, TABLE_COLUMNS["geodesic"])
    tau = _tau_grid(p["tau_min"], p["tau_max"], p["n"])
    _close("tau", data[:, 0], tau, rtol=1e-12, atol=1e-15)
    A0 = _a0(p)
    p0, s0 = p["p0"], p["sigma0"]
    r = np.where(tau < 0.0, 0.0, p["r"])
    m = np.sqrt((1.0 - r) * (p0 * p0 + 2.0 * s0 * s0))
    mu2 = m * np.tanh(A0 * tau)
    scale = float(m.max())
    _close("mu1", data[:, 1], -mu2, atol=1e-12 * scale)
    _close("mu2", data[:, 2], mu2, atol=1e-12 * scale)
    _close("sigma", data[:, 3], math.sqrt(0.5 * p0 * p0 + s0 * s0) / np.cosh(A0 * tau))
    return len(data)


def _check_jacobi(p, text, fmt) -> int:
    data, extra = _parse_table(text, fmt, TABLE_COLUMNS["jacobi"])
    tau = np.linspace(0.0, p["tau_max"], p["n"])
    _close("tau", data[:, 0], tau, rtol=1e-12, atol=1e-15)
    A0 = _a0(p)
    _close("intensity", data[:, 1], p["omega0"] / A0 * np.sinh(A0 * tau), atol=1e-300)
    if fmt == "json":
        _close("lambda", _field(extra, "lambda"), 2.0 * A0)
    return len(data)


def _check_complexity(p, text, fmt) -> int:
    data, _ = _parse_table(text, fmt, TABLE_COLUMNS["complexity"])
    rs = np.asarray(p["r"], dtype=float)
    tau = np.linspace(p["tau_min"], p["tau_max"], p["n"])
    _close("tau", data[:, 0], np.repeat(tau, len(rs)), rtol=1e-12)
    _close("r", data[:, 1], np.tile(rs, len(tau)), rtol=0.0)
    r = data[:, 1]
    _close("ratio", data[:, 4], np.sqrt((1.0 - r) / (1.0 + r)))
    _close("ige_gap", data[:, 5], 0.5 * np.log((1.0 - r) / (1.0 + r)), atol=1e-15)
    return len(data)


def _check_prolongation(p, text, fmt) -> int:
    data, extra = _parse_table(text, fmt, TABLE_COLUMNS["prolongation"])
    r = np.linspace(p["r_min"], p["r_max"], p["n"])
    _close("r", data[:, 0], r, rtol=1e-12)
    A0 = _a0(p)
    X = A0 * p["tau0"]
    eta = 0.5 * math.exp(2.0 * X)
    r_bound = 2.0 / eta
    if fmt == "json":
        _close("r_bound", _field(extra, "r_bound"), r_bound)
    flagged = data[:, 3]
    past = r >= r_bound
    if not np.all(flagged[past] == 1.0):
        raise CheckError("a row at or past r_bound is not flagged")
    # the exact and approximate bounds differ by O(1/eta^2) just below
    # r_bound; rows well inside it must carry finite prolongations
    inside = r <= 0.9 * r_bound
    if not np.all(flagged[inside] == 0.0):
        raise CheckError("a row well inside r_bound is flagged")
    ri = r[inside]
    want = -np.log(1.0 - (1.0 / np.sqrt(1.0 - ri) - 1.0) * eta) / (2.0 * A0)
    _close("delta_approx", data[inside, 1], want, rtol=1e-8, atol=1e-14)
    return len(data)


def _check_scatter(p, text, fmt) -> int:
    rec = _parse_record(text, fmt)
    k0, s, R0 = p.get("k0", 1.0), p.get("sigma_k0", 0.1), p.get("R0", 10.0)
    want = math.sqrt(8.0 * (2.0 * k0 * k0 + s * s) * R0 * p["a_s"])
    _close("r_qm", _field(rec, "r_qm"), want)
    return 1


def check_battery(payload: dict, only: str | None = None) -> int:
    """Every check of a verification payload passed; returns the check count."""
    checks = payload.get("checks")
    if payload.get("passed") is not True or not checks:
        raise CheckError(f"verification payload not passed: {payload.get('passed')!r}")
    failed = [c.get("name") for c in checks if c.get("passed") is not True]
    if failed:
        raise CheckError(f"verification checks failed: {failed}")
    groups = {c.get("group") for c in checks}
    expected = {only} if only else set(BATTERY_GROUPS)
    if groups != expected:
        raise CheckError(f"verification groups {sorted(groups)}, expected {sorted(expected)}")
    return len(checks)


def _check_verify(p, text, fmt) -> int:
    return check_battery(_parse_json(text), p.get("only"))


_CHECKS = {
    "metric": _check_metric,
    "curvature": _check_curvature,
    "geodesic": _check_geodesic,
    "jacobi": _check_jacobi,
    "complexity": _check_complexity,
    "scatter": _check_scatter,
    "prolongation": _check_prolongation,
    "verify": _check_verify,
}


def check_output(op: dict, text: str) -> int:
    """Check one command's output text against the closed forms.

    ``op`` is the generated operation (``cmd``, ``fmt`` and the parameter
    dict ``p``). Returns the number of output rows.
    """
    return _CHECKS[op["cmd"]](op["p"], text, op["fmt"])
