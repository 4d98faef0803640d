"""Broadcast array calls of the closed forms and the columnar table writer.

The array contract of each input alone, that element i of an array call is
the scalar call on element i bit for bit, that a refused element refuses
the array and that an array call warns once per category with the number
of affected elements, is derived from the valid calls in
tests/test_api_surface.py. Here a column of one input against a row of
another gives the broadcast shape, the components of a path leading and a
tensor's axes trailing, and each point of it holds the bits of the scalar
call there.
The columnar writer must give the bytes of the row-at-a-time formatting it
replaced, which is kept here as the reference, also where a forked child
formats the second half of a large table; no table call leaves a child.
"""

import contextlib
import io
import json
import math
import os
import signal
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussgeo import battery, chaos, cli, complexity, curvature, geodesics, models
from gaussgeo.errors import RegimeWarning
from gaussgeo.geodesics import InitialConditions
from gaussgeo.models import Macrostate3, ModelParams


def _values(result) -> np.ndarray:
    return np.asarray(result.as_array() if isinstance(result, Macrostate3) else result)


def _assert_each_point(call, x, r, shape, at=0):
    """``call(x, r)`` for a column x against a row r has ``shape``, its two
    point axes at ``at``, and at each point the bits of the scalar call."""
    points = np.broadcast_arrays(x, r)
    scalar = np.array([_values(call(*p)) for p in zip(*(a.ravel().tolist() for a in points))])
    expected = np.moveaxis(scalar.reshape(points[0].shape + scalar.shape[1:]), (0, 1),
                           (at, at + 1))
    array = _values(call(x, r))
    assert array.shape == expected.shape == shape
    assert (array.dtype, array.tobytes()) == (expected.dtype, expected.tobytes())


def test_path_forms_broadcast_tau_against_r():
    # a tau column against a row of r, the components leading; libm's pow
    # rounds 0.7786204316383821**2 one ulp away from r * r
    ic, r = InitialConditions(1.0, 0.1), np.array([0.0, 0.3, 0.7786204316383821, 0.9])
    tau = np.array([[-0.5], [0.5], [2.0]])
    for fn in (geodesics.geodesic_corr, geodesics.joined_path,
               geodesics.geodesic_velocity, geodesics.geodesic_acceleration):
        _assert_each_point(lambda t, x: fn(t, ModelParams(x), ic), tau, r, (3, 3, 4), at=1)
    _assert_each_point(lambda t, x: chaos.velocity_norm_squared_contracted(ModelParams(x), ic, t),
                       tau, r, (3, 4))
    # horizons after the collision, at lambda*tau = 2.65 and 10.6
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)  # counted below
        for fn in (complexity.igc_closed, complexity.ige_closed, battery.igc_gauss):
            _assert_each_point(lambda t, x: fn(t, ModelParams(x), ic), tau[1:], r, (2, 4))
    # one warning, counting the early elements of the broadcast result
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        complexity.ige_closed(tau[1:], ModelParams(r), ic)
    assert [(type(w.message), w.message.count) for w in caught] == [(RegimeWarning, 4)]
    # a scalar tau takes r's shape
    assert geodesics.geodesic_corr(0.5, ModelParams(r), ic).sigma.shape == (4,)


def test_geometry_broadcasts_to_trailing_tensor_axes():
    # a sigma column against a row of r, the tensor axes trailing
    sigma, r = np.array([[0.5], [2.0]]), np.array([0.0, 0.3, 0.9])
    for fn in (models.metric_corr3, models.metric_corr3_inverse, curvature.christoffel,
               curvature.riemann, curvature.ricci):
        rank = fn(1.0, ModelParams(0.0)).ndim
        _assert_each_point(lambda s, x: fn(s, ModelParams(x)), sigma, r, (2, 3) + (3,) * rank)
    _assert_each_point(
        lambda s, x: curvature.maximal_symmetry_check(s, ModelParams(x)).max_residual(),
        sigma, r, (2, 3))
    assert curvature.bundle(sigma, ModelParams(r)).sectional.shape == (2, 3, 3, 3)


# ---------------------------------------------------------------------------
# columnar writer == row-at-a-time reference
# ---------------------------------------------------------------------------

def _reference_table(columns, fmt, extra, warn_list):
    """The row-at-a-time formatting the columnar writer replaced."""
    names = list(columns)
    rows = [dict(zip(names, values))
            for values in zip(*(c.tolist() for c in columns.values()))]
    if fmt == "csv":
        lines = [",".join(names)]
        # ints of up to 1e9 print alike as floats; adding 0.0 turns -0.0 into 0.0
        lines += [",".join(format(row[c] + 0.0, ".17g") for c in names) for row in rows]
        return "\n".join(lines) + "\n"

    def no_negzero(v):  # floats only, so that int columns still print as ints
        return v + 0.0 if isinstance(v, float) else v

    payload = {"columns": names, "rows": [{c: no_negzero(row[c]) for c in names} for row in rows]}
    payload.update({k: no_negzero(v) for k, v in extra.items()})
    payload["warnings"] = warn_list or []
    return json.dumps(payload, indent=2) + "\n"


specials = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, 5e-324])
table_floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True), specials)


@st.composite
def tables(draw):
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(["float", "int"]), min_size=1, max_size=5))
    columns = {}
    for i, kind in enumerate(kinds):
        if kind == "float":
            values = draw(st.lists(table_floats, min_size=n, max_size=n))
            columns[f"c{i}"] = np.array(values, dtype=float)
        else:
            values = draw(st.lists(st.integers(-10**9, 10**9), min_size=n, max_size=n))
            columns[f"c{i}"] = np.array(values, dtype=np.int64)
    extra = draw(st.dictionaries(st.sampled_from(["r_bound", "lambda", "x_y"]),
                                 table_floats, max_size=3))
    warn_list = draw(st.lists(st.text(max_size=20), max_size=3))
    return columns, extra, warn_list


@settings(max_examples=200, deadline=None)
@given(table=tables(), fmt=st.sampled_from(["csv", "json"]))
def test_columnar_writer_matches_row_reference(table, fmt):
    columns, extra, warn_list = table
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_table(columns, fmt, None, extra=extra, warn_list=warn_list)
    assert out.getvalue() == _reference_table(columns, fmt, extra, warn_list)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_SPLIT = cli._SPLIT_ROWS


@pytest.mark.parametrize("n", [_SPLIT - 1, _SPLIT, _SPLIT + 1, 2 * _SPLIT + 1])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_split_writer_matches_row_reference(monkeypatch, tmp_path, n, fmt, to_file):
    rng = np.random.default_rng(n)
    specials = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324])
    columns = {"x": rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
               "special": rng.choice(specials, n),
               "flag": rng.integers(-10**9, 10**9, n)}
    extra, warn_list = {"r_bound": -0.0}, ["a warning"]
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    out = io.StringIO()
    path = tmp_path / "table"
    with contextlib.redirect_stdout(out):
        cli._emit_table(columns, fmt, str(path) if to_file else None, extra, warn_list)
    _assert_no_child_left()
    assert len(forks) == (n >= _SPLIT)
    got = path.read_bytes() if to_file else out.getvalue().encode()
    assert got == _reference_table(columns, fmt, extra, warn_list).encode()


def _numbered(lo, hi):
    return "".join(f"{i:015d}\n" for i in range(lo, hi))


def _numbered_rows(in_child, fail):
    """`_numbered` as a formatter that calls ``fail`` in the child alone, or
    in the parent alone; half of 4 * _SPLIT_ROWS lines is more than a pipe's
    64 KiB buffer, so a child writing its half blocks until it is read."""
    parent = os.getpid()

    def rows(lo, hi):
        if (os.getpid() != parent) == in_child:
            fail()
        return _numbered(lo, hi)

    return rows


def _raise():
    raise RuntimeError("formatter failed")


@pytest.mark.parametrize("fail", [_raise, lambda: os.kill(os.getpid(), signal.SIGKILL)],
                         ids=["raises", "killed"])
def test_failed_child_leaves_the_parent_to_format_its_half(fail):
    n = 4 * _SPLIT
    parts = cli._in_two(_numbered_rows(True, fail), n)
    _assert_no_child_left()
    assert len(parts) == 2
    assert "".join(parts) == _numbered(0, n)


def test_failed_fork_leaves_this_process_to_format_both_halves(monkeypatch):
    def fork():
        raise OSError("fork failed")

    monkeypatch.setattr(os, "fork", fork)
    n = 4 * _SPLIT
    parts = cli._in_two(_numbered_rows(True, _raise), n)
    assert "".join(parts) == _numbered(0, n)


def test_failing_parent_raises_and_reaps_a_child_blocked_on_the_pipe():
    def timeout(*_):
        raise TimeoutError("the parent waited for a child blocked on the pipe")

    handler = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(20)
    try:
        with pytest.raises(RuntimeError, match="formatter failed"):
            cli._in_two(_numbered_rows(False, _raise), 4 * _SPLIT)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    _assert_no_child_left()
