"""Array calls of the closed forms and the columnar table writer.

Each closed form used by a table command, and each geometry tensor, takes a
scalar or a numpy array; the scalar is the 0-d case of the same computation.
These properties pin that: element i of an array call equals the scalar call
on element i bit for bit, an array call warns once with the number of
affected elements, and a scalar prolongation report, its flag included, is
the array's element.
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

from gaussgeo import (battery, chaos, cli, complexity, curvature, errors, geodesics, models,
                      scattering)
from gaussgeo.errors import (
    DomainError,
    RegimeWarning,
    SaturationWarning,
)
from gaussgeo.geodesics import InitialConditions
from gaussgeo.models import ModelParams

ics = st.builds(
    lambda p0, ratio, tau0: InitialConditions(p0, ratio * p0, tau0),
    p0=st.floats(0.1, 10.0),
    ratio=st.floats(1e-4, 0.099),
    tau0=st.floats(0.2, 5.0),
)
correlations = st.floats(0.0, 0.99)
#: Fractions of a closed form's admissible range, mapped onto it per test.
fractions = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def _assert_elementwise(array_result, scalar_results):
    assert np.array_equal(_bits(array_result), _bits(scalar_results))


def _quietly(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args)


def _caught(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fn(*args)
    return caught


# ---------------------------------------------------------------------------
# array call == scalar call, element by element
# ---------------------------------------------------------------------------

def _path_cases(tau, r):
    """(tau, ModelParams) array arguments of the path forms: an array tau
    against a scalar r, and a tau column against a row of r; with the scalar
    points of each, in the flat order of the broadcast result."""
    for tau_arg, r_arg in ((tau, r[0]), (tau[:, None], np.array(r))):
        points = [a.ravel().tolist() for a in np.broadcast_arrays(tau_arg, r_arg)]
        yield tau_arg, ModelParams(r_arg), [(t, ModelParams(x)) for t, x in zip(*points)]


@settings(max_examples=40, deadline=None)
@given(ic=ics, r=st.lists(correlations, min_size=1, max_size=4), frac=fractions)
def test_geodesic_state_elementwise(ic, r, frac):
    # |A0 tau| up to 1000: beyond the clamp on some elements
    tau = np.array(frac) * 1000.0 / geodesics.amplitude_A0(ic)
    for tau_arg, params, points in _path_cases(tau, r):
        for fn in (geodesics.geodesic_corr, geodesics.joined_path):
            state = _quietly(fn, tau_arg, params, ic)
            scalar = [_quietly(fn, t, p, ic) for t, p in points]
            for name in ("mu1", "mu2", "sigma"):
                _assert_elementwise(getattr(state, name).ravel(),
                                    [getattr(s, name) for s in scalar])


@settings(max_examples=40, deadline=None)
@given(ic=ics, r=st.lists(correlations, min_size=1, max_size=4), frac=fractions)
def test_geodesic_derivatives_elementwise(ic, r, frac):
    tau = np.array(frac) * 1000.0 / geodesics.amplitude_A0(ic)
    for tau_arg, params, points in _path_cases(tau, r):
        for fn in (geodesics.geodesic_velocity, geodesics.geodesic_acceleration):
            array = _quietly(fn, tau_arg, params, ic)
            assert array.shape == (3,) + np.broadcast_shapes(tau_arg.shape, np.shape(params.r))
            scalar = [_quietly(fn, t, p, ic) for t, p in points]
            _assert_elementwise(array.reshape(3, -1).T, scalar)


@settings(max_examples=40, deadline=None)
@given(ic=ics, omega0=st.floats(0.1, 10.0), frac=fractions)
def test_jacobi_intensity_elementwise(ic, omega0, frac):
    A0 = geodesics.amplitude_A0(ic)
    tau = np.array(frac) * errors.ARG_CLAMP / A0
    scalar = []
    for t in tau.tolist():
        try:
            scalar.append(chaos.jacobi_intensity(t, omega0, A0))
        except DomainError:
            # frac = +-1 can round A0 * tau just past the overflow guard; the
            # array call must then reject the whole array
            with pytest.raises(DomainError):
                chaos.jacobi_intensity(tau, omega0, A0)
            return
    _assert_elementwise(chaos.jacobi_intensity(tau, omega0, A0), scalar)


def _mesh(tau, r):
    """The flat, tau-major (tau, r) mesh of a complexity table."""
    return np.repeat(tau, len(r)), np.tile(np.array(r, dtype=float), len(tau))


@settings(max_examples=40, deadline=None)
@given(ic=ics, r=st.lists(correlations, min_size=1, max_size=4), frac=fractions)
def test_complexity_elementwise(ic, r, frac):
    lam = chaos.lyapunov_exponent(geodesics.amplitude_A0(ic))
    # horizons in (0, the overflow guard)
    tau = (np.abs(np.array(frac)) * 0.998 + 1e-3) * errors.ARG_CLAMP / lam
    tau, r = _mesh(tau, r)
    points = list(zip(tau.tolist(), map(ModelParams, r.tolist())))
    for fn in (complexity.igc_closed, complexity.ige_closed):
        _assert_elementwise(
            _quietly(fn, tau, ModelParams(r), ic),
            [_quietly(fn, t, params, ic) for t, params in points],
        )
    for fn in (complexity.igc_ratio, complexity.ige_gap):
        _assert_elementwise(fn(ModelParams(r)), [fn(params) for _, params in points])


@settings(max_examples=40, deadline=None)
@given(ic=ics, frac=fractions)
def test_prolongation_elementwise_and_mask(ic, frac):
    r_bound = scattering.prolongation(ic, 0.0).r_bound
    # 0 up to twice the bound, and always the r = 0 row
    r = np.minimum(np.abs(np.array(frac + [0.0])) * 2.0 * r_bound, 0.99)
    rep = scattering.prolongation(ic, r)
    scalar = [scattering.prolongation(ic, x) for x in r.tolist()]
    assert rep.flagged.tolist() == [s.flagged for s in scalar]
    assert all(type(s.flagged) is bool for s in scalar)
    _assert_elementwise(
        np.stack([rep.delta, rep.delta_approx], axis=1),
        [(s.delta, s.delta_approx) for s in scalar],
    )
    assert rep.r_bound == r_bound
    assert all(s.r_bound == r_bound for s in scalar)


#: log10 sigma, and the (sigma, r) points of the geometry tests
log_sigmas = st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6)
GEOMETRY = (models.metric_corr3, models.metric_corr3_inverse, curvature.christoffel,
            curvature.riemann, curvature.ricci)
BUNDLE_FIELDS = ("christoffel", "riemann", "ricci", "scalar", "sectional", "weyl")


def _assert_fields_elementwise(array_result, scalar_results, names):
    for name in names:
        scalar = [getattr(s, name) for s in scalar_results]
        _assert_elementwise(np.broadcast_to(getattr(array_result, name), np.shape(scalar)),
                            scalar)


def _geometry_cases(sigma, r):
    """(sigma, r) array pairs: the flat mesh, an array sigma against a scalar
    r and the reverse; with the scalar points of each."""
    sigma, r = 10.0 ** np.array(sigma), np.array(r)
    mesh = np.repeat(sigma, len(r)), np.tile(r, len(sigma))
    for s_arg, r_arg in (mesh, (sigma, r[0]), (sigma[0], r)):
        points = np.broadcast_arrays(s_arg, r_arg)
        yield s_arg, ModelParams(r_arg), [
            (s, ModelParams(x)) for s, x in zip(points[0].tolist(), points[1].tolist())]


@settings(max_examples=40, deadline=None)
@given(sigma=log_sigmas, r=st.lists(correlations, min_size=1, max_size=4))
def test_geometry_tensors_elementwise(sigma, r):
    for s_arg, params, points in _geometry_cases(sigma, r):
        for fn in GEOMETRY:
            _assert_elementwise(fn(s_arg, params), [fn(*point) for point in points])
        _assert_fields_elementwise(curvature.bundle(s_arg, params),
                                   [curvature.bundle(*point) for point in points],
                                   BUNDLE_FIELDS)
        report = curvature.maximal_symmetry_check(s_arg, params)
        scalar = [curvature.maximal_symmetry_check(*point) for point in points]
        _assert_fields_elementwise(
            report, scalar, ("ricci_residual", "riemann_residual", "trace_residual"))
        _assert_elementwise(report.max_residual(), [rep.max_residual() for rep in scalar])


@settings(max_examples=20, deadline=None)
@given(sigma=log_sigmas, r=st.lists(correlations, min_size=1, max_size=4))
def test_curvature_fd_elementwise(sigma, r):
    for s_arg, params, points in _geometry_cases(sigma, r):
        _assert_fields_elementwise(battery.curvature_fd(s_arg, params),
                                   [battery.curvature_fd(*point) for point in points],
                                   BUNDLE_FIELDS)


def test_geometry_broadcasts_to_trailing_tensor_axes():
    sigma, params = np.array([[0.5], [2.0]]), ModelParams(np.array([0.0, 0.3, 0.9]))
    for fn in GEOMETRY:
        rank = fn(1.0, ModelParams(0.0)).ndim
        assert fn(sigma, params).shape == (2, 3) + (3,) * rank
    b = curvature.bundle(sigma, params)
    assert b.sectional.shape == (2, 3, 3, 3)
    assert curvature.maximal_symmetry_check(sigma, params).max_residual().shape == (2, 3)


@settings(max_examples=40, deadline=None)
@given(ic=ics, r=st.lists(correlations, min_size=1, max_size=4), frac=fractions)
def test_velocity_norm_contracted_elementwise(ic, r, frac):
    # |A0 tau| up to 20, inside the range where the metric stays finite
    tau = np.array(frac) * 20.0 / geodesics.amplitude_A0(ic)
    for tau_arg, params, points in _path_cases(tau, r):
        _assert_elementwise(
            chaos.velocity_norm_squared_contracted(params, ic, tau_arg).ravel(),
            [chaos.velocity_norm_squared_contracted(p, ic, t) for t, p in points])


def test_path_forms_broadcast_tau_against_r():
    # a tau column against a row of r, the components leading
    tau, params = np.array([[-0.5], [2.0]]), ModelParams(np.array([0.0, 0.3, 0.9]))
    ic = InitialConditions(1.0, 0.1)
    for fn in (geodesics.geodesic_corr, geodesics.joined_path):
        assert fn(tau, params, ic).as_array().shape == (3, 2, 3)
    for fn in (geodesics.geodesic_velocity, geodesics.geodesic_acceleration):
        assert fn(tau, params, ic).shape == (3, 2, 3)
    assert chaos.velocity_norm_squared_contracted(params, ic, tau).shape == (2, 3)
    # a scalar tau takes r's shape
    assert geodesics.geodesic_corr(0.5, params, ic).sigma.shape == (3,)


# ---------------------------------------------------------------------------
# one warning per array call, carrying the count
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(ic=ics, frac=fractions)
def test_clamp_warning_counts_clamped_elements(ic, frac):
    A0 = geodesics.amplitude_A0(ic)
    tau = np.array(frac) * 1000.0 / A0
    expected = int(np.count_nonzero(np.abs(A0 * tau) > errors.ARG_CLAMP))
    for fn in (geodesics.geodesic_corr, geodesics.joined_path,
               geodesics.geodesic_velocity, geodesics.geodesic_acceleration):
        caught = _caught(fn, tau, ModelParams(0.2), ic)
        if expected:
            assert [w.category for w in caught] == [SaturationWarning]
            assert caught[0].message.count == expected
        else:
            assert caught == []


@settings(max_examples=40, deadline=None)
@given(ic=ics, r=st.lists(correlations, min_size=1, max_size=4), frac=fractions)
def test_regime_warning_counts_early_horizons(ic, r, frac):
    lam = chaos.lyapunov_exponent(geodesics.amplitude_A0(ic))
    # lambda tau from 0.2 to 20.2: some below the asymptotic minimum of 5
    tau = (np.abs(np.array(frac)) * 20.0 + 0.2) / lam
    expected = int(np.count_nonzero(lam * tau < complexity.IGE_ASYMPTOTIC_MIN)) * len(r)
    # the flat mesh, and a tau column broadcast against a row of r
    for tau_arg, r_arg in (_mesh(tau, r), (tau[:, None], np.array(r))):
        caught = _caught(complexity.ige_closed, tau_arg, ModelParams(r_arg), ic)
        if expected:
            assert [w.category for w in caught] == [RegimeWarning]
            assert caught[0].message.count == expected
        else:
            assert caught == []


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
