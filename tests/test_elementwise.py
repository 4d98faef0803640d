"""Array calls of the table closed forms and the columnar table writer.

Each closed form used by a table command takes a scalar or a numpy array;
the scalar is the 0-d case of the same computation. These properties pin
that: element i of an array call equals the scalar call on element i bit
for bit, an array call warns once with the number of affected elements,
and a scalar prolongation report, its flag included, is the array's element.
The columnar writer must give the bytes of the row-at-a-time formatting it
replaced, which is kept here as the reference.
"""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussgeo import chaos, cli, complexity, geodesics, scattering
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

@settings(max_examples=40, deadline=None)
@given(ic=ics, r=correlations, frac=fractions)
def test_geodesic_state_elementwise(ic, r, frac):
    # |A0 tau| up to 1000: beyond the clamp on some elements
    tau = np.array(frac) * 1000.0 / geodesics.amplitude_A0(ic)
    params = ModelParams(r)
    for fn in (geodesics.geodesic_corr, geodesics.joined_path):
        state = _quietly(fn, tau, params, ic)
        scalar = [_quietly(fn, t, params, ic) for t in tau.tolist()]
        for name in ("mu1", "mu2", "sigma"):
            _assert_elementwise(getattr(state, name), [getattr(s, name) for s in scalar])


@settings(max_examples=40, deadline=None)
@given(ic=ics, r=correlations, frac=fractions)
def test_geodesic_derivatives_elementwise(ic, r, frac):
    tau = np.array(frac) * 1000.0 / geodesics.amplitude_A0(ic)
    params = ModelParams(r)
    for fn in (geodesics.geodesic_velocity, geodesics.geodesic_acceleration):
        array = _quietly(fn, tau, params, ic)
        assert array.shape == (3, len(tau))
        scalar = [_quietly(fn, t, params, ic) for t in tau.tolist()]
        _assert_elementwise(array.T, scalar)


@settings(max_examples=40, deadline=None)
@given(ic=ics, omega0=st.floats(0.1, 10.0), frac=fractions)
def test_jacobi_intensity_elementwise(ic, omega0, frac):
    A0 = geodesics.amplitude_A0(ic)
    tau = np.array(frac) * geodesics.ARG_CLAMP / A0
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


@settings(max_examples=40, deadline=None)
@given(ic=ics, r=correlations, frac=fractions)
def test_complexity_elementwise(ic, r, frac):
    lam = 2.0 * geodesics.amplitude_A0(ic)
    # horizons in (0, the overflow guard)
    tau = (np.abs(np.array(frac)) * 0.998 + 1e-3) * complexity.LAMBDA_TAU_MAX / lam
    params = ModelParams(r)
    for fn in (complexity.igc_closed, complexity.ige_closed):
        _assert_elementwise(
            _quietly(fn, tau, params, ic),
            [_quietly(fn, t, params, ic) for t in tau.tolist()],
        )


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


# ---------------------------------------------------------------------------
# one warning per array call, carrying the count
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(ic=ics, frac=fractions)
def test_clamp_warning_counts_clamped_elements(ic, frac):
    A0 = geodesics.amplitude_A0(ic)
    tau = np.array(frac) * 1000.0 / A0
    expected = int(np.count_nonzero(np.abs(A0 * tau) > geodesics.ARG_CLAMP))
    for fn in (geodesics.geodesic_corr, geodesics.joined_path,
               geodesics.geodesic_velocity, geodesics.geodesic_acceleration):
        caught = _caught(fn, tau, ModelParams(0.2), ic)
        if expected:
            assert [w.category for w in caught] == [SaturationWarning]
            assert caught[0].message.count == expected
        else:
            assert caught == []


@settings(max_examples=40, deadline=None)
@given(ic=ics, frac=fractions)
def test_regime_warning_counts_early_horizons(ic, frac):
    lam = 2.0 * geodesics.amplitude_A0(ic)
    # lambda tau from 0.2 to 20.2: some below the asymptotic minimum of 5
    tau = (np.abs(np.array(frac)) * 20.0 + 0.2) / lam
    expected = int(np.count_nonzero(lam * tau < complexity.IGE_ASYMPTOTIC_MIN))
    caught = _caught(complexity.ige_closed, tau, ModelParams(0.3), ic)
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
        lines += [",".join(cli._fmt(row[c]) for c in names) for row in rows]
        return "\n".join(lines) + "\n"
    payload = {"columns": names, "rows": [{c: row[c] for c in names} for row in rows]}
    if extra:
        payload.update(extra)
    payload["warnings"] = warn_list or []
    return json.dumps(cli._no_negzero(payload), indent=2) + "\n"


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
