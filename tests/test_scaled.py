"""The range test of `_elementwise.scaled`.

A spread product inside ``errors.SPREAD_RANGE`` forms the entries with no
entry test, which is safe only while every r-only table that the geometry
forms pass lies in [TABLE_MIN, TABLE_MAX] in magnitude, and each vanishing
entry at most TABLE_MAX. Every call site of ``scaled`` is reached here at r
from 0 to just below R_MAX and its tables are held to those bounds, so a new
table outside them fails. At a few ulps either side of each end of each
interval the range-tested path must give the bits, or the refusal message,
of the guarded path.
"""

import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from gaussgeo import _elementwise, curvature, models
from gaussgeo.errors import R_MAX, SPREAD_RANGE, TABLE_MAX, TABLE_MIN, DomainError
from gaussgeo.models import ModelParams

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "gaussgeo").glob("*.py"))

#: each call site of scaled: (module, first line, last line)
SITES = sorted((path.stem, node.lineno, node.end_lineno) for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "scaled")

_R = np.array([0.0, 0.5, 0.9, math.nextafter(R_MAX, 0.0)])

#: a call of each geometry form at unit spreads and every r of _R
_FORMS = [
    *(lambda p, form=form: form(1.0, p) for form in (
        models.metric_corr3, models.metric_corr3_inverse, models.metric_corr3_determinant,
        models.metric_corr3_eigenvalues, curvature.christoffel, curvature.riemann,
        curvature.ricci, curvature.maximal_symmetry_check, curvature.bundle)),
    *(lambda p, form=form: form(1.0, 1.0, p) for form in (
        models.metric_corr4, models.metric_corr4_determinant, models.metric_corr4_eigenvalues)),
    lambda p: curvature.sectional(1.0, p, [1.0, 1.0, 0.5], [0.0, 1.0, -2.0]),
]


def test_every_table_lies_in_the_bounds_the_range_assumes(monkeypatch):
    calls = []

    def spy(power, table, *vanishing, **spreads):
        caller = sys._getframe(1)
        calls.append((Path(caller.f_code.co_filename).stem, caller.f_lineno, table, vanishing))
        return scaled(power, table, *vanishing, **spreads)

    scaled = _elementwise.scaled
    for module in (models, curvature):
        monkeypatch.setattr(module, "scaled", spy)
    for form in _FORMS:
        form(ModelParams(_R))
    reached = {site for site in SITES for stem, line, *_ in calls
               if stem == site[0] and site[1] <= line <= site[2]}
    assert sorted(reached) == SITES
    for stem, line, table, vanishing in calls:
        for t in table:
            assert np.all((TABLE_MIN <= np.abs(t)) & (np.abs(t) <= TABLE_MAX)), (stem, line, t)
        for v in vanishing:
            assert np.all(np.abs(v) <= TABLE_MAX), (stem, line, v)


def test_range_ends_lie_inside_the_normal_floats():
    # the intervals shrink as the power grows, and no end is subnormal
    ends = [SPREAD_RANGE[k] for k in range(1, 7)]
    assert all(0.0 < lo < 1.0 < hi < math.inf for lo, hi in ends)
    assert all(a[0] < b[0] and b[1] < a[1] for a, b in zip(ends, ends[1:]))


def _ulps(x, n):
    """x moved by n ulps."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


# the extreme tables the range assumes, with a vanishing entry at its largest and one at 0
_TABLE, _VANISHING = (TABLE_MIN, -TABLE_MAX), (TABLE_MAX, 0.0)


def _entries_or_message(fn, *args, **spreads):
    try:
        return [np.asarray(x).tobytes() for x in fn(*args, **spreads)]
    except DomainError as exc:
        return str(exc)


@pytest.mark.parametrize("power", [k * sign for k in range(1, 7) for sign in (1, -1)])
def test_range_tested_path_gives_the_guarded_bits_at_its_ends(monkeypatch, power):
    guarded = _elementwise._guarded
    taken = []

    def spy(*args):
        taken.append(args[1])
        return guarded(*args)

    monkeypatch.setattr(_elementwise, "_guarded", spy)
    lo, hi = SPREAD_RANGE[abs(power)]
    steps = range(-3, 4)
    inside = [_ulps(lo, n) for n in steps if n >= 0] + [_ulps(hi, n) for n in steps if n <= 0]
    outside = [_ulps(lo, n) for n in steps if n < 0] + [_ulps(hi, n) for n in steps if n > 0]
    far = [0.0, -0.0, -1.0, math.nan, math.inf, 5e-324, lo / 1e10, hi * 1e10]
    for s in [*inside, *outside, *far]:
        for spreads in ({"sigma": s}, {"sigma_x": s, "sigma_y": 1.0}, {"sigma": np.array([s, 1.0])}):
            taken.clear()
            got = _entries_or_message(_elementwise.scaled, power, _TABLE, *_VANISHING, **spreads)
            assert bool(taken) == (s not in inside), (s, spreads)
            product = math.prod(spreads.values())
            want = _entries_or_message(guarded, power, product, _TABLE, _VANISHING, spreads)
            assert got == want, (s, spreads)


def test_a_negative_pair_of_spreads_takes_the_guarded_path():
    # a product in range does not make each spread positive
    with pytest.raises(DomainError, match=r"sigma_x \* sigma_y must lie in"):
        _elementwise.scaled(-1, (1.0,), sigma_x=-2.0, sigma_y=-0.5)
