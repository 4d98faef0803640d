"""Helpers for closed forms that take a scalar or a numpy array.

A scalar argument is the 0-d case of the array computation: the same
expressions run on it and the result comes back as a Python float. These
helpers keep that case cheap, since numpy's reductions and ``np.where``
cost microseconds on a scalar. `scaled` validates its spreads once, by
their product's range, before it computes, and tests the entries it forms
only for a product outside that range; `gather` picks its path by whether
any value is an array.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SPREAD_RANGE, require_normal

#: the slots of a, c and b in [[a, b, 0], [b, a, 0], [0, 0, c]], the form of
#: the corr3 metric, its inverse and Ricci
BLOCK_SLOTS = np.array([[1, 3, 0], [3, 1, 0], [0, 0, 2]])


def scalar_or_array(x):
    """A Python float for a 0-d result; arrays pass through unchanged."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def any_true(mask) -> bool:
    """Whether any element of a boolean scalar or array is true."""
    return bool(mask.any() if isinstance(mask, np.ndarray) else mask)


def gather(slots: np.ndarray, *values):
    """``(0.0, *values)[slots]`` at each point: each entry is a copy of its
    value. The values broadcast; their axes lead and the slot axes trail.
    With no array among the values it indexes one flat array, the cheaper
    path for a scalar call; an array value fills a zeroed array of points."""
    if not any(isinstance(value, np.ndarray) for value in values):
        return np.array((0.0, *values))[slots]
    # C-ordered, as the 0-d result: numpy's reductions sum in memory order
    entries = np.zeros(np.broadcast(*values).shape + (len(values) + 1,))
    for i, value in enumerate(values, 1):
        entries[..., i] = value
    return entries.take(slots, axis=-1)


def scaled(power: int, table, *vanishing, **spreads) -> list:
    """The r-only entries of ``table``, each in [TABLE_MIN, TABLE_MAX] in
    magnitude at every admitted r, and of ``vanishing``, none above
    TABLE_MAX, times the named spreads' product s to ``power``: each is
    multiplied, or for a negative power divided, by s*s (and s for an odd
    power) in turn, the same float operations on a scalar and an array.
    Inside ``SPREAD_RANGE[abs(power)]``, every spread positive, no table
    entry can leave the normal floats and none is tested; elsewhere
    `errors.require_normal` refuses the spreads by name, or admits them with
    the same bits."""
    s = math.prod(spreads.values())
    *others, _ = spreads.values()  # s > 0 and the others > 0 make the last > 0
    if _within(s, *SPREAD_RANGE[abs(power)]) and all(_within(x, 0.0, math.inf) for x in others):
        return _times(power, s, [*table, *vanishing])
    return _guarded(power, s, table, vanishing, spreads)


def _within(x, lo: float, hi: float) -> bool:
    # lo <= x <= hi at every element of a scalar or an array; NaN fails
    if isinstance(x, np.ndarray):
        return bool(((lo <= x) & (x <= hi)).all())
    return lo <= x <= hi


def _times(power: int, s, entries: list) -> list:
    # no s * s at power 1, where it may overflow though s does not
    for f in [s] if abs(power) == 1 else [s] * (power % 2) + [s * s] * (abs(power) // 2):
        try:
            entries = [t / f for t in entries] if power < 0 else [t * f for t in entries]
        except ZeroDivisionError:  # a float spread whose square is 0, where numpy gives inf
            entries = [math.inf] * len(entries)
    return entries


@np.errstate(all="ignore")  # a spread far from 1 leaves the floats; the guard refuses it
def _guarded(power: int, s, table, vanishing, spreads) -> list:
    # scaled's entries at any spreads, refused by name where a table entry is no normal float
    entries = _times(power, s, [*table, *vanishing])
    require_normal(entries[:len(table)], table, power, **spreads)
    return entries
