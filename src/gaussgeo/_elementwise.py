"""Helpers for closed forms that take a scalar or a numpy array.

A scalar argument is the 0-d case of the array computation: the same
expressions run on it and the result comes back as a Python float. These
helpers keep that case cheap, since numpy's reductions and ``np.where``
cost microseconds on a scalar.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import require_normal

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
    value. The values broadcast; their axes lead and the slot axes trail."""
    try:
        return np.array((0.0, *values))[slots]
    except ValueError:  # arrays of points next to the scalar zero
        # C-ordered, as the 0-d result: numpy's reductions sum in memory order
        entries = np.zeros(np.broadcast(*values).shape + (len(values) + 1,))
        for i, value in enumerate(values, 1):
            entries[..., i] = value
        return entries.take(slots, axis=-1)


@np.errstate(all="ignore")  # a spread far from 1 leaves the floats; the guard refuses it
def scaled(power: int, table, *vanishing, **spreads) -> list:
    """The r-only entries of ``table``, nonzero at every admitted r, and of
    ``vanishing``, each at most a table entry in magnitude, times the named
    spreads' product s to ``power``: each is multiplied, or for a negative
    power divided, by s*s (and s for an odd power) in turn, the same float
    operations on a scalar and an array. `errors.require_normal` refuses the
    spreads where a table entry leaves the normal floats."""
    s = math.prod(spreads.values())
    factors = [s] * (power % 2) + [s * s] * (abs(power) // 2)
    entries = [*table, *vanishing]
    for f in factors:
        try:
            entries = [t / f for t in entries] if power < 0 else [t * f for t in entries]
        except ZeroDivisionError:  # a float spread whose square is 0, where numpy gives inf
            entries = [math.inf] * len(entries)
    require_normal(entries[:len(table)], table, power, **spreads)
    return entries
