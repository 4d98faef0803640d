"""Helpers for closed forms that take a scalar or a numpy array.

A scalar argument is the 0-d case of the array computation: the same
expressions run on it and the result comes back as a Python float. These
helpers keep that case cheap, since numpy's reductions and ``np.where``
cost microseconds on a scalar.
"""

from __future__ import annotations

import numpy as np


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
        return np.stack(np.broadcast_arrays(0.0, *values), axis=-1).take(slots, axis=-1)
