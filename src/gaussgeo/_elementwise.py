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

