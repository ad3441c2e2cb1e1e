"""Helpers shared by the tests' tolerance gates."""

from __future__ import annotations

import math


def worst(*values: float) -> float:
    """The largest of values, or NaN when any of them is NaN.

    The built-in max() keeps its first argument unless a later one compares
    greater, and nothing compares greater than or less than NaN: max(0.0,
    nan) is 0.0. A gate that accumulates with max() would read a NaN error
    as a pass; accumulated through worst(), a NaN stays and fails the gate.
    """
    if any(math.isnan(value) for value in values):
        return math.nan
    return max(values)
