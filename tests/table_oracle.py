"""Grid tables for the writers' properties, and the oracle's reading of their rows.

cli._Table holds a grid: its axes, innermost first, and one column per value, one
value per grid point.  expanded_rows reads that form one row at a time, by index
arithmetic with the first axis fastest, so a writer's table can be checked against
each value formatted on its own.
"""

import math

import numpy as np
from hypothesis import strategies as st

from spinframe.cli import _Table

# An axis is finite, as both reports' axes are (ratios, betas); a value may be any float.
FINITE_CORNERS = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308)
CORNERS = (*FINITE_CORNERS, math.inf, -math.inf, math.nan)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
VALUES = st.one_of(st.sampled_from(CORNERS), st.floats(), st.floats().map(np.float64))
# An axis of 1-3 values: numbers with duplicates and corners often, or bools.
AXES = st.one_of(st.lists(st.sampled_from(FINITE_CORNERS), min_size=1, max_size=3),
                 st.lists(st.one_of(FINITE, FINITE.map(np.float64)), min_size=1, max_size=3),
                 st.lists(st.booleans(), min_size=1, max_size=3))
# Every finite corner on three axes whose cells differ by position: a writer that merges
# -0.0 with 0.0, or runs an axis other than the first fastest, writes other bytes.
CORNER_AXES = ((-0.0, 0.0, 0.0, 5e-324), (1e308, -5e-324, -1e308, 1e308), (False, True))


def expanded_rows(table: _Table) -> list[tuple]:
    """Each row in full: its grid point's axis values, then its own values.  Row k
    sits at the grid point k modulo the grid's size, the first axis fastest."""
    size = math.prod(len(axis) for axis in table.axes)
    rows = []
    for k, values in enumerate(zip(*table.values)):
        point, rest = [], k % size
        for axis in table.axes:
            point.append(axis[rest % len(axis)])
            rest //= len(axis)
        rows.append((*point, *values))
    return rows


@st.composite
def grid_tables(draw, names):
    """A _Table of 1-3 axes (AXES) and 1-3 value columns (VALUES), each with one value
    per grid point.  names(k) draws k column names."""
    axes = tuple(draw(st.lists(AXES, min_size=1, max_size=3)))
    n = math.prod(map(len, axes))
    values = tuple(draw(st.lists(st.lists(VALUES, min_size=n, max_size=n),
                                 min_size=1, max_size=3)))
    return _Table(draw(names(len(axes) + len(values))), axes, values)
