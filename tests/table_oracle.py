"""Grid tables for the writers' properties, and the oracle's reading of their rows.

cli._Table holds a grid: its axes, innermost first, and one row of values per grid
point.  expanded_rows reads that form one row at a time, by index arithmetic with
the first axis fastest, so a writer's table can be checked against each value
formatted on its own.
"""

import math

import numpy as np
from hypothesis import strategies as st

from spinframe.cli import _Table

CORNERS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308)
NUMBERS = st.one_of(st.sampled_from(CORNERS), st.floats(), st.floats().map(np.float64),
                    st.integers(-2**53, 2**53))
# An axis of 1-3 values: numbers with duplicates and corners often, or bools.
AXES = st.one_of(st.lists(st.sampled_from(CORNERS), min_size=1, max_size=3),
                 st.lists(NUMBERS, min_size=1, max_size=3),
                 st.lists(st.booleans(), min_size=1, max_size=3))
# Every corner on three axes whose cells differ by position: a writer that merges
# -0.0 with 0.0, or runs an axis other than the first fastest, writes other bytes.
CORNER_AXES = ((-0.0, 0.0, 0.0, 5e-324), (math.inf, -math.inf, math.nan, 1e308), (False, True))


def expanded_rows(table: _Table) -> list[tuple]:
    """Each row in full: its grid point's axis values, then its own values.  Row k
    sits at the grid point k modulo the grid's size, the first axis fastest."""
    size = math.prod(len(axis) for axis in table.axes)
    rows = []
    for k, values in enumerate(table.rows):
        point, rest = [], k % size
        for axis in table.axes:
            point.append(axis[rest % len(axis)])
            rest //= len(axis)
        rows.append((*point, *values))
    return rows


@st.composite
def grid_tables(draw, value_rows, names):
    """A _Table of 0-3 axes (AXES).  value_rows(n) draws (width, rows): n rows of
    values, n the grid's size, or 0-6 with no axes.  names(k) draws k column names."""
    axes = tuple(draw(st.lists(AXES, max_size=3)))
    n = math.prod(map(len, axes)) if axes else draw(st.integers(0, 6))
    width, rows = draw(value_rows(n))
    return _Table(draw(names(len(axes) + width)), axes, rows)
