"""``estimate_response_bytes`` sizes a response column by column, and
must give the byte count of the cell-by-cell walk it replaced — kept
here as the reference — on any table, short or long, of any cells."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.result_cache import CELLWISE_MAX_ROWS, estimate_response_bytes
from repro.engine.results import BrokerResponse, ExecutionStats, ResultTable


def cell_by_cell(response: BrokerResponse) -> int:
    """The estimator as it was: one ``isinstance`` per cell."""
    total = 256  # fixed response envelope
    table = response.table
    total += 16 * len(table.columns)
    for row in table.rows:
        total += 24  # tuple overhead
        for cell in row:
            if isinstance(cell, str):
                total += 48 + len(cell)
            else:
                total += 16
    for exc in (*response.exceptions, *response.recovered_exceptions):
        total += len(exc)
    return total


cells = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.none(), st.text(max_size=12),
    st.text(max_size=5).map(np.str_),  # a str subclass: still a string
    st.tuples(st.text(max_size=3)),    # a multi-value cell: not a string
)
#: Each column draws from one cell strategy (most real columns) or any.
column_cells = st.one_of(st.just(cells), st.sampled_from([
    st.integers(), st.floats(allow_nan=False), st.text(max_size=12)]))


@st.composite
def tables(draw):
    width = draw(st.integers(1, 4))
    kinds = [draw(column_cells) for __ in range(width)]
    num_rows = draw(st.sampled_from([0, 1, 2, CELLWISE_MAX_ROWS,
                                     CELLWISE_MAX_ROWS + 1, 40]))
    rows = [tuple(draw(kind) for kind in kinds) for __ in range(num_rows)]
    if rows and draw(st.booleans()):  # a ragged row
        rows[draw(st.integers(0, len(rows) - 1))] += (draw(cells),)
    return ResultTable(tuple(f"c{i}" for i in range(width)), rows)


@settings(max_examples=200, deadline=None)
@given(tables(), st.lists(st.text(max_size=20), max_size=2),
       st.lists(st.text(max_size=20), max_size=2))
def test_column_walk_counts_the_bytes_of_the_cell_walk(
        table, exceptions, recovered):
    response = BrokerResponse(table, ExecutionStats(), exceptions=exceptions,
                              recovered_exceptions=recovered)
    assert estimate_response_bytes(response) == cell_by_cell(response)
