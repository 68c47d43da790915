"""``cli.emit`` writes the same text as the per-cell formatting it replaced.

``cell_emit`` formats every cell on its own; ``emit`` formats a CSV with one
printf template per call, chosen per column from the types of its cells. On
generated columns of every cell type a row can hold, alone and mixed, both
must give the same text, or fail with the same error type (JSON has no
encoding for numpy integers). Generation is derandomized so the suite is
repeatable.
"""

import contextlib
import io
import math
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import cell_emit
from qrepsim.cli import emit
from qrepsim.config import Config

EXACT = settings(max_examples=100, deadline=None, derandomize=True, database=None)

EDGE_FLOATS = (
    -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-308, 1e308, -1e308, sys.float_info.max
)
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
BIG_INTS = (2**63, -(2**63) - 1, 2**64 + 1, 10**30, -(10**30))
# cell strategies by column kind; "mixed" draws each cell from any kind
CELLS = {
    "float": floats,
    "float64": floats.map(np.float64),
    "float_and_float64": st.one_of(floats, floats.map(np.float64)),
    "float32": st.floats(width=32).map(np.float32),
    "int": st.one_of(st.sampled_from(BIG_INTS), st.integers()),
    "int64": st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "bool": st.booleans(),
    "str": st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
}
CELLS["int_and_float"] = st.one_of(CELLS["int"], floats)  # each type has a spec, but not one
CELLS["mixed"] = st.one_of(*CELLS.values())


@st.composite
def tables(draw):
    """(columns, rows): 1 to 6 columns of one kind each, and 0, 1 or many rows."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=6))
    n_rows = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 40)))
    cells = [draw(st.lists(CELLS[kind], min_size=n_rows, max_size=n_rows)) for kind in kinds]
    return [f"{kind}_{j}" for j, kind in enumerate(kinds)], list(zip(*cells))


def _outcome(write):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            write()
    except TypeError as exc:  # json.dumps on a numpy integer
        return type(exc)
    return out.getvalue()


@EXACT
@given(table=tables(), fmt=st.sampled_from(["csv", "json"]))
def test_emit_equals_per_cell_formatting(table, fmt):
    columns, rows = table
    config = Config()
    expected = _outcome(lambda: sys.stdout.write(cell_emit.render(fmt, columns, rows, config)))
    assert _outcome(lambda: emit("-", fmt, columns, rows, config)) == expected

