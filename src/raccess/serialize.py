"""Deterministic text output helpers shared by the trace and CLI writers."""

import json

import numpy as np

# Cells formatted and written per block of rows; a block holds at least
# one row, however wide.
_BLOCK_CELLS = 1 << 16


def fmt(x):
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))


def write_csv(path, header, columns):
    """Write equal-length columns under a header, each cell as its ``repr``.

    Each column is a 1-D array (or a sequence ``np.asarray`` turns into
    one) of ints, floats or bools. Cells are the ``repr`` of the column's
    ``tolist()`` values: floats in ``fmt``'s shortest round-trip form,
    ints as literals, and bools as 0 and 1. Rows go out in blocks of at
    most ``_BLOCK_CELLS`` cells. Each cell's ``repr`` is made as its row
    is joined, so only one block's values and text are held at a time,
    never a string per cell of the block.
    """
    columns = [np.asarray(col) for col in columns]
    columns = [col.view(np.uint8) if col.dtype == bool else col for col in columns]
    n_rows = len(columns[0]) if columns else 0
    step = max(_BLOCK_CELLS // max(len(columns), 1), 1)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for a in range(0, n_rows, step):
            cells = [map(repr, col[a : a + step].tolist()) for col in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
