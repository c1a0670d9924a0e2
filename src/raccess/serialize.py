"""Deterministic text output helpers shared by the trace and CLI writers."""

import json


def fmt(x):
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))


def write_csv(path, header, rows):
    """Write rows under a header, each cell as its ``repr``, full precision.

    Cells must be Python ints and floats, as ``ndarray.tolist()`` gives:
    ``repr`` of a float is ``fmt``'s shortest round-trip form, but a bool
    would print as ``True`` and a NumPy scalar as ``np.float64(...)``.
    """
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
