"""Peak-search kernels: local maxima of a PADP and of a delay profile.

Each cell is compared with its neighbours through shifted slices of the
input, so no neighbour copies of the map are built.  The 2-D search first
finds the span of delay columns holding any cell above the threshold and
compares only that span (plus one guard column on each side), which on a
PADP is a few columns of the full delay axis.

Tie rule on plateaus: a cell survives an exact tie with a neighbour only if
its index tuple is lexicographically smaller, so each flat plateau yields a
deterministic representative.
"""

import numpy as np


def local_maxima_2d(values, threshold):
    """Indices of strict-ish local maxima of a 2-D map above ``threshold``.

    Axis 0 (rows) is circular, axis 1 (columns) is clipped at the edges.
    The neighbourhood is the 4-connected cross: both circular row
    neighbours at the same column and both column neighbours in the same
    row.  Returns ``(rows, cols)`` int arrays in row-major order.
    """
    v = np.asarray(values, dtype=np.float64)
    above = v > threshold
    cols = np.flatnonzero(above.any(axis=0))
    if cols.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # no column outside [first, last] holds a candidate; the guard column
    # on each side of that span is only compared against
    lo, hi = max(int(cols[0]) - 1, 0), min(int(cols[-1]) + 2, v.shape[1])
    v = v[:, lo:hi]
    keep = above[:, lo:hi]
    if v.shape[0] > 1:
        keep[1:] &= v[1:] > v[:-1]    # ties with the row above are lost,
        keep[0] &= v[0] >= v[-1]      # except by row 0 against the wrapped last row
        keep[:-1] &= v[:-1] >= v[1:]  # ties with the row below are won,
        keep[-1] &= v[-1] > v[0]      # except by the last row against the wrapped row 0
    keep[:, 1:] &= v[:, 1:] > v[:, :-1]    # ties with the left neighbour are lost
    keep[:, :-1] &= v[:, :-1] >= v[:, 1:]  # ties with the right neighbour are won
    rows, cols = np.nonzero(keep)
    cols = cols.astype(np.int64, copy=False)
    cols += lo
    return rows.astype(np.int64, copy=False), cols


def local_maxima_1d(values, threshold):
    """Indices of local maxima of a 1-D profile above ``threshold``.

    Edges are clipped (an endpoint only competes with its inner
    neighbour); exact ties keep the smaller index.
    """
    v = np.asarray(values, dtype=np.float64)
    keep = v > threshold
    keep[1:] &= v[1:] > v[:-1]
    keep[:-1] &= v[:-1] >= v[1:]
    return np.flatnonzero(keep).astype(np.int64, copy=False)


def backend_name():
    """Name of the kernel implementation, recorded with benchmark results."""
    return "python"
