"""Peak-search kernels: local maxima of a PADP and of a delay profile.

Each cell is compared with its neighbours through shifted slices of the
input, so no neighbour copies of the map are built.

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
    keep = v > threshold
    if v.shape[0] > 1:
        keep[1:] &= v[1:] > v[:-1]    # ties with the row above are lost,
        keep[0] &= v[0] >= v[-1]      # except by row 0 against the wrapped last row
        keep[:-1] &= v[:-1] >= v[1:]  # ties with the row below are won,
        keep[-1] &= v[-1] > v[0]      # except by the last row against the wrapped row 0
    keep[:, 1:] &= v[:, 1:] > v[:, :-1]    # ties with the left neighbour are lost
    keep[:, :-1] &= v[:, :-1] >= v[:, 1:]  # ties with the right neighbour are won
    rows, cols = np.nonzero(keep)
    return rows.astype(np.int64, copy=False), cols.astype(np.int64, copy=False)


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
