import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from padpkit.kernels import backend_name, local_maxima_1d, local_maxima_2d


def _loop_maxima_2d(v, thr):
    """Per-cell reference: circular rows, clipped columns, lexicographic ties.

    A cell must beat each neighbour (or tie one it wins against), so a NaN
    neighbour rejects it, as in the kernel.
    """
    m, k = v.shape
    rows, cols = [], []
    for i in range(m):
        for j in range(k):
            x = v[i, j]
            if not x > thr:
                continue
            if m > 1:
                up, down = v[(i - 1) % m, j], v[(i + 1) % m, j]
                if not (x > up or (x == up and i == 0)):
                    continue
                if not (x > down or (x == down and i != m - 1)):
                    continue
            if j > 0 and not x > v[i, j - 1]:
                continue
            if j < k - 1 and not x >= v[i, j + 1]:
                continue
            rows.append(i)
            cols.append(j)
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)


def _loop_maxima_1d(v, thr):
    """Per-cell reference: clipped edges, ties keep the smaller index."""
    n = v.shape[0]
    out = []
    for j in range(n):
        x = v[j]
        if not x > thr:
            continue
        if j > 0 and not x > v[j - 1]:
            continue
        if j < n - 1 and not x >= v[j + 1]:
            continue
        out.append(j)
    return np.array(out, dtype=np.int64)


def _cases(rng):
    yield rng.standard_normal((36, 101)), 0.0
    yield rng.standard_normal((3, 500)), 0.5
    # heavy exact ties
    yield rng.integers(0, 4, size=(20, 40)).astype(float), 0.5
    yield rng.integers(0, 3, size=(5, 5)).astype(float), -1.0
    yield np.zeros((4, 7)), 0.0
    # non-finite cells next to peaks, on plateaus and on the wrapped rows
    v = rng.integers(0, 4, size=(6, 12)).astype(float)
    v[0, 3] = v[5, 8] = v[2, 0] = np.nan
    v[3, 5] = v[3, 6] = v[0, 11] = np.inf
    v[4, 2] = v[1, 9] = -np.inf
    yield v, 0.5
    yield v, -np.inf


def test_backends_equivalent_2d():
    rng = np.random.default_rng(0)
    for values, thr in _cases(rng):
        r1, c1 = _loop_maxima_2d(values, thr)
        r2, c2 = local_maxima_2d(values, thr)
        assert r2.dtype == c2.dtype == np.int64
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(c1, c2)


# tie-heavy cells: a few integer levels plus the non-finite values
_CELLS = st.sampled_from([0.0, 1.0, 2.0, 3.0, np.nan, np.inf, -np.inf])


@st.composite
def _maps(draw):
    m, k = draw(st.integers(1, 36)), draw(st.integers(1, 40))
    return draw(hnp.arrays(np.float64, (m, k), elements=_CELLS))


@settings(max_examples=400, deadline=None)
@given(values=_maps(), thr=st.sampled_from([-np.inf, -1.0, 0.5, 1.5, 2.5, np.inf, np.nan]))
def test_local_maxima_2d_matches_per_cell_reference(values, thr):
    r1, c1 = _loop_maxima_2d(values, thr)
    r2, c2 = local_maxima_2d(values, thr)
    assert r2.dtype == c2.dtype == np.int64
    np.testing.assert_array_equal(r1, r2)
    np.testing.assert_array_equal(c1, c2)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 36),
    k=st.integers(1, 40),
    data=st.data(),
    background=st.sampled_from([0.0, -np.inf, np.nan]),
)
def test_sparse_candidates_on_the_map_edges(m, k, data, background):
    """A few cells above the threshold, pinned to the first/last row and column.

    The columns above the threshold then form a narrow span that touches
    the edges of the map, where the guard columns are clipped.
    """
    v = np.full((m, k), background)
    edge_rows = st.sampled_from(sorted({0, m - 1}))
    edge_cols = st.sampled_from(sorted({0, k - 1}))
    n = data.draw(st.integers(1, 4))
    for _ in range(n):
        i = data.draw(st.one_of(edge_rows, st.integers(0, m - 1)))
        j = data.draw(st.one_of(edge_cols, st.integers(0, k - 1)))
        v[i, j] = data.draw(st.sampled_from([1.0, 2.0, np.inf]))
    r1, c1 = _loop_maxima_2d(v, 0.5)
    r2, c2 = local_maxima_2d(v, 0.5)
    np.testing.assert_array_equal(r1, r2)
    np.testing.assert_array_equal(c1, c2)


@pytest.mark.parametrize("i, j", [(0, 0), (0, 9), (5, 0), (5, 9), (2, 0), (2, 9), (0, 4), (5, 4)])
def test_lone_candidate_on_an_edge(i, j):
    v = np.zeros((6, 10))
    v[i, j] = 2.0
    rows, cols = local_maxima_2d(v, 1.0)
    assert list(zip(rows, cols)) == [(i, j)]


def test_backends_equivalent_1d():
    rng = np.random.default_rng(1)
    for n in (1, 2, 50, 1001):
        v = rng.integers(0, 5, size=n).astype(float)
        if n >= 50:
            v[rng.choice(n, 6, replace=False)] = [np.nan, np.nan, np.inf, np.inf, -np.inf, 4.0]
        got = local_maxima_1d(v, 1.0)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(_loop_maxima_1d(v, 1.0), got)


def test_single_peak_2d():
    v = np.zeros((6, 9))
    v[2, 4] = 5.0
    rows, cols = local_maxima_2d(v, 1.0)
    assert list(rows) == [2] and list(cols) == [4]


def test_circular_rows():
    v = np.zeros((6, 5))
    v[0, 2] = 3.0
    v[5, 2] = 2.0  # wraps to be a neighbour of row 0
    rows, cols = local_maxima_2d(v, 0.5)
    assert list(zip(rows, cols)) == [(0, 2)]


def test_row_tie_keeps_lexicographically_smallest():
    v = np.zeros((6, 5))
    v[2, 2] = v[3, 2] = 4.0
    rows, cols = local_maxima_2d(v, 0.0)
    assert list(zip(rows, cols)) == [(2, 2)]
    # the wrap pair (last row, row 0) keeps row 0
    w = np.zeros((6, 5))
    w[0, 1] = w[5, 1] = 4.0
    rows, cols = local_maxima_2d(w, 0.0)
    assert list(zip(rows, cols)) == [(0, 1)]


def test_column_tie_keeps_left_cell():
    v = np.zeros((4, 6))
    v[1, 2] = v[1, 3] = 4.0
    rows, cols = local_maxima_2d(v, 0.0)
    assert list(zip(rows, cols)) == [(1, 2)]


def test_threshold_applies():
    v = np.zeros((4, 6))
    v[1, 2] = 1.0
    assert local_maxima_2d(v, 2.0)[0].size == 0
    assert local_maxima_2d(v, 0.5)[0].size == 1


def test_1d_endpoints_and_plateau():
    assert list(local_maxima_1d(np.array([5.0, 1.0, 0.0]), 0.5)) == [0]
    assert list(local_maxima_1d(np.array([0.0, 1.0, 5.0]), 0.5)) == [2]
    assert list(local_maxima_1d(np.array([0.0, 3.0, 3.0, 0.0]), 0.5)) == [1]
    assert list(local_maxima_1d(np.array([]), 0.0)) == []


def test_backend_name():
    assert backend_name() == "python"
