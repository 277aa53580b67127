import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kcover.core import (
    Dataset,
    cost,
    dist,
    dist_to_set,
    index_subset,
    min_sq_dists,
    rng_stream,
)

from conftest import max_min_dist, nearest_member_loop


def test_dist_3_4_5_triangle():
    assert dist([0.0, 0.0], [3.0, 4.0]) == 5.0


def test_dist_identity_is_zero():
    p = [1.25, -3.5, 2.0]
    assert dist(p, p) == 0.0


def test_dist_unit_cube_diagonal():
    assert dist([1, 1, 1], [2, 2, 2]) == pytest.approx(math.sqrt(3.0), rel=1e-12)


def test_dist_dimension_mismatch():
    with pytest.raises(ValueError):
        dist([0.0], [0.0, 1.0])


def test_dist_to_set_nearest_of_two():
    data = Dataset([[1.0], [10.0]])
    d, idx = dist_to_set([0.0], [0, 1], data)
    assert d == 1.0 and idx == 0


def test_dist_to_set_member_is_zero():
    data = Dataset([[2.0, 2.0], [5.0, 5.0]])
    d, idx = dist_to_set(data.row(1), [0, 1], data)
    assert d == 0.0 and idx == 1


def test_dist_to_set_brute_force_pair():
    # p=5 against rows {0, 9}: nearest by direct comparison of both distances
    data = Dataset([[0.0], [9.0]])
    expected = min((abs(5.0 - v), i) for i, v in enumerate([0.0, 9.0]))
    d, idx = dist_to_set([5.0], [0, 1], data)
    assert (d, idx) == expected == (4.0, 1)


def test_dist_to_set_tie_breaks_low_index():
    data = Dataset([[1.0], [3.0], [1.0]])
    d, idx = dist_to_set([2.0], [1, 2], data)
    assert d == 1.0 and idx == 1
    d, idx = dist_to_set([0.0], [0, 2], data)
    assert d == 1.0 and idx == 0


def test_dist_to_set_rejects_empty_subset():
    data = Dataset([[0.0]])
    with pytest.raises(ValueError):
        dist_to_set([0.0], [], data)


def test_cost_two_points_one_center():
    data = Dataset([[0.0], [3.0]])
    assert cost(data, [1.0]) == 2.0  # explicit center coordinates


def test_cost_zero_when_centers_are_all_points():
    data = Dataset([[0.0, 1.0], [2.0, 3.0], [-1.0, 0.5]])
    assert cost(data, [0, 1, 2]) == 0.0


def test_cost_line_brute_force():
    data = Dataset([[0.0], [1.0], [10.0]])
    assert cost(data, [0, 2]) == max_min_dist(data.coords, [0, 2]) == 1.0


def test_cost_rejects_empty_centers():
    data = Dataset([[0.0]])
    with pytest.raises(ValueError):
        cost(data, np.empty(0, dtype=np.int64))


def test_cost_zero_iff_rows_covered_exactly():
    rng = np.random.default_rng(7)
    coords = rng.normal(size=(12, 3))
    data = Dataset(coords)
    assert cost(data, np.arange(12)) == 0.0
    # dropping any row that is not a duplicate makes the cost positive
    assert cost(data, np.arange(1, 12)) > 0.0


finite_points = hnp.arrays(
    np.float64,
    st.integers(1, 6),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_triangle_inequality(data):
    d = data.draw(st.integers(1, 6))
    coord = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    pts = [np.array(data.draw(st.lists(coord, min_size=d, max_size=d))) for _ in range(3)]
    p, q, r = pts
    assert dist(p, r) <= dist(p, q) + dist(q, r) + 1e-9 * (1.0 + dist(p, r))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cost_monotone_under_added_center(data):
    n = data.draw(st.integers(2, 20))
    d = data.draw(st.integers(1, 4))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    ds = Dataset(rng.normal(size=(n, d)))
    k = data.draw(st.integers(1, n - 1))
    base = rng.choice(n, size=k, replace=False)
    extra = data.draw(st.integers(0, n - 1))
    widened = np.unique(np.append(base, extra))
    assert cost(ds, widened) <= cost(ds, base) + 1e-12


def test_dataset_is_immutable_and_shaped():
    data = Dataset([[0.0, 1.0], [2.0, 3.0]])
    assert (data.n, data.d) == (2, 2)
    with pytest.raises(ValueError):
        data.coords[0, 0] = 5.0


def test_dataset_rejects_non_finite():
    with pytest.raises(ValueError):
        Dataset([[np.inf, 0.0]])
    with pytest.raises(ValueError):
        Dataset(np.empty((0, 2)))


def test_dataset_take_copies_rows():
    data = Dataset([[0.0], [1.0], [2.0]])
    sub = data.take([2, 0])
    assert sub.coords.tolist() == [[0.0], [2.0]]  # canonical sorted order


def test_index_subset_sorts_and_dedups():
    out = index_subset([3, 1, 3, 0], 5)
    assert out.tolist() == [0, 1, 3]
    with pytest.raises(ValueError):
        index_subset([5], 5)
    with pytest.raises(ValueError):
        index_subset([-1], 5)


def test_min_sq_dists_matches_direct_computation():
    rng = np.random.default_rng(3)
    ds = Dataset(rng.normal(size=(30, 4)))
    centers = [4, 11, 25]
    got = min_sq_dists(ds, np.asarray(centers))
    assert np.array_equal(got, nearest_member_loop(ds.coords, ds.coords[centers])[1])
    # the direct form sums squares in another order, so it agrees to rounding
    want = np.min(
        [((ds.coords - ds.coords[c]) ** 2).sum(axis=1) for c in centers], axis=0
    )
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_rng_stream_determinism_and_isolation():
    a = rng_stream(17, 1, 2).normal(size=5)
    b = rng_stream(17, 1, 2).normal(size=5)
    c = rng_stream(17, 1, 3).normal(size=5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        rng_stream(-1)
    with pytest.raises(ValueError):
        rng_stream(2**64)
