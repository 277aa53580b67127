import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kcover import core
from kcover.core import (
    Dataset,
    column_extents,
    cost,
    first_occurrences,
    index_subset,
    rng_stream,
    sorted_distinct,
    sq_dists_to_point,
)

from conftest import max_min_dist


def dist(p, q) -> float:
    """Euclidean distance of two points, through the kernels' reference."""
    p = np.asarray(p, dtype=np.float64)
    return float(np.sqrt(sq_dists_to_point(p[None], np.asarray(q, dtype=np.float64))[0]))


def test_dist_3_4_5_triangle():
    assert dist([0.0, 0.0], [3.0, 4.0]) == 5.0


def test_dist_identity_is_zero():
    p = [1.25, -3.5, 2.0]
    assert dist(p, p) == 0.0


def test_dist_unit_cube_diagonal():
    assert dist([1, 1, 1], [2, 2, 2]) == pytest.approx(math.sqrt(3.0), rel=1e-12)


def test_cost_two_points_one_center():
    data = Dataset([[0.0], [3.0], [1.0]])
    assert cost(data, [2]) == 2.0  # the center is a row of its own


def test_cost_rejects_non_integer_centers():
    data = Dataset([[0.0], [1.0], [3.0]])
    with pytest.raises(ValueError):
        cost(data, [1.0])  # never truncated to row 1
    with pytest.raises(ValueError):
        cost(data, np.array([[1.0]]))
    with pytest.raises(ValueError):
        cost(data, np.array([True, False]))


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
    rng = np.random.default_rng(12)
    for _ in range(20):
        idx = rng.integers(0, 50, size=int(rng.integers(1, 200)))
        out = index_subset(idx, 50)
        assert out.dtype == np.int64 and out.tolist() == np.unique(idx).tolist()


def lexicographic_first(rows):
    """Reference dedup: np.unique over whole rows, first indices ascending."""
    return np.sort(np.unique(rows, axis=0, return_index=True)[1])


@st.composite
def duplicated_rows(draw):
    """Up to 300 rows of width 1, 2 or 20 drawn from at most 8 distinct ones.

    Floats draw from values that include both 0.0 and -0.0."""
    width = draw(st.sampled_from([1, 2, 20]))
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pool = rng.choice([0.0, -0.0, 1.5, -2.25], size=(draw(st.integers(1, 8)), width))
    else:
        pool = rng.integers(-3, 3, size=(draw(st.integers(1, 8)), width))
    return pool[rng.integers(0, pool.shape[0], size=n)]


@settings(max_examples=300, deadline=None)
@given(duplicated_rows())
def test_first_occurrences_matches_lexicographic_unique(rows):
    expect = lexicographic_first(rows)
    count, first = first_occurrences(rows)
    assert count == expect.size
    assert first.dtype == np.int64 and first.tolist() == expect.tolist()


@settings(max_examples=200, deadline=None)
@given(duplicated_rows(), st.integers(0, 300))
def test_first_occurrences_over_budget_count_is_a_lower_bound(rows, budget):
    expect = lexicographic_first(rows)
    exact = expect.size
    count, first = first_occurrences(rows, budget)
    if exact <= budget:
        assert count == exact and first.tolist() == expect.tolist()
    else:
        assert first is None and budget < count <= exact


@pytest.mark.parametrize("width", [1, 2, 20])
def test_first_occurrences_of_one_row(width):
    assert first_occurrences(np.full((1, width), -7))[1].tolist() == [0]
    assert first_occurrences(np.full((1, width), -0.0), budget=1)[1].tolist() == [0]
    assert first_occurrences(np.full((1, width), 2.5), budget=0) == (1, None)


def test_first_occurrences_with_colliding_keys(monkeypatch):
    # ten distinct rows under three keys: the key count is a strict lower
    # bound, and a key count within the budget still dedups exactly
    rows = np.arange(10, dtype=np.int64).reshape(-1, 1).repeat(2, axis=0)
    keys = core.row_keys
    monkeypatch.setattr(core, "row_keys", lambda r: keys(r) % np.uint64(3))
    assert first_occurrences(rows, budget=2) == (3, None)
    assert first_occurrences(rows, budget=5) == (10, None)
    count, first = first_occurrences(rows, budget=10)
    assert count == 10 and first.tolist() == list(range(0, 20, 2))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=200))
def test_sorted_distinct_matches_unique(values):
    values = np.array(values, dtype=np.int64)
    assert sorted_distinct(values).tolist() == np.unique(values).tolist()


@pytest.mark.parametrize("shape", [
    (1000 + 7, 2),   # n not a multiple of the 512-row group
    (1, 3),
    (5000, 1),
    (3, 1500),       # d > 1024, so a group is one row
    (2048, 8),       # n a multiple of the group, no tail
    (100, 20),       # fewer rows than one group
])
def test_column_extents_match_axis_reductions(shape):
    rng = np.random.default_rng(shape[0] * 7 + shape[1])
    coords = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape[1])
    lo, hi = column_extents(coords)
    assert np.array_equal(lo, coords.min(axis=0))
    assert np.array_equal(hi, coords.max(axis=0))
    assert lo.shape == hi.shape == (shape[1],)


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 1200), st.integers(1, 4)),
                  elements=st.sampled_from([-3.5, -1.0, -0.0, 0.0, 2.0, 1e300, -1e-300])))
def test_column_extents_mixed_signs(coords):
    # compared by value: a column of 0.0 and -0.0 may report either
    lo, hi = column_extents(coords)
    assert np.array_equal(lo, coords.min(axis=0))
    assert np.array_equal(hi, coords.max(axis=0))


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
