import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kcover.cli import EXIT_USAGE, main
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
from kcover.covering import eval_hash_batch, sample_hash
from kcover.datasets import SyntheticSpec, generate_synthetic
from kcover.neighbor import ExactOracle
from kcover.solver import evaluate_on_full, gonzalez

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


def test_row_indices_must_be_integers(tmp_path, capsys):
    # a float or bool index never truncates to a row, at any entry point
    data = Dataset(np.arange(5.0))
    sol = gonzalez(data.take([0, 4]), 2)
    for bad in ([0.5, 1.9, 3.99], [True, False]):
        with pytest.raises(ValueError):
            data.take(bad)
        with pytest.raises(ValueError):
            ExactOracle(data, bad[:2])
        with pytest.raises(ValueError):
            evaluate_on_full(data, bad[:2], sol)
    with pytest.raises(ValueError, match="nonempty"):
        index_subset([], 5)
    data_path = tmp_path / "points.csv"
    data_path.write_text("0\n1\n2\n3\n4\n")
    coreset_path = tmp_path / "coreset.json"
    coreset_path.write_text(json.dumps({"indices": [0.9, 3.7]}))
    rc = main(["solve", "--input", str(data_path), "--k", "1", "--coreset", str(coreset_path),
               "--output", str(tmp_path / "sol.json")])
    assert rc == EXIT_USAGE
    capsys.readouterr()


def lexicographic_first(rows):
    """Reference dedup: np.unique over whole rows, first indices ascending."""
    return np.sort(np.unique(rows, axis=0, return_index=True)[1])


@st.composite
def duplicated_rows(draw):
    """Up to 300 rows of width 1, 2 or 20 drawn from at most 8 distinct ones.

    Floats draw from values that include both 0.0 and -0.0; wide integers
    from int64 min and max and from +-2**62, whose columns span more bits
    than one key holds beside the row index."""
    width = draw(st.sampled_from([1, 2, 20]))
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 8)), width)
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    kind = draw(st.sampled_from(["float", "small", "extreme", "spread"]))
    if kind == "float":
        pool = rng.choice([0.0, -0.0, 1.5, -2.25], size=shape)
    elif kind == "small":
        pool = rng.integers(-3, 3, size=shape)
    elif kind == "extreme":
        pool = rng.choice(np.array([lo, lo + 1, -1, 0, hi - 1, hi]), size=shape)
    else:
        pool = rng.choice(np.array([-2**62, -1, 0, 1, 2**62]), size=shape)
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
def test_first_occurrences_over_budget_count_is_exact(rows, budget):
    expect = lexicographic_first(rows)
    count, first = first_occurrences(rows, budget)
    assert count == expect.size
    if count <= budget:
        assert first.tolist() == expect.tolist()
    else:
        assert first is None


@st.composite
def small_int_rows(draw):
    """Up to 300 integer rows of width 1 to 6 with entries in [-r, r], r <= 4."""
    width = draw(st.integers(1, 6))
    n = draw(st.integers(1, 300))
    r = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(-r, r + 1, size=(n, width))


@settings(max_examples=300, deadline=None)
@given(small_int_rows(), st.integers(-3, 3))
def test_first_occurrences_packed_counts_are_exact(rows, offset):
    # small-int rows pack into one key, and the count is exact on both
    # sides of the budget
    _, index = np.unique(rows, axis=0, return_index=True)
    budget = max(0, index.size + offset)
    count, first = first_occurrences(rows, budget)
    assert count == index.size
    if count > budget:
        assert first is None
    else:
        assert first.dtype == np.int64 and first.tolist() == np.sort(index).tolist()


@pytest.mark.parametrize("width", [1, 2, 20])
def test_first_occurrences_of_one_row(width):
    assert first_occurrences(np.full((1, width), -7))[1].tolist() == [0]
    assert first_occurrences(np.full((1, width), -0.0), budget=1)[1].tolist() == [0]
    assert first_occurrences(np.full((1, width), 2.5), budget=0) == (1, None)


def test_first_occurrences_packed_box_edges():
    # a span of 2**61 cells times 4 rows (2 row bits) fills 63 bits exactly:
    # the largest key is 2**63 - 1
    count, first = first_occurrences(np.array([[0], [2**61 - 1], [0], [5]]))
    assert count == 3 and first.tolist() == [0, 1, 3]
    # one cell more needs a 64th bit, so the column goes in as slices
    count, first = first_occurrences(np.array([[0], [2**61], [0], [5]]))
    assert count == 3 and first.tolist() == [0, 1, 3]
    # a column from int64 min to max spans 2**64 cells; no span may wrap
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    count, first = first_occurrences(np.array([[lo, 0], [hi, 0], [lo, 0], [hi, 1]]))
    assert count == 3 and first.tolist() == [0, 1, 3]
    # the second column goes in as its high 59 bits, beside the first
    # column's 2 groups, and then as its low 5 bits. [0, lo + 160] and
    # [1, lo + 96] have high bits 5 and 3 and group ranks 1 and 3, which add
    # up alike: only cutting the high bits off the low ones keeps them apart
    rows = np.array([[0, lo], [0, lo + 160], [0, hi], [1, lo + 96]]).repeat(2, axis=0)
    count, first = first_occurrences(rows)
    assert count == 4 and first.tolist() == [0, 2, 4, 6]
    # one far row spreads 3000 rows over 2**62 cells
    rows = np.zeros((3000, 1), dtype=np.int64)
    rows[-1] = 2**62
    count, first = first_occurrences(rows)
    assert count == 2 and first.tolist() == [0, 2999]


def test_first_occurrences_packs_float_rows_that_fit():
    # +0.0 maps -0.0 to 0.0's bit pattern, and 1.0 and the next float up are
    # adjacent integers as bit patterns: both boxes are tiny
    zeros = np.array([[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]])
    assert first_occurrences(zeros)[1].tolist() == [0]
    up = np.nextafter(1.0, 2.0)
    rows = np.array([[up], [1.0], [up], [1.0], [1.0]])
    assert first_occurrences(rows)[1].tolist() == [0, 1]
    assert first_occurrences(rows, budget=1) == (2, None)


def test_first_occurrences_on_coarse_and_fine_cells():
    # 20k uniform rows in d = 2 hash to about 140 cells per axis and fit one
    # key; mixture rows in d = 20, at a scale far below the cluster spread,
    # span far more than 2**63 cells and fold over several rounds
    box, _ = generate_synthetic(SyntheticSpec("uniform_box", n=20_000, d=2, seed=1))
    mix, _ = generate_synthetic(SyntheticSpec("gaussian_mixture", n=2000, d=20,
                                              k_planted=10, seed=1))
    for cells in (eval_hash_batch(sample_hash(2, 0.01, 1), box.coords),
                  eval_hash_batch(sample_hash(20, 2.0, 1), mix.coords)):
        expect = lexicographic_first(cells)
        count, first = first_occurrences(cells, budget=20_000)
        assert count == expect.size and first.tolist() == expect.tolist()


def test_first_occurrences_budget_on_rows_spread_over_2_62():
    # ten distinct rows, each twice; the second column spreads them over
    # 2**62 cells. The count is exact below, at and above the budget
    values = np.arange(10, dtype=np.int64).repeat(2)
    rows = np.column_stack([values, (values % 2) << 62])
    assert first_occurrences(rows, budget=2) == (10, None)
    assert first_occurrences(rows, budget=9) == (10, None)
    count, first = first_occurrences(rows, budget=10)
    assert count == 10 and first.tolist() == list(range(0, 20, 2))


def test_first_occurrences_past_2_20_rows():
    # past 2**20 rows the row index takes 21 bits, so columns over the whole
    # int64 range go in as slices of at most 42 bits, high bits first, and
    # the pairs of rows that differ only in a column's lowest bit part in a
    # later round than their high bits
    rng = np.random.default_rng(3)
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    pool = rng.integers(lo, hi, size=(5000, 2), endpoint=True)
    pool[1:2500:2] = pool[0:2500:2] ^ [1, 0]
    pool[2501::2] = pool[2500::2] ^ [0, 1]
    pool[-2:] = [[lo, lo], [hi, hi]]
    rows = pool[rng.integers(0, pool.shape[0], size=(1 << 20) + 4321)]
    expect = lexicographic_first(rows)
    count, first = first_occurrences(rows)
    assert count == expect.size and first.tolist() == expect.tolist()
    assert first_occurrences(rows, budget=count - 1) == (count, None)


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
