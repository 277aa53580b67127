"""The blocked nearest-member kernels against the per-member loop they replaced.

core._nearest_sq and ExactOracle.query_many, the oracle's entry to it,
must return exactly what one sq_dists_to_point pass per member returns: the
same squared distances bit for bit, exact zeros for coincident rows, and
the lowest member position on exact ties. cost screens for the farthest row
and must return the square root of the largest of those distances, bit for
bit.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcover import core
from kcover.core import Dataset, cost
from kcover.neighbor import ExactOracle

from conftest import nearest_member_loop

# a block cap of 64 values puts a few rows in each block, so n is rarely a
# multiple of the block; the default cap keeps these instances in one block
BLOCK_CAPS = (64, core._BLOCK_ELEMS)


@st.composite
def instances(draw):
    """(points, member rows into points, queries) on a coarse grid.

    Grid coordinates make duplicate rows and equidistant members common;
    the offset puts some instances far from the origin.
    """
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    offset = draw(st.sampled_from([0.0, 1e8, -3.5e8]))
    spread = draw(st.sampled_from([1, 3, 1000]))
    rng = np.random.default_rng(seed)
    scale = draw(st.sampled_from([1.0, 0.25, 1e-3]))
    points = rng.integers(-spread, spread + 1, size=(n, d)) * scale + offset
    k = draw(st.integers(1, n))
    members = rng.choice(n, size=k, replace=draw(st.booleans()))
    nq = draw(st.integers(0, 40))
    queries = rng.integers(-spread, spread + 1, size=(nq, d)) * scale + offset
    return points, members, queries


@settings(max_examples=300, deadline=None)
@given(instances(), st.sampled_from(BLOCK_CAPS))
def test_nearest_sq_equals_per_member_loop(inst, cap):
    points, members, _ = inst
    want_pos, want = nearest_member_loop(points, points[members])
    with mock.patch.object(core, "_BLOCK_ELEMS", cap):
        pos, got = core._nearest_sq(points, points[members])
    assert np.array_equal(got, want) and np.array_equal(pos, want_pos)
    assert np.all(got[members] == 0.0)
    # the direct form sums squares in another order, so it agrees to rounding
    direct = np.min([((points - points[j]) ** 2).sum(axis=1) for j in members], axis=0)
    np.testing.assert_allclose(got, direct, rtol=1e-12)


def loop_cost(points, members):
    """cost's reference: the largest per-member-loop distance."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sqrt(nearest_member_loop(points, members)[1].max()))


def count_exact_rows(monkeypatch):
    """Record the number of rows each _nearest_sq call gets."""
    sizes = []
    nearest_sq = core._nearest_sq

    def counting(points, members):
        sizes.append(points.shape[0])
        return nearest_sq(points, members)

    monkeypatch.setattr(core, "_nearest_sq", counting)
    return sizes


@settings(max_examples=300, deadline=None)
@given(instances(), st.sampled_from(BLOCK_CAPS))
def test_cost_equals_max_of_per_member_loop(inst, cap):
    points, members, _ = inst
    data = Dataset(points)
    want = loop_cost(data.coords, data.coords[members])
    with mock.patch.object(core, "_BLOCK_ELEMS", cap):
        got = cost(data, members)
    assert got == want


@pytest.mark.parametrize("cap", BLOCK_CAPS)
def test_cost_all_rows_coincident(monkeypatch, cap):
    # every row's bracket holds the floor, so every row goes to the exact kernel
    data = Dataset(np.full((300, 4), 1e8 + 0.1))
    sizes = count_exact_rows(monkeypatch)
    monkeypatch.setattr(core, "_BLOCK_ELEMS", cap)
    assert cost(data, [0, 5, 299]) == 0.0
    assert sizes == [300]


def test_cost_single_row_and_k_equals_n():
    assert cost(Dataset([[2.5]]), [0]) == 0.0
    assert cost(Dataset([[2.5], [-1.5]]), [1]) == 4.0
    rng = np.random.default_rng(5)
    data = Dataset(rng.normal(size=(200, 3)))
    assert cost(data, np.arange(200)) == 0.0
    line = Dataset(rng.integers(-9, 10, size=(40, 1)) * 0.5)
    for k in (1, 3, 40):
        assert cost(line, np.arange(k)) == loop_cost(line.coords, line.coords[:k])


@pytest.mark.parametrize("cap", BLOCK_CAPS)
def test_cost_at_large_offset(cap):
    rng = np.random.default_rng(13)
    points = rng.normal(size=(3000, 5)) + 1e8
    members = rng.choice(3000, size=40, replace=False)
    with mock.patch.object(core, "_BLOCK_ELEMS", cap):
        got = cost(Dataset(points), members)
    assert got == loop_cost(points, points[members])


@pytest.mark.parametrize("cap", BLOCK_CAPS)
def test_cost_where_the_screen_overflows(cap):
    # members at +-1e160: |c - o|^2 overflows, so every screen value is inf
    # or NaN while the exact distances to the near member stay finite
    rng = np.random.default_rng(17)
    step = rng.integers(-50, 51, size=(400, 3)) * 1e145
    points = np.vstack([1e160 + step[:200], -1e160 + step[200:]])
    members = [0, 200]
    with np.errstate(over="ignore", invalid="ignore"), \
            mock.patch.object(core, "_BLOCK_ELEMS", cap):
        got = cost(Dataset(points), members)
        one_sided = cost(Dataset(points), [0])
    assert np.isfinite(got) and got == loop_cost(points, points[members])
    assert one_sided == np.inf == loop_cost(points, points[[0]])
    # |x|^2 and |c|^2 stay finite, but -2 x.c overflows, so the far row's
    # screen is -inf while its exact distance is finite; the two rows on
    # the members set a floor near 0 that the far row must not be cut by
    line = np.array([[-0.75e154], [0.75e154], [1.3e154]])
    with np.errstate(over="ignore", invalid="ignore"), \
            mock.patch.object(core, "_BLOCK_ELEMS", cap):
        got = cost(Dataset(line), [0, 1])
    assert got == loop_cost(line, line[:2]) and got > 0.5e154


@pytest.mark.parametrize("cap", BLOCK_CAPS)
def test_cost_rows_on_a_sphere(cap):
    # unit distance from the nearest member up to rounding, with members
    # 2e3 apart: the screen's rounding (about eps * 1e6) exceeds the spread
    # of the exact distances, so only their exact values find the farthest
    rng = np.random.default_rng(23)
    step = rng.normal(size=(2000, 6))
    step /= np.linalg.norm(step, axis=1, keepdims=True)
    members = np.zeros((2, 6))
    members[:, 0] = [-1e3, 1e3]
    points = np.vstack([members, members[1] + step])
    with mock.patch.object(core, "_BLOCK_ELEMS", cap):
        got = cost(Dataset(points), [0, 1])
    assert got == loop_cost(points, members)


def test_cost_sends_few_rows_to_the_exact_kernel(monkeypatch):
    rng = np.random.default_rng(19)
    data = Dataset(rng.uniform(size=(20_000, 2)))
    centers = rng.choice(20_000, size=32, replace=False)
    sizes = count_exact_rows(monkeypatch)
    got = cost(data, centers)
    assert got == loop_cost(data.coords, data.coords[centers])
    assert sum(sizes) < 0.01 * data.n


@settings(max_examples=300, deadline=None)
@given(instances(), st.sampled_from(BLOCK_CAPS))
def test_query_many_equals_per_member_loop(inst, cap):
    points, members, queries = inst
    data = Dataset(points)
    oracle = ExactOracle(data, members)
    want_pos, want_d2 = nearest_member_loop(queries, oracle.members)
    with mock.patch.object(core, "_BLOCK_ELEMS", cap):
        idx, dists = oracle.query_many(queries)
    assert np.array_equal(idx, oracle.built_on[want_pos])
    assert np.array_equal(dists, np.sqrt(want_d2))


def test_coincident_rows_are_exactly_zero():
    coords = np.repeat([[0.1, 0.7, -3.3], [1e8 + 0.1, 2.0, 5.0]], 4, axis=0)
    data = Dataset(coords)
    assert np.array_equal(core._nearest_sq(coords, coords[[0, 4]])[1], np.zeros(8))
    assert cost(data, [3, 7]) == 0.0
    idx, dists = ExactOracle(data, [1, 2, 5]).query_many(coords)
    assert idx.tolist() == [1, 1, 1, 1, 5, 5, 5, 5]
    assert np.array_equal(dists, np.zeros(8))


def test_equidistant_members_lowest_index_wins():
    # 1-D: every query sits halfway between two members, or on a duplicate
    data = Dataset([[-1.0], [1.0], [3.0], [1.0], [-1.0]])
    oracle = ExactOracle(data, [0, 1, 2, 3, 4])
    idx, dists = oracle.query_many(np.array([[0.0], [2.0], [1.0], [-1.0], [5.0]]))
    assert idx.tolist() == [0, 1, 1, 0, 2]
    assert dists.tolist() == [1.0, 1.0, 0.0, 0.0, 2.0]
    # rows 1 and 2 tie at 2.0, and row 2 alone is at 0 from 1.0
    data = Dataset([[1.0], [3.0], [1.0]])
    idx, dists = ExactOracle(data, [1, 2]).query_many(np.array([[2.0], [1.0]]))
    assert idx.tolist() == [1, 2] and dists.tolist() == [1.0, 0.0]
    # members given unsorted, and equal members (rows 0 and 2): row 0 wins
    idx, dists = ExactOracle(data, [2, 0]).query_many(np.array([[0.0], [1.0]]))
    assert idx.tolist() == [0, 0] and dists.tolist() == [1.0, 0.0]


def test_k_equals_n():
    rng = np.random.default_rng(4)
    data = Dataset(rng.normal(size=(257, 3)))
    assert np.array_equal(core._nearest_sq(data.coords, data.coords)[1], np.zeros(257))
    idx, dists = ExactOracle(data, np.arange(257)).query_many(data.coords)
    assert np.array_equal(idx, np.arange(257))
    assert np.array_equal(dists, np.zeros(257))


def test_zero_query_rows():
    data = Dataset(np.arange(6.0).reshape(3, 2))
    idx, dists = ExactOracle(data, [0, 2]).query_many(np.empty((0, 2)))
    assert idx.shape == dists.shape == (0,)
    assert idx.dtype == np.int64 and dists.dtype == np.float64


def test_rows_across_many_blocks():
    rng = np.random.default_rng(8)
    points = rng.normal(size=(5003, 7))
    data = Dataset(points)
    members = rng.choice(5003, size=300, replace=False)
    want_pos, want_d2 = nearest_member_loop(points, points[members])
    got_pos, got_d2 = core._nearest_sq(points, points[members])
    assert np.array_equal(got_pos, want_pos) and np.array_equal(got_d2, want_d2)
    with mock.patch.object(core, "_BLOCK_ELEMS", 3000):
        got_pos, got_d2 = core._nearest_sq(points, points[members])
    assert np.array_equal(got_pos, want_pos) and np.array_equal(got_d2, want_d2)


def test_large_offset_rechecks_few_members(monkeypatch):
    # unit spread 1e8 from the origin: without translating to the members
    # the rounding window would hold every member of every row
    rng = np.random.default_rng(12)
    points = rng.normal(size=(4000, 8)) + 1e8
    members = points[rng.choice(4000, size=200, replace=False)]
    pairs = []
    exact_sq = core._exact_sq

    def counting(pts, mem, rows, cols):
        pairs.append(rows.size)
        return exact_sq(pts, mem, rows, cols)

    monkeypatch.setattr(core, "_exact_sq", counting)
    pos, d2 = core._nearest_sq(points, members)
    want_pos, want_d2 = nearest_member_loop(points, members)
    assert np.array_equal(pos, want_pos) and np.array_equal(d2, want_d2)
    assert sum(pairs) <= 0.1 * points.shape[0]


def test_coincident_members_recheck_once(monkeypatch):
    # 50 copies of one member: each row has one member to re-check, not 50
    points = np.zeros((5000, 8))
    members = np.zeros((50, 8))
    pairs = []
    exact_sq = core._exact_sq

    def counting(pts, mem, rows, cols):
        pairs.append(rows.size)
        return exact_sq(pts, mem, rows, cols)

    monkeypatch.setattr(core, "_exact_sq", counting)
    pos, d2 = core._nearest_sq(points, members)
    want_pos, want_d2 = nearest_member_loop(points, members)
    assert np.array_equal(pos, want_pos) and np.array_equal(d2, want_d2)
    assert sum(pairs) <= points.shape[0]


def test_near_ties_resolved_on_exact_values():
    # each row sits midway between its own two members, so their exact
    # distances differ by rounding alone, far below the GEMM screen's error
    rng = np.random.default_rng(21)
    points = rng.normal(size=(300, 5)) * 100.0
    step = rng.normal(size=(300, 5)) * 1e-3
    members = np.vstack([points + step, points - step])
    want_pos, want_d2 = nearest_member_loop(points, members)
    pos, d2 = core._nearest_sq(points, members)
    assert np.array_equal(pos, want_pos) and np.array_equal(d2, want_d2)
