"""The blocked nearest-member kernel against the per-member loop it replaced.

min_sq_dists (hence cost), ExactOracle.query_many and query, and
dist_to_set must return exactly what one sq_dists_to_point pass per member
returns: the same squared distances bit for bit, exact zeros for coincident
rows, and the lowest member position on exact ties.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kcover import core
from kcover.core import Dataset, cost, dist_to_set, min_sq_dists
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
def test_min_sq_dists_equals_per_center_loop(inst, cap):
    points, members, _ = inst
    data = Dataset(points)
    _, want = nearest_member_loop(data.coords, data.coords[members])
    with mock.patch.object(core, "_BLOCK_ELEMS", cap):
        got = min_sq_dists(data, members)
    assert np.array_equal(got, want)
    assert np.all(got[members] == 0.0)


@settings(max_examples=300, deadline=None)
@given(instances(), st.sampled_from(BLOCK_CAPS))
def test_query_many_equals_per_member_loop(inst, cap):
    points, members, queries = inst
    data = Dataset(points)
    oracle = ExactOracle(data, members)
    want_pos, want_d2 = nearest_member_loop(queries, oracle.members)
    with mock.patch.object(core, "_BLOCK_ELEMS", cap):
        idx, dists = oracle.query_many(queries)
        singles = [oracle.query(q) for q in queries]
        to_set = [dist_to_set(q, members, data) for q in queries]
    assert np.array_equal(idx, oracle.built_on[want_pos])
    assert np.array_equal(dists, np.sqrt(want_d2))
    assert singles == list(zip(idx.tolist(), dists.tolist()))
    assert to_set == list(zip(dists.tolist(), idx.tolist()))


def test_coincident_rows_are_exactly_zero():
    coords = np.repeat([[0.1, 0.7, -3.3], [1e8 + 0.1, 2.0, 5.0]], 4, axis=0)
    data = Dataset(coords)
    assert np.array_equal(min_sq_dists(data, [0, 4]), np.zeros(8))
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


def test_k_equals_n():
    rng = np.random.default_rng(4)
    data = Dataset(rng.normal(size=(257, 3)))
    assert np.array_equal(min_sq_dists(data, np.arange(257)), np.zeros(257))
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
    assert np.array_equal(min_sq_dists(data, members), want_d2)
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
