"""The blocked nearest-member kernels against the per-member loop they replaced.

core._nearest_sq and ExactOracle.query_many, the oracle's entry to it,
must return exactly what one sq_dists_to_point pass per member returns: the
same squared distances bit for bit, exact zeros for coincident rows, and
the lowest member position on exact ties. cost screens for the farthest row
and must return the square root of the largest of those distances, bit for
bit. ExactOracle.farther_than screens for the rows farther than a radius
and must mark exactly the rows whose square-rooted distance exceeds it.
"""

import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcover import core
from kcover.core import Dataset, cost
from kcover.datasets import SyntheticSpec, generate_synthetic
from kcover.neighbor import ExactOracle

from conftest import nearest_member_loop

# a block cap of 16 values splits the members (up to 60) into chunks, also
# cost's; a cap of 64 puts a few rows in each block, so n is rarely a
# multiple of the block; the default cap keeps these instances in one block
BLOCK_CAPS = (16, 64, core._BLOCK_ELEMS)
# a first chunk of one member gives these small instances many chunks
FIRST_CHUNKS = (1, core._FIRST_CHUNK)


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
def test_cost_of_rows_near_1e154(cap):
    # near 1e154 the screen can overflow to -inf at a member that coincides
    # with a row; a row whose bracket bounds nothing goes to the exact pass
    for seed in range(12):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-1.3e154, 1.3e154, size=(200, 1 + seed % 3))
        members = rng.choice(200, size=int(rng.integers(1, 30)), replace=False)
        with np.errstate(over="ignore", invalid="ignore"), \
                mock.patch.object(core, "_BLOCK_ELEMS", cap):
            got = cost(Dataset(points), members)
        assert got == loop_cost(points, points[np.sort(members)])


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


def few_rows_instance(name):
    """(data, centers): 2-D uniform rows against 32 random centers, or a
    20-D mixture against as many random centers as it has clusters."""
    rng = np.random.default_rng(19)
    if name == "box-d2":
        return Dataset(rng.uniform(size=(20_000, 2))), rng.choice(20_000, size=32, replace=False)
    spec = SyntheticSpec("gaussian_mixture", n=20_000, d=20, k_planted=316, seed=19)
    return generate_synthetic(spec)[0], rng.choice(20_000, size=316, replace=False)


@pytest.mark.parametrize("name", ["box-d2", "mixture-d20"])
def test_cost_sends_few_rows_to_the_exact_kernel(monkeypatch, name):
    data, centers = few_rows_instance(name)
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


@pytest.mark.parametrize("cap", BLOCK_CAPS)
def test_query_many_where_the_screen_overflows(cap):
    # rows near 1e154 on a line: in a GEMM, -2 x.c overflows to -inf even
    # at a member that coincides with the row; the exact pass takes
    # coordinate differences, so that member is at exactly 0
    rng = np.random.default_rng(31)
    points = rng.uniform(-1.2e154, 1.2e154, size=(300, 1))
    members = rng.choice(300, size=25, replace=False)
    oracle = ExactOracle(Dataset(points), members)
    with np.errstate(over="ignore", invalid="ignore"):
        want_pos, want_d2 = nearest_member_loop(points, oracle.members)
        with mock.patch.object(core, "_BLOCK_ELEMS", cap):
            idx, dists = oracle.query_many(points)
    assert np.array_equal(idx, oracle.built_on[want_pos])
    assert np.array_equal(dists, np.sqrt(want_d2))
    assert np.all(dists[members] == 0.0)


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


def check_exact_pass(monkeypatch, points, members):
    """_nearest_sq equals the per-member loop at a small and the default
    block cap, with every block at most the cap and every (row, member)
    pair sent to _exact_sq exactly once."""
    blocks = []
    exact_sq = core._exact_sq

    def counting(pts, mem):
        blocks.append(pts.size * mem.shape[0])
        return exact_sq(pts, mem)

    monkeypatch.setattr(core, "_exact_sq", counting)
    want_pos, want_d2 = nearest_member_loop(points, members)
    for cap in (3000, core._BLOCK_ELEMS):
        blocks.clear()
        with mock.patch.object(core, "_BLOCK_ELEMS", cap):
            got_pos, got_d2 = core._nearest_sq(points, members)
        assert np.array_equal(got_pos, want_pos) and np.array_equal(got_d2, want_d2)
        assert max(blocks) <= cap and sum(blocks) == points.size * members.shape[0]


def test_rows_across_many_blocks(monkeypatch):
    rng = np.random.default_rng(8)
    points = rng.normal(size=(5003, 7))
    check_exact_pass(monkeypatch, points, points[rng.choice(5003, size=300, replace=False)])
    # members whose coordinates alone (4000 x 20) fill more than one block
    check_exact_pass(monkeypatch, rng.normal(size=(64, 20)), rng.normal(size=(4000, 20)))


def test_large_offset_rechecks_few_members(monkeypatch):
    # unit spread 1e8 from the origin: the exact pass takes coordinate
    # differences, so it checks each member once per row, with no re-check
    rng = np.random.default_rng(12)
    points = rng.normal(size=(4000, 8)) + 1e8
    check_exact_pass(monkeypatch, points, points[rng.choice(4000, size=200, replace=False)])


def test_coincident_members_recheck_once(monkeypatch):
    # 50 copies of one member: each is checked once per row, and the
    # lowest position wins the exact tie
    check_exact_pass(monkeypatch, np.zeros((5000, 8)), np.zeros((50, 8)))


def test_near_ties_resolved_on_exact_values():
    # each row sits midway between its own two members, so their exact
    # distances differ by rounding alone, far below a GEMM screen's error
    rng = np.random.default_rng(21)
    points = rng.normal(size=(300, 5)) * 100.0
    step = rng.normal(size=(300, 5)) * 1e-3
    members = np.vstack([points + step, points - step])
    want_pos, want_d2 = nearest_member_loop(points, members)
    pos, d2 = core._nearest_sq(points, members)
    assert np.array_equal(pos, want_pos) and np.array_equal(d2, want_d2)


def loop_farther(points, members, radius):
    """farther_than's reference: per-member-loop distances above radius."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt(nearest_member_loop(points, members)[1]) > radius


def radii_at(dists):
    """Every finite distance, and its float neighbours, as a radius."""
    dists = dists[np.isfinite(dists)]
    radii = np.concatenate([dists, np.nextafter(dists, -np.inf), np.nextafter(dists, np.inf)])
    return np.unique(np.maximum(radii, 0.0))


def thinned(radii, dists, cap):
    """radii, or at cap 16, where every block holds one row, a few radii.

    The few are the 0, 0.5 and 1 quantiles of the finite distances, from a
    radius that leaves nearly every row far to one that covers every row,
    and the first finite distance with its float neighbours, a radius
    exactly at a row's distance.
    """
    if cap != 16:
        return radii
    dists = dists[np.isfinite(dists)]
    return np.concatenate([np.quantile(dists, [0.0, 0.5, 1.0]), radii_at(dists[:1])])


def check_farther_than(oracle, points, radii, cap, first=core._FIRST_CHUNK):
    with mock.patch.object(core, "_BLOCK_ELEMS", cap), \
            mock.patch.object(core, "_FIRST_CHUNK", first), \
            np.errstate(over="ignore", invalid="ignore"):
        for radius in radii:
            got = oracle.farther_than(points, radius)
            assert got.dtype == bool
            assert np.array_equal(got, loop_farther(points, oracle.members, radius)), radius


@settings(max_examples=300, deadline=None)
@given(instances(), st.sampled_from(BLOCK_CAPS), st.sampled_from(FIRST_CHUNKS), st.data())
def test_farther_than_equals_per_member_loop(inst, cap, first, data):
    points, members, queries = inst
    oracle = ExactOracle(Dataset(points), members)
    rows = np.vstack([points, queries])
    dists = np.sqrt(nearest_member_loop(rows, oracle.members)[1])
    # a radius equal to a row's exact distance keeps that row covered
    radius = data.draw(st.sampled_from(radii_at(dists).tolist()))
    check_farther_than(oracle, rows, [radius], cap, first)


@pytest.mark.parametrize("cap", BLOCK_CAPS)
def test_farther_than_where_the_screen_overflows(cap):
    # -2 x.c + |c|^2 overflows for the far member of the last row, whose
    # exact distance to the near member is finite
    line = np.array([[-0.75e154], [0.75e154], [1.3e154]])
    oracle = ExactOracle(Dataset(line), [0, 1])
    dists = np.sqrt(nearest_member_loop(line, line[:2])[1])
    check_farther_than(oracle, line, radii_at(dists), cap)
    # rows near 1e154 in a few dimensions: some screens overflow, and some
    # exact distances to far members do too
    rng = np.random.default_rng(31)
    for d in (1, 2, 3):
        points = rng.uniform(-1.2e154, 1.2e154, size=(300, d))
        points[::7] = points[1::7] + rng.normal(size=(43, d)) * 1e140
        oracle = ExactOracle(Dataset(points), rng.choice(300, size=25, replace=False))
        with np.errstate(over="ignore", invalid="ignore"):
            dists = np.sqrt(nearest_member_loop(points, oracle.members)[1])
        radii = radii_at(dists)
        radii = thinned(radii[::max(1, radii.size // 40)], dists, cap)
        check_farther_than(oracle, points, radii, cap, 1)
        check_farther_than(oracle, points, [1.34e154, 1e200, np.inf], cap)


@pytest.mark.parametrize("cap", BLOCK_CAPS)
def test_farther_than_on_coordinate_sorted_rows(cap):
    # near members of sorted rows sit together in index order; the screen
    # visits members in a fixed shuffled order instead, with the same answer
    rng = np.random.default_rng(37)
    points = rng.normal(size=(3000, 4)) * 10.0
    points = points[np.lexsort(points.T[::-1])]
    oracle = ExactOracle(Dataset(points), rng.choice(3000, size=400, replace=False))
    dists = np.sqrt(nearest_member_loop(points, oracle.members)[1])
    radii = np.quantile(dists, [0.0, 0.1, 0.5, 0.9, 1.0])
    radii = thinned(np.concatenate([radii, radii_at(dists[:5])]), dists, cap)
    # per scan: (row visits summed over its chunks, rows in its last chunk)
    scans = []
    bracket_scan, slack = core._bracket_scan, core._slack

    def counting_scan(*args):
        scans.append([0, 0])
        live, lower, upper = bracket_scan(*args)
        scans[-1][1] = lower.size
        return live, lower, upper

    def counting_slack(xx, *args):
        scans[-1][0] += xx.size
        return slack(xx, *args)

    with mock.patch.object(core, "_bracket_scan", counting_scan), \
            mock.patch.object(core, "_slack", counting_slack):
        check_farther_than(oracle, points, radii, cap)
    if cap == 16:
        # each chunk holds 16 of the 400 members, so a scan runs up to 25;
        # its visits exceed n + 24 * (rows in the last chunk) exactly when
        # some row left after its second chunk or later
        assert any(visits > points.shape[0] + 24 * last for visits, last in scans)


@pytest.mark.parametrize("cap", BLOCK_CAPS)
def test_farther_than_with_duplicate_members(cap):
    # 60 rows share one coordinate, so the oracle holds 60 equal members
    rng = np.random.default_rng(41)
    points = np.vstack([np.full((60, 3), 1e8 + 0.5), rng.normal(size=(200, 3)) + 1e8])
    oracle = ExactOracle(Dataset(points), np.arange(80))
    dists = np.sqrt(nearest_member_loop(points, oracle.members)[1])
    check_farther_than(oracle, points, thinned(radii_at(dists)[::5], dists, cap), cap, 1)
    check_farther_than(oracle, points, [0.0], cap)


def test_screen_farther_ignores_what_its_scratch_held():
    # the block buffers of the covered screen and of cost live in a
    # per-thread scratch kept between calls; a call of the same shape takes
    # no new one, stale values left in it (NaN here) change no result, and
    # another thread gets a scratch of its own
    rng = np.random.default_rng(47)
    points = rng.normal(size=(2000, 5)) * 3.0
    members = points[rng.choice(2000, size=150, replace=False)]
    radius = float(np.median(np.sqrt(nearest_member_loop(points, members)[1])))
    far, open_rows = core._screen_farther(points, members, radius)
    decided = np.ones(2000, dtype=bool)
    decided[open_rows] = False
    assert np.array_equal(far[decided], loop_farther(points, members, radius)[decided])
    centers = rng.choice(2000, size=150, replace=False)
    assert cost(Dataset(points), centers) == loop_cost(points, points[np.sort(centers)])
    for call in (lambda: core._screen_farther(points, members, radius),
                 lambda: (cost(Dataset(points), centers),)):
        want = call()
        scratch = core._scratch.buf
        scratch.fill(np.nan)
        again = call()
        assert core._scratch.buf is scratch
        assert all(np.array_equal(a, b) for a, b in zip(again, want))
        other = []
        thread = threading.Thread(target=lambda: other.append((call(), core._scratch.buf)))
        thread.start()
        thread.join()
        there, scratch_there = other[0]
        assert scratch_there is not scratch
        assert all(np.array_equal(a, b) for a, b in zip(there, want))


def test_farther_than_decides_most_rows_by_screen(monkeypatch):
    rng = np.random.default_rng(43)
    data = Dataset(rng.normal(size=(5000, 6)))
    oracle = ExactOracle(data, rng.choice(5000, size=300, replace=False))
    sizes = []
    query_many = ExactOracle.query_many

    def counting(self, points):
        sizes.append(points.shape[0])
        return query_many(self, points)

    monkeypatch.setattr(ExactOracle, "query_many", counting)
    dists = np.sqrt(nearest_member_loop(data.coords, oracle.members)[1])
    for radius in np.quantile(dists, [0.1, 0.5, 0.9]):
        got = oracle.farther_than(data.coords, radius)
        assert np.array_equal(got, dists > radius)
    assert len(sizes) == 3 and sum(sizes) <= 0.01 * data.n


def test_farther_than_rejects_a_bad_radius():
    oracle = ExactOracle(Dataset(np.arange(4.0)), [0, 2])
    for radius in (-1.0, np.nan):
        with pytest.raises(ValueError):
            oracle.farther_than(oracle.members, radius)
    assert oracle.farther_than(np.empty((0, 1)), 1.0).shape == (0,)
