import math

import numpy as np
import pytest

from kcover.covering import (
    GridHash,
    count_cells_intersecting_ball,
    eval_hash_batch,
    sample_hash,
)


def oracle_count_1d(side: float, corner: float, center: float, r: float) -> int:
    """Independent cell count: scan a generous integer range and test each
    closed interval [corner + c*side, corner + (c+1)*side] against the ball."""
    lo = int(math.floor((center - r) / side)) - 3
    hi = int(math.floor((center + r) / side)) + 3
    hits = 0
    for c in range(lo, hi + 1):
        a, b = corner + c * side, corner + (c + 1) * side
        nearest = min(max(center, a), b)
        if abs(nearest - center) <= r:
            hits += 1
    return hits


def oracle_count_2d(h: GridHash, center, r: float) -> int:
    span = int(math.ceil(r / h.side)) + 2
    base = [int(math.floor((center[i] - h.corner[i]) / h.side)) for i in range(2)]
    hits = 0
    for cx in range(base[0] - span, base[0] + span + 1):
        for cy in range(base[1] - span, base[1] + span + 1):
            nearest = []
            for axis, c in ((0, cx), (1, cy)):
                a = h.corner[axis] + c * h.side
                b = h.corner[axis] + (c + 1) * h.side
                nearest.append(min(max(center[axis], a), b))
            d2 = (nearest[0] - center[0]) ** 2 + (nearest[1] - center[1]) ** 2
            if d2 <= r * r:
                hits += 1
    return hits


def test_sample_hash_side_values():
    assert sample_hash(2, math.sqrt(2.0), 0).side == pytest.approx(1.0, rel=1e-12)
    assert sample_hash(4, 2.0, 0).side == pytest.approx(1.0, rel=1e-12)


def test_sample_hash_deterministic_and_in_range():
    a = sample_hash(5, 3.0, seed=42)
    b = sample_hash(5, 3.0, seed=42)
    np.testing.assert_array_equal(a.corner, b.corner)
    assert -a.corner.max() >= 0.0 and -a.corner.min() < a.side
    c = sample_hash(5, 3.0, seed=42, stream=1)
    assert not np.array_equal(a.corner, c.corner)


def test_sample_hash_rejects_bad_scale():
    with pytest.raises(ValueError):
        sample_hash(2, 0.0, 0)
    with pytest.raises(ValueError):
        sample_hash(2, -1.0, 0)


def test_gridhash_constructor_validates():
    assert GridHash(dim=4, scale=2.0, corner=np.zeros(4)).side == 1.0  # scale / sqrt(dim)
    with pytest.raises(TypeError):
        GridHash(dim=2, scale=1.0, side=1.0, corner=np.zeros(2))  # side is derived
    with pytest.raises(ValueError):
        GridHash(dim=2, scale=1.0, corner=np.zeros(3))  # one coordinate per axis
    with pytest.raises(ValueError):
        GridHash(dim=1, scale=1.0, corner=np.array([math.nan]))
    with pytest.raises(ValueError):
        GridHash(dim=0, scale=1.0, corner=np.zeros(0))
    with pytest.raises(ValueError):
        GridHash(dim=1, scale=math.inf, corner=np.zeros(1))


def test_eval_hash_zero_shift_floors():
    h = GridHash(2, math.sqrt(2.0), corner=np.zeros(2))  # side 1
    assert eval_hash_batch(h, np.array([[0.2, 0.7]])).tolist() == [[0, 0]]
    assert eval_hash_batch(h, np.array([[-0.1, 2.0]])).tolist() == [[-1, 2]]


def test_eval_hash_with_shift():
    h = GridHash(dim=1, scale=1.0, corner=np.array([-0.5]))
    assert eval_hash_batch(h, np.array([[0.6]])).tolist() == [[1]]  # floor(1.1)


def test_eval_hash_dimension_mismatch():
    h = GridHash(2, 1.0, corner=np.zeros(2))
    with pytest.raises(ValueError):
        eval_hash_batch(h, np.array([[0.0]]))
    with pytest.raises(ValueError):
        eval_hash_batch(h, np.array([0.0, 1.0]))  # one point, but not as a row


def test_eval_hash_batch_matches_single():
    h = sample_hash(3, 2.5, seed=9)
    rng = np.random.default_rng(1)
    pts = rng.normal(scale=4.0, size=(50, 3))
    batch = eval_hash_batch(h, pts)
    for i in range(50):
        assert batch[i].tolist() == eval_hash_batch(h, pts[i:i + 1])[0].tolist()


def test_eval_hash_batch_duplicates_and_line():
    h = GridHash(1, 1.0, corner=np.zeros(1))
    batch = eval_hash_batch(h, np.array([[0.1], [1.1], [2.1], [0.1]]))
    assert batch[:, 0].tolist() == [0, 1, 2, 0]


def test_cell_index_overflow_raises():
    # |x| / side past 2**63 would cast every row to cell -2**63, one cell
    h = sample_hash(1, 1e-12, seed=0)
    pts = np.array([[1e8], [2e8], [3e8]])
    with pytest.raises(ValueError):
        eval_hash_batch(h, pts)
    with pytest.raises(ValueError):
        eval_hash_batch(h, pts[:1])
    with pytest.raises(ValueError):
        count_cells_intersecting_ball(h, pts[0], 1e-13)


def test_eval_hash_batch_on_negative_coordinates():
    # the in-place buffer gives the cells of the plain floor((x - corner) / side)
    h = sample_hash(3, 0.7, seed=4)
    pts = np.random.default_rng(3).uniform(-50.0, 5.0, size=(200, 3))
    pts[:4] = h.corner  # on a cell corner
    pts[4:8] = np.nextafter(h.corner, -np.inf)  # just below it
    before = pts.copy()
    cells = eval_hash_batch(h, pts)
    np.testing.assert_array_equal(cells, np.floor((pts - h.corner) / h.side).astype(np.int64))
    np.testing.assert_array_equal(pts, before)
    assert cells[:4].tolist() == [[0, 0, 0]] * 4 and (cells[4:8] == -1).all()
    assert (cells < 0).mean() > 0.5
    with pytest.raises(ValueError):
        eval_hash_batch(sample_hash(1, 1e-12, seed=0), np.array([[-1e8], [-2e8]]))


def test_count_cells_point_ball():
    h = sample_hash(3, 1.7, seed=5)
    assert count_cells_intersecting_ball(h, [0.3, 0.4, 0.5], 0.0) == 1


def test_count_cells_interval_inside_cell():
    h = GridHash(1, 1.0, corner=np.zeros(1))
    assert count_cells_intersecting_ball(h, [0.5], 0.4) == 1
    assert oracle_count_1d(1.0, 0.0, 0.5, 0.4) == 1


def test_count_cells_interval_touching_neighbors():
    # [-0.1, 1.1] reaches into the cells on both sides of [0, 1)
    h = GridHash(1, 1.0, corner=np.zeros(1))
    assert count_cells_intersecting_ball(h, [0.5], 0.6) == 3
    assert oracle_count_1d(1.0, 0.0, 0.5, 0.6) == 3


@pytest.mark.parametrize("dim, center, r, want", [
    (1, [1.0], 0.0, 2),
    (1, [0.5], 0.5, 3),
    (1, [2.0], 1.0, 4),
    (2, [1.0, 1.0], 0.0, 4),
], ids=["1d-point-on-face", "1d-ends-on-faces", "1d-low-end-on-face", "2d-point-on-corner"])
def test_count_cells_counts_cuboids_touched_on_a_face(dim, center, r, want):
    # side 1 and corner 0: the ball's ends lie on cell faces, where the
    # closed cuboids on both sides meet it
    h = GridHash(dim, math.sqrt(dim), corner=np.zeros(dim))
    if dim == 1:
        assert oracle_count_1d(h.side, 0.0, center[0], r) == want
    else:
        assert oracle_count_2d(h, center, r) == want
    assert count_cells_intersecting_ball(h, center, r) == want


def test_count_cells_matches_oracle_randomized():
    rng = np.random.default_rng(33)
    for trial in range(40):
        h = sample_hash(1, float(rng.uniform(0.5, 3.0)), seed=trial)
        center = float(rng.normal(scale=5.0))
        r = float(rng.uniform(0.0, 4.0))
        assert count_cells_intersecting_ball(h, [center], r) == oracle_count_1d(
            h.side, float(h.corner[0]), center, r
        )
    for trial in range(20):
        h = sample_hash(2, float(rng.uniform(0.5, 3.0)), seed=100 + trial)
        center = rng.normal(scale=5.0, size=2)
        r = float(rng.uniform(0.0, 2.0))
        assert count_cells_intersecting_ball(h, center, r) == oracle_count_2d(
            h, center, r
        )


def test_count_cells_rejects_high_dim():
    h = sample_hash(9, 1.0, 0)
    with pytest.raises(ValueError):
        count_cells_intersecting_ball(h, np.zeros(9), 0.5)


def same_cell_pairs(d: int, scale: float, n: int, seed: int):
    """Pairs (x, y) drawn inside one grid cell each; returns the pair arrays
    and a mask of rows whose hashes agree (rounding can spill a point over
    the open upper face)."""
    h = sample_hash(d, scale, seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.uniform(-10.0 * scale, 10.0 * scale, size=(n, d))
    cells = eval_hash_batch(h, x)
    lo = h.corner + cells * h.side
    y = lo + rng.uniform(0.0, 1.0, size=(n, d)) * h.side
    same = np.all(eval_hash_batch(h, y) == cells, axis=1)
    return x, y, same


def test_same_cell_diameter_bound():
    total_checked = 0
    for d in range(1, 17):
        scale = 0.25 * d if d % 3 else 7.0
        x, y, same = same_cell_pairs(d, scale, 800, seed=d)
        assert same.mean() > 0.999
        dists = np.sqrt(((x[same] - y[same]) ** 2).sum(axis=1))
        assert dists.max() <= scale * (1.0 + 1e-12)
        total_checked += int(same.sum())
    assert total_checked > 10_000


def test_cell_diagonal_equals_scale():
    for d in (1, 2, 5, 16):
        h = sample_hash(d, 3.3, seed=d)
        assert h.side * math.sqrt(d) == pytest.approx(3.3, rel=1e-12)


def test_consistency_closed_form_1d():
    # mean cells hit by a fixed ball under a random shift: 1 + 2r/side
    scale, r = 1.0, 0.37
    counts = [
        count_cells_intersecting_ball(sample_hash(1, scale, seed), [2.4], r)
        for seed in range(2000)
    ]
    expected = 1.0 + 2.0 * r / scale
    assert np.mean(counts) == pytest.approx(expected, rel=0.05)


def test_consistency_mean_nonincreasing_in_stretch():
    scale = 1.0
    means = []
    for beta in (2.0, 4.0, 8.0):
        r = scale / beta
        counts = [
            count_cells_intersecting_ball(
                sample_hash(2, scale, seed, stream=int(beta)), [0.7, -1.3], r
            )
            for seed in range(2000)
        ]
        means.append(float(np.mean(counts)))
    assert means[0] >= means[1] >= means[2]
    assert all(math.isfinite(m) for m in means)


def test_shift_invariance_of_cell_counts():
    scale, r = 1.0, 0.45
    translation = 13.71
    base, moved = [], []
    for seed in range(2000):
        h = sample_hash(1, scale, seed, stream=7)
        base.append(count_cells_intersecting_ball(h, [0.2], r))
        moved.append(count_cells_intersecting_ball(h, [0.2 + translation], r))
    assert np.mean(moved) == pytest.approx(np.mean(base), rel=0.05)


def test_origin_moves_the_grid_with_the_frame():
    # dyadic points, shift and origin keep every step exact, so a grid whose
    # corner is o - shift sees the points x + o exactly as the grid at corner
    # -shift sees x
    rng = np.random.default_rng(3)
    points = rng.integers(-64, 64, size=(200, 2)) / 8.0
    shift = np.array([0.25, 0.625])
    origin = np.array([1024.0, -512.0])
    plain = GridHash(2, math.sqrt(2.0), -shift)  # side 1
    moved = GridHash(2, math.sqrt(2.0), origin - shift)
    assert (eval_hash_batch(moved, points + origin).tolist()
            == eval_hash_batch(plain, points).tolist())
    for center, r in (([0.3, -1.1], 0.0), ([0.3, -1.1], 1.7), ([2.0, 2.0], 0.5)):
        assert (count_cells_intersecting_ball(moved, np.add(center, origin), r)
                == count_cells_intersecting_ball(plain, center, r))
