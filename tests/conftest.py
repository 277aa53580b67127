"""Shared brute-force oracles for the test suite.

Everything here is deliberately naive: these functions are the ground truth
the package is checked against, so they must be obviously correct rather
than fast.

Tier-1 runs numpy's BLAS on one thread, as perfbench/run.py does: the
wall-clock gate test_c09_speedup_at_desk_scale compares two timings, and
BLAS threads contending with another busy process on a small host skew
them. The variables are set before numpy loads, and only where unset.
"""

import math
import os
from itertools import combinations

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from kcover.core import sq_dists_to_point
from kcover.covering import GridHash, _int64_cells, scale_anchor

# count_cells_intersecting_ball refuses to enumerate more cells than this
_MAX_ENUMERATION = 1 << 24


def pairwise_dists(coords: np.ndarray) -> np.ndarray:
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def covering_ok(coords: np.ndarray, subset, radius: float, slack: float = 1e-9) -> bool:
    """Every row within `radius` of some subset row, checked directly."""
    subset = np.asarray(subset, dtype=np.int64)
    assert subset.size > 0
    members = coords[subset]
    best = np.full(coords.shape[0], np.inf)
    for m in members:
        d2 = ((coords - m) ** 2).sum(axis=1)
        np.minimum(best, d2, out=best)
    return bool(np.sqrt(best.max()) <= radius + slack * (1.0 + radius))


def nearest_member_loop(points: np.ndarray, members: np.ndarray):
    """(nearest member position, squared distance) per row, one member at a time.

    The per-member loop the blocked kernel replaced, kept as its reference:
    strict-improvement updates over members in order, so an exact tie keeps
    the lowest position.
    """
    best = sq_dists_to_point(points, members[0])
    arg = np.zeros(points.shape[0], dtype=np.int64)
    for j in range(1, members.shape[0]):
        d2 = sq_dists_to_point(points, members[j])
        better = d2 < best
        best[better] = d2[better]
        arg[better] = j
    return arg, best


def max_min_dist(coords: np.ndarray, center_rows) -> float:
    """Objective value of a concrete center choice."""
    centers = coords[np.asarray(center_rows, dtype=np.int64)]
    best = np.full(coords.shape[0], np.inf)
    for c in centers:
        d2 = ((coords - c) ** 2).sum(axis=1)
        np.minimum(best, d2, out=best)
    return float(np.sqrt(best.max()))


def exhaustive_discrete_opt(coords: np.ndarray, k: int) -> float:
    """Exact optimum over all k-subsets of input rows. Only for tiny n."""
    n = coords.shape[0]
    assert n <= 14, "exhaustive oracle is for tiny instances only"
    if k >= n:
        return 0.0
    return min(max_min_dist(coords, c) for c in combinations(range(n), k))


def ascending_scales(dataset, k: int, seed: int, radius_factor: float) -> int:
    """Scales an ascending sweep tries before it gives up: tau doubles from
    the anchor until the radius bound radius_factor * tau reaches the data's
    bounding-box diagonal, and that last scale is tried too."""
    extent = dataset.coords.max(axis=0) - dataset.coords.min(axis=0)
    diagonal = float(np.sqrt((extent**2).sum()))
    tau, scales = scale_anchor(dataset, k, seed), 1
    while tau < diagonal / radius_factor:
        tau, scales = 2.0 * tau, scales + 1
    return scales


def t_beta_bound(dim: int, beta: float, constants=(1.0, 1.0, 2.76)) -> float:
    """Reference per-ball cell count bound: c1 * d**c2 * exp(c3 * d / beta**(2/3)).

    The shifted grid at scale beta * tau, with tau at least the optimal
    cost, should occupy at most 200 * k * t_beta_bound(d, beta) cells. The
    default c3 = 2.76 tracks the volume growth of a cube inflated by the
    query radius; the bound is clamped below at 1 and saturates to inf for
    dimensions far beyond any enumerable regime.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if beta < 1:
        raise ValueError("beta must be >= 1")
    c1, c2, c3 = constants
    exponent = c3 * dim / beta ** (2.0 / 3.0)
    value = math.inf if exponent > 700 else c1 * dim**c2 * math.exp(exponent)
    return max(1.0, value)


def count_cells_intersecting_ball(h: GridHash, center, radius: float) -> int:
    """Number of grid cells whose closed cuboid meets the closed ball.

    A cuboid that touches the ball only on a face counts, so a ball of
    radius 0 on the face between two cells meets both. Exact enumeration
    over the integer bounding box, testing the distance from the ball center
    to the nearest point of each cell cuboid. Only supported for dim <= 8;
    the box grows exponentially with dimension.
    """
    if h.dim > 8:
        raise ValueError("cell enumeration is only supported for dim <= 8")
    if not (radius >= 0 and math.isfinite(radius)):
        raise ValueError("radius must be nonnegative and finite")
    c = np.asarray(center, dtype=np.float64).ravel()
    if c.shape[0] != h.dim:
        raise ValueError("center dimension does not match the grid")

    # work in cell units: cell t spans [t, t + 1] and meets [y - r, y + r]
    # exactly when ceil(y - r) - 1 <= t <= floor(y + r)
    y = (c - h.corner) / h.side
    r = radius / h.side
    lo = _int64_cells(h, np.ceil(y - r)) - 1
    hi = _int64_cells(h, np.floor(y + r))
    spans = hi - lo + 1
    total = int(np.prod(spans, dtype=np.float64))
    if total > _MAX_ENUMERATION:
        raise ValueError("radius too large relative to cell side to enumerate")

    axes = [np.arange(lo[i], hi[i] + 1, dtype=np.int64) for i in range(h.dim)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, h.dim)
    # nearest point of the closed unit cuboid [t, t+1] to y, per axis
    nearest = np.clip(y, grid, grid + 1)
    d2 = ((nearest - y) ** 2).sum(axis=1)
    return int(np.count_nonzero(d2 <= r * r))
