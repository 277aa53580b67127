"""Shared brute-force oracles for the test suite.

Everything here is deliberately naive: these functions are the ground truth
the package is checked against, so they must be obviously correct rather
than fast.
"""

from itertools import combinations

import numpy as np

from kcover.core import sq_dists_to_point


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


def opt_1d(values: np.ndarray, k: int) -> float:
    """Exact 1-D k-interval cover radius by enumerating all partitions.

    A 1-D optimum splits the sorted distinct values into k consecutive
    blocks; each block costs half its span.
    """
    vals = np.unique(np.asarray(values, dtype=np.float64))
    m = vals.shape[0]
    if m <= k:
        return 0.0
    best = np.inf
    # choose k-1 cut positions between consecutive values
    for cuts in combinations(range(1, m), k - 1):
        bounds = (0, *cuts, m)
        radius = max(
            (vals[b1 - 1] - vals[b0]) / 2.0 for b0, b1 in zip(bounds, bounds[1:])
        )
        best = min(best, radius)
    return float(best)
