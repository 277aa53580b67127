"""Farthest-first k-center solving and full-data evaluation.

gonzalez() is the classical greedy 2-approximation: repeatedly add the
point farthest from the chosen centers, maintaining one distance per point
so each round is O(n d). evaluate_on_full() measures a solution found on a
coreset against every row of the dataset.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import Dataset, cost, row_indices, sq_dists_to_point


@dataclass(frozen=True, eq=False)
class CenterSolution:
    """Chosen center rows (indices into the dataset solved on), cost and time."""

    centers: np.ndarray
    cost_on_solve_set: float
    solve_seconds: float

    def __post_init__(self):
        object.__setattr__(self, "centers", row_indices(self.centers))


def gonzalez(dataset: Dataset, k: int, start_index: int = 0) -> CenterSolution:
    """Greedy farthest-first traversal.

    Picks min(k, n) distinct rows; the farthest-point argmax breaks ties
    toward the lowest row index. The reported cost is the max remaining
    distance, so it is 0 whenever k >= n.
    """
    n = dataset.n
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= start_index < n:
        raise ValueError("start_index out of range")
    t0 = time.perf_counter()
    kk = min(k, n)
    chosen = np.empty(kk, dtype=np.int64)
    chosen[0] = start_index
    best = sq_dists_to_point(dataset.coords, dataset.coords[start_index])
    picked = 1
    while picked < kk:
        nxt = int(np.argmax(best))  # first max = lowest index on ties
        if best[nxt] <= 0.0:
            # everything coincides with a chosen center; pad with the
            # lowest-index rows not yet chosen
            taken = np.zeros(n, dtype=bool)
            taken[chosen[:picked]] = True
            fill = np.flatnonzero(~taken)[: kk - picked]
            chosen[picked:] = fill
            picked = kk
            break
        chosen[picked] = nxt
        picked += 1
        np.minimum(best, sq_dists_to_point(dataset.coords, dataset.coords[nxt]), out=best)
    solve_cost = float(np.sqrt(best.max()))
    return CenterSolution(centers=np.sort(chosen), cost_on_solve_set=solve_cost,
                          solve_seconds=time.perf_counter() - t0)


def evaluate_on_full(dataset: Dataset, coreset_rows, solution: CenterSolution) -> float:
    """Cost of a solution solved on a coreset, measured on the full dataset.

    coreset_rows maps coreset positions back to original rows; the solution's
    centers index into that array.
    """
    rows = np.asarray(coreset_rows).ravel()
    centers = solution.centers
    if centers.min() < 0 or centers.max() >= rows.size:
        raise ValueError("solution centers do not index into coreset_rows")
    # cost checks that the mapped rows are integer row indices of the dataset
    return cost(dataset, rows[centers])
