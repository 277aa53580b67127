"""Farthest-first k-center solving plus covering composition.

gonzalez() is the classical greedy 2-approximation: repeatedly add the
point farthest from the chosen centers, maintaining one distance per point
so each round is O(n d). Coverings compose: the union of two coverings
covers the concatenated datasets at the larger radius, and re-covering a
covering's rows costs only the sum of the two radii.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import Dataset, cost, sq_dists_to_point
from .covering import CoveringResult


@dataclass(frozen=True)
class CenterSolution:
    """Chosen center rows (indices into the dataset solved on), cost and time."""

    centers: np.ndarray
    cost_on_solve_set: float
    solve_seconds: float

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=np.int64)
        c.setflags(write=False)
        object.__setattr__(self, "centers", c)


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
    rows = np.asarray(coreset_rows, dtype=np.int64).ravel()
    centers = solution.centers
    if centers.size == 0:
        raise ValueError("solution has no centers")
    if centers.min() < 0 or centers.max() >= rows.size:
        raise ValueError("solution centers do not index into coreset_rows")
    original = rows[centers]
    if original.min() < 0 or original.max() >= dataset.n:
        raise ValueError("coreset_rows do not index into the dataset")
    return cost(dataset, original)


def merge_coverings(dataset_a: Dataset, covering_a: CoveringResult,
                    dataset_b: Dataset, covering_b: CoveringResult):
    """Union of two coverings of two shards of equal dimension.

    Returns (concatenated dataset, covering of it) with B's indices offset
    by A's row count; the radius bound is the larger of the two.
    """
    if dataset_a.d != dataset_b.d:
        raise ValueError("datasets must have equal dimension")
    merged = Dataset(np.vstack([dataset_a.coords, dataset_b.coords]))
    subset = np.concatenate([covering_a.subset, covering_b.subset + dataset_a.n])
    return merged, CoveringResult(
        subset=np.sort(subset),
        radius_bound=float(max(covering_a.radius_bound, covering_b.radius_bound)),
        tau_used=float(max(covering_a.tau_used, covering_b.tau_used)),
        sizes=tuple(covering_a.sizes) + tuple(covering_b.sizes))


def reduce_covering(dataset: Dataset, outer: CoveringResult, inner_builder) -> CoveringResult:
    """Re-cover a covering's rows and push the result back to the dataset.

    inner_builder receives the Dataset of outer's rows and must return a
    CoveringResult on it; the composed radius bound is the sum of the two.
    """
    sub_dataset = dataset.take(outer.subset)
    inner = inner_builder(sub_dataset)
    inner_subset = np.asarray(inner.subset, dtype=np.int64)
    if inner_subset.size == 0 or inner_subset.min() < 0 or inner_subset.max() >= outer.subset.shape[0]:
        raise ValueError("inner covering does not index into the outer subset")
    final = np.sort(outer.subset[inner_subset])
    return CoveringResult(subset=final,
                          radius_bound=float(outer.radius_bound + inner.radius_bound),
                          tau_used=inner.tau_used,
                          sizes=tuple(inner.sizes))
