"""Coarse cost estimation for the max-of-min objective.

Projects the data onto a few random directions and solves the 1-D problem
on each projection by binary search over the radius with a greedy interval
feasibility check. Projections only shrink distances, so the 1-D value can
undershoot the true cost by a dimension-dependent factor; the estimate is
reported together with a generous polynomial slack factor gamma and is only
used to anchor geometric scale sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .dimred import project_1d

_MAX_BISECTIONS = 128
_REPEATS = 3  # random directions per estimate


@dataclass(frozen=True)
class CoarseEstimate:
    apx: float    # estimated cost, within a factor gamma of the true one
    gamma: float  # slack factor the estimate is trusted to


def feasible_1d(values, k: int, radius: float) -> bool:
    """Can sorted 1-D values be covered by k intervals of half-length radius?

    Greedy sweep: open an interval centered at v + radius whenever value v
    falls past the reach of the current one. Greedy is exact here.
    """
    vals = np.asarray(values, dtype=np.float64).ravel()
    if vals.size == 0:
        raise ValueError("values must be nonempty")
    if k < 1:
        raise ValueError("k must be >= 1")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if np.any(np.diff(vals) < 0):
        raise ValueError("values must be sorted nondecreasing")
    return _feasible_sorted(vals, k, radius)


def _feasible_sorted(vals: np.ndarray, k: int, radius: float) -> bool:
    n = vals.shape[0]
    # coverage at the interval boundary is decided with a tolerance a few
    # rounding errors wide, so that e.g. the half-spread radius of a two-point
    # set is always judged feasible even when v0 + (v1 - v0) rounds below v1
    tol = 1e-12 * max(1.0, abs(float(vals[0])), abs(float(vals[-1])), 2.0 * radius)
    i = 0
    used = 0
    while i < n:
        used += 1
        if used > k:
            return False
        # interval [vals[i], vals[i] + 2r] swallows every value it reaches
        i = int(np.searchsorted(vals, vals[i] + 2.0 * radius + tol, side="right"))
    return True


def kcenter_1d(values, k: int) -> float:
    """Radius within a factor 2 of the optimal k-interval cover of 1-D values.

    Binary search between half the smallest positive gap (below any
    nontrivial optimum) and half the spread (always feasible), stopping once
    the bracket is within a factor 2 or after a fixed iteration cap. The
    returned radius is always feasible.
    """
    vals = np.asarray(values, dtype=np.float64).ravel()
    if vals.size == 0:
        raise ValueError("values must be nonempty")
    if k < 1:
        raise ValueError("k must be >= 1")
    distinct = np.unique(vals)  # duplicates never affect feasibility
    if distinct.size <= k:
        return 0.0
    gaps = np.diff(distinct)
    lo = float(gaps.min()) / 2.0
    hi = float(distinct[-1] - distinct[0]) / 2.0
    if _feasible_sorted(distinct, k, lo):
        # more distinct values than k forces the optimum >= lo, so lo is it
        return lo
    for _ in range(_MAX_BISECTIONS):
        if hi <= 2.0 * lo * (1.0 + 1e-12):
            break
        mid = float(np.sqrt(lo * hi))
        if _feasible_sorted(distinct, k, mid):
            hi = mid
        else:
            lo = mid
    return hi


def coarse_approx(dataset: Dataset, k: int, seed: int) -> CoarseEstimate:
    """Median of 1-D solutions over _REPEATS random directions.

    gamma is n**2; it bounds how far the estimate may sit from the true
    cost and downstream sweeps cover the range [apx/gamma, apx*gamma].
    """
    if not 1 <= k <= dataset.n:
        raise ValueError("k must lie in [1, n]")
    estimates = [kcenter_1d(project_1d(dataset, seed, stream=t), k) for t in range(_REPEATS)]
    return CoarseEstimate(apx=float(np.median(estimates)), gamma=float(dataset.n) ** 2)
