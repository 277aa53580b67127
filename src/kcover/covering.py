"""Coverings of a point set by grid-cell representatives.

A covering is a row subset S together with a radius bound rho such that
every point of the dataset is within rho of some member of S. Solving the
k-center problem on S and keeping the returned radius bound as additive
slack turns any approximation on S into one on the full set.

Every construction runs one scale sweep, sweep_scales. It anchors on a
certified lower bound L on the optimal cost: greedy on a uniform row
sample, halved. It collapses exact duplicates when L is 0, and otherwise
calls the construction's per-scale step on scales tau found from L: the
sample construction (kcover.sampling) doubles tau from L until its rounds
converge, and the grid-hash construction searches both ways from L for the
smallest scale that fits, closing with geometric bisection.

The grid-hash step hashes the points into a grid at scale tau, with a
fresh random shift at every scale, and keeps one representative per
occupied cell. A scale fits when its cell count is at most an explicit size
budget, so the radius bound is the cell diameter tau; this mirrors how the
construction is run when a target coreset size is known.

Coverings compose: merge_coverings covers the concatenation of two shards
at the larger of their radii, and reduce_covering re-covers a covering's
rows at the sum of the two radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    STREAM_ANCHOR,
    STREAM_SCALE_FILTER,
    STREAM_UNIFORM_SAMPLE,
    ConstructionFailedError,
    Dataset,
    column_extents,
    first_occurrences,
    rng_stream,
    row_indices,
    row_keys,
    sorted_distinct,
)
from .gridhash import eval_hash_batch, sample_hash
from .solver import gonzalez

# extra doublings a budgeted search grants past the scale at which one cell
# can hold the whole spread; termination there only needs one shift that
# puts the whole spread inside a single cell
_BUDGET_EXTRA_DOUBLINGS = 64
# bisection steps after a budgeted search brackets the fitting scale,
# which leaves tau within 2**(1/4) of the smallest fitting one. With one step
# (within sqrt(2)), 3 of 48 covering seeds at desk scale, budget 8k, cost
# about 6x the full greedy; with two, none did.
_BISECTIONS = 2
# the anchor's greedy runs on a sample of at least this many rows (and 4k)
_ANCHOR_ROWS = 1000
# a budgeted search stops halving once the scale is this fraction of the
# largest coordinate magnitude (times sqrt(d)), so cell indices stay below 2**40
_MIN_RELATIVE_SCALE = 2.0**-40


@dataclass(frozen=True, eq=False)
class CoveringResult:
    """Row subset plus the radius within which it covers the dataset.

    sizes holds one entry per scale the sweep inspected. An accepted grid
    scale records its exact occupied cell count. A rejected one records a
    certified lower bound on it: the distinct cell keys of a fixed row
    subsample, or of all rows when the subsample fit the budget. A key count
    equals the cell count unless two cells' 64-bit keys collide.
    """

    subset: np.ndarray
    radius_bound: float
    tau_used: float
    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "subset", row_indices(self.subset))

    @property
    def size(self) -> int:
        return int(self.subset.shape[0])

    @property
    def iterations(self) -> int:
        """Number of scales the sweep inspected."""
        return len(self.sizes)


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
    if inner.subset.min() < 0 or inner.subset.max() >= outer.subset.shape[0]:
        raise ValueError("inner covering does not index into the outer subset")
    final = np.sort(outer.subset[inner.subset])
    return CoveringResult(subset=final,
                          radius_bound=float(outer.radius_bound + inner.radius_bound),
                          tau_used=inner.tau_used,
                          sizes=tuple(inner.sizes))


@dataclass(frozen=True)
class HashCoveringConfig:
    k: int
    # "budget" is the only value accepted. perfbench/workloads.py is the last
    # caller that passes it; the field goes once the benchmark drops it.
    mode: str = "budget"
    budget: int | None = None
    seed: int = 0


def scale_anchor(dataset: Dataset, k: int, seed: int) -> float:
    """Certified lower bound on the optimal k-center cost of the dataset.

    Greedy on a uniform sample S of min(n, max(_ANCHOR_ROWS, 4k)) rows is a
    2-approximation on S, and covering S never costs more than covering the
    whole dataset, so gonzalez(S) / 2 <= opt(S) <= opt. It is 0 exactly when
    S holds at most k distinct rows.
    """
    n = dataset.n
    rows = min(n, max(_ANCHOR_ROWS, 4 * k))
    if rows < n:
        picks = rng_stream(seed, STREAM_ANCHOR).choice(n, size=rows, replace=False)
        dataset = dataset.take(np.sort(picks))
    return gonzalez(dataset, k).cost_on_solve_set / 2.0


def sweep_scales(dataset: Dataset, k: int, seed: int, step, radius_factor: float,
                 budget: int | None = None) -> CoveringResult:
    """Scale search shared by every covering construction.

    step(i, tau) tries the i-th scale and returns (size, subset or None); a
    subset means the scale is accepted, with radius bound radius_factor * tau.
    Every tried scale's size goes into sizes.

    The search starts from the certified anchor L = scale_anchor. When L is 0
    (the anchor sample holds at most k distinct rows), the exact-duplicate
    collapse is tried first and kept, at radius 0, unless it exceeds the
    budget; otherwise the anchor is taken on the distinct rows. A budget of
    n or more skips the anchor and keeps the collapse.

    Without a budget (the sample construction), tau doubles from L, never
    below it, until a scale accepts or the radius bound reaches the
    bounding-box diagonal. With one, tau starts at L * min(1, k / budget)
    and doubles until a scale fits, up to _BUDGET_EXTRA_DOUBLINGS past the
    scale at which one grid cell can hold the whole spread; if the first
    scale fits, tau halves until one does not instead. Then _BISECTIONS
    geometric bisection steps between the last scale that did not fit and
    the first that did keep each midpoint that fits.
    """
    coords = dataset.coords
    low, high = column_extents(coords)
    extent = high - low
    spread = float(extent.max())
    sizes: list[int] = []

    def attempt(tau: float):
        size, subset = step(len(sizes), tau)
        sizes.append(size)
        return subset

    def accepted(subset, tau: float) -> CoveringResult:
        return CoveringResult(subset=subset, radius_bound=radius_factor * tau,
                              tau_used=float(tau), sizes=tuple(sizes))

    # a budget of n or more always fits the exact-duplicate collapse
    fits_all = budget is not None and budget >= dataset.n
    anchor = 0.0 if fits_all else scale_anchor(dataset, k, seed)
    if anchor == 0.0:
        reps = first_occurrences(coords)[1]
        sizes.append(reps.shape[0])
        if budget is None or reps.shape[0] <= budget:
            return accepted(reps, 0.0)
        # with at most k distinct rows the optimum is 0 and any scale is above
        # it; more than budget >= 1 distinct rows means a nonzero spread
        anchor = scale_anchor(dataset.take(reps), k, seed) or spread

    if budget is None:
        tau = anchor
        # where the radius bound reaches the bounding-box diagonal
        top = float(np.sqrt((extent**2).sum())) / radius_factor
    else:
        tau = anchor * min(1.0, k / budget)
        # one cell can hold the whole spread from scale 2 d**1.5 spread on,
        # and a few fresh shifts past it succeed with overwhelming probability
        top = 2.0 * dataset.d ** 1.5 * spread * 2.0**_BUDGET_EXTRA_DOUBLINGS
    lo = None
    best = attempt(tau)
    while best is None:
        if tau >= top:
            raise ConstructionFailedError(f"no scale up to {top:g} fit", sizes=sizes)
        lo, tau = tau, 2.0 * tau
        best = attempt(tau)
    if budget is None:
        return accepted(best, tau)
    if lo is None:
        # the first scale fit: halve until one does not; below floor, cell
        # indices outgrow float resolution and int64
        largest = max(-float(low.min()), float(high.max()))
        floor = _MIN_RELATIVE_SCALE * math.sqrt(dataset.d) * largest
        while True:
            lo = tau / 2.0
            if lo < floor:
                return accepted(best, tau)
            subset = attempt(lo)
            if subset is None:
                break
            tau, best = lo, subset

    hi = tau
    for _ in range(_BISECTIONS):
        mid = math.sqrt(lo * hi)
        subset = attempt(mid)
        if subset is None:
            lo = mid
        else:
            hi, best = mid, subset
    return accepted(best, hi)


def build_covering_hash(dataset: Dataset, cfg: HashCoveringConfig) -> CoveringResult:
    """Grid-hash covering with a fresh random shift at every scale."""
    n, d = dataset.n, dataset.d
    if not 1 <= cfg.k <= n:
        raise ValueError("k must lie in [1, n]")
    if cfg.mode != "budget":
        raise ValueError("mode must be 'budget'")
    if cfg.budget is None or cfg.budget < 1:
        raise ValueError("the hash covering requires a positive budget")
    budget = cfg.budget

    # fixed row subsample lets hopeless scales be rejected cheaply: its
    # distinct-key count never exceeds the full distinct-cell count. Twice
    # the budget catches most scales a few times over it, where the
    # bisection steps land, before they cost a full pass.
    sample_cap = min(n, 2 * budget + 2048)
    filter_coords = None
    if sample_cap < n:
        filter_rows = rng_stream(cfg.seed, STREAM_SCALE_FILTER).choice(
            n, size=sample_cap, replace=False)
        filter_coords = dataset.coords[filter_rows]

    def step(i: int, tau: float):
        h = sample_hash(d, tau, cfg.seed, stream=i)
        if filter_coords is not None:
            sub_count = sorted_distinct(row_keys(eval_hash_batch(h, filter_coords))).size
            if sub_count > budget:
                return sub_count, None
        return first_occurrences(eval_hash_batch(h, dataset.coords), budget)

    return sweep_scales(dataset, cfg.k, cfg.seed, step, 1.0, budget=budget)


def uniform_baseline(dataset: Dataset, size: int, seed: int) -> np.ndarray:
    """Uniform sample of rows without replacement, as a sorted index subset."""
    if not 1 <= size <= dataset.n:
        raise ValueError("size must lie in [1, n]")
    rng = rng_stream(seed, STREAM_UNIFORM_SAMPLE)
    picks = rng.choice(dataset.n, size=size, replace=False)
    return np.sort(picks.astype(np.int64))
