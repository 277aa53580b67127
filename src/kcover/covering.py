"""Coverings of a point set by grid-cell representatives or sampled rows.

A covering is a row subset S together with a radius bound rho such that
every point of the dataset is within rho of some member of S. Solving the
k-center problem on S and keeping the returned radius bound as additive
slack turns any approximation on S into one on the full set.

Every construction runs one scale sweep, sweep_scales. It anchors on a
certified lower bound L on the optimal cost: greedy on a uniform row
sample, halved. It collapses exact duplicates when L is 0, and otherwise
calls the construction's per-scale step on scales tau found from L: the
sample construction (kcover.sampling) doubles tau from L until its rounds
converge, and the grid-hash construction starts at L * min(1, k / budget),
doubles until a scale fits and closes with geometric bisection. Neither
search tries a scale below its start.

The grid-hash step hashes the points into a grid at scale tau, with a
fresh random shift at every scale, and keeps one representative per
occupied cell. Its cells are cubes of side tau / sqrt(d), so two points in
one cell are within tau of each other, and they are counted from the data's
column minimum, so their float resolution follows the data's spread. The
hash numbers a row's cell exactly with one mixed-radix int64 per group of
axes whose cells, bounded by the data's extents, number at most 2**53
(eval_hash_batch): one number per row on every full pass of the benchmark's
grid workloads, which first_occurrences dedups as one sorted key. A scale
fits when its cell count is at most an explicit size budget, so the radius
bound is the cell diameter tau; this mirrors how the construction is run
when a target coreset size is known.

Coverings compose: merge_coverings covers the concatenation of two shards
at the larger of their radii, and reduce_covering re-covers a covering's
rows at the sum of the two radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    _BLOCK_ELEMS,
    _EPS,
    STREAM_ANCHOR,
    STREAM_GRID_SHIFT,
    STREAM_SCALE_FILTER,
    ConstructionFailedError,
    Dataset,
    column_extents,
    first_occurrences,
    rng_stream,
    row_indices,
    uniform_rows,
)
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
# eval_hash_batch packs axes into one number while its magnitude stays below
# this; every integer up to it is exact in float64
_EXACT = 2**53


@dataclass(frozen=True, eq=False)
class GridHash:
    """One realized grid: cubes of side scale / sqrt(dim), so of diagonal scale.

    A point x lies in cell floor((x - corner) / side), whose closed cuboid
    spans corner + [c, c + 1] * side per axis. sample_hash draws the corner.
    """

    dim: int
    scale: float
    corner: np.ndarray
    side: float = field(init=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError("scale must be positive and finite")
        corner = np.array(self.corner, dtype=np.float64).ravel()
        if corner.shape[0] != self.dim or not np.isfinite(corner).all():
            raise ValueError("corner must hold one finite coordinate per axis")
        corner.setflags(write=False)
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "corner", corner)
        object.__setattr__(self, "side", self.scale / math.sqrt(self.dim))


def sample_hash(dim: int, scale: float, seed: int, stream: int = 0,
                origin=0.0) -> GridHash:
    """Grid at corner origin - shift, with shift uniform in [0, side) per axis.

    `stream` separates repeated draws per seed; build_covering_hash puts the
    origin at the data's column minimum.
    """
    grid = GridHash(dim, scale, np.broadcast_to(origin, dim))
    shift = rng_stream(seed, STREAM_GRID_SHIFT, stream).uniform(0.0, grid.side, size=dim)
    # uniform(0, side) can round to side itself in rare cases; fold back
    shift[shift >= grid.side] = 0.0
    # within ulp(origin) of the exact corner: the shift rounds away only
    # where cells are finer than the float spacing at the origin
    return replace(grid, corner=grid.corner - shift)


def _int64_cells(h: GridHash, cells: np.ndarray) -> np.ndarray:
    """Floored cell coordinates cast to int64, with overflow a ValueError.

    Without the check the cast maps every out-of-range index to -2**63,
    which silently puts far-apart points in one cell.
    """
    with np.errstate(invalid="raise"):
        try:
            return cells.astype(np.int64)
        except FloatingPointError:
            raise ValueError(
                f"cell indices overflow int64 at scale {h.scale:g}") from None


def _place_values(h: GridHash, extents) -> np.ndarray:
    """(dim, g) place values that pack a row's cells into eval_hash_batch's g numbers.

    Axis j's cells lie in [first_j, last_j], the floored extents. A group of
    consecutive axes is numbered by the sum of its cells times their places:
    an axis's place is the product of the cell counts of the group's later
    axes, the last one's 1. Groups grow from the last axis back while the
    largest magnitude that sum can take, the sum of max(|first_j|,
    |last_j|) times the places, stays below 2**53. From a corner at the
    column minimum, where first_j is 0, that is while the cell counts
    multiply to at most 2**53. An axis whose cells reach 2**53 in magnitude,
    and every axis without extents, is a group of its own. Column 0 is the
    group of axis 0.
    """
    places = np.zeros((h.dim, h.dim))
    if extents is not None:
        first, last = (np.floor(np.subtract(e, h.corner) / h.side) for e in extents)
    g, place, top = -1, 1, _EXACT
    for j in reversed(range(h.dim)):
        # size 2**53 opens a group of its own and closes it
        size, count = _EXACT, 1
        if extents is not None and max(abs(first[j]), abs(last[j])) < _EXACT:
            size = int(max(abs(first[j]), abs(last[j])))
            count = int(last[j]) - int(first[j]) + 1
        if top + size * place >= _EXACT:
            g, place, top = g + 1, 1, 0
        places[j, g] = place
        top += size * place
        place *= count
    return places[:, g::-1]


def eval_hash_batch(h: GridHash, points, extents=None) -> np.ndarray:
    """Cells floor((x - corner) / side) of the rows, packed into an (n, g) int64 array.

    extents, when given, are per-column (low, high) bounds of every row, as
    column_extents gives on the rows or on a superset of them. As subtract,
    divide and floor are monotone, each axis's cells then lie between the
    floored extents, and each group of consecutive axes packs into one
    mixed-radix number (_place_values): g = 1 wherever, from a corner at the
    column minimum, the cells of all axes number at most 2**53. Every
    product and partial sum of the packing is an integer of magnitude below
    2**53, so the float matmul that forms it is exact whatever its summation
    order, thread split or fused multiply-add. Distinct cells get distinct
    numbers, in the cells' lexicographic order, so first_occurrences finds
    the same rows on them. Without extents g = dim: one column of cell
    coordinates per axis.

    Rows go through in blocks in one reused buffer, the corner tiled over a
    block so that the subtraction runs flat. A cell coordinate beyond int64
    raises ValueError (_int64_cells).
    """
    coords = np.asarray(points, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != h.dim:
        raise ValueError("points must be an (n, dim) array matching the grid")
    places = _place_values(h, extents)
    n, d = coords.shape
    numbers = np.empty((n, places.shape[1]), dtype=np.int64)
    # the buffer and the tiled corner hold about _BLOCK_ELEMS values together
    rows = max(1, min(n, _BLOCK_ELEMS // (2 * d)))
    corners = np.tile(h.corner, rows)
    buffer = np.empty(rows * d)
    for start in range(0, n, rows):
        stop = min(n, start + rows)
        block = buffer[:(stop - start) * d]
        np.subtract(coords[start:stop].reshape(-1), corners[:block.size], out=block)
        np.divide(block, h.side, out=block)
        np.floor(block, out=block)
        numbers[start:stop] = _int64_cells(h, block.reshape(-1, d) @ places)
    return numbers


@dataclass(frozen=True, eq=False)
class CoveringResult:
    """Row subset plus the radius within which it covers the dataset.

    sizes holds one entry per scale the sweep inspected. A grid scale
    records the exact count of distinct cells of the rows it hashed: the
    full pass or, where a fixed row subsample already exceeded the budget,
    that subsample. A sampling scale records the distinct rows its rounds
    drew, accepted or not.
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
        dataset = dataset.take(uniform_rows(n, rows, seed, STREAM_ANCHOR))
    return gonzalez(dataset, k).cost_on_solve_set / 2.0


def sweep_scales(dataset: Dataset, k: int, seed: int, step, radius_factor: float,
                 budget: int | None = None, extents=None) -> CoveringResult:
    """Scale search shared by every covering construction.

    step(i, tau) tries the i-th scale and returns (size, subset or None); a
    subset means the scale is accepted, with radius bound radius_factor * tau
    capped at the data's bounding-box diagonal, within which every row lies.
    Every tried scale's size goes into sizes. extents, when given, are
    column_extents(dataset.coords).

    The search starts from the certified anchor L = scale_anchor. When L is 0
    (the anchor sample holds at most k distinct rows), the exact-duplicate
    collapse is tried first and kept, at radius 0, unless it exceeds the
    budget; otherwise the anchor is taken on the distinct rows. A budget of
    n or more skips the anchor and keeps the collapse.

    Without a budget (the sample construction), tau doubles from L until a
    scale accepts or the radius bound reaches the bounding-box diagonal.
    With one, tau starts at tau0 = L * min(1, k / budget), or at
    2**-61 * sqrt(d) * spread if that is larger, so that no cell index of a
    grid in the data's frame outgrows int64, and doubles until a scale fits,
    up to _BUDGET_EXTRA_DOUBLINGS past the scale at which one grid cell can
    hold the whole spread. A first scale that fits is kept; at tau0 its radius
    bound is at most a fraction min(1, k / budget) of the optimum, as L <= opt.
    Otherwise _BISECTIONS geometric bisection steps between the last scale
    that did not fit and the first that did keep each midpoint that fits.
    No scale below the start is tried.
    """
    coords = dataset.coords
    low, high = column_extents(coords) if extents is None else extents
    extent = high - low
    spread = float(extent.max())
    # rounded up so that no computed row distance exceeds it: rounding is
    # monotone, so each rounded squared difference of two rows is at most the
    # rounded extent_j**2. A sum of d terms in any order is off by under
    # (d - 1) eps / 2 relative, so the two sums part by under (d - 1) eps,
    # which the square root halves; with the roundings of both roots and of
    # the product that stays under (d + 2) eps / 2, inside the 2 d eps added
    diagonal = float(np.sqrt((extent**2).sum()) * (1.0 + 2.0 * dataset.d * _EPS))
    sizes: list[int] = []

    def attempt(tau: float):
        size, subset = step(len(sizes), tau)
        sizes.append(size)
        return subset

    def accepted(subset, tau: float) -> CoveringResult:
        return CoveringResult(subset=subset, radius_bound=min(radius_factor * tau, diagonal),
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
        top = diagonal / radius_factor
    else:
        # from 2**-61 sqrt(d) spread up, a row's offset from a grid corner
        # in the data's frame stays below 2**61 + 1 cell sides
        tau = max(anchor * min(1.0, k / budget),
                  2.0**-61 * math.sqrt(dataset.d) * spread)
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
    if budget is None or lo is None:
        return accepted(best, tau)
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
    """Grid-hash covering: a fresh random shift per scale, in the data's frame."""
    n, d = dataset.n, dataset.d
    if not 1 <= cfg.k <= n:
        raise ValueError("k must lie in [1, n]")
    if cfg.mode != "budget":
        raise ValueError("mode must be 'budget'")
    if cfg.budget is None or cfg.budget < 1:
        raise ValueError("the hash covering requires a positive budget")
    budget = cfg.budget

    # fixed row subsample lets hopeless scales be rejected cheaply: its
    # distinct-cell count never exceeds the full distinct-cell count. Twice
    # the budget catches most scales a few times over it, where the
    # bisection steps land, before they cost a full pass.
    sample_cap = min(n, 2 * budget + 2048)
    filter_coords = None
    if sample_cap < n:
        filter_coords = dataset.coords[uniform_rows(n, sample_cap, cfg.seed, STREAM_SCALE_FILTER)]

    extents = column_extents(dataset.coords)

    def step(i: int, tau: float):
        h = sample_hash(d, tau, cfg.seed, stream=i, origin=extents[0])
        if filter_coords is not None:
            sub_count = first_occurrences(eval_hash_batch(h, filter_coords, extents),
                                          budget)[0]
            if sub_count > budget:
                return sub_count, None
        return first_occurrences(eval_hash_batch(h, dataset.coords, extents), budget)

    return sweep_scales(dataset, cfg.k, cfg.seed, step, 1.0, budget=budget, extents=extents)

