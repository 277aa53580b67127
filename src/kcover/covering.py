"""Coverings of a point set by grid-cell representatives.

A covering is a row subset S together with a radius bound rho such that
every point of the dataset is within rho of some member of S. Solving the
k-center problem on S and keeping the returned radius bound as additive
slack turns any approximation on S into one on the full set.

Every construction runs one scale sweep, sweep_scales: it anchors on a
coarse cost estimate, collapses exact duplicates when the estimate is 0,
and then tries a geometric grid of scales tau, calling the construction's
per-scale step until one accepts. The sampling construction
(kcover.sampling) plugs its rounds in as a step. The grid-hash step hashes
the points into a randomly shifted grid (unshifted for low_dim_baseline)
and keeps one representative per occupied cell; it accepts the first scale
whose cell count fits under a threshold:

  theory mode  caps the count at threshold_factor * k * t_beta(d, beta)
               with the grid at scale beta * tau, so the radius bound is
               beta * tau and the size bound holds with good probability
               once tau reaches the true cost;
  budget mode  caps the count at an explicit size budget with the grid at
               scale tau, mirroring how the construction is run when a
               target coreset size is known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coarse import coarse_approx
from .core import (
    STREAM_SCALE_FILTER,
    STREAM_UNIFORM_SAMPLE,
    ConstructionFailedError,
    Dataset,
    first_occurrences,
    rng_stream,
    row_keys,
)
from .gridhash import eval_hash_batch, sample_hash, zero_shift_hash

# extra doublings granted in budget mode past the nominal sweep, plus the
# number of retries at very large scales; termination there only needs one
# shift that puts the whole spread inside a single cell
_BUDGET_EXTRA_DOUBLINGS = 64


@dataclass(frozen=True)
class CoveringResult:
    """Row subset plus the radius within which it covers the dataset.

    sizes holds one entry per scale the sweep inspected: the exact occupied
    cell count whenever the full dedup ran, otherwise a certified lower
    bound from a fixed row subsample (used only to rule scales out).
    """

    subset: np.ndarray
    radius_bound: float
    tau_used: float
    iterations: int
    sizes: tuple[int, ...]

    def __post_init__(self):
        sub = np.asarray(self.subset, dtype=np.int64)
        sub.setflags(write=False)
        object.__setattr__(self, "subset", sub)

    @property
    def size(self) -> int:
        return int(self.subset.shape[0])


@dataclass(frozen=True)
class HashCoveringConfig:
    k: int
    beta: float = 2.0
    mode: str = "theory"  # "theory" | "budget"
    budget: int | None = None
    threshold_factor: float = 200.0
    seed: int = 0


def t_beta_bound(dim: int, beta: float, constants=(1.0, 1.0, 2.76)) -> float:
    """Per-ball expected cell count bound: c1 * d**c2 * exp(c3 * d / beta**(2/3)).

    The default c3 = 2.76 tracks the volume growth of a cube inflated by the
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


def representatives(cells, dataset: Dataset) -> np.ndarray:
    """Lowest row index per distinct cell, sorted ascending.

    cells[i] must be the cell of dataset row i; cells are compared as full
    integer vectors, never through a compressed key alone.
    """
    arr = np.asarray(cells, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] != dataset.n:
        raise ValueError("cells must be an (n, dim) array aligned with the dataset")
    return first_occurrences(arr)


def sweep_scales(dataset: Dataset, k: int, seed: int, step, radius_factor: float,
                 threshold: float = math.inf, reach_spread: bool = False) -> CoveringResult:
    """Geometric scale sweep shared by every covering construction.

    Anchors on the coarse estimate apx with slack gamma = n**2 and tries
    tau = (apx / gamma) * 2**i for i = 0, 1, ... until step(i, tau), which
    returns (size, subset or None), accepts a scale; the covering's radius
    bound is radius_factor * tau. Every step's size goes into sizes.

    When the estimate is 0 (at most k distinct rows), the exact-duplicate
    collapse is tried first and kept, at radius 0, if its size is at most
    threshold. reach_spread extends the sweep until one grid cell can hold
    the whole spread, plus _BUDGET_EXTRA_DOUBLINGS scales.
    """
    est = coarse_approx(dataset, k, seed)
    apx, gamma = est.apx, est.gamma
    coords = dataset.coords
    spread = float((coords.max(axis=0) - coords.min(axis=0)).max())
    sizes: list[int] = []

    if apx == 0.0:
        reps = first_occurrences(coords)
        sizes.append(reps.shape[0])
        if reps.shape[0] <= threshold:
            return CoveringResult(subset=reps, radius_bound=0.0, tau_used=0.0,
                                  iterations=1, sizes=tuple(sizes))
        if spread == 0.0:
            # a single distinct row already exceeded the threshold
            raise ConstructionFailedError(
                f"threshold {threshold:g} admits no nonempty subset", sizes=sizes)
        apx = spread

    n_iters = math.ceil(math.log2(gamma))
    if reach_spread:
        # keep doubling until one cell can hold the whole spread; a handful of
        # fresh shifts at that scale succeeds with overwhelming probability
        if spread > 0:
            need = 2.0 * dataset.d ** 1.5 * spread / (apx / gamma)
            n_iters = max(n_iters, math.ceil(math.log2(max(need, 1.0))))
        n_iters += _BUDGET_EXTRA_DOUBLINGS

    for i in range(n_iters + 1):
        tau = (apx / gamma) * float(2**i)
        size, subset = step(i, tau)
        sizes.append(size)
        if subset is not None:
            return CoveringResult(subset=subset, radius_bound=radius_factor * tau,
                                  tau_used=float(tau), iterations=i + 1,
                                  sizes=tuple(sizes))
    raise ConstructionFailedError(
        f"no scale fit within {n_iters + 1} doublings", sizes=sizes)


def _sweep_hash(dataset: Dataset, cfg: HashCoveringConfig, shifted: bool) -> CoveringResult:
    n, d = dataset.n, dataset.d
    if not 1 <= cfg.k <= n:
        raise ValueError("k must lie in [1, n]")
    if cfg.beta < 1:
        raise ValueError("beta must be >= 1")
    if cfg.mode not in ("theory", "budget"):
        raise ValueError("mode must be 'theory' or 'budget'")
    if cfg.mode == "budget":
        if cfg.budget is None or cfg.budget < 1:
            raise ValueError("budget mode requires a positive budget")
        threshold = float(cfg.budget)
        factor = 1.0
    else:
        if cfg.threshold_factor <= 0:
            raise ValueError("threshold_factor must be positive")
        threshold = cfg.threshold_factor * cfg.k * t_beta_bound(d, cfg.beta)
        factor = cfg.beta

    # fixed row subsample lets hopeless scales be rejected cheaply: its
    # distinct-key count never exceeds the full distinct-cell count
    sample_cap = int(min(n, threshold + 2048)) if math.isfinite(threshold) else n
    filter_coords = None
    if sample_cap < n:
        filter_rows = rng_stream(cfg.seed, STREAM_SCALE_FILTER).choice(
            n, size=sample_cap, replace=False)
        filter_coords = dataset.coords[filter_rows]

    def step(i: int, tau: float):
        scale = factor * tau
        h = (sample_hash(d, scale, cfg.seed, stream=i) if shifted
             else zero_shift_hash(d, scale))
        if filter_coords is not None:
            sub_count = np.unique(row_keys(eval_hash_batch(h, filter_coords))).size
            if sub_count > threshold:
                return sub_count, None
        reps = first_occurrences(eval_hash_batch(h, dataset.coords))
        return reps.shape[0], (reps if reps.shape[0] <= threshold else None)

    return sweep_scales(dataset, cfg.k, cfg.seed, step, factor, threshold,
                        reach_spread=cfg.mode == "budget")


def build_covering_hash(dataset: Dataset, cfg: HashCoveringConfig) -> CoveringResult:
    """Grid-hash covering with a fresh random shift at every scale."""
    return _sweep_hash(dataset, cfg, shifted=True)


def low_dim_baseline(dataset: Dataset, cfg: HashCoveringConfig) -> CoveringResult:
    """Same sweep on the unshifted grid; the classical low-dimensional recipe."""
    return _sweep_hash(dataset, cfg, shifted=False)


def uniform_baseline(dataset: Dataset, size: int, seed: int) -> np.ndarray:
    """Uniform sample of rows without replacement, as a sorted index subset."""
    if not 1 <= size <= dataset.n:
        raise ValueError("size must lie in [1, n]")
    rng = rng_stream(seed, STREAM_UNIFORM_SAMPLE)
    picks = rng.choice(dataset.n, size=size, replace=False)
    return np.sort(picks.astype(np.int64))
