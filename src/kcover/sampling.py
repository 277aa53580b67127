"""Covering construction by repeated uniform sampling.

At a candidate radius tau, each round draws a batch of uniform samples from
the not-yet-covered pool, finds each pool point's exact distance to its
nearest batch member (neighbor.ExactOracle, on the blocked kernel), and
removes every pool point within 2 * beta * tau of the batch. When tau is at
least the true cost, a batch of Theta(k log n) samples halves the pool with
constant probability, so a logarithmic number of rounds empties it; the
union of all batches is then a covering with radius bound 2 * beta * tau.
The rounds at one tau are the per-scale step of the shared sweep,
covering.sweep_scales, which also handles duplicate-only data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import STREAM_ROUND_SAMPLE, Dataset, rng_stream
from .covering import CoveringResult, sweep_scales
from .neighbor import build_oracle

_ROUNDS_PER_LOG = 5


@dataclass(frozen=True)
class SampleCoveringConfig:
    k: int
    beta: float = 2.0             # removal radius and radius bound = 2 * beta * tau
    sample_constant: float = 3.0  # samples per round = ceil(c * k * ln n)
    seed: int = 0


def sample_with_replacement(pool, size: int, seed: int, stream=()) -> np.ndarray:
    """Uniform draws with replacement from a pool of row indices.

    Returns the distinct draws as a sorted index array (duplicates collapse).
    """
    arr = np.asarray(pool, dtype=np.int64).ravel()
    if arr.size == 0:
        raise ValueError("pool must be nonempty")
    if size < 1:
        raise ValueError("size must be >= 1")
    rng = rng_stream(seed, STREAM_ROUND_SAMPLE, *stream)
    draws = rng.integers(0, arr.size, size=size)
    return np.unique(arr[draws])


def _round_budget(n: int) -> int:
    return _ROUNDS_PER_LOG * math.ceil(math.log2(max(n, 2)))


def _batch_size(n: int, k: int, c: float) -> int:
    return max(1, math.ceil(c * k * math.log(max(n, 2))))


def run_sampling_rounds(dataset: Dataset, tau: float, cfg: SampleCoveringConfig,
                        tau_index: int = 0):
    """Inner loop at one fixed tau.

    Returns (subset or None, accumulated sample count); None means the pool
    did not empty within the round budget at this tau.
    """
    n = dataset.n
    m = _batch_size(n, cfg.k, cfg.sample_constant)
    removal_radius = 2.0 * cfg.beta * tau
    pool = np.arange(n, dtype=np.int64)
    batches = []
    total = 0
    for j in range(_round_budget(n)):
        batch = sample_with_replacement(pool, m, cfg.seed, stream=(tau_index, j))
        batches.append(batch)
        total += batch.shape[0]
        _, dists = build_oracle(dataset, batch).query_many(dataset.coords[pool])
        pool = pool[dists > removal_radius]
        if pool.size == 0:
            return np.unique(np.concatenate(batches)), total
    return None, total


def build_covering_sample(dataset: Dataset, cfg: SampleCoveringConfig) -> CoveringResult:
    """Sweep tau ascending and return the first radius whose rounds converge."""
    if not 1 <= cfg.k <= dataset.n:
        raise ValueError("k must lie in [1, n]")
    if cfg.beta < 1:
        raise ValueError("beta must be >= 1")
    if cfg.sample_constant <= 0:
        raise ValueError("sample_constant must be positive")

    def step(i: int, tau: float):
        subset, total = run_sampling_rounds(dataset, tau, cfg, tau_index=i + 1)
        return (total, None) if subset is None else (subset.shape[0], subset)

    return sweep_scales(dataset, cfg.k, cfg.seed, step, 2.0 * cfg.beta)
