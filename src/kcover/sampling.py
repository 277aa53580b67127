"""Covering construction by repeated uniform sampling.

At a candidate radius tau, each round draws a batch of uniform samples from
the not-yet-covered pool and removes every pool point within 4 tau of the
batch. The test is neighbor.ExactOracle.farther_than: a screen that stops
scanning a point once some chunk of the batch holds a member within 4 tau,
with the few points it cannot decide sent to the exact kernel, so the
removed set is exactly the one exact distances give. When tau is at least
the true cost, a batch of Theta(k log n) samples halves the pool with
constant probability, so a logarithmic number of rounds empties it; the
union of all batches is then a covering with radius bound 4 tau.
The rounds at one tau are the per-scale step of the shared sweep,
covering.sweep_scales, which also handles duplicate-only data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import STREAM_ROUND_SAMPLE, Dataset, rng_stream, sorted_distinct
from .covering import CoveringResult, sweep_scales
from .neighbor import build_oracle

_ROUNDS_PER_LOG = 5
# removal radius and radius bound, in units of tau. The halving argument
# needs only 2: within 2 tau of a batch member that shares an optimal
# cluster. Every recorded result used 4, and the batch size is tuned
# against it, so the factor stays until that batch size is re-measured.
_RADIUS_FACTOR = 4.0


@dataclass(frozen=True)
class SampleCoveringConfig:
    k: int
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
    return sorted_distinct(arr[draws])


def _round_budget(n: int) -> int:
    return _ROUNDS_PER_LOG * math.ceil(math.log2(max(n, 2)))


def _batch_size(n: int, k: int, c: float) -> int:
    return max(1, math.ceil(c * k * math.log(max(n, 2))))


def run_sampling_rounds(dataset: Dataset, tau: float, cfg: SampleCoveringConfig,
                        tau_index: int = 0):
    """Inner loop at one fixed tau.

    Returns (union of the batches or None, number of distinct rows the
    batches drew); None means the pool did not empty within the round
    budget at this tau.
    """
    n = dataset.n
    m = _batch_size(n, cfg.k, cfg.sample_constant)
    removal_radius = _RADIUS_FACTOR * tau
    pool = np.arange(n, dtype=np.int64)
    batches = []
    for j in range(_round_budget(n)):
        batch = sample_with_replacement(pool, m, cfg.seed, stream=(tau_index, j))
        batches.append(batch)
        oracle = build_oracle(dataset, batch)
        pool = pool[oracle.farther_than(dataset.coords[pool], removal_radius)]
        if pool.size == 0:
            break
    union = sorted_distinct(np.concatenate(batches))
    return (None if pool.size else union), union.shape[0]


def build_covering_sample(dataset: Dataset, cfg: SampleCoveringConfig) -> CoveringResult:
    """Sweep tau ascending and return the first radius whose rounds converge."""
    if not 1 <= cfg.k <= dataset.n:
        raise ValueError("k must lie in [1, n]")
    if cfg.sample_constant <= 0:
        raise ValueError("sample_constant must be positive")

    def step(i: int, tau: float):
        subset, size = run_sampling_rounds(dataset, tau, cfg, tau_index=i + 1)
        return size, subset

    return sweep_scales(dataset, cfg.k, cfg.seed, step, _RADIUS_FACTOR)
