"""Gaussian random projections for dimensionality reduction."""

from __future__ import annotations

import math

from .core import STREAM_JL, Dataset, rng_stream


def jl_target_dim(dim: int, n_points: int, eps: float) -> int:
    """Projection dimension that preserves pairwise distances within 1 +- eps."""
    if not 0 < eps <= 0.5:
        raise ValueError("eps must lie in (0, 0.5]")
    if dim < 1 or n_points < 1:
        raise ValueError("dim and n_points must be >= 1")
    return min(dim, math.ceil(8.0 * eps**-2 * math.log(max(n_points, 2))))


def jl_project(dataset: Dataset, target_dim: int, seed: int) -> Dataset:
    """Each row x mapped to M x, for a (target_dim, d) Gaussian matrix M.

    M's entries are N(0, 1) / sqrt(target_dim), drawn from the seed's
    STREAM_JL stream, so one seed gives one projection.
    """
    if target_dim < 1:
        raise ValueError("target_dim must be >= 1")
    rng = rng_stream(seed, STREAM_JL)
    matrix = rng.standard_normal((target_dim, dataset.d)) / math.sqrt(target_dim)
    return Dataset(dataset.coords @ matrix.T)
