"""Gaussian random projections for dimensionality reduction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import STREAM_JL, Dataset, rng_stream


@dataclass(frozen=True)
class JlMap:
    source_dim: int
    target_dim: int
    matrix: np.ndarray  # (target_dim, source_dim), entries N(0,1)/sqrt(target_dim)
    seed: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (self.target_dim, self.source_dim):
            raise ValueError("matrix shape must be (target_dim, source_dim)")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def jl_target_dim(dim: int, n_points: int, eps: float) -> int:
    """Projection dimension that preserves pairwise distances within 1 +- eps."""
    if not 0 < eps <= 0.5:
        raise ValueError("eps must lie in (0, 0.5]")
    if dim < 1 or n_points < 1:
        raise ValueError("dim and n_points must be >= 1")
    return min(dim, math.ceil(8.0 * eps**-2 * math.log(max(n_points, 2))))


def build_jl_map(dim: int, n_points: int, eps: float, seed: int,
                 target_dim: int | None = None) -> JlMap:
    """Sample a Gaussian projection map.

    target_dim normally comes from jl_target_dim; passing it explicitly
    overrides the formula (run_sweep's jl_dim).
    """
    if target_dim is None:
        target_dim = jl_target_dim(dim, n_points, eps)
    else:
        if not 0 < eps <= 0.5:
            raise ValueError("eps must lie in (0, 0.5]")
        if target_dim < 1:
            raise ValueError("target_dim must be >= 1")
    rng = rng_stream(seed, STREAM_JL)
    matrix = rng.standard_normal((target_dim, dim)) / math.sqrt(target_dim)
    return JlMap(source_dim=dim, target_dim=int(target_dim), matrix=matrix, seed=int(seed))


def apply_jl(m: JlMap, dataset: Dataset) -> Dataset:
    if dataset.d != m.source_dim:
        raise ValueError("dataset dimension does not match the map")
    return Dataset(dataset.coords @ m.matrix.T)
