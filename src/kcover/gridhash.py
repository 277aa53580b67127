"""Randomly shifted integer grids over R^d.

A grid at scale L uses axis-aligned cubic cells of side L/sqrt(d), so any
two points in the same cell are within L of each other. The shift is drawn
uniformly per axis from [0, side), which makes the number of cells touched
by a ball a random variable with mean 1 + 2r/side per axis.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .core import STREAM_GRID_SHIFT, Dataset, rng_stream

# countCells enumerates an integer box; above this many cells we refuse.
_MAX_ENUMERATION = 1 << 24


def _cell_side(dim: int, scale: float) -> float:
    """Cell side scale / sqrt(dim), after checking both arguments."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError("scale must be positive and finite")
    return scale / math.sqrt(dim)


@dataclass(frozen=True, eq=False)
class GridHash:
    """One realized grid: dimension, scale, shift, and the derived cell side."""

    dim: int
    scale: float
    shift: np.ndarray
    side: float = field(init=False)

    def __post_init__(self):
        side = _cell_side(self.dim, self.scale)
        object.__setattr__(self, "scale", float(self.scale))
        shift = np.asarray(self.shift, dtype=np.float64).ravel()
        if shift.shape[0] != self.dim:
            raise ValueError("shift must have one coordinate per axis")
        if shift.min() < 0 or shift.max() >= side:
            raise ValueError("shift coordinates must lie in [0, side)")
        shift.setflags(write=False)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "side", side)


def sample_hash(dim: int, scale: float, seed: int, stream: int = 0) -> GridHash:
    """Draw a fresh shifted grid; `stream` separates repeated draws per seed."""
    side = _cell_side(dim, scale)
    rng = rng_stream(seed, STREAM_GRID_SHIFT, stream)
    shift = rng.uniform(0.0, side, size=dim)
    # uniform(0, side) can round to side itself in rare cases; fold back
    shift[shift >= side] = 0.0
    return GridHash(dim=dim, scale=scale, shift=shift)


@contextmanager
def _int64_cells(h: GridHash):
    """Turn an int64 overflow in the cell-index cast into a ValueError.

    Without the check the cast maps every out-of-range index to -2**63,
    which silently puts far-apart points in one cell.
    """
    with np.errstate(invalid="raise"):
        try:
            yield
        except FloatingPointError:
            raise ValueError(
                f"cell indices overflow int64 at scale {h.scale:g}") from None


def eval_hash_batch(h: GridHash, points) -> np.ndarray:
    """Cells of the rows: per-axis floor((x + shift) / side), an (n, dim) int64 array."""
    coords = points.coords if isinstance(points, Dataset) else np.asarray(points, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != h.dim:
        raise ValueError("points must be an (n, dim) array matching the grid")
    # shift, scale and floor in one buffer, so a full pass holds a single
    # (n, dim) float temporary next to the cells
    cells = np.add(coords, h.shift)
    np.divide(cells, h.side, out=cells)
    np.floor(cells, out=cells)
    with _int64_cells(h):
        return cells.astype(np.int64)


def count_cells_intersecting_ball(h: GridHash, center, radius: float) -> int:
    """Number of grid cells whose closed cuboid meets the closed ball.

    Exact enumeration over the integer bounding box, testing the distance
    from the ball center to the nearest point of each cell cuboid. Only
    supported for dim <= 8; the box grows exponentially with dimension.
    """
    if h.dim > 8:
        raise ValueError("cell enumeration is only supported for dim <= 8")
    if not (radius >= 0 and math.isfinite(radius)):
        raise ValueError("radius must be nonnegative and finite")
    c = np.asarray(center, dtype=np.float64).ravel()
    if c.shape[0] != h.dim:
        raise ValueError("center dimension does not match the grid")

    # work in cell units: point y sits in cell floor(y)
    y = (c + h.shift) / h.side
    r = radius / h.side
    if r == 0:
        return 1
    with _int64_cells(h):
        lo = np.floor(y - r).astype(np.int64)
        hi = np.floor(y + r).astype(np.int64)
    spans = hi - lo + 1
    total = int(np.prod(spans, dtype=np.float64))
    if total > _MAX_ENUMERATION:
        raise ValueError("radius too large relative to cell side to enumerate")

    axes = [np.arange(lo[i], hi[i] + 1, dtype=np.int64) for i in range(h.dim)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, h.dim)
    # nearest point of the closed unit cuboid [t, t+1] to y, per axis
    nearest = np.clip(y, grid, grid + 1)
    d2 = ((nearest - y) ** 2).sum(axis=1)
    return int(np.count_nonzero(d2 <= r * r))
