"""Point-set container, Euclidean distances, and the max-of-min clustering objective.

Distances are computed on squared values internally; square roots are taken
only at API boundaries, so exact zeros for coincident rows survive.

Nearest-member queries (``min_sq_dists``, hence ``cost``, and the exact
oracle) run through one blocked kernel, ``_nearest_sq``. It screens members
with a GEMM, ``|x|^2 - 2 x.c + |c|^2``, on points and members translated to
the midpoint of the members' bounding box. Then it recomputes the squared
distance from coordinate differences, as ``sq_dists_to_point`` does, to the
screened winner and to every other member whose screen lies within twice
the rounding bound ``8 (d + 2) eps (|x|^2 + max |c|^2)`` of the row's
minimum. So its values are exactly those of one ``sq_dists_to_point`` pass
per member: coincident rows get exactly 0.0, and exact ties go to the
lowest member index. Each block buffer holds at most ``_BLOCK_ELEMS``
float64 values (512 KiB), and a block at least one row. Members are
collapsed to their first occurrences before the screen, so copies of one
member never widen a row's re-check window.

Exact row dedup, of grid cells and of coordinates alike, is one routine,
``first_occurrences``.
"""

from __future__ import annotations

import functools

import numpy as np

MAX_SEED = 2**64

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny
# cap on the float64 values in one block buffer of the nearest-member kernel
_BLOCK_ELEMS = 1 << 16
# fixed seed of the row-mix multipliers; no dedup result depends on it
_MIX_SEED = 0x6B636F766572

# Stream tags: every randomized operation derives its generator from
# (master seed, tag, ...indices), so one seed reproduces the whole run
# and no two operations share a stream.
STREAM_GRID_SHIFT = 1
STREAM_JL = 2
STREAM_PROJECT_1D = 3
STREAM_UNIFORM_SAMPLE = 4
STREAM_ROUND_SAMPLE = 5
STREAM_SYNTH = 7
STREAM_SWEEP = 8
STREAM_SCALE_FILTER = 9


class ConstructionFailedError(Exception):
    """A covering construction exhausted its scale sweep without fitting.

    Carries the per-scale subset sizes observed before giving up.
    """

    def __init__(self, message, sizes=()):
        super().__init__(message)
        self.sizes = tuple(int(s) for s in sizes)


def rng_stream(seed, *path):
    """Deterministic generator for one named operation.

    Seeded from the 64-bit master seed plus an integer path; identical
    inputs reproduce bit-identical streams (numpy PCG64, ziggurat normals).
    """
    seed = int(seed)
    if not 0 <= seed < MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return np.random.default_rng([seed, *(int(p) for p in path)])


class Dataset:
    """Immutable n x d float64 matrix; points are addressed by row index."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        arr = np.array(coords, dtype=np.float64, order="C")
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("coords must be a nonempty 2-D array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coords must contain only finite values")
        arr.setflags(write=False)
        self.coords = arr

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]

    def row(self, i: int) -> np.ndarray:
        return self.coords[i]

    def take(self, indices) -> "Dataset":
        """New Dataset from the given rows (copies the selected coordinates)."""
        idx = index_subset(indices, self.n)
        return Dataset(self.coords[idx])

    def __repr__(self):
        return f"Dataset(n={self.n}, d={self.d})"


def index_subset(indices, n) -> np.ndarray:
    """Canonical row-index subset: sorted, distinct, int64, all in [0, n)."""
    idx = np.asarray(indices, dtype=np.int64).ravel()
    if idx.size == 0:
        raise ValueError("index subset must be nonempty")
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"indices must lie in [0, {n})")
    return np.unique(idx)


def dist(p, q) -> float:
    p = np.asarray(p, dtype=np.float64).ravel()
    q = np.asarray(q, dtype=np.float64).ravel()
    if p.shape != q.shape:
        raise ValueError("points must have equal dimension")
    diff = p - q
    return float(np.sqrt(np.dot(diff, diff)))


def sq_dists_to_point(coords: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Squared distances from every row of coords to one point."""
    diff = coords - point
    return np.einsum("ij,ij->i", diff, diff)


def dist_to_set(point, subset, dataset: Dataset):
    """Distance from a point to its nearest member of a row subset.

    Returns (distance, original row index of the nearest member); ties are
    broken toward the lowest original index.
    """
    idx = np.asarray(subset, dtype=np.int64).ravel()
    if idx.size == 0:
        raise ValueError("subset must be nonempty")
    if idx.min() < 0 or idx.max() >= dataset.n:
        raise ValueError("subset indices out of range")
    p = np.asarray(point, dtype=np.float64).ravel()
    if p.shape[0] != dataset.d:
        raise ValueError("point dimension does not match dataset")
    rows = index_subset(idx, dataset.n)
    pos, d2 = _nearest_sq(p[None], dataset.coords[rows])
    return float(np.sqrt(d2[0])), int(rows[pos[0]])


@functools.lru_cache(maxsize=64)
def _mix_multipliers(width: int) -> np.ndarray:
    """Read-only odd uint64 multipliers of row_keys, drawn once per width.

    Random ones: structured multipliers (say, multiples of one constant)
    make grid cells collide all the time.
    """
    mults = np.random.default_rng(_MIX_SEED).integers(
        0, 2**63, size=width, dtype=np.int64).astype(np.uint64) | np.uint64(1)
    mults.setflags(write=False)
    return mults


def row_keys(rows) -> np.ndarray:
    """64-bit linear mix of each row of a 2-D integer array.

    Equal rows get equal keys and distinct rows collide only by chance, so
    the number of distinct keys is a lower bound on the number of distinct
    rows.
    """
    u = np.asarray(rows, dtype=np.int64).view(np.uint64)
    # folding the high half onto the low half lets the mix see entries whose
    # low bits are all zero, such as the bit patterns of short floats; the
    # uint64 matmul wraps modulo 2**64 and runs several times faster than a
    # multiply and row sum
    return (u ^ (u >> 32)) @ _mix_multipliers(u.shape[1])


def first_occurrences(rows) -> np.ndarray:
    """Lowest index of each distinct row of a 2-D array, sorted ascending.

    Integer rows (grid cells) compare as full vectors. Float rows compare by
    the bit pattern of ``row + 0.0``, so 0.0 and -0.0 are one value, as
    ``np.unique`` treats them. Rows are grouped by row_keys and each group
    is verified against its first row; on a key collision the routine
    falls back to a lexicographic ``np.unique``.
    """
    arr = np.asarray(rows)
    if arr.dtype.kind == "f":
        arr = (arr.astype(np.float64, copy=False) + 0.0).view(np.int64)
    arr = arr.astype(np.int64, copy=False)
    _, first, inverse = np.unique(row_keys(arr), return_index=True, return_inverse=True)
    if not np.array_equal(arr, arr[first[inverse]]):
        _, first = np.unique(arr, axis=0, return_index=True)
    return np.sort(first.astype(np.int64))


def _center_rows(dataset: Dataset, centers) -> np.ndarray:
    """Resolve centers given either as row indices or as explicit coordinates."""
    arr = np.asarray(centers)
    if arr.dtype.kind in "iu":
        idx = arr.ravel().astype(np.int64)
        if idx.size == 0:
            raise ValueError("centers must be nonempty")
        if idx.min() < 0 or idx.max() >= dataset.n:
            raise ValueError("center indices out of range")
        return dataset.coords[idx]
    rows = np.asarray(arr, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] != dataset.d:
        raise ValueError("explicit centers must be a nonempty 2-D array matching d")
    return rows


def _exact_sq(points: np.ndarray, members: np.ndarray, rows, cols) -> np.ndarray:
    """|points[rows] - members[cols]|^2 pairwise, summed as sq_dists_to_point sums."""
    out = np.empty(rows.size)
    step = max(1, _BLOCK_ELEMS // points.shape[1])
    for t in range(0, rows.size, step):
        diff = points[rows[t:t + step]] - members[cols[t:t + step]]
        out[t:t + step] = np.einsum("ij,ij->i", diff, diff)
    return out


def _nearest_sq(points: np.ndarray, members: np.ndarray):
    """(position of the nearest member, its squared distance) for every row.

    The distances equal the minimum over members of sq_dists_to_point
    exactly; among members at exactly equal distance the lowest position
    wins. A later copy of a member never wins, so the screen runs on the
    first occurrence of each distinct member alone.

    Screening bound. Points and members are translated to the midpoint o of
    the members' bounding box, so x and c below are x - o and c - o, and
    u = eps / 2. The screen h_j = -2 x.c_j + |c_j|^2, one GEMM over d + 1
    terms, is off from |x - c_j|^2 - |x|^2 by at most (3d + 2) u (|x|^2 +
    |c_j|^2): the d + 1 term sum plus the rounding of |c_j|^2. Rounding the
    translation moves |x - c_j|^2 by at most 4u (|x|^2 + |c_j|^2). The
    exact value, the rounded sum of squared rounded differences, is off by
    at most (d + 2) u |x - c_j|^2 <= (2d + 4) u (|x|^2 + |c_j|^2). With 2u
    for rounding the threshold the total is (5d + 12) u, below the bound
    used, the checker's 8 (d + 2) eps (|x|^2 + max |c|^2), plus (d + 2)
    tiny for underflow. A member whose screen exceeds the row's minimum by
    twice that bound is therefore strictly farther than the screened
    winner. Rows with another member inside the window are re-checked on
    exact values over the members inside it; a NaN screen (overflowed
    coordinates) keeps every member of its row inside.
    """
    keep = first_occurrences(members)
    members = members[keep]
    n, d = points.shape
    m = members.shape[0]
    best = np.empty(n)
    arg = np.empty(n, dtype=np.int64)
    origin = members.min(axis=0) * 0.5 + members.max(axis=0) * 0.5
    centered = members - origin
    cc = np.einsum("ij,ij->i", centered, centered)
    # points carry a trailing 1 so that the GEMM also adds |c|^2
    screen_by = np.vstack([-2.0 * centered.T, cc])
    bound = 8.0 * (d + 2) * _EPS
    base = (d + 2) * _TINY + bound * cc.max()
    step = max(1, min(n, _BLOCK_ELEMS // (m + d)))
    shifted = np.ones((step, d + 1))
    screen = np.empty((step, m))
    for s in range(0, n, step):
        x = points[s:s + step]
        b = x.shape[0]
        xo = np.subtract(x, origin, out=shifted[:b, :d])
        h = np.matmul(shifted[:b], screen_by, out=screen[:b])
        r = np.arange(b)
        pos = h.argmin(axis=1)
        low = h[r, pos]
        thr = low + 2.0 * (bound * np.einsum("ij,ij->i", xo, xo) + base)
        h[r, pos] = np.inf
        amb = np.flatnonzero(np.logical_not(h[r, h.argmin(axis=1)] > thr))
        diff = x - members[pos]
        d2 = np.einsum("ij,ij->i", diff, diff)
        if amb.size:
            h[r, pos] = low
            rows, cols = np.nonzero(np.logical_not(h[amb] > thr[amb, None]))
            exact = _exact_sq(x, members, amb[rows], cols)
            # pairs ascend by (row, member); every ambiguous row has one
            near = np.minimum.reduceat(exact, np.flatnonzero(np.diff(rows, prepend=-1)))
            hit = np.flatnonzero(exact == near[rows])
            d2[amb] = near
            pos[amb] = cols[hit[np.diff(rows[hit], prepend=-1) != 0]]
        best[s:s + b] = d2
        arg[s:s + b] = pos
    return keep[arg], best


def min_sq_dists(dataset: Dataset, centers) -> np.ndarray:
    """Per-row squared distance to the nearest center.

    Exactly the minimum over centers of sq_dists_to_point, so a row that
    coincides with a center gets 0.0.
    """
    return _nearest_sq(dataset.coords, _center_rows(dataset, centers))[1]


def cost(dataset: Dataset, centers) -> float:
    """Max over all rows of the distance to the nearest center."""
    return float(np.sqrt(min_sq_dists(dataset, centers).max()))
