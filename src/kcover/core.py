"""Point-set container, Euclidean distances, and the max-of-min clustering objective.

Distances are computed on squared values internally; square roots are taken
only at API boundaries, so exact zeros for coincident rows survive.

Nearest-member queries of the exact oracle run through one blocked
kernel, ``_nearest_sq``. It screens members with a GEMM,
``|x|^2 - 2 x.c + |c|^2``, on points and members translated to the midpoint
of the members' bounding box (``_screen_frame``, which also derives the
rounding bound B = ``8 (d + 2) eps (|x|^2 + max |c|^2)``). Then it
recomputes the squared distance from coordinate differences, as
``sq_dists_to_point`` does, to the screened winner and to every other
member whose screen lies within 2B of the row's minimum. So its values are
exactly those of one ``sq_dists_to_point`` pass per member: coincident rows
get exactly 0.0, and exact ties go to the lowest member index. Each block
buffer holds at most ``_BLOCK_ELEMS`` float64 values (512 KiB), and a block
at least one row. Members are collapsed to their first occurrences before
the screen, so copies of one member never widen a row's re-check window.

``cost`` needs only the largest of those distances, and ``_farthest_sq``
gets it without a per-row argmin. The same GEMM, laid out one row per
member, gives each row's screened minimum est as an elementwise minimum,
and the row's exact minimum lies in ``[est - 2B, est + 2B]``. Rows whose
upper end is below the largest lower end cannot hold the maximum; the few
rows left go through ``_nearest_sq``, so the result is exact.

Exact row dedup, of grid cells and of coordinates alike, is one routine,
``first_occurrences``, built on sorting rather than ``np.unique``: one
64-bit key per row, one unstable argsort of the keys, and an exact check of
every key group against full rows. Given a budget, it stops after the sort
when the distinct keys already exceed it; equal rows get equal keys, so that
count is a lower bound on the distinct rows. Value-only dedup of 1-D arrays
(row indices, keys) is ``sorted_distinct``, a sort and an adjacent compare.
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
STREAM_UNIFORM_SAMPLE = 4
STREAM_ROUND_SAMPLE = 5
STREAM_SYNTH = 7
STREAM_SWEEP = 8
STREAM_SCALE_FILTER = 9
STREAM_ANCHOR = 10


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

    def take(self, indices) -> "Dataset":
        """New Dataset from the given rows (copies the selected coordinates)."""
        idx = index_subset(indices, self.n)
        return Dataset(self.coords[idx])

    def __repr__(self):
        return f"Dataset(n={self.n}, d={self.d})"


def index_subset(indices, n) -> np.ndarray:
    """Canonical row-index subset: sorted, distinct, int64, all in [0, n).

    Any dtype but integer raises: a float or bool index is never truncated
    to a row.
    """
    arr = np.asarray(indices)
    if arr.size == 0:
        raise ValueError("index subset must be nonempty")
    if arr.dtype.kind not in "iu":
        raise ValueError("row indices must be integers")
    idx = arr.ravel().astype(np.int64)
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"indices must lie in [0, {n})")
    return sorted_distinct(idx)


def sq_dists_to_point(coords: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Squared distances from every row of coords to one point."""
    diff = coords - point
    return np.einsum("ij,ij->i", diff, diff)


def column_extents(coords: np.ndarray):
    """(min, max) of each column of a nonempty 2-D array, exactly.

    An axis-0 reduction of a tall, narrow C-ordered array walks it with a
    stride of d values, ten to twenty times slower than a flat pass. So the
    leading rows are viewed as rows of about 1024 values, reduced over axis
    0 as whole contiguous rows, and folded back to d columns; the tail rows
    that do not fill a view row are merged after.
    """
    arr = np.ascontiguousarray(coords)
    n, d = arr.shape
    group = max(1, 1024 // d)
    if n <= group:
        return arr.min(axis=0), arr.max(axis=0)
    lead = n - n % group
    wide = arr[:lead].reshape(-1, group * d)
    tail = arr[lead:]
    lo = np.vstack([wide.min(axis=0).reshape(group, d), tail]).min(axis=0)
    hi = np.vstack([wide.max(axis=0).reshape(group, d), tail]).max(axis=0)
    return lo, hi


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


def _group_starts(sorted_values) -> np.ndarray:
    """Mask of the positions of a sorted nonempty 1-D array that start a run."""
    starts = np.empty(sorted_values.shape[0], dtype=bool)
    starts[0] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=starts[1:])
    return starts


def sorted_distinct(values) -> np.ndarray:
    """Distinct values of a nonempty 1-D integer array, sorted ascending.

    The same values as np.unique, from a sort and an adjacent compare;
    np.unique without return arguments takes a hash path that is several
    times slower on int64.
    """
    ordered = np.sort(values)
    return ordered[_group_starts(ordered)]


def first_occurrences(rows, budget=None):
    """Lowest index of each distinct row of a nonempty 2-D array.

    Returns (count, indices): indices sorted ascending, count their number.
    Given a budget, more than budget distinct rows come back as (count,
    None). When the distinct row_keys already exceed the budget, count is
    their number: a lower bound on the distinct rows, equal to it unless
    two of them collide in 64 bits. Otherwise count is exact.

    Integer rows (grid cells) compare as full vectors. Float rows compare by
    the bit pattern of ``row + 0.0``, so 0.0 and -0.0 are one value, as
    ``np.unique`` treats them. Rows are ordered by one unstable argsort of
    their row_keys, and every key group is verified row by row; on a key
    collision the routine falls back to a lexicographic ``np.unique``.
    """
    arr = np.asarray(rows)
    if arr.dtype.kind == "f":
        arr = (arr.astype(np.float64, copy=False) + 0.0).view(np.int64)
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    n, width = arr.shape
    keys = row_keys(arr)
    order = np.argsort(keys)
    starts = _group_starts(keys[order])
    count = int(np.count_nonzero(starts))
    if budget is not None and count > budget:
        return count, None
    # equal rows share a key, so the groups are exact when every row but a
    # group's first equals the row before it. Whole rows are gathered as
    # single void items (no fancy-indexed 2-D copy) and compared as integers,
    # entry by entry: a row-wise all() over a few columns costs ten times more
    heads = np.flatnonzero(starts)
    ordered = arr.view((np.void, 8 * width)).ravel()[order].view(np.int64).reshape(n, width)
    equal = ordered[1:] == ordered[:-1]  # row i + 1 against row i
    if np.count_nonzero(equal) - np.count_nonzero(equal[heads[1:] - 1]) == width * (n - count):
        first = np.minimum.reduceat(order, heads)
    else:
        _, first = np.unique(arr, axis=0, return_index=True)
    first = np.sort(first.astype(np.int64, copy=False))
    if budget is not None and first.shape[0] > budget:
        return first.shape[0], None
    return first.shape[0], first


def _exact_sq(points: np.ndarray, members: np.ndarray, rows, cols) -> np.ndarray:
    """|points[rows] - members[cols]|^2 pairwise, summed as sq_dists_to_point sums."""
    out = np.empty(rows.size)
    step = max(1, _BLOCK_ELEMS // points.shape[1])
    for t in range(0, rows.size, step):
        diff = points[rows[t:t + step]] - members[cols[t:t + step]]
        out[t:t + step] = np.einsum("ij,ij->i", diff, diff)
    return out


def _screen_frame(members: np.ndarray):
    """(origin, screen_by, bound, base) of the GEMM screen over the members.

    Both screens translate points and members to the midpoint o of the
    members' bounding box, so x and c below are x - o and c - o. screen_by
    is the (d + 1) x m matrix [-2 c^T; |c|^2]: a point row [x, 1] times it
    gives h_j = -2 x.c_j + |c_j|^2, which differs from the exact value e_j
    (sq_dists_to_point of the untranslated rows) minus |x|^2 by at most
    B = bound |x|^2 + base.

    Proof, with u = eps / 2. The GEMM over d + 1 terms is off from
    |x - c_j|^2 - |x|^2 by at most (3d + 2) u (|x|^2 + |c_j|^2): the term
    sum plus the rounding of |c_j|^2. Rounding the translation moves
    |x - c_j|^2 by at most 4u (|x|^2 + |c_j|^2). The exact value, the
    rounded sum of squared rounded differences, is off by at most (d + 2) u
    |x - c_j|^2 <= (2d + 4) u (|x|^2 + |c_j|^2). That is (5d + 10) u in
    all, below bound = 8 (d + 2) eps = (16d + 32) u times |x|^2 + max |c|^2;
    base also carries (d + 2) tiny for underflow. The margin left, over
    (10d + 20) u, covers the callers' own roundings: computing |x|^2 (d u)
    and adding it to a screen value (2u), and the thresholds they build
    from B (a few u).
    """
    d = members.shape[1]
    origin = members.min(axis=0) * 0.5 + members.max(axis=0) * 0.5
    centered = members - origin
    cc = np.einsum("ij,ij->i", centered, centered)
    # points carry a trailing 1 so that the GEMM also adds |c|^2
    screen_by = np.vstack([-2.0 * centered.T, cc])
    bound = 8.0 * (d + 2) * _EPS
    base = (d + 2) * _TINY + bound * cc.max()
    return origin, screen_by, bound, base


def _nearest_sq(points: np.ndarray, members: np.ndarray):
    """(position of the nearest member, its squared distance) for every row.

    The distances equal the minimum over members of sq_dists_to_point
    exactly; among members at exactly equal distance the lowest position
    wins. A later copy of a member never wins, so the screen runs on the
    first occurrence of each distinct member alone.

    Each block's screen is row-major, one row per point. By _screen_frame's
    bound, a member whose screen exceeds the row's minimum by more than 2B
    is strictly farther than the screened winner. Rows with another member
    inside that window are re-checked on exact values over the members
    inside it; a NaN screen (overflowed coordinates) keeps every member of
    its row inside.
    """
    keep = first_occurrences(members)[1]
    members = members[keep]
    n, d = points.shape
    m = members.shape[0]
    best = np.empty(n)
    arg = np.empty(n, dtype=np.int64)
    origin, screen_by, bound, base = _screen_frame(members)
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


def _farthest_sq(points: np.ndarray, members: np.ndarray) -> float:
    """Max over rows of the squared distance to the nearest member, exactly.

    The same value as _nearest_sq(points, members)[1].max(), without the
    per-row nearest member. Each block's screen is member-major, one row per
    member, so a row's screened minimum est = min_j h_j + |x|^2 is an
    elementwise minimum over contiguous member rows. By _screen_frame's
    bound every h_j + |x|^2 lies within B of e_j, so est lies within B of
    the row's exact minimum, and within 2B once the roundings of |x|^2 and
    of the addition are counted: the row's exact minimum lies in
    [est - 2B, est + 2B]. The floor, the largest finite lower end over all
    rows, is at most the largest exact minimum, and the row holding that
    one has an upper end at or above it. So the rows whose upper end is not
    below the floor include the farthest row, and the exact kernel on them
    alone returns the same maximum. A screen that overflowed (an infinite or
    NaN est, which large finite coordinates can give even where the exact
    distance is finite) bounds nothing, so its row gets an infinite upper
    end and stays.
    """
    n, d = points.shape
    m = members.shape[0]
    origin, screen_by, bound, base = _screen_frame(members)
    by_member = screen_by.T
    column = origin[:, None]
    step = max(1, min(n, _BLOCK_ELEMS // (m + d)))
    # points go in as columns, so the translation and |x|^2 run along rows
    # of the block rather than along rows of d values
    shifted = np.ones((d + 1, step))
    screen = np.empty(m * step)
    top = np.empty(n)
    floor = -np.inf
    for s in range(0, n, step):
        b = min(step, n - s)
        xo = np.subtract(points[s:s + b].T, column, out=shifted[:d, :b])
        h = np.matmul(by_member, shifted[:, :b], out=screen[:m * b].reshape(m, b))
        xx = np.einsum("ij,ij->j", xo, xo)
        est = h.min(axis=0) + xx
        slack = 2.0 * (bound * xx + base)
        low = est - slack
        floor = max(floor, float(np.max(low, where=np.isfinite(low), initial=-np.inf)))
        top[s:s + b] = np.where(np.isfinite(est), est + slack, np.inf)
    rows = np.flatnonzero(np.logical_not(top < floor))
    return _nearest_sq(points[rows], members)[1].max()


def cost(dataset: Dataset, centers) -> float:
    """Max over all rows of the distance to the nearest center row.

    Exactly the square root of the largest squared distance _nearest_sq
    gives, so a row that coincides with a center counts as 0.0. A screen
    sends only the candidates for the farthest row to that kernel. The value
    depends only on the set of centers, so they are taken as index_subset
    gives them.
    """
    members = dataset.coords[index_subset(centers, dataset.n)]
    return float(np.sqrt(_farthest_sq(dataset.coords, members)))
