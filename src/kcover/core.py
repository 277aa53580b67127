"""Point-set container, Euclidean distances, and the max-of-min clustering objective.

Distances are computed on squared values internally; square roots are taken
only at API boundaries, so exact zeros for coincident rows survive.

Both full-data passes, ``cost`` and a sampling round's covered test
(``_screen_farther``), run one member-major GEMM screen, ``_bracket_scan``.
It translates points and members to the midpoint of the members' bounding
box (``_screen_frame``, which also derives the rounding bound B =
``8 (d + 2) eps (|x|^2 + max |c|^2)``), screens ``|x|^2 - 2 x.c + |c|^2``
one row per member, and brackets each row's exact minimum within 2B of an
elementwise minimum, over member chunks of doubling size; a row leaves the
scan once its upper end falls below the caller's threshold. The scan's
block buffers are a per-thread scratch kept between calls
(``_scratch_buffer``). It gives up on a row whose coordinates are large
enough for the GEMM to overflow (``_slack``) and leaves it to exact values.

The rows the brackets leave open (for ``cost`` the candidates for the
farthest row, for the covered test the rows near the radius) go to the
exact pass, ``_nearest_sq``: every (row, member) pair from coordinate
differences, as ``sq_dists_to_point`` computes them, O(n m d) with no BLAS
screen. Its values are exactly those of one ``sq_dists_to_point`` pass per
member, so coincident rows get exactly 0.0 and exact ties go to the lowest
member index. Each block holds at most ``_BLOCK_ELEMS`` float64 differences
(512 KiB), and at least one pair. On the benchmark's instances every call
gets 0 or 1 row: ``cost`` sends 1 row against 20, 32 or 316 centers, and a
sampling round sends 0 rows against about 540 members.

Exact row dedup, of grid cells and of coordinates alike, is one routine,
``first_occurrences``, built on sorting and with no hashing. It reads each
row as one bit string, every column's offset above the column minimum in
the bits that column's span needs, high bits first, and folds the string
into group ids over rounds: each round packs a row's group id and as many
next bits as fit above the row index bits of one int64 key, and one
in-place sort of the keys yields the next group ids. The grid step hands
it packed cell numbers, one int64 per group of axes
(``kcover.covering.eval_hash_batch``), so the fold sees those groups, not
d cell coordinates: one column on every full pass of the benchmark's grid
workloads, in d = 2 and d = 20 alike. When the columns' bits fit beside
the row index one round does it all. Every count is exact, over a budget
too. Value-only dedup of 1-D arrays (row indices, keys) is
``sorted_distinct``, a sort and an adjacent compare.
"""

from __future__ import annotations

import threading

import numpy as np

MAX_SEED = 2**64

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny
_MAX = np.finfo(np.float64).max
# cap on the float64 values in one block buffer of _bracket_scan and _nearest_sq
_BLOCK_ELEMS = 1 << 16
# members in the first chunk of a _bracket_scan that rows can leave; each next doubles
_FIRST_CHUNK = 32
# fixed seed of _bracket_scan's member visit order; no result depends on it
_VISIT_SEED = 0x6661727468
# each thread's _scratch_buffer, kept from one call to the next
_scratch = threading.local()

# Stream tags: every randomized operation derives its generator from
# (master seed, tag, ...indices), so one seed reproduces the whole run
# and no two operations share a stream.
STREAM_GRID_SHIFT = 1
# tag 2 (a deleted random projection's) is retired and never reused
STREAM_UNIFORM_SAMPLE = 4
STREAM_ROUND_SAMPLE = 5
STREAM_SYNTH = 7
STREAM_SWEEP = 8
STREAM_SCALE_FILTER = 9
STREAM_ANCHOR = 10


# nothing raises it, as every sweep ends in a covering; perfbench/run.py still catches it
class ConstructionFailedError(Exception):
    pass


def rng_stream(seed, *path):
    """Deterministic generator for one named operation.

    Seeded from the 64-bit master seed plus an integer path; identical
    inputs reproduce bit-identical streams (numpy PCG64, ziggurat normals).
    """
    seed = int(seed)
    if not 0 <= seed < MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return np.random.default_rng([seed, *(int(p) for p in path)])


def uniform_rows(n: int, size: int, seed: int, stream: int) -> np.ndarray:
    """size distinct rows of range(n), uniform without replacement, sorted int64."""
    return np.sort(rng_stream(seed, stream).choice(n, size, replace=False)).astype(np.int64)


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


def row_indices(indices) -> np.ndarray:
    """int64 copy of a nonempty array of row indices, read-only.

    Any dtype but integer raises: a float or bool index is never truncated
    to a row. An empty list, which numpy reads as float64, raises as empty:
    no subset or solution holds zero rows.
    """
    arr = np.asarray(indices)
    if arr.size == 0:
        raise ValueError("row indices must be nonempty")
    if arr.dtype.kind not in "iu":
        raise ValueError("row indices must be integers")
    idx = arr.astype(np.int64)
    idx.setflags(write=False)
    return idx


def index_subset(indices, n) -> np.ndarray:
    """Canonical row-index subset: sorted, distinct, int64, all in [0, n).

    The indices are checked as row_indices checks them.
    """
    idx = row_indices(indices).ravel()
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


def _group_starts(sorted_values) -> np.ndarray:
    """Mask of the positions of a sorted nonempty 1-D array that start a run."""
    starts = np.empty(sorted_values.shape[0], dtype=bool)
    starts[0] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=starts[1:])
    return starts


def sorted_distinct(values) -> np.ndarray:
    """Distinct values of a nonempty 1-D integer array, sorted ascending.

    The same values as numpy's ``unique``, from a sort and an adjacent
    compare; ``unique`` without return arguments takes a hash path that is
    several times slower on int64.
    """
    ordered = np.sort(values)
    return ordered[_group_starts(ordered)]


def first_occurrences(rows, budget=None):
    """Lowest index of each distinct row of a nonempty 2-D array.

    Returns (count, indices): indices sorted ascending, count their number,
    exact. Given a budget, more than budget distinct rows come back as
    (count, None). Integer rows (grid cells) compare as full vectors. Float
    rows compare by the bit pattern of ``row + 0.0``, so 0.0 and -0.0 are
    one value, as numpy's ``unique`` treats them.

    Column j's offset above its minimum takes bit_length(max_j - min_j)
    bits, and the columns' offsets, high bits first, form one bit string per
    row that orders the rows as their columns do. The fold reads the string
    over rounds. A round packs each row into one int64 key: its group id
    from the rounds before, then as many next bits of the string as fit
    below 2**63 beside it, crossing column edges, shifted left by row_bits =
    bit_length(n - 1) and ORed with the row index. Subtract, shift, mask and
    OR form every key; uint64 offsets wrap modulo 2**64 and every true
    offset lies in [0, 2**64), so they are exact. One in-place sort groups
    equal high bits with the lowest index first, and the groups' ranks,
    scattered back through the index bits, are the next round's group ids.
    The fold stops when the bits run out or every row is alone in its
    group. A single column takes one round when its span times 2**row_bits
    is at most 2**63. The group ids take at most row_bits, so for n up to
    2**31 every round reads at least one bit.
    """
    arr = np.asarray(rows)
    if arr.dtype.kind == "f":
        arr = (arr.astype(np.float64, copy=False) + 0.0).view(np.int64)
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    n = arr.shape[0]
    row_bits = (n - 1).bit_length()
    index = np.arange(n, dtype=np.uint64)
    # the widths are taken on Python ints, so a column spanning most of the
    # int64 range cannot overflow; column j holds bits [ends[j], ends[j + 1])
    low, high = column_extents(arr)
    lo = low.tolist()
    ends = np.cumsum([0] + [(b - a).bit_length() for a, b in zip(lo, high.tolist())]).tolist()
    count, taken, ids = 1, 0, None
    while True:
        stop = min(ends[-1], taken + 63 - row_bits - (count - 1).bit_length())
        keys = ids
        if keys is not None:
            keys <<= np.uint64(stop - taken + row_bits)
        for j in range(len(lo)):
            # the bits [top, end) of the round's [taken, stop) in column j
            top, end = max(ends[j], taken), min(ends[j + 1], stop)
            if top >= end:
                continue
            part = arr[:, j].view(np.uint64) - np.uint64(lo[j] % (1 << 64))
            if end < ends[j + 1]:
                part >>= np.uint64(ends[j + 1] - end)
            if top > ends[j]:
                part &= np.uint64((1 << (end - top)) - 1)
            part <<= np.uint64(stop - end + row_bits)
            keys = part if keys is None else np.bitwise_or(keys, part, out=keys)
        keys = index.copy() if keys is None else np.bitwise_or(keys, index, out=keys)
        keys = keys.view(np.int64)
        keys.sort()
        starts = _group_starts(keys >> row_bits)
        count, taken = int(np.count_nonzero(starts)), stop
        if count == n or taken == ends[-1]:
            break
        ids = np.empty(n, dtype=np.uint64)
        ids[keys & ((1 << row_bits) - 1)] = np.cumsum(starts) - 1
    if budget is not None and count > budget:
        return count, None
    return count, np.sort(keys[starts] & ((1 << row_bits) - 1))


def _exact_sq(points: np.ndarray, members: np.ndarray) -> np.ndarray:
    """(n, m) |points[i] - members[j]|^2, summed as sq_dists_to_point sums."""
    d = points.shape[1]
    diff = (points[:, None, :] - members).reshape(-1, d)
    return np.einsum("ij,ij->i", diff, diff).reshape(points.shape[0], -1)


def _screen_frame(members: np.ndarray):
    """(origin, screen_by, bound, base) of the GEMM screen over the members.

    The screen translates points and members to the midpoint o of the
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
    low, high = column_extents(members)
    origin = low * 0.5 + high * 0.5
    centered = members - origin
    cc = np.einsum("ij,ij->i", centered, centered)
    # points carry a trailing 1 so that the GEMM also adds |c|^2
    screen_by = np.vstack([-2.0 * centered.T, cc])
    bound = 8.0 * (d + 2) * _EPS
    base = (d + 2) * _TINY + bound * cc.max()
    return origin, screen_by, bound, base


def _slack(xx: np.ndarray, bound: float, base: float) -> np.ndarray:
    """2B for rows with |x|^2 = xx, or inf where the screen may have overflowed.

    Below 2B = bound * MAX / 2, |x|^2 + max |c|^2 < MAX / 4, so no partial
    sum of a screen value (at most |x|^2 + 2 |c|^2 in magnitude) or of an
    exact squared distance overflows, and _screen_frame's bound holds for
    every member. Beyond it a single product can overflow to -inf even at a
    member that coincides with the row, so the row's screen bounds nothing.
    A NaN slack counts as overflowed too; the mask is built only when the
    largest slack (NaN if any is) is not below the limit.
    """
    slack = 2.0 * (bound * xx + base)
    limit = 0.5 * bound * _MAX
    if not slack.max() < limit:
        slack[np.logical_not(slack < limit)] = np.inf
    return slack


def _nearest_sq(points: np.ndarray, members: np.ndarray):
    """(position of the nearest member, its squared distance) for every row.

    The exact pass: _exact_sq on every (row, member) pair, in blocks of at
    most _BLOCK_ELEMS coordinate differences, over member chunks in index
    order. A row's running minimum changes only on a strictly smaller value,
    so the distances equal the minimum over members of sq_dists_to_point
    exactly, and among members at exactly equal distance the lowest position
    wins. It costs O(n m d) with no GEMM screen: its callers send it only
    the rows that _bracket_scan leaves open.
    """
    n, d = points.shape
    m = members.shape[0]
    best = np.full(n, np.inf)
    arg = np.zeros(n, dtype=np.int64)
    chunk = max(1, min(m, _BLOCK_ELEMS // d))
    step = max(1, min(n, _BLOCK_ELEMS // (chunk * d)))
    for s in range(0, n, step):
        x = points[s:s + step]
        for start in range(0, m, chunk):
            exact = _exact_sq(x, members[start:start + chunk])
            pos = exact.argmin(axis=1)
            near = exact[np.arange(x.shape[0]), pos]
            better = near < best[s:s + step]
            best[s:s + step][better] = near[better]
            arg[s:s + step][better] = pos[better] + start
    return arg, best


def _scratch_buffer(size: int) -> np.ndarray:
    """This thread's float64 scratch of at least size values, kept for later calls.

    _bracket_scan takes its block buffers from here. Allocated afresh in
    every call, they cost 300 to 700 page faults a sampling round at
    n = 10k, d = 8 with 532 members, a count that moved with the allocator's
    state and made the round's time swing from one process to the next. A
    buffer kept between calls is faulted in once.
    """
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.size < size:
        buf = _scratch.buf = np.empty(size)
    return buf


def _bracket_scan(points: np.ndarray, members: np.ndarray, below: float):
    """(live, lower, upper): brackets on each row's squared nearest-member distance.

    The screen is member-major, one row per member, so a row's screened
    minimum est = min_j h_j + |x|^2 is an elementwise minimum. By
    _screen_frame's bound est lies within B of the row's exact minimum, and
    within 2B once the roundings of |x|^2 and of the addition are counted:
    the exact minimum lies in [est - 2B, est + 2B], with 2B from _slack.

    Members go in a fixed shuffled order, in chunks capped at _BLOCK_ELEMS,
    each twice the last: the first holds _FIRST_CHUNK members, or all when
    below is -inf, so no row can leave. After every chunk but the last, the
    rows whose upper end lies below below leave the scan. A row's 2B depends
    on the row and the fixed origin alone, and rounding is monotone, so
    running minima of est - 2B and est + 2B are exactly the ends over the
    members visited. lower and upper hold them for every row when live is
    None, else for the rows in live. Rows are sliced until one leaves and
    gathered after; beyond the block buffers the scan keeps two float64
    values per row.
    """
    n, d = points.shape
    m = members.shape[0]
    first = m if below == -np.inf else _FIRST_CHUNK
    visit = np.random.default_rng(_VISIT_SEED).permutation(m)
    origin, screen_by, bound, base = _screen_frame(members[visit])
    by_member = screen_by.T
    column = origin[:, None]
    live = None
    lower, upper = np.empty((2, n))
    # the first chunk takes the most rows per block and a later one no more,
    # so every chunk shares the block buffers
    most = max(1, min(n, _BLOCK_ELEMS // max(min(first, m, _BLOCK_ELEMS), d + 1)))
    size = min(m * most, _BLOCK_ELEMS)
    work = _scratch_buffer(size + (2 * d + 1) * most)
    screen = work[:size]
    # rows go in as columns, so the translation and |x|^2 run along rows of
    # the block rather than along rows of d values
    shifted = work[size:size + (d + 1) * most].reshape(d + 1, most)
    shifted[d] = 1.0
    gathered = work[size + (d + 1) * most:size + (2 * d + 1) * most].reshape(most, d)
    start, chunk = 0, first
    while lower.size:
        by = by_member[start:start + min(chunk, _BLOCK_ELEMS)]
        c = by.shape[0]
        step = max(1, min(lower.size, most, _BLOCK_ELEMS // max(c, d + 1)))
        for s in range(0, lower.size, step):
            b = min(step, lower.size - s)
            if live is None:
                x = points[s:s + b]
            else:
                x = np.take(points, live[s:s + b], axis=0, out=gathered[:b], mode="clip")
            xo = np.subtract(x.T, column, out=shifted[:d, :b])
            h = np.matmul(by, shifted[:, :b], out=screen[:c * b].reshape(c, b))
            xx = np.einsum("ij,ij->j", xo, xo)
            est = h.min(axis=0)
            est += xx
            slack = _slack(xx, bound, base)
            if start:
                np.minimum(lower[s:s + b], est - slack, out=lower[s:s + b])
                np.minimum(upper[s:s + b], est + slack, out=upper[s:s + b])
            else:
                np.subtract(est, slack, out=lower[s:s + b])
                np.add(est, slack, out=upper[s:s + b])
        start += c
        chunk *= 2
        if start >= m:
            break
        stay = np.logical_not(upper < below)
        if not stay.all():
            live = np.flatnonzero(stay) if live is None else live[stay]
            lower, upper = lower[stay], upper[stay]
    return live, lower, upper


def _screen_farther(points: np.ndarray, members: np.ndarray, radius: float):
    """(mask of the rows proved farther than radius, indices of the undecided).

    A row is far when sqrt(_nearest_sq(points, members)[1]) > radius. The
    screen is _bracket_scan from a first chunk of _FIRST_CHUNK members, so
    a covered row costs one small chunk rather than all members:

    - an upper end below radius^2 (less a relative 4 eps and tiny) puts a
      member within radius: the row is covered and leaves the scan;
    - a finite lower end above radius^2 (plus the same margin) over all
      members makes the row far.

    The margins absorb the rounding of radius^2 and of the square root, so
    both calls agree with the exact kernel. The rows left between them, and
    those with an infinite _slack, are undecided. The scan's shuffled
    member order keeps a row's near members out of the last chunks when
    rows are sorted by coordinates; the answer does not depend on it.
    """
    r2 = radius * radius
    covered_below = r2 * (1.0 - 4.0 * _EPS) - _TINY
    live, lower, upper = _bracket_scan(points, members, covered_below)
    if live is None:
        live = np.arange(points.shape[0])
    decided = np.isfinite(lower) & (lower > r2 * (1.0 + 4.0 * _EPS) + _TINY)
    far = np.zeros(points.shape[0], dtype=bool)
    far[live[decided]] = True
    return far, live[np.logical_not(decided | (upper < covered_below))]


def cost(dataset: Dataset, centers) -> float:
    """Max over all rows of the distance to the nearest center row.

    Exactly the square root of the largest squared distance _nearest_sq
    gives, so a row that coincides with a center counts as 0.0. The value
    depends only on the set of centers, so they are taken as index_subset
    gives them.

    _bracket_scan brackets every row against all centers in one chunk. The
    floor, the largest finite lower end, is at most the largest exact
    minimum, and the row holding that one has an upper end at or above it
    (an overflowed screen gives an infinite or NaN end). So the rows whose
    upper end is not below the floor include the farthest row, and
    _nearest_sq on them alone, usually a handful, gives the same maximum.
    """
    members = dataset.coords[index_subset(centers, dataset.n)]
    # no row leaves a scan whose threshold is -inf, so live is None
    _, lower, upper = _bracket_scan(dataset.coords, members, -np.inf)
    floor = float(np.max(lower, where=np.isfinite(lower), initial=-np.inf))
    rows = np.flatnonzero(np.logical_not(upper < floor))
    return float(np.sqrt(_nearest_sq(dataset.coords[rows], members)[1].max()))
