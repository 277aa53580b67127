"""Output checks that share no distance code with the library.

The eval cost is recomputed with a blocked GEMM nearest-center kernel and
a rigorous error interval; covering soundness uses scipy's k-d tree, whose
distances are exact differences. Neither calls kcover, so a faster library
kernel cannot vouch for itself.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

_EPS = np.finfo(np.float64).eps
_BLOCK = 4096


def cost_interval(points: np.ndarray, centers: np.ndarray) -> tuple[float, float]:
    """Bracket [lo, hi] around max_i min_j |points_i - centers_j|.

    Squared distances come from |x|^2 - 2 x.c + |c|^2 in row blocks; hi is
    the exact distance to each row's GEMM argmin, lo subtracts a bound on
    the GEMM rounding error from each row's approximate minimum.
    """
    cc = np.einsum("ij,ij->i", centers, centers)
    err_scale = 8.0 * (points.shape[1] + 2) * _EPS
    lo = hi = 0.0
    for s in range(0, points.shape[0], _BLOCK):
        x = points[s:s + _BLOCK]
        xx = np.einsum("ij,ij->i", x, x)
        d2 = x @ centers.T
        d2 *= -2.0
        d2 += xx[:, None]
        d2 += cc[None, :]
        arg = d2.argmin(axis=1)
        approx = d2[np.arange(x.shape[0]), arg]
        slack = err_scale * (xx + cc.max())
        lo = max(lo, float((approx - slack).max()))
        diff = x - centers[arg]
        hi = max(hi, float(np.einsum("ij,ij->i", diff, diff).max()))
    return float(np.sqrt(max(lo, 0.0))), float(np.sqrt(hi))


def realized_radius(points: np.ndarray, members: np.ndarray) -> float:
    """Largest distance from a row to its nearest member (exact)."""
    dists, _ = cKDTree(members).query(points, k=1)
    return float(dists.max())


def _close_below(value: float, bound: float, scale: float) -> bool:
    return value <= bound + 1e-9 * abs(bound) + 1e-12 * scale


def check_subset(subset, n: int) -> list[str]:
    sub = np.asarray(subset)
    if sub.ndim != 1 or sub.size == 0 or sub.dtype.kind not in "iu":
        return ["subset is not a nonempty 1-D integer array"]
    errors = []
    if np.any(np.diff(sub) <= 0):
        errors.append("subset is not sorted and distinct")
    if sub.min() < 0 or sub.max() >= n:
        errors.append("subset has rows out of range")
    return errors


def check_covering(coords: np.ndarray, k: int, subset, radius_bound: float,
                   centers, baseline_cost: float):
    """Check a covering and the coreset solution on it; returns (errors, scores).

    centers index into subset, as gonzalez on data.take(subset) returns them.
    scores holds the recomputed cost interval and the realized covering radius.
    """
    n = coords.shape[0]
    errors = check_subset(subset, n)
    if errors:
        return errors, {}
    sub = np.asarray(subset)
    cen = np.asarray(centers)
    if cen.size != min(k, sub.size) or np.unique(cen).size != cen.size:
        return ["solution does not have min(k, |subset|) distinct centers"], {}
    if cen.min() < 0 or cen.max() >= sub.size:
        return ["solution centers do not index into the subset"], {}

    scale = float(np.abs(coords).max()) + 1.0
    realized = realized_radius(coords, coords[sub])
    if not _close_below(realized, radius_bound, scale):
        errors.append(f"a row lies {realized:.6g} from the subset, "
                      f"beyond radius_bound {radius_bound:.6g}")
    lo, hi = cost_interval(coords, coords[sub[cen]])
    if not _close_below(hi, 2.0 * baseline_cost + 2.0 * radius_bound, scale):
        errors.append(f"cost {hi:.6g} exceeds 2*baseline + 2*radius_bound = "
                      f"{2.0 * baseline_cost + 2.0 * radius_bound:.6g}")
    return errors, {"cost_lo": lo, "cost": hi, "realized_radius": realized}


def check_eval(value: float, lo: float, hi: float) -> list[str]:
    """The library's eval value must sit inside the recomputed cost interval."""
    if lo * (1 - 1e-12) <= value <= hi * (1 + 1e-12):
        return []
    return [f"eval value {value!r} is outside the recomputed cost interval [{lo!r}, {hi!r}]"]


def check_baseline(coords: np.ndarray, k: int, centers, reported_cost: float) -> list[str]:
    cen = np.asarray(centers)
    errors = check_subset(cen, coords.shape[0])
    if errors or cen.size != min(k, coords.shape[0]):
        return errors or ["baseline does not have min(k, n) centers"]
    return check_eval(reported_cost, *cost_interval(coords, coords[cen]))
