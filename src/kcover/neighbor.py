"""Exact nearest-member oracle over a row subset.

``query_many`` returns, for each query row, the original row index of its
nearest member and the distance to it. Both come from the exact pass
``core._nearest_sq``, so they are exactly what one ``sq_dists_to_point``
pass per member gives: coincident rows are at 0.0 and exact ties go to the
lowest row index. That pass costs O(n m d) with no BLAS screen; it is
meant for the few rows a screen leaves open, not for whole datasets.

``farther_than`` answers the covered test a sampling round needs, whether
a row's nearest member is farther than a radius, with exactly the values
``query_many`` gives. The screen ``core._screen_farther`` runs the
member-major bracket scan that ``cost`` also runs, but from a small first
chunk of members rather than all of them, so a row leaves the scan at the
first chunk that covers it. The rows it leaves open go to ``query_many``
in one call per round; on the benchmark's sampling rounds that call gets
0 rows against about 540 members.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, _nearest_sq, _screen_farther, index_subset


class ExactOracle:
    """Nearest member of a fixed row subset, by the blocked exact pass."""

    def __init__(self, dataset: Dataset, subset):
        self.built_on = index_subset(subset, dataset.n)
        self.members = dataset.coords[self.built_on]

    def query_many(self, points: np.ndarray):
        """(nearest member's row index, distance to it) for every query row.

        The exact pass over every (row, member) pair, O(n m d) with no BLAS
        screen: it exists for the rows farther_than's screen leaves open,
        0 rows a round on the benchmark's sampling rounds. A direct call on
        many rows pays for every pair.
        """
        pos, d2 = _nearest_sq(np.asarray(points, dtype=np.float64), self.members)
        return self.built_on[pos], np.sqrt(d2)

    def farther_than(self, points: np.ndarray, radius: float) -> np.ndarray:
        """Mask of the rows whose nearest member is farther than radius.

        Bit-identical to ``query_many(points)[1] > radius``. The rows the
        screen leaves open (within a few ulps of radius, or beyond its
        overflow-free range) go to query_many in one call, which may have
        no rows.
        """
        if not radius >= 0.0:
            raise ValueError("radius must be a nonnegative number")
        points = np.asarray(points, dtype=np.float64)
        far, open_rows = _screen_farther(points, self.members, float(radius))
        far[open_rows] = self.query_many(points[open_rows])[1] > radius
        return far


# the benchmark's tracer wraps this name in kcover.sampling to count rounds
build_oracle = ExactOracle
