"""Exact nearest-member oracle over a row subset.

A query returns (original row index of the nearest member, distance to
it). Both come from the blocked kernel ``core._nearest_sq``, so they are
exactly what one ``sq_dists_to_point`` pass per member gives: coincident
rows are at 0.0 and exact ties go to the lowest row index.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, _nearest_sq, index_subset


class ExactOracle:
    """Nearest member of a fixed row subset, by the blocked exact kernel."""

    def __init__(self, dataset: Dataset, subset):
        self.built_on = index_subset(subset, dataset.n)
        self.members = dataset.coords[self.built_on]

    def query(self, x):
        idx, dists = self.query_many(np.asarray(x, dtype=np.float64).ravel()[None])
        return int(idx[0]), float(dists[0])

    def query_many(self, points: np.ndarray):
        pos, d2 = _nearest_sq(np.asarray(points, dtype=np.float64), self.members)
        return self.built_on[pos], np.sqrt(d2)


def build_oracle(dataset: Dataset, subset) -> ExactOracle:
    """The oracle one sampling round queries.

    A factory rather than a direct ``ExactOracle`` call only so that the
    round loop looks this name up in ``kcover.sampling``, where the
    benchmark's tracer wraps it to count rounds (perfbench/layers.py).
    """
    return ExactOracle(dataset, subset)
