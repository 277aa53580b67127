"""Nearest-member oracles over a row subset.

Both oracles return (original row index, distance to that row) or
(None, inf) on a miss. The reported distance is always the realized
distance to the returned member, so it never undershoots the true
nearest-member distance; an approximate oracle may overshoot it by at
most its beta factor (with good probability for the LSH variant).
"""

from __future__ import annotations

import math

import numpy as np

from .core import (STREAM_LSH, Dataset, _nearest_sq, index_subset, rng_stream,
                   sq_dists_to_point)

_MIN_TABLES = 4
_MAX_TABLES = 64


class ExactOracle:
    """Brute-force nearest member; beta is exactly 1."""

    kind = "exact"

    def __init__(self, dataset: Dataset, subset, seed: int = 0):
        self.built_on = index_subset(subset, dataset.n)
        self.members = dataset.coords[self.built_on]
        self.beta = 1.0
        self.seed = int(seed)
        self.parameters = {}

    def query(self, x):
        p = np.asarray(x, dtype=np.float64).ravel()
        d2 = sq_dists_to_point(self.members, p)
        pos = int(np.argmin(d2))  # first minimum; members sorted by row index
        return int(self.built_on[pos]), float(np.sqrt(d2[pos]))

    def query_many(self, points: np.ndarray):
        pos, d2 = _nearest_sq(np.asarray(points, dtype=np.float64), self.members)
        return self.built_on[pos], np.sqrt(d2)


class LshOracle:
    """Locality-sensitive tables of concatenated 1-D Gaussian projections.

    Table count grows with m**(1/beta**2); each table keys members by g
    quantized projections of width w, with w set to a small multiple of the
    member nearest-neighbor scale so near points collide in most tables.
    """

    kind = "lsh"

    def __init__(self, dataset: Dataset, subset, beta: float = 2.0, seed: int = 0):
        if beta < 1:
            raise ValueError("beta must be >= 1")
        self.built_on = index_subset(subset, dataset.n)
        self.members = dataset.coords[self.built_on]
        self.beta = float(beta)
        self.seed = int(seed)

        m = self.members.shape[0]
        dim = self.members.shape[1]
        g = max(1, math.ceil(math.log(max(m, 2))))
        tables = math.ceil(m ** (1.0 / beta**2) * math.log(max(m, 2)))
        tables = min(max(tables, _MIN_TABLES), _MAX_TABLES)
        rng = rng_stream(self.seed, STREAM_LSH)
        width = 4.0 * self._scale_estimate(rng)

        self.parameters = {"tables": tables, "width": width, "projections_per_table": g}
        self._dirs = rng.standard_normal((tables, g, dim))
        self._offsets = rng.uniform(0.0, width, size=(tables, g))
        self._buckets = []
        for t in range(tables):
            keys = self._keys_for(t, self.members)
            table: dict[bytes, list[int]] = {}
            for pos in range(m):
                table.setdefault(keys[pos].tobytes(), []).append(pos)
            self._buckets.append(table)

    def _scale_estimate(self, rng) -> float:
        # median member-to-member nearest distance over a small sample;
        # queries drawn from the same cloud have comparable NN distances
        m = self.members.shape[0]
        floor = 1e-12 * (1.0 + float(np.abs(self.members).max()))
        if m == 1:
            return 1.0
        probes = rng.choice(m, size=min(64, m), replace=False)
        nn = np.empty(probes.shape[0])
        for i, p in enumerate(probes):
            d2 = sq_dists_to_point(self.members, self.members[p])
            d2[p] = np.inf
            nn[i] = math.sqrt(float(d2.min()))
        return max(float(np.median(nn)), floor)

    def _keys_for(self, t: int, pts: np.ndarray) -> np.ndarray:
        w = self.parameters["width"]
        proj = pts @ self._dirs[t].T + self._offsets[t]
        return np.floor(proj / w).astype(np.int64)

    def _candidates(self, keys_per_table) -> list[int]:
        seen: set[int] = set()
        for t, key in enumerate(keys_per_table):
            seen.update(self._buckets[t].get(key, ()))
        return sorted(seen)

    def query(self, x):
        p = np.asarray(x, dtype=np.float64).ravel()
        keys = [self._keys_for(t, p.reshape(1, -1))[0].tobytes()
                for t in range(len(self._buckets))]
        cand = self._candidates(keys)
        if not cand:
            return None, math.inf
        d2 = sq_dists_to_point(self.members[cand], p)
        pos = int(np.argmin(d2))  # candidates ascend by row index already
        return int(self.built_on[cand[pos]]), float(np.sqrt(d2[pos]))

    def query_many(self, points: np.ndarray):
        pts = np.asarray(points, dtype=np.float64)
        nq = pts.shape[0]
        all_keys = [self._keys_for(t, pts) for t in range(len(self._buckets))]
        idx = np.full(nq, -1, dtype=np.int64)
        dists = np.full(nq, np.inf)
        for q in range(nq):
            cand = self._candidates([all_keys[t][q].tobytes()
                                     for t in range(len(self._buckets))])
            if not cand:
                continue
            d2 = sq_dists_to_point(self.members[cand], pts[q])
            pos = int(np.argmin(d2))
            idx[q] = self.built_on[cand[pos]]
            dists[q] = math.sqrt(float(d2[pos]))
        return idx, dists


def build_oracle(dataset: Dataset, subset, kind: str = "exact",
                 beta: float = 1.0, seed: int = 0):
    if kind == "exact":
        return ExactOracle(dataset, subset, seed=seed)
    if kind == "lsh":
        return LshOracle(dataset, subset, beta=beta, seed=seed)
    raise ValueError(f"unknown oracle kind {kind!r}")


def query_oracle(oracle, x):
    """(member row index or None, distance estimate; inf on a miss)."""
    return oracle.query(x)
