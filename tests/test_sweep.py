"""The shared scale sweep behind the hash, low-dimensional and sample coverings."""

import math

import numpy as np
import pytest

from kcover import sampling
from kcover.core import ConstructionFailedError, Dataset
from kcover.covering import HashCoveringConfig, build_covering_hash, low_dim_baseline
from kcover.sampling import SampleCoveringConfig, build_covering_sample

from conftest import covering_ok


def instances():
    rng = np.random.default_rng(404)
    centers = np.array([[0.0, 0.0], [40.0, 0.0], [0.0, 40.0], [40.0, 40.0]])
    clusters = Dataset(centers[np.arange(40) % 4] + rng.normal(size=(40, 2)))
    box = Dataset(np.random.default_rng(405).uniform(-3.0, 5.0, size=(36, 3)))
    return {"clusters": clusters, "box": box}


BUILDS = {
    "hash-budget": lambda data: build_covering_hash(
        data, HashCoveringConfig(k=4, mode="budget", budget=10, seed=7)),
    "hash-theory": lambda data: build_covering_hash(
        data, HashCoveringConfig(k=4, mode="theory", threshold_factor=0.05, seed=7)),
    "lowdim": lambda data: low_dim_baseline(
        data, HashCoveringConfig(k=4, mode="budget", budget=10, seed=7)),
    # few draws per round, so low scales fail and the sweep climbs
    "sample": lambda data: build_covering_sample(
        data, SampleCoveringConfig(k=2, sample_constant=0.1, seed=7)),
}

# (subset, radius_bound, tau_used, iterations, sizes), recorded before the
# hash and sample sweeps were merged into one function
PINNED = {
    ("clusters", "hash-budget"): (
        [0, 1, 2, 3, 4, 10, 24, 35], 6.921707210560369, 6.921707210560369, 13,
        (40, 40, 40, 40, 40, 40, 40, 39, 39, 36, 25, 14, 8)),
    ("clusters", "hash-theory"): (
        [0, 1, 2, 3, 4, 6, 12, 18, 27, 29], 6.921707210560369, 3.4608536052801844, 12,
        (40, 40, 40, 40, 40, 40, 40, 37, 33, 20, 15, 10)),
    ("clusters", "lowdim"): (
        [0, 1, 2, 3, 4, 5, 6, 8, 20], 55.37365768448295, 55.37365768448295, 16,
        (40, 40, 40, 40, 40, 40, 40, 40, 38, 35, 22, 15, 14, 14, 14, 9)),
    ("clusters", "sample"): (
        [0, 1, 2, 3, 4, 6, 7, 9, 10, 11, 12, 13, 14, 18, 19, 20, 21, 22, 24, 26, 27,
         28, 29, 30, 31, 32, 33, 35, 37, 39],
        0.532243499716086, 0.1330608749290215, 5, (30, 30, 30, 30, 30)),
    ("box", "hash-budget"): (
        [0, 2, 6, 23], 17.260441591135887, 17.260441591135887, 14,
        (36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 23, 11, 4)),
    ("box", "hash-theory"): (
        list(range(36)), 0.00421397499783591, 0.002106987498917955, 1, (36,)),
    ("box", "lowdim"): (
        [0, 1, 2, 3, 4, 10, 17, 21], 8.630220795567944, 8.630220795567944, 13,
        (36, 36, 36, 36, 36, 36, 36, 36, 36, 36, 35, 24, 8)),
    ("box", "sample"): (
        [3, 7, 14, 16, 17, 18, 22, 24, 25, 28, 29, 32, 33, 34, 35],
        2.386316728270151, 0.5965791820675378, 8, (30, 30, 30, 30, 30, 30, 30, 15)),
}


@pytest.mark.parametrize("instance,method", sorted(PINNED))
def test_coverings_match_pinned_values(instance, method):
    result = BUILDS[method](instances()[instance])
    got = (result.subset.tolist(), result.radius_bound, result.tau_used,
           result.iterations, result.sizes)
    assert got == PINNED[(instance, method)]


@pytest.mark.parametrize("method", ["hash-budget", "lowdim", "sample"])
def test_duplicate_rows_collapse_to_lowest_index(method):
    # three distinct rows, one of them written both as 0.0 and as -0.0
    data = Dataset([[0.0, 1.0], [2.0, 3.0], [-0.0, 1.0], [2.0, 3.0],
                    [0.0, 1.0], [5.0, -1.0], [5.0, -1.0]])
    build = {
        "hash-budget": lambda: build_covering_hash(
            data, HashCoveringConfig(k=3, mode="budget", budget=3, seed=1)),
        "lowdim": lambda: low_dim_baseline(
            data, HashCoveringConfig(k=3, mode="budget", budget=3, seed=1)),
        "sample": lambda: build_covering_sample(data, SampleCoveringConfig(k=3, seed=1)),
    }[method]
    result = build()
    assert result.subset.tolist() == [0, 1, 5]
    assert result.radius_bound == 0.0 and result.tau_used == 0.0
    assert result.iterations == 1 and result.sizes == (3,)


def test_sample_failure_carries_sizes(monkeypatch):
    monkeypatch.setattr(sampling, "run_sampling_rounds",
                        lambda dataset, tau, cfg, tau_index=0: (None, 7))
    data = Dataset(np.random.default_rng(2).normal(size=(50, 2)))
    with pytest.raises(ConstructionFailedError) as info:
        build_covering_sample(data, SampleCoveringConfig(k=2, seed=0))
    assert info.value.sizes == (7,) * (math.ceil(math.log2(50**2)) + 1)


def edge_instance(name, seed):
    """(data, k) for the edge cases: d = 1, k = n, and large coordinate offsets."""
    rng = np.random.default_rng(seed)
    if name == "d1":
        return Dataset(rng.normal(scale=10.0, size=(300, 1))), 4
    if name == "k-equals-n":
        return Dataset(rng.normal(size=(40, 2))), 40
    return Dataset(1e8 + rng.normal(size=(300, 3))), 4


EDGE_BUILDS = {
    "hash-budget": lambda data, k, seed: build_covering_hash(
        data, HashCoveringConfig(k=k, mode="budget", budget=min(data.n, 8 * k), seed=seed)),
    "lowdim": lambda data, k, seed: low_dim_baseline(
        data, HashCoveringConfig(k=k, mode="budget", budget=min(data.n, 8 * k), seed=seed)),
    # a lower threshold and sparser rounds than the defaults, at which both
    # keep every row at the first scale on these sizes (ROADMAP item 1)
    "hash-theory": lambda data, k, seed: build_covering_hash(
        data, HashCoveringConfig(k=k, mode="theory", threshold_factor=0.5, seed=seed)),
    "sample": lambda data, k, seed: build_covering_sample(
        data, SampleCoveringConfig(k=k, sample_constant=0.1, seed=seed)),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("method", sorted(EDGE_BUILDS))
@pytest.mark.parametrize("instance", ["d1", "k-equals-n", "offset-1e8"])
def test_edge_case_coverings_sound(instance, method, seed):
    data, k = edge_instance(instance, seed)
    result = EDGE_BUILDS[method](data, k, seed)
    assert covering_ok(data.coords, result.subset, result.radius_bound)
    assert result.size <= data.n
