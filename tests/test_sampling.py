import math

import numpy as np
import pytest

from kcover.core import Dataset
from kcover.sampling import (
    SampleCoveringConfig,
    build_covering_sample,
    run_sampling_rounds,
    sample_with_replacement,
)
from kcover.solver import gonzalez

from conftest import covering_ok


def planted_clusters(n, k, d=2, spread=1.0, separation=100.0, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, 10, size=(k, d))
    centers *= separation / max(1e-9, np.min(
        np.sqrt(((centers[:, None] - centers[None]) ** 2).sum(-1))[np.triu_indices(k, 1)]
    ))
    labels = np.arange(n) % k
    pts = centers[labels] + rng.uniform(-spread / 2, spread / 2, size=(n, d))
    return Dataset(pts)


def batch_size(n, k, c=3.0):
    return max(1, math.ceil(c * k * math.log(max(n, 2))))


def round_budget(n):
    return 5 * math.ceil(math.log2(max(n, 2)))


def test_sample_single_element_pool():
    out = sample_with_replacement(np.array([7]), 5, seed=0)
    assert out.tolist() == [7]


def test_sample_deterministic_and_within_pool():
    pool = np.array([3, 1, 4, 1, 5, 9, 2, 6])
    a = sample_with_replacement(pool, 6, seed=11, stream=(2, 3))
    b = sample_with_replacement(pool, 6, seed=11, stream=(2, 3))
    np.testing.assert_array_equal(a, b)
    assert set(a).issubset(set(pool.tolist()))
    assert len(a) <= 6
    assert np.all(np.diff(a) > 0)


def test_sample_rejects_bad_input():
    with pytest.raises(ValueError):
        sample_with_replacement(np.array([], dtype=np.int64), 1, seed=0)
    with pytest.raises(ValueError):
        sample_with_replacement(np.array([1]), 0, seed=0)


def test_sample_coupon_collector():
    # m = q * ln(q / delta) draws miss some element with probability
    # <= q * exp(-m/q) = delta; verified empirically at delta = 5e-4
    pool = np.arange(30)
    q = pool.size
    m = math.ceil(q * math.log(q / 5e-4))
    full = sum(
        sample_with_replacement(pool, m, seed=s).size == q for s in range(300)
    )
    assert full / 300 >= 0.99


def test_single_point_dataset():
    data = Dataset(np.array([[4.2, -1.0]]))
    result = build_covering_sample(data, SampleCoveringConfig(k=1))
    assert result.subset.tolist() == [0]
    assert result.radius_bound == 0.0
    assert result.iterations == 1


def test_k_equals_n_covering_sound():
    rng = np.random.default_rng(1)
    data = Dataset(rng.normal(size=(150, 3)))
    result = build_covering_sample(data, SampleCoveringConfig(k=150, seed=2))
    assert covering_ok(data.coords, result.subset, result.radius_bound)


def test_planted_four_clusters_bounds():
    data = planted_clusters(n=400, k=4, d=2, spread=1.0, separation=100.0, seed=3)
    cfg = SampleCoveringConfig(k=4, beta=1.0, seed=5)
    result = build_covering_sample(data, cfg)
    opt_ref = gonzalez(data, 4).cost_on_solve_set
    m = batch_size(400, 4)
    big_l = round_budget(400)
    assert result.radius_bound <= 4.0 * opt_ref
    assert result.size <= 4 * m * big_l
    assert covering_ok(data.coords, result.subset, result.radius_bound)


def test_covering_sound_on_random_instances():
    rng = np.random.default_rng(7)
    for trial in range(4):
        n = int(rng.integers(100, 700))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, 8))
        data = Dataset(rng.normal(scale=5.0, size=(n, d)))
        cfg = SampleCoveringConfig(k=k, beta=2.0, seed=trial)
        result = build_covering_sample(data, cfg)
        assert covering_ok(data.coords, result.subset, result.radius_bound)
        assert result.radius_bound == pytest.approx(4.0 * result.tau_used)


def test_subset_size_loop_accounting():
    data = planted_clusters(n=500, k=3, seed=9)
    cfg = SampleCoveringConfig(k=3, seed=1)
    result = build_covering_sample(data, cfg)
    gamma = 500.0**2
    bound = (math.ceil(math.log2(gamma)) + 1) * round_budget(500) * batch_size(500, 3)
    assert result.size <= bound


def test_halving_frequency_at_good_radius():
    # one sampling round from the full pool at a radius that covers every
    # cluster: the pool should at least halve in most seeded rounds
    n, k = 1000, 5
    data = planted_clusters(n=n, k=k, d=2, spread=1.0, separation=50.0, seed=13)
    tau = gonzalez(data, k).cost_on_solve_set
    halved = 0
    for seed in range(500):
        cfg = SampleCoveringConfig(k=k, beta=1.0, seed=seed)
        m = batch_size(n, k)
        batch = sample_with_replacement(np.arange(n), m, seed, stream=(0, 0))
        from kcover.neighbor import ExactOracle

        oracle = ExactOracle(data, batch)
        _, dists = oracle.query_many(data.coords)
        left = int(np.count_nonzero(dists > 2.0 * cfg.beta * tau))
        halved += left <= n // 2
    assert halved / 500 >= 0.45


def test_rounds_terminate_at_good_radius():
    failures = 0
    for trial in range(60):
        n = 300 + 37 * (trial % 7)
        data = planted_clusters(n=n, k=4, d=2, spread=1.0, separation=80.0,
                                seed=100 + trial)
        tau = gonzalez(data, 4).cost_on_solve_set
        cfg = SampleCoveringConfig(k=4, beta=1.0, seed=trial)
        subset, _ = run_sampling_rounds(data, tau, cfg, tau_index=0)
        failures += subset is None
    assert failures <= 1


def test_build_deterministic():
    data = planted_clusters(n=300, k=3, seed=21)
    cfg = SampleCoveringConfig(k=3, seed=8)
    a = build_covering_sample(data, cfg)
    b = build_covering_sample(data, cfg)
    assert a.subset.tolist() == b.subset.tolist()
    assert a.radius_bound == b.radius_bound
    assert a.sizes == b.sizes


def test_config_validation():
    data = Dataset(np.zeros((5, 1)))
    with pytest.raises(ValueError):
        build_covering_sample(data, SampleCoveringConfig(k=0))
    with pytest.raises(ValueError):
        build_covering_sample(data, SampleCoveringConfig(k=6))
    with pytest.raises(ValueError):
        build_covering_sample(data, SampleCoveringConfig(k=1, beta=0.5))
    with pytest.raises(ValueError):
        build_covering_sample(data, SampleCoveringConfig(k=1, sample_constant=0.0))
