import math

import numpy as np
import pytest

from kcover import SyntheticSpec, generate_synthetic, neighbor, sampling
from kcover.core import STREAM_ROUND_SAMPLE, Dataset, rng_stream
from kcover.sampling import (
    SampleCoveringConfig,
    build_covering_sample,
    run_sampling_rounds,
    sample_with_replacement,
)
from kcover.solver import gonzalez

from conftest import ascending_scales, covering_ok


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


def test_sample_matches_unique_of_the_draws():
    rng = np.random.default_rng(31)
    for seed in range(10):
        pool = rng.integers(0, 40, size=int(rng.integers(1, 60)))
        draws = rng_stream(seed, STREAM_ROUND_SAMPLE, 4).integers(0, pool.size, size=80)
        out = sample_with_replacement(pool, 80, seed, stream=(4,))
        assert out.tolist() == np.unique(pool[draws]).tolist()


@pytest.fixture
def batches(monkeypatch):
    """The batches run_sampling_rounds draws, in order."""
    drawn = []

    def recording(*args, **kwargs):
        drawn.append(sample_with_replacement(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(sampling, "sample_with_replacement", recording)
    return drawn


def test_round_union_matches_unique_of_the_batches(batches):
    data = Dataset(np.random.default_rng(5).uniform(size=(300, 2)))
    cfg = SampleCoveringConfig(k=4, sample_constant=0.5, seed=2)
    subset, size = run_sampling_rounds(data, 0.05, cfg)
    assert subset is not None and len(batches) > 1
    assert subset.tolist() == np.unique(np.concatenate(batches)).tolist()
    assert size == subset.shape[0]


def test_failed_scale_size_counts_the_distinct_rows_drawn(batches):
    # at a tau far below the cost a round removes only its own batch, and 60
    # rounds of at most 49 rows cannot empty a pool of 3000 distinct rows
    data = Dataset(np.random.default_rng(6).uniform(size=(3000, 2)))
    cfg = SampleCoveringConfig(k=2, seed=4)
    subset, size = run_sampling_rounds(data, 1e-9, cfg)
    assert subset is None and len(batches) == round_budget(3000)
    assert size == np.unique(np.concatenate(batches)).size
    # every batch member is within 0 of itself, so it leaves the pool and no
    # later round draws it again: the batches are disjoint
    assert size == sum(b.size for b in batches)


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
    cfg = SampleCoveringConfig(k=4, seed=5)
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
        cfg = SampleCoveringConfig(k=k, seed=trial)
        result = build_covering_sample(data, cfg)
        assert covering_ok(data.coords, result.subset, result.radius_bound)
        assert result.radius_bound == sampling._RADIUS_FACTOR * result.tau_used


def test_subset_size_loop_accounting():
    data = planted_clusters(n=500, k=3, seed=9)
    cfg = SampleCoveringConfig(k=3, seed=1)
    result = build_covering_sample(data, cfg)
    scales = ascending_scales(data, 3, 1, sampling._RADIUS_FACTOR)
    bound = scales * round_budget(500) * batch_size(500, 3)
    assert result.size <= bound


def test_halving_frequency_at_good_radius():
    # one sampling round from the full pool at a radius that covers every
    # cluster: the pool should at least halve in most seeded rounds
    n, k = 1000, 5
    data = planted_clusters(n=n, k=k, d=2, spread=1.0, separation=50.0, seed=13)
    tau = gonzalez(data, k).cost_on_solve_set
    halved = 0
    for seed in range(500):
        m = batch_size(n, k)
        batch = sample_with_replacement(np.arange(n), m, seed, stream=(0, 0))
        from kcover.neighbor import ExactOracle

        oracle = ExactOracle(data, batch)
        _, dists = oracle.query_many(data.coords)
        left = int(np.count_nonzero(dists > 2.0 * tau))
        halved += left <= n // 2
    assert halved / 500 >= 0.45


def test_rounds_terminate_at_good_radius():
    failures = 0
    for trial in range(60):
        n = 300 + 37 * (trial % 7)
        data = planted_clusters(n=n, k=4, d=2, spread=1.0, separation=80.0,
                                seed=100 + trial)
        tau = gonzalez(data, 4).cost_on_solve_set
        cfg = SampleCoveringConfig(k=4, seed=trial)
        # the rounds remove rows within 4 * (tau / 2) = 2 tau of a batch
        subset, _ = run_sampling_rounds(data, tau / 2, cfg, tau_index=0)
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
        build_covering_sample(data, SampleCoveringConfig(k=1, sample_constant=0.0))


def test_rounds_send_few_rows_to_the_exact_kernel(monkeypatch):
    # the benchmark's sample-exact shape: each round's covered test is
    # decided by the screen for all but at most 1% of its pool, with one
    # exact-kernel call per oracle
    data, _ = generate_synthetic(SyntheticSpec("gaussian_mixture", n=10_000, d=8,
                                               k_planted=20, seed=3))
    rounds, oracles = [], []
    farther_than = neighbor.ExactOracle.farther_than
    query_many = neighbor.ExactOracle.query_many
    build_oracle = sampling.build_oracle

    def screened(self, points, radius):
        rounds.append([points.shape[0]])
        return farther_than(self, points, radius)

    def exact(self, points):
        rounds[-1].append(points.shape[0])
        return query_many(self, points)

    def built(*args):
        oracles.append(None)
        return build_oracle(*args)

    monkeypatch.setattr(neighbor.ExactOracle, "farther_than", screened)
    monkeypatch.setattr(neighbor.ExactOracle, "query_many", exact)
    monkeypatch.setattr(sampling, "build_oracle", built)
    for seed in range(4):
        build_covering_sample(data, SampleCoveringConfig(k=20, seed=seed))
    assert len(rounds) == len(oracles) >= 4
    for pool, *sent in rounds:
        assert len(sent) == 1 and sent[0] <= 0.01 * pool
