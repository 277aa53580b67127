import math

import numpy as np
import pytest

from kcover.core import Dataset
from kcover.neighbor import ExactOracle, LshOracle, build_oracle


def test_exact_member_query_is_zero():
    data = Dataset(np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]]))
    oracle = build_oracle(data, [0, 1, 2], kind="exact")
    idx, d = oracle.query(data.row(1))
    assert (idx, d) == (1, 0.0)


def test_exact_nearer_of_two():
    data = Dataset(np.array([[0.0], [10.0]]))
    oracle = ExactOracle(data, [0, 1])
    idx, d = oracle.query([1.0])
    assert (idx, d) == (0, 1.0)


def test_exact_subset_indices_are_original():
    data = Dataset(np.arange(6, dtype=float).reshape(-1, 1))
    oracle = ExactOracle(data, [2, 5])
    idx, d = oracle.query([4.9])
    assert idx == 5 and d == pytest.approx(0.1)


def test_exact_query_many_matches_single():
    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(size=(40, 3)))
    oracle = ExactOracle(data, np.arange(0, 40, 3))
    queries = rng.normal(size=(25, 3))
    idx, dists = oracle.query_many(queries)
    for q in range(25):
        one_idx, one_d = oracle.query(queries[q])
        assert idx[q] == one_idx
        assert dists[q] == pytest.approx(one_d, rel=1e-12)


def test_oracle_rejects_empty_subset():
    data = Dataset(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        build_oracle(data, [], kind="exact")
    with pytest.raises(ValueError):
        build_oracle(data, [], kind="lsh")
    with pytest.raises(ValueError):
        build_oracle(data, [0], kind="annoy")


def test_lsh_self_query_hits_own_bucket():
    rng = np.random.default_rng(3)
    data = Dataset(rng.normal(size=(100, 5)))
    oracle = LshOracle(data, np.arange(100), beta=2.0, seed=1)
    for row in (0, 17, 99):
        idx, d = oracle.query(data.row(row))
        assert d == 0.0
        assert np.array_equal(data.coords[idx], data.coords[row])


def test_lsh_miss_far_from_every_bucket():
    rng = np.random.default_rng(5)
    data = Dataset(rng.uniform(0.0, 1.0, size=(50, 3)))
    oracle = LshOracle(data, np.arange(50), beta=2.0, seed=2)
    idx, d = oracle.query(np.full(3, 1e9))
    assert idx is None and d == math.inf
    many_idx, many_d = oracle.query_many(np.full((2, 3), 1e9))
    assert many_idx.tolist() == [-1, -1]
    assert np.all(np.isinf(many_d))


def test_lsh_rejects_bad_beta():
    data = Dataset(np.zeros((2, 1)))
    with pytest.raises(ValueError):
        LshOracle(data, [0, 1], beta=0.9)


def test_report_is_realized_distance_never_below_truth():
    rng = np.random.default_rng(11)
    data = Dataset(rng.uniform(size=(500, 4)))
    members = np.sort(rng.choice(500, size=120, replace=False))
    exact = ExactOracle(data, members)
    lsh = LshOracle(data, members, beta=2.0, seed=9)
    queries = rng.uniform(size=(200, 4))
    _, truth = exact.query_many(queries)
    for oracle in (exact, lsh):
        idx, est = oracle.query_many(queries)
        hit = idx >= 0
        assert np.all(est[hit] >= truth[hit] - 1e-9)
        # the estimate is the distance to the member actually returned
        realized = np.sqrt(((queries[hit] - data.coords[idx[hit]]) ** 2).sum(axis=1))
        np.testing.assert_allclose(est[hit], realized, rtol=1e-12)
    _, exact_est = exact.query_many(queries)
    np.testing.assert_allclose(exact_est, truth, rtol=1e-12)


def test_lsh_recall_thousand_points():
    rng = np.random.default_rng(23)
    data = Dataset(rng.uniform(size=(1000, 6)))
    members = np.arange(1000)
    exact = ExactOracle(data, members)
    lsh = LshOracle(data, members, beta=2.0, seed=4)
    queries = rng.uniform(size=(600, 6))
    _, truth = exact.query_many(queries)
    _, est = lsh.query_many(queries)
    assert np.mean(est > 2.0 * truth + 1e-12) <= 0.05


def test_lsh_per_query_success_at_scale():
    rng = np.random.default_rng(31)
    n, d = 8000, 8
    data = Dataset(rng.uniform(size=(n, d)))
    members = np.sort(rng.choice(n, size=4000, replace=False))
    exact = ExactOracle(data, members)
    lsh = LshOracle(data, members, beta=2.0, seed=6)
    queries = rng.uniform(size=(800, d))
    _, truth = exact.query_many(queries)
    _, est = lsh.query_many(queries)
    success = np.mean(est <= 2.0 * truth + 1e-12)
    assert success >= 0.9


def test_lsh_deterministic_per_seed():
    rng = np.random.default_rng(2)
    data = Dataset(rng.normal(size=(200, 4)))
    q = rng.normal(size=4)
    a = LshOracle(data, np.arange(200), beta=2.0, seed=77).query(q)
    b = LshOracle(data, np.arange(200), beta=2.0, seed=77).query(q)
    assert a == b


def test_lsh_table_count_clamped():
    rng = np.random.default_rng(8)
    small = Dataset(rng.normal(size=(4, 2)))
    assert LshOracle(small, np.arange(4), beta=2.0).parameters["tables"] == 4
    big = Dataset(rng.normal(size=(3000, 2)))
    oracle = LshOracle(big, np.arange(3000), beta=1.0)
    assert oracle.parameters["tables"] == 64
