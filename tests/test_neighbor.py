import numpy as np
import pytest

from kcover.core import Dataset
from kcover.neighbor import ExactOracle, build_oracle


def test_exact_member_query_is_zero():
    data = Dataset(np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]]))
    oracle = build_oracle(data, [0, 1, 2])
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
        build_oracle(data, [])


def test_report_is_realized_distance_never_below_truth():
    rng = np.random.default_rng(11)
    data = Dataset(rng.uniform(size=(500, 4)))
    members = np.sort(rng.choice(500, size=120, replace=False))
    exact = ExactOracle(data, members)
    queries = rng.uniform(size=(200, 4))
    truth = np.sqrt(((queries[:, None] - data.coords[members]) ** 2).sum(axis=2)).min(axis=1)
    idx, est = exact.query_many(queries)
    assert np.all(est >= truth - 1e-9)
    # the estimate is the distance to the member actually returned
    realized = np.sqrt(((queries - data.coords[idx]) ** 2).sum(axis=1))
    np.testing.assert_allclose(est, realized, rtol=1e-12)
    np.testing.assert_allclose(est, truth, rtol=1e-12)
