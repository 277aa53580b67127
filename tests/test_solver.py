import numpy as np
import pytest

from kcover.core import Dataset
from kcover.covering import (
    CoveringResult,
    GridHash,
    HashCoveringConfig,
    build_covering_hash,
    merge_coverings,
    reduce_covering,
)
from kcover.solver import CenterSolution, evaluate_on_full, gonzalez

from conftest import covering_ok, exhaustive_discrete_opt, max_min_dist


def test_gonzalez_k_at_least_n():
    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(size=(6, 2)))
    sol = gonzalez(data, 9)
    assert sol.cost_on_solve_set == 0.0
    assert sol.centers.tolist() == list(range(6))


def test_gonzalez_line_trace():
    data = Dataset(np.array([[0.0], [1.0], [10.0]]))
    sol = gonzalez(data, 2, start_index=0)
    assert sol.centers.tolist() == [0, 2]
    assert sol.cost_on_solve_set == 1.0
    assert sol.cost_on_solve_set <= 2.0 * exhaustive_discrete_opt(data.coords, 2)


def test_gonzalez_single_center_is_max_distance():
    rng = np.random.default_rng(1)
    data = Dataset(rng.normal(size=(20, 3)))
    for start in (0, 7, 19):
        sol = gonzalez(data, 1, start_index=start)
        want = float(
            np.sqrt(((data.coords - data.coords[start]) ** 2).sum(axis=1).max())
        )
        assert sol.cost_on_solve_set == pytest.approx(want, rel=1e-12)
        assert sol.centers.tolist() == [start]


def test_gonzalez_tie_breaks_lowest_index():
    data = Dataset(np.array([[0.0], [1.0], [-1.0]]))
    sol = gonzalez(data, 2, start_index=0)
    assert sol.centers.tolist() == [0, 1]


def test_gonzalez_pads_duplicates_with_lowest_unchosen():
    data = Dataset(np.array([[0.0], [0.0], [5.0], [0.0]]))
    sol = gonzalez(data, 3, start_index=0)
    assert sol.centers.tolist() == [0, 1, 2]
    assert sol.cost_on_solve_set == 0.0


def test_gonzalez_validates_inputs():
    data = Dataset(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        gonzalez(data, 0)
    with pytest.raises(ValueError):
        gonzalez(data, 1, start_index=3)


def test_gonzalez_two_approximation():
    rng = np.random.default_rng(5)
    for trial in range(60):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        data = Dataset(rng.normal(size=(n, d)))
        sol = gonzalez(data, k, start_index=int(rng.integers(0, n)))
        opt = exhaustive_discrete_opt(data.coords, k)
        assert sol.cost_on_solve_set <= 2.0 * opt + 1e-12


def test_gonzalez_cost_nonincreasing_in_k():
    rng = np.random.default_rng(6)
    data = Dataset(rng.normal(size=(60, 4)))
    costs = [gonzalez(data, k).cost_on_solve_set for k in range(1, 8)]
    assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))


def test_evaluate_identity_coreset():
    rng = np.random.default_rng(2)
    data = Dataset(rng.normal(size=(30, 2)))
    sol = gonzalez(data, 4)
    assert evaluate_on_full(data, np.arange(30), sol) == pytest.approx(
        sol.cost_on_solve_set, rel=1e-12
    )


def test_evaluate_single_point():
    data = Dataset(np.array([[1.0, 2.0]]))
    sol = gonzalez(data, 1)
    assert evaluate_on_full(data, np.array([0]), sol) == 0.0


def test_evaluate_on_full_at_least_subset_cost():
    rng = np.random.default_rng(3)
    data = Dataset(rng.normal(size=(200, 3)))
    rows = np.sort(rng.choice(200, size=40, replace=False))
    sol = gonzalez(data.take(rows), 5)
    full = evaluate_on_full(data, rows, sol)
    assert full >= sol.cost_on_solve_set - 1e-12
    assert full == pytest.approx(max_min_dist(data.coords, rows[sol.centers]), rel=1e-12)


def test_evaluate_rejects_bad_mapping():
    data = Dataset(np.zeros((5, 1)))
    sol = gonzalez(data, 2)
    with pytest.raises(ValueError):
        evaluate_on_full(data, np.array([0]), sol)  # centers exceed coreset


def halves(seed=0):
    rng = np.random.default_rng(seed)
    a = Dataset(rng.normal(loc=0.0, size=(80, 2)))
    b = Dataset(rng.normal(loc=50.0, size=(70, 2)))
    cfg = HashCoveringConfig(k=3, budget=12, seed=seed)
    return a, build_covering_hash(a, cfg), b, build_covering_hash(b, cfg)


def test_merge_covers_concatenation_at_max_radius():
    a, cov_a, b, cov_b = halves(4)
    merged, cov = merge_coverings(a, cov_a, b, cov_b)
    assert merged.n == a.n + b.n
    assert cov.radius_bound == max(cov_a.radius_bound, cov_b.radius_bound)
    assert covering_ok(merged.coords, cov.subset, cov.radius_bound)


def test_merge_with_singleton():
    a, cov_a, _, _ = halves(9)
    point = Dataset(np.array([[100.0, -3.0]]))
    trivial = CoveringResult(subset=np.array([0]), radius_bound=0.0,
                             tau_used=0.0, sizes=(1,))
    merged, cov = merge_coverings(a, cov_a, point, trivial)
    assert covering_ok(merged.coords, cov.subset, cov.radius_bound)
    assert merged.coords[cov.subset.max()].tolist() == [100.0, -3.0]


def test_merge_rejects_dimension_mismatch():
    a, cov_a, _, _ = halves(13)
    other = Dataset(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        merge_coverings(a, cov_a, other, cov_a)


def test_reduce_identity_inner_keeps_outer():
    a, cov_a, _, _ = halves(15)

    def identity(sub):
        return CoveringResult(subset=np.arange(sub.n), radius_bound=0.0,
                              tau_used=0.0, sizes=(sub.n,))

    reduced = reduce_covering(a, cov_a, identity)
    assert reduced.subset.tolist() == cov_a.subset.tolist()
    assert reduced.radius_bound == cov_a.radius_bound


def test_reduce_two_stage_radius_adds():
    a, cov_a, _, _ = halves(17)

    def inner(sub):
        return build_covering_hash(
            sub, HashCoveringConfig(k=3, budget=5, seed=1)
        )

    reduced = reduce_covering(a, cov_a, inner)
    inner_direct = inner(a.take(cov_a.subset))
    assert reduced.radius_bound == pytest.approx(
        cov_a.radius_bound + inner_direct.radius_bound
    )
    assert covering_ok(a.coords, reduced.subset, reduced.radius_bound)
    assert set(reduced.subset.tolist()) <= set(cov_a.subset.tolist())


def test_reduce_after_merge_still_covers():
    a, cov_a, b, cov_b = halves(19)
    merged, cov = merge_coverings(a, cov_a, b, cov_b)

    def inner(sub):
        return build_covering_hash(
            sub, HashCoveringConfig(k=4, budget=8, seed=2)
        )

    reduced = reduce_covering(merged, cov, inner)
    assert covering_ok(merged.coords, reduced.subset, reduced.radius_bound)


def test_reduce_rejects_inner_out_of_range():
    a, cov_a, _, _ = halves(23)

    def broken(sub):
        return CoveringResult(subset=np.array([sub.n + 5]), radius_bound=0.0,
                              tau_used=0.0, sizes=(1,))

    with pytest.raises(ValueError):
        reduce_covering(a, cov_a, broken)


def test_pipeline_end_to_end_bound():
    rng = np.random.default_rng(29)
    for trial in range(5):
        n = int(rng.integers(200, 900))
        d = int(rng.integers(2, 6))
        k = int(rng.integers(2, 9))
        data = Dataset(rng.normal(scale=4.0, size=(n, d)))
        opt_ref = gonzalez(data, k).cost_on_solve_set
        cfg = HashCoveringConfig(k=k, budget=8 * k, seed=trial)
        covering = build_covering_hash(data, cfg)
        sol = gonzalez(data.take(covering.subset), k)
        value = evaluate_on_full(data, covering.subset, sol)
        assert value <= 2.0 * opt_ref + 2.0 * covering.radius_bound + 1e-9


@pytest.mark.parametrize("make", [
    lambda: GridHash(dim=2, scale=1.0, corner=np.zeros(2)),
    lambda: CoveringResult(subset=np.arange(3), radius_bound=1.0, tau_used=1.0, sizes=(3,)),
    lambda: CenterSolution(centers=np.arange(2), cost_on_solve_set=1.0, solve_seconds=0.0),
], ids=["GridHash", "CoveringResult", "CenterSolution"])
def test_array_holding_results_compare_by_identity(make):
    # field-wise equality would compare numpy arrays, whose truth value is
    # ambiguous; identity equality gives a bool and a hash instead
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2


@pytest.mark.parametrize("make", [
    lambda rows: CoveringResult(subset=rows, radius_bound=1.0, tau_used=1.0, sizes=(3,)),
    lambda rows: CenterSolution(centers=rows, cost_on_solve_set=1.0, solve_seconds=0.0),
], ids=["CoveringResult", "CenterSolution"])
@pytest.mark.parametrize("bad", [[0.5, 1.9, 3.99], [True, False], np.array([0.7, 2.2]), []],
                         ids=["float", "bool", "float-array", "empty"])
def test_result_indices_must_be_integers(make, bad):
    # a float index never truncates to a row; an empty list (float64 to
    # numpy) holds no row, and no covering or solution is empty
    with pytest.raises(ValueError):
        make(bad)


def test_result_indices_keep_integer_input():
    cov = CoveringResult(subset=np.array([4, 0, 2], dtype=np.uint8), radius_bound=1.0,
                         tau_used=1.0, sizes=(3,))
    sol = CenterSolution(centers=[2, 5], cost_on_solve_set=1.0, solve_seconds=0.0)
    assert cov.subset.dtype == sol.centers.dtype == np.int64
    assert cov.subset.tolist() == [4, 0, 2] and sol.centers.tolist() == [2, 5]
    assert not cov.subset.flags.writeable and not sol.centers.flags.writeable


def test_reduce_rejects_float_inner_subset():
    data = Dataset(np.arange(5.0))
    outer = CoveringResult(subset=np.array([0, 2, 4]), radius_bound=1.0,
                           tau_used=1.0, sizes=(3,))

    def fractional(sub):
        return CoveringResult(subset=[0.9, 1.8], radius_bound=0.0, tau_used=0.0, sizes=(2,))

    with pytest.raises(ValueError):
        reduce_covering(data, outer, fractional)
