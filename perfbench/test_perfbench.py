"""Tests of the benchmark's own code: checker, tracer and metric declarations.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts ./src on the path before kcover is imported)
import checker  # noqa: E402
import kcover  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def blob(n=400, d=3, seed=0):
    return np.random.default_rng(seed).normal(size=(n, d))


def test_checker_accepts_a_real_pipeline_op():
    data = kcover.Dataset(blob())
    cov = kcover.build_covering_hash(data, kcover.HashCoveringConfig(k=4, mode="budget", budget=40))
    sol = kcover.gonzalez(data.take(cov.subset), 4)
    base = kcover.gonzalez(data, 4)
    errors, score = checker.check_covering(data.coords, 4, cov.subset, cov.radius_bound,
                                           sol.centers, base.cost_on_solve_set)
    assert errors == []
    value = kcover.evaluate_on_full(data, cov.subset, sol)
    assert checker.check_eval(value, score["cost_lo"], score["cost"]) == []
    assert checker.check_baseline(data.coords, 4, base.centers, base.cost_on_solve_set) == []


def test_checker_rejects_covering_with_far_row_dropped():
    coords = np.vstack([blob(), [[50.0, 50.0, 50.0]]])
    far = coords.shape[0] - 1
    subset = np.arange(far)  # every row but the far one
    centers = np.arange(3)
    errors, _ = checker.check_covering(coords, 3, subset, 5.0, centers, baseline_cost=100.0)
    assert any("beyond radius_bound" in e for e in errors)
    errors, _ = checker.check_covering(coords, 3, np.arange(far + 1), 5.0, centers, 100.0)
    assert errors == []


def test_checker_rejects_wrong_eval_value():
    coords = blob()
    centers = coords[[0, 5, 9]]
    lo, hi = checker.cost_interval(coords, centers)
    true = np.sqrt(((coords[:, None, :] - centers[None]) ** 2).sum(-1).min(1).max())
    assert lo <= true <= hi and hi - lo < 1e-9 * true
    assert checker.check_eval(true, lo, hi) == []
    assert checker.check_eval(true * 1.0001, lo, hi)
    assert checker.check_eval(true * 0.9999, lo, hi)


def test_checker_rejects_malformed_subsets():
    assert checker.check_subset(np.array([3, 1, 2]), 5)
    assert checker.check_subset(np.array([1, 1, 2]), 5)
    assert checker.check_subset(np.array([0, 5]), 5)
    assert checker.check_subset(np.array([], dtype=np.int64), 5)
    assert checker.check_subset(np.array([0, 2, 4]), 5) == []


def test_tracer_self_time_subtracts_children(monkeypatch):
    clock = iter([0.0, 1.0, 3.0, 5.0, 6.0, 10.0])
    monkeypatch.setattr("tracer.time.perf_counter", lambda: next(clock))
    t = Tracer()
    outer = t.open("outer")        # 0
    a = t.open("a"); t.close(a)    # 1 .. 3
    b = t.open("b"); t.close(b)    # 5 .. 6
    t.close(outer)                 # 10
    assert outer.seconds == 10.0
    assert t.self_seconds(outer) == 7.0
    assert t.self_seconds(a) == 2.0
    assert [s.name for s in t.descendants(outer)] == ["a", "b"]


def test_tracer_self_time_counts_overlap_once():
    t = Tracer()
    t.spans = [Span(0, "p", 0.0, 10.0, None), Span(1, "x", 1.0, 4.0, 0),
               Span(2, "y", 3.0, 5.0, 0), Span(3, "z", 9.0, 12.0, 0)]
    t._kids = {None: [t.spans[0]], 0: t.spans[1:]}
    assert t.self_seconds(t.spans[0]) == pytest.approx(10.0 - 4.0 - 1.0)


def test_tracer_restores_patched_names_even_on_error():
    gonzalez = kcover.gonzalez
    query_many = vars(kcover.neighbor.ExactOracle)["query_many"]
    t = Tracer([("kcover:gonzalez", "solver.gonzalez", None),
                ("kcover.neighbor:ExactOracle.query_many", "neighbor.query_many", None),
                ("kcover:no_such_function", "missing", None),
                ("kcover.no_such_module:f", "missing", None)])
    data = kcover.Dataset(blob(50))
    with pytest.raises(ValueError):
        with t:
            assert kcover.gonzalez is not gonzalez
            kcover.gonzalez(data, 3)
            kcover.ExactOracle(data, [0, 1]).query_many(data.coords)
            raise ValueError("boom")
    assert kcover.gonzalez is gonzalez
    assert vars(kcover.neighbor.ExactOracle)["query_many"] is query_many
    assert [s.name for s in t.spans] == ["solver.gonzalez", "neighbor.query_many"]
    assert not hasattr(kcover, "no_such_function")


def test_workloads_are_the_declared_ones():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_inputs_follow_the_seed():
    w = workloads.WORKLOADS["lowd-bign-hash"]
    a, b, c = (workloads.make_inputs(w, s) for s in (7, 7, 8))
    assert a == b and [a.cover_seed(i) for i in range(5)] == [b.cover_seed(i) for i in range(5)]
    assert a.data_seed != c.data_seed and a.cover_seed(0) != c.cover_seed(0)
    assert len({a.cover_seed(i) for i in range(100)}) == 100
    desk = workloads.WORKLOADS["desk-hash"]
    assert workloads.make_inputs(desk, 7).data_seed == 20  # the c08 instance


TINY = {
    "desk-hash": dict(n=1500, d=5, k=6, k_planted=6, budget=60),
    "lowd-bign-hash": dict(n=3000, d=2, k=5, budget=120),
    "sample-exact": dict(n=400, d=3, k=4, k_planted=4),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Small copies of every workload, writing into a temporary directory."""
    small = {name: dataclasses.replace(w, **TINY[name])
             for name, w in workloads.WORKLOADS.items()}
    monkeypatch.setattr(run, "WORKLOADS", small)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return small


def result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_printed_metrics_are_the_declared_ones(tiny, capsys):
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in tiny:
        for trace, declared in ((0, e2e), (1, layer)):
            code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                             "--trace", str(trace)])
            out = result_line(capsys)
            assert code == 0 and out["correct"] and out["failed"] == 0
            assert set(out) == {"correct", "attempted", "failed", "metrics"}
            assert {k: m["unit"] for k, m in out["metrics"].items()} == declared, name
            if trace == 0:
                assert all(m["value"] > 0 for m in out["metrics"].values())


def test_wrong_library_eval_fails_the_run(tiny, capsys, monkeypatch):
    real = kcover.evaluate_on_full
    monkeypatch.setattr(kcover, "evaluate_on_full", lambda *a: real(*a) * 1.01)
    code = run.main(["--workload", "sample-exact", "--seed", "1", "--seconds", "0"])
    out = result_line(capsys)
    assert code != 0 and not out["correct"] and out["failed"] >= 1
