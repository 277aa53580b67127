"""Per-layer metrics: what to wrap in kcover, and how spans become numbers.

Layers are the library modules on the user's path: datasets, dimred,
coarse, gridhash, covering, sampling, neighbor, solver, core. Each target
below is the name a caller looks up, so wrapping it times exactly the calls
that caller makes. Each op-level metric is the median over traced ops of
its per-op total.

Every workload prints every metric. Times are declared only at boundaries
every workload crosses: the covering builder (hash or sample) and the layer
it uses to place rows against candidate centers (grid hashing, or neighbor
oracles). Counts of a layer a workload never enters read 0, which is what
was counted.
"""

from __future__ import annotations

import statistics

import numpy as np


def _rows(span, args, kwargs, result):
    span.counts["rows"] = int(result.shape[0])
    span.counts["scale"] = float(args[0].scale)


def _covering(span, args, kwargs, result):
    span.counts["iterations"] = int(result.iterations)
    span.counts["radius_bound"] = float(result.radius_bound)
    span.counts["tau_used"] = float(result.tau_used)


def _tau(span, args, kwargs, result):
    span.counts["tau"] = float(kwargs.get("tau", args[1] if len(args) > 1 else 0.0))


def _draws(span, args, kwargs, result):
    span.counts["draws"] = int(kwargs.get("size", args[1] if len(args) > 1 else 0))


def _query(span, args, kwargs, result):
    span.counts["rows"] = int(result[1].shape[0])
    span.counts["members"] = int(args[0].members.shape[0])


def _cost(span, args, kwargs, result):
    data, centers = args[0], args[1]
    span.counts["pairs"] = int(data.n) * int(np.asarray(centers).size)
    span.counts["d"] = int(data.d)


TARGETS = (
    # what the benchmark itself calls
    ("kcover:load_csv", "datasets.ingest", None),
    ("kcover:generate_synthetic", "datasets.ingest", None),
    ("kcover:build_covering_hash", "covering.build", _covering),
    ("kcover:build_covering_sample", "covering.build", _covering),
    ("kcover:gonzalez", "solver.gonzalez", None),
    ("kcover:evaluate_on_full", "solver.evaluate_on_full", None),
    # what the library modules call on each other
    ("kcover.covering:coarse_approx", "coarse.coarse_approx", None),
    ("kcover.sampling:coarse_approx", "coarse.coarse_approx", None),
    ("kcover.coarse:project_1d", "dimred.project_1d", None),
    ("kcover.covering:eval_hash_batch", "gridhash.eval_hash_batch", _rows),
    ("kcover.sampling:run_sampling_rounds", "sampling.rounds_at_radius", _tau),
    ("kcover.sampling:sample_with_replacement", "sampling.sample", _draws),
    ("kcover.sampling:build_oracle", "neighbor.build_oracle", None),
    ("kcover.neighbor:ExactOracle.query_many", "neighbor.query_many", _query),
    ("kcover.solver:cost", "core.cost", _cost),
)

# spans that place rows against candidate centers: the covering's "locate" step
LOCATE = ("gridhash.eval_hash_batch", "neighbor.build_oracle", "neighbor.query_many")
# spans whose self time is covering logic (sweep, dedup, pool bookkeeping)
COVERING_SELF = ("covering.build", "sampling.rounds_at_radius", "sampling.sample")


def _wasted_rows(tracer, build) -> int:
    """Rows hashed or queried at a scale the build then rejected."""
    wasted = 0
    for s in tracer.descendants(build):
        if s.name == "gridhash.eval_hash_batch" and s.counts["scale"] != build.counts["radius_bound"]:
            wasted += s.counts["rows"]
        elif s.name == "sampling.rounds_at_radius" and s.counts["tau"] != build.counts["tau_used"]:
            wasted += sum(q.counts["rows"] for q in tracer.descendants(s)
                          if q.name == "neighbor.query_many")
    return wasted


def _op_values(tracer, op, n: int) -> dict:
    """Per-op totals of every op-level layer metric (0 where no span fired)."""
    by_name: dict[str, list] = {}
    for s in tracer.descendants(op):
        by_name.setdefault(s.name, []).append(s)

    def spans(*names):
        return [s for name in names for s in by_name.get(name, ())]

    def total(*names):
        return sum(s.seconds for s in spans(*names))

    costs = spans("core.cost")
    cost_s = total("core.cost")
    hashes = spans("gridhash.eval_hash_batch")
    queries = spans("neighbor.query_many")
    builds = spans("covering.build")
    rows_located = sum(s.counts["rows"] for s in hashes + queries)
    return {
        "core.cost_s": cost_s,
        "core.eval_pairs": sum(s.counts["pairs"] for s in costs),
        "core.eval_gflops": (sum(3.0 * s.counts["pairs"] * s.counts["d"] for s in costs)
                             / cost_s / 1e9 if cost_s > 0 else 0.0),
        "solver.coreset_solve_s": total("solver.gonzalez"),
        "coarse.anchor_s": total("coarse.coarse_approx"),
        "dimred.project_1d_s": total("dimred.project_1d"),
        "covering.build_s": sum(tracer.self_seconds(s) for s in spans(*COVERING_SELF)),
        "covering.locate_s": total(*LOCATE),
        "covering.scales_tried": sum(b.counts["iterations"] for b in builds),
        "covering.exact_passes": sum(s.counts["rows"] == n for s in hashes + queries),
        "covering.waste_frac": (sum(_wasted_rows(tracer, b) for b in builds) / rows_located
                                if rows_located else 0.0),
        "gridhash.rows_hashed": sum(s.counts["rows"] for s in hashes),
        "sampling.rounds": len(spans("neighbor.build_oracle")),
        "sampling.samples_drawn": sum(s.counts["draws"] for s in spans("sampling.sample")),
        "neighbor.queries": sum(q.counts["rows"] for q in queries),
        "neighbor.pairs": sum(q.counts["rows"] * q.counts["members"] for q in queries),
    }


def per_layer(tracer, w, results, base_cost, op_times, traced_times) -> dict:
    """Metrics of the traced run: per-layer medians plus covering quality."""
    per_op = [_op_values(tracer, op, w.n) for op in tracer.roots("op")]
    values = {name: statistics.median(v[name] for v in per_op) for name in per_op[0]}

    values["solver.baseline_solve_s"] = statistics.median(
        s.seconds for b in tracer.roots("baseline") for s in tracer.descendants(b)
        if s.name == "solver.gonzalez")
    values["datasets.ingest_s"] = statistics.median(
        s.seconds for r in tracer.roots("setup") for s in tracer.children(r)
        if s.name == "datasets.ingest")

    values["coreset_frac"] = statistics.median(c.size / w.n for c, _ in results)
    values["covering.budget_fill"] = statistics.median(
        c.size / (w.budget or w.n) for c, _ in results)
    values["cost_ratio_max"] = max(s["cost"] / base_cost for _, s in results)
    values["bound_tightness"] = statistics.median(
        s["realized_radius"] / c.radius_bound if c.radius_bound > 0 else 1.0
        for c, s in results)
    values["pipeline_s"] = statistics.median(op_times)
    values["trace_overhead_frac"] = statistics.median(traced_times) / statistics.median(op_times) - 1

    return {k: float(v) for k, v in values.items()}
