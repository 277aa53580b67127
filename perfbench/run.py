#!/usr/bin/env python3
"""kcover benchmark: coreset pipeline against full-data greedy.

    python3 perfbench/run.py --workload desk-hash --seed 1 --seconds 25 --trace 0

Run from the repository root; the benchmark imports kcover from ./src.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics from a traced run. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. Run details
(sizes, seeds, versions, threads, failures, spans) go to .perfbench_out/.
The exit code is nonzero when any output check fails.
"""

from __future__ import annotations

import os

# Fixed thread count, set before numpy loads its BLAS; never above nproc.
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "kcover").is_dir():
    sys.exit(f"no kcover sources under {ROOT / 'src'}; run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import kcover
import checker
import layers
from tracer import Tracer
from workloads import WORKLOADS, Setup, baseline, build_covering, make_inputs, pipeline_op

OUT_DIR = ROOT / ".perfbench_out"
MIN_OPS = 3             # timed iterations per run, even past the deadline
SETUP_REPS = 3          # setup repetitions, at least
SETUP_MIN_SECONDS = 1.0  # ...and until this much setup time is measured
SETUP_MAX_REPS = 1000
BASELINE_MIN_SECONDS = 0.25  # baseline repeats per iteration, so tiny baselines add up
REF_MIN_SECONDS = 0.2   # reference-kernel time per iteration


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit of one run kind, from BENCHMARK.json, the one list of metrics."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class ReferenceKernel:
    """A nearest-center pass over the workload's rows, in numpy alone (no kcover).

    Timed next to every op so that op time can be read in units of a
    computation of the same shape as the full-data eval (max over rows of
    the min over centers), whose speed only the host changes. It works in
    buffers allocated once: fresh temporaries made its time depend on the
    allocator's state, which shifted within a run by up to 50%.
    """

    BLOCK = 4096

    def __init__(self, points: np.ndarray, centers: np.ndarray):
        self.points = np.ascontiguousarray(points)
        self.centers_t = np.ascontiguousarray(centers.T)
        self.xx = np.einsum("ij,ij->i", self.points, self.points)
        self.cc = np.einsum("ij,ij->i", centers, centers)
        self.d2 = np.empty((self.BLOCK, centers.shape[0]))
        self.row_min = np.empty(self.BLOCK)

    def seconds(self) -> float:
        t0 = time.perf_counter()
        worst = -np.inf
        for s in range(0, self.points.shape[0], self.BLOCK):
            x = self.points[s:s + self.BLOCK]
            d2, row_min = self.d2[:x.shape[0]], self.row_min[:x.shape[0]]
            np.matmul(x, self.centers_t, out=d2)
            d2 *= -2.0
            d2 += self.xx[s:s + self.BLOCK, None]
            d2 += self.cc
            np.min(d2, axis=1, out=row_min)
            worst = max(worst, float(row_min.max()))
        return time.perf_counter() - t0


class Run:
    """One benchmark run: setup, then timed ops interleaved with the baseline."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.w = workload
        self.inputs = make_inputs(workload, seed)
        self.seconds = seconds
        self.tracer = Tracer(layers.TARGETS) if trace else None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.quality: dict[int, tuple] = {}  # covering seed -> (covering, checker scores)

    def fail(self, what: str, errors) -> None:
        """Record one failed op (or baseline) with its check errors, if any."""
        if errors:
            self.failed += 1
            self.failures.extend(f"{what}: {e}" for e in errors)

    def traced(self, name, fn, *args):
        with self.tracer:
            return self.tracer.call(name, fn, *args)

    def setup(self):
        setup = Setup(self.inputs, OUT_DIR)
        times = []
        try:
            while (len(times) < SETUP_REPS or sum(times) < SETUP_MIN_SECONDS) \
                    and len(times) < SETUP_MAX_REPS:
                t0 = time.perf_counter()
                data = self.traced("setup", setup) if self.tracer else setup()
                times.append(time.perf_counter() - t0)
        finally:
            setup.close()
        return data, times

    def op(self, data, s: int, base_cost: float, traced: bool) -> float | None:
        """One pipeline op, then the checks of its outputs (untimed)."""
        self.attempted += 1
        try:
            r = (self.traced("op", pipeline_op, self.w, data, s) if traced
                 else pipeline_op(self.w, data, s))
        except kcover.ConstructionFailedError as exc:
            self.fail(f"op seed {s}", [f"ConstructionFailedError: {exc}"])
            return None
        if not self.check(data, s, r.covering, r.solution, base_cost, r.eval_cost):
            return None
        return r.seconds

    def quality_op(self, data, s: int, base_cost: float) -> None:
        """An untimed op for the quality metrics: covering and coreset solve, checked."""
        self.attempted += 1
        try:
            cov = build_covering(self.w, data, s)
        except kcover.ConstructionFailedError as exc:
            self.fail(f"quality op seed {s}", [f"ConstructionFailedError: {exc}"])
            return
        self.check(data, s, cov, kcover.gonzalez(data.take(cov.subset), self.w.k), base_cost)

    def check(self, data, s, cov, solution, base_cost, eval_cost=None) -> bool:
        errors, score = checker.check_covering(
            data.coords, self.w.k, cov.subset, cov.radius_bound, solution.centers, base_cost)
        if not errors and eval_cost is not None:
            errors = checker.check_eval(eval_cost, score["cost_lo"], score["cost"])
        if errors:
            self.fail(f"op seed {s}", errors)
            return False
        self.quality[s] = (cov, score)
        return True

    def execute(self) -> dict:
        data, setup_times = self.setup()
        base_sol, first = baseline(self.w, data)
        base_reps = max(1, math.ceil(BASELINE_MIN_SECONDS / first))
        base_cost = float(base_sol.cost_on_solve_set)
        self.fail("baseline", checker.check_baseline(
            data.coords, self.w.k, base_sol.centers, base_cost))

        ref = ReferenceKernel(data.coords, data.coords[np.asarray(base_sol.centers)])
        ref_reps = max(1, math.ceil(REF_MIN_SECONDS / ref.seconds()))
        op_times, traced_times, base_times, ref_ratios = [], [], [], []
        deadline = time.perf_counter() + self.seconds
        i = 0
        while i < MIN_OPS or time.perf_counter() < deadline:
            s = self.inputs.cover_seed(i)
            i += 1
            t = self.op(data, s, base_cost, traced=False)
            if t is not None:
                op_times.append(t)
            if self.tracer:
                t = self.op(data, s, base_cost, traced=True)
                if t is not None:
                    traced_times.append(t)
                self.traced("baseline", baseline, self.w, data)
            else:
                if t is not None:
                    ref_ratios.append(t / statistics.median(ref.seconds() for _ in range(ref_reps)))
                base_times += [baseline(self.w, data)[1] for _ in range(base_reps)]

        seeds = [self.inputs.cover_seed(j) for j in range(self.w.quality_seeds)]
        for s in seeds:
            if s not in self.quality:
                self.quality_op(data, s, base_cost)
        results = [self.quality[s] for s in seeds if s in self.quality]

        if not op_times or (self.tracer and not traced_times):
            self.failures.append("no pipeline op completed")
            self.failed = max(self.failed, 1)
            metrics = {}
        elif self.tracer:
            metrics = layers.per_layer(self.tracer, self.w, results, base_cost,
                                       op_times, traced_times)
        else:
            metrics = end_to_end(results, base_cost, op_times, base_times, ref_ratios,
                                 setup_times)
        return {"metrics": metrics, "op_count": len(op_times),
                "samples": {"op_s": op_times, "traced_op_s": traced_times,
                            "baseline_s": base_times, "op_over_ref": ref_ratios,
                            "setup_s": setup_times,
                            "quality_seeds": seeds,
                            "coreset_sizes": [c.size for c, _ in results],
                            "cost_ratios": [sc["cost"] / base_cost for _, sc in results]},
                "cover_seeds": [self.inputs.cover_seed(j) for j in range(i)],
                "base_cost": base_cost}


def tail_pct(count: int) -> float:
    """Highest percentile with at least ten samples beyond it, never below the median."""
    return max(50.0, 100.0 * (1.0 - 10.0 / count))


def end_to_end(results, base_cost, op_times, base_times, ref_ratios, setup_times) -> dict:
    """Metrics of the untraced run.

    Raw op seconds follow the host's speed, which drifts up to 2x within
    minutes on a shared VM, so the timed end-to-end metrics are ratios of
    interleaved timings: against the full-data baseline (speedup_x) and
    against a fixed kernel of the benchmark's own (pipeline_ref_x), which
    also moves when a shared library kernel changes. Raw seconds are in
    the run record and in the traced run's pipeline_s.
    """
    values = {
        "pipeline_ref_x": statistics.median(ref_ratios),
        "speedup_x": statistics.median(base_times) / statistics.median(op_times),
        "cost_ratio_med": statistics.median(s["cost"] / base_cost for _, s in results),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: float(v) for k, v in values.items()}


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must be a nonnegative 63-bit integer")

    w = WORKLOADS[args.workload]
    run = Run(w, args.seed, args.seconds, bool(args.trace))
    units = declared_units(bool(args.trace))
    out = run.execute()
    if out["metrics"] and set(out["metrics"]) != set(units):
        raise KeyError(f"metrics computed {sorted(out['metrics'])} "
                       f"differ from those declared in BENCHMARK.json {sorted(units)}")
    metrics = {k: {"value": out["metrics"][k], "unit": u}
               for k, u in units.items() if k in out["metrics"]}
    meta = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "n": w.n, "d": w.d, "k": w.k, "method": w.method,
        "budget": w.budget,
        "data_seed": run.inputs.data_seed, "cover_seeds": out["cover_seeds"],
        "ops_timed": out["op_count"], "baseline_cost": out["base_cost"],
        "numpy": np.__version__, "blas": blas_info(), "nproc": os.cpu_count(),
        "threads": THREADS, "python": sys.version.split()[0],
    }
    if out["op_count"]:
        ops = out["samples"]["op_s"]
        pct = tail_pct(len(ops))
        meta["op_seconds"] = {"median": statistics.median(ops), "tail_pct": pct,
                              "tail": float(np.percentile(ops, pct)), "ops": len(ops)}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"meta": meta, "metrics": metrics, "failures": run.failures,
                   "samples": out["samples"]}, fh, indent=1)
    if run.tracer:
        run.tracer.dump(OUT_DIR / f"{stem}.spans.json")

    for f in run.failures:
        print(f"FAILED {f}")
    print(f"meta {json.dumps(meta)}")
    for name, m in metrics.items():
        print(f"{name:<28} {m['value']:>14.6g} {m['unit']}")
    if out["op_count"]:
        op = meta["op_seconds"]
        print(f"op seconds: median {op['median']:.6g}, p{op['tail_pct']:.1f} {op['tail']:.6g}"
              f" over {op['ops']} ops")
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
