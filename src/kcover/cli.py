"""Command-line front end.

Subcommands:
  synth     write a synthetic dataset to CSV
  coreset   build a covering / coreset of a CSV dataset, write indices as JSON
            (hash, sample or uniform; sample queries nearest members
            exactly)
  solve     greedy k-center on a dataset (optionally restricted to a coreset)
  eval      cost of a stored solution (center row indices) on a dataset
  sweep     method x budget x trial comparison grid, CSV or JSON report

Exit codes: 0 ok, 2 invalid arguments or malformed CSV, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .core import Dataset, cost, index_subset
from .datasets import SyntheticSpec, generate_synthetic, load_csv
from .experiment import CORESET_METHODS, build_coreset, emit_report, run_sweep
from .solver import gonzalez

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 4


def _add_input_args(p):
    p.add_argument("--input", required=True, help="CSV file of points, one row per point")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--skip-header", action="store_true")
    p.add_argument("--columns", default=None,
                   help="half-open column slice START:STOP (0-based)")


def _parse_columns(text):
    if text is None:
        return None
    try:
        start, stop = text.split(":")
        return int(start), int(stop)
    except ValueError:
        raise ValueError(f"--columns expects START:STOP, got {text!r}") from None


def _load(args) -> Dataset:
    return load_csv(args.input, delimiter=args.delimiter,
                    skip_header=args.skip_header,
                    column_range=_parse_columns(args.columns))


def _default_k(args, n: int) -> int:
    return args.k if args.k is not None else max(1, math.isqrt(n))


def _parse_budgets(text: str, k: int):
    """Budget list: plain integers, or multiples of k written like '8k'."""
    out = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token.endswith("k") and token[:-1].isdigit():
            out.append(int(token[:-1]) * k)
        elif token.isdigit():
            out.append(int(token))
        else:
            raise ValueError(f"bad budget token {token!r}")
    if not out:
        raise ValueError("no budgets given")
    return out


def _cmd_synth(args) -> int:
    spec = SyntheticSpec(generator=args.generator, n=args.n, d=args.d,
                         k_planted=args.k_planted, cluster_std=args.cluster_std,
                         separation=args.separation, seed=args.seed)
    data, planted = generate_synthetic(spec)
    np.savetxt(args.output, data.coords, delimiter=",", fmt="%.17g")
    msg = f"wrote {data.n} x {data.d} points to {args.output}"
    if planted is not None:
        msg += f" (planted radius {planted:.6g})"
    print(msg)
    return EXIT_OK


def _cmd_coreset(args) -> int:
    data = _load(args)
    subset, result = build_coreset(args.method, data, _default_k(args, data.n),
                                   args.budget, args.seed)
    payload = {"method": args.method, "indices": subset.tolist(), "radiusBound": None}
    if result is not None:
        payload.update(radiusBound=result.radius_bound, tauUsed=result.tau_used,
                       iterations=result.iterations, sizes=list(result.sizes))
    _write_json(args.output, payload)
    print(f"coreset of {subset.shape[0]} rows out of {data.n} written to {args.output}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    data = _load(args)
    k = _default_k(args, data.n)
    if args.coreset is not None:
        with open(args.coreset) as fh:
            rows = index_subset(json.load(fh)["indices"], data.n)
        # take() solves on the canonical (sorted, distinct) rows, so centers
        # map back through the same canonical list
        sub = data.take(rows)
        sol = gonzalez(sub, k, start_index=args.start)
        centers = [int(rows[c]) for c in sol.centers]
    else:
        sol = gonzalez(data, k, start_index=args.start)
        centers = [int(c) for c in sol.centers]
    payload = {"k": k, "centers": centers, "costOnSolveSet": sol.cost_on_solve_set,
               "solveSeconds": sol.solve_seconds}
    _write_json(args.output, payload)
    print(f"solved k={k}: cost {sol.cost_on_solve_set:.6g} "
          f"({len(centers)} centers) -> {args.output}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    data = _load(args)
    with open(args.solution) as fh:
        payload = json.load(fh)
    value = cost(data, payload["centers"])
    print(f"cost on {data.n} points: {value:.10g}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    data = _load(args)
    k = _default_k(args, data.n)
    budgets = _parse_budgets(args.budgets, k) if args.budgets else None
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    reports = run_sweep(data, k=k, methods=methods, budgets=budgets,
                        trials=args.trials, seed=args.seed,
                        dataset_name=args.name)
    text = emit_report(reports, fmt=args.format, path=args.output)
    if args.output is None:
        sys.stdout.write(text)
    else:
        print(f"{len(reports)} rows written to {args.output}")
    return EXIT_OK


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kcover",
                                     description="k-center coresets via grid hashing and sampling")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--generator", choices=("gaussian_mixture", "uniform_box"),
                   default="gaussian_mixture")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k-planted", type=int, default=1)
    p.add_argument("--cluster-std", type=float, default=1.0)
    p.add_argument("--separation", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("coreset", help="build a coreset of a dataset")
    _add_input_args(p)
    p.add_argument("--method", choices=CORESET_METHODS, default="hash")
    p.add_argument("--k", type=int, default=None, help="default: floor(sqrt(n))")
    p.add_argument("--budget", type=int, default=None,
                   help="coreset size for hash and uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_coreset)

    p = sub.add_parser("solve", help="greedy k-center solve")
    _add_input_args(p)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--coreset", default=None,
                   help="coreset JSON; solve on its rows, report original indices")
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("eval", help="evaluate a stored solution")
    _add_input_args(p)
    p.add_argument("--solution", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("sweep", help="method x budget x trial comparison")
    _add_input_args(p)
    p.add_argument("--name", default="dataset", help="dataset name recorded in reports")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--methods", default="hash,uniform",
                   help="comma list of benchmark," + ",".join(CORESET_METHODS))
    p.add_argument("--budgets", default=None,
                   help="comma list; plain sizes or multiples like 8k (default 1k..30k)")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="default: print to stdout")
    p.set_defaults(fn=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError) as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
