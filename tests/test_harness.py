import csv
import hashlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import kcover.experiment
import kcover.sampling
from kcover.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, main
from kcover.core import Dataset
from kcover.datasets import SyntheticSpec, generate_synthetic
from kcover.experiment import (
    REPORT_COLUMNS,
    TIMING_COLUMNS,
    ExperimentReport,
    _cell_seed,
    build_coreset,
    default_budgets,
    emit_report,
    run_sweep,
)
from kcover.solver import evaluate_on_full, gonzalez


def planted(n=400, d=3, k=4, seed=0):
    spec = SyntheticSpec("gaussian_mixture", n=n, d=d, k_planted=k,
                         cluster_std=0.5, separation=40.0, seed=seed)
    return generate_synthetic(spec)[0]


# --- budget policy ---------------------------------------------------------


def test_default_budgets():
    assert default_budgets(10, 10_000) == (10, 20, 40, 80, 160, 300)
    assert default_budgets(10, 50) == (10, 20, 40, 50)
    assert default_budgets(1, 2) == (1, 2)


# --- run_sweep -----------------------------------------------------------


def test_sweep_uniform_full_budget_ratio_one():
    data = planted(n=120, k=3, seed=1)
    rows = run_sweep(data, k=3, methods=("uniform",), budgets=(data.n,),
                     trials=2, seed=5)
    assert len(rows) == 2
    for r in rows:
        assert r.coreset_size_actual == data.n
        assert r.cost_ratio_vs_benchmark == 1.0


def test_sweep_benchmark_only():
    data = planted(n=90, k=2, seed=2)
    rows = run_sweep(data, k=2, methods=("benchmark",), trials=3, seed=0)
    assert len(rows) == 3
    assert [r.trial for r in rows] == [0, 1, 2]
    for r in rows:
        assert r.method == "benchmark"
        assert r.cost_ratio_vs_benchmark == 1.0
        assert r.budget_requested == data.n
        assert r.coreset_size_actual == data.n
        assert r.build_seconds == 0.0


def test_sweep_solves_full_data_once(monkeypatch):
    data = planted(n=200, k=3, seed=12)
    full_solves = []

    def counting_gonzalez(dataset, k, start_index=0):
        if dataset.n == data.n:
            full_solves.append(k)
        return gonzalez(dataset, k, start_index=start_index)

    monkeypatch.setattr(kcover.experiment, "gonzalez", counting_gonzalez)
    rows = run_sweep(data, k=3, methods=("benchmark", "uniform"), budgets=(6, 12),
                     trials=3, seed=0)
    assert full_solves == [3]
    bench = [r for r in rows if r.method == "benchmark"]
    assert [r.trial for r in bench] == [0, 1, 2]
    assert len({r.cost_on_full for r in bench}) == 1


def test_sweep_hash_planted_ratios_finite():
    data = planted(n=500, d=3, k=4, seed=3)
    budgets = (4, 8, 16, 32)
    rows = run_sweep(data, k=4, methods=("hash",), budgets=budgets,
                     trials=2, seed=1)
    assert len(rows) == len(budgets) * 2
    for r in rows:
        assert math.isfinite(r.cost_ratio_vs_benchmark)
        assert r.cost_ratio_vs_benchmark >= 0.0
        assert r.cost_on_full >= 0.0


def test_sweep_size_tracks_budget():
    # size discipline holds for the budgeted methods (sample is emergent-size)
    data = planted(n=600, d=4, k=5, seed=4)
    rows = run_sweep(data, k=5, methods=("hash", "uniform"),
                     budgets=(10, 25, 60), trials=1, seed=2)
    for r in rows:
        assert r.coreset_size_actual <= 1.2 * r.budget_requested
        assert r.coreset_size_actual <= data.n


def test_sweep_row_order_and_grid_shape():
    data = planted(n=200, k=3, seed=5)
    rows = run_sweep(data, k=3, methods=("uniform", "benchmark"),
                     budgets=(6, 12), trials=2, seed=0)
    key = [(r.method, r.budget_requested, r.trial) for r in rows]
    assert key == sorted(key)
    assert sum(r.method == "benchmark" for r in rows) == 2
    assert sum(r.method == "uniform" for r in rows) == 4


def test_sweep_timing_accounting():
    data = planted(n=300, k=3, seed=6)
    rows = run_sweep(data, k=3, methods=("hash",), budgets=(12,), trials=1, seed=0)
    (r,) = rows
    assert r.total_seconds >= r.build_seconds + r.solve_seconds - 1e-6
    assert r.build_seconds >= 0.0 and r.solve_seconds >= 0.0


def test_sweep_default_k_and_budgets():
    data = planted(n=100, k=2, seed=7)
    rows = run_sweep(data, methods=("uniform",), trials=1, seed=0)
    k = math.isqrt(100)
    assert all(r.k == k for r in rows)
    assert tuple(r.budget_requested for r in rows) == default_budgets(k, 100)


def test_sweep_costs_are_on_the_input_rows():
    # d = 200 > 32 ln n: wide enough that a distance-preserving projection
    # would shrink it, yet every cost is taken on the rows as given
    rng = np.random.default_rng(8)
    data = Dataset(rng.normal(size=(120, 200)))
    rows = run_sweep(data, k=3, methods=("benchmark", "hash", "sample", "uniform"),
                     budgets=(12,), trials=2, seed=4)
    assert all(r.d == 200 for r in rows)
    bench = gonzalez(data, 3, start_index=0).cost_on_solve_set
    for r in rows:
        if r.method == "benchmark":
            assert r.cost_on_full == bench
            continue
        subset, _ = build_coreset(r.method, data, 3, r.budget_requested,
                                  _cell_seed(4, r.method, r.budget_requested, r.trial))
        sol = gonzalez(data.take(subset), 3)
        assert r.coreset_size_actual == subset.shape[0]
        assert r.cost_on_full == evaluate_on_full(data, subset, sol), r.method


def test_sweep_determinism_excludes_timing():
    data = planted(n=250, d=3, k=3, seed=9)
    kwargs = dict(k=3, methods=("hash", "uniform", "benchmark"),
                  budgets=(6, 18), trials=2, seed=42)
    a = run_sweep(data, **kwargs)
    b = run_sweep(data, **kwargs)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        for col, attr in REPORT_COLUMNS:
            if col in TIMING_COLUMNS:
                continue
            assert getattr(ra, attr) == getattr(rb, attr), col


def test_sweep_validation():
    data = planted(n=50, k=2, seed=10)
    with pytest.raises(ValueError):
        run_sweep(data, methods=())
    with pytest.raises(ValueError):
        run_sweep(data, methods=("warp",))
    with pytest.raises(ValueError):
        run_sweep(data, trials=0)
    with pytest.raises(ValueError):
        run_sweep(data, k=0)
    with pytest.raises(ValueError):
        run_sweep(data, k=51)
    with pytest.raises(ValueError):
        run_sweep(data, budgets=(0,))


# --- report emission ------------------------------------------------------


def sample_report(**overrides):
    base = dict(dataset_name="toy", n=10, d=2, k=3, method="hash",
                budget_requested=6, coreset_size_actual=5, build_seconds=0.25,
                solve_seconds=0.5, total_seconds=0.8, cost_on_full=1.5,
                cost_ratio_vs_benchmark=1.25, seed=7, trial=0)
    base.update(overrides)
    return ExperimentReport(**base)


def read_rows(path):
    """A CSV report's rows as dicts of column name to cell text."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_emit_csv_layout(tmp_path):
    text = emit_report([sample_report()], fmt="csv")
    lines = text.splitlines()
    assert lines[0] == ("datasetName,n,d,k,method,budgetRequested,"
                        "coresetSizeActual,buildSeconds,solveSeconds,"
                        "totalSeconds,costOnFull,costRatioVsBenchmark,seed,trial")
    assert lines[1] == "toy,10,2,3,hash,6,5,0.25,0.5,0.8,1.5,1.25,7,0"


def test_emit_csv_roundtrip(tmp_path):
    reports = [sample_report(trial=t, cost_on_full=1.0 + 0.1 * t) for t in range(3)]
    path = tmp_path / "report.csv"
    emit_report(reports, fmt="csv", path=path)
    records = read_rows(path)
    assert len(records) == len(reports)
    for record, report in zip(records, reports):
        assert list(record) == [col for col, _ in REPORT_COLUMNS]
        for col, attr in REPORT_COLUMNS:
            value = getattr(report, attr)
            assert type(value)(record[col]) == value, col


def test_emit_json_field_names(tmp_path):
    path = tmp_path / "report.json"
    text = emit_report([sample_report()], fmt="json", path=path)
    assert path.read_text() == text
    records = json.loads(text)
    assert len(records) == 1
    assert list(records[0]) == [col for col, _ in REPORT_COLUMNS]
    assert records[0]["costRatioVsBenchmark"] == 1.25


def test_emit_json_writes_non_finite_values_as_null():
    # a ratio over a zero benchmark cost is inf, and a row built by hand can
    # hold NaN; strict JSON parsers accept neither NaN nor Infinity
    rows = [sample_report(cost_on_full=math.nan, cost_ratio_vs_benchmark=math.nan),
            sample_report(cost_ratio_vs_benchmark=math.inf)]

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    records = json.loads(emit_report(rows, fmt="json"), parse_constant=reject)
    assert records[0]["costOnFull"] is None and records[0]["costRatioVsBenchmark"] is None
    assert records[1]["costRatioVsBenchmark"] is None and records[1]["costOnFull"] == 1.5
    table = csv.DictReader(io.StringIO(emit_report(rows, fmt="csv")))
    assert [r["costRatioVsBenchmark"] for r in table] == ["nan", "inf"]


def test_emit_rejects_bad_format():
    with pytest.raises(ValueError):
        emit_report([sample_report()], fmt="xml")


def test_sweep_csv_identical_modulo_timing(tmp_path):
    data = planted(n=150, d=2, k=3, seed=11)
    paths = []
    for tag in ("a", "b"):
        rows = run_sweep(data, k=3, methods=("hash", "benchmark"),
                         budgets=(9,), trials=1, seed=3)
        p = tmp_path / f"{tag}.csv"
        emit_report(rows, fmt="csv", path=p)
        paths.append(p)
    first, second = (read_rows(p) for p in paths)
    assert len(first) == len(second) == 2
    for ra, rb in zip(first, second):
        for col, _ in REPORT_COLUMNS:
            if col not in TIMING_COLUMNS:
                assert ra[col] == rb[col], col


# --- CLI -----------------------------------------------------------------


def synth_csv(tmp_path, n=200, d=2, k=3, seed=0):
    out = tmp_path / "points.csv"
    rc = main(["synth", "--generator", "gaussian_mixture", "--n", str(n),
               "--d", str(d), "--k-planted", str(k), "--separation", "50",
               "--cluster-std", "0.5", "--seed", str(seed),
               "--output", str(out)])
    assert rc == 0
    return out


def test_cli_round_trip(tmp_path, capsys):
    data_path = synth_csv(tmp_path)
    coreset_path = tmp_path / "coreset.json"
    rc = main(["coreset", "--input", str(data_path), "--method", "hash",
               "--k", "3", "--budget", "20",
               "--output", str(coreset_path)])
    assert rc == 0
    payload = json.loads(coreset_path.read_text())
    assert payload["method"] == "hash"
    indices = payload["indices"]
    assert 0 < len(indices) <= 20
    assert indices == sorted(set(indices))
    assert payload["radiusBound"] >= 0.0

    solution_path = tmp_path / "solution.json"
    rc = main(["solve", "--input", str(data_path), "--k", "3",
               "--coreset", str(coreset_path), "--output", str(solution_path)])
    assert rc == 0
    solution = json.loads(solution_path.read_text())
    assert len(solution["centers"]) == 3
    assert set(solution["centers"]) <= set(indices)  # original row ids

    capsys.readouterr()
    rc = main(["eval", "--input", str(data_path), "--solution", str(solution_path)])
    assert rc == 0
    printed = capsys.readouterr().out
    value = float(printed.strip().rsplit(" ", 1)[-1])
    assert value >= solution["costOnSolveSet"] - 1e-9


def test_cli_solve_without_coreset(tmp_path):
    data_path = synth_csv(tmp_path, n=60, k=2)
    out = tmp_path / "sol.json"
    rc = main(["solve", "--input", str(data_path), "--k", "2", "--output", str(out)])
    assert rc == 0
    assert len(json.loads(out.read_text())["centers"]) == 2


def test_cli_solve_on_a_non_canonical_coreset(tmp_path):
    # the coreset is solved on its sorted, distinct rows (0, 20, 100), so the
    # centers map back through that order, not through the file's
    data_path = tmp_path / "points.csv"
    data_path.write_text("0\n10\n20\n30\n100\n")
    for indices in ([4, 0, 2], [2, 4, 4, 0, 2]):
        coreset_path = tmp_path / "coreset.json"
        coreset_path.write_text(json.dumps({"indices": indices}))
        out = tmp_path / "sol.json"
        for k, centers in ((1, [0]), (2, [0, 4])):
            rc = main(["solve", "--input", str(data_path), "--k", str(k),
                       "--coreset", str(coreset_path), "--output", str(out)])
            assert rc == 0
            assert json.loads(out.read_text())["centers"] == centers, indices


def test_cli_coreset_sample_method(tmp_path):
    data_path = synth_csv(tmp_path, n=120, k=2)
    out = tmp_path / "coreset.json"
    rc = main(["coreset", "--input", str(data_path), "--method", "sample",
               "--k", "2", "--output", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "sample"
    assert payload["indices"]


def test_build_coreset_budget_range():
    # every budgeted method needs a budget of at least 1; one above n is
    # taken as n, so the uniform method returns every row
    data = Dataset(np.random.default_rng(14).normal(size=(20, 2)))
    subset, result = build_coreset("uniform", data, 2, 21, seed=0)
    assert result is None and subset.tolist() == list(range(20))
    for method in ("hash", "uniform"):
        for budget in (0, -1, None):
            with pytest.raises(ValueError):
                build_coreset(method, data, 2, budget, seed=0)


def test_cli_coreset_budget_zero_is_a_usage_error(tmp_path, capsys):
    data_path = synth_csv(tmp_path, n=50, k=2)
    rc = main(["coreset", "--input", str(data_path), "--method", "uniform", "--k", "2",
               "--budget", "0", "--output", str(tmp_path / "coreset.json")])
    assert rc == EXIT_USAGE == 2
    assert "budget" in capsys.readouterr().err
    assert not (tmp_path / "coreset.json").exists()


@pytest.mark.parametrize("method", ["hash", "uniform"])
def test_cli_coreset_budget_above_n_keeps_every_row(tmp_path, method):
    # a budget past n is taken as n, as run_sweep takes it: both budgeted
    # methods return all 400 distinct rows
    data_path = synth_csv(tmp_path, n=400, k=3, seed=7)
    out = tmp_path / "coreset.json"
    rc = main(["coreset", "--input", str(data_path), "--method", method, "--k", "3",
               "--budget", "1000", "--output", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["indices"] == list(range(400))


def test_cli_sweep_csv(tmp_path):
    data_path = synth_csv(tmp_path, n=150, k=3, seed=4)
    report_path = tmp_path / "report.csv"
    rc = main(["sweep", "--input", str(data_path), "--k", "3",
               "--methods", "benchmark,hash,uniform", "--budgets", "2k,30",
               "--trials", "2", "--seed", "1", "--output", str(report_path)])
    assert rc == 0
    rows = read_rows(report_path)
    # benchmark once per trial, others per (budget, trial)
    assert len(rows) == 2 + 2 * 2 * 2
    budgets = {int(r["budgetRequested"]) for r in rows if r["method"] == "hash"}
    assert budgets == {6, 30}  # "2k" means 2*k


def test_cli_sweep_stdout_json(tmp_path, capsys):
    data_path = synth_csv(tmp_path, n=80, k=2, seed=5)
    capsys.readouterr()
    rc = main(["sweep", "--input", str(data_path), "--k", "2", "--methods",
               "uniform", "--budgets", "10", "--trials", "1", "--format", "json"])
    assert rc == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 1 and records[0]["method"] == "uniform"


def test_cli_usage_errors(tmp_path, capsys):
    data_path = synth_csv(tmp_path, n=40, k=2, seed=6)
    # hash method without a budget
    rc = main(["coreset", "--input", str(data_path),
               "--output", str(tmp_path / "x.json")])
    assert rc == EXIT_USAGE
    # malformed budget token
    rc = main(["sweep", "--input", str(data_path), "--budgets", "3x"])
    assert rc == EXIT_USAGE
    # malformed column slice
    rc = main(["solve", "--input", str(data_path), "--columns", "9",
               "--output", str(tmp_path / "y.json")])
    assert rc == EXIT_USAGE
    # center coordinates in place of row indices
    solution_path = tmp_path / "coords.json"
    solution_path.write_text(json.dumps({"centers": [1.5, 2.0]}))
    rc = main(["eval", "--input", str(data_path), "--solution", str(solution_path)])
    assert rc == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("delimiter", ["::", ""])
def test_cli_delimiter_must_be_one_character(tmp_path, capsys, delimiter):
    data_path = synth_csv(tmp_path, n=40, k=2, seed=6)
    solution_path = tmp_path / "sol.json"
    solution_path.write_text(json.dumps({"centers": [0, 1]}))
    rc = main(["eval", "--input", str(data_path), "--solution", str(solution_path),
               "--delimiter", delimiter])
    assert rc == EXIT_USAGE
    assert "one character" in capsys.readouterr().err


def test_cli_field_past_the_csv_limit_is_a_usage_error(tmp_path, capsys):
    # a 200,001-character numeric field next to a quoted one goes to the
    # field pass, past csv's field limit: a CsvFormatError, not a traceback
    data_path = tmp_path / "long.csv"
    data_path.write_text("0" * 200_000 + '1,"2"\n3,4\n')
    solution_path = tmp_path / "sol.json"
    solution_path.write_text(json.dumps({"centers": [0]}))
    rc = main(["eval", "--input", str(data_path), "--solution", str(solution_path)])
    assert rc == EXIT_USAGE
    assert "row 1" in capsys.readouterr().err


def test_cli_has_no_lowdim_method(tmp_path, capsys):
    data_path = synth_csv(tmp_path, n=40, k=2, seed=6)
    with pytest.raises(SystemExit) as err:
        main(["coreset", "--input", str(data_path), "--method", "lowdim",
              "--budget", "8", "--output", str(tmp_path / "c.json")])
    assert err.value.code == EXIT_USAGE
    rc = main(["sweep", "--input", str(data_path), "--methods", "hash,lowdim",
               "--budgets", "8", "--trials", "1"])
    assert rc == EXIT_USAGE
    capsys.readouterr()


def test_cli_argparse_rejects_unknown_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--input", "points.csv", "--bogus"])
    assert err.value.code == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("command", ["coreset", "sweep"])
def test_cli_has_no_beta_flag(capsys, command):
    # the sample radius factor is fixed at 2, so --beta is an unknown flag
    with pytest.raises(SystemExit) as err:
        main([command, "--input", "points.csv", "--output", "c.json", "--beta", "2"])
    assert err.value.code == EXIT_USAGE
    capsys.readouterr()


def test_cli_construction_failure_exit_code(tmp_path, capsys, monkeypatch):
    # sampling rounds that never converge: the sweep stops at the diagonal,
    # where row 0 alone is a covering, so the command succeeds with it
    monkeypatch.setattr(kcover.sampling, "run_sampling_rounds",
                        lambda dataset, tau, cfg, tau_index=0: (None, 7))
    data_path = synth_csv(tmp_path, n=100, k=2, seed=7)
    out = tmp_path / "z.json"
    rc = main(["coreset", "--input", str(data_path), "--method", "sample",
               "--k", "2", "--output", str(out)])
    assert rc == EXIT_OK
    assert json.loads(out.read_text())["indices"] == [0]
    assert capsys.readouterr().err == ""


def test_cli_missing_input_exit_code(tmp_path, capsys):
    rc = main(["solve", "--input", str(tmp_path / "absent.csv"),
               "--output", str(tmp_path / "w.json")])
    assert rc == EXIT_IO
    capsys.readouterr()


def test_cli_installed_entry_point(tmp_path):
    out = tmp_path / "pts.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "kcover", "synth", "--generator", "uniform_box",
         "--n", "25", "--d", "2", "--output", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert len(out.read_text().strip().splitlines()) == 25


# --- pinned outputs --------------------------------------------------------

# sha256 of `kcover coreset` JSON for each method on synth_csv(n=200, d=3,
# k=4, seed=12), k 4, budget 20, seed 3; the hash and sample payloads
# carry radiusBound, tauUsed, iterations and sizes, the uniform one
# a null radiusBound
PINNED_CORESETS = {
    "hash": "e10b3adf43ce0a0da2cf451b22d90594bbc5121d71a71f5b825586e07a65544f",
    "sample": "ea868bae9426baf0d204e1daea9ff4cfbe4c00b918b26598f540394bec485b8a",
    "uniform": "2c3eea3e89110f64a2d68c866f0ffe87746820e46216341d64678b08f4038358",
}
# sha256 of run_sweep's CSV and JSON without the timing columns: all four
# methods on planted(n=150, d=4, k=3, seed=13), budgets 8, 32 and one of n
# or more, two trials, seed 5
PINNED_SWEEP = ("0282b4b6ec442068ad2ad69cd9f1951e1f19597addedadf01e73a5c4bc14e36e",
                "445f89756bb2279fb81acc0ca87db7cbfd711b28b4dc42764e78636fb94b43c6")


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("method", ["hash", "sample", "uniform"])
def test_cli_coreset_output_is_pinned(tmp_path, method):
    data_path = synth_csv(tmp_path, n=200, d=3, k=4, seed=12)
    out = tmp_path / "coreset.json"
    rc = main(["coreset", "--input", str(data_path), "--method", method, "--k", "4",
               "--budget", "20", "--seed", "3", "--output", str(out)])
    assert rc == 0
    assert digest(out.read_text()) == PINNED_CORESETS[method]


def test_sweep_output_is_pinned():
    rows = run_sweep(planted(n=150, d=4, k=3, seed=13), k=3,
                     methods=("benchmark", "hash", "sample", "uniform"),
                     budgets=(8, 32, 10**6), trials=2, seed=5)
    keep = [i for i, (col, _) in enumerate(REPORT_COLUMNS) if col not in TIMING_COLUMNS]
    table = list(csv.reader(io.StringIO(emit_report(rows, fmt="csv"))))
    text = "\n".join(",".join(line[i] for i in keep) for line in table)
    records = json.loads(emit_report(rows, fmt="json"))
    for rec in records:
        for col in TIMING_COLUMNS:
            del rec[col]
    assert (digest(text), digest(json.dumps(records))) == PINNED_SWEEP
