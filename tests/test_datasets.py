import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kcover.datasets
from kcover.datasets import (
    CsvFormatError,
    SyntheticSpec,
    _parse_fields,
    generate_synthetic,
    load_csv,
)
from kcover.solver import gonzalez


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def no_field_pass(path, *args):
    raise AssertionError(f"{path} took the field-by-field pass")


def test_load_csv_basic(tmp_path):
    data = load_csv(write(tmp_path, "1,2\n3,4\n5,6\n"))
    assert data.n == 3 and data.d == 2
    assert data.coords.tolist() == [[1, 2], [3, 4], [5, 6]]


def test_load_csv_skip_header(tmp_path):
    p = write(tmp_path, "x,y\n1,2\n3,4\n")
    assert load_csv(p, skip_header=True).n == 2
    with pytest.raises(CsvFormatError):
        load_csv(p)  # header fields are not numeric


def test_load_csv_parse_error_location(tmp_path):
    p = write(tmp_path, "1,2\nabc,4\n")
    with pytest.raises(CsvFormatError) as err:
        load_csv(p)
    assert err.value.row == 2
    assert err.value.column == 1
    assert "abc" in str(err.value)


def test_load_csv_missing_file(tmp_path, monkeypatch):
    # the OSError of the one open, with no second read
    monkeypatch.setattr(kcover.datasets, "_parse_fields", no_field_pass)
    with pytest.raises(OSError):
        load_csv(tmp_path / "absent.csv")


def test_load_csv_ragged_rows(tmp_path):
    p = write(tmp_path, "1,2\n3,4,5\n")
    with pytest.raises(CsvFormatError) as err:
        load_csv(p)
    assert err.value.row == 2
    assert err.value.column is None


def test_load_csv_delimiter_and_column_range(tmp_path):
    p = write(tmp_path, "a;1;2;9\nb;3;4;9\n")
    data = load_csv(p, delimiter=";", column_range=(1, 3))
    assert data.coords.tolist() == [[1, 2], [3, 4]]


def test_load_csv_column_range_out_of_bounds(tmp_path):
    p = write(tmp_path, "1,2\n")
    with pytest.raises(CsvFormatError):
        load_csv(p, column_range=(1, 5))
    with pytest.raises(CsvFormatError):
        load_csv(p, column_range=(2, 2))


def test_load_csv_skips_blank_lines(tmp_path):
    data = load_csv(write(tmp_path, "1,2\n\n3,4\n  \n"))
    assert data.n == 2


def test_load_csv_rejects_empty_and_nonfinite(tmp_path):
    with pytest.raises(CsvFormatError):
        load_csv(write(tmp_path, "", name="empty.csv"))
    with pytest.raises(CsvFormatError):
        load_csv(write(tmp_path, "1,inf\n", name="inf.csv"))


def test_load_csv_savetxt_file_takes_one_c_parse(tmp_path, monkeypatch):
    # what `kcover synth` and the benchmark write: one loadtxt call, and the
    # coordinates bit for bit, -0.0, subnormals and extremes included
    rng = np.random.default_rng(0)
    coords = rng.standard_normal((300, 5)) * 10.0 ** rng.integers(-300, 300, size=(300, 5))
    coords[0, :] = [-0.0, 0.0, 5e-324, -1.7976931348623157e308, 2.2250738585072014e-308]
    p = tmp_path / "points.csv"
    np.savetxt(p, coords, delimiter=",", fmt="%.17g")
    monkeypatch.setattr(kcover.datasets, "_parse_fields", no_field_pass)
    got = load_csv(p).coords
    assert np.array_equal(got.view(np.int64), coords.view(np.int64))
    got = load_csv(p, column_range=(1, 4)).coords
    assert np.array_equal(got.view(np.int64), coords[:, 1:4].view(np.int64))


@pytest.mark.parametrize("delimiter", ["", "::", None, 1])
def test_load_csv_delimiter_is_one_character(tmp_path, delimiter):
    # checked before the file is opened
    with pytest.raises(ValueError, match="one character"):
        load_csv(tmp_path / "absent.csv", delimiter=delimiter)


# --- the C parse against the field-by-field pass -------------------------

DELIMITERS = [",", ";", "\t", "|", " "]
FAULTS = ["abc", "nan", "inf", "1e400", "1_000", '"1.5"', ""]


@st.composite
def numbers(draw):
    x = draw(st.floats(allow_nan=False, allow_infinity=False))
    form = draw(st.sampled_from(["repr", "%.17g", "%e", "int", "literal"]))
    if form == "repr":
        return repr(x)
    if form == "int":
        return str(draw(st.integers(-10**20, 10**20)))
    if form == "literal":
        return draw(st.sampled_from(["-0.0", "+1", ".5", "1."]))
    return form % x


@st.composite
def csv_files(draw):
    """(text, delimiter, skip_header, column_range) from a small grammar of
    numbers, padding, blank lines and line ends, with injected faults."""
    delimiter = draw(st.sampled_from(DELIMITERS))
    pads = st.sampled_from([p for p in ["", " ", "  ", "\t"] if delimiter not in p])
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(numbers(), min_size=width, max_size=width),
                         min_size=1, max_size=5))
    rows = [[draw(pads) + f + draw(pads) for f in row] for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        fault = draw(st.sampled_from(["field", "wider", "narrower", "trailing"]))
        if fault == "wider":
            row.append("1")
        elif fault == "trailing":
            row.append("")
        elif row and fault == "narrower":
            row.pop()
        elif row:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(FAULTS))
    lines = [delimiter.join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", " ", "\t", " \t "])))
    if draw(st.booleans()):
        lines.insert(0, delimiter.join(f"x{j}" for j in range(width)))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(line + draw(ends) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    column_range = draw(st.none() | st.tuples(st.integers(0, width), st.integers(1, width + 1)))
    return text, delimiter, draw(st.booleans()), column_range


def outcome(parse):
    try:
        return "ok", parse().view(np.int64)
    except CsvFormatError as exc:
        return "error", exc.row, exc.column, str(exc)


@settings(max_examples=150, deadline=None)
@given(csv_files())
@example(("1,2\n  \n3,4\n", ",", False, None))          # whitespace-only line
@example(("1\n \t\n3\n", ",", False, None))
@example(('"1.5",2\n', ",", False, None))               # csv quoting
@example(("1_000,2\n", ",", False, None))               # Python float syntax
@example(("١,٢\n", ",", False, None))  # non-ASCII digits
@example(("Infinity,2\n", ",", False, None))            # inf in loadtxt too
@example(("1,nan\n3,4\n", ",", False, (0, 1)))          # non-finite outside the range
@example(("1,2,3\n4,5,6,7\n", ",", False, (0, 2)))      # wider row under a range
@example(("1,2,3\n4,5\n", ",", False, (0, 2)))          # narrower row under a range
@example(("1,2\n", ",", False, (1, 3)))                 # range wider than the rows
@example(("1,2\n", ",", False, (1, 1)))
@example(('"x\n1,2\n3,4\n', ",", True, None))           # quoted header, never closed
@example(('"x\ny",9\n1,2\n3,4\n', ",", True, None))     # quoted header over two lines
@example(("x,y\n1,2\n", ",", False, None))              # header not skipped
@example(("1,2\n", ",", True, None))                    # header only
@example(("", ",", False, None))
@example(("\n\n", ",", False, None))
@example(("1,2,\n3,4,\n", ",", False, None))            # trailing delimiter
@example(("1,2,\n3,4,\n", ",", False, (0, 2)))
@example(("1,,2\n", ",", False, None))                  # empty field
@example(("1  2\n", " ", False, None))                  # two space delimiters
@example(("1\r\n2\r3\n", ",", False, None))
def test_load_csv_matches_the_field_pass(case):
    # load_csv either returns the field pass's coordinates bit for bit
    # (-0.0 included) or raises its error at the same row and column, and
    # warns of nothing (loadtxt warns on a file with no rows)
    text, delimiter, skip_header, column_range = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = outcome(lambda: load_csv(path, delimiter, skip_header, column_range).coords)
        slow = outcome(lambda: _parse_fields(path, delimiter, skip_header, column_range))
    assert fast[0] == slow[0], (fast, slow)
    if fast[0] == "ok":
        assert fast[1].shape == slow[1].shape and np.array_equal(fast[1], slow[1])
    else:
        assert fast == slow


def test_synthetic_degenerate_cluster():
    spec = SyntheticSpec("gaussian_mixture", n=5, d=3, k_planted=1,
                         cluster_std=0.0, seed=7)
    data, radius = generate_synthetic(spec)
    assert radius == 0.0
    assert (data.coords == data.coords[0]).all()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_synthetic_planted_pair_cost_bracket(seed):
    spec = SyntheticSpec("gaussian_mixture", n=200, d=3, k_planted=2,
                         cluster_std=1.0, separation=100.0, seed=seed)
    data, radius = generate_synthetic(spec)
    assert 0.0 < radius < 100.0 / 4  # clusters well separated at this std
    got = gonzalez(data, 2).cost_on_solve_set
    assert radius <= got <= 2.0 * radius + 2.0 * spec.cluster_std * 1e-6


def test_synthetic_deterministic():
    spec = SyntheticSpec("gaussian_mixture", n=50, d=4, k_planted=3, seed=11)
    a, ra = generate_synthetic(spec)
    b, rb = generate_synthetic(spec)
    assert (a.coords == b.coords).all() and ra == rb


def test_synthetic_uniform_box():
    data, radius = generate_synthetic(SyntheticSpec("uniform_box", n=40, d=2, seed=3))
    assert radius is None
    assert data.n == 40 and data.d == 2
    assert (data.coords >= 0.0).all() and (data.coords <= 1.0).all()


def test_synthetic_validation():
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticSpec("nope", n=4, d=2))
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticSpec("gaussian_mixture", n=0, d=2))
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticSpec("gaussian_mixture", n=4, d=2, k_planted=0))
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticSpec("gaussian_mixture", n=4, d=2, separation=0.0))
    with pytest.raises(ValueError):
        generate_synthetic(
            SyntheticSpec("gaussian_mixture", n=4, d=2, cluster_std=-1.0))


def test_synthetic_infeasible_packing(monkeypatch):
    # the box is sized for comfortable success, so starve the try budget to
    # check the failure contract
    import kcover.datasets as mod

    monkeypatch.setattr(mod, "_PLACEMENT_TRIES_PER_CENTER", 1)
    spec = SyntheticSpec("gaussian_mixture", n=100, d=2, k_planted=30,
                         separation=10.0, seed=0)
    with pytest.raises(ValueError, match="place"):
        generate_synthetic(spec)


def test_synthetic_separation_respected():
    spec = SyntheticSpec("gaussian_mixture", n=90, d=2, k_planted=3,
                         cluster_std=0.0, separation=25.0, seed=5)
    data, _ = generate_synthetic(spec)
    rows = np.unique(data.coords, axis=0)
    assert len(rows) == 3
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(rows[i] - rows[j]) >= 25.0
