"""Dataset ingestion and synthetic instance generation."""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import STREAM_SYNTH, Dataset, rng_stream

_PLACEMENT_TRIES_PER_CENTER = 200
# np.loadtxt refuses a newline delimiter; csv gives '"' its quote role, and
# from Python 3.13 refuses it as a delimiter
_FIELD_PASS_DELIMITERS = '\r\n"'


class CsvFormatError(ValueError):
    """Malformed CSV content; row/column are 1-based file positions."""

    def __init__(self, path, row, column, message):
        self.path = str(path)
        self.row = row
        self.column = column
        where = f"row {row}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{path}: {where}: {message}")


def load_csv(path, delimiter: str = ",", skip_header: bool = False,
             column_range: tuple[int, int] | None = None) -> Dataset:
    """Read numeric rows into a Dataset.

    The grammar is one point per line, with lines ending in \\n, \\r\\n or \\r.
    Fields are split on the one-character delimiter with csv quoting, so
    "1.5" reads as 1.5. Each field is stripped of whitespace and read with
    Python's float, so 1_000 and non-ASCII digits parse; every value must be
    finite. Blank and whitespace-only lines are skipped, skip_header drops the
    first record, and every other row must have the same field count.
    column_range selects a half-open [start, stop) slice of each row's fields
    (0-based). Parse errors name the offending 1-based row and column.

    A clean file takes one C parse (np.loadtxt). Any file that parse does not
    take cleanly is read again field by field, and that pass decides: it
    returns the same coordinates, bit for bit, or raises the CsvFormatError.
    The C parse has no limit on a field's length, so a clean file still loads
    with a numeric field longer than csv's limit of 131,072 characters; in a
    file that goes to the field pass, such a field is a CsvFormatError.
    """
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise ValueError(f"delimiter must be one character, got {delimiter!r}")
    path = Path(path)
    coords = _parse_clean(path, delimiter, skip_header, column_range)
    if coords is None:
        coords = _parse_fields(path, delimiter, skip_header, column_range)
    return Dataset(coords)


def _parse_clean(path, delimiter, skip_header, column_range):
    """Every field of the file in one np.loadtxt call, column_range sliced
    afterwards; None where the field-by-field pass must decide."""
    if delimiter in _FIELD_PASS_DELIMITERS:
        return None
    # the same open as the field pass, so the same decoding and no
    # decompression by file suffix, which np.loadtxt applies to a path; csv
    # finds the end of a header record that a quote carries over several lines
    with open(path, newline="") as fh:
        try:
            if skip_header:
                next(csv.reader(fh, delimiter=delimiter), None)
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                # no usecols: with it loadtxt accepts rows wider or narrower
                # than the first
                fields = np.loadtxt(fh, dtype=np.float64, delimiter=delimiter,
                                    comments=None, ndmin=2)
        except (ValueError, csv.Error):
            return None
    start, stop = column_range if column_range is not None else (0, fields.shape[1])
    if not (0 <= start < stop <= fields.shape[1]):
        return None
    coords = fields[:, start:stop]
    if coords.shape[0] == 0 or not np.isfinite(coords).all():
        return None
    return coords


def _records(path, reader):
    """csv's records, with a csv.Error (a field past csv's length limit, for
    one) raised as a CsvFormatError at the line where the reader stopped."""
    try:
        yield from reader
    except csv.Error as exc:
        raise CsvFormatError(path, reader.line_num, None, str(exc)) from None


def _parse_fields(path, delimiter, skip_header, column_range) -> np.ndarray:
    """The field-by-field parse with csv and float, which places every error."""
    rows: list[list[float]] = []
    width = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        for lineno, record in enumerate(_records(path, reader), start=1):
            if skip_header and lineno == 1:
                continue
            if not record or all(not f.strip() for f in record):
                continue  # blank line
            if width is None:
                width = len(record)
                if column_range is not None:
                    start, stop = column_range
                    if not (0 <= start < stop <= width):
                        raise CsvFormatError(path, lineno, None,
                                             f"column range [{start}, {stop}) does not fit "
                                             f"a {width}-field row")
            elif len(record) != width:
                raise CsvFormatError(path, lineno, None,
                                     f"expected {width} fields, found {len(record)}")
            start, stop = column_range if column_range is not None else (0, width)
            parsed = []
            for col in range(start, stop):
                field = record[col].strip()
                try:
                    value = float(field)
                except ValueError:
                    raise CsvFormatError(path, lineno, col + 1,
                                         f"not a number: {field!r}") from None
                if not math.isfinite(value):
                    raise CsvFormatError(path, lineno, col + 1,
                                         f"non-finite value: {field!r}")
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise CsvFormatError(path, 1, None, "no data rows")
    return np.asarray(rows, dtype=np.float64)


@dataclass(frozen=True)
class SyntheticSpec:
    generator: str  # "gaussian_mixture" | "uniform_box"
    n: int
    d: int
    k_planted: int = 1
    cluster_std: float = 1.0
    separation: float = 10.0
    seed: int = 0


def _place_centers(spec: SyntheticSpec, rng) -> np.ndarray:
    """Random centers with pairwise distance >= separation, inside a box
    sized so that rejection sampling succeeds comfortably."""
    k, d, sep = spec.k_planted, spec.d, spec.separation
    box = sep * 2.0 * (math.ceil(k ** (1.0 / d)) + 1)
    centers = np.empty((k, d))
    placed = 0
    for _ in range(_PLACEMENT_TRIES_PER_CENTER * k):
        cand = rng.uniform(0.0, box, size=d)
        if placed == 0:
            centers[0] = cand
            placed = 1
        else:
            d2 = ((centers[:placed] - cand) ** 2).sum(axis=1)
            if d2.min() >= sep * sep:
                centers[placed] = cand
                placed += 1
        if placed == k:
            return centers
    raise ValueError(
        f"could not place {k} centers at separation {sep} in a box of side {box:g}")


def generate_synthetic(spec: SyntheticSpec):
    """Returns (dataset, planted radius or None).

    gaussian_mixture assigns points to planted centers round-robin (balanced
    cluster sizes) and reports the largest realized distance from a point to
    its own center. uniform_box has no planted structure, hence None.
    """
    if spec.n < 1 or spec.d < 1:
        raise ValueError("n and d must be >= 1")
    rng = rng_stream(spec.seed, STREAM_SYNTH)
    if spec.generator == "uniform_box":
        return Dataset(rng.uniform(0.0, 1.0, size=(spec.n, spec.d))), None
    if spec.generator != "gaussian_mixture":
        raise ValueError(f"unknown generator {spec.generator!r}")
    if spec.k_planted < 1:
        raise ValueError("k_planted must be >= 1")
    if spec.separation <= 0:
        raise ValueError("separation must be positive")
    if spec.cluster_std < 0:
        raise ValueError("cluster_std must be nonnegative")
    centers = _place_centers(spec, rng)
    labels = np.arange(spec.n, dtype=np.int64) % spec.k_planted
    noise = rng.standard_normal((spec.n, spec.d)) * spec.cluster_std
    coords = centers[labels] + noise
    realized = float(np.sqrt(np.einsum("ij,ij->i", noise, noise).max()))
    return Dataset(coords), realized
