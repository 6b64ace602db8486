"""CSV ingestion for the command line front end.

Formats, one row per record, an optional header row allowed everywhere:

* measures: columns ``w,x1..xd`` (``w`` alone for a plain mass vector)
* scalar samples: one value per row
* matrices (costs, relations, discrepancies, plans): rectangular numeric
* point clouds: columns ``x1..xd``
* Gaussians: first row the mean, the next d rows the covariance
* matching tables: columns ``x,y,count`` with label 0 reserved for singles
* surplus bases: columns ``x,y,k,value``, omitted cells are zero

Files are read once, as UTF-8 text (a leading byte-order mark is dropped).
A plain file, one without quotes, NUL characters or carriage returns other
than in CRLF line ends, is split on newlines and commas and all its numbers
are parsed in one numpy call.  Text the one-pass parse does not accept is
parsed again row by row by the csv module, which decides what is valid and
names the offending line.  All readers raise :class:`CsvError` with the
offending file and line number so the CLI can map malformed input to exit
code 2.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import repeat

import numpy as np

from ._util import GRID_LIMIT, check_size
from .errors import DomainError
from .measures import DiscreteMeasure, GaussianMeasure, Sample1D


class CsvError(DomainError):
    """Malformed CSV input; message carries file and line number."""


def _float(field: str, path: str, line: int) -> float:
    try:
        value = float(field)
    except ValueError:
        raise CsvError(f"{path}, line {line}: not a number: {field!r}") from None
    if not math.isfinite(value):
        raise CsvError(f"{path}, line {line}: non-finite value: {field!r}")
    return value


def _int(field: str, path: str, line: int) -> int:
    try:
        return int(field)
    except ValueError:
        raise CsvError(f"{path}, line {line}: not an integer: {field!r}") from None


def _numeric(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def _read(path: str) -> str:
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError as exc:
        raise CsvError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise CsvError(f"{path}: not UTF-8 text") from None


def _rows(path: str, text: str) -> list[tuple[int, list[str]]]:
    """Non-empty rows as (line number, fields), header row dropped.

    The first row counts as a header only when none of its fields parses
    as a float; a partially numeric first row is data with an error in it,
    reported with its line number like any other row.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    raw = []
    for row in reader:
        fields = [f.strip() for f in row]
        if not any(fields):
            continue
        raw.append((reader.line_num, fields))
    if not raw:
        raise CsvError(f"{path}: no data rows")
    if not any(_numeric(f) for f in raw[0][1]):
        raw = raw[1:]
        if not raw:
            raise CsvError(f"{path}: no data rows after header")
    return raw


def _fields(text: str) -> tuple[list[str], int] | None:
    """Every field of a plain rectangular file in row order, and its width.

    After CRLF line ends become LF, a file without quotes and carriage
    returns is split by the csv module exactly on newlines and commas
    (before Python 3.11 it also rejects NUL).  Blank lines and a first row
    with no numeric field are dropped as in :func:`_rows`; fields are left
    unstripped, since float() and int() ignore the whitespace str.strip()
    removes.  None when the file is not plain, has no data row or has
    ragged rows.
    """
    text = text.replace("\r\n", "\n")
    if '"' in text or "\r" in text or "\0" in text:
        return None
    rows = list(filter(str.strip, text.split("\n")))
    if rows and not any(map(_numeric, rows[0].split(","))):
        del rows[0]
    if not rows:
        return None
    if "," not in text:  # one column: the rows already are the tokens
        return rows, 1
    width = rows[0].count(",") + 1
    tokens = ",".join(rows).split(",")
    # with one field in the first row, the token count alone rules out ragged rows
    if len(tokens) != width * len(rows) or (
        width > 1 and len(set(map(str.count, rows, repeat(",")))) > 1
    ):
        return None
    return tokens, width


def _floats(tokens: list[str]) -> np.ndarray | None:
    """The tokens as floats when every one is a finite number, else None.

    numpy converts each string as float() does (checked on numpy 2.4,
    including underscores, padding and non-ASCII digits).
    """
    try:
        values = np.array(tokens, dtype=float)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _table(text: str) -> np.ndarray | None:
    """The numbers of a plain rectangular file as a matrix, or None."""
    fields = _fields(text)
    if fields is None:
        return None
    values = _floats(fields[0])
    return None if values is None else values.reshape(-1, fields[1])


def _records(text: str, width: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Integer labels (one row per label column) and the values of a plain
    ``label,...,value`` file of the given width, or None."""
    fields = _fields(text)
    if fields is None or fields[1] != width:
        return None
    tokens = fields[0]
    values = _floats(tokens[width - 1 :: width])
    if values is None:
        return None
    try:
        labels = np.array([tokens[j::width] for j in range(width - 1)], dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    return labels, values


def _distinct(labels: np.ndarray) -> bool:
    """Whether the label columns are pairwise distinct; sorted by lexsort, a
    repeated column sits next to its twin."""
    ordered = labels[:, np.lexsort(labels)]
    return not (ordered[:, 1:] == ordered[:, :-1]).all(axis=0).any()


def read_matrix_csv(path: str) -> np.ndarray:
    """Rectangular numeric matrix, one matrix row per CSV row."""
    text = _read(path)
    table = _table(text)
    if table is not None:
        return table
    rows = _rows(path, text)
    width = len(rows[0][1])
    out = []
    for line, fields in rows:
        if len(fields) != width:
            raise CsvError(
                f"{path}, line {line}: expected {width} columns, got {len(fields)}"
            )
        out.append([_float(f, path, line) for f in fields])
    return np.array(out)


def read_sample_csv(path: str) -> Sample1D:
    """Scalar sample, one value per row; values are sorted on load."""
    return Sample1D.from_data(read_values_csv(path))


def read_values_csv(path: str) -> np.ndarray:
    """Scalar column in file order (no sorting)."""
    text = _read(path)
    table = _table(text)
    if table is not None and table.shape[1] == 1:
        return table[:, 0]
    values = []
    for line, fields in _rows(path, text):
        if len(fields) != 1:
            raise CsvError(
                f"{path}, line {line}: expected a single value, got {len(fields)} fields"
            )
        values.append(_float(fields[0], path, line))
    return np.array(values)


def read_measure_csv(path: str) -> DiscreteMeasure:
    """Weighted atoms: column w, then optional coordinates x1..xd."""
    m = read_matrix_csv(path)
    weights = m[:, 0]
    points = m[:, 1:] if m.shape[1] > 1 else None
    try:
        return DiscreteMeasure(weights, points)
    except DomainError as exc:
        raise CsvError(f"{path}: {exc}") from None


def read_gaussian_csv(path: str) -> GaussianMeasure:
    """Mean row followed by d covariance rows."""
    m = read_matrix_csv(path)
    d = m.shape[1]
    if m.shape[0] != d + 1:
        raise CsvError(
            f"{path}: expected 1 mean row + {d} covariance rows for"
            f" {d} columns, got {m.shape[0]} rows"
        )
    try:
        return GaussianMeasure(m[0], m[1:])
    except DomainError as exc:
        raise CsvError(f"{path}: {exc}") from None


def _matching_rows(path: str, text: str) -> tuple[np.ndarray, np.ndarray]:
    """Labels and counts of a matching table, read row by row."""
    entries: dict[tuple[int, int], float] = {}
    for line, fields in _rows(path, text):
        if len(fields) != 3:
            raise CsvError(
                f"{path}, line {line}: expected x,y,count, got {len(fields)} fields"
            )
        x = _int(fields[0], path, line)
        y = _int(fields[1], path, line)
        count = _float(fields[2], path, line)
        if x < 0 or y < 0:
            raise CsvError(f"{path}, line {line}: labels must be nonnegative")
        if x == 0 and y == 0:
            raise CsvError(f"{path}, line {line}: x and y cannot both be 0")
        if (x, y) in entries:
            raise CsvError(f"{path}, line {line}: duplicate entry for x={x}, y={y}")
        entries[(x, y)] = count
    return np.array(list(entries)).T, np.array(list(entries.values()))


def read_matching_csv(path: str) -> MatchingTable:
    """Matched and single counts: x,y,count with 0 marking the single side.

    Labels are 1-based; every flow cell and every single count must be
    present (equilibrium tables have full support).
    """
    from .matching import MatchingTable  # the other readers need no solver module

    text = _read(path)
    records = _records(text, 3)
    # whatever the row-by-row reader rejects goes to it for its message
    if records is None or not (
        (records[0] >= 0).all()
        and records[0].any(axis=0).all()  # no row with x = y = 0
        and _distinct(records[0])
    ):
        records = _matching_rows(path, text)
    (x, y), counts = records
    nx, ny = int(x.max()), int(y.max())
    if nx == 0 or ny == 0:
        raise CsvError(f"{path}: no matched pairs present")
    check_size(nx * ny, GRID_LIMIT, f"{path}: labels' {nx} x {ny} array")
    flows = np.zeros((nx, ny))
    singles_x = np.zeros(nx)
    singles_y = np.zeros(ny)
    pair = (x > 0) & (y > 0)
    flows[x[pair] - 1, y[pair] - 1] = counts[pair]
    singles_x[x[y == 0] - 1] = counts[y == 0]
    singles_y[y[x == 0] - 1] = counts[x == 0]
    for arr, what in ((flows, "pair"), (singles_x, "x-single"), (singles_y, "y-single")):
        bad = arr <= 0
        if bad.any():
            idx = np.unravel_index(bad.argmax(), bad.shape)
            raise CsvError(
                f"{path}: missing or nonpositive {what} count at index"
                f" {tuple(int(i) + 1 for i in idx)}"
            )
    # parsed counts are finite and the labels fix the shapes, so the loop
    # above has made every check MatchingTable makes
    return MatchingTable(flows, singles_x, singles_y)


def _basis_rows(
    path: str, text: str, shape: tuple[int, int] | None
) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of a surplus basis, read row by row."""
    entries: dict[tuple[int, int, int], float] = {}
    for line, fields in _rows(path, text):
        if len(fields) != 4:
            raise CsvError(
                f"{path}, line {line}: expected x,y,k,value, got {len(fields)} fields"
            )
        x = _int(fields[0], path, line)
        y = _int(fields[1], path, line)
        k = _int(fields[2], path, line)
        value = _float(fields[3], path, line)
        if x < 1 or y < 1 or k < 1:
            raise CsvError(f"{path}, line {line}: indices are 1-based")
        if shape is not None and (x > shape[0] or y > shape[1]):
            raise CsvError(
                f"{path}, line {line}: cell ({x}, {y}) outside table"
                f" {shape[0]} x {shape[1]}"
            )
        if (x, y, k) in entries:
            raise CsvError(
                f"{path}, line {line}: duplicate entry for x={x}, y={y}, k={k}"
            )
        entries[(x, y, k)] = value
    return np.array(list(entries)).T, np.array(list(entries.values()))


def read_basis_csv(path: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Surplus basis entries x,y,k,value (1-based); omitted cells are zero.

    With shape given, indices beyond it are rejected; otherwise the array
    size is the largest index seen per axis.
    """
    text = _read(path)
    records = _records(text, 4)
    if records is None or not (
        (records[0] >= 1).all()
        and (shape is None or (records[0][:2].max(axis=1) <= shape).all())
        and _distinct(records[0])
    ):
        records = _basis_rows(path, text, shape)
    (x, y, k), values = records
    nx, ny = shape if shape is not None else (int(x.max()), int(y.max()))
    nk = int(k.max())
    check_size(nx * ny * nk, GRID_LIMIT, f"{path}: labels' {nx} x {ny} x {nk} array")
    basis = np.zeros((nx, ny, nk))
    basis[x - 1, y - 1, k - 1] = values
    return basis
