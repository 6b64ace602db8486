"""CSV ingestion for the command line front end.

Formats, one row per record, an optional header row allowed everywhere:

* measures: columns ``w,x1..xd`` (``w`` alone for a plain mass vector)
* scalar samples: one value per row
* matrices (costs, relations, discrepancies, plans): rectangular numeric
* point clouds: columns ``x1..xd``
* Gaussians: first row the mean, the next d rows the covariance
* matching tables: columns ``x,y,count`` with label 0 reserved for singles
* surplus bases: columns ``x,y,k,value``, omitted cells are zero

All readers raise :class:`CsvError` with the offending file and line number
so the CLI can map malformed input to exit code 2.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import DomainError
from .matching import MatchingTable
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


def _rows(path: str) -> list[tuple[int, list[str]]]:
    """Non-empty rows as (line number, fields), header row dropped.

    The first row counts as a header only when none of its fields parses
    as a float; a partially numeric first row is data with an error in it,
    reported with its line number like any other row.
    """
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            raw = []
            for row in reader:
                fields = [f.strip() for f in row]
                if not any(fields):
                    continue
                raw.append((reader.line_num, fields))
    except OSError as exc:
        raise CsvError(f"{path}: {exc.strerror or exc}") from None
    if not raw:
        raise CsvError(f"{path}: no data rows")
    first = raw[0][1]

    def numeric(field: str) -> bool:
        try:
            float(field)
        except ValueError:
            return False
        return True

    if not any(numeric(f) for f in first):
        raw = raw[1:]
        if not raw:
            raise CsvError(f"{path}: no data rows after header")
    return raw


def read_matrix_csv(path: str) -> np.ndarray:
    """Rectangular numeric matrix, one matrix row per CSV row."""
    rows = _rows(path)
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
    rows = _rows(path)
    values = []
    for line, fields in rows:
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


def read_matching_csv(path: str) -> MatchingTable:
    """Matched and single counts: x,y,count with 0 marking the single side.

    Labels are 1-based; every flow cell and every single count must be
    present (equilibrium tables have full support).
    """
    rows = _rows(path)
    entries: dict[tuple[int, int], float] = {}
    for line, fields in rows:
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
    nx = max(x for x, _ in entries)
    ny = max(y for _, y in entries)
    if nx == 0 or ny == 0:
        raise CsvError(f"{path}: no matched pairs present")
    flows = np.zeros((nx, ny))
    singles_x = np.zeros(nx)
    singles_y = np.zeros(ny)
    for (x, y), count in entries.items():
        if x == 0:
            singles_y[y - 1] = count
        elif y == 0:
            singles_x[x - 1] = count
        else:
            flows[x - 1, y - 1] = count
    for arr, what in ((flows, "pair"), (singles_x, "x-single"), (singles_y, "y-single")):
        if np.any(arr <= 0):
            idx = np.argwhere(arr <= 0)[0]
            raise CsvError(
                f"{path}: missing or nonpositive {what} count at index"
                f" {tuple(int(i) + 1 for i in idx)}"
            )
    try:
        return MatchingTable(flows, singles_x, singles_y)
    except DomainError as exc:
        raise CsvError(f"{path}: {exc}") from None


def read_basis_csv(path: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Surplus basis entries x,y,k,value (1-based); omitted cells are zero.

    With shape given, indices beyond it are rejected; otherwise the array
    size is the largest index seen per axis.
    """
    rows = _rows(path)
    entries: dict[tuple[int, int, int], float] = {}
    for line, fields in rows:
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
    nx = max(x for x, _, _ in entries)
    ny = max(y for _, y, _ in entries)
    nk = max(k for _, _, k in entries)
    if shape is not None:
        nx, ny = shape
    basis = np.zeros((nx, ny, nk))
    for (x, y, k), value in entries.items():
        basis[x - 1, y - 1, k - 1] = value
    return basis
