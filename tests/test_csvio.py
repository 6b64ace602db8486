"""CSV readers: the one-pass parse against the row-by-row readers it replaced."""

import re
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    CsvLoopError,
    read_basis_loop,
    read_matching_loop,
    read_matrix_loop,
    read_values_loop,
)

from otecon import csvio
from otecon.cli import main
from otecon.csvio import (
    CsvError,
    read_basis_csv,
    read_gaussian_csv,
    read_matching_csv,
    read_matrix_csv,
    read_measure_csv,
    read_values_csv,
)

DATA = Path(__file__).parent / "data"
FIXTURES = sorted(DATA.glob("*.csv"))


def _table_arrays(path):
    table = read_matching_csv(path)
    return table.flows, table.singles_x, table.singles_y


# (package reader, row-by-row reader), both returning arrays
READERS = {
    "matrix": (read_matrix_csv, read_matrix_loop),
    "values": (read_values_csv, read_values_loop),
    "matching": (_table_arrays, read_matching_loop),
    "basis": (read_basis_csv, read_basis_loop),
    "basis 2x3": (
        lambda p: read_basis_csv(p, shape=(2, 3)),
        lambda p: read_basis_loop(p, shape=(2, 3)),
    ),
}


def outcome(reader, path):
    """("ok", arrays) or (error kind, message); both CSV error types are "csv"."""
    try:
        out = reader(str(path))
    except (CsvError, CsvLoopError) as exc:
        return "csv", str(exc)
    except Exception as exc:  # the parity covers uncaught errors too
        return type(exc).__name__, str(exc)
    return "ok", out if isinstance(out, tuple) else (out,)


def assert_same(path, name):
    new, old = (outcome(reader, path) for reader in READERS[name])
    assert new[0] == old[0], (new, old)
    if new[0] != "ok":
        assert new[1] == old[1]
        return
    assert len(new[1]) == len(old[1])
    for a, b in zip(new[1], old[1]):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(READERS))
@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.name)
def test_fixtures_read_as_before(path, name):
    assert_same(path, name)


# inputs the one-pass parse must hand back to the row-by-row reader
MALFORMED = {
    "ragged_long": "1,2\n3,4,5\n",
    "ragged_short": "1,2\n3\n",
    "quoted": '"1",2\n3,4\n',
    "quoted_newline": '1,"2\n3"\n4,5\n',
    "quoted_header": '"x","y"\n1,2\n',
    "nan": "1\nnan\n",
    "inf": "inf,1\n2,3\n",
    "overflow": "1\n1e999\n",
    "infinity_word": "1_0\n 2 \n-Infinity\n",
    "crlf": "1,2\r\n3,4\r\n",
    "cr": "1\r2\r",
    "crlf_header": "x\r\n\r\n1\r\n",
    "cr_in_header": "x\ry\n1\n",
    "cr_before_crlf": "x\r\r\n1\r\n",
    "crlf_ragged": "1,2\r\n3\r\n",
    "crlf_table": "x,y,count\r\n1,1,2\r\n1,0,1\r\n0,1,1\r\n",
    "nul": "1\x002\n",
    "blank_lines": "\n\nx\n\n1\n\n2\n",
    "comma_row": ",,\n1,2,3\n",
    "blank_fields_then_header": " , \nx,y\n1,2\n",
    "empty_field": "1,,2\n",
    "header_only": "x,y\n",
    "empty": "",
    "newlines_only": "\n\n",
    "two_headers": "a\nb\n",
    "mixed_first": "x,1\n2,3\n",
    "hex": "0x10\n",
    "unicode": "\u2003 3\n\u0661\n",
    "trailing_whitespace_line": "1\n2\n  \n",
    "label_float": "x,y,count\n1.0,1,2\n1,0,1\n0,1,1\n",
    "label_negative": "1,1,2\n-1,0,1\n0,1,1\n",
    "labels_both_zero": "1,1,2\n0,0,1\n1,0,1\n0,1,1\n",
    "label_duplicate": "1,1,2\n1,1,3\n1,0,1\n0,1,1\n",
    "label_huge": "99999999999999999999,1,2\n1,0,1\n0,1,1\n",
    "label_underscore": "1,1,2\n1_0,0,1\n0,1,1\n",
    "labels_past_the_cell_limit": "1,1,2\n30000,0,1\n0,30000,1\n",
    "single_missing": "1,1,2\n2,1,2\n1,0,1\n0,1,1\n",
    "no_pairs": "1,0,1\n0,1,1\n",
    "y_singles_only": "0,1,1\n0,2,1\n",
    "count_nan": "1,1,nan\n1,0,1\n0,1,1\n",
    "basis_zero_index": "0,1,1,1\n",
    "basis_outside": "1,1,1,1\n3,1,1,2\n",
    "basis_duplicate": "1,1,1,1\n1,1,1,2\n",
    "basis_k_float": "1,1,1.5,1\n",
    "basis_k_past_the_cell_limit": "1,1,1000000000,1\n",
    "basis_padded": " 1 , 2 ,1, 0.5\n2,3,2,-1\n",
    "basis_quoted": '"1",2,1,0.5\n2,3,2,-1\n',
}


@pytest.mark.parametrize("name", sorted(READERS))
@pytest.mark.parametrize("key", sorted(MALFORMED))
def test_malformed_inputs_read_as_before(key, name, tmp_path):
    path = tmp_path / f"{key}.csv"
    path.write_bytes(MALFORMED[key].encode())
    assert_same(path, name)


@pytest.mark.parametrize("name", sorted(READERS))
def test_plain_files_take_one_pass(name, monkeypatch):
    # every fixture is plain, so whatever the row-by-row path accepts the one-pass parse reads
    accepted = [p for p in FIXTURES if outcome(READERS[name][1], p)[0] == "ok"]
    assert accepted
    monkeypatch.setattr(csvio, "_rows", None)
    for path in accepted:
        assert outcome(READERS[name][0], path)[0] == "ok", path.name


def test_missing_file_message():
    assert_same(DATA / "no_such_file.csv", "matrix")


@pytest.mark.parametrize("fmt", ["%.17g", "%r", "%.3e"])
def test_random_matrices_read_as_before(fmt, tmp_path, rng):
    for trial in range(5):
        m, n = rng.integers(1, 40, size=2)
        values = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-300, 300)
        path = tmp_path / f"m{trial}.csv"
        header = ",".join(f"c{j}" for j in range(n)) + "\n" if trial % 2 else ""
        path.write_text(header + "\n".join(
            ",".join(fmt % v for v in row) for row in values.tolist()
        ) + "\n")
        assert_same(path, "matrix")
        assert np.array_equal(read_matrix_csv(str(path)), read_matrix_loop(str(path)))


def test_byte_order_mark_is_not_a_header(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_text("0.5\n1.5\n")
    marked = tmp_path / "bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf0.5\n1.5\n")
    assert np.array_equal(read_values_csv(str(marked)), [0.5, 1.5])
    out = tmp_path / "w1d.json"
    assert main(["w1d", "--x", str(marked), "--y", str(plain), "--out", str(out)]) == 0
    assert '"value": 0\n' in out.read_text()


def test_non_utf8_file_named(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("año\n1\n2\n".encode("latin-1"))
    with pytest.raises(CsvError, match="latin1.csv: not UTF-8"):
        read_values_csv(str(path))


@pytest.mark.parametrize(
    "reader, text, message",
    [
        (read_gaussian_csv, "0,0\n1,0\n", "expected 1 mean row + 2 covariance rows for 2 columns, got 2 rows"),
        (read_gaussian_csv, "0,0\n1,0.5\n0,1\n", "cov must be symmetric"),
        (read_measure_csv, "0.5\n-0.5\n", "weights must be nonnegative"),
    ],
    ids=["gaussian rows", "gaussian symmetry", "measure weights"],
)
def test_checks_name_the_file(reader, text, message, tmp_path):
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(CsvError, match=re.escape(f"{path}: {message}")):
        reader(str(path))


def test_distinct_labels_as_unique_finds_them(rng):
    # np.unique over columns, the check _distinct replaced, is the reference;
    # labels at the ends of int64 would overflow a key built from both rows
    top, bottom = np.iinfo(np.int64).max, np.iinfo(np.int64).min
    cases = [
        np.array([[top, bottom, top], [0, 0, 0]]),
        np.array([[top, top], [bottom, top]]),
        np.array([[1], [2], [3]]),
    ]
    for _ in range(50):
        k, n = rng.integers(1, 4), rng.integers(1, 30)
        cases.append(rng.integers(0, 4, size=(k, n)))
    for labels in cases:
        expected = np.unique(labels, axis=1).shape[1] == labels.shape[1]
        assert csvio._distinct(labels) == expected, labels
