"""The package's table file format, written and read on whole columns.

A table file is a '#'-prefixed JSON metadata line, a line of comma-separated
column names, then one row of comma-separated floats per line:

    # {"detector_index": 0, "schema": 1, ...}
    tof_us,counts
    3012.3456789012345,17.0
    ...

Spectra (tof_us,counts), reduced K-E tables (tof_us,K,E,intensity) and the
centroid table (detector,K,E,sigma_E) use it.  A table may have any number of
rows; the spectrum reader (analysis.ingest_spectrum) needs at least two, for
its bin edges, and says so itself.
Values are written with repr, the shortest text that reads back as the same
double, so a round trip through a file is exact.

Writing is bound by repr of 17-digit floats, so each text is made as few
times as the values allow.  The body is one "".join of a list of cells in
which column j fills cells[j::n_cols]; a cell is a value's repr with its
separator attached, "," or "\n" after the last column.  The first column of
a table of two or more is its axis; a spectrum's or K-E table's is the TOF
axis, which every detector on one binning shares.  Its cells are memoised on
the exact bytes of the column (_axis_cells, for at most AXIS_MEMO_SIZE
axes), and the reader checks body lines against the same cells.  Every
other column is formatted once per distinct bit pattern (np.unique of its
int64 view) and taken back into row order.  Both rely on repr being a
function of the double's bits alone, so the file is byte-identical to one
written row by row, -0.0, NaN, infinities and subnormals included.

The gain rests on repeated values in a column.  Poisson counts repeat: a
bank_io spectrum (8192 bins, 200000 counts) holds 100-430 distinct counts,
and its write takes 0.9 ms where formatting every cell took 1.9 ms.  A K-E
table's K, E and intensity columns are all distinct, so its write pays
np.unique and the take on top of every repr, about +1 ms (+5-10%) at 8192
bins; a noiseless spectrum's counts pay about +4%.  (Medians of 7 runs of 15
writes, Python 3.11, numpy 2.4, one core of a shared 2-core VM.)

Reading parses the body with numpy's C parser; comments=None, so a data row
starting with '#' is an error, not skipped.  Only when that parser rejects the
body are the rows parsed one at a time, with float(), to find the first bad
row.  That pass also accepts what float() accepts and the C parser does not
(a whitespace-only line, which counts as blank, or '1_0'), so the two passes
agree on which files are valid.

A reader that knows the axis the writer used (spectra.table_axis, from the
file's metadata) skips parsing it, the bulk of the parse.  One np.loadtxt
call on the file's path reads the body: the first field of each row as
bytes of a fixed width (AXIS_FIELD, wider than repr's longest text, 24
characters), the others as floats.  The bytes column is then compared in one
block with the axis texts laid out the same way (_axis_image, memoised beside
_axis_cells).  The path is opened again, after the text read that gives the
metadata and header lines, because numpy's C reader reads a path in chunks
but an open file, a StringIO or a list of lines one line at a time: for a
bank_io spectrum (8192 rows) the call takes 0.9 ms from the path and 1.3 ms
from any of those.  Nor is the text split into lines on this path: when it
is ASCII and holds no line break of str.splitlines other than "\n" (open's
universal newlines turn "\r" and "\r\n" into "\n"), splitting at "\n" is
splitlines' split, and the rows are counted as newlines.  ingest_spectrum
reads a bank_io spectrum in 1.4 ms this way, against 2.4 ms when the body
was split into lines, each line's prefix checked and the lines parsed.  K-E
tables, whose three value columns dominate the parse, read about as before.
(Medians of alternating runs, Python 3.11, numpy 2.4, one core of a shared
2-core VM.)

This is exact: repr text reads back as the same double, so the array is the
one a full parse gives, and so are the errors, since the rows hold the same
text.  The dtype asks for n_cols fields, so loadtxt rejects a line with more
or fewer, and the only lines it skips, empty ones, leave fewer rows than the
axis has.  A bytes field drops trailing NULs, so a text with a NUL is
refused.  On any mismatch the file takes the two passes above.
"""

from __future__ import annotations

import functools
import json
import os

import numpy as np

from .errors import MissingMetadata, ParseError

AXIS_MEMO_SIZE = 8
# The reader's bytes field for an axis text: wider than repr's longest
# (24 characters), so a longer text, cut to the width, cannot match one.
AXIS_FIELD = "S25"
# The ASCII line breaks of str.splitlines other than "\n" and "\r".
_OTHER_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e"
# The suffixes by which np.loadtxt decompresses a named file.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def write_table(path, meta: dict, names, columns):
    """Write meta, the column names and the rows of equal-length columns.

    columns[0] is the axis column whose cells are memoised.
    """
    columns = [np.ascontiguousarray(c, dtype=float) for c in columns]
    n_cols = len(columns)
    cells = [None] * (n_cols * len(columns[0]))
    for j, col in enumerate(columns):
        if j == 0 and n_cols > 1:
            cells[0::n_cols] = _axis_cells(col.tobytes())
        else:
            cells[j::n_cols] = _distinct_cells(col, "\n" if j == n_cols - 1 else ",")
    with open(path, "w", newline="") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write(",".join(names) + "\n")
        fh.write("".join(cells))


@functools.lru_cache(maxsize=AXIS_MEMO_SIZE)
def _axis_cells(raw: bytes) -> tuple:
    """repr(t) + "," for each double t of raw: the writer's first-column
    cells and the line prefixes the reader's axis fast path checks."""
    return tuple(t + "," for t in map(repr, np.frombuffer(raw).tolist()))


@functools.lru_cache(maxsize=AXIS_MEMO_SIZE)
def _axis_image(raw: bytes) -> bytes:
    """The texts of _axis_cells(raw) as the reader's AXIS_FIELD column holds
    them, NUL-padded: the bytes its axis fast path compares."""
    return np.array([c[:-1] for c in _axis_cells(raw)], dtype=AXIS_FIELD).tobytes()


def _distinct_cells(col, sep) -> list:
    """repr(v) + sep for each v of col, each distinct bit pattern formatted
    once: repr is a function of the bits, so the text is the same."""
    keys, inverse = np.unique(col.view(np.int64), return_inverse=True)
    texts = np.array([repr(v) + sep for v in keys.view(float).tolist()], dtype=object)
    return texts[inverse].tolist()


def read_table(path, names, check=None, axis=None):
    """Read a table file whose column header is names.

    Returns (meta, data, n_lines): the metadata dict, the rows as a
    (rows, len(names)) float array, and the file's line count, the line
    whole-file errors refer to.  A file without the '#' metadata line raises
    MissingMetadata.
    Blank lines are skipped.  check(data, row_text) may reject a row by
    returning (row index, message); row_text(i) is the text of row i.  Every
    rejection is a ParseError at the 1-based line of the first bad row.
    axis(meta, n_rows) may give the first column as its writer had it, or
    None; the file's text decides whether it is used.  Where it is, the
    body is parsed by one np.loadtxt call on path: numpy reads a file name
    in chunks and an open file line by line (see the module docstring).  A
    path that is not a str or os.PathLike, or whose suffix numpy would
    decompress by, takes the general path.
    """
    with open(path) as fh:   # universal newlines: the text holds no "\r"
        text = fh.read()
    if not text:
        raise ParseError(1, "empty file")
    # Without the other line breaks str.splitlines knows, splitting on "\n"
    # is its split, and the body can stay one string.
    plain = text.isascii() and not any(c in text for c in _OTHER_LINE_BREAKS)
    lines = text.split("\n", 2) if plain else text.splitlines()
    if not lines[0].lstrip().startswith("#"):
        raise MissingMetadata(f"{path}: no '#' JSON metadata header")
    try:
        meta = json.loads(lines[0].lstrip()[1:])
    except json.JSONDecodeError as exc:
        raise ParseError(1, f"bad metadata JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ParseError(1, "metadata JSON is not an object")
    header = ",".join(names)
    if len(lines) < 2 or lines[1].strip() != header:
        raise ParseError(2, f"expected header '{header}'")
    if plain:
        rest = lines.pop() if len(lines) > 2 else ""
        # str.count takes 0.11 ms on a bank_io spectrum's body, numpy 0.02 ms
        newlines = np.count_nonzero(np.frombuffer(rest.encode(), np.uint8) == 10)
        n_rows = int(newlines) + (rest[-1:] not in ("", "\n"))
        values = None if axis is None else axis(meta, n_rows)
        data = None if values is None else _parse_known_axis(path, rest, values, len(names))
        if data is not None:   # one row a line: row i is body line i
            _check_rows(data, check, rest.splitlines)
            return meta, data, 2 + n_rows
        lines += rest.splitlines()
    body = lines[2:]
    data = _parse_columns(body, len(names))
    fault = None
    if data is None:
        data, fault = _parse_rows(_data_rows(body), len(names))
    _check_rows(data, check, lambda: body)
    if fault is not None:
        raise ParseError(*fault)
    return meta, data, len(lines)


def _check_rows(data, check, body):
    """Raise ParseError at the line of the row check(data, row_text)
    rejects, if any; body() gives the body's lines."""
    if check is None:
        return
    found = check(data, lambda i: _data_rows(body())[i][1])
    if found is not None:
        raise ParseError(_data_rows(body())[found[0]][0], found[1])


def _parse_known_axis(path, rest, values, n_cols):
    """All rows, the first column being values, or None unless line i of
    the body rest is the text write_table gives values[i], a comma and
    n_cols - 1 numbers, for every i.  The file is read again from path; see
    the module docstring."""
    if not isinstance(path, (str, os.PathLike)) or str(path).endswith(_COMPRESSED_SUFFIXES):
        return None
    raw = np.ascontiguousarray(values, dtype=float).tobytes()
    cells = _axis_cells(raw)
    # The first cell also keeps a body without rows, and loadtxt's warning
    # for it, out.
    if not cells or not rest.startswith(cells[0]) or "\0" in rest:
        return None
    fields = [("axis", AXIS_FIELD)] + [(f"c{j}", float) for j in range(1, n_cols)]
    try:
        rows = np.loadtxt(path, dtype=fields, skiprows=2, delimiter=",",
                          comments=None, ndmin=1)
    except ValueError:
        return None
    if rows["axis"].tobytes() != _axis_image(raw):
        return None
    data = np.empty((len(rows), n_cols))
    data[:, 0] = values
    for j in range(1, n_cols):
        data[:, j] = rows[f"c{j}"]
    return data


def _parse_columns(body, n_cols):
    """All rows by numpy's C parser, or None where it rejects them.  Bodies
    with under two non-empty lines go to _parse_rows, which reports them
    without the C parser's empty-input warning."""
    if len(body) - body.count("") < 2:
        return None
    try:
        data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return data if data.shape[1] == n_cols else None


def _data_rows(body):
    """(line number, text) of each non-blank body line; body starts at line 3."""
    return [(i, line) for i, line in enumerate(body, start=3) if line.strip()]


def _parse_rows(rows, n_cols):
    """Rows parsed one at a time up to the first malformed one.

    Returns (data, fault): the rows before the fault, and (line, message) for
    the malformed row or None.
    """
    values = []
    fault = None
    for i, line in rows:
        parts = line.split(",")
        if len(parts) != n_cols:
            fault = (i, f"expected {n_cols} fields, got {len(parts)}")
            break
        try:
            values.append([float(p) for p in parts])
        except ValueError:
            fault = (i, f"non-numeric row {line!r}")
            break
    return np.array(values, dtype=float).reshape(-1, n_cols), fault
