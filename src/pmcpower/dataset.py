"""Core data types and on-disk formats for counter/power traces and datasets.

All files are UTF-8 with LF line endings; lines whose first character is
``#`` are comments and are ignored.  Three CSV contracts, each declared once
as a column table that the constructors, readers and writers read:

- PMC trace:    header ``TIME,<counter>,...``, one row per sample, all values
                unsigned decimal integers.  TIME is a 64-bit cycle count and
                strictly increasing; counter readings are cumulative 32-bit
                values (wrap at 2^32 allowed).
- power trace:  header ``TIME,POWER_W`` or ``TIME,POWER_W,FREQ_MHZ``.
                TIME as above, POWER_W/FREQ_MHZ decimal floats.
- dataset:      header ``RUN,TIME,POWER_W[,FREQ_MHZ],<counter>,...``.
                Counter columns hold per-interval deltas (unsigned, < 2^32).

``TIME`` and ``FREQ_MHZ`` name the sync key and the frequency channel, never
a counter column.  Malformed files are rejected with a line number, never
repaired.  All types are immutable after construction.

A table's rows are (header name, attribute, ``_Field``) in file order, the
counter columns last.  Files and types share each column's ``_Field``: a
constructor checks its arrays against the rules the readers apply to
cells, and raises ValueError naming the column.  Conversions never cast a
value that breaks them: a float is not an integer column, and -1 or 2^32
is not a 32-bit count.

Only LF ends a line: a CR is an error, and characters such as form feed or
U+2028 are ordinary cell text.  Integer cells are ASCII digits only (no
sign, padding, fraction or exponent); float cells are what ``float()``
reads without padding, ``_``, a leading ``+`` or non-ASCII characters, and
must be finite and > 0.

Reading takes one of two paths.  The bulk path streams the file twice and
holds one block of it at a time: the first pass reads the header under the
per-cell rules, checks the body cheaply (printable ASCII without space or
``+``) and counts its rows; the second parses the body with numpy a block
at a time, straight into each field's storage dtype.  Counts and deltas
are stored as uint32, TIME keys as uint64.  A file that cannot seek, such
as a pipe, is read into memory once.  Any file the bulk path does not take
(a blank or comment line in the body, say), or whose values fail a check,
is read again cell by cell from its start; that path is the reference and
the only one that reports where a body error is.  So a comment line after
the header, which the format allows, costs a file the bulk path: 18,000
rows x 16 counters read about 5x slower.  A text column (RUN) is kept as
runs of one shared ``str`` while it is read, and its tuple is built once.

Writers format a block of rows, at most 4,096 cells at any width, with one
printf-style ``%`` call: ``%s`` for run ids and integers, ``%r`` for
floats, which read back exactly, and ``%.6g`` (``regress.WATTS_SPEC``) for
display watts.  So a read holds its result and a few parse blocks beyond
it, and a write its data and one block of cells.

JSON artifacts (model, search report, gen spec) are written and read by
``write_json`` / ``read_json`` alone: indent 2, a final LF, and never a
NaN or Infinity, which the writer refuses and the reader rejects.  Each
artifact class declares each key once, as a ``json_field`` with its rule:
the constructor checks every field, ``to_json`` writes a key per field and
``from_json`` reads one, refusing an unknown key, an absent key whose field
has no default, and a null that no rule reads.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import FormatError

TIME_KEY = "TIME"
POWER_COL = "POWER_W"
FREQ_COL = "FREQ_MHZ"

COUNTER_MODULUS = 1 << 32  # cumulative PMC readings are 32-bit
TIME_MODULUS = 1 << 64  # TIME keys are 64-bit and assumed non-wrapping


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _json_integer(value) -> bool:
    # read_json refuses a number past the float range, so no field holds one
    return is_integer(value) and -sys.float_info.max <= value <= sys.float_info.max


# a value must already have its field's type; nothing is cast
_TYPE_RULES = {
    int: _json_integer,
    float: lambda v: _json_integer(v) or isinstance(v, (float, np.floating)),
    bool: lambda v: isinstance(v, bool),
    str: lambda v: isinstance(v, str),
    list: lambda v: isinstance(v, list),
    dict: lambda v: isinstance(v, dict),
}


def check_type(name: str, value, kind: type):
    """``value`` when it has type ``kind``, as the plain Python value (a
    numpy scalar becomes its Python equal), else a ValueError naming the
    field.  An int field takes an integer within the float range, which
    JSON holds, a float field such an integer or a float; a bool is
    neither.  list and dict are JSON arrays and objects."""
    if not _TYPE_RULES[kind](value):
        raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")
    return value.item() if isinstance(value, np.generic) else value


def check_counter_names(counters: Sequence[str]) -> tuple[str, ...]:
    """Validate a predictor name list: a sequence of names, not one
    string; each a non-empty string, unique, neither TIME nor FREQ_MHZ."""
    if isinstance(counters, str) or not hasattr(counters, "__iter__"):
        raise ValueError(f"counter names must be a sequence, not {counters!r}")
    names = tuple(counters)
    seen = set()
    for name in names:
        if not check_type("counter name", name, str):
            raise ValueError("empty counter name")
        if name == TIME_KEY:
            raise ValueError(f"{TIME_KEY!r} is reserved for the sync key")
        if name == FREQ_COL:
            raise ValueError(f"{FREQ_COL!r} is reserved for the frequency channel")
        if name in seen:
            raise ValueError(f"duplicate counter name {name!r}")
        seen.add(name)
    return names


# each kind's storage dtype, unless a field names its own
_DTYPES = {"text": object, "uint": np.uint64, "float": np.float64}


@dataclass(frozen=True)
class _Field:
    """The rules for one column, or for ``shape[0]`` adjacent CSV columns.

    kind "text" keeps the cell as it is, "uint" takes an integer in
    ``[0, bound)`` and "float" a finite number > 0.  ``what`` names the
    column in error messages; an ``increasing`` column must strictly
    increase down the file.  A field reads as an array of shape
    ``(rows,) + shape`` and storage ``dtype``, or a tuple for text.
    """

    what: str
    kind: str
    bound: int = 0
    shape: tuple[int, ...] = ()
    increasing: bool = False
    dtype: type | None = None  # None: the kind's, from _DTYPES

    def __post_init__(self):
        if self.dtype is None:
            object.__setattr__(self, "dtype", _DTYPES[self.kind])

    @property
    def width(self) -> int:
        return self.shape[0] if self.shape else 1

    def check(self, values, shape: tuple[int, ...]) -> np.ndarray:
        """``values`` as an array of this field's dtype, once it has
        ``shape`` and every value keeps this field's rules.

        A uint field takes only an integer dtype, so a float, however
        whole, is refused rather than cast.  An empty array passes.
        """
        values = np.asarray(values)
        if values.shape != shape:
            raise ValueError(f"{self.what} shape {values.shape} is not {shape}")
        if not values.size:
            pass
        elif self.kind == "float":
            # min/max: NaN fails both comparisons, and no full-size temporary
            if values.dtype.kind not in "iuf" or not (
                values.min() > 0 and values.max() < np.inf
            ):
                raise ValueError(f"{self.what} values must be finite and > 0")
        elif values.dtype.kind not in "iu":
            raise ValueError(f"{self.what} values must be integers, not {values.dtype}")
        elif int(values.min()) < 0 or int(values.max()) >= self.bound:
            raise ValueError(
                f"{self.what} values must be >= 0 and < 2^{self.bound.bit_length() - 1}"
            )
        elif self.increasing and np.any(values[1:] <= values[:-1]):
            raise ValueError(f"{self.what} not strictly increasing")
        return values.astype(self.dtype, copy=False)


_RUN = _Field("RUN", "text")
_TIME = _Field(TIME_KEY, "uint", TIME_MODULUS, increasing=True)
_END_TIME = _Field(TIME_KEY, "uint", TIME_MODULUS)  # concatenated runs may repeat keys
_COUNTS = _Field("counter", "uint", COUNTER_MODULUS, dtype=np.uint32)
_DELTAS = _Field("delta", "uint", COUNTER_MODULUS, dtype=np.uint32)
_POWER = _Field("power", "float")
_FREQ = _Field("frequency", "float")

# The column table of each file kind.  The counter block has no header name
# of its own (``counters`` names it); FREQ_MHZ alone may be absent, as None.
_COUNTER_COLUMNS = ((TIME_KEY, "time_keys", _TIME), (None, "values", _COUNTS))
_POWER_COLUMNS = (
    (TIME_KEY, "time_keys", _TIME),
    (POWER_COL, "power_w", _POWER),
    (FREQ_COL, "freq_mhz", _FREQ),
)
_DATASET_COLUMNS = (
    ("RUN", "run_ids", _RUN),
    (TIME_KEY, "time_keys", _END_TIME),
    (POWER_COL, "power_w", _POWER),
    (FREQ_COL, "freq_mhz", _FREQ),
    (None, "deltas", _DELTAS),
)


def _present(obj, table):
    """(name, attribute, field, values) of the ``table`` columns ``obj`` has."""
    for name, attr, f in table:
        values = getattr(obj, attr)
        if name != FREQ_COL or values is not None:
            yield name, attr, f, values


def _check_arrays(obj, table, n: int) -> None:
    """Check each array column of ``obj`` in ``table`` for ``n`` rows and
    store it in its field's dtype.  Text columns are the caller's."""
    for name, attr, f, values in _present(obj, table):
        if f.kind != "text":
            shape = (n,) if name else (n, len(obj.counters))
            object.__setattr__(obj, attr, f.check(values, shape))


def _rows(what: str, column) -> int:
    """The length of the key column ``column``, or a ValueError naming
    ``what`` when it is not a column: None, a scalar or one string."""
    if not isinstance(column, str):
        try:
            return len(column)
        except TypeError:  # no length
            pass
    raise ValueError(f"{what} must be a column of values, got {column!r}")


def _check_run_id(run) -> None:
    if not isinstance(run, str):
        raise ValueError(f"run id {run!r} is not a string")


@dataclass(frozen=True, eq=False)
class CounterTrace:
    """Time-ordered cumulative PMC samples from one run.

    ``values[i, j]`` is the cumulative reading of ``counters[j]`` at cycle
    ``time_keys[i]``.  Readings are 32-bit and may wrap; a decrease between
    consecutive samples is interpreted as a wrap when deltas are formed.
    """

    time_keys: np.ndarray  # uint64, strictly increasing
    counters: tuple[str, ...]
    values: np.ndarray  # uint32, shape (len(time_keys), len(counters))
    run_id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "counters", check_counter_names(self.counters))
        _check_run_id(self.run_id)
        _check_arrays(self, _COUNTER_COLUMNS, _rows(TIME_KEY, self.time_keys))

    def __len__(self) -> int:
        return len(self.time_keys)


@dataclass(frozen=True, eq=False)
class PowerTrace:
    """Time-ordered power sensor samples, optionally with a frequency channel."""

    time_keys: np.ndarray  # uint64, strictly increasing
    power_w: np.ndarray  # float64, strictly positive
    freq_mhz: np.ndarray | None = None
    run_id: str = ""

    def __post_init__(self):
        _check_run_id(self.run_id)
        _check_arrays(self, _POWER_COLUMNS, _rows(TIME_KEY, self.time_keys))

    def __len__(self) -> int:
        return len(self.time_keys)


@dataclass(frozen=True)
class SampleRow:
    """One synchronised interval: event-count deltas plus a power observation.

    ``time_key`` is the cycle count at the end of the interval.  Rows are
    self-describing: ``counters`` names the entries of ``deltas``.
    """

    time_key: int
    run_id: str
    counters: tuple[str, ...]
    deltas: tuple[int, ...]
    power_w: float
    freq_mhz: float | None = None

    def __post_init__(self):
        names = check_counter_names(self.counters)
        object.__setattr__(self, "counters", names)
        _check_run_id(self.run_id)
        _END_TIME.check(self.time_key, ())
        _DELTAS.check(self.deltas, (len(names),))
        _POWER.check(self.power_w, ())
        if self.freq_mhz is not None:
            _FREQ.check(self.freq_mhz, ())


@dataclass(frozen=True, eq=False)
class Dataset:
    """Synchronised, delta-converted samples ready for regression.

    Stored column-wise; ``row(i)`` is the one per-sample view.  ``source``
    is provenance only, excluded from equality, and names the dataset in
    errors (``with_source``).
    """

    counters: tuple[str, ...]
    time_keys: np.ndarray  # uint64, end-of-interval keys
    run_ids: tuple[str, ...]
    power_w: np.ndarray  # float64, > 0
    deltas: np.ndarray  # uint32, shape (n_rows, len(counters))
    freq_mhz: np.ndarray | None = None
    source: str = field(default="", compare=False)

    def __post_init__(self):
        _rows("RUN", self.run_ids)
        runs = tuple(self.run_ids)
        try:
            distinct = set(runs)
        except TypeError:  # an unhashable id, which the check below names
            distinct = runs
        for run in distinct:
            _check_run_id(run)
        object.__setattr__(self, "counters", check_counter_names(self.counters))
        object.__setattr__(self, "run_ids", runs)
        _check_arrays(self, _DATASET_COLUMNS, len(runs))

    @property
    def n_rows(self) -> int:
        return len(self.time_keys)

    def __len__(self) -> int:
        return self.n_rows

    def row(self, i: int) -> SampleRow:
        return SampleRow(
            time_key=int(self.time_keys[i]),
            run_id=self.run_ids[i],
            counters=self.counters,
            deltas=tuple(int(v) for v in self.deltas[i]),
            power_w=float(self.power_w[i]),
            freq_mhz=None if self.freq_mhz is None else float(self.freq_mhz[i]),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        # an absent FREQ_MHZ is None, which array_equal finds equal to None only
        return self.counters == other.counters and all(
            a == b if f.kind == "text" else np.array_equal(a, b)
            for _, attr, f in _DATASET_COLUMNS
            for a, b in [(getattr(self, attr), getattr(other, attr))]
        )


def with_source(ds: Dataset, message: str) -> str:
    """``message`` prefixed ``<source>: `` when ``ds`` has a source, as a
    refusal of the dataset names it."""
    return f"{ds.source}: {message}" if ds.source else message


# ---------------------------------------------------------------------------
# CSV parsing / writing
# ---------------------------------------------------------------------------

# Blocks keep the memory a read or write needs beyond its result flat: the
# bulk reader decodes and parses about this many bytes at a time, and the
# writer formats rows of at most this many cells at a time, so its block is
# one size at any width (about 60 bytes a cell while it is formatted)
_PARSE_BLOCK_BYTES = 1 << 18
_WRITE_BLOCK_CELLS = 1 << 12

# The bytes the bulk reader takes in a file body, after the header: printable
# ASCII except space and "+", and LF.  np.loadtxt would accept a leading
# "+", padding spaces, CR line endings and blank lines, all of which the
# per-cell reader rejects, so any of them sends a file to that reader.
_BULK_BYTES = bytes(range(0x21, 0x7F)).replace(b"+", b"") + b"\n"


def _counter_fields(header: list[str], path) -> tuple[_Field, ...]:
    if header[0] != TIME_KEY or len(header) < 2:
        raise FormatError(
            f"PMC header must be {TIME_KEY},<counter>,... (got {','.join(header)!r})",
            path,
        )
    _check_header_names(header[1:], path)
    return _TIME, replace(_COUNTS, shape=(len(header) - 1,))


def _power_fields(header: list[str], path) -> tuple[_Field, ...]:
    if header[:2] != [TIME_KEY, POWER_COL] or len(header) > 3 or (
        len(header) == 3 and header[2] != FREQ_COL
    ):
        raise FormatError(
            f"power header must be {TIME_KEY},{POWER_COL}[,{FREQ_COL}] "
            f"(got {','.join(header)!r})",
            path,
        )
    return tuple(f for _, _, f in _POWER_COLUMNS)[: len(header)]


def _dataset_fields(header: list[str], path) -> tuple[_Field, ...]:
    if header[:3] != ["RUN", TIME_KEY, POWER_COL]:
        raise FormatError(
            f"dataset header must start RUN,{TIME_KEY},{POWER_COL} "
            f"(got {','.join(header[:3])!r})",
            path,
        )
    named = [f for name, _, f in _DATASET_COLUMNS if name in header[:4]]
    _check_header_names(header[len(named) :], path)
    return (*named, replace(_DELTAS, shape=(len(header) - len(named),)))


def _check_header_names(names: list[str], path) -> None:
    try:
        check_counter_names(names)
    except ValueError as exc:
        raise FormatError(str(exc), path) from None


def _read_table(path, fields_of) -> tuple[list[str], list]:
    """(header, one array per field) of a CSV file.

    ``fields_of(header, path)`` checks the header and returns its fields.
    A file that cannot seek, such as a pipe, is read into memory once.
    """
    with open(path, "rb") as f:
        stream = f if f.seekable() else io.BytesIO(f.read())
        table = _read_bulk(stream, fields_of, path)
        if table is None:
            stream.seek(0)
            table = _read_cells(stream.read(), fields_of, path)
    return table


def _blocks(stream):
    """The rest of the seekable ``stream`` in blocks of at most
    ``_PARSE_BLOCK_BYTES``, each extended to the end of the line it stops
    in.  No read asks for more than the bytes left, so a small file takes
    a small buffer, not a whole block."""
    at = stream.tell()
    end = stream.seek(0, io.SEEK_END)
    stream.seek(at)
    while at < end and (block := stream.read(min(end - at, _PARSE_BLOCK_BYTES))):
        if not block.endswith(b"\n"):
            block += stream.readline()
        at += len(block)
        yield block


class _TextRuns:
    """A text column as it is read: runs of equal cells, each one shared
    ``str`` per distinct cell.  ``tuple()`` of it builds the column once,
    at its exact length, and no per-row array is held beside it."""

    def __init__(self):
        self.shared: dict[str, str] = {}
        self.cells: list[str] = []
        self.counts: list[int] = []

    def extend(self, cells: np.ndarray) -> None:
        """Append a block's cells, a 1-D object array."""
        if not len(cells):
            return
        starts = np.flatnonzero(np.append(True, cells[1:] != cells[:-1]))
        counts = np.diff(np.append(starts, len(cells)))
        for cell, count in zip(cells[starts].tolist(), counts.tolist()):
            cell = self.shared.setdefault(cell, cell)
            if self.cells and self.cells[-1] is cell:
                self.counts[-1] += count
            else:
                self.cells.append(cell)
                self.counts.append(count)

    def __len__(self) -> int:
        return sum(self.counts)

    def __iter__(self):
        return itertools.chain.from_iterable(map(itertools.repeat, self.cells, self.counts))


def _read_bulk(stream, fields_of, path) -> tuple[list[str], list] | None:
    """``_read_cells``' result for a well-formed file, parsed by numpy.

    ``stream`` is a seekable binary file, read from its start in two passes
    of ``_blocks``.  The first checks the body's bytes and counts its rows;
    the second parses each block into the preallocated columns, and keeps
    a text column as ``_TextRuns``.  The header is read under the per-cell
    rules (UTF-8, no CR, not blank, split on ``,``), so any counter name
    the format allows takes this path.  Returns None where the per-cell
    reader has to decide: a header that is not UTF-8, a byte outside
    ``_BULK_BYTES`` in the body, a blank line, a comment after the header,
    a cell numpy does not parse or a value that fails a check.  Raises only
    the header errors ``_read_cells`` raises, and only once the body's
    bytes have passed, as that reader first rejects a body that is not
    UTF-8.

    loadtxt skips blank lines, so one shows as fewer rows than lines.  A
    comment line in the body either fails to parse or puts a ``#`` at the
    start of the text RUN column.
    """
    lineno = 1
    line = stream.readline()
    while line.startswith(b"#"):
        if not line.endswith(b"\n"):
            return None
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return None
        lineno += 1
        line = stream.readline()
    if not line:
        return None
    try:
        head = line.removesuffix(b"\n").decode("utf-8")
    except UnicodeDecodeError:
        return None
    body = stream.tell()
    n_rows, last = 0, b"\n"
    for block in _blocks(stream):
        if block.translate(None, _BULK_BYTES):
            return None
        n_rows += block.count(b"\n")
        last = block[-1:]
    n_rows += last != b"\n"  # the last line has no LF
    header = _split_row(head, None, path, lineno)
    fields = fields_of(header, path)

    names = [str(i) for i in range(len(fields))]
    dtype = np.dtype([(n, f.dtype, f.shape) for n, f in zip(names, fields)])
    cols = [
        _TextRuns() if f.kind == "text" else np.empty((n_rows,) + f.shape, dtype=f.dtype)
        for f in fields
    ]
    row = 0
    stream.seek(body)
    for block in _blocks(stream):
        if block.startswith(b"\n"):
            return None  # a blank line; a block of them alone makes loadtxt warn
        try:
            parsed = np.loadtxt(
                io.BytesIO(block),
                dtype=dtype,
                delimiter=",",
                comments=None,
                ndmin=1,
            )
        except (ValueError, OverflowError):  # OverflowError: older numpy
            return None
        if len(parsed) > n_rows - row:
            return None  # the file grew since the first pass
        for name, col in zip(names, cols):
            if isinstance(col, _TextRuns):
                col.extend(parsed[name])
            else:
                col[row : row + len(parsed)] = parsed[name]
        row += len(parsed)
    text = [col for col in cols if isinstance(col, _TextRuns)]
    if row < n_rows or any(v.startswith("#") for col in text for v in col.shared):
        return None

    for i, (f, col) in enumerate(zip(fields, cols)):
        if f.kind == "text":
            cols[i] = tuple(col)
        else:
            try:
                f.check(col, col.shape)
            except ValueError:
                return None
    return header, cols


def _read_cells(data: bytes, fields_of, path) -> tuple[list[str], list]:
    """The per-cell reader: the reference for ``_read_bulk`` and the code
    that locates every error in a file body."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(
            "invalid UTF-8", path, data.count(b"\n", 0, exc.start) + 1
        ) from None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # the LF that ends the last line
    rows = (
        (lineno, line)
        for lineno, line in enumerate(lines, start=1)
        if not line.startswith("#")
    )
    for lineno, line in rows:
        header = _split_row(line, None, path, lineno)
        break
    else:
        raise FormatError("missing header", path)
    fields = fields_of(header, path)

    col_fields = [f for f in fields for _ in range(f.width)]
    values: list[list] = [[] for _ in header]
    prev_key = -1
    for lineno, line in rows:
        cells = _split_row(line, len(header), path, lineno)
        for f, cell, col in zip(col_fields, cells, values):
            value = _parse_cell(f, cell, path, lineno)
            if f.increasing:
                if value <= prev_key:
                    raise FormatError(f"{f.what} not strictly increasing", path, lineno)
                prev_key = value
            col.append(value)

    n_rows = len(values[0])
    cols, j = [], 0
    for f in fields:
        if f.kind == "text":
            cols.append(tuple(values[j]))
        else:
            block = np.array(values[j : j + f.width], dtype=f.dtype)
            block = block.reshape(f.width, n_rows).T
            cols.append(np.ascontiguousarray(block) if f.shape else block[:, 0])
        j += f.width
    return header, cols


def _split_row(line: str, n_cols: int | None, path, lineno: int) -> list[str]:
    if "\r" in line:
        raise FormatError("carriage return (CRLF line ending?)", path, lineno)
    if not line.strip():
        raise FormatError("empty line", path, lineno)
    cells = line.split(",")
    if n_cols is not None and len(cells) != n_cols:
        raise FormatError(
            f"expected {n_cols} columns, found {len(cells)}", path, lineno
        )
    return cells


def _parse_cell(field: _Field, cell: str, path, lineno: int):
    """One cell's value, or the located FormatError."""
    what = field.what
    if field.kind == "text":
        return cell
    if field.kind == "uint":
        if not (cell.isascii() and cell.isdigit()):
            raise FormatError(f"non-numeric {what} cell {cell!r}", path, lineno)
        value = int(cell)
        if value >= field.bound:
            raise FormatError(f"{what} value {value} out of range", path, lineno)
        return value
    # float() also reads padding, "_" separators, a leading "+" and
    # non-ASCII digits; the format has none of them
    try:
        if not cell.isascii() or cell != cell.strip() or "_" in cell or cell[:1] == "+":
            raise ValueError
        value = float(cell)
    except ValueError:
        raise FormatError(f"non-numeric {what} cell {cell!r}", path, lineno) from None
    if not math.isfinite(value):
        raise FormatError(f"non-finite {what} value", path, lineno)
    if value <= 0:
        raise FormatError(f"non-positive {what}", path, lineno)
    return value


def _write_block_rows(n_cols: int) -> int:
    """The rows ``write_columns`` formats at a time for ``n_cols`` cells a
    row: as many as keep a block within ``_WRITE_BLOCK_CELLS``, at least one."""
    return max(1, _WRITE_BLOCK_CELLS // n_cols)


def write_columns(f, header: Sequence[str], columns: Sequence[tuple]) -> None:
    """Write a CSV header and rows to the text file ``f``, a block of
    ``_write_block_rows`` rows at a time.

    ``columns`` holds ``(values, spec)`` pairs, all with one entry per row:
    a sequence or 1-D array whose cells are written as ``spec % cell``, or
    a 2-D array that is one such column per array column.  Array cells
    reach ``spec`` as Python ints and floats.  A header that does not name
    every column, or a column of another length, is a ValueError.
    """
    specs, where = [], []  # where: the cells column, or slice, of a column
    for values, spec in columns:
        if isinstance(values, np.ndarray) and values.ndim == 2:
            where.append(slice(len(specs), len(specs) + values.shape[1]))
            specs += [spec] * values.shape[1]
        else:
            where.append(len(specs))
            specs.append(spec)
    if len(header) != len(specs):
        raise ValueError(f"{len(header)} header names for {len(specs)} columns")
    n_rows = len(columns[0][0])
    for (values, _), at in zip(columns, where):
        if len(values) != n_rows:
            name = header[at.start if isinstance(at, slice) else at]
            raise ValueError(f"column {name!r} has {len(values)} rows, not {n_rows}")
    row = ",".join(specs) + "\n"
    f.write(",".join(header) + "\n")
    step = _write_block_rows(len(specs))
    cells = np.empty((min(n_rows, step), len(specs)), dtype=object)
    for lo in range(0, n_rows, step):
        n = min(n_rows - lo, step)
        for (values, _), at in zip(columns, where):
            cells[:n, at] = values[lo : lo + n]
        f.write((row * n) % tuple(cells[:n].ravel().tolist()))


def _read(cls, path, table, fields_of, **attrs):
    """A ``cls`` of the CSV file at ``path``: each column of ``table`` the
    file has onto its attribute, the header names after them as counters."""
    header, cols = _read_table(path, fields_of)
    present = [attr for name, attr, _ in table if name is None or name in header]
    attrs.update(zip(present, cols))
    if table[-1][0] is None:
        attrs["counters"] = tuple(header[len(present) - 1 :])
    return cls(**attrs)


def _write(obj, path, table) -> None:
    """Write the columns of ``table`` that ``obj`` has as a CSV file:
    ``%r`` for floats, which read back exactly, ``%s`` for the rest."""
    header, columns = [], []
    for name, _, f, values in _present(obj, table):
        header += [name] if name else obj.counters
        columns.append((values, "%r" if f.kind == "float" else "%s"))
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        write_columns(out, header, columns)


def read_counter_trace(path) -> CounterTrace:
    """Read and validate a PMC trace CSV; its run_id is the file stem."""
    return _read(
        CounterTrace, path, _COUNTER_COLUMNS, _counter_fields, run_id=Path(path).stem
    )


def write_counter_trace(trace: CounterTrace, path) -> None:
    _write(trace, path, _COUNTER_COLUMNS)


def read_power_trace(path) -> PowerTrace:
    """Read and validate a power trace CSV; its run_id is the file stem."""
    return _read(PowerTrace, path, _POWER_COLUMNS, _power_fields, run_id=Path(path).stem)


def write_power_trace(trace: PowerTrace, path) -> None:
    _write(trace, path, _POWER_COLUMNS)


def read_dataset(path) -> Dataset:
    """Read and validate a synchronised dataset CSV."""
    return _read(Dataset, path, _DATASET_COLUMNS, _dataset_fields, source=str(path))


def write_dataset(ds: Dataset, path) -> None:
    """Write a dataset CSV; read_dataset(write_dataset(ds)) == ds."""
    for run in set(ds.run_ids):
        if any(c in run for c in ",\r\n") or run.startswith("#"):
            raise ValueError(f"run id {run!r} not representable in CSV")
    _write(ds, path, _DATASET_COLUMNS)


def concat_datasets(datasets: Sequence[Dataset], source: str = "") -> Dataset:
    """Concatenate datasets sharing one counter header.

    Run ids are prefixed ``d<i>:`` when more than one dataset is given, so
    identically named runs from different files never collide.
    """
    if not datasets:
        raise ValueError("no datasets to concatenate")
    if len(datasets) == 1:
        return datasets[0]
    head = datasets[0]
    for ds in datasets[1:]:
        if ds.counters != head.counters:
            raise ValueError(f"counter headers differ: {head.counters} vs {ds.counters}")
        if (ds.freq_mhz is None) != (head.freq_mhz is None):
            raise ValueError("frequency channel present in some datasets only")
    run_ids: list[str] = []
    for i, ds in enumerate(datasets):
        labels = {r: f"d{i}:{r}" for r in set(ds.run_ids)}  # one str per run
        run_ids += map(labels.__getitem__, ds.run_ids)
    arrays = {
        attr: np.concatenate([getattr(ds, attr) for ds in datasets])
        for _, attr, f, _ in _present(head, _DATASET_COLUMNS)
        if f.kind != "text"
    }
    return Dataset(counters=head.counters, run_ids=tuple(run_ids), source=source, **arrays)


# ---------------------------------------------------------------------------
# JSON artifacts
# ---------------------------------------------------------------------------


def write_json(data, path) -> None:
    """Write ``data`` as a JSON artifact; a NaN or infinity in it is a
    ValueError, raised before the file is opened."""
    text = json.dumps(data, indent=2, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def _finite(parse):
    """A JSON number hook: ``parse(token)``, unless the token is infinite
    or NaN as a float."""

    def number(token: str):
        if not math.isfinite(float(token)):
            raise ValueError(f"non-finite number {token}")
        return parse(token)

    return number


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object hook: the object, unless a key is repeated in it."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def check_keys(data, known, what: str, where) -> dict:
    """``data`` when it is a JSON object whose keys are all ``known``;
    a stray key is a ``FormatError("unknown <what> keys: ...", where)``
    and another value a ValueError."""
    unknown = set(check_type(what, data, dict)) - set(known)
    if unknown:
        raise FormatError(f"unknown {what} keys: {', '.join(sorted(unknown))}", where)
    return data


def json_field(rule, write=None, **kw):
    """A field of a JSON artifact class, a frozen dataclass named by its
    ``json_name`` whose constructor calls ``check_fields``: ``rule`` is its
    ``check_value`` rule, ``write`` its JSON form (``to_json``) and ``kw``
    (a default) goes to ``dataclasses.field``."""
    return field(metadata={"rule": rule, "write": write or to_json}, **kw)


def check_value(rule, name: str, value, where=None):
    """The value a field with ``rule`` stores, or a ValueError naming the
    field; with ``where``, ``value`` is first read from the JSON of file
    ``where``.  A rule is a type ``check_type`` takes (a float is stored
    as a finite float), an artifact class (a JSON object), ``(cls,)`` (a
    tuple of ``cls`` artifacts, a JSON array), or a function ``rule(name,
    value, where=None)`` for a field whose JSON form differs from it."""
    if rule in _TYPE_RULES:
        value = check_type(name, value, rule)
        if rule is float:
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        return value
    if isinstance(rule, tuple):
        (cls,) = rule
        if where is not None:
            items = check_type(name, value, list)
            value = tuple(check_value(cls, name, v, where) for v in items)
        if isinstance(value, tuple) and all(isinstance(v, cls) for v in value):
            return value
        raise ValueError(f"{name} must be a tuple of {cls.__name__}, got {value!r}")
    if not isinstance(rule, type):
        return rule(name, value, where)
    if where is not None:
        value = _read_object(rule, value, where)
    if isinstance(value, rule):
        return value
    raise ValueError(f"{name} must be {rule.__name__}, got {value!r}")


def check_fields(obj) -> None:
    """Store each field of the artifact ``obj`` as its rule gives it; a
    field whose default is None may be None, meaning absent."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if value is not None or f.default is not None:
            object.__setattr__(obj, f.name, check_value(f.metadata["rule"], f.name, value))


def to_json(value):
    """``value`` in JSON types: an artifact as an object, a key per field
    that is not None, in field order, each value as its ``write`` gives
    it; a tuple as an array; a dict's values likewise."""
    if dataclasses.is_dataclass(value):
        pairs = ((f, getattr(value, f.name)) for f in dataclasses.fields(value))
        return {f.name: f.metadata["write"](v) for f, v in pairs if v is not None}
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    return value


def _read_object(cls, data, where):
    """The ``cls`` the JSON object ``data`` of file ``where`` describes: its
    keys are fields of ``cls``, each value read by its field's rule, and
    the constructor refuses an absent key whose field has no default."""
    rules = {f.name: f.metadata["rule"] for f in dataclasses.fields(cls)}
    check_keys(data, rules, cls.json_name, where)
    return cls(**{n: check_value(rules[n], n, v, where) for n, v in data.items()})


def from_json(cls, data, where):
    """The artifact ``cls`` that the JSON object ``data`` of file ``where``
    describes; a refusal is ``FormatError("bad <json_name> JSON: ...")``."""
    try:
        return _read_object(cls, data, where)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad {cls.json_name} JSON: {exc}", where) from None


def read_json(path, what: str):
    """The value of a JSON artifact, ``what`` naming it in errors.

    Bytes that are not UTF-8, malformed JSON, a key repeated in one
    object, ``NaN`` / ``Infinity`` tokens, numbers too large for a float
    (``1e400``) and nesting too deep for the parser raise
    ``FormatError("bad <what> JSON: ...", path)``.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
        return json.loads(
            text,
            object_pairs_hook=_unique_keys,
            parse_int=_finite(int),
            parse_float=_finite(float),
            parse_constant=_finite(float),
        )
    except (ValueError, RecursionError) as exc:  # ValueError: bad bytes and JSON
        raise FormatError(f"bad {what} JSON: {exc}", path) from None
