"""Core data types and on-disk formats for counter/power traces and datasets.

All files are UTF-8 with LF line endings; lines whose first character is
``#`` are comments and are ignored.  Three CSV contracts:

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

Files and types share one rule set, the ``_Field`` of each column: a
constructor checks its arrays against the rules the readers apply to
cells, and raises ValueError naming the column.  Conversions never cast a
value that breaks them: a float is not an integer column, and -1 or 2^32
is not a 32-bit count.

Only LF ends a line: a CR is an error, and characters such as form feed or
U+2028 are ordinary cell text.  Integer cells are ASCII digits only (no
sign, padding, fraction or exponent); float cells are what ``float()``
reads without padding, ``_``, a leading ``+`` or non-ASCII characters, and
must be finite and > 0.

Reading takes one of two paths over one read of the file's bytes.  The bulk
path checks the whole file cheaply (printable ASCII without space or ``+``
after the leading ``#`` block, no blank or comment line) and parses it with
numpy a block at a time.  Any file it does not take, or whose values fail a
check, is read again cell by cell from the same bytes; that path is the
reference and the only one that reports where a body error is.  Writers
format a whole block of rows with one printf-style ``%`` call: ``%s`` for
run ids and integers, ``%r`` for floats, which read back exactly, and
``%.6g`` (``regress.WATTS_SPEC``) for display watts.

JSON artifacts (model, search report, gen spec) are written and read by
``write_json`` / ``read_json`` alone: indent 2, a final LF, and never a
NaN or Infinity, which the writer refuses and the reader rejects.
"""

from __future__ import annotations

import io
import json
import math
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


# a value must already have its field's type; nothing is cast
_TYPE_RULES = {
    int: is_integer,
    float: lambda v: is_integer(v) or isinstance(v, (float, np.floating)),
    bool: lambda v: isinstance(v, bool),
    str: lambda v: isinstance(v, str),
    list: lambda v: isinstance(v, list),
    dict: lambda v: isinstance(v, dict),
}


def check_type(name: str, value, kind: type):
    """``value`` when it has type ``kind``, as the plain Python value (a
    numpy scalar becomes its Python equal), else a ValueError naming the
    field.  An int field takes an integer, a float field an integer or
    float; a bool is neither.  list and dict are JSON arrays and objects."""
    if not _TYPE_RULES[kind](value):
        raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")
    return value.item() if isinstance(value, np.generic) else value


def check_counter_names(counters: Sequence[str]) -> tuple[str, ...]:
    """Validate a predictor name list: a sequence of names, not one
    string; each a non-empty string, unique, neither TIME nor FREQ_MHZ."""
    if isinstance(counters, str):
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


@dataclass(frozen=True)
class _Field:
    """The rules for one column, or for ``shape[0]`` adjacent CSV columns.

    kind "text" keeps the cell as it is, "uint" takes an integer in
    ``[0, bound)`` and "float" a finite number > 0.  ``what`` names the
    column in error messages; an ``increasing`` column must strictly
    increase down the file.  A field reads as an array of shape
    ``(rows,) + shape``, or a tuple for text.
    """

    what: str
    kind: str
    bound: int = 0
    shape: tuple[int, ...] = ()
    increasing: bool = False

    @property
    def width(self) -> int:
        return self.shape[0] if self.shape else 1

    def check(self, values, shape: tuple[int, ...], dtype=None) -> np.ndarray:
        """``values`` as an array of ``dtype`` (default: the kind's), once
        it has ``shape`` and every value keeps this field's rules.

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
        return values.astype(dtype or _DTYPES[self.kind], copy=False)


_DTYPES = {"text": object, "uint": np.uint64, "float": np.float64}

_RUN = _Field("RUN", "text")
_TIME = _Field(TIME_KEY, "uint", TIME_MODULUS, increasing=True)
_END_TIME = _Field(TIME_KEY, "uint", TIME_MODULUS)  # concatenated runs may repeat keys
_COUNTS = _Field("counter", "uint", COUNTER_MODULUS)
_DELTAS = _Field("delta", "uint", COUNTER_MODULUS)
_POWER = _Field("power", "float")
_FREQ = _Field("frequency", "float")


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
        names = check_counter_names(self.counters)
        n = len(self.time_keys)
        object.__setattr__(self, "time_keys", _TIME.check(self.time_keys, (n,)))
        object.__setattr__(self, "counters", names)
        object.__setattr__(
            self, "values", _COUNTS.check(self.values, (n, len(names)), np.uint32)
        )

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
        n = len(self.time_keys)
        object.__setattr__(self, "time_keys", _TIME.check(self.time_keys, (n,)))
        object.__setattr__(self, "power_w", _POWER.check(self.power_w, (n,)))
        if self.freq_mhz is not None:
            object.__setattr__(self, "freq_mhz", _FREQ.check(self.freq_mhz, (n,)))

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
        _END_TIME.check(self.time_key, ())
        _DELTAS.check(self.deltas, (len(names),))
        _POWER.check(self.power_w, ())
        if self.freq_mhz is not None:
            _FREQ.check(self.freq_mhz, ())

    def delta(self, counter: str) -> int:
        try:
            return self.deltas[self.counters.index(counter)]
        except ValueError:
            raise KeyError(f"counter {counter!r} not present in row") from None


@dataclass(frozen=True, eq=False)
class Dataset:
    """Synchronised, delta-converted samples ready for regression.

    Stored column-wise; use ``row`` / ``rows`` for a per-sample view.
    ``source`` is provenance only and excluded from equality.
    """

    counters: tuple[str, ...]
    time_keys: np.ndarray  # uint64, end-of-interval keys
    run_ids: tuple[str, ...]
    power_w: np.ndarray  # float64, > 0
    deltas: np.ndarray  # uint64, shape (n_rows, len(counters)), < 2^32
    freq_mhz: np.ndarray | None = None
    source: str = field(default="", compare=False)

    def __post_init__(self):
        names = check_counter_names(self.counters)
        runs = tuple(self.run_ids)
        try:
            distinct = set(runs)
        except TypeError:  # an unhashable id, which the check below names
            distinct = runs
        for run in distinct:
            if not isinstance(run, str):
                raise ValueError(f"run id {run!r} is not a string")
        n = len(runs)
        object.__setattr__(self, "counters", names)
        object.__setattr__(self, "time_keys", _END_TIME.check(self.time_keys, (n,)))
        object.__setattr__(self, "run_ids", runs)
        object.__setattr__(self, "power_w", _POWER.check(self.power_w, (n,)))
        object.__setattr__(
            self, "deltas", _DELTAS.check(self.deltas, (n, len(names)))
        )
        if self.freq_mhz is not None:
            object.__setattr__(self, "freq_mhz", _FREQ.check(self.freq_mhz, (n,)))

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

    @property
    def rows(self) -> list[SampleRow]:
        return [self.row(i) for i in range(self.n_rows)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        if self.counters != other.counters or self.run_ids != other.run_ids:
            return False
        if (self.freq_mhz is None) != (other.freq_mhz is None):
            return False
        same = (
            np.array_equal(self.time_keys, other.time_keys)
            and np.array_equal(self.power_w, other.power_w)
            and np.array_equal(self.deltas, other.deltas)
        )
        if same and self.freq_mhz is not None:
            same = np.array_equal(self.freq_mhz, other.freq_mhz)
        return same


# ---------------------------------------------------------------------------
# CSV parsing / writing
# ---------------------------------------------------------------------------

# Blocks keep the memory a read or write needs beyond its result flat: the
# bulk reader decodes and parses about this many bytes at a time, and the
# writer formats this many rows at a time.
_PARSE_BLOCK_BYTES = 1 << 18
_WRITE_BLOCK_ROWS = 1024

# The bytes the bulk reader takes after the leading comment block: printable
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
    return (_TIME, _POWER, _FREQ)[: len(header)]


def _dataset_fields(header: list[str], path) -> tuple[_Field, ...]:
    if header[:3] != ["RUN", TIME_KEY, POWER_COL]:
        raise FormatError(
            f"dataset header must start RUN,{TIME_KEY},{POWER_COL} "
            f"(got {','.join(header[:3])!r})",
            path,
        )
    has_freq = len(header) > 3 and header[3] == FREQ_COL
    first_counter = 4 if has_freq else 3
    _check_header_names(header[first_counter:], path)
    n_counters = len(header) - first_counter
    return (_RUN, _END_TIME, _POWER) + ((_FREQ,) if has_freq else ()) + (
        replace(_DELTAS, shape=(n_counters,)),
    )


def _check_header_names(names: list[str], path) -> None:
    try:
        check_counter_names(names)
    except ValueError as exc:
        raise FormatError(str(exc), path) from None


def _read_table(path, fields_of) -> tuple[list[str], list]:
    """(header, one array per field) of a CSV file.

    ``fields_of(header, path)`` checks the header and returns its fields.
    """
    data = Path(path).read_bytes()
    return _read_bulk(data, fields_of, path) or _read_cells(data, fields_of, path)


def _read_bulk(data: bytes, fields_of, path) -> tuple[list[str], list] | None:
    """``_read_cells``' result for a well-formed file, parsed by numpy.

    Returns None where the per-cell reader has to decide: a byte outside
    ``_BULK_BYTES`` after the leading comment block, a blank line, a
    comment after the header, a cell numpy does not parse or a value that
    fails a check.  Raises only the header errors ``_read_cells`` raises.

    loadtxt skips blank lines, so one shows as fewer rows than lines.  A
    comment line in the body either fails to parse or puts a ``#`` at the
    start of the text RUN column.
    """
    start = 0
    while data.startswith(b"#", start):
        start = data.find(b"\n", start) + 1
        if start == 0:
            return None
    rest = data[start:]
    if not rest or rest.translate(None, _BULK_BYTES) or rest.startswith(b"\n"):
        return None
    try:
        data[:start].decode("utf-8")
    except UnicodeDecodeError:
        return None

    head_end = rest.find(b"\n")
    if head_end < 0:
        head_end = len(rest)
    header = rest[:head_end].decode("ascii").split(",")
    fields = fields_of(header, path)
    pos = head_end + 1
    n_rows = rest.count(b"\n", pos)
    if pos < len(rest) and not rest.endswith(b"\n"):
        n_rows += 1  # the last line has no LF
    names = [str(i) for i in range(len(fields))]
    dtype = np.dtype([(n, _DTYPES[f.kind], f.shape) for n, f in zip(names, fields)])
    cols = [np.empty((n_rows,) + f.shape, dtype=_DTYPES[f.kind]) for f in fields]
    row = 0
    while pos < len(rest):
        if rest.startswith(b"\n", pos):
            return None  # a blank line; a block of them alone makes loadtxt warn
        # a block ends at the first LF past the block size, or at the end
        end = rest.find(b"\n", pos + _PARSE_BLOCK_BYTES) + 1 or len(rest)
        try:
            block = np.loadtxt(
                io.StringIO(rest[pos:end].decode("ascii")),
                dtype=dtype,
                delimiter=",",
                comments=None,
                ndmin=1,
            )
        except ValueError:
            return None
        for name, col in zip(names, cols):
            col[row : row + len(block)] = block[name]
        row += len(block)
        pos = end
    if row < n_rows:
        return None

    for i, (f, col) in enumerate(zip(fields, cols)):
        if f.kind == "text":
            cols[i] = tuple(col.tolist())
            if any(v.startswith("#") for v in set(cols[i])):
                return None
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
            block = np.array(values[j : j + f.width], dtype=_DTYPES[f.kind])
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


def write_columns(f, header: Sequence[str], columns: Sequence[tuple]) -> None:
    """Write a CSV header and rows to the text file ``f``, a block at a time.

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
    cells = np.empty((min(n_rows, _WRITE_BLOCK_ROWS), len(specs)), dtype=object)
    for lo in range(0, n_rows, _WRITE_BLOCK_ROWS):
        n = min(n_rows - lo, _WRITE_BLOCK_ROWS)
        for (values, _), at in zip(columns, where):
            cells[:n, at] = values[lo : lo + n]
        f.write((row * n) % tuple(cells[:n].ravel().tolist()))


def read_counter_trace(path, run_id: str | None = None) -> CounterTrace:
    """Read and validate a PMC trace CSV.  run_id defaults to the file stem."""
    header, (keys, values) = _read_table(path, _counter_fields)
    return CounterTrace(
        time_keys=keys,
        counters=tuple(header[1:]),
        values=values,
        run_id=Path(path).stem if run_id is None else run_id,
    )


def write_counter_trace(trace: CounterTrace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        write_columns(
            f,
            (TIME_KEY,) + trace.counters,
            ((trace.time_keys, "%s"), (trace.values, "%s")),
        )


def read_power_trace(path) -> PowerTrace:
    """Read and validate a power trace CSV; its run_id is the file stem."""
    _, (keys, power, *freq) = _read_table(path, _power_fields)
    return PowerTrace(
        time_keys=keys,
        power_w=power,
        freq_mhz=freq[0] if freq else None,
        run_id=Path(path).stem,
    )


def write_power_trace(trace: PowerTrace, path) -> None:
    header = [TIME_KEY, POWER_COL]
    columns = [(trace.time_keys, "%s"), (trace.power_w, "%r")]
    if trace.freq_mhz is not None:
        header.append(FREQ_COL)
        columns.append((trace.freq_mhz, "%r"))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        write_columns(f, header, columns)


def _check_run_id(run_id: str) -> str:
    if any(c in run_id for c in ",\r\n") or run_id.startswith("#"):
        raise ValueError(f"run id {run_id!r} not representable in CSV")
    return run_id


def read_dataset(path) -> Dataset:
    """Read and validate a synchronised dataset CSV."""
    header, (runs, keys, power, *freq, deltas) = _read_table(path, _dataset_fields)
    return Dataset(
        counters=tuple(header[len(header) - deltas.shape[1] :]),
        time_keys=keys,
        run_ids=runs,
        power_w=power,
        deltas=deltas,
        freq_mhz=freq[0] if freq else None,
        source=str(path),
    )


def write_dataset(ds: Dataset, path) -> None:
    """Write a dataset CSV; read_dataset(write_dataset(ds)) == ds."""
    for run in set(ds.run_ids):
        _check_run_id(run)
    header = ["RUN", TIME_KEY, POWER_COL]
    columns = [(ds.run_ids, "%s"), (ds.time_keys, "%s"), (ds.power_w, "%r")]
    if ds.freq_mhz is not None:
        header.append(FREQ_COL)
        columns.append((ds.freq_mhz, "%r"))
    header += ds.counters
    columns.append((ds.deltas, "%s"))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        write_columns(f, header, columns)


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
            raise ValueError(
                f"counter headers differ: {head.counters} vs {ds.counters}"
            )
        if (ds.freq_mhz is None) != (head.freq_mhz is None):
            raise ValueError("frequency channel present in some datasets only")
    run_ids: list[str] = []
    for i, ds in enumerate(datasets):
        run_ids += [f"d{i}:{r}" for r in ds.run_ids]
    return Dataset(
        counters=head.counters,
        time_keys=np.concatenate([ds.time_keys for ds in datasets]),
        run_ids=tuple(run_ids),
        power_w=np.concatenate([ds.power_w for ds in datasets]),
        deltas=np.concatenate([ds.deltas for ds in datasets], axis=0),
        freq_mhz=(
            None
            if head.freq_mhz is None
            else np.concatenate([ds.freq_mhz for ds in datasets])
        ),
        source=source,
    )


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


def read_json(path, what: str):
    """The value of a JSON artifact, ``what`` naming it in errors.

    Bytes that are not UTF-8, malformed JSON, ``NaN`` / ``Infinity``
    tokens, numbers too large for a float (``1e400``) and nesting too deep
    for the parser raise ``FormatError("bad <what> JSON: ...", path)``.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
        return json.loads(
            text,
            parse_int=_finite(int),
            parse_float=_finite(float),
            parse_constant=_finite(float),
        )
    except (ValueError, RecursionError) as exc:  # ValueError: bad bytes and JSON
        raise FormatError(f"bad {what} JSON: {exc}", path) from None
