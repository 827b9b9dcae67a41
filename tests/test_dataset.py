"""Dataset types and CSV IO: validation, round-trips, rejection messages."""

import dataclasses
import io
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmcpower as pp
from pmcpower import dataset
from pmcpower.dataset import check_counter_names

from conftest import make_dataset


def test_counter_names_reject_time_and_duplicates():
    with pytest.raises(ValueError):
        check_counter_names(("TIME",))
    with pytest.raises(ValueError):
        check_counter_names(("A", "B", "A"))
    with pytest.raises(ValueError):
        check_counter_names(("A", ""))
    # a name no CSV header cell holds: "A,B" used to write a PMC header of
    # one more column than its rows
    for name in ("A,B", "A\nB", "A\rB", ","):
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            check_counter_names(("X", name))
    assert check_counter_names(["A", "B"]) == ("A", "B")


def test_freq_mhz_never_names_a_counter(tmp_path):
    # a dataset whose one counter was FREQ_MHZ used to read back with that
    # counter turned into the frequency channel
    with pytest.raises(ValueError, match="reserved for the frequency channel"):
        check_counter_names(("A", "FREQ_MHZ"))
    with pytest.raises(ValueError, match="reserved for the frequency channel"):
        pp.PowerModel(intercept_w=1.0, terms=(("FREQ_MHZ", 1.0),))
    path = tmp_path / "ds.csv"
    path.write_text("RUN,TIME,POWER_W,A,FREQ_MHZ\nr,1,1.5,2,3\n")
    with pytest.raises(pp.FormatError, match="reserved for the frequency channel"):
        pp.read_dataset(path)


def test_counter_trace_requires_increasing_time():
    with pytest.raises(ValueError, match="strictly increasing"):
        pp.CounterTrace(
            time_keys=np.array([10, 10, 30], dtype=np.uint64),
            counters=("A",),
            values=np.zeros((3, 1), dtype=np.uint32),
        )


def test_counter_trace_shape_check():
    with pytest.raises(ValueError):
        pp.CounterTrace(
            time_keys=np.array([1, 2], dtype=np.uint64),
            counters=("A", "B"),
            values=np.zeros((2, 3), dtype=np.uint32),
        )


def test_power_trace_rejects_nonpositive_power():
    with pytest.raises(ValueError):
        pp.PowerTrace(
            time_keys=np.array([1, 2], dtype=np.uint64),
            power_w=np.array([1.0, 0.0]),
        )


@pytest.mark.parametrize(
    "counters, match",
    [(("TIME", "TIME"), "reserved"), (("A", "A"), "duplicate"), (("A", ""), "empty")],
)
def test_sample_row_checks_counter_names(counters, match):
    with pytest.raises(ValueError, match=match):
        pp.SampleRow(
            time_key=1, run_id="r", counters=counters, deltas=(1, 2), power_w=1.0
        )


def test_dataset_rejects_a_run_id_that_is_not_a_string():
    with pytest.raises(ValueError, match="run id 7 is not a string"):
        pp.Dataset(
            counters=("A",),
            time_keys=np.array([1, 2], dtype=np.uint64),
            run_ids=("r0", 7),
            power_w=np.array([1.0, 1.0]),
            deltas=np.array([[1], [2]], dtype=np.uint64),
        )


def test_dataset_names_an_unhashable_run_id():
    with pytest.raises(ValueError, match=r"run id \['a'\] is not a string"):
        pp.Dataset(
            counters=("A",),
            time_keys=np.array([1], dtype=np.uint64),
            run_ids=(["a"],),
            power_w=np.array([1.0]),
            deltas=np.array([[1]], dtype=np.uint64),
        )


def test_dataset_equality_ignores_source():
    a = make_dataset(20, 3, seed=1)
    b = pp.Dataset(
        counters=a.counters,
        time_keys=a.time_keys.copy(),
        run_ids=a.run_ids,
        power_w=a.power_w.copy(),
        deltas=a.deltas.copy(),
        source="somewhere else",
    )
    assert a == b
    assert a != make_dataset(20, 3, seed=2)
    # the frequency channel counts: present on one side only, or different
    with_freq = dataclasses.replace(a, freq_mhz=np.full(20, 80.0))
    assert a != with_freq and with_freq != a
    assert with_freq == dataclasses.replace(b, freq_mhz=np.full(20, 80.0))
    assert with_freq != dataclasses.replace(a, freq_mhz=np.full(20, 40.0))


def test_dataset_rejects_oversized_deltas():
    with pytest.raises(ValueError, match="2\\^32"):
        pp.Dataset(
            counters=("A",),
            time_keys=np.array([1], dtype=np.uint64),
            run_ids=("r",),
            power_w=np.array([1.0]),
            deltas=np.array([[2**32]], dtype=np.uint64),
        )


# One column of a valid two-row instance of each type; a case replaces one
# column, with the bad value in the last row, which is all a SampleRow takes.
_GOOD_COLUMNS = {
    "time": np.array([1, 2], dtype=np.uint64),
    "count": np.array([[3], [4]], dtype=np.uint64),
    "power": np.array([1.0, 2.0]),
    "freq": np.array([80.0, 80.0]),
}
_TYPE_COLUMNS = {
    pp.CounterTrace: {"time": "TIME", "count": "counter"},
    pp.PowerTrace: {"time": "TIME", "power": "power", "freq": "frequency"},
    pp.Dataset: {"time": "TIME", "count": "delta", "power": "power", "freq": "frequency"},
    pp.SampleRow: {"time": "TIME", "count": "delta", "power": "power", "freq": "frequency"},
}
_BAD_COLUMNS = [
    ("time", "negative", [1, -3]),
    ("time", "fraction", [1.0, 2.5]),
    ("count", "2^32", np.array([[3], [2**32]], dtype=np.uint64)),
    ("count", "negative", [[3], [-1]]),
    ("count", "fraction", [[3], [4.5]]),
] + [
    (column, repr(bad), [1.0, bad])
    for column in ("power", "freq")
    for bad in (float("nan"), float("inf"), 0.0, -1.0)
]


def _build(cls, **columns):
    c = {**_GOOD_COLUMNS, **{k: np.asarray(v) for k, v in columns.items()}}
    if cls is pp.CounterTrace:
        return cls(time_keys=c["time"], counters=("A",), values=c["count"])
    if cls is pp.PowerTrace:
        return cls(time_keys=c["time"], power_w=c["power"], freq_mhz=c["freq"])
    if cls is pp.Dataset:
        return cls(
            counters=("A",),
            time_keys=c["time"],
            run_ids=("r", "r"),
            power_w=c["power"],
            deltas=c["count"],
            freq_mhz=c["freq"],
        )
    return cls(
        time_key=c["time"][-1].item(),
        run_id="r",
        counters=("A",),
        deltas=tuple(c["count"][-1].tolist()),
        power_w=c["power"][-1].item(),
        freq_mhz=c["freq"][-1].item(),
    )


@pytest.mark.parametrize(
    "cls, column, value",
    [
        pytest.param(cls, column, value, id=f"{cls.__name__}-{column}-{label}")
        for cls, names in _TYPE_COLUMNS.items()
        for column, label, value in _BAD_COLUMNS
        if column in names
    ]
    + [
        pytest.param(cls, None, None, id=f"{cls.__name__}-max-values")
        for cls in _TYPE_COLUMNS
    ],
)
def test_types_keep_the_file_rules_and_never_cast(cls, column, value):
    """Each type refuses, naming the column, what a file could not hold,
    and keeps the largest values it can."""
    if column is not None:
        with pytest.raises(ValueError, match=_TYPE_COLUMNS[cls][column]):
            _build(cls, **{column: value})
        return
    top = _build(
        cls,
        time=np.array([1, 2**64 - 1], dtype=np.uint64),
        count=np.array([[0], [2**32 - 1]], dtype=np.uint64),
    )
    if cls is pp.SampleRow:
        assert (top.time_key, top.deltas) == (2**64 - 1, (2**32 - 1,))
        return
    assert int(top.time_keys[-1]) == 2**64 - 1
    counts = top.values if cls is pp.CounterTrace else getattr(top, "deltas", None)
    if counts is not None:
        assert int(counts[-1, 0]) == 2**32 - 1


@pytest.mark.parametrize(
    "cls, column, what",
    [
        (pp.CounterTrace, "values", "counter"),
        (pp.PowerTrace, "power_w", "power"),
        (pp.Dataset, "deltas", "delta"),
    ],
)
def test_types_refuse_none_for_a_required_column(cls, column, what):
    """Only FREQ_MHZ may be absent; None for any other column is refused,
    naming it."""
    good = _build(cls)
    with pytest.raises(ValueError, match=f"^{what} shape"):
        dataclasses.replace(good, **{column: None})


@pytest.mark.parametrize(
    "cls, column, value, message",
    [
        (pp.CounterTrace, "time_keys", None, "TIME must be a column of values, got None"),
        (pp.PowerTrace, "time_keys", None, "TIME must be a column of values, got None"),
        (pp.PowerTrace, "time_keys", 7, "TIME must be a column of values, got 7"),
        (pp.Dataset, "run_ids", None, "RUN must be a column of values, got None"),
        # used to be split into the run ids ('a', 'b')
        (pp.Dataset, "run_ids", "ab", "RUN must be a column of values, got 'ab'"),
        (pp.SampleRow, "run_id", 5, "run id 5 is not a string"),
        # used to be accepted, and refused only by sync's dataset
        (pp.CounterTrace, "run_id", None, "run id None is not a string"),
        (pp.PowerTrace, "run_id", b"r", "run id b'r' is not a string"),
        # used to be accepted, and refused only by write_dataset: a
        # prediction CSV wrote "a,b" as two cells
        (pp.Dataset, "run_ids", ("a,b", "r"), "run id 'a,b' not representable in CSV"),
        (pp.CounterTrace, "run_id", "a\nb", "run id 'a\\nb' not representable in CSV"),
        (pp.PowerTrace, "run_id", "#r", "run id '#r' not representable in CSV"),
        (pp.SampleRow, "run_id", "a\rb", "run id 'a\\rb' not representable in CSV"),
    ],
)
def test_types_check_their_key_and_run_id_columns(cls, column, value, message):
    """A key or run-id column that is not one is a ValueError naming it:
    not a TypeError, a string split into run ids or a later refusal."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(_build(cls), **{column: value})


# ---------------------------------------------------------------------------
# CSV files
# ---------------------------------------------------------------------------


def test_counter_trace_csv_round_trip(tmp_path):
    trace = pp.CounterTrace(
        time_keys=np.array([10, 20, 35], dtype=np.uint64),
        counters=("ICMISS", "DCMISS"),
        values=np.array([[1, 2], [3, 4], [2**32 - 1, 7]], dtype=np.uint32),
        run_id="bench1",
    )
    path = tmp_path / "bench1.csv"
    pp.write_counter_trace(trace, path)
    back = pp.read_counter_trace(path)
    assert np.array_equal(back.time_keys, trace.time_keys)
    assert np.array_equal(back.values, trace.values)
    assert back.counters == trace.counters
    assert back.run_id == "bench1"


def test_counter_trace_run_id_defaults_to_stem(tmp_path):
    path = tmp_path / "dhrystone.csv"
    path.write_text("TIME,A\n1,2\n5,3\n")
    assert pp.read_counter_trace(path).run_id == "dhrystone"


def test_power_trace_csv_round_trip_with_freq(tmp_path):
    trace = pp.PowerTrace(
        time_keys=np.array([5, 9], dtype=np.uint64),
        power_w=np.array([2.852397617, 1.43]),
        freq_mhz=np.array([80.0, 40.0]),
    )
    path = tmp_path / "p.csv"
    pp.write_power_trace(trace, path)
    back = pp.read_power_trace(path)
    assert np.array_equal(back.power_w, trace.power_w)
    assert np.array_equal(back.freq_mhz, trace.freq_mhz)


def test_comments_skipped_and_line_numbers_physical(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "# recorded on the bench\n"
        "TIME,A\n"
        "# calibration block\n"
        "100,5\n"
        "90,6\n"
    )
    with pytest.raises(pp.FormatError) as err:
        pp.read_counter_trace(path)
    assert "strictly increasing" in str(err.value)
    assert "line 5" in str(err.value)


def test_non_numeric_cell_rejected_with_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("TIME,A\n1,2\n3,x\n")
    with pytest.raises(pp.FormatError, match="line 3"):
        pp.read_counter_trace(path)


def test_negative_and_float_counter_cells_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("TIME,A\n1,-2\n")
    with pytest.raises(pp.FormatError):
        pp.read_counter_trace(path)
    path.write_text("TIME,A\n1,2.5\n")
    with pytest.raises(pp.FormatError):
        pp.read_counter_trace(path)


def test_counter_value_range_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(f"TIME,A\n1,{2**32}\n")
    with pytest.raises(pp.FormatError, match="out of range"):
        pp.read_counter_trace(path)


def test_wrong_column_count_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("TIME,A,B\n1,2\n")
    with pytest.raises(pp.FormatError, match="expected 3 columns"):
        pp.read_counter_trace(path)


def test_crlf_line_ending_rejected_naming_the_cr(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"TIME,A\r\n1,2\r\n")
    with pytest.raises(pp.FormatError, match="carriage return.* at line 1$"):
        pp.read_counter_trace(path)
    path.write_bytes(b"TIME,POWER_W\n1,2.5\n3,2.5\r\n")
    with pytest.raises(pp.FormatError, match="carriage return.* at line 3$"):
        pp.read_power_trace(path)


def test_form_feed_does_not_end_a_line(tmp_path):
    """Only LF ends a line, so line numbers stay physical."""
    path = tmp_path / "bad.csv"
    path.write_bytes(b"TIME,A\n1,2\x0c\n3,x\n")
    with pytest.raises(pp.FormatError) as err:
        pp.read_counter_trace(path)
    assert str(err.value).endswith("non-numeric counter cell '2\\x0c' at line 2")


def test_invalid_utf8_rejected_with_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"RUN,TIME,POWER_W,A\nr0,1,2.5,3\nr\xff,2,2.5,3\n")
    with pytest.raises(pp.FormatError, match="invalid UTF-8 at line 3$"):
        pp.read_dataset(path)


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# nothing here\n")
    with pytest.raises(pp.FormatError, match="missing header"):
        pp.read_dataset(path)


def test_dataset_missing_power_column_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("RUN,TIME,A\nr0,1,2\n")
    with pytest.raises(pp.FormatError):
        pp.read_dataset(path)


def test_power_header_shape_enforced(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("TIME,WATTS\n1,2.0\n")
    with pytest.raises(pp.FormatError):
        pp.read_power_trace(path)


def test_dataset_csv_round_trip_exact(tmp_path):
    ds = make_dataset(40, 3, seed=7, n_runs=4)
    path = tmp_path / "d.csv"
    pp.write_dataset(ds, path)
    back = pp.read_dataset(path)
    assert back == ds
    # floats are written via repr, so a rewrite is byte-identical
    path2 = tmp_path / "d2.csv"
    pp.write_dataset(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_empty_dataset_round_trips(tmp_path):
    ds = pp.Dataset(
        counters=("A", "B"),
        time_keys=np.array([], dtype=np.uint64),
        run_ids=(),
        power_w=np.array([], dtype=np.float64),
        deltas=np.zeros((0, 2), dtype=np.uint64),
    )
    path = tmp_path / "empty.csv"
    pp.write_dataset(ds, path)
    assert pp.read_dataset(path) == ds


def test_run_id_with_comma_not_writable(tmp_path):
    with pytest.raises(ValueError):
        pp.Dataset(
            counters=("A",),
            time_keys=np.array([1], dtype=np.uint64),
            run_ids=("r,0",),
            power_w=np.array([1.0]),
            deltas=np.array([[2]], dtype=np.uint64),
        )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 30),
    p=st.integers(1, 5),
    seed=st.integers(0, 10**6),
    with_freq=st.booleans(),
)
def test_dataset_round_trip_property(tmp_path_factory, n, p, seed, with_freq):
    """write -> read recovers the dataset exactly, freq channel included."""
    rng = np.random.default_rng(seed)
    ds = pp.Dataset(
        counters=tuple(f"C{i}" for i in range(1, p + 1)),
        time_keys=np.cumsum(rng.integers(1, 2**40, size=n, dtype=np.uint64)),
        run_ids=tuple(rng.choice(["a", "b", "c"]) for _ in range(n)),
        power_w=np.exp(rng.uniform(-20, 20, size=n)),
        deltas=rng.integers(0, 2**32, size=(n, p), dtype=np.uint64),
        freq_mhz=rng.uniform(1, 1000, size=n) if with_freq else None,
    )
    path = tmp_path_factory.mktemp("rt") / "ds.csv"
    pp.write_dataset(ds, path)
    assert pp.read_dataset(path) == ds


def test_large_dataset_round_trip_byte_identical(tmp_path):
    """A full-scale dataset file survives read/rewrite byte-for-byte."""
    model = pp.PowerModel(intercept_w=2.0, terms=(("A", 1e-6), ("B", 4e-7)))
    spec = pp.GenSpec(
        true_model=model,
        n_samples=288001,
        counter_ranges={"A": (0, 500000), "B": (0, 200000)},
        noise_rel=0.01,
        seed=42,
    )
    ds = pp.generate(spec).dataset
    assert ds.n_rows == 288000
    p1 = tmp_path / "big1.csv"
    p2 = tmp_path / "big2.csv"
    pp.write_dataset(ds, p1)
    back = pp.read_dataset(p1)
    pp.write_dataset(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert back == ds


@pytest.mark.parametrize(
    "run_id", ["a\x0cb", "a\x85b", "a\u2028b", "a\x1cb", "", "x y"]
)
def test_unusual_run_ids_round_trip(tmp_path, run_id):
    """Characters str.splitlines() breaks on are ordinary run id text, and
    so are an empty id and a space (which the bulk reader leaves to the
    per-cell one)."""
    ds = pp.Dataset(
        counters=("A",),
        time_keys=np.array([1, 2], dtype=np.uint64),
        run_ids=(run_id, "r1"),
        power_w=np.array([1.5, 2.5]),
        deltas=np.array([[3], [4]], dtype=np.uint64),
    )
    path = tmp_path / "d.csv"
    pp.write_dataset(ds, path)
    assert pp.read_dataset(path) == ds


def test_csv_io_memory_is_bounded_by_file_size(tmp_path, monkeypatch):
    """Reading and writing work in blocks, so their traced peak stays a
    small multiple of the file size.  Blocks an eighth of their size keep
    the ratios of an eight times larger file.  Formatting the whole file at
    once breaks the write bound (about 6x).  A read in one block measures
    about 3.6x, within the loose read bound here, so the tight read bound
    is ``test_reading_holds_a_few_blocks_beyond_its_result``'s."""
    monkeypatch.setattr(dataset, "_PARSE_BLOCK_BYTES", dataset._PARSE_BLOCK_BYTES // 8)
    monkeypatch.setattr(dataset, "_WRITE_BLOCK_CELLS", dataset._WRITE_BLOCK_CELLS // 8)
    n = 12_500
    rng = np.random.default_rng(0)
    ds = pp.Dataset(
        counters=("A", "B"),
        time_keys=np.arange(1, n + 1, dtype=np.uint64) * 1000,
        run_ids=tuple(f"r{i * 10 // n}" for i in range(n)),
        power_w=rng.uniform(1, 5, n),
        deltas=rng.integers(0, 2**20, size=(n, 2), dtype=np.uint64),
    )
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        pp.write_dataset(ds, path)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = pp.read_dataset(path)  # the peak includes the dataset read
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert back == ds
    assert write_peak < 0.5 * size
    assert read_peak < 5 * size


def _result_bytes(result) -> int:
    """The bytes a trace or dataset holds in its arrays and, for a dataset,
    its run id tuple."""
    arrays = sum(v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray))
    return arrays + sys.getsizeof(getattr(result, "run_ids", ()))


@pytest.mark.parametrize("n", [100_000, 400_000])
def test_reading_holds_a_few_blocks_beyond_its_result(tmp_path, monkeypatch, n):
    """The bulk reader streams a file in two passes and parses each block
    straight into the result's dtypes, so a read's traced peak beyond what
    it returns stays a few parse blocks at any size.  Holding the file's
    bytes, or parsing counts into uint64 first, grows with the file.  A
    dataset's RUN tuple is built once, from runs of one shared str each:
    a column of pointers beside it would add 8 bytes a row, and a str per
    row about 50.

    The files are as many blocks long as n rows are at the default block
    (19 to 111), at an eighth of the rows and an eighth of the block:
    tracemalloc makes numpy's parse slow, about 10 s at 400k rows."""
    monkeypatch.setattr(dataset, "_PARSE_BLOCK_BYTES", dataset._PARSE_BLOCK_BYTES // 8)
    n //= 8
    rng = np.random.default_rng(n)
    names = ("A", "B", "C", "D")
    keys = np.arange(1, n + 1, dtype=np.uint64) * 1000
    counts = rng.integers(0, 2**32, size=(n, 4), dtype=np.uint32)
    pmc, ds = tmp_path / "pmc.csv", tmp_path / "ds.csv"
    pp.write_counter_trace(pp.CounterTrace(keys, names, counts), pmc)
    runs = tuple(f"r{i * 10 // n}" for i in range(n))
    pp.write_dataset(pp.Dataset(names, keys, runs, rng.uniform(1, 5, n), counts), ds)
    del runs
    block = dataset._PARSE_BLOCK_BYTES
    for read, path in ((pp.read_counter_trace, pmc), (pp.read_dataset, ds)):
        tracemalloc.start()
        try:
            result = read(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(result.time_keys, keys), path
        extra = peak - _result_bytes(result)
        assert extra < 8 * block, (path, extra / block)
        del result


def test_a_small_file_takes_a_small_read_buffer(tmp_path):
    """No read asks for more than the bytes left in the file, so reading
    101 rows peaks far below one parse block: asking for a whole block
    allocated 256 KiB for a 2 KiB trace."""
    n = 101
    keys = np.arange(1, n + 1, dtype=np.uint64) * 1000
    counts = np.arange(2 * n, dtype=np.uint32).reshape(n, 2)
    pmc, ds = tmp_path / "pmc.csv", tmp_path / "ds.csv"
    pp.write_counter_trace(pp.CounterTrace(keys, ("A", "B"), counts), pmc)
    runs = ("r0",) * n
    pp.write_dataset(pp.Dataset(("A", "B"), keys, runs, np.full(n, 2.5), counts), ds)
    for read, path in ((pp.read_counter_trace, pmc), (pp.read_dataset, ds)):
        tracemalloc.start()
        try:
            result = read(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(result.time_keys, keys), path
        assert peak < dataset._PARSE_BLOCK_BYTES // 4, (path, peak)


@pytest.mark.parametrize(
    "header, row, read",
    [
        ("TIME,A", "{t},{v}", pp.read_counter_trace),
        ("RUN,TIME,POWER_W,A", "r0,{t},1.5,{v}", pp.read_dataset),
    ],
)
def test_bulk_reader_takes_32_bit_counts_up_to_their_bound(tmp_path, header, row, read):
    """Counts and deltas parse straight into uint32: 2^32 - 1 stays on the
    bulk path, and 2^32, which does not fit, goes to the per-cell reader,
    which names its line."""
    fields_of = dataset._counter_fields if header[0] == "T" else dataset._dataset_fields
    path = tmp_path / "t.csv"
    top = 2**32 - 1
    lines = [header] + [row.format(t=t, v=v) for t, v in ((1, 0), (2, top), (3, 7))]
    raw = "\n".join(lines).encode() + b"\n"
    _, cols = dataset._read_bulk(io.BytesIO(raw), fields_of, path)
    assert cols[-1].dtype == np.uint32
    assert cols[-1][:, 0].tolist() == [0, top, 7]
    bad = raw.replace(str(top).encode(), str(2**32).encode())
    assert dataset._read_bulk(io.BytesIO(bad), fields_of, path) is None
    path.write_bytes(bad)
    with pytest.raises(pp.FormatError, match=f"value {2**32} out of range at line 3$"):
        read(path)


# one formatter per cell: what write_columns' block-wide printf must equal
_CELL_FORMATS = {
    "%s": str,
    "%r": repr,
    pp.regress.WATTS_SPEC: lambda v: format(v, ".6g"),
}
_SPECIAL_UINTS = [0, 2**32, 2**64 - 1]
_SPECIAL_FLOATS = [5e-324, 2.2250738585072014e-308, 0.0, -0.0, 1e16, 1e-5, 0.1]
_ODD_RUN_IDS = ["%", "%s", "%%d", "{", "{0}", "a\x0cb", "\u00e9\u2603", ""]


def _reference_csv(header, columns) -> str:
    lines = [",".join(header)]
    for i in range(len(columns[0][0])):
        cells = []
        for values, spec in columns:
            fmt = _CELL_FORMATS[spec]
            if isinstance(values, np.ndarray):
                cells += [fmt(v) for v in np.atleast_1d(values[i]).tolist()]
            else:
                cells.append(fmt(values[i]))
        lines.append(",".join(cells))
    return "".join(line + "\n" for line in lines)


@settings(max_examples=40, deadline=None)
@given(
    blocks=st.integers(0, 2),
    offset=st.integers(-1, 1) | st.integers(0, 40),
    width=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    run_ids=st.lists(st.text() | st.sampled_from(_ODD_RUN_IDS), min_size=1, max_size=4),
)
def test_write_columns_matches_per_cell_formatting(blocks, offset, width, seed, run_ids):
    """One printf call per block writes what str, repr and the 6-digit watt
    format write cell by cell, on either side of a block boundary."""
    n = max(0, blocks * dataset._write_block_rows(4 + width) + offset)
    rng = np.random.default_rng(seed)
    uints = np.frombuffer(rng.bytes(8 * n * (width + 1)), dtype=np.uint64)
    floats = np.frombuffer(rng.bytes(8 * 2 * n), dtype=np.float64)
    # every special value, where the rows allow, over the random bits
    uints = uints.copy()
    uints[: min(n, 3)] = _SPECIAL_UINTS[: min(n, 3)]
    floats = floats.copy()
    k = min(2 * n, len(_SPECIAL_FLOATS))
    floats[:k] = _SPECIAL_FLOATS[:k]
    header = ["RUN", "TIME", "X", "W"] + [f"C{j}" for j in range(width)]
    columns = [
        (tuple(run_ids[i % len(run_ids)] for i in range(n)), "%s"),
        (uints[:n], "%s"),
        (floats[:n], "%r"),
        (floats[n:], pp.regress.WATTS_SPEC),
        (uints[n:].reshape(n, width), "%s"),
    ]
    out = io.StringIO()
    dataset.write_columns(out, header, columns)
    assert out.getvalue() == _reference_csv(header, columns)


@pytest.mark.parametrize("width", [2, 20])
def test_the_writer_holds_one_block_of_cells_at_any_size(tmp_path, width):
    """A write formats ``_WRITE_BLOCK_CELLS`` cells at a time, whatever the
    width, so its traced peak (about 60 bytes a cell) does not grow with
    the rows or the columns: blocks of 1,024 rows held 1.2 MB at 19
    columns, against 0.25 MB at 4."""
    rng = np.random.default_rng(width)
    peaks = []
    for n in (2_000, 8_000):
        columns = [
            (np.arange(n, dtype=np.uint64), "%s"),
            (rng.uniform(1, 5, n), "%r"),
            (rng.integers(0, 2**32, (n, width - 2), dtype=np.uint32), "%s"),
        ]
        header = [f"C{j}" for j in range(width)]
        with open(tmp_path / "out.csv", "w", encoding="utf-8") as f:
            tracemalloc.start()
            try:
                dataset.write_columns(f, header, columns)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert max(peaks) < 100 * dataset._WRITE_BLOCK_CELLS, peaks


def test_format_watts_is_the_writers_watt_format():
    for v in _SPECIAL_FLOATS + [2.852397617, 123456789.0]:
        assert pp.format_watts(v) == format(v, ".6g")


def test_write_columns_rejects_mismatched_columns():
    columns = [(np.arange(3, dtype=np.uint64), "%s"), (np.ones((4, 2)), "%r")]
    with pytest.raises(ValueError, match="column 'A' has 4 rows, not 3"):
        dataset.write_columns(io.StringIO(), ["TIME", "A", "B"], columns)
    with pytest.raises(ValueError, match="column 'RUN' has 2 rows, not 3"):
        dataset.write_columns(
            io.StringIO(),
            ["TIME", "RUN"],
            [(np.arange(3, dtype=np.uint64), "%s"), (("a", "b"), "%s")],
        )
    with pytest.raises(ValueError, match="2 header names for 3 columns"):
        dataset.write_columns(io.StringIO(), ["TIME", "A"], columns)


def test_body_comment_line_goes_to_the_per_cell_reader(tmp_path):
    """A body line ``#r0,...`` with valid cells parses under loadtxt as a
    run named ``#r0``; ``Dataset`` must refuse that bulk table, so the file
    goes to the per-cell reader, which skips the line as a comment."""
    ds = make_dataset(6, 2, seed=3)
    path = tmp_path / "d.csv"
    pp.write_dataset(ds, path)
    lines = path.read_bytes().split(b"\n")
    comment = b"#" + lines[3]
    assert comment.startswith(b"#r0,") and comment.count(b",") == len(ds.counters) + 2
    data = b"\n".join(lines[:3] + [comment] + lines[3:])
    fields = dataset._dataset_fields(lines[0].decode().split(","), path)
    dtype = [(str(i), dataset._DTYPES[f.kind], f.shape) for i, f in enumerate(fields)]
    parsed = np.loadtxt(
        io.BytesIO(comment), dtype=dtype, delimiter=",", comments=None, ndmin=1
    )
    assert parsed["0"].tolist() == ["#r0"]
    bulk = dataset._read_bulk(io.BytesIO(data), dataset._dataset_fields, path)
    with pytest.raises(ValueError, match="run id '#r0' not representable"):
        dataset._build(pp.Dataset, dataset._DATASET_COLUMNS, *bulk)
    path.write_bytes(data)
    assert pp.read_dataset(path) == ds


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("block_bytes", [1, dataset._PARSE_BLOCK_BYTES])
@pytest.mark.parametrize("where", ["middle", "end"])
def test_blank_line_goes_to_the_per_cell_reader(
    tmp_path, monkeypatch, block_bytes, where
):
    """loadtxt skips blank lines, so the bulk path must hand a file that
    has one to the per-cell reader, which names the line; with one-line
    parse blocks a blank line is a block of its own."""
    monkeypatch.setattr(dataset, "_PARSE_BLOCK_BYTES", block_bytes)
    body = "".join(f"{t},{t % 7}\n" for t in range(1, 6))
    if where == "middle":
        body = body[:8] + "\n" + body[8:]
    text = "TIME,A\n" + body + ("\n" if where == "end" else "")
    blank = text.split("\n").index("", 1) + 1
    path = tmp_path / "t.csv"
    path.write_text(text)
    assert dataset._read_bulk(io.BytesIO(text.encode()), dataset._counter_fields, path) is None
    with pytest.raises(pp.FormatError, match=f"empty line at line {blank}$"):
        pp.read_counter_trace(path)


def test_a_file_that_grows_between_the_passes_goes_to_the_per_cell_reader(
    tmp_path, monkeypatch
):
    """The first pass counts the rows; a file with more rows by the second
    pass gives no bulk table, and the public reader returns the per-cell
    reader's result for the grown file."""
    path = tmp_path / "t.csv"
    path.write_text("TIME,A\n1,5\n2,6\n")
    blocks, calls = dataset._blocks, []

    def growing(stream):
        calls.append(stream)
        if len(calls) % 2 == 0:  # each read's second pass: one row more
            with open(path, "ab") as f:
                f.write(b"%d,7\n" % (2 + len(calls) // 2))
        return blocks(stream)

    monkeypatch.setattr(dataset, "_blocks", growing)
    with open(path, "rb") as f:
        assert dataset._read_bulk(f, dataset._counter_fields, path) is None
    trace = pp.read_counter_trace(path)
    assert len(calls) == 4
    _, (keys, values) = dataset._read_cells(path.read_bytes(), dataset._counter_fields, path)
    assert keys.tolist() == [1, 2, 3, 4]
    assert np.array_equal(trace.time_keys, keys)
    assert np.array_equal(trace.values, values)


def test_a_bulk_read_checks_each_column_once(tmp_path, monkeypatch):
    """The bulk path applies no value rule, so reading a writer-made
    dataset checks each array column once, in the constructor; the bulk
    reader used to check every column before the constructor did again."""
    ds = make_dataset(50, 3, seed=2)
    ds = dataclasses.replace(ds, freq_mhz=np.full(len(ds), 800.0))
    path = tmp_path / "d.csv"
    pp.write_dataset(ds, path)
    check, checked = dataset._Field.check, []

    def spy(f, values, shape):
        checked.append(f.what)
        return check(f, values, shape)

    monkeypatch.setattr(dataset._Field, "check", spy)
    assert pp.read_dataset(path) == ds
    assert checked == ["TIME", "power", "frequency", "delta"]


def test_concat_single_dataset_passthrough():
    ds = make_dataset(10, 2, seed=1)
    assert pp.concat_datasets([ds]) is ds


def test_concat_prefixes_run_ids():
    a = make_dataset(6, 2, seed=1, n_runs=2)
    b = make_dataset(4, 2, seed=2)
    merged = pp.concat_datasets([a, b], source="merged")
    assert merged.n_rows == 10
    assert merged.run_ids[0].startswith("d0:")
    assert merged.run_ids[-1].startswith("d1:")
    assert len(set(merged.run_ids)) == 3
    assert merged.run_ids == tuple(
        f"d{i}:{r}" for i, ds in enumerate((a, b)) for r in ds.run_ids
    )
    # one label object per (dataset, run), shared by that run's rows
    assert len({id(r) for r in merged.run_ids}) == 3


def test_concat_header_mismatch_rejected():
    a = make_dataset(5, 2, seed=1)
    b = make_dataset(5, 3, seed=1)
    with pytest.raises(ValueError, match="headers differ"):
        pp.concat_datasets([a, b])
    with pytest.raises(ValueError, match="no datasets to concatenate"):
        pp.concat_datasets([])
    with_freq = dataclasses.replace(a, freq_mhz=np.full(a.n_rows, 80.0))
    with pytest.raises(ValueError, match="frequency channel present in some datasets only"):
        pp.concat_datasets([a, with_freq])


@pytest.mark.parametrize(
    "cell", ["1_0", " 2.5", "2.5 ", "2.5\x0c", "+4", "+4.5e1", "٣.5", "２.5"]
)
def test_float_cells_reject_what_float_alone_would_read(tmp_path, cell):
    path = tmp_path / "power.csv"
    path.write_text(f"TIME,POWER_W\n1,1.5\n2,{cell}\n", encoding="utf-8")
    with pytest.raises(pp.FormatError, match=r"non-numeric power cell .* at line 3"):
        pp.read_power_trace(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
def test_float_cells_reject_non_finite(tmp_path, cell):
    path = tmp_path / "power.csv"
    path.write_text(f"TIME,POWER_W\n1,{cell}\n")
    with pytest.raises(pp.FormatError, match="non-finite power value at line 2"):
        pp.read_power_trace(path)


def test_float_cells_keep_exponent_signs(tmp_path):
    path = tmp_path / "power.csv"
    path.write_text("TIME,POWER_W,FREQ_MHZ\n1,1.5e+20,2.5E-3\n2,3.,.5\n")
    trace = pp.read_power_trace(path)
    assert trace.power_w.tolist() == [1.5e20, 3.0]
    assert trace.freq_mhz.tolist() == [2.5e-3, 0.5]


# ---------------------------------------------------------------------------
# JSON artifacts
# ---------------------------------------------------------------------------

_MODEL = pp.PowerModel(
    intercept_w=1.5,
    terms=(("A", 2e-6),),
    training=pp.TrainingMeta("bottom_up", 4, 1.25, 1.0),
)
_REPORT = pp.SearchReport(
    algorithm="bottom_up",
    folds=4,
    fold_seed=0,
    pool=("A",),
    stop_reason="converged",
    initial_cv_mape_pct=2.0,
    iterations=(pp.SearchIteration("add", "A", 1.25, {"A": 1.25}),),
    final_model=_MODEL,
    final_cv_mape_pct=1.25,
)
_SPEC = pp.GenSpec(
    true_model=_MODEL, n_samples=10, counter_ranges={"A": (0, 5)}, noise_rel=0.01
)

# what, writer, reader, and a float key the artifact holds once
_JSON_ARTIFACTS = {
    "model": (lambda p: pp.write_model(_MODEL, p), pp.read_model, "cv_mape_pct"),
    "search report": (
        lambda p: pp.write_report(_REPORT, p),
        pp.read_report,
        "final_cv_mape_pct",
    ),
    "gen spec": (lambda p: pp.write_gen_spec(_SPEC, p), pp.read_gen_spec, "noise_rel"),
}


@pytest.mark.parametrize("what", _JSON_ARTIFACTS)
@pytest.mark.parametrize(
    "value, message",
    [
        (b"NaN", "non-finite number NaN"),
        (b"Infinity", "non-finite number Infinity"),
        (b"-Infinity", "non-finite number -Infinity"),
        (b"1e400", "non-finite number 1e400"),
        (b"1" + b"0" * 400, "non-finite number 1000"),
        (b'"\xe9"', "'utf-8' codec can't decode byte 0xe9"),
    ],
    ids=["NaN", "Infinity", "-Infinity", "1e400", "10**400", "latin-1"],
)
def test_json_readers_reject_non_finite_numbers_and_bad_bytes(
    tmp_path, what, value, message
):
    write, read, key = _JSON_ARTIFACTS[what]
    path = tmp_path / "a.json"
    write(path)
    pattern = rb'("%s": )[^,\n]+' % key.encode()
    data, n = re.subn(pattern, rb"\g<1>" + value, path.read_bytes())
    assert n == 1
    path.write_bytes(data)
    want = re.escape(f"{path}: bad {what} JSON: {message}")
    with pytest.raises(pp.FormatError, match=want):
        read(path)


@pytest.mark.parametrize("what", _JSON_ARTIFACTS)
def test_json_readers_reject_nesting_too_deep_to_parse(tmp_path, what):
    path = tmp_path / "a.json"
    path.write_text("[" * 200_000)
    want = re.escape(f"{path}: bad {what} JSON: maximum recursion depth exceeded")
    with pytest.raises(pp.FormatError, match=want):
        _JSON_ARTIFACTS[what][1](path)


@pytest.mark.parametrize(
    "what, key",
    [
        ("model", "intercept_w"),
        ("model", "cv_mape_pct"),  # in "training"
        ("search report", "final_cv_mape_pct"),
        ("search report", "intercept_w"),  # in "final_model"
        ("gen spec", "noise_rel"),
        ("gen spec", "intercept_w"),  # in "true_model"
    ],
)
def test_json_readers_reject_a_duplicate_key(tmp_path, what, key):
    # the parser would keep the last value; a repeated key, even with an
    # equal value, is an error wherever it sits
    write, read, _ = _JSON_ARTIFACTS[what]
    path = tmp_path / "a.json"
    write(path)
    pattern = rb'( *"%s": [^,\n]+)(,?)\n' % key.encode()
    data, n = re.subn(pattern, rb"\1,\n\1\2\n", path.read_bytes())
    assert n == 1
    path.write_bytes(data)
    want = re.escape(f"{path}: bad {what} JSON: duplicate key '{key}'")
    with pytest.raises(pp.FormatError, match=want):
        read(path)


def test_json_writer_refuses_non_finite_numbers(tmp_path):
    # no artifact constructor takes a NaN or +-inf it would write, so the
    # writer's own refusal is tested on a plain JSON value
    path = tmp_path / "m.json"
    for value in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="not JSON compliant"):
            dataset.write_json({"training": {"cv_mape_pct": value}}, path)
    assert not path.exists()


_PLAIN_MODEL = pp.PowerModel(intercept_w=1.5, terms=(("A", 2e-06), ("B", 0.1 + 0.2)))
_TRAINED_MODEL = dataclasses.replace(
    _PLAIN_MODEL, training=pp.TrainingMeta("exhaustive", 4, 1.25, 0.75)
)
# a null score in a step and in subset_scores
_SCORED_REPORT = pp.SearchReport(
    algorithm="exhaustive",
    folds=4,
    fold_seed=3,
    pool=("A", "B"),
    stop_reason="all subsets scored",
    initial_cv_mape_pct=2.5,
    iterations=(pp.SearchIteration("add", "A", 1.25, {"A": 1.25, "B": math.inf}),),
    final_model=_PLAIN_MODEL,
    final_cv_mape_pct=1.25,
    subset_scores={"": 2.5, "A": 1.25, "B": math.inf, "A+B": 1.3},
)
# each artifact class, named by its json_name, and artifacts of it
_DICT_APIS = {
    cls.json_name: (cls, artifacts)
    for cls, artifacts in [
        (pp.PowerModel, [_PLAIN_MODEL, _TRAINED_MODEL]),
        (pp.GenSpec, [_SPEC, pp.default_gen_spec()]),
        (pp.SearchReport, [_REPORT, _SCORED_REPORT]),
    ]
}


def _json_types_only(value) -> bool:
    if isinstance(value, dict):
        return all(type(k) is str and _json_types_only(v) for k, v in value.items())
    if isinstance(value, list):
        return all(_json_types_only(v) for v in value)
    return value is None or type(value) in (str, int, float, bool)


@pytest.mark.parametrize("what", _DICT_APIS)
def test_dict_api_round_trips_through_json_types(what):
    # a tuple left in the dict writes the same bytes as a list, but reads
    # back as "pool must be list"
    cls, artifacts = _DICT_APIS[what]
    for artifact in artifacts:
        data = dataset.to_json(artifact)
        assert _json_types_only(data)
        assert dataset.from_json(cls, data, what) == artifact


_PLAIN_MODEL_JSON = """\
{
  "kind": "pmc",
  "intercept_w": 1.5,
  "terms": [
    {
      "counter": "A",
      "coefficient": 2e-06
    },
    {
      "counter": "B",
      "coefficient": 0.30000000000000004
    }
  ]
}
"""
_TRAINED_MODEL_JSON = """\
{
  "kind": "pmc",
  "intercept_w": 1.5,
  "terms": [
    {
      "counter": "A",
      "coefficient": 2e-06
    },
    {
      "counter": "B",
      "coefficient": 0.30000000000000004
    }
  ],
  "training": {
    "algorithm": "exhaustive",
    "folds": 4,
    "cv_mape_pct": 1.25,
    "train_mape_pct": 0.75
  }
}
"""
_DEFAULT_SPEC_JSON = """\
{
  "true_model": {
    "kind": "pmc",
    "intercept_w": 1.5,
    "terms": [
      {
        "counter": "CPU_OP",
        "coefficient": 2e-06
      },
      {
        "counter": "MEM_ACC",
        "coefficient": 5e-07
      }
    ]
  },
  "n_samples": 300,
  "counter_ranges": {
    "CPU_OP": [
      0,
      400000
    ],
    "MEM_ACC": [
      0,
      150000
    ],
    "IO_EVT": [
      0,
      50000
    ]
  },
  "n_runs": 1,
  "sample_period_cycles": 842105,
  "noise_rel": 0.01,
  "seed": 0,
  "drop_rate": 0.0,
  "inject_wrap": false
}
"""
_SCORED_REPORT_JSON = """\
{
  "algorithm": "exhaustive",
  "folds": 4,
  "fold_seed": 3,
  "pool": [
    "A",
    "B"
  ],
  "stop_reason": "all subsets scored",
  "initial_cv_mape_pct": 2.5,
  "iterations": [
    {
      "action": "add",
      "counter": "A",
      "cv_mape_pct": 1.25,
      "candidate_scores": {
        "A": 1.25,
        "B": null
      }
    }
  ],
  "final_model": {
    "kind": "pmc",
    "intercept_w": 1.5,
    "terms": [
      {
        "counter": "A",
        "coefficient": 2e-06
      },
      {
        "counter": "B",
        "coefficient": 0.30000000000000004
      }
    ]
  },
  "final_cv_mape_pct": 1.25,
  "subset_scores": {
    "": 2.5,
    "A": 1.25,
    "B": null,
    "A+B": 1.3
  }
}
"""


@pytest.mark.parametrize(
    "write, artifact, text",
    [
        (pp.write_model, _PLAIN_MODEL, _PLAIN_MODEL_JSON),
        (pp.write_model, _TRAINED_MODEL, _TRAINED_MODEL_JSON),
        (pp.write_gen_spec, pp.default_gen_spec(), _DEFAULT_SPEC_JSON),
        (pp.write_report, _SCORED_REPORT, _SCORED_REPORT_JSON),
    ],
    ids=["model", "trained model", "default gen spec", "scored report"],
)
def test_json_writers_keep_their_bytes(tmp_path, write, artifact, text):
    path = tmp_path / "a.json"
    write(artifact, path)
    assert path.read_text(encoding="utf-8") == text
