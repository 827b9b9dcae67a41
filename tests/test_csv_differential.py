"""The bulk CSV reader against the per-cell reader, on corrupted files.

Valid traces and datasets are written by the package's writers, then each
edit in ``EDITS`` is applied on its own, at a drawn line and cell.  Wherever
the bulk reader returns a result, the per-cell reader must accept the file
with the same values; wherever the per-cell reader rejects, the public
reader must raise its exact error, line number included.
"""

import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pmcpower as pp
from pmcpower import dataset

READERS = {
    "pmc": (dataset._counter_fields, pp.read_counter_trace),
    "power": (dataset._power_fields, pp.read_power_trace),
    "dataset": (dataset._dataset_fields, pp.read_dataset),
}

# every run id here is one the bulk reader takes
RUN_IDS = ["r0", "run-1", "x#y", 'a"b', ""]

CELLS = [
    "+1", " 1", "1 ", "\t1", "007", "0", "-0", "-1", "1e3", ".5", "5.",
    str(2**32 - 1), str(2**32), str(2**64 - 1), str(2**64),
    "nan", "inf", "-inf", "1e400", "1_0", "٣", "３", "", "x",
    "0.0", "-1.5", "5e-324", "1.7976931348623157e308", "a\x0cb", "1,2",
]

EDITS = [
    "blank", "spaces", "cr", "crlf", "comment", "comment_out", "short",
    "long", "no_final_lf", "empty_body", "swap", "form_feed", "lead_comment",
    "latin1_comment", "latin1_cell",
] + [("cell", cell) for cell in CELLS]


def _write(kind, rng, n, p, with_freq, path):
    keys = np.cumsum(rng.integers(1, 2**40, size=n, dtype=np.uint64))
    power = np.exp(rng.uniform(-20, 20, size=n))
    freq = rng.uniform(1, 1000, size=n) if with_freq else None
    names = tuple(f"C{i}" for i in range(p))
    if kind == "pmc":
        values = rng.integers(0, 2**32, size=(n, p), dtype=np.uint64)
        pp.write_counter_trace(pp.CounterTrace(keys, names, values), path)
    elif kind == "power":
        pp.write_power_trace(pp.PowerTrace(keys, power, freq), path)
    else:
        ds = pp.Dataset(
            counters=names[: p - 1],
            time_keys=keys,
            run_ids=tuple(RUN_IDS[i] for i in rng.integers(0, len(RUN_IDS), size=n)),
            power_w=power,
            deltas=rng.integers(0, 2**32, size=(n, p - 1), dtype=np.uint64),
            freq_mhz=freq,
        )
        pp.write_dataset(ds, path)


def _mutate(raw: bytes, edit, draw) -> bytes:
    lines = raw.decode("utf-8").split("\n")[:-1]
    last = len(lines) - 1
    pick = lambda lo=0: draw(st.integers(min(lo, last), last))  # noqa: E731
    if edit in ("blank", "spaces", "comment"):
        line = {"blank": "", "spaces": "  ", "comment": "# mid-file note"}[edit]
        lines.insert(draw(st.integers(0 if edit != "comment" else 1, len(lines))), line)
    elif edit == "comment_out":
        lines[pick(1)] = "#" + lines[pick(1)]
    elif edit == "cr":
        lines[pick()] += "\r"
    elif edit == "crlf":
        lines = [line + "\r" for line in lines]
    elif edit == "short":
        i = pick(1)
        lines[i] = lines[i].rpartition(",")[0]
    elif edit == "long":
        lines[pick(1)] += ",1"
    elif edit == "no_final_lf":
        return "\n".join(lines).encode("utf-8")
    elif edit == "empty_body":
        lines = lines[:1]
    elif edit == "swap" and len(lines) > 2:
        i = pick(1)
        j = i + 1 if i + 1 < len(lines) else i - 1
        lines[i], lines[j] = lines[j], lines[i]
    elif edit == "form_feed":
        i = pick()
        at = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + "\x0c" + lines[i][at:]
    elif edit == "lead_comment":
        lines.insert(0, "# café bench, 2 runs\r")
    elif edit == "latin1_comment":
        return "# café\n".encode("latin-1") + raw
    elif edit == "latin1_cell":
        i = pick()
        lines[i] += "é"
        return "\n".join(lines).encode("latin-1") + b"\n"
    elif edit[0] == "cell":
        i = pick(1)
        cells = lines[i].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = edit[1]
        lines[i] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _outcome(call):
    try:
        return "ok", call()
    except pp.FormatError as exc:
        return "error", str(exc)


def _same_table(a, b) -> bool:
    (head_a, cols_a), (head_b, cols_b) = a, b
    if head_a != head_b or len(cols_a) != len(cols_b):
        return False
    for x, y in zip(cols_a, cols_b):
        if isinstance(x, tuple) or isinstance(y, tuple):
            if x != y:
                return False
        elif x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
            return False
    return True


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(sorted(READERS)),
    n=st.integers(0, 12),
    p=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    with_freq=st.booleans(),
    data=st.data(),
)
def test_bulk_reader_agrees_with_per_cell_reader(
    tmp_path_factory, kind, n, p, seed, with_freq, data
):
    """Every edit in EDITS, each at a drawn place, on one written file."""
    fields_of, read = READERS[kind]
    path = tmp_path_factory.mktemp("fuzz") / f"{kind}.csv"
    _write(kind, np.random.default_rng(seed), n, p, with_freq, path)
    valid = path.read_bytes()
    # a file as the writers produce it takes the bulk path
    assert dataset._read_bulk(io.BytesIO(valid), fields_of, path) is not None

    for edit in EDITS:
        path.write_bytes(_mutate(valid, edit, data.draw))
        raw = path.read_bytes()
        strict = _outcome(lambda: dataset._read_cells(raw, fields_of, path))
        bulk = _outcome(lambda: dataset._read_bulk(io.BytesIO(raw), fields_of, path))

        if bulk[0] == "error":  # only the header errors both readers raise
            assert bulk == strict, edit
        elif bulk[1] is not None:
            assert strict[0] == "ok", (edit, strict[1])
            assert _same_table(bulk[1], strict[1]), edit
        public = _outcome(lambda: read(path))
        assert public[0] == strict[0], edit
        if strict[0] == "error":
            assert public[1] == strict[1], edit


def test_bulk_reader_takes_any_header_the_format_allows(tmp_path):
    # counter names with a space or a non-ASCII letter are read under the
    # per-cell header rules, not sent to the per-cell reader whole; a
    # comment line after the header still is
    rng = np.random.default_rng(5)
    names = ("L1 miss", "café", "C\x0c2")
    n = 20
    keys = np.cumsum(rng.integers(1, 2**40, size=n, dtype=np.uint64))
    counts = rng.integers(0, 2**32, size=(n, 3), dtype=np.uint64)
    pmc, ds = tmp_path / "pmc.csv", tmp_path / "ds.csv"
    pp.write_counter_trace(pp.CounterTrace(keys, names, counts), pmc)
    pp.write_dataset(
        pp.Dataset(names, keys, ("r0",) * n, rng.uniform(1, 2, size=n), counts), ds
    )
    for path, fields_of in ((pmc, dataset._counter_fields), (ds, dataset._dataset_fields)):
        raw = path.read_bytes()
        bulk = dataset._read_bulk(io.BytesIO(raw), fields_of, path)
        assert bulk is not None, path
        assert _same_table(bulk, dataset._read_cells(raw, fields_of, path)), path
        head, _, body = raw.partition(b"\n")
        assert dataset._read_bulk(io.BytesIO(head + b"\n# note\n" + body), fields_of, path) is None
