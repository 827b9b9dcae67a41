"""End-to-end CLI behaviour, driven in-process through main(argv)."""

import dataclasses
import json
import logging
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import pmcpower as pp
from pmcpower import dataset
from pmcpower.cli import main

from conftest import make_dataset, twin_pairs_dataset

TWO_PLUS_JUNK = pp.GenSpec(
    true_model=pp.PowerModel(
        intercept_w=1.5, terms=(("CPU_OP", 2.0e-06), ("MEM_ACC", 5.0e-07))
    ),
    n_samples=120,
    counter_ranges={
        "CPU_OP": (0, 400000),
        "MEM_ACC": (0, 150000),
        "IO_EVT": (0, 50000),
    },
    n_runs=4,
)


def gen_files(tmp_path, spec, name="demo", seed=None):
    spec_path = tmp_path / f"{name}_spec.json"
    pp.write_gen_spec(spec, spec_path)
    prefix = str(tmp_path / name)
    argv = ["gen", "--spec", str(spec_path), "--out-prefix", prefix]
    if seed is not None:
        argv = ["--seed", str(seed)] + argv
    assert main(argv) == 0
    return prefix


def test_gen_writes_all_artifacts(tmp_path, capsys):
    prefix = str(tmp_path / "demo")
    assert main(["gen", "--out-prefix", prefix]) == 0
    out = capsys.readouterr().out
    assert "generated 1 run(s), 299 dataset rows" in out
    for suffix in ("_r0_pmc.csv", "_r0_power.csv", "_dataset.csv", "_model.json"):
        assert (tmp_path / f"demo{suffix}").exists()
        assert f"wrote {prefix}{suffix}" in out
    model = pp.read_model(f"{prefix}_model.json")
    assert model.counter_names == ("CPU_OP", "MEM_ACC")


def test_gen_seed_repeatable(tmp_path):
    a = gen_files(tmp_path, TWO_PLUS_JUNK, "a", seed=5)
    b = gen_files(tmp_path, TWO_PLUS_JUNK, "b", seed=5)
    c = gen_files(tmp_path, TWO_PLUS_JUNK, "c", seed=6)
    read = lambda p: Path(f"{p}_dataset.csv").read_bytes()
    assert read(a) == read(b)
    assert read(a) != read(c)


def test_gen_multi_run_files(tmp_path):
    spec = pp.GenSpec(
        true_model=pp.PowerModel(intercept_w=2.0, terms=(("A", 1e-06),)),
        n_samples=10,
        counter_ranges={"A": (0, 1000)},
        n_runs=3,
    )
    prefix = gen_files(tmp_path, spec, "multi")
    for r in range(3):
        assert (tmp_path / f"multi_r{r}_pmc.csv").exists()
        assert (tmp_path / f"multi_r{r}_power.csv").exists()


# the last TIME key is period * ((n_runs - 1) * (n_samples + 7) + n_samples),
# 27 periods for 2 runs of 10 samples
_TOP_PERIOD = (2**64 - 1) // 27


@pytest.mark.parametrize(
    "period, n_samples, n_runs",
    [(2**63, 10, 1), (2**60, 2, 3), (_TOP_PERIOD + 1, 10, 2)],
    ids=["wrapping keys", "overflowing keys", "one past the boundary"],
)
def test_gen_refuses_time_keys_past_2_64(tmp_path, capsys, period, n_samples, n_runs):
    data = dataset.to_json(TWO_PLUS_JUNK)
    data.update(sample_period_cycles=period, n_samples=n_samples, n_runs=n_runs)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(data))
    assert main(["gen", "--spec", str(spec_path), "--out-prefix", str(tmp_path / "g")]) == 2
    err = capsys.readouterr().err
    assert "bad gen spec JSON: sample_period_cycles" in err
    assert "past 2^64 - 1" in err
    assert not list(tmp_path.glob("g_*"))


def test_gen_refuses_a_counter_name_no_csv_header_holds(tmp_path, capsys):
    # "A,B" used to write a PMC header TIME,A,B,... over rows one cell
    # shorter, which sync then refused
    data = dataset.to_json(TWO_PLUS_JUNK)
    data["counter_ranges"]["A,B"] = [0, 10]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(data))
    assert main(["gen", "--spec", str(spec_path), "--out-prefix", str(tmp_path / "g")]) == 2
    assert "holds a comma, CR or LF" in capsys.readouterr().err
    assert not list(tmp_path.glob("g_*"))


def test_gen_writes_time_keys_up_to_the_boundary(tmp_path):
    spec = dataclasses.replace(
        TWO_PLUS_JUNK, sample_period_cycles=_TOP_PERIOD, n_samples=10, n_runs=2
    )
    prefix = gen_files(tmp_path, spec, "top")
    trace = pp.read_counter_trace(f"{prefix}_r1_pmc.csv")
    assert int(trace.time_keys[-1]) == 27 * _TOP_PERIOD


def test_sync_round_trips_generated_traces(tmp_path, capsys):
    spec = pp.GenSpec(
        true_model=TWO_PLUS_JUNK.true_model,
        n_samples=120,
        counter_ranges=TWO_PLUS_JUNK.counter_ranges,
        noise_rel=0.01,
    )
    prefix = gen_files(tmp_path, spec, "s")
    capsys.readouterr()
    out_csv = tmp_path / "resynced.csv"
    code = main(
        [
            "sync",
            "--pmc", f"{prefix}_r0_pmc.csv",
            "--power", f"{prefix}_r0_power.csv",
            "--out", str(out_csv),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "matched 100% of keys (120)" in out
    assert f"wrote 119 rows to {out_csv}" in out
    # resynchronisation reproduces the generated dataset; the run label
    # comes from the trace file stem, everything else is identical
    got = pp.read_dataset(out_csv)
    want = pp.read_dataset(tmp_path / "s_dataset.csv")
    assert got.run_ids == ("s_r0_pmc",) * 119
    assert np.array_equal(got.time_keys, want.time_keys)
    assert np.array_equal(got.deltas, want.deltas)
    assert np.array_equal(got.power_w, want.power_w)


@pytest.mark.parametrize("kind", ["pmc", "power"])
def test_a_trace_whose_stem_is_no_run_id_is_refused_by_name(tmp_path, capsys, kind):
    # the stem is the trace's run id; its refusal names the file, as every
    # other read error does
    prefix = gen_files(tmp_path, TWO_PLUS_JUNK, "s")
    capsys.readouterr()
    paths = {"pmc": f"{prefix}_r0_pmc.csv", "power": f"{prefix}_r0_power.csv"}
    bad = tmp_path / f"a,b_{kind}.csv"
    bad.write_bytes(Path(paths[kind]).read_bytes())
    paths[kind] = str(bad)
    out = tmp_path / "out.csv"
    argv = ["sync", "--pmc", paths["pmc"], "--power", paths["power"], "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}: run id 'a,b_{kind}' not representable in CSV\n"
    assert not out.exists()


def test_sync_disjoint_traces_fail(tmp_path, capsys):
    (tmp_path / "p.csv").write_text("TIME,A\n1,10\n2,20\n")
    (tmp_path / "w.csv").write_text("TIME,POWER_W\n100,1.5\n200,2.5\n")
    code = main(
        [
            "sync",
            "--pmc", str(tmp_path / "p.csv"),
            "--power", str(tmp_path / "w.csv"),
            "--out", str(tmp_path / "out.csv"),
        ]
    )
    assert code == 2
    assert "error: insufficient overlap" in capsys.readouterr().err


def test_sync_tolerance_flag(tmp_path, capsys):
    (tmp_path / "p.csv").write_text("TIME,A\n1000,10\n2000,20\n3000,35\n")
    (tmp_path / "w.csv").write_text(
        "TIME,POWER_W\n1002,1.5\n1998,2.5\n3001,3.5\n"
    )
    argv = [
        "sync",
        "--pmc", str(tmp_path / "p.csv"),
        "--power", str(tmp_path / "w.csv"),
        "--out", str(tmp_path / "out.csv"),
    ]
    assert main(argv) == 2  # exact matching finds nothing
    assert main(argv + ["--tolerance", "3"]) == 0
    ds = pp.read_dataset(tmp_path / "out.csv")
    assert list(ds.time_keys) == [2000, 3000]
    assert list(ds.deltas[:, 0]) == [10, 15]


def test_sync_tolerance_out_of_range_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "p.csv").write_text("TIME,A\n1000,10\n2000,20\n")
    (tmp_path / "w.csv").write_text("TIME,POWER_W\n1000,1.5\n2000,2.5\n")
    argv = [
        "sync",
        "--pmc", str(tmp_path / "p.csv"),
        "--power", str(tmp_path / "w.csv"),
        "--out", str(tmp_path / "out.csv"),
        "--tolerance", str(2**64),
    ]
    assert main(argv) == 2
    assert "key_tolerance" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_train_recovers_true_counters(tmp_path, capsys):
    prefix = gen_files(tmp_path, TWO_PLUS_JUNK, "t", seed=2)
    capsys.readouterr()
    model_out = tmp_path / "model.json"
    report_out = tmp_path / "report.json"
    code = main(
        [
            "train",
            "--dataset", f"{prefix}_dataset.csv",
            "--algorithm", "bottom_up",
            "--folds", "4",
            "--model-out", str(model_out),
            "--report-out", str(report_out),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "P[W] = " in out
    assert "CV MAPE 0.00% (4 folds)" in out
    model = pp.read_model(model_out)
    assert set(model.counter_names) == {"CPU_OP", "MEM_ACC"}
    report = pp.read_report(report_out)
    assert report.algorithm == "bottom_up"
    assert report.final_model == model


def test_train_concatenates_datasets(tmp_path):
    a = gen_files(tmp_path, TWO_PLUS_JUNK, "a", seed=3)
    b = gen_files(tmp_path, TWO_PLUS_JUNK, "b", seed=4)
    model_out = tmp_path / "m.json"
    code = main(
        [
            "train",
            "--dataset", f"{a}_dataset.csv",
            "--dataset", f"{b}_dataset.csv",
            "--folds", "4",
            "--model-out", str(model_out),
        ]
    )
    assert code == 0
    assert pp.read_model(model_out).training.folds == 4


def test_train_calls_in_one_process_get_their_own_dataset_lists(tmp_path):
    """The parser is built once per process; each call's repeated
    --dataset list must still start empty.  A list shared with the first
    call would join two datasets with different counters, an error."""
    paths = []
    for p in (2, 3):
        paths.append(tmp_path / f"d{p}.csv")
        pp.write_dataset(make_dataset(40, p, seed=p), paths[-1])
    for path in paths:
        model_out = tmp_path / f"{path.stem}_model.json"
        argv = ["train", "--dataset", str(path), "--folds", "4"]
        assert main(argv + ["--model-out", str(model_out)]) == 0
        assert pp.read_model(model_out).training.folds == 4


def test_train_fold_seed_flag_changes_folds(tmp_path):
    prefix = gen_files(tmp_path, TWO_PLUS_JUNK, "fs", seed=2)
    outs = []
    for seed in (0, 1):
        report_out = tmp_path / f"r{seed}.json"
        code = main(
            [
                "--seed", str(seed),
                "train",
                "--dataset", f"{prefix}_dataset.csv",
                "--folds", "4",
                "--model-out", str(tmp_path / f"m{seed}.json"),
                "--report-out", str(report_out),
            ]
        )
        assert code == 0
        outs.append(pp.read_report(report_out))
    assert outs[0].fold_seed == 0
    assert outs[1].fold_seed == 1


def test_train_run_aligned_fold_log(tmp_path, caplog):
    ds = make_dataset(100, 2, seed=1, n_runs=50)
    path = tmp_path / "d.csv"
    pp.write_dataset(ds, path)
    with caplog.at_level(logging.INFO, logger="pmcpower.search"):
        code = main(
            [
                "train",
                "--dataset", str(path),
                "--folds", "50",
                "--max-events", "1",
                "--model-out", str(tmp_path / "m.json"),
            ]
        )
    assert code == 0
    assert "50 folds aligned to the 50 run groups" in caplog.text


def test_train_exhaustive_pool_limit(tmp_path, capsys):
    ds = make_dataset(30, 21, seed=2)
    path = tmp_path / "wide.csv"
    pp.write_dataset(ds, path)
    code = main(
        [
            "train",
            "--dataset", str(path),
            "--algorithm", "exhaustive",
            "--folds", "2",
            "--model-out", str(tmp_path / "m.json"),
        ]
    )
    assert code == 2
    assert "too large for exhaustive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--algorithm", "top_down", "--max-events", "1"], "max_events"),
        (["--algorithm", "exhaustive", "--initial", "C1"], "initial_set"),
    ],
)
def test_train_refuses_a_setting_the_search_would_ignore(tmp_path, capsys, flags, field):
    path = tmp_path / "d.csv"
    pp.write_dataset(make_dataset(40, 2, n_runs=4), path)
    model_out = tmp_path / "m.json"
    code = main(
        ["train", "--dataset", str(path), "--folds", "4", *flags,
         "--model-out", str(model_out)]
    )
    assert code == 2
    assert f"{field} does not apply to" in capsys.readouterr().err
    assert not model_out.exists()


def test_train_refuses_max_events_below_the_initial_set(tmp_path, capsys):
    path = tmp_path / "d.csv"
    pp.write_dataset(make_dataset(60, 4, seed=3, n_runs=6), path)
    model_out = tmp_path / "m.json"
    code = main(
        ["train", "--dataset", str(path), "--folds", "3", "--initial", "C1,C2,C3",
         "--max-events", "1", "--model-out", str(model_out)]
    )
    assert code == 2
    assert "max_events must be an integer >= 3, got 1" in capsys.readouterr().err
    assert not model_out.exists()


def test_train_rejects_jobs_below_one(tmp_path, capsys):
    path = tmp_path / "d.csv"
    pp.write_dataset(make_dataset(40, 2, n_runs=4), path)
    model_out = tmp_path / "m.json"
    code = main(
        [
            "train",
            "--dataset", str(path),
            "--jobs", "0",
            "--model-out", str(model_out),
        ]
    )
    assert code == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err
    assert not model_out.exists()


def test_train_without_a_finite_cv_score_writes_no_model(tmp_path, capsys):
    # A and B count only in run r0, so every fold that holds r0 out trains
    # on all-zero columns: every candidate scores +inf and bottom_up stops
    # where it started
    ds = make_dataset(40, 2, seed=4, n_runs=4)
    deltas = ds.deltas.copy()
    deltas[np.array(ds.run_ids) != "r0"] = 0
    path = tmp_path / "d.csv"
    pp.write_dataset(
        pp.Dataset(
            counters=("A", "B"),
            time_keys=ds.time_keys,
            run_ids=ds.run_ids,
            power_w=ds.power_w,
            deltas=deltas,
        ),
        path,
    )
    model_out = tmp_path / "m.json"
    code = main(
        [
            "train",
            "--dataset", str(path),
            "--algorithm", "bottom_up",
            "--folds", "4",
            "--initial", "A",
            "--model-out", str(model_out),
            "--report-out", str(tmp_path / "r.json"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    # the error names the first fold that holds r0 out, and why it fails
    folds = pp.kfold_split(ds, 4)
    fold = next(f for f, rows in enumerate(folds) if ds.run_ids[rows[0]] == "r0")
    assert (
        "bottom_up stopped (converged) at [A] with no finite CV score: "
        f"fold {fold}: rank-deficient design, drop a predictor\n"
    ) in err
    assert not model_out.exists()
    assert not (tmp_path / "r.json").exists()


def test_train_top_down_stops_where_every_removal_fails(tmp_path, capsys):
    # two copied pairs: every removal from the full pool scores +inf, so
    # top_down takes none and train writes no model
    path = tmp_path / "d.csv"
    pp.write_dataset(twin_pairs_dataset(), path)
    model_out = tmp_path / "m.json"
    code = main(
        ["train", "--dataset", str(path), "--algorithm", "top_down", "--folds", "5",
         "--model-out", str(model_out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert (
        "top_down stopped (converged) at [A, B, B2, C, C2] with no finite CV "
        "score: fold 0: rank-deficient design, drop a predictor\n"
    ) in err
    assert not model_out.exists()


def test_train_jobs_flag_is_deterministic(tmp_path):
    prefix = gen_files(tmp_path, TWO_PLUS_JUNK, "j", seed=8)
    blobs = []
    for jobs in ("1", "4"):
        m = tmp_path / f"m{jobs}.json"
        r = tmp_path / f"r{jobs}.json"
        code = main(
            [
                "train",
                "--dataset", f"{prefix}_dataset.csv",
                "--algorithm", "exhaustive",
                "--folds", "4",
                "--jobs", jobs,
                "--model-out", str(m),
                "--report-out", str(r),
            ]
        )
        assert code == 0
        blobs.append(m.read_bytes() + r.read_bytes())
    assert blobs[0] == blobs[1]


def test_validate_zero_noise_is_exact(tmp_path, capsys):
    prefix = gen_files(tmp_path, TWO_PLUS_JUNK, "v", seed=9)
    capsys.readouterr()
    trace_out = tmp_path / "trace.csv"
    code = main(
        [
            "validate",
            "--model", f"{prefix}_model.json",
            "--dataset", f"{prefix}_dataset.csv",
            "--trace-out", str(trace_out),
        ]
    )
    assert code == 0
    assert "MAPE 0.00%" in capsys.readouterr().out
    lines = trace_out.read_text().splitlines()
    assert lines[0] == "TIME,RUN,ACTUAL_W,PREDICTED_W"
    assert len(lines) == 1 + 119 * 4


def test_validate_trace_matches_actual_on_noiseless_data(tmp_path):
    # single-term model: predicted and actual power are the same doubles,
    # so the display columns agree character for character
    spec = pp.GenSpec(
        true_model=pp.PowerModel(
            intercept_w=2.59799, terms=(("C16", 4.58765e-06),)
        ),
        n_samples=200,
        counter_ranges={"C16": (0, 250000)},
        seed=4,
    )
    prefix = gen_files(tmp_path, spec, "exact")
    trace_out = tmp_path / "trace.csv"
    code = main(
        [
            "validate",
            "--model", f"{prefix}_model.json",
            "--dataset", f"{prefix}_dataset.csv",
            "--trace-out", str(trace_out),
        ]
    )
    assert code == 0
    for line in trace_out.read_text().splitlines()[1:]:
        _, _, actual, predicted = line.split(",")
        assert actual == predicted


def test_predict_streams_constant_for_intercept_only(tmp_path, capsys):
    model = pp.PowerModel(intercept_w=2.852397617, terms=())
    model_path = tmp_path / "m.json"
    pp.write_model(model, model_path)
    ds = make_dataset(8, 2, seed=3)
    ds_path = tmp_path / "d.csv"
    pp.write_dataset(ds, ds_path)
    code = main(
        ["predict", "--model", str(model_path), "--dataset", str(ds_path)]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "TIME,RUN,PREDICTED_W"
    assert len(lines) == 9
    assert all(line.endswith(",2.8524") for line in lines[1:])


def test_predict_agrees_with_validate_trace(tmp_path, capsys):
    prefix = gen_files(tmp_path, TWO_PLUS_JUNK, "pv", seed=11)
    trace_out = tmp_path / "trace.csv"
    assert main(
        [
            "validate",
            "--model", f"{prefix}_model.json",
            "--dataset", f"{prefix}_dataset.csv",
            "--trace-out", str(trace_out),
        ]
    ) == 0
    capsys.readouterr()
    assert main(
        [
            "predict",
            "--model", f"{prefix}_model.json",
            "--dataset", f"{prefix}_dataset.csv",
        ]
    ) == 0
    stream = capsys.readouterr().out.splitlines()[1:]
    trace = trace_out.read_text().splitlines()[1:]
    assert len(stream) == len(trace)
    for s_line, t_line in zip(stream, trace):
        s_time, s_run, s_pred = s_line.split(",")
        t_time, t_run, _, t_pred = t_line.split(",")
        assert (s_time, s_run, s_pred) == (t_time, t_run, t_pred)


def test_missing_file_exits_2(tmp_path, capsys):
    code = main(
        [
            "validate",
            "--model", str(tmp_path / "nope.json"),
            "--dataset", str(tmp_path / "nope.csv"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "validate"])
def test_power_below_the_zero_guard_names_its_time_key(tmp_path, capsys, command):
    # the row is named by its TIME key and run, not by its index in a fold
    # or in the file
    prefix = gen_files(tmp_path, TWO_PLUS_JUNK, "z", seed=3)
    path = f"{prefix}_dataset.csv"
    lines = Path(path).read_text().splitlines()
    run, time_key, _, *deltas = lines[100].split(",")
    lines[100] = ",".join([run, time_key, "1e-10", *deltas])
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    capsys.readouterr()
    if command == "train":
        argv = ["train", "--dataset", path, "--folds", "4",
                "--model-out", str(tmp_path / "m.json")]
    else:
        argv = ["validate", "--model", f"{prefix}_model.json", "--dataset", path]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{path}: power 1e-10 W below the MAPE zero-guard (1e-09 W) " in err
    assert f"at TIME={time_key} in run {run!r}" in err


def _feed(fifo, data: bytes) -> threading.Thread:
    """A thread that writes ``data`` into the FIFO once a reader opens it."""

    def write():
        try:
            with open(fifo, "wb") as f:
                f.write(data)
        except BrokenPipeError:  # the reader stopped early
            pass

    thread = threading.Thread(target=write, daemon=True)
    thread.start()
    return thread


def _sync_files(directory, capsys) -> tuple[int, str, bytes | None]:
    """(exit code, stderr, dataset bytes) of ``sync`` on the trace pair in
    ``directory``, which may be FIFOs, with the directory taken out of
    stderr."""
    out = directory.parent / f"{directory.name}.csv"
    code = main(["sync", "--pmc", str(directory / "s_r0_pmc.csv"),
                 "--power", str(directory / "s_r0_power.csv"), "--out", str(out)])
    err = capsys.readouterr().err.replace(str(directory), "<dir>")
    return code, err, out.read_bytes() if out.exists() else None


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX FIFOs")
@pytest.mark.parametrize("edit", ["none", "comment after the header", "bad power cell"])
def test_sync_reads_traces_through_pipes(tmp_path, capsys, monkeypatch, edit):
    """A pipe, such as ``--pmc <(zcat f)``, cannot seek: it is read once,
    and both the bulk path and the per-cell path it falls back to read the
    same bytes as from a file.  Small parse blocks make the bulk path read
    several."""
    monkeypatch.setattr(dataset, "_PARSE_BLOCK_BYTES", 64)
    spec = dataclasses.replace(TWO_PLUS_JUNK, n_runs=1)
    gen_files(tmp_path, spec, "s")
    plain, piped = tmp_path / "plain", tmp_path / "piped"
    plain.mkdir()
    piped.mkdir()
    for kind in ("pmc", "power"):
        text = (tmp_path / f"s_r0_{kind}.csv").read_bytes()
        head, body = text.split(b"\n", 1)
        if edit == "comment after the header" and kind == "pmc":
            text = head + b"\n# resumed\n" + body
        if edit == "bad power cell" and kind == "power":
            lines = text.split(b"\n")
            lines[3] = lines[3].split(b",")[0] + b",oops"
            text = b"\n".join(lines)
        (plain / f"s_r0_{kind}.csv").write_bytes(text)
    capsys.readouterr()
    want = _sync_files(plain, capsys)

    writers = []
    for path in sorted(plain.iterdir()):
        os.mkfifo(piped / path.name)
        writers.append((piped / path.name, _feed(piped / path.name, path.read_bytes())))
    got = _sync_files(piped, capsys)
    for fifo, thread in writers:
        if thread.is_alive():  # a reader that never opened this FIFO
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        thread.join(10)
        assert not thread.is_alive()

    assert got == want
    if edit == "bad power cell":
        assert want[0] == 2 and "<dir>/s_r0_power.csv: " in want[1]
        assert want[1].rstrip().endswith("at line 4")
    else:
        assert want[0] == 0 and want[2]


def test_bad_csv_reports_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("RUN,TIME,POWER_W,A\nr0,1,2.0,5\nr0,2,oops,5\n")
    model_path = tmp_path / "m.json"
    pp.write_model(pp.PowerModel(intercept_w=1.0, terms=()), model_path)
    code = main(
        ["validate", "--model", str(model_path), "--dataset", str(bad)]
    )
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def test_bad_model_json_exits_2(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    model_path.write_text(json.dumps({"kind": "pmc"}))
    ds_path = tmp_path / "d.csv"
    pp.write_dataset(make_dataset(5, 1), ds_path)
    code = main(
        ["predict", "--model", str(model_path), "--dataset", str(ds_path)]
    )
    assert code == 2
    assert "bad model JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "predict", "gen"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    if command == "gen":
        argv = ["gen", "--spec", str(deep), "--out-prefix", str(tmp_path / "g")]
        what = "gen spec"
    else:
        ds_path = tmp_path / "d.csv"
        pp.write_dataset(make_dataset(5, 1), ds_path)
        argv = [command, "--model", str(deep), "--dataset", str(ds_path)]
        what = "model"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"bad {what} JSON: maximum recursion depth exceeded" in err
    assert "internal error" not in err


@pytest.mark.parametrize("command", ["validate", "gen"])
def test_json_with_a_duplicate_key_exits_2(tmp_path, capsys, command):
    spec = tmp_path / "spec.json"
    spec.write_text(
        '{"true_model": {"kind": "pmc", "intercept_w": 1.0, "terms": []},'
        ' "counter_ranges": {"A": [0, 10], "A": [0, 99]}, "n_samples": 5}'
    )
    if command == "gen":
        argv = ["gen", "--spec", str(spec), "--out-prefix", str(tmp_path / "g")]
        what, key = "gen spec", "A"
    else:
        model = tmp_path / "m.json"
        model.write_text('{"kind": "pmc", "intercept_w": 1.0, "intercept_w": 2.0, "terms": []}')
        ds_path = tmp_path / "d.csv"
        pp.write_dataset(make_dataset(5, 1), ds_path)
        argv = ["validate", "--model", str(model), "--dataset", str(ds_path)]
        what, key = "model", "intercept_w"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"bad {what} JSON: duplicate key '{key}'" in err
    assert not list(tmp_path.glob("g*"))


def test_model_json_with_a_cast_value_exits_2(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    model = {"kind": "pmc", "intercept_w": "1.5", "terms": []}
    model_path.write_text(json.dumps(model))
    ds_path = tmp_path / "d.csv"
    pp.write_dataset(make_dataset(5, 1), ds_path)
    code = main(["predict", "--model", str(model_path), "--dataset", str(ds_path)])
    assert code == 2
    assert "intercept_w must be float" in capsys.readouterr().err


def test_model_json_with_an_unknown_key_exits_2(tmp_path, capsys):
    # an extra "intercept" and a term's "coef" used to validate with exit 0
    model_path = tmp_path / "m.json"
    model = {
        "kind": "pmc",
        "intercept_w": 1.5,
        "intercept": 9.0,
        "terms": [{"counter": "C1", "coefficient": 1e-9, "coef": 2e-9}],
    }
    model_path.write_text(json.dumps(model))
    ds_path = tmp_path / "d.csv"
    pp.write_dataset(make_dataset(5, 1), ds_path)
    code = main(["validate", "--model", str(model_path), "--dataset", str(ds_path)])
    assert code == 2
    assert f"{model_path}: unknown model keys: intercept" in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["validate", "train"])
def test_an_empty_dataset_is_refused_by_name(tmp_path, capsys, stage):
    ds_path = tmp_path / "empty.csv"
    ds_path.write_text("RUN,TIME,POWER_W,C1\n")
    if stage == "validate":
        model_path = tmp_path / "m.json"
        pp.write_model(pp.PowerModel(intercept_w=1.0, terms=(("C1", 1e-9),)), model_path)
        argv = ["validate", "--model", str(model_path), "--dataset", str(ds_path)]
    else:
        argv = ["train", "--dataset", str(ds_path), "--model-out", str(tmp_path / "o.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ds_path}: ")
    assert ("mape of empty" if stage == "validate" else "exceed the 0 assignable") in err


def _named_dataset(path, counters, freq=False):
    ds = make_dataset(8, len(counters), seed=2, n_runs=2)
    ds = dataclasses.replace(
        ds, counters=counters, freq_mhz=np.full(8, 80.0) if freq else None
    )
    pp.write_dataset(ds, path)
    return str(path)


@pytest.mark.parametrize(
    "stage, message",
    [
        ("train", "counter headers differ: ('A', 'B') vs ('A', 'C')"),
        ("train-freq", "frequency channel present in some datasets only"),
        ("validate", "counters missing from dataset: Z"),
        ("predict", "dataset has no frequency channel"),
    ],
)
def test_a_refused_dataset_is_named(tmp_path, capsys, stage, message):
    # train names the dataset that does not match the first; validate and
    # predict name the dataset the model cannot be applied to
    a = _named_dataset(tmp_path / "a.csv", ("A", "B"))
    model_path = tmp_path / "m.json"
    out = tmp_path / "o.json"
    if stage.startswith("train"):
        other = ("A", "C") if stage == "train" else ("A", "B")
        b = _named_dataset(tmp_path / "b.csv", other, freq=stage == "train-freq")
        argv = ["train", "--dataset", a, "--dataset", b, "--model-out", str(out)]
        named = b
    else:
        terms = (("Z", 1e-9),) if stage == "validate" else (("FREQ_MHZ", 0.01),)
        kind = "pmc" if stage == "validate" else "freq_baseline"
        pp.write_model(pp.PowerModel(intercept_w=1.0, terms=terms, kind=kind), model_path)
        argv = [stage, "--model", str(model_path), "--dataset", a]
        named = a
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {named}: {message}\n")
    assert not out.exists()


def test_an_unexpected_error_exits_1(capsys, monkeypatch):
    # an error no stage expects is not a refusal of the input: exit 1 and
    # the traceback, not exit 2
    def fail(path):
        raise RuntimeError("boom")

    monkeypatch.setattr(pp.regress, "read_model", fail)
    assert main(["predict", "--model", "m.json", "--dataset", "d.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("internal error: boom\n")
    assert "RuntimeError: boom" in err


def test_predict_into_a_closed_pipe_exits_0_quietly(tmp_path):
    # the reader takes one line and closes, as `| head -1` does, while
    # predict still has more than a pipe buffer (64 KiB) to write
    model_path = tmp_path / "m.json"
    pp.write_model(pp.PowerModel(intercept_w=2.0, terms=(("C1", 1e-9),)), model_path)
    ds_path = tmp_path / "d.csv"
    pp.write_dataset(make_dataset(20000, 1, seed=5), ds_path)
    env = {**os.environ, "PYTHONPATH": str(Path(pp.__file__).resolve().parents[1])}
    argv = [sys.executable, "-m", "pmcpower", "predict",
            "--model", str(model_path), "--dataset", str(ds_path)]
    with subprocess.Popen(
        argv, cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as child:
        assert child.stdout.readline() == b"TIME,RUN,PREDICTED_W\n"
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=60)
    assert (code, err) == (0, b"")


def test_train_on_a_dataset_without_counters_exits_2(tmp_path, capsys):
    ds_path = tmp_path / "bare.csv"
    ds_path.write_text("RUN,TIME,POWER_W\nr0,1,2.0\nr0,2,2.5\nr1,3,2.0\nr1,4,2.1\n")
    out = tmp_path / "o.json"
    argv = ["train", "--dataset", str(ds_path), "--folds", "2", "--model-out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {ds_path}: empty candidate pool")
    assert not out.exists()


@pytest.mark.parametrize("stage", ["sync", "validate", "predict"])
def test_seed_is_refused_by_the_stages_that_do_not_use_it(tmp_path, capsys, stage):
    prefix = gen_files(tmp_path, TWO_PLUS_JUNK, "sd")
    capsys.readouterr()
    out = tmp_path / "out.csv"
    args = {
        "sync": ["--pmc", f"{prefix}_r0_pmc.csv", "--power", f"{prefix}_r0_power.csv",
                 "--out", str(out)],
        "validate": ["--model", f"{prefix}_model.json", "--dataset", f"{prefix}_dataset.csv",
                     "--trace-out", str(out)],
        "predict": ["--model", f"{prefix}_model.json", "--dataset", f"{prefix}_dataset.csv"],
    }[stage]
    assert main(["--seed", "3", stage] + args) == 2
    assert capsys.readouterr() == ("", "error: --seed applies to gen and train only\n")
    assert not out.exists()


def _fresh_python(tmp_path, *args, env=()):
    """stderr and stdout of a new interpreter, run in ``tmp_path`` on this
    package's source, with the variables ``env`` set."""
    env = {
        **os.environ, "PYTHONPATH": str(Path(pp.__file__).resolve().parents[1]), **dict(env)
    }
    done = subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stderr, done.stdout


def _readme_block(section: str, lang: str) -> str:
    """The first ``lang`` code block under the README heading ``section``."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8").split(f"\n## {section}\n", 1)[1]
    return text.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_examples_run_as_written(tmp_path, capsys):
    _, out = _fresh_python(tmp_path, "-c", _readme_block("Library use", "python"))
    assert out
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(_readme_block("Command line walkthrough", "json"))
    assert main(["gen", "--spec", str(spec_path), "--out-prefix", str(tmp_path / "g")]) == 0
    assert "generated 5 run(s)" in capsys.readouterr().out


def test_only_train_loads_the_search_module(tmp_path):
    imports, _ = _fresh_python(tmp_path, "-X", "importtime", "-m", "pmcpower", "gen", "--out-prefix", "d")
    assert "pmcpower.sync" in imports and "pmcpower.search" not in imports
    stages = [
        ["sync", "--pmc", "d_r0_pmc.csv", "--power", "d_r0_power.csv", "--out", "s.csv"],
        ["validate", "--model", "d_model.json", "--dataset", "s.csv", "--trace-out", "t.csv"],
        ["predict", "--model", "d_model.json", "--dataset", "s.csv"],
        ["train", "--dataset", "s.csv", "--folds", "3", "--model-out", "m.json"],
    ]
    code = (
        "import contextlib, io, sys\n"
        "import pmcpower.cli\n"
        "loaded = ['pmcpower.search' in sys.modules]\n"
        f"for argv in {stages!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert pmcpower.cli.main(argv) == 0\n"
        "    loaded.append('pmcpower.search' in sys.modules)\n"
        "print(loaded)\n"
    )
    _, out = _fresh_python(tmp_path, "-c", code)
    assert out.strip() == "[False, False, False, False, True]"


def test_the_package_resolves_the_search_names_on_first_use(tmp_path):
    code = (
        "import sys\n"
        "import pmcpower as pp\n"
        "assert 'pmcpower.search' not in sys.modules\n"
        "assert pp.search is sys.modules['pmcpower.search']\n"
        "assert pp.run_search is pp.search.run_search and pp.cv_score is pp.search.cv_score\n"
        "names = {}\n"
        "exec('from pmcpower import *', names)\n"
        "assert all(names[n] is getattr(pp, n) for n in pp.__all__)\n"
        "assert not hasattr(pp, 'no_such_name')\n"
        "print('ok')\n"
    )
    assert _fresh_python(tmp_path, "-c", code)[1] == "ok\n"


def test_train_picks_hold_across_blas_thread_counts(tmp_path):
    """Artifact bytes hold for one BLAS build and thread count; at another
    count BLAS may round the fold QRs and held-out products differently
    (up to 2.8e-16 relative was seen on 450k rows).  Every score agrees
    within 1e-12 relative, so the picks stay: here the best subset leads
    the next by about 1e-4 relative."""
    model = pp.PowerModel(intercept_w=2.0, terms=(("C1", 2e-6), ("C4", 1e-6)))
    spec = pp.GenSpec(
        true_model=model,
        n_samples=201,
        counter_ranges={f"C{i}": (0, 600_000) for i in range(6)},
        n_runs=10,
        noise_rel=0.01,
        seed=4,
    )
    pp.write_dataset(pp.generate(spec).dataset, tmp_path / "d.csv")
    reports = []
    for threads in ("1", "2"):
        _fresh_python(
            tmp_path, "-m", "pmcpower", "train", "--dataset", "d.csv",
            "--algorithm", "exhaustive", "--folds", "5",
            "--model-out", f"m{threads}.json", "--report-out", f"r{threads}.json",
            env={"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
        )
        reports.append(pp.read_report(tmp_path / f"r{threads}.json"))
    one, two = reports
    assert len(one.subset_scores) == 64
    assert two.subset_scores == pytest.approx(one.subset_scores, rel=1e-12)
    a, b = one.final_model, two.final_model
    assert dict(b.terms) == pytest.approx(dict(a.terms), rel=1e-12)  # the same picks
    assert b.intercept_w == pytest.approx(a.intercept_w, rel=1e-12)
