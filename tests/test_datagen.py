"""Generator invariants: determinism, sync closure, ground-truth recovery."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmcpower as pp
from pmcpower import dataset
from pmcpower.cli import main
from ref_impl import MOD32, ref_delta, ref_sync_rows

ONE = pp.PowerModel(intercept_w=2.59799, terms=(("C16", 4.58765e-06),))
TWO = pp.PowerModel(
    intercept_w=1.5, terms=(("CPU_OP", 2.0e-06), ("MEM_ACC", 5.0e-07))
)
TWO_RANGES = {"CPU_OP": (0, 400000), "MEM_ACC": (0, 150000)}


def spec_of(**kw):
    base = dict(
        true_model=TWO,
        n_samples=50,
        counter_ranges=TWO_RANGES,
        seed=0,
    )
    base.update(kw)
    return pp.GenSpec(**base)


def test_generation_is_deterministic():
    a = pp.generate(spec_of(noise_rel=0.02, seed=9))
    b = pp.generate(spec_of(noise_rel=0.02, seed=9))
    assert a.dataset == b.dataset
    assert np.array_equal(a.pmc.values, b.pmc.values)
    assert np.array_equal(a.power.power_w, b.power.power_w)
    c = pp.generate(spec_of(noise_rel=0.02, seed=10))
    assert a.dataset != c.dataset


def test_time_keys_follow_the_sample_period():
    res = pp.generate(spec_of(sample_period_cycles=1000))
    assert np.all(np.diff(res.pmc.time_keys.astype(np.int64)) == 1000)


def test_sync_reproduces_the_dataset_exactly():
    res = pp.generate(spec_of(noise_rel=0.01, seed=3))
    assert pp.synchronize(res.pmc, res.power) == res.dataset


def test_sync_closure_with_wrap_injection():
    res = pp.generate(spec_of(inject_wrap=True, seed=4))
    assert pp.synchronize(res.pmc, res.power) == res.dataset


def test_sync_closure_with_dropped_power_samples():
    res = pp.generate(spec_of(n_samples=200, drop_rate=0.4, seed=5))
    assert len(res.power) < len(res.pmc)
    assert pp.synchronize(res.pmc, res.power) == res.dataset


def test_wrap_injection_actually_crosses():
    res = pp.generate(spec_of(n_samples=100, inject_wrap=True, seed=6))
    raw = res.pmc.values.astype(np.int64)
    drops = (np.diff(raw, axis=0) < 0).any(axis=0)
    assert drops.all()  # every column wraps at least once
    # and without injection, zero-start traces never wrap here
    res2 = pp.generate(spec_of(n_samples=100, seed=6))
    raw2 = res2.pmc.values.astype(np.int64)
    assert not (np.diff(raw2, axis=0) < 0).any()


def test_true_model_scores_zero_mape_on_its_own_data():
    res = pp.generate(
        spec_of(n_samples=300, drop_rate=0.3, inject_wrap=True, seed=7)
    )
    assert pp.validate(TWO, res.dataset).mape_pct == 0.0


def test_fit_recovers_published_constants():
    spec = pp.GenSpec(
        true_model=ONE,
        n_samples=500,
        counter_ranges={"C16": (0, 250000)},
        seed=8,
    )
    ds = pp.generate(spec).dataset
    model, _ = pp.fit_ols(ds, ["C16"])
    assert model.intercept_w == pytest.approx(2.59799, rel=1e-9)
    assert model.terms[0][1] == pytest.approx(4.58765e-06, rel=1e-9)


def test_drop_rate_thins_rows():
    res = pp.generate(spec_of(n_samples=1001, drop_rate=0.5, seed=9))
    # 999 interior samples kept w.p. 0.5; far from both extremes
    assert 300 < res.dataset.n_rows < 700
    # endpoints always survive
    assert res.power.time_keys[0] == res.pmc.time_keys[0]
    assert res.power.time_keys[-1] == res.pmc.time_keys[-1]


def test_multi_run_output():
    res = pp.generate(spec_of(n_runs=3, n_samples=20, seed=10))
    assert len(res.pmc_traces) == 3
    assert len(res.power_traces) == 3
    assert res.dataset.n_rows == 3 * 19
    assert set(res.dataset.run_ids) == {"r0", "r1", "r2"}
    assert len(np.unique(res.dataset.time_keys)) == res.dataset.n_rows
    with pytest.raises(ValueError, match="single-run"):
        res.pmc
    with pytest.raises(ValueError, match="power is only defined for single-run results"):
        res.power
    # per-run sync agrees with the per-run slice of the dataset
    for i in range(3):
        part = pp.synchronize(res.pmc_traces[i], res.power_traces[i])
        mask = [r == f"r{i}" for r in res.dataset.run_ids]
        assert np.array_equal(
            part.deltas, res.dataset.deltas[np.array(mask)]
        )


def test_spec_validation():
    with pytest.raises(ValueError, match="n_samples"):
        spec_of(n_samples=1)
    with pytest.raises(ValueError, match="noise_rel"):
        spec_of(noise_rel=-0.1)
    with pytest.raises(ValueError, match="drop_rate"):
        spec_of(drop_rate=1.0)
    with pytest.raises(ValueError, match="lo <= hi"):
        spec_of(counter_ranges={"CPU_OP": (5, 4), "MEM_ACC": (0, 1)})
    with pytest.raises(ValueError, match="2\\^32"):
        spec_of(counter_ranges={"CPU_OP": (0, 2**32), "MEM_ACC": (0, 1)})
    with pytest.raises(ValueError, match="without a range"):
        spec_of(counter_ranges={"CPU_OP": (0, 10)})
    with pytest.raises(ValueError, match="at least one counter"):
        pp.GenSpec(
            true_model=pp.PowerModel(intercept_w=1.0, terms=()),
            n_samples=10,
            counter_ranges={},
        )
    freq = pp.PowerModel(
        intercept_w=0.0, terms=(("FREQ_MHZ", 1.0),), kind="freq_baseline"
    )
    with pytest.raises(ValueError, match="pmc model"):
        spec_of(true_model=freq)
    with pytest.raises(ValueError, match="n_runs must be >= 1"):
        spec_of(n_runs=0)
    with pytest.raises(ValueError, match="sample_period_cycles must be >= 1"):
        spec_of(sample_period_cycles=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        spec_of(seed=-1)
    # used to be accepted, and write_gen_spec then failed on the inf
    with pytest.raises(ValueError, match="^noise_rel must be finite, got inf"):
        spec_of(noise_rel=float("inf"))
    # these raised an AttributeError or a TypeError, not naming the field
    with pytest.raises(ValueError, match="^true_model must be PowerModel, got None"):
        spec_of(true_model=None)
    for pair in (5, (1,), [0, 1, 2], None):
        with pytest.raises(ValueError, match="^counter range for 'CPU_OP' must be integers"):
            spec_of(counter_ranges={**TWO_RANGES, "CPU_OP": pair})
    with pytest.raises(ValueError, match="^counter_ranges must be dict, got None"):
        spec_of(counter_ranges=None)


@pytest.mark.parametrize(
    "ranges, message",
    [
        # a name is not cast, so 1 and "1" cannot collapse into one range
        ({1: (0, 10), "1": (0, 20)}, "counter name must be str, got 1"),
        # refused by the spec itself, before generate builds a trace
        ({"TIME": (0, 10)}, "'TIME' is reserved for the sync key"),
        ({"FREQ_MHZ": (0, 10)}, "'FREQ_MHZ' is reserved"),
        ({"": (0, 10)}, "empty counter name"),
    ],
)
def test_spec_counter_names_are_checked(ranges, message):
    with pytest.raises(ValueError, match=message):
        spec_of(counter_ranges={**TWO_RANGES, **ranges})


def test_nonpositive_truth_is_an_error():
    bad = pp.PowerModel(intercept_w=-1.0, terms=(("CPU_OP", 1e-09),))
    with pytest.raises(pp.GenError, match="non-positive power"):
        pp.generate(spec_of(true_model=bad))


def test_noise_driving_power_negative_is_an_error():
    with pytest.raises(pp.GenError, match="not positive"):
        pp.generate(spec_of(n_samples=300, noise_rel=10.0))


def test_genspec_json_round_trip(tmp_path):
    spec = pp.default_gen_spec(seed=3)
    path = tmp_path / "spec.json"
    pp.write_gen_spec(spec, path)
    assert pp.read_gen_spec(path) == spec


def test_genspec_rejects_unknown_keys():
    data = dataset.to_json(pp.default_gen_spec())
    data["fooo"] = 1
    with pytest.raises(pp.FormatError, match="unknown gen spec keys: fooo"):
        dataset.from_json(pp.GenSpec, data, "gen spec")


def test_genspec_bad_json_file(tmp_path):
    path = tmp_path / "bad.json"
    for text in ("{]", "[1, 2]"):
        path.write_text(text)
        with pytest.raises(pp.FormatError, match="bad gen spec JSON"):
            pp.read_gen_spec(path)


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("inject_wrap", "false", "inject_wrap must be bool"),
        ("n_samples", 200.9, "n_samples must be int"),
        ("seed", True, "seed must be int"),
        ("n_runs", "3", "n_runs must be int"),
        ("counter_ranges", {"CPU_OP": [0.7, 400000.9]}, "counter range for 'CPU_OP'"),
    ],
)
def test_genspec_json_values_must_have_the_field_type(tmp_path, key, value, named):
    data = dataset.to_json(pp.default_gen_spec())
    if key == "counter_ranges":
        value = dict(data[key], **value)
    data[key] = value
    with pytest.raises(pp.FormatError, match=f"bad gen spec JSON: {named}"):
        dataset.from_json(pp.GenSpec, data, "gen spec")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    assert main(["gen", "--spec", str(path), "--out-prefix", str(tmp_path / "g")]) == 2
    assert not list(tmp_path.glob("g_*"))


def test_genspec_float_fields_take_integers():
    data = dataset.to_json(pp.default_gen_spec())
    data.update(noise_rel=0, drop_rate=0)
    spec = dataset.from_json(pp.GenSpec, data, "gen spec")
    assert pp.generate(spec).dataset.n_rows == 299


def test_spec_float_fields_store_floats():
    # an integer noise_rel or drop_rate used to be stored, and written, as one
    spec = spec_of(noise_rel=1, drop_rate=np.int64(0))
    assert (type(spec.noise_rel), type(spec.drop_rate)) == (float, float)


def test_default_gen_spec_generates():
    res = pp.generate(pp.default_gen_spec())
    assert res.dataset.n_rows == 299
    assert res.dataset.counters == ("CPU_OP", "MEM_ACC", "IO_EVT")
    assert res.dataset.source == "datagen(seed=0)"


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(3, 40),
    drop=st.sampled_from([0.0, 0.2, 0.5]),
    wrap=st.booleans(),
    noise=st.sampled_from([0.0, 0.01]),
)
def test_sync_closure_property(seed, n, drop, wrap, noise):
    """synchronize(generated traces) is the generated dataset, always."""
    spec = pp.GenSpec(
        true_model=pp.PowerModel(intercept_w=2.0, terms=(("A", 1e-06),)),
        n_samples=n,
        counter_ranges={"A": (0, 100000)},
        drop_rate=drop,
        inject_wrap=wrap,
        noise_rel=noise,
        seed=seed,
    )
    res = pp.generate(spec)
    assert pp.synchronize(res.pmc, res.power) == res.dataset


def test_rows_match_the_reference_sync_of_their_own_traces():
    """Each run's rows are the reference synchronisation of that run's
    traces: an oracle that shares no code with ``sync.interval_deltas``,
    which gen and sync both form their deltas with.  W draws from its whole
    range, so a merged interval wraps more than once and aliases mod 2^32
    as the reference does; Z, with a run total of 0, never wraps."""
    spec = pp.GenSpec(
        true_model=pp.PowerModel(intercept_w=2.0, terms=(("A", 1e-06),)),
        n_samples=40,
        counter_ranges={"A": (0, 100000), "W": (0, 2**32 - 1), "Z": (0, 0)},
        n_runs=3,
        drop_rate=0.5,
        inject_wrap=True,
        noise_rel=0.01,
        seed=12,
    )
    res = pp.generate(spec)
    ds = res.dataset
    run_ids = np.array(ds.run_ids)
    aliased = 0
    for pmc, pwr in zip(res.pmc_traces, res.power_traces):
        assert len(pwr) < len(pmc)
        values = pmc.values.tolist()
        rows = ref_sync_rows(pmc.time_keys, values, pwr.time_keys, pwr.power_w, 0)
        mine = run_ids == pmc.run_id
        assert [t for t, _, _ in rows] == ds.time_keys[mine].tolist()
        assert [w for _, w, _ in rows] == ds.power_w[mine].tolist()
        assert [list(d) for _, _, d in rows] == ds.deltas[mine].tolist()
        assert not pmc.values[:, 2].any()
        # the events W counted over each merged interval, from the
        # single-sample deltas, which cannot wrap twice
        steps = [ref_delta(a[1], b[1]) for a, b in zip(values, values[1:])]
        ends = np.searchsorted(pmc.time_keys, pwr.time_keys)
        events = [sum(steps[i:j]) for i, j in zip(ends, ends[1:])]
        assert [e % MOD32 for e in events] == ds.deltas[mine, 1].tolist()
        aliased += sum(e >= MOD32 for e in events)
    assert aliased


def test_generate_holds_little_beyond_its_result():
    """One run of 50,001 samples x 24 counters: generate's traced peak is
    at most 3x the bytes its result's arrays hold.  Summing int64 running
    totals and taking their deltas and differences mod 2^32 took 5.1x."""
    spec = pp.GenSpec(
        true_model=pp.PowerModel(intercept_w=2.0, terms=(("C00", 1e-06),)),
        n_samples=50_001,
        counter_ranges={f"C{i:02d}": (0, 600_000) for i in range(24)},
        inject_wrap=True,
        seed=3,
    )
    tracemalloc.start()
    try:
        res = pp.generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    parts = (*res.pmc_traces, *res.power_traces, res.dataset)
    held = sum(
        a.nbytes for part in parts for a in vars(part).values()
        if isinstance(a, np.ndarray)
    )
    assert peak <= 3 * held, peak / held


def _select_smoke_spec():
    # the shape of the benchmark's select workload at smoke size: 10 runs x
    # 31 samples, 8 counters of which C01 and C05 are true
    names = [f"C{i:02d}" for i in range(8)]
    return pp.GenSpec(
        true_model=pp.PowerModel(
            intercept_w=2.5, terms=(("C01", 1.0e-6), ("C05", 2.0e-6))
        ),
        n_samples=31,
        counter_ranges={name: (0, 600_000) for name in names},
        n_runs=10,
        noise_rel=0.01,
        drop_rate=0.1,
        inject_wrap=True,
        seed=6,
    )


@pytest.mark.parametrize(
    "spec, digest",
    [
        (
            spec_of(n_samples=120, n_runs=3, drop_rate=0.3, noise_rel=0.05,
                    inject_wrap=True, seed=21),
            "f4388590b130e79713335d4f9d63fd152668980bb929a14cac79c7bada04d97a",
        ),
        (
            pp.default_gen_spec(),
            "8deb957b4463ee9986215b0b7b1430ebb41e0900eb87ea4cd199b1b7c307c1af",
        ),
        (
            _select_smoke_spec(),
            "93b89927ebbf10b0bec78e5b85ccff633eb2596274ec5d4e0e9d1cc0a93fc0f7",
        ),
    ],
    ids=["drops-noise-wrap", "default", "select-smoke"],
)
def test_generated_files_keep_their_bytes(tmp_path, spec, digest):
    # the bytes of every file gen writes are pinned: a change to the
    # generator must leave existing specs' output as it is
    res = pp.generate(spec)
    paths = []
    for pmc, power in zip(res.pmc_traces, res.power_traces):
        paths.append(tmp_path / f"{pmc.run_id}_pmc.csv")
        pp.write_counter_trace(pmc, paths[-1])
        paths.append(tmp_path / f"{power.run_id}_power.csv")
        pp.write_power_trace(power, paths[-1])
    paths.append(tmp_path / "dataset.csv")
    pp.write_dataset(res.dataset, paths[-1])
    sha = hashlib.sha256()
    for path in paths:
        sha.update(path.read_bytes())
    assert sha.hexdigest() == digest


# Model and spec fields a caller could pass: names, finite numbers as
# floats, ints or numpy scalars, and spec settings within their bounds.
# a name check_counter_names takes: neither TIME nor FREQ_MHZ, no comma, CR or LF
_NAME = st.text(min_size=1, max_size=3).filter(
    lambda n: n not in ("TIME", "FREQ_MHZ") and not set(n) & set(",\r\n")
)
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
_BOUNDS = st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2).map(sorted).map(tuple)
_SPEC_FIELDS = {
    "n_samples": st.integers(2, 10**6) | st.just(np.int64(5)),
    "n_runs": st.integers(1, 100),
    "sample_period_cycles": st.integers(1, 10**6),
    "noise_rel": st.floats(0, 1e3) | st.integers(0, 10) | st.just(np.float32(0.5)),
    "seed": st.integers(0, 2**64) | st.just(np.uint8(1)),
    "drop_rate": st.floats(0, 1, exclude_max=True),
    "inject_wrap": st.booleans(),
}
# what a bad caller could pass for any field, term entry or range
_ODD_VALUE = st.one_of(
    st.sampled_from(
        [np.nan, -np.inf, np.inf, None, True, "1.0", "AB", (), [], {}, ["A", "A"],
         ["A", 1.0], [[0, 1]], {"A": (0, 1)}, {"A": 5}, np.float64(np.nan),
         np.int64(3), np.float32(1.5), 10**400, -1, "freq_baseline", "FREQ_MHZ"]
    ),
    st.floats(),
    st.integers(-(2**64), 2**64),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_model_and_spec_are_refused_or_read_back_to_themselves(tmp_path_factory, data):
    """A model (with its training block) and a gen spec that the
    constructors accept write JSON that reads back equal and writes the
    same bytes again; a field, term entry or range that would break that
    (NaN, +-inf, a bool or string for a number, None) is a ValueError
    from the constructor."""
    names = data.draw(st.lists(_NAME, unique=True, max_size=3), label="names")
    model = {
        "intercept_w": data.draw(_NUMBER, label="intercept_w"),
        "terms": [[n, data.draw(_NUMBER, label=n)] for n in names],
    }
    training = {
        "algorithm": data.draw(st.sampled_from(pp.regress.ALGORITHMS)),
        "folds": data.draw(st.integers(-(2**64), 2**64) | st.just(np.int64(4))),
        "cv_mape_pct": data.draw(_NUMBER, label="cv_mape_pct"),
        "train_mape_pct": data.draw(_NUMBER, label="train_mape_pct"),
    }
    spec = {name: data.draw(s, label=name) for name, s in _SPEC_FIELDS.items()}
    spec["counter_ranges"] = {n: data.draw(_BOUNDS) for n in [*names, "IO"]}
    targets = [None, *[("model", k) for k in (*model, "kind", "training")]]
    targets += [("training", k) for k in training]
    targets += [("spec", k) for k in (*spec, "true_model")]
    targets += [("term", i, j) for i in range(len(names)) for j in (0, 1)]
    targets += [("range", n) for n in spec["counter_ranges"]]
    target = data.draw(st.sampled_from(targets), label="odd field")
    odd = data.draw(_ODD_VALUE, label="odd value")
    if target is not None:
        kind, key, *entry = target
        group = {"model": model, "training": training, "spec": spec}.get(kind)
        if kind == "term":
            model["terms"][key][entry[0]] = odd
        elif kind == "range":
            spec["counter_ranges"][key] = odd
        else:
            group[key] = odd
    try:
        meta = pp.TrainingMeta(**training)
        model = pp.PowerModel(**{"training": meta, **model})
        spec = pp.GenSpec(**{"true_model": model, **spec})
    except ValueError:
        assert target is not None  # only an odd value is refused
        return
    path = tmp_path_factory.getbasetemp() / "drawn.json"
    for write, read, artifact in (
        (pp.write_model, pp.read_model, model),
        (pp.write_gen_spec, pp.read_gen_spec, spec),
    ):
        write(artifact, path)
        text = path.read_bytes()
        back = read(path)
        assert back == artifact
        write(back, path)
        assert path.read_bytes() == text
