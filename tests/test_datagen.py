"""Generator invariants: determinism, sync closure, ground-truth recovery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmcpower as pp

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
    data = pp.genspec_to_dict(pp.default_gen_spec())
    data["fooo"] = 1
    with pytest.raises(pp.FormatError, match="unknown gen spec keys: fooo"):
        pp.genspec_from_dict(data)


def test_genspec_bad_json_file(tmp_path):
    path = tmp_path / "bad.json"
    for text in ("{]", "[1, 2]"):
        path.write_text(text)
        with pytest.raises(pp.FormatError, match="bad gen spec JSON"):
            pp.read_gen_spec(path)


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
