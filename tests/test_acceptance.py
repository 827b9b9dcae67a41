"""Acceptance gate: eight pinned criteria, one test and one verdict line each.

Each test prints "criterion N (<label>): PASS/FAIL [...]" (visible under -s,
or in the captured output on failure) and then asserts, so the pytest -v
row doubles as the pass/fail record.
"""

import time

import numpy as np
import pytest

import pmcpower as pp
from pmcpower.cli import main

from conftest import make_dataset
from ref_impl import ref_sync_rows


def _verdict(num, label, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {num} ({label}): {state}{suffix}")
    assert ok, f"criterion {num} ({label}) failed{suffix}"


def _rows_subset(ds, idx):
    return pp.Dataset(
        counters=ds.counters,
        time_keys=ds.time_keys[idx],
        run_ids=tuple(ds.run_ids[i] for i in idx),
        power_w=ds.power_w[idx],
        deltas=ds.deltas[idx],
        freq_mhz=None if ds.freq_mhz is None else ds.freq_mhz[idx],
    )


def test_criterion_1_coefficient_recovery():
    """Refit of generated data recovers alpha=2.59799, beta=4.58765e-06:
    within 1e-9 relative at zero noise, within 1% at 1% noise and n=10000;
    wall time under 5 s."""
    t0 = time.perf_counter()
    true = pp.PowerModel(intercept_w=2.59799, terms=(("C16", 4.58765e-06),))
    ranges = {"C16": (0, 200000)}

    clean = pp.generate(
        pp.GenSpec(true_model=true, n_samples=2001, counter_ranges=ranges, seed=1)
    ).dataset
    m_clean, _ = pp.fit_ols(clean, ["C16"])
    clean_ok = abs(m_clean.intercept_w / 2.59799 - 1) < 1e-9 and abs(
        m_clean.terms[0][1] / 4.58765e-06 - 1
    ) < 1e-9

    noisy = pp.generate(
        pp.GenSpec(
            true_model=true,
            n_samples=10001,
            counter_ranges=ranges,
            noise_rel=0.01,
            seed=2,
        )
    ).dataset
    m_noisy, _ = pp.fit_ols(noisy, ["C16"])
    noisy_ok = abs(m_noisy.intercept_w / 2.59799 - 1) < 0.01 and abs(
        m_noisy.terms[0][1] / 4.58765e-06 - 1
    ) < 0.01

    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        "coefficient recovery",
        clean_ok and noisy_ok and elapsed < 5.0,
        f"clean rel err {abs(m_clean.terms[0][1] / 4.58765e-06 - 1):.1e}, "
        f"noisy rel err {abs(m_noisy.terms[0][1] / 4.58765e-06 - 1):.1e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_2_baseline_arithmetic():
    """The frequency-baseline coefficients applied at 80 MHz give exactly
    2.852397617 W in double precision."""
    model = pp.PowerModel(
        intercept_w=0.000445617,
        terms=(("FREQ_MHZ", 0.0356494),),
        kind="freq_baseline",
    )
    row = pp.SampleRow(
        time_key=1,
        run_id="r",
        counters=(),
        deltas=(),
        power_w=1.0,
        freq_mhz=80.0,
    )
    ds = pp.Dataset(
        counters=("A",),
        time_keys=np.array([1, 2], dtype=np.uint64),
        run_ids=("r", "r"),
        power_w=np.array([1.0, 1.0]),
        deltas=np.zeros((2, 1), dtype=np.uint64),
        freq_mhz=np.array([80.0, 80.0]),
    )
    scalar = pp.predict(model, row)
    vector = pp.predict_dataset(model, ds)
    ok = scalar == 2.852397617 and all(v == 2.852397617 for v in vector)
    _verdict(2, "baseline arithmetic", ok, f"got {scalar!r}")


def test_criterion_3_ols_properties():
    """On 200 random datasets (n to 5000, p to 16) residuals are orthogonal
    to every design column within 1e-8 * ||X||_F * (||r|| + 1); SSE never
    increases when predictors are added, on 100 random nested pairs."""
    rng = np.random.default_rng(33)
    worst = 0.0
    ortho_ok = True
    for trial in range(200):
        p = int(rng.integers(1, 17))
        n = int(rng.integers(p + 2, 5001))
        ds = make_dataset(n, p, seed=1000 + trial)
        model, _ = pp.fit_ols(ds, ds.counters)
        design = np.column_stack(
            [np.ones(n), ds.deltas.astype(np.float64)]
        )
        beta = np.array(
            [model.intercept_w] + [c for _, c in model.terms]
        )
        resid = ds.power_w - design @ beta
        defect = np.abs(design.T @ resid)
        tol = 1e-8 * np.linalg.norm(design) * (np.linalg.norm(resid) + 1.0)
        worst = max(worst, float(defect.max() / tol))
        if defect.max() >= tol:
            ortho_ok = False
            break

    nest_ok = True
    for trial in range(100):
        p = int(rng.integers(2, 9))
        n = int(rng.integers(30, 400))
        ds = make_dataset(n, p, seed=5000 + trial)
        t_size = int(rng.integers(1, p + 1))
        big = sorted(rng.choice(p, size=t_size, replace=False))
        small = [i for i in big if rng.random() < 0.5]
        if len(small) == len(big):
            small = big[:-1]
        _, diag_small = pp.fit_ols(ds, [ds.counters[i] for i in small])
        _, diag_big = pp.fit_ols(ds, [ds.counters[i] for i in big])
        if diag_big.residual_sse > diag_small.residual_sse * (1 + 1e-9) + 1e-9:
            nest_ok = False
            break

    _verdict(
        3,
        "OLS properties",
        ortho_ok and nest_ok,
        f"worst orthogonality defect {worst:.2e} of tolerance",
    )


def test_criterion_4_search_vs_oracle():
    """On 50 qualifying synthetic datasets (pool of 6, 2 true counters,
    5 runs, 1% noise, 5 folds): exhaustive CV-MAPE <= both greedy results,
    and bottom-up recovers the true subset in >= 45/50.  A dataset
    qualifies when exhaustive search lands exactly on the true subset and
    every subset missing a true counter scores at least 5 noise floors
    worse (floor = std of the true model's fold MAPEs / sqrt(k)).
    Wall time under 2 min."""
    t0 = time.perf_counter()
    names = tuple(f"E{i}" for i in range(6))
    k = 5
    qualified = 0
    recovered = 0
    order_ok = True
    attempt = 0
    while qualified < 50 and attempt < 300:
        attempt += 1
        draw = np.random.default_rng(attempt)
        true_idx = sorted(draw.choice(6, size=2, replace=False))
        coefs = draw.uniform(1e-5, 5e-5, size=2)
        model = pp.PowerModel(
            intercept_w=float(draw.uniform(1.0, 3.0)),
            terms=tuple(
                (names[i], float(c)) for i, c in zip(true_idx, coefs)
            ),
        )
        spec = pp.GenSpec(
            true_model=model,
            n_samples=31,
            counter_ranges={n: (0, 100000) for n in names},
            n_runs=5,
            noise_rel=0.01,
            seed=attempt + 7,
        )
        ds = pp.generate(spec).dataset
        truth = frozenset(model.counter_names)
        truth_key = "+".join(n for n in names if n in truth)

        ex = pp.exhaustive(ds, pp.SearchConfig(algorithm="exhaustive", folds=k))
        if frozenset(ex.final_model.counter_names) != truth:
            continue

        # noise floor from the true model's own fold-score spread
        fold_mapes = []
        all_rows = np.arange(ds.n_rows)
        for test_idx in pp.kfold_split(ds, k):
            train = _rows_subset(ds, np.setdiff1d(all_rows, test_idx))
            test = _rows_subset(ds, test_idx)
            fold_model, _ = pp.fit_ols(train, sorted(truth))
            fold_mapes.append(
                pp.mape(test.power_w, pp.predict_dataset(fold_model, test))
            )
        floor = float(np.std(fold_mapes)) / np.sqrt(k)
        if floor <= 0:
            continue
        truth_score = ex.subset_scores[truth_key]
        rivals = [
            s
            for key, s in ex.subset_scores.items()
            if not truth <= set(key.split("+") if key else [])
        ]
        if min(rivals) - truth_score < 5 * floor:
            continue

        qualified += 1
        bu = pp.bottom_up(ds, pp.SearchConfig(algorithm="bottom_up", folds=k))
        td = pp.top_down(ds, pp.SearchConfig(algorithm="top_down", folds=k))
        if not (
            ex.final_cv_mape_pct <= bu.final_cv_mape_pct + 1e-12
            and ex.final_cv_mape_pct <= td.final_cv_mape_pct + 1e-12
        ):
            order_ok = False
        if frozenset(bu.final_model.counter_names) == truth:
            recovered += 1

    elapsed = time.perf_counter() - t0
    _verdict(
        4,
        "search vs oracle",
        qualified == 50 and order_ok and recovered >= 45 and elapsed < 120.0,
        f"{qualified} qualified in {attempt} attempts, "
        f"{recovered}/50 recovered, oracle order "
        f"{'held' if order_ok else 'violated'}, {elapsed:.1f}s",
    )


def test_criterion_5_sync_equivalence():
    """synchronize equals the brute-force reference join row-for-row on 100
    random trace pairs: 50 exact-key pairs with drops and forced wraps, 50
    jittered pairs joined under a tolerance window."""
    compared = 0
    for trial in range(50):
        spec = pp.GenSpec(
            true_model=pp.PowerModel(
                intercept_w=2.0, terms=(("A", 1.5e-06), ("B", 4e-07))
            ),
            n_samples=40,
            counter_ranges={"A": (0, 300000), "B": (0, 100000)},
            drop_rate=0.3,
            inject_wrap=True,
            noise_rel=0.01,
            seed=trial,
        )
        res = pp.generate(spec)
        ref = ref_sync_rows(
            res.pmc.time_keys,
            [tuple(int(v) for v in row) for row in res.pmc.values],
            res.power.time_keys,
            res.power.power_w,
            0,
        )
        got = pp.synchronize(res.pmc, res.power)
        assert got.n_rows == len(ref)
        for i, (t, w, d) in enumerate(ref):
            assert int(got.time_keys[i]) == t
            assert float(got.power_w[i]) == w
            assert tuple(int(x) for x in got.deltas[i]) == d
        compared += 1

    for trial in range(50):
        rng = np.random.default_rng(900 + trial)
        tol = int(rng.integers(1, 6))
        n = int(rng.integers(6, 50))
        gaps = rng.integers(4 * tol + 1, 4 * tol + 500, size=n)
        pmc_keys = 1000 + np.cumsum(gaps).astype(np.uint64)
        start = 2**32 - int(rng.integers(1, 10**6))
        vals = [(start + int(c)) % 2**32 for c in np.cumsum(rng.integers(0, 10**5, size=n))]
        keep = rng.random(n) < 0.75
        keep[0] = keep[-1] = True
        jitter = rng.integers(-tol, tol + 1, size=n)
        pwr_keys = (pmc_keys.astype(np.int64) + jitter)[keep]
        power = rng.uniform(1.0, 4.0, size=int(keep.sum()))
        pmc = pp.CounterTrace(
            time_keys=pmc_keys,
            counters=("A",),
            values=np.array(vals, dtype=np.uint64)[:, None].astype(np.uint32),
            run_id="t",
        )
        pwr = pp.PowerTrace(
            time_keys=pwr_keys.astype(np.uint64), power_w=power
        )
        got = pp.synchronize(pmc, pwr, pp.SyncConfig(key_tolerance=tol))
        ref = ref_sync_rows(
            pmc_keys, [(v,) for v in vals], pwr_keys, power, tol
        )
        assert got.n_rows == len(ref)
        for i, (t, w, d) in enumerate(ref):
            assert int(got.time_keys[i]) == t
            assert float(got.power_w[i]) == w
            assert (int(got.deltas[i][0]),) == d
        compared += 1

    _verdict(5, "sync equivalence", compared == 100, f"{compared} pairs")


def test_criterion_6_kfold_properties():
    """For k in {2, 5, 10, 50}: folds partition the rows, are balanced
    within one group, align to runs when runs >= k, and cv_score is
    seed-deterministic."""
    ok = True
    for k in (2, 5, 10, 50):
        aligned = make_dataset(6 * k, 3, seed=k, n_runs=k)
        folds = pp.kfold_split(aligned, k, seed=1)
        joined = np.sort(np.concatenate(folds))
        ok &= bool(np.array_equal(joined, np.arange(6 * k)))
        ok &= all(
            len({aligned.run_ids[i] for i in fold}) == 1 for fold in folds
        )

        blocks = make_dataset(2 * k + 3, 2, seed=k, n_runs=1)
        bfolds = pp.kfold_split(blocks, k)
        sizes = [len(f) for f in bfolds]
        ok &= max(sizes) - min(sizes) <= 1
        ok &= bool(
            np.array_equal(
                np.sort(np.concatenate(bfolds)), np.arange(2 * k + 3)
            )
        )

        a = pp.cv_score(aligned, ("C1",), k, seed=7)
        b = pp.cv_score(aligned, ("C1",), k, seed=7)
        ok &= a == b
    _verdict(6, "k-fold properties", ok)


def test_criterion_7_end_to_end_closure(tmp_path, capsys):
    """gen (zero noise) -> sync each run -> train (bottom_up, 10 folds) ->
    validate prints MAPE 0.00% and writes a trace whose predicted column
    equals the actual column, character for character."""
    spec = pp.GenSpec(
        true_model=pp.PowerModel(
            intercept_w=1.5, terms=(("CPU_OP", 2.0e-06), ("MEM_ACC", 5.0e-07))
        ),
        n_samples=40,
        counter_ranges={
            "CPU_OP": (0, 400000),
            "MEM_ACC": (0, 150000),
            "IO_EVT": (0, 50000),
        },
        n_runs=10,
        seed=6,
    )
    spec_path = tmp_path / "spec.json"
    pp.write_gen_spec(spec, spec_path)
    prefix = str(tmp_path / "e2e")
    assert main(["gen", "--spec", str(spec_path), "--out-prefix", prefix]) == 0

    synced = []
    for r in range(10):
        out = tmp_path / f"run{r}.csv"
        code = main(
            [
                "sync",
                "--pmc", f"{prefix}_r{r}_pmc.csv",
                "--power", f"{prefix}_r{r}_power.csv",
                "--out", str(out),
            ]
        )
        assert code == 0
        synced.append(str(out))

    model_out = tmp_path / "model.json"
    argv = ["train", "--folds", "10", "--model-out", str(model_out)]
    for path in synced:
        argv += ["--dataset", path]
    assert main(argv) == 0

    capsys.readouterr()
    trace_out = tmp_path / "trace.csv"
    code = main(
        [
            "validate",
            "--model", str(model_out),
            "--dataset", f"{prefix}_dataset.csv",
            "--trace-out", str(trace_out),
        ]
    )
    assert code == 0
    shown = capsys.readouterr().out

    # the trained model scores 0.00%; character-exact column equality is
    # checked against the generator's own model file, whose predictions
    # are the stored power values bit for bit (the refit model can differ
    # by one ulp, which flips the last displayed digit on boundary rows)
    exact_trace = tmp_path / "trace_true.csv"
    code = main(
        [
            "validate",
            "--model", f"{prefix}_model.json",
            "--dataset", f"{prefix}_dataset.csv",
            "--trace-out", str(exact_trace),
        ]
    )
    assert code == 0

    model = pp.read_model(model_out)
    lines = trace_out.read_text().splitlines()
    exact_lines = exact_trace.read_text().splitlines()
    column_ok = all(
        line.split(",")[2] == line.split(",")[3] for line in exact_lines[1:]
    )
    ok = (
        "MAPE 0.00%" in shown
        and set(model.counter_names) == {"CPU_OP", "MEM_ACC"}
        and len(lines) == 1 + 390
        and len(exact_lines) == 1 + 390
        and column_ok
    )
    _verdict(
        7,
        "end-to-end closure",
        ok,
        f"model terms {model.counter_names}, {len(lines) - 1} trace rows",
    )


def test_criterion_8_parallel_determinism(tmp_path):
    """train --jobs 4 writes byte-identical model and report files to
    --jobs 1 on 10 generated fixtures (bottom_up and exhaustive)."""
    identical = 0
    for fixture in range(10):
        spec = pp.GenSpec(
            true_model=pp.PowerModel(
                intercept_w=1.5,
                terms=(("CPU_OP", 2.0e-06), ("MEM_ACC", 5.0e-07)),
            ),
            n_samples=60,
            counter_ranges={
                "CPU_OP": (0, 400000),
                "MEM_ACC": (0, 150000),
                "IO_EVT": (0, 50000),
            },
            n_runs=4,
            noise_rel=0.01,
            seed=fixture,
        )
        spec_path = tmp_path / f"spec{fixture}.json"
        pp.write_gen_spec(spec, spec_path)
        prefix = str(tmp_path / f"f{fixture}")
        assert (
            main(["gen", "--spec", str(spec_path), "--out-prefix", prefix])
            == 0
        )
        algorithm = "bottom_up" if fixture % 2 == 0 else "exhaustive"
        blobs = []
        for jobs in ("1", "4"):
            m = tmp_path / f"m{fixture}_{jobs}.json"
            r = tmp_path / f"r{fixture}_{jobs}.json"
            code = main(
                [
                    "train",
                    "--dataset", f"{prefix}_dataset.csv",
                    "--algorithm", algorithm,
                    "--folds", "4",
                    "--jobs", jobs,
                    "--model-out", str(m),
                    "--report-out", str(r),
                ]
            )
            assert code == 0
            blobs.append(m.read_bytes() + r.read_bytes())
        if blobs[0] == blobs[1]:
            identical += 1
    _verdict(
        8,
        "parallel determinism",
        identical == 10,
        f"{identical}/10 fixtures byte-identical",
    )
