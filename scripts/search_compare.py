#!/usr/bin/env python3
"""Compare the greedy searches against the exhaustive oracle.

For a batch of random synthetic datasets this fits all three algorithms,
then reports how often each greedy run matched the oracle's subset, how
often it recovered the true generating counters, and the wall time split.
Pools stay small enough for exhaustive enumeration, so the oracle column
is the ground truth for "best achievable CV MAPE".
"""

import argparse
import sys
import time
from collections import defaultdict

import numpy as np

import pmcpower as pp

POOL = ("C_A", "C_B", "C_C", "C_D", "C_E", "C_F")


def random_case(seed, noise_rel):
    rng = np.random.default_rng(seed)
    n_true = int(rng.integers(1, 4))
    true = sorted(rng.choice(len(POOL), size=n_true, replace=False))
    terms = tuple(
        (POOL[i], float(rng.uniform(1e-5, 5e-5))) for i in true
    )
    model = pp.PowerModel(
        intercept_w=float(rng.uniform(1.0, 3.0)), terms=terms
    )
    spec = pp.GenSpec(
        true_model=model,
        counter_ranges={c: (0, 100_000) for c in POOL},
        n_samples=41,
        n_runs=5,
        noise_rel=noise_rel,
        seed=seed,
    )
    return model, pp.generate(spec).dataset


def subset_key(model):
    return "+".join(sorted(name for name, _ in model.terms))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cases", type=int, default=30)
    ap.add_argument("--noise-rel", type=float, default=0.01)
    ap.add_argument("--folds", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.cases < 1:
        ap.error("--cases must be >= 1")

    algos = ("bottom_up", "top_down", "exhaustive")
    hits_oracle = defaultdict(int)
    hits_true = defaultdict(int)
    total_time = defaultdict(float)
    worse_than_oracle = defaultdict(list)

    for case in range(args.cases):
        true_model, ds = random_case(args.seed + 1000 * case, args.noise_rel)
        true_key = subset_key(true_model)
        picked = {}
        scores = {}
        for algo in algos:
            cfg = pp.SearchConfig(
                algorithm=algo, candidate_pool=POOL,
                folds=args.folds, fold_seed=args.seed,
            )
            t0 = time.perf_counter()
            rep = pp.run_search(ds, cfg)
            total_time[algo] += time.perf_counter() - t0
            picked[algo] = subset_key(rep.final_model)
            scores[algo] = rep.final_cv_mape_pct
        for algo in algos:
            if picked[algo] == picked["exhaustive"]:
                hits_oracle[algo] += 1
            if picked[algo] == true_key:
                hits_true[algo] += 1
            worse_than_oracle[algo].append(
                scores[algo] - scores["exhaustive"]
            )

    print(f"{args.cases} datasets, pool {len(POOL)}, "
          f"noise_rel {args.noise_rel}, k={args.folds}")
    print(f"{'algorithm':<12} {'=oracle':>8} {'=truth':>8} "
          f"{'max gap %':>10} {'time s':>8}")
    for algo in algos:
        gap = max(worse_than_oracle[algo])
        print(f"{algo:<12} {hits_oracle[algo]:>5}/{args.cases:<2} "
              f"{hits_true[algo]:>5}/{args.cases:<2} {gap:>10.4f} "
              f"{total_time[algo]:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
