#!/usr/bin/env python3
"""Reproduce the covering-with-repetitions counterexample experiment.

Computes the exact infinite-horizon pipeline values, then estimates both
covering probabilities by simulation at increasing step budgets so the
truncation gap is visible.  The full-scale setting (half a million walks
of forty thousand steps) takes on the order of an hour single-threaded;
pass --full to run it, otherwise a desk-scale version runs in minutes.
"""

import argparse
import json

from walkcover.hitting import (COUNTEREXAMPLE_PATHS, counterexample_probabilities,
                               truncation_bias_estimate)
from walkcover.lattice import CoverTarget
from walkcover.montecarlo import SimConfig, mc_compare


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--threads", type=int, default=8)
    ap.add_argument("--full", action="store_true",
                    help="half a million walks up to L=40000 per horizon")
    args = ap.parse_args()

    ce = counterexample_probabilities(tol=1e-5)
    print(f"pipeline: p_original  = {ce.p_original:.6f}")
    print(f"pipeline: p_reflected = {ce.p_reflected:.6f}")
    for note in ce.notes:
        print(f"note: {note}")

    walks = 500_000 if args.full else 50_000
    horizons = (40, 400, 4000, 40_000) if args.full else (40, 400, 4000, 10_000)
    targets = [CoverTarget.of_path(p, "repetitions") for p in COUNTEREXAMPLE_PATHS]
    rows = []
    for L in horizons:
        cfg = SimConfig(d=3, L=L, n_walks=walks, seed=args.seed,
                        mode="repetitions", threads=args.threads)
        res = mc_compare(targets, cfg)
        bias = truncation_bias_estimate(L, ce.p_original)
        rows.append({"L": L, "walks": walks,
                     "p_original_mc": res.estimates[0].p_hat,
                     "p_reflected_mc": res.estimates[1].p_hat,
                     "stderr": res.estimates[0].stderr,
                     "bias_estimate": bias})
        print(f"L={L:>6}: original {res.estimates[0].p_hat:.5f}  "
              f"reflected {res.estimates[1].p_hat:.5f}  "
              f"(stderr {res.estimates[0].stderr:.5f}, bias est {bias:.1e})")
    print(json.dumps({"pipeline": {"p_original": ce.p_original,
                                   "p_reflected": ce.p_reflected},
                      "mc": rows}, indent=2))


if __name__ == "__main__":
    main()
