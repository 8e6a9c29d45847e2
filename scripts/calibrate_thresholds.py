"""Measure how the exceedance statistic responds to the window width epsilon.

The classifier separates the slowest degenerate cell (p = alpha < 2, where
the endpoint Y(1) = S_n/V_{n,p} shrinks only like (log n)^{-1/alpha}) from the
Brownian cell by the fraction of paths with |Y(1)| > epsilon: the
`exceedance` row of a degenerate_scan.  At epsilon = 0.1 the two
distributions overlap at desk-scale n; widening the window to epsilon = 0.2
opens a usable gap.  This script reproduces the measurement behind the
shipped thresholds (exceedance split 0.785, degenerate ceiling 0.755).
The degenerate regime is a claim about sup_t |Y(t)|, not only the endpoint;
moving the rule and this script to the sup norm is the ROADMAP item
"Reps-scaled tests, degenerate on the sup norm, thresholds bound to epsilon,
clean edges".
"""

import argparse
import os

from selfnorm import (ConfigError, ExperimentConfig, FamilySpec, ParameterDomainError,
                      load_default_thresholds, run_experiment)
from selfnorm.cli import _float_list


# boundary cells: the two slow degenerate diagonals, one off-diagonal
# degenerate cell, and the Brownian corner
CELLS = (
    ("SymStable", 1.5, 1.5, "degenerate (p = alpha)"),
    ("SymStable", 0.8, 0.8, "degenerate (p = alpha)"),
    ("SymStable", 2.0, 1.5, "degenerate (p < alpha = 2)"),
    ("SymStable", 2.0, 2.0, "brownian"),
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    # integral floats (1.6e4) pass; ExperimentConfig refuses 100.7 rather than truncating it
    ap.add_argument("--n", type=float, default=16_000)
    ap.add_argument("--reps", type=int, default=1000)
    ap.add_argument("--epsilons", type=_float_list, default="0.1,0.15,0.2,0.25,0.3")
    ap.add_argument("--seed", type=int, default=20260815)
    ap.add_argument("--workers", type=int, default=len(os.sched_getaffinity(0)),
                    help="worker processes (default: the CPUs this process may run on)")
    args = ap.parse_args()
    epsilons = args.epsilons
    if not epsilons:
        ap.error("--epsilons names no value")
    try:  # every config is checked before the first one runs
        configs = [[ExperimentConfig(
            family=FamilySpec(kind=kind, alpha=alpha),
            p=p,
            n_grid=(args.n,),
            reps=args.reps,
            master_seed=args.seed,
            experiment="degenerate_scan",
            epsilon=eps,
            workers=args.workers,
        ) for eps in epsilons] for kind, alpha, p, _ in CELLS]
    except (ConfigError, ParameterDomainError) as exc:
        ap.error(str(exc))

    names = [f"alpha={alpha:g} p={p:g} {label}" for _, alpha, p, label in CELLS]
    width = max(len(name) for name in names)
    print(f"exceedance fraction P(|Y(1)| > eps) at n={configs[0][0].n_grid[0]}, reps={args.reps}")
    print(f"{'cell':>{width}} " + "".join(f"  eps={e:g}" for e in epsilons))
    for cell_configs, name in zip(configs, names):
        vals = []
        for config in cell_configs:
            report = run_experiment(config)
            exc = next(row.value for row in report.aggregates
                       if row.statistic == "exceedance")
            vals.append(exc)
        print(f"{name:>{width}} " + "".join(f"{v:>9.4f}" for v in vals))

    se = (0.25 / args.reps) ** 0.5
    thresholds = load_default_thresholds()
    print(f"\nbinomial se at worst case: {se:.4f}")
    print(f"shipped: degenerate ceiling {thresholds['exceedance_final_max']}, "
          f"split {thresholds['splits']['exceedance']} "
          f"(calibrated at epsilon = {thresholds.get('calibrated_epsilon')})")


if __name__ == "__main__":
    main()
