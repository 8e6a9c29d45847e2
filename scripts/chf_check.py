"""Compare the empirical joint chf of (Y(1), normalizer ratio) to its limit.

Valid in the non-tight regime p > alpha with alpha < 2: the scaled pairs
(S_n / n^{1/alpha}, V_{n,p}^p / n^{p/alpha}) have a limiting joint chf with an
explicit exponent, evaluated here by oscillatory quadrature.
"""

import argparse
import os

from selfnorm import (CHF_U_GRID, CHF_W_GRID, ConfigError, ExperimentConfig, FamilySpec,
                      ParameterDomainError, run_experiment)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--family", default="SymPareto", choices=("SymPareto", "SymStable", "StudentT"))
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--p", type=float, default=2.0)
    # integral floats (1e5) pass; ExperimentConfig refuses 100.7 rather than truncating it
    ap.add_argument("--n", type=float, default=100_000)
    ap.add_argument("--reps", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=20260815)
    ap.add_argument("--workers", type=int, default=len(os.sched_getaffinity(0)),
                    help="worker processes (default: the CPUs this process may run on)")
    args = ap.parse_args()

    try:
        config = ExperimentConfig(
            family=FamilySpec(kind=args.family, alpha=args.alpha),
            p=args.p,
            n_grid=(args.n,),
            reps=args.reps,
            master_seed=args.seed,
            experiment="chf_compare",
            workers=args.workers,
        )
    except (ConfigError, ParameterDomainError) as exc:
        ap.error(str(exc))
    report = run_experiment(config)
    err = {row.statistic: row.value for row in report.aggregates}

    print(f"|empirical chf - limit chf| at n={config.n_grid[0]}, reps={args.reps} "
          f"({args.family} alpha={args.alpha}, p={args.p}); mc noise ~ {1.0 / args.reps ** 0.5:.4f}")
    print("   u \\ w " + "".join(f"{w:>9g}" for w in CHF_W_GRID))
    for u in CHF_U_GRID:
        row = "".join(f"{err[f'chf_abs_err_u{u:g}_w{w:g}']:>9.4f}" for w in CHF_W_GRID)
        print(f"{u:>8g} {row}")
    print(f"max abs error: {err['chf_abs_err_max']:.4f}")


if __name__ == "__main__":
    main()
