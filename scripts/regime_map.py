"""Map the convergence regime across an (alpha, p) grid.

Each alpha row runs at one derived seed on shared replications: each
replication is drawn once, at the largest n, and every n, every p of the row
and all three scans of each p read its prefixes, so a row costs one draw and
one set of prefix sums and rescales per replication and n. One process pool
serves the whole map. The path functionals are compared against the exact laws of their
Brownian limits, so the script needs no table on disk. The classifier labels
the cell degenerate / not_tight / brownian / inconclusive.
The expected picture: degenerate below and on the diagonal (p <= alpha < 2,
and p < alpha = 2), not_tight above it (p > alpha), brownian only at
p = alpha = 2.
"""

import argparse
import os
import time

from selfnorm import ConfigError, ExperimentConfig, FamilySpec, ParameterDomainError, regime_map


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(","))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=_floats, default=(0.8, 1.5, 2.0))
    ap.add_argument("--p", type=_floats, default=(0.8, 1.5, 2.0))
    ap.add_argument("--n", type=_floats, default=(1000, 4000, 16000))
    ap.add_argument("--reps", type=int, default=400)
    ap.add_argument("--epsilon", type=float, default=0.2)
    ap.add_argument("--seed", type=int, default=20260815)
    ap.add_argument("--workers", type=int, default=len(os.sched_getaffinity(0)),
                    help="worker processes (default: the CPUs this process may run on)")
    args = ap.parse_args()

    try:
        # n_grid takes integral floats (1e3) and refuses 100.7 rather than truncating it
        base = ExperimentConfig(
            family=FamilySpec(kind="SymStable", alpha=args.alpha[0]),
            p=args.p[0],
            n_grid=args.n,
            reps=args.reps,
            master_seed=args.seed,
            experiment="degenerate_scan",
            epsilon=args.epsilon,
            workers=args.workers,
        )
    except (ConfigError, ParameterDomainError) as exc:
        ap.error(str(exc))
    t0 = time.perf_counter()
    _, matrix = regime_map(base, args.alpha, args.p)
    dt = time.perf_counter() - t0

    width = max(len(lab) for lab in matrix.values()) + 2
    print("alpha \\ p " + "".join(f"{p:>{width}g}" for p in args.p))
    for a in args.alpha:
        row = "".join(f"{matrix[(a, p)]:>{width}}" for p in args.p)
        print(f"{a:>9g} {row}")
    print(f"\n{len(matrix)} cells in {dt:.1f}s "
          f"(reps={args.reps}, n up to {max(base.n_grid)}, epsilon={args.epsilon})")


if __name__ == "__main__":
    main()
