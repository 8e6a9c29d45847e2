"""Map the convergence regime across an (alpha, p) grid: `selfnorm sweep` at desk scale.

    python scripts/regime_map.py [selfnorm sweep flags]

The script runs `selfnorm sweep` with the desk preset DESK; flags given on
the command line override it, and a --config file overrides both. Flags,
output and exit codes are the CLI's; the script adds its wall time.

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

import os
import sys
import time

from selfnorm import cli

# worker default: the CPUs this process may run on
DESK = ["--family", "SymStable", "--alpha", "0.8,1.5,2.0", "--p", "0.8,1.5,2.0",
        "--n", "1000,4000,16000", "--reps", "400", "--epsilon", "0.2", "--seed", "20260815",
        "--workers", str(len(os.sched_getaffinity(0)))]


def main(argv=None) -> int:
    t0 = time.perf_counter()
    status = cli.main(["sweep", *DESK, *(sys.argv[1:] if argv is None else argv)])
    if status == 0:
        print(f"\n{time.perf_counter() - t0:.1f}s wall")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
