"""Build the Brownian functional oracle tables (G2-G4) used by the test suite.

The canonical build (100k paths, 10k steps) writes plain-text tables that
every later run loads instead of re-simulating. It takes about 90 s of one
core and peaks at about 80 MB of memory (2-vCPU Xeon guest, 2 MiB L2): the
paths are simulated in 1 MiB row blocks. G1 (the running maximum) is not
built: its closed form is exact.
"""

import argparse

from selfnorm import (
    ORACLE_PATHS,
    ORACLE_SEED,
    ORACLE_STEPS,
    build_oracles,
    default_oracle_dir,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="output directory (default: the standard oracle dir)")
    ap.add_argument("--paths", type=int, default=ORACLE_PATHS)
    ap.add_argument("--steps", type=int, default=ORACLE_STEPS)
    ap.add_argument("--seed", type=int, default=ORACLE_SEED)
    args = ap.parse_args()

    out = args.out if args.out is not None else default_oracle_dir()
    written = build_oracles(out, paths=args.paths, steps=args.steps, seed=args.seed)
    for path in written:
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
