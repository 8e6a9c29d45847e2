"""The benchmark's three workloads: inputs made from a seed, one pass, and the
correctness gate that checks the pass's output.

Every call into the package goes through `selfnorm.harness` attributes looked
up at call time, so a pass run under `tracing.installed` is recorded without
any other change. The gate's own reference values (`limit_chf` at (1, 0),
`g2_law`) are computed outside the traced names.
"""
from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import selfnorm
from selfnorm import ExperimentConfig, FamilySpec, harness

# Second seed every run also puts through the gate (odd-numbered passes), so
# a result that holds only at the workload seed shows.
HELDOUT_SEED = 20261017


@dataclass
class Outcome:
    """What one pass produced: variates configured, gate checks, payload digests."""

    draws: int
    checks: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def check(self, name: str, ok, detail: str, undecided: bool = False) -> None:
        """Record one gate check; `undecided` marks a miss where nothing wrong was reported."""
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail,
                            "undecided": bool(undecided) and not ok})

    def check_finite(self, label: str, report) -> None:
        bad = [row.statistic for row in report.aggregates
               if not math.isfinite(row.value)
               or (row.stderr is not None and not math.isfinite(row.stderr))]
        self.check(f"{label}:finite", not bad,
                   f"{len(report.aggregates)} aggregates, non-finite: {bad}")


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Path], object]
    run: Callable[[object, int, int], Outcome]
    # largest array one pass allocates at once, for comparison with L3
    largest_array_bytes: int


def _payload_sha256(report) -> str:
    # the bytes `write_report(report, "json", ...)` writes, newline aside
    text = json.dumps(selfnorm.report_payload(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# regime_map: the desk-scale trichotomy of scripts/regime_map.py

REGIME_GRID = (0.8, 1.5, 2.0)
REGIME_N_GRID = (1000, 4000, 16000)
REGIME_REPS = 400
REGIME_EPSILON = 0.2
# reduced G3/G4 tables for the ek_functionals scan, built in setup at the
# canonical oracle seed
REGIME_TABLE_PATHS = 8192
REGIME_TABLE_STEPS = 2000


def _expected_regime(alpha: float, p: float) -> str:
    if (alpha, p) == (2.0, 2.0):
        return "brownian"
    return "not_tight" if p > alpha else "degenerate"


def _regime_setup(workdir: Path) -> Path:
    harness.build_oracles(workdir, kinds=("G3", "G4"), paths=REGIME_TABLE_PATHS,
                          steps=REGIME_TABLE_STEPS, seed=selfnorm.ORACLE_SEED)
    for kind in harness.REGIME_SCAN_KINDS:
        harness.run_experiment(ExperimentConfig(
            family=FamilySpec(kind="SymStable", alpha=1.5), p=1.5, n_grid=(200, 400),
            reps=8, master_seed=1, experiment=kind, epsilon=REGIME_EPSILON), oracle_dir=workdir)
    return workdir


def _regime_run(oracle_dir: Path, seed: int, workers: int) -> Outcome:
    base = ExperimentConfig(
        family=FamilySpec(kind="SymStable", alpha=REGIME_GRID[0]), p=REGIME_GRID[0],
        n_grid=REGIME_N_GRID, reps=REGIME_REPS, master_seed=seed,
        experiment="degenerate_scan", epsilon=REGIME_EPSILON, workers=workers)
    reports, matrix = harness.regime_map(base, REGIME_GRID, REGIME_GRID, oracle_dir=oracle_dir)
    out = Outcome(draws=sum(r.draw_count for r in reports))
    for alpha in REGIME_GRID:
        for p in REGIME_GRID:
            label, expected = matrix.get((alpha, p)), _expected_regime(alpha, p)
            # an "inconclusive" cell fails the trichotomy check but states no
            # wrong regime; run.py counts it as failed, not as incorrect
            out.check(f"cell({alpha:g},{p:g})", label == expected, f"{label}, expected {expected}",
                      undecided=label == "inconclusive")
    for r in reports:
        key = f"{r.config.family.alpha:g}/{r.config.p:g}/{r.config.experiment}"
        out.check_finite(key, r)
        out.digests[key] = _payload_sha256(r)
    return out


# ---------------------------------------------------------------------------
# chf_compare: the criterion-7 configuration of scripts/chf_check.py

CHF_FAMILY = FamilySpec(kind="SymStable", alpha=1.0)
CHF_P = 2.0
CHF_N = 100_000
CHF_REPS = 1000
# each grid error is the modulus of a mean of reps unit-modulus terms, so its
# noise is at most 1/sqrt(reps); P(|err| > k/sqrt(reps)) <= exp(-k^2)
CHF_TOL_SE = 4.0


def _chf_config(seed: int, n: int, reps: int, workers: int) -> ExperimentConfig:
    return ExperimentConfig(family=CHF_FAMILY, p=CHF_P, n_grid=(n,), reps=reps,
                            master_seed=seed, experiment="chf_compare", workers=workers)


def _chf_setup(workdir: Path) -> None:
    harness.run_experiment(_chf_config(1, n=1000, reps=16, workers=1))


def _chf_run(_ctx, seed: int, workers: int) -> Outcome:
    report = harness.run_experiment(_chf_config(seed, CHF_N, CHF_REPS, workers))
    out = Outcome(draws=report.draw_count)
    tol = CHF_TOL_SE / math.sqrt(CHF_REPS)
    grid = [row for row in report.aggregates if row.statistic.startswith("chf_abs_err_u")]
    expected = len(harness.CHF_U_GRID) * len(harness.CHF_W_GRID)
    out.check("chf:grid_points", len(grid) == expected, f"{len(grid)} grid errors, expected {expected}")
    for row in grid:
        out.check(row.statistic, row.value <= tol, f"{row.value:.4f} <= {tol:.4f}")
    one = selfnorm.limit_chf(1.0, 0.0, CHF_FAMILY.alpha, CHF_P, selfnorm.tail_constants(CHF_FAMILY))
    gap = abs(one - math.exp(-1.0))
    out.check("chf(1,0)=1/e", gap <= 1e-6, f"|chf(1,0) - 1/e| = {gap:.2e} <= 1e-6")
    out.check_finite("chf_compare", report)
    out.digests["chf_compare"] = _payload_sha256(report)
    return out


# ---------------------------------------------------------------------------
# oracle_build: the write side of the limits oracle layer

ORACLE_KINDS = ("G1", "G2", "G3", "G4")
ORACLE_BUILD_PATHS = 4096
# rows of the chunk `brownian_functional_oracle` simulates at once
ORACLE_CHUNK_ROWS = 2048
G2_POINTS = (0.5, 1.0, 1.5, 2.0, 3.0)
# criterion 8 allows 0.01 at the canonical 1e5 paths (mostly time-discretisation
# bias); a reduced table adds ECDF noise of at most 0.5/sqrt(paths) per point
G2_TOL = 0.01 + 3.0 * 0.5 / math.sqrt(ORACLE_BUILD_PATHS)
G3_MEAN = 0.5
G4_MEAN = 2.0 / 3.0 * math.sqrt(2.0 / math.pi)


def _oracle_setup(workdir: Path) -> Path:
    written = harness.build_oracles(workdir / "warm-up", kinds=ORACLE_KINDS, paths=16, steps=64, seed=1)
    for path in written:
        harness.load_oracle(path)
    return workdir


def _oracle_run(workdir: Path, seed: int, _workers: int) -> Outcome:
    dest = workdir / f"tables-{seed}"
    try:
        written = harness.build_oracles(dest, kinds=ORACLE_KINDS, paths=ORACLE_BUILD_PATHS,
                                        steps=selfnorm.ORACLE_STEPS, seed=seed)
        laws = {kind: harness.load_oracle(path) for kind, path in zip(ORACLE_KINDS, written)}
    finally:
        shutil.rmtree(dest, ignore_errors=True)
    out = Outcome(draws=ORACLE_BUILD_PATHS * selfnorm.ORACLE_STEPS * len(ORACLE_KINDS))
    for kind, law in laws.items():
        rows = law.table.size
        out.check(f"{kind}:rows", rows == ORACLE_BUILD_PATHS, f"{rows} rows, expected {ORACLE_BUILD_PATHS}")
        out.check(f"{kind}:finite", np.isfinite(law.table).all(), f"{rows} rows")
        out.digests[kind] = hashlib.sha256(law.table.tobytes()).hexdigest()
    xs = np.array(G2_POINTS)
    gap = float(np.max(np.abs(selfnorm.g2_law().cdf(xs) - laws["G2"].cdf(xs))))
    out.check("G2:series", gap <= G2_TOL, f"max cdf gap {gap:.4f} <= {G2_TOL:.4f}")
    for kind, target in (("G3", G3_MEAN), ("G4", G4_MEAN)):
        mean, se = laws[kind].mean_and_stderr()
        out.check(f"{kind}:mean", abs(mean - target) <= 3.0 * se,
                  f"{mean:.4f} vs {target:.4f} ({abs(mean - target) / se:.2f} se <= 3)")
    return out


WORKLOADS = {
    "regime_map": Workload(_regime_setup, _regime_run,
                           # the (n, 2) uniform block of the stable sampler
                           largest_array_bytes=max(REGIME_N_GRID) * 2 * 8),
    "chf_compare": Workload(_chf_setup, _chf_run, largest_array_bytes=CHF_N * 2 * 8),
    "oracle_build": Workload(_oracle_setup, _oracle_run,
                             largest_array_bytes=min(ORACLE_CHUNK_ROWS, ORACLE_BUILD_PATHS)
                             * selfnorm.ORACLE_STEPS * 8),
}
