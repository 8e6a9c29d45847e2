"""Golden reports: frozen JSON and CSV bytes for small fixed configurations.

Each case is run at workers 1 and 2 and written with `write_report`; the
bytes must equal the files under tests/golden/. A change that moves any
number fails here; one that must move numbers says so in CHANGES.md and
regenerates the files with

    PYTHONPATH=src python tests/test_golden.py
"""
import dataclasses
import sys
from pathlib import Path

import pytest

from selfnorm import ExperimentConfig, FamilySpec, regime_map, run_experiment, write_report

GOLDEN = Path(__file__).resolve().parent / "golden"


def _cfg(kind, alpha, p, n_grid, reps, seed, experiment, **over) -> ExperimentConfig:
    return ExperimentConfig(family=FamilySpec(kind=kind, alpha=alpha), p=p, n_grid=n_grid,
                            reps=reps, master_seed=seed, experiment=experiment, **over)


# one small config per experiment kind, then StudentT (whose sampler has no
# prefix property, so each smaller n reads a prefix of the max-n draw that a
# fresh draw of that length would not give) and the switch to compensated
# partial sums at n = 100 000
RUNS = {
    "degenerate_scan": _cfg("SymStable", 1.5, 1.2, (50, 200), 8, 101, "degenerate_scan"),
    "ek_functionals": _cfg("Gaussian", 2.0, 2.0, (100, 400), 8, 102, "ek_functionals"),
    "fdd_covariance": _cfg("Gaussian", 2.0, 2.0, (64, 256), 8, 103, "fdd_covariance"),
    "tightness_scan": _cfg("SymPareto", 1.2, 1.8, (50, 100, 200), 8, 104, "tightness_scan"),
    "chf_compare": _cfg("SymStable", 1.0, 2.0, (500,), 8, 105, "chf_compare"),
    "studentt_tightness": _cfg("StudentT", 1.5, 2.0, (100, 300), 8, 106, "tightness_scan"),
    "degenerate_compensated": _cfg("SymStable", 1.0, 1.0, (1000, 100_000), 4, 107,
                                   "degenerate_scan"),
}
# one regime_map row of two p, each with its three scans; the second p reads
# the first one's shared reductions (`ProcessPath.at_p`), and the row seed
# is that of a one-p row, so the p = 2 cell's files are the one-p cell's
CELL = _cfg("SymStable", 1.5, 2.0, (100, 400), 8, 108, "degenerate_scan", epsilon=0.2)
CELL_PS = (2.0, 1.5)
CELL_KINDS = ("degenerate_scan", "tightness_scan", "ek_functionals")


def _cell_name(p: float, kind: str) -> str:
    return f"regime_cell_{kind}" if p == CELL_PS[0] else f"regime_cell_p{p:g}_{kind}"


NAMES = [*RUNS, *(_cell_name(p, kind) for p in CELL_PS for kind in CELL_KINDS)]


def _reports(workers: int) -> dict:
    reports = {name: run_experiment(dataclasses.replace(cfg, workers=workers))
               for name, cfg in RUNS.items()}
    row, _ = regime_map(dataclasses.replace(CELL, workers=workers), (CELL.family.alpha,), CELL_PS)
    reports.update((_cell_name(r.config.p, r.config.experiment), r) for r in row)
    return reports


@pytest.mark.parametrize("workers", [1, 2])
def test_reports_match_golden_bytes(workers, tmp_path):
    reports = _reports(workers)
    assert sorted(reports) == sorted(NAMES)
    mismatched = []
    for name, report in reports.items():
        for fmt in ("json", "csv"):
            dest = tmp_path / f"{name}.{fmt}"
            write_report(report, fmt, dest)
            if dest.read_bytes() != (GOLDEN / f"{name}.{fmt}").read_bytes():
                mismatched.append(dest.name)
    assert not mismatched, f"reports differ from tests/golden at workers={workers}: {mismatched}"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, report in _reports(workers=1).items():
        for fmt in ("json", "csv"):
            write_report(report, fmt, GOLDEN / f"{name}.{fmt}")
    sys.exit(0)
