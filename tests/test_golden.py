"""Golden reports: frozen JSON bytes for small fixed configurations.

Each case is run at workers 1 and 2 and written with `write_report`; the
bytes must equal the files under tests/golden/. A change that moves any
number fails here; one that must move numbers says so in CHANGES.md and
regenerates the files with

    PYTHONPATH=src python tests/test_golden.py
"""
import dataclasses
import json
import sys
from pathlib import Path

import pytest

from selfnorm import (ConfigError, ExperimentConfig, FamilySpec, read_report, regime_map, run_experiment,
                      write_report)

GOLDEN = Path(__file__).resolve().parent / "golden"


def _cfg(kind, alpha, p, n_grid, reps, seed, experiment, **over) -> ExperimentConfig:
    return ExperimentConfig(family=FamilySpec(kind=kind, alpha=alpha), p=p, n_grid=n_grid,
                            reps=reps, master_seed=seed, experiment=experiment, **over)


# one small config per experiment kind, then StudentT (whose sampler has no
# prefix property, so each smaller n reads a prefix of the max-n draw that a
# fresh draw of that length would not give) and the switch to compensated
# partial sums at n = 100 000, then a two-n chf_compare whose smaller n is a
# prefix of the larger n's draw, so the scaled pair at n = 1000 must not
# write over the draw that n = 100 000 reads; the last two draw SymStable
# through its alpha = 2 path and at an alpha below 1
RUNS = {
    "degenerate_scan": _cfg("SymStable", 1.5, 1.2, (50, 200), 8, 101, "degenerate_scan"),
    "ek_functionals": _cfg("Gaussian", 2.0, 2.0, (100, 400), 8, 102, "ek_functionals"),
    "fdd_covariance": _cfg("Gaussian", 2.0, 2.0, (64, 256), 8, 103, "fdd_covariance"),
    "tightness_scan": _cfg("SymPareto", 1.2, 1.8, (50, 100, 200), 8, 104, "tightness_scan"),
    "chf_compare": _cfg("SymStable", 1.0, 2.0, (500,), 8, 105, "chf_compare"),
    "studentt_tightness": _cfg("StudentT", 1.5, 2.0, (100, 300), 8, 106, "tightness_scan"),
    "degenerate_compensated": _cfg("SymStable", 1.0, 1.0, (1000, 100_000), 4, 107,
                                   "degenerate_scan"),
    "chf_compare_two_n": _cfg("SymStable", 1.5, 2.0, (1000, 100_000), 8, 7, "chf_compare"),
    "ek_functionals_alpha2": _cfg("SymStable", 2.0, 2.0, (100, 400), 8, 109, "ek_functionals"),
    "degenerate_scan_alpha08": _cfg("SymStable", 0.8, 0.8, (100, 400), 8, 110, "degenerate_scan"),
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
        dest = tmp_path / f"{name}.json"
        write_report(report, dest)
        if dest.read_bytes() != (GOLDEN / f"{name}.json").read_bytes():
            mismatched.append(dest.name)
    assert not mismatched, f"reports differ from tests/golden at workers={workers}: {mismatched}"


@pytest.mark.parametrize("workers", [1, 2])
def test_two_n_chf_rows_equal_the_one_n_runs(workers):
    # each n of a two-n chf_compare reads its own prefix of one draw, so its
    # rows are those of a run at that n alone, bit for bit
    config = dataclasses.replace(RUNS["chf_compare_two_n"], workers=workers)
    rows = run_experiment(config).aggregates
    for n in config.n_grid:
        alone = run_experiment(dataclasses.replace(config, n_grid=(n,))).aggregates
        assert [row for row in rows if row.n == n] == list(alone)


@pytest.mark.parametrize("name", NAMES)
def test_golden_payloads_read_back_to_their_bytes(name, tmp_path):
    report = read_report(GOLDEN / f"{name}.json")
    write_report(report, tmp_path / "back.json")
    assert (tmp_path / "back.json").read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


# tests/golden/degenerate_scan.json as written while the tightness scan still
# wrote the modulus rows: its config carries delta_grid, and the degenerate
# scan wrote a mean_sum_sq_ratio row per n
OLD_DEGENERATE_SCAN = (
    '{"aggregates":[{"n":50,"reps":8,"statistic":"mean_sq_self_norm","stderr":0.09643383238863379,"va'
    'lue":0.3390667699400997},{"n":50,"reps":8,"statistic":"exceedance","stderr":0.11692679333668567,'
    '"value":0.875},{"n":50,"reps":8,"statistic":"mean_sum_sq_ratio","stderr":0.04496909865282392,"va'
    'lue":0.5333427537867778},{"n":200,"reps":8,"statistic":"mean_sq_self_norm","stderr":0.0652869829'
    '5672304,"value":0.1164191368890578},{"n":200,"reps":8,"statistic":"exceedance","stderr":0.153093'
    '10892394862,"value":0.75},{"n":200,"reps":8,"statistic":"mean_sum_sq_ratio","stderr":0.057432359'
    '803922785,"value":0.37722711237253265}],"config":{"delta_grid":[0.5,0.2,0.1,0.05],"epsilon":0.1,'
    '"experiment":"degenerate_scan","family":{"alpha":1.5,"kind":"SymStable","scale":1.0},"master_see'
    'd":101,"n_grid":[50,200],"p":1.2,"reps":8,"t_grid":[0.25,0.5,0.75,1.0]},"draw_count":2000,"regim'
    'e_decision":"degenerate","run_id":"a351ba612269"}'
)


# tests/golden/degenerate_scan.json as written while FamilySpec held a scale
# and ExperimentConfig a t_grid: the rows, label and draw count are today's
SCALE_DEGENERATE_SCAN = (
    '{"aggregates":[{"n":50,"reps":8,"statistic":"mean_sq_self_norm","stderr":0.09643383238863386,"valu'
    'e":0.3390667699401},{"n":50,"reps":8,"statistic":"exceedance","stderr":0.11692679333668567,"value"'
    ':0.875},{"n":200,"reps":8,"statistic":"mean_sq_self_norm","stderr":0.06528698295672276,"value":0.1'
    '164191368890575},{"n":200,"reps":8,"statistic":"exceedance","stderr":0.15309310892394862,"value":0'
    '.75}],"config":{"epsilon":0.1,"experiment":"degenerate_scan","family":{"alpha":1.5,"kind":"SymStab'
    'le","scale":1.0},"master_seed":101,"n_grid":[50,200],"p":1.2,"reps":8,"t_grid":[0.25,0.5,0.75,1.0]'
    '},"draw_count":2000,"regime_decision":"degenerate","run_id":"b3416a2e36fb"}'
)


@pytest.mark.parametrize("old, rel", [(OLD_DEGENERATE_SCAN, 5e-15), (SCALE_DEGENERATE_SCAN, 0.0)],
                         ids=["delta_grid", "scale"])
def test_read_report_refuses_older_payloads(old, rel, tmp_path):
    # both carry FamilySpec.scale, whose key the refusal names
    dest = tmp_path / "old.json"
    dest.write_text(old + "\n")
    with pytest.raises(ConfigError, match="scale"):
        read_report(dest)
    # every row the scan still writes is the old file's: to within rounding
    # where the half-angle SymStable transform moved them (by at most 4.3e-15
    # relative), exactly where only config keys were deleted; the label and
    # the draw count are the old file's
    old = json.loads(old)
    new = json.loads((GOLDEN / "degenerate_scan.json").read_text())
    kept = [r for r in old["aggregates"] if r["statistic"] != "mean_sum_sq_ratio"]
    for got, want in zip(new["aggregates"], kept, strict=True):
        assert got == {**want, "value": pytest.approx(want["value"], rel=rel, abs=0),
                       "stderr": pytest.approx(want["stderr"], rel=rel, abs=0)}
    assert (new["regime_decision"], new["draw_count"]) == (old["regime_decision"], old["draw_count"])


def test_read_report_refuses_rows_the_experiment_never_writes(tmp_path):
    # a renamed first row and a repeated row once loaded as a 7-row report
    # that kept its degenerate label
    payload = json.loads((GOLDEN / "degenerate_scan.json").read_text())
    rows = payload["aggregates"]
    rows[0]["statistic"] = "banana"
    rows.append(rows[-1])
    dest = tmp_path / "degenerate_scan.json"
    dest.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="rows"):
        read_report(dest)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, report in _reports(workers=1).items():
        write_report(report, GOLDEN / f"{name}.json")
    sys.exit(0)
