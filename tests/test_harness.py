import dataclasses
import importlib.util
import json
import math
import os
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfnorm import (
    AggregateRow,
    ConfigError,
    ExperimentConfig,
    FamilySpec,
    MissingStatisticsError,
    NonFiniteSampleError,
    OracleMissingError,
    ParameterDomainError,
    SeededStream,
    build_oracles,
    decide_regime,
    derive_seed,
    load_default_thresholds,
    read_report,
    regime_map,
    report_payload,
    run_experiment,
    sample_family,
    sweep,
    write_report,
)
from selfnorm import cli, diagnostics, harness, process

CAUCHY = FamilySpec(kind="SymStable", alpha=1.0)


def config(**over) -> ExperimentConfig:
    base = dict(family=CAUCHY, p=1.0, n_grid=(50, 200), reps=16, master_seed=12345,
                experiment="degenerate_scan")
    base.update(over)
    return ExperimentConfig(**base)


@pytest.mark.parametrize("over", [
    dict(p=0.0),
    dict(p=2.5),
    dict(n_grid=()),
    dict(n_grid=(200, 50)),
    dict(n_grid=(0, 50)),
    dict(reps=0),
    dict(master_seed=-1),
    dict(master_seed=2**64),
    dict(experiment="moment_scan"),
    dict(t_grid=(0.5, 0.25)),
    dict(t_grid=(0.0, 0.5)),
    dict(epsilon=0.0),
    dict(delta_grid=()),
    dict(delta_grid=(1.5,)),
    dict(workers=0),
    dict(experiment="fdd_covariance", reps=1),
    # non-integral values are refused, not truncated
    dict(n_grid=(100.7,)),
    dict(n_grid=(50, "200")),
    dict(reps=1.5),
    dict(reps="16"),
    dict(master_seed=1.9),
    dict(master_seed=float("nan")),
    dict(workers=2.5),
    # non-numeric or non-iterable values raise ConfigError, not TypeError or ValueError
    dict(p="x"),
    dict(p=None),
    dict(p=float("nan")),
    dict(t_grid=("a",)),
    dict(t_grid=0.5),
    dict(t_grid=(0.5, float("nan"))),
    dict(epsilon=None),
    dict(epsilon="0.1"),
    dict(epsilon=float("nan")),
    dict(n_grid=5),
    dict(delta_grid=(None,)),
    dict(delta_grid=(float("nan"),)),
])
def test_config_validation(over):
    with pytest.raises(ConfigError):
        config(**over)


def test_config_coerces_types():
    cfg = config(n_grid=[50, 200], t_grid=[0.5, 1.0], reps=np.int64(16))
    assert cfg.n_grid == (50, 200) and isinstance(cfg.n_grid[0], int)
    assert cfg.t_grid == (0.5, 1.0)
    assert cfg.reps == 16
    # integral floats are exact integers
    cfg = config(n_grid=(5e1, 2e2), reps=1e3, master_seed=7.0, workers=np.float64(2.0))
    assert cfg.n_grid == (50, 200) and isinstance(cfg.n_grid[0], int)
    assert (cfg.reps, cfg.master_seed, cfg.workers) == (1000, 7, 2)
    assert all(isinstance(v, int) for v in (cfg.reps, cfg.master_seed, cfg.workers))


def test_workers_do_not_change_payload_or_run_id():
    r1 = run_experiment(config(workers=1))
    r4 = run_experiment(config(workers=4))
    assert r1.run_id == r4.run_id
    blob = lambda r: json.dumps(report_payload(r), sort_keys=True, separators=(",", ":"))
    assert blob(r1) == blob(r4)


def test_payload_excludes_wall_clock_and_workers():
    payload = report_payload(run_experiment(config()))
    assert "wall_clock_s" not in json.dumps(payload)
    assert "workers" not in payload["config"]


def test_draw_count_conservation():
    r = run_experiment(config(n_grid=(50, 200), reps=16))
    assert r.draw_count == 16 * 250


def test_rows_cover_every_n():
    r = run_experiment(config())
    for stat in ("mean_sq_self_norm", "exceedance", "mean_sum_sq_ratio"):
        assert sorted(row.n for row in r.aggregates if row.statistic == stat) == [50, 200]


def test_tightness_rows_include_lagged_ks():
    cfg = config(experiment="tightness_scan", p=2.0, n_grid=(50, 100, 200))
    r = run_experiment(cfg)
    ks_ns = [row.n for row in r.aggregates if row.statistic == "mr_ks_prev"]
    assert ks_ns == [100, 200]  # attached to the later n of each consecutive pair
    om = [row for row in r.aggregates if row.statistic.startswith("omega_exceed_d")]
    assert len(om) == 3 * len(cfg.delta_grid)


def test_fdd_covariance_row_names():
    cfg = config(experiment="fdd_covariance", p=2.0, family=FamilySpec(kind="Gaussian"),
                 n_grid=(100,), t_grid=(0.25, 0.75))
    r = run_experiment(cfg)
    names = {row.statistic for row in r.aggregates}
    assert names == {"cov_t0.25_t0.25", "cov_t0.25_t0.75", "cov_t0.75_t0.75", "cov_dev_max"}


def test_chf_compare_needs_heavy_tails_and_p_above_alpha():
    with pytest.raises(ParameterDomainError):
        run_experiment(config(experiment="chf_compare", p=1.0))  # p = alpha
    with pytest.raises(ParameterDomainError):
        run_experiment(config(experiment="chf_compare", p=2.0,
                              family=FamilySpec(kind="Gaussian")))


def test_chf_stats_leave_the_sample_unchanged():
    # |x|^p is taken in place on the scaled copy, never on the sample, whose
    # prefixes serve every n of the grid
    cfg = config(experiment="chf_compare", p=2.0, n_grid=(1000, 2000))
    full = sample_family(CAUCHY, SeededStream(3, 0), 2000)
    before = full.copy()
    stats = harness._scan_stats(cfg, full[:1000], None)
    assert np.array_equal(full, before)
    xs = before[:1000] / 1000.0
    assert stats == (float(np.sum(xs)), float(np.sum(np.abs(xs) ** 2.0)))


def test_ek_missing_oracle_fails_fast(tmp_path):
    cfg = config(experiment="ek_functionals", p=2.0, family=FamilySpec(kind="Gaussian"))
    with pytest.raises(OracleMissingError):
        run_experiment(cfg, oracle_dir=tmp_path / "nowhere")


def test_ek_runs_against_small_tables(tmp_path):
    build_oracles(out_dir=tmp_path, paths=500, steps=200)
    cfg = config(experiment="ek_functionals", p=2.0, family=FamilySpec(kind="Gaussian"),
                 n_grid=(200,), reps=32)
    r = run_experiment(cfg, oracle_dir=tmp_path)
    names = {row.statistic for row in r.aggregates}
    assert names == {"ks_max_g1", "ks_max_abs_g2", "ks_mean_sq_g3", "ks_mean_abs_g4"}


def test_non_finite_draw_raises_instead_of_labelling():
    # about 3% of SymPareto alpha = 0.005 draws overflow to inf; unguarded,
    # the scan reads mean_sq_self_norm = NaN and exceedance 0.0 (NaN > eps is
    # False), and the cell is labelled "degenerate"
    cfg = config(family=FamilySpec(kind="SymPareto", alpha=0.005), p=1.0, n_grid=(200,),
                 reps=20, master_seed=20260815)
    with pytest.warns(RuntimeWarning), \
            pytest.raises(NonFiniteSampleError, match=r"replication 0 at n=200 .*non-finite draw"):
        run_experiment(cfg)


def _counting(monkeypatch, name: str, module=harness) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("kind,draws_per_rep", [("SymStable", 1), ("StudentT", 3)])
def test_one_draw_per_replication_where_prefix_coherent(monkeypatch, kind, draws_per_rep):
    draws = _counting(monkeypatch, "sample_family")
    cfg = config(family=FamilySpec(kind=kind, alpha=1.5), n_grid=(50, 100, 200), reps=6)
    run_experiment(cfg)
    assert len(draws) == 6 * draws_per_rep
    if draws_per_rep == 1:
        assert {n for _, _, n in draws} == {200}


def test_build_oracles_checks_kinds_before_writing(tmp_path):
    with pytest.raises(ParameterDomainError, match="G5"):
        build_oracles(out_dir=tmp_path / "oracles", kinds=("G5",))
    assert not (tmp_path / "oracles").exists()


def test_regime_map_shares_draws_pool_and_oracles(monkeypatch, tmp_path):
    build_oracles(out_dir=tmp_path, kinds=("G3", "G4"), paths=300, steps=100)
    draws = _counting(monkeypatch, "sample_family")
    loads = _counting(monkeypatch, "load_oracle")
    pools = []

    class CountedPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountedPool)
    base = config(n_grid=(50, 100), reps=4, workers=2)
    reports, _ = regime_map(base, (1.0, 1.5), (1.0, 2.0), oracle_dir=tmp_path)
    assert len(reports) == 12
    assert len(pools) == 1
    assert len(loads) == 2
    # the counter sees only the parent's calls; at workers=1 every draw is local
    reports1, _ = regime_map(dataclasses.replace(base, workers=1), (1.0, 1.5), (1.0, 2.0),
                             oracle_dir=tmp_path)
    assert len(draws) == 4 * 4  # four cells, one draw per replication for three scans
    blob = lambda r: json.dumps(report_payload(r), sort_keys=True, separators=(",", ":"))
    assert [blob(r) for r in reports] == [blob(r) for r in reports1]


def test_one_reduction_per_replication_and_n(monkeypatch, tmp_path):
    # the path's prefix sums and V_{n,p} serve every scan of the cell,
    # ek_functionals included
    build_oracles(out_dir=tmp_path, kinds=("G3", "G4"), paths=300, steps=100)
    sums = _counting(monkeypatch, "partial_sums", process)
    norms = _counting(monkeypatch, "p_norm", process)
    base = config(n_grid=(50, 100), reps=4, workers=1)
    regime_map(base, (1.5,), (2.0,), oracle_dir=tmp_path)
    assert len(sums) == 4 * 2
    assert len(norms) == 4 * 2


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_installs_and_restores(tmp_path):
    # the benchmark's tracer rebinds layer names in harness and diagnostics;
    # each must still exist, be called through that name, and come back
    tracing = _load_tracing()
    build_oracles(out_dir=tmp_path, kinds=("G3", "G4"), paths=300, steps=100)
    bound = [(module, attr, getattr(module, attr))
             for module, table in ((harness, tracing._HARNESS_NAMES),
                                   (diagnostics, tracing._DIAGNOSTICS_NAMES))
             for attr in table]
    bound.append((harness, "ProcessPoolExecutor", harness.ProcessPoolExecutor))
    base = config(n_grid=(50, 100), reps=3, workers=1)
    tracer = tracing.Tracer(timed=False)
    with tracing.installed(tracer):
        regime_map(base, (1.5,), (2.0,), oracle_dir=tmp_path)
    assert tracer.counts["process.ek_functionals.calls"] == 3 * 2
    assert tracer.counts["process.ProcessPath.calls"] == 3 * 2
    assert [getattr(module, attr) is original for module, attr, original in bound] == \
        [True] * len(bound)


# ---------------------------------------------------------------------------
# reports on disk


def test_csv_schema(tmp_path):
    r = run_experiment(config())
    dest = tmp_path / "r.csv"
    write_report(r, "csv", dest)
    lines = dest.read_text().splitlines()
    assert lines[0] == "run_id,experiment,family,alpha,p,n,statistic,value,stderr,reps,seed"
    assert len(lines) == 1 + len(r.aggregates)
    first = lines[1].split(",")
    assert first[0] == r.run_id
    assert first[1] == "degenerate_scan"
    assert first[2] == "SymStable"
    assert float(first[3]) == 1.0 and float(first[4]) == 1.0
    assert int(first[10]) == 12345


def test_json_round_trip(tmp_path):
    r = run_experiment(config())
    dest = tmp_path / "r.json"
    write_report(r, "json", dest)
    back = read_report(dest)
    blob = lambda x: json.dumps(report_payload(x), sort_keys=True, separators=(",", ":"))
    assert blob(back) == blob(r)
    assert back.config == dataclasses.replace(r.config, workers=1)


def test_report_files_byte_identical_across_workers(tmp_path):
    for fmt in ("csv", "json"):
        a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        write_report(run_experiment(config(workers=1)), fmt, a)
        write_report(run_experiment(config(workers=4)), fmt, b)
        assert a.read_bytes() == b.read_bytes()


def test_write_report_rejects_non_finite(tmp_path):
    r = run_experiment(config())
    bad = dataclasses.replace(r, aggregates=(dataclasses.replace(r.aggregates[0], value=math.nan),))
    for fmt in ("json", "csv"):
        with pytest.raises(ValueError):
            write_report(bad, fmt, tmp_path / f"r.{fmt}")
    assert list(tmp_path.iterdir()) == []


def test_write_report_is_atomic(tmp_path, monkeypatch):
    dest = tmp_path / "r.json"
    write_report(run_experiment(config()), "json", dest)
    before = dest.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        write_report(run_experiment(config(master_seed=1)), "json", dest)
    assert dest.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == [dest.name]


def test_write_report_wraps_os_errors(tmp_path):
    r = run_experiment(config())
    with pytest.raises(OSError):
        write_report(r, "json", tmp_path / "no_such_dir" / "r.json")
    with pytest.raises(ConfigError):
        write_report(r, "parquet", tmp_path / "r.parquet")


# ---------------------------------------------------------------------------
# regime decision


def rows(**series) -> list[AggregateRow]:
    out = []
    for stat, values in series.items():
        for i, v in enumerate(values):
            out.append(AggregateRow(n=100 * 2**i, statistic=stat, value=v,
                                    stderr=0.005, reps=400))
    return out


def test_decide_degenerate():
    th = load_default_thresholds()
    got = decide_regime(rows(exceedance=(0.6, 0.5, 0.4), mr_median=(0.2, 0.15, 0.1)), th)
    assert got == "degenerate"


def test_decide_not_tight():
    th = load_default_thresholds()
    got = decide_regime(
        rows(exceedance=(0.95, 0.96, 0.95), mr_median=(0.7, 0.72, 0.71),
             mr_ks_prev=(0.05, 0.04)), th)
    assert got == "not_tight"


def test_decide_brownian():
    th = load_default_thresholds()
    got = decide_regime(
        rows(exceedance=(0.84, 0.84, 0.84), mr_median=(0.05, 0.03, 0.02),
             ks_max_g1=(0.03,), ks_max_abs_g2=(0.02,), ks_mean_sq_g3=(0.03,),
             ks_mean_abs_g4=(0.025,)), th)
    assert got == "brownian"


def test_decide_inconclusive_when_no_rule_fires():
    th = load_default_thresholds()
    got = decide_regime(rows(exceedance=(0.5, 0.6, 0.7)), th)  # increasing, never low
    assert got == "inconclusive"


def test_decide_requires_some_statistic():
    th = load_default_thresholds()
    with pytest.raises(MissingStatisticsError):
        decide_regime(rows(cov_dev_max=(0.1,)), th)


def test_decide_rules_structurally_disjoint():
    # a series trying to look degenerate AND not tight: the mr split blocks
    # the degenerate rule, so the label is the single firing rule
    th = load_default_thresholds()
    got = decide_regime(
        rows(exceedance=(0.7, 0.6, 0.5), mr_median=(0.7, 0.7, 0.7),
             mr_ks_prev=(0.03, 0.03)), th)
    assert got == "not_tight"


def test_decide_validates_thresholds():
    th = load_default_thresholds()
    bad = dict(th)
    bad.pop("ek_ks_max")
    with pytest.raises(ConfigError):
        decide_regime(rows(exceedance=(0.5,)), bad)
    crossed = dict(th, exceedance_final_max=0.95)  # above the split: rules overlap
    with pytest.raises(ConfigError):
        decide_regime(rows(exceedance=(0.5,)), crossed)


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
       st.floats(0.0, 0.5))
@settings(max_examples=100, deadline=None)
def test_decide_always_returns_a_label(exc, mr, ks):
    th = load_default_thresholds()
    series = rows(exceedance=exc, mr_median=mr)
    if len(mr) >= 2:
        series += rows(mr_ks_prev=(ks,))
    got = decide_regime(series, th)
    assert got in ("degenerate", "not_tight", "brownian", "inconclusive")


# ---------------------------------------------------------------------------
# sweeps


def test_one_by_one_sweep_equals_run_with_derived_seed():
    base = config()
    (swept,) = sweep(base, (1.0,), (1.0,))
    direct = run_experiment(dataclasses.replace(base, master_seed=derive_seed(12345, 0)))
    blob = lambda r: json.dumps(report_payload(r), sort_keys=True, separators=(",", ":"))
    assert blob(swept) == blob(direct)


def test_sweep_covers_grid_row_major():
    base = config(n_grid=(50,), reps=8)
    reports = sweep(base, (1.0, 1.5), (0.5, 1.0))
    cells = [(r.config.family.alpha, r.config.p) for r in reports]
    assert cells == [(1.0, 0.5), (1.0, 1.0), (1.5, 0.5), (1.5, 1.0)]
    seeds = [r.config.master_seed for r in reports]
    assert seeds == [derive_seed(12345, i) for i in range(4)]
    assert len(set(seeds)) == 4


def test_regime_map_runs_three_scans_per_cell(tmp_path):
    build_oracles(out_dir=tmp_path, paths=500, steps=200)
    base = config(n_grid=(50, 100), reps=12)
    reports, matrix = regime_map(base, (1.0,), (1.0,), oracle_dir=tmp_path)
    assert [r.config.experiment for r in reports] == \
        ["degenerate_scan", "tightness_scan", "ek_functionals"]
    assert len({r.config.master_seed for r in reports}) == 1  # same cell seed
    assert set(matrix) == {(1.0, 1.0)}
    assert matrix[(1.0, 1.0)] in ("degenerate", "not_tight", "brownian", "inconclusive")


def test_sweep_rejects_empty_grid():
    with pytest.raises(ConfigError):
        sweep(config(), (), (1.0,))


# ---------------------------------------------------------------------------
# command line


def test_cli_run_writes_report(tmp_path, capsys):
    dest = tmp_path / "out.csv"
    code = cli.main(["run", "--family", "SymStable", "--alpha", "1.0", "--p", "1.0",
                     "--n", "50,200", "--reps", "8", "--seed", "3",
                     "--experiment", "degenerate_scan", "--out", str(dest),
                     "--format", "csv"])
    assert code == 0
    assert dest.read_text().startswith("run_id,experiment,family,")


def test_cli_run_stdout_json(capsys):
    code = cli.main(["run", "--family", "SymStable", "--alpha", "1.0", "--p", "1.0",
                     "--n", "50", "--reps", "8", "--seed", "3",
                     "--experiment", "degenerate_scan"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["master_seed"] == 3


def test_cli_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "SymStable", "alpha": 1.0, "p": 1.0,
                               "n": [50], "reps": 8, "seed": 77,
                               "experiment": "degenerate_scan"}))
    code = cli.main(["run", "--config", str(cfg), "--seed", "1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["config"]["master_seed"] == 77


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    bad_p = ["run", "--family", "SymStable", "--alpha", "1.0", "--p", "9", "--n", "50",
             "--reps", "4", "--seed", "1", "--experiment", "degenerate_scan"]
    assert cli.main(bad_p) == 1
    missing = ["run", "--family", "Gaussian", "--alpha", "2.0", "--p", "2.0", "--n", "50",
               "--reps", "4", "--seed", "1", "--experiment", "ek_functionals"]
    import os
    old = os.environ.get("SELFNORM_ORACLE_DIR")
    os.environ["SELFNORM_ORACLE_DIR"] = str(tmp_path / "empty")
    try:
        assert cli.main(missing) == 2
    finally:
        if old is None:
            os.environ.pop("SELFNORM_ORACLE_DIR")
        else:
            os.environ["SELFNORM_ORACLE_DIR"] = old
    io_err = ["run", "--family", "SymStable", "--alpha", "1.0", "--p", "1.0", "--n", "50",
              "--reps", "4", "--seed", "1", "--experiment", "degenerate_scan",
              "--out", str(tmp_path / "no_dir" / "x.json")]
    assert cli.main(io_err) == 3
    assert cli.main(["run", "--family", "Nope", "--alpha", "1", "--p", "1", "--n", "5",
                     "--reps", "2", "--seed", "1", "--experiment", "degenerate_scan"]) == 1
    capsys.readouterr()
    assert cli.main(["oracle-build", "--out", str(tmp_path / "oracles"), "--seed", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error: master_seed must fit in 64 bits")
    assert not (tmp_path / "oracles").exists()
    # bad config-file values exit 1 with an error line, not a traceback
    run_args = ["run", "--family", "SymStable", "--alpha", "1.0", "--p", "1.0", "--n", "50",
                "--reps", "4", "--seed", "1", "--experiment", "degenerate_scan"]
    for i, data in enumerate([{"n": ["x"]}, {"n": 5}, {"t_grid": "0.5"}, {"n_grid": [100.7]},
                              {"reps": 1.5}, {"seed": "1"}, {"alpha": [1.0]}, {"delta_grid": [None]},
                              {"family": {"kind": "SymStable", "alpha": "x"}}, {"out": 3}]):
        cfg_file = tmp_path / f"bad{i}.json"
        cfg_file.write_text(json.dumps(data))
        capsys.readouterr()
        assert cli.main(run_args + ["--config", str(cfg_file)]) == 1, data
        assert capsys.readouterr().err.startswith("error: "), data
    # no trustworthy number: a draw overflows to inf
    non_finite = ["run", "--family", "SymPareto", "--alpha", "0.005", "--p", "1", "--n", "200",
                  "--reps", "20", "--seed", "1", "--experiment", "degenerate_scan"]
    capsys.readouterr()
    with pytest.warns(RuntimeWarning):
        assert cli.main(non_finite) == 4
    assert capsys.readouterr().err.startswith("error: replication ")

    def broken(cells):
        raise BrokenProcessPool("a worker died")

    monkeypatch.setattr(harness, "_cell_slots", broken)
    ok = ["run", "--family", "SymStable", "--alpha", "1.0", "--p", "1.0", "--n", "50",
          "--reps", "4", "--seed", "1", "--experiment", "degenerate_scan"]
    assert cli.main(ok) == 5
    assert capsys.readouterr().err == "error: a worker died\n"


def test_cli_sweep_prints_matrix(tmp_path, capsys):
    build_oracles(out_dir=tmp_path / "oracles", paths=300, steps=100)
    import os
    old = os.environ.get("SELFNORM_ORACLE_DIR")
    os.environ["SELFNORM_ORACLE_DIR"] = str(tmp_path / "oracles")
    try:
        code = cli.main(["sweep", "--family", "SymStable", "--alpha", "1.0", "--p", "1.0",
                         "--n", "50", "--reps", "8", "--seed", "3",
                         "--out", str(tmp_path / "reports")])
    finally:
        if old is None:
            os.environ.pop("SELFNORM_ORACLE_DIR")
        else:
            os.environ["SELFNORM_ORACLE_DIR"] = old
    assert code == 0
    out = capsys.readouterr().out
    assert "alpha \\ p" in out
    written = list((tmp_path / "reports").glob("*.json"))
    assert len(written) == 3  # three scans for the single cell
