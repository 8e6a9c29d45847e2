import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfnorm import (
    AggregateRow,
    ConfigError,
    ExperimentConfig,
    FAMILY_KINDS,
    FDD_T_GRID,
    FamilySpec,
    MissingStatisticsError,
    NonFiniteSampleError,
    ParameterDomainError,
    ProcessPath,
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
    write_report,
)
from selfnorm import cli, diagnostics, families, harness, limits, process

CAUCHY = FamilySpec(kind="SymStable", alpha=1.0)


def config(**over) -> ExperimentConfig:
    base = dict(family=CAUCHY, p=1.0, n_grid=(50, 200), reps=16, master_seed=12345,
                experiment="degenerate_scan")
    base.update(over)
    return ExperimentConfig(**base)


# each case names itself, so deleting one renames no other
@pytest.mark.parametrize("over", [
    pytest.param(dict(p=0.0), id="p_zero"),
    pytest.param(dict(p=2.5), id="p_above_two"),
    pytest.param(dict(n_grid=()), id="n_grid_empty"),
    pytest.param(dict(n_grid=(200, 50)), id="n_grid_descending"),
    pytest.param(dict(n_grid=(0, 50)), id="n_grid_zero"),
    pytest.param(dict(reps=0), id="reps_zero"),
    pytest.param(dict(master_seed=-1), id="seed_negative"),
    pytest.param(dict(master_seed=2**64), id="seed_above_64_bits"),
    pytest.param(dict(experiment="moment_scan"), id="experiment_unknown"),
    pytest.param(dict(epsilon=0.0), id="epsilon_zero"),
    pytest.param(dict(workers=0), id="workers_zero"),
    pytest.param(dict(experiment="fdd_covariance", reps=1), id="fdd_one_rep"),
    # non-integral values are refused, not truncated
    pytest.param(dict(n_grid=(100.7,)), id="n_grid_fraction"),
    pytest.param(dict(n_grid=(50, "200")), id="n_grid_string"),
    pytest.param(dict(reps=1.5), id="reps_fraction"),
    pytest.param(dict(reps="16"), id="reps_string"),
    pytest.param(dict(master_seed=1.9), id="seed_fraction"),
    pytest.param(dict(master_seed=float("nan")), id="seed_nan"),
    pytest.param(dict(workers=2.5), id="workers_fraction"),
    # non-numeric or non-iterable values raise ConfigError, not TypeError or ValueError
    pytest.param(dict(p="x"), id="p_string"),
    pytest.param(dict(p=None), id="p_none"),
    pytest.param(dict(p=float("nan")), id="p_nan"),
    pytest.param(dict(epsilon=None), id="epsilon_none"),
    pytest.param(dict(epsilon="0.1"), id="epsilon_string"),
    pytest.param(dict(epsilon=float("nan")), id="epsilon_nan"),
    pytest.param(dict(n_grid=5), id="n_grid_scalar"),
    # a bool is not a number, though Python counts True as 1
    pytest.param(dict(reps=True), id="reps_bool"),
    pytest.param(dict(p=True), id="p_bool"),
    pytest.param(dict(epsilon=True), id="epsilon_bool"),
    pytest.param(dict(n_grid=(True, 200)), id="n_grid_bool"),
    pytest.param(dict(master_seed=np.True_), id="seed_numpy_bool"),
    # JSON holds no infinity, so no report could be written
    pytest.param(dict(epsilon=math.inf), id="epsilon_inf"),
    pytest.param(dict(family="SymStable"), id="family_not_a_spec"),
    pytest.param(dict(p=-1.0), id="p_negative"),
    pytest.param(dict(n_grid=(50, 50)), id="n_grid_repeat"),
    pytest.param(dict(n_grid=None), id="n_grid_none"),
    pytest.param(dict(epsilon=-0.1), id="epsilon_negative"),
    pytest.param(dict(workers=None), id="workers_none"),
])
def test_config_validation(over):
    with pytest.raises(ConfigError):
        config(**over)


def test_config_coerces_types():
    cfg = config(n_grid=[50, 200], reps=np.int64(16))
    assert cfg.n_grid == (50, 200) and isinstance(cfg.n_grid[0], int)
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


def test_payload_keys_are_the_dataclass_fields():
    # a field added to a config dataclass reaches the payload, and so the run_id
    payload = harness._config_payload(config())
    assert set(payload) == {f.name for f in dataclasses.fields(ExperimentConfig)} - {"workers"}
    assert set(payload["family"]) == {f.name for f in dataclasses.fields(FamilySpec)}
    row = report_payload(run_experiment(config()))["aggregates"][0]
    assert set(row) == {f.name for f in dataclasses.fields(AggregateRow)}


def test_alpha_type_does_not_change_payload_or_run_id():
    cfgs = [config(family=FamilySpec(kind="SymStable", alpha=alpha), p=1.5)
            for alpha in (2, 2.0, np.float64(2.0))]
    assert {type(c.family.alpha) for c in cfgs} == {float}
    texts = {json.dumps(harness._config_payload(c), sort_keys=True) for c in cfgs}
    assert len(texts) == 1 and '"alpha": 2.0' in texts.pop()
    assert len({harness._run_id(c) for c in cfgs}) == 1


def test_draw_count_conservation():
    r = run_experiment(config(n_grid=(50, 200), reps=16))
    assert r.draw_count == 16 * 250


def test_rows_cover_every_n():
    r = run_experiment(config())
    assert [(row.n, row.statistic) for row in r.aggregates] == \
        [(n, stat) for n in (50, 200) for stat in ("mean_sq_self_norm", "exceedance")]


def test_tightness_rows_include_lagged_ks():
    cfg = config(experiment="tightness_scan", p=2.0, n_grid=(50, 100, 200))
    r = run_experiment(cfg)
    ks_ns = [row.n for row in r.aggregates if row.statistic == "mr_ks_prev"]
    assert ks_ns == [100, 200]  # attached to the later n of each consecutive pair
    assert [row.statistic for row in r.aggregates if row.n == 50] == ["darling_median", "mr_median"]
    assert [row.statistic for row in r.aggregates if row.n == 200] == \
        ["darling_median", "mr_median", "darling_ks_prev", "mr_ks_prev"]


def test_fdd_covariance_row_names():
    cfg = config(experiment="fdd_covariance", p=2.0, family=FamilySpec(kind="Gaussian"), n_grid=(100,))
    r = run_experiment(cfg)
    # the upper triangle of the fixed times, row by row, then the largest deviation
    assert FDD_T_GRID == (0.25, 0.5, 0.75, 1.0)
    assert [row.statistic for row in r.aggregates] == [
        "cov_t0.25_t0.25", "cov_t0.25_t0.5", "cov_t0.25_t0.75", "cov_t0.25_t1", "cov_t0.5_t0.5",
        "cov_t0.5_t0.75", "cov_t0.5_t1", "cov_t0.75_t0.75", "cov_t0.75_t1", "cov_t1_t1", "cov_dev_max"]


def test_chf_compare_needs_heavy_tails_and_p_above_alpha():
    with pytest.raises(ParameterDomainError):
        run_experiment(config(experiment="chf_compare", p=1.0))  # p = alpha
    with pytest.raises(ParameterDomainError):
        run_experiment(config(experiment="chf_compare", p=2.0,
                              family=FamilySpec(kind="Gaussian")))


def test_chf_stats_leave_the_sample_unchanged():
    # the sample is scaled into the block's scaled buffer and |x|^p is taken
    # in place there, never on the sample, whose prefixes serve every n
    cfg = config(experiment="chf_compare", p=2.0, n_grid=(1000, 2000))
    full = sample_family(CAUCHY, SeededStream(3, 0), 2000)
    before = full.copy()
    scaled = np.full(2000, np.nan)
    stats = harness._KINDS[cfg.experiment].stats(cfg, full[:1000], None, scaled)
    assert np.array_equal(full, before)
    assert np.isnan(scaled[1000:]).all()  # only the prefix it scales is written
    xs = before[:1000] / 1000.0
    assert stats == (float(np.sum(xs)), float(np.sum(np.abs(xs) ** 2.0)))


# Counts minor page faults over 20 replications of one worker block, after 2
# replications that warm it up, in a fresh interpreter, so no earlier test
# has set the allocator's thresholds. Prints the mean per replication.
_FAULTS_PER_REPLICATION = """
import resource, sys
from selfnorm import ExperimentConfig, FamilySpec, harness

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

marks = []
rep_stats = harness._rep_stats

def marked(*args):
    marks.append(faults())
    return rep_stats(*args)

harness._rep_stats = marked
family = FamilySpec(kind=sys.argv[1], alpha=float(sys.argv[2]))
cell = (ExperimentConfig(family=family, p=2.0, n_grid=(100_000,), reps=22, master_seed=20260815,
                         experiment="chf_compare"),)
harness._block_stats(cell, 0, 22)
print((faults() - marks[2]) / 20)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux's minor-fault count")
@pytest.mark.parametrize("kind,alpha", [("SymStable", 1.0), ("SymStable", 1.5), ("SymPareto", 1.0)])
def test_a_chf_replication_at_n_1e5_refaults_no_pages(kind, alpha):
    # the block draws and scales over two buffers it owns: a replication that
    # allocated its 800 KB draw and scaled copy anew took about 360 faults
    src = str(Path(harness.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _FAULTS_PER_REPLICATION, kind, str(alpha)],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                         check=True)
    assert float(out.stdout) < 20


def _no_oracle_file(*args, **kwargs):
    raise AssertionError("a run read an oracle table")


def test_ek_runs_without_oracle_tables(monkeypatch, tmp_path):
    # every reference law is exact: no table is read, and an oracle_dir that
    # does not exist is ignored
    monkeypatch.setattr(harness, "load_oracle", _no_oracle_file)
    cfg = config(experiment="ek_functionals", p=2.0, family=FamilySpec(kind="Gaussian"),
                 n_grid=(200,), reps=32)
    r = run_experiment(cfg, oracle_dir=tmp_path / "nowhere")
    names = {row.statistic for row in r.aggregates}
    assert names == {"ks_max_g1", "ks_max_abs_g2", "ks_mean_sq_g3", "ks_mean_abs_g4"}
    assert all(0.0 < row.value < 1.0 for row in r.aggregates)
    assert not (tmp_path / "nowhere").exists()


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


def _family(kind: str) -> FamilySpec:
    return FamilySpec(kind=kind, alpha=2.0 if kind == "Gaussian" else 1.5)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_one_draw_per_replication(monkeypatch, kind):
    # StudentT too: its sampler has no prefix property, but every n reads a
    # prefix of the one draw at the largest n
    draws = _counting(monkeypatch, "_sample_into")
    cfg = config(family=_family(kind), n_grid=(50, 100, 200), reps=6)
    run_experiment(cfg)
    assert len(draws) == 6
    # one worker block: every replication draws over the same buffer
    assert len({id(out) for _, _, out, _ in draws}) == 1
    assert draws[0][2].shape == (200,)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_rep_stats_read_prefixes_of_one_draw(kind):
    # each n's statistics are those of the length-n prefix of the draw at the
    # largest n, bit for bit, for every scan a cell can hold
    fam = _family(kind)
    kinds = [*harness.REGIME_SCAN_KINDS, "fdd_covariance"] + ([] if kind == "Gaussian" else ["chf_compare"])
    cell = tuple(config(family=fam, p=2.0, n_grid=(40, 100, 250), experiment=e) for e in kinds)
    for rep in (0, 3):
        full = sample_family(fam, SeededStream(cell[0].master_seed, rep), 250)
        got = harness._rep_stats(cell, rep, np.empty(250), np.empty(families._scratch_size(250)))
        for n, row in zip(cell[0].n_grid, got):
            want = [harness._KINDS[c.experiment].stats(c, full[:n], ProcessPath(full[:n], c.p), np.empty(n))
                    for c in cell]
            assert [[v.hex() for v in stats] for stats in row] == \
                [[v.hex() for v in stats] for stats in want]


@pytest.mark.parametrize("index,n", [(0, 100), (99, 100), (100, 200), (150, 200), (399, 400)])
def test_non_finite_draw_names_the_first_prefix_holding_it(monkeypatch, index, n):
    # the draw is checked once, at the largest n; the error names the
    # smallest n whose prefix holds the first non-finite value
    def poisoned(spec, stream, out, scaled):
        out[:] = 1.0
        out[index] = np.inf

    monkeypatch.setattr(harness, "_sample_into", poisoned)
    cfg = config(n_grid=(100, 200, 400), reps=2)
    with pytest.raises(NonFiniteSampleError, match=rf"replication 0 at n={n} .*non-finite draw"):
        run_experiment(cfg)


def test_build_oracles_checks_kinds_before_writing(tmp_path):
    with pytest.raises(ParameterDomainError, match="G5"):
        build_oracles(out_dir=tmp_path / "oracles", kinds=("G5",))
    assert not (tmp_path / "oracles").exists()
    # the seed is checked too, by building its streams
    with pytest.raises(ParameterDomainError, match="master_seed must fit in 64 bits"):
        build_oracles(out_dir=tmp_path / "oracles", seed=-1)
    assert not (tmp_path / "oracles").exists()


def test_regime_map_shares_draws_pool_and_oracles(monkeypatch):
    # the exact G4 law is tabulated once per process, and no file is read
    monkeypatch.setattr(harness, "load_oracle", _no_oracle_file)
    limits._g4_table.cache_clear()
    draws = _counting(monkeypatch, "_sample_into")
    pools = []

    class CountedPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountedPool)
    base = config(n_grid=(50, 100), reps=4, workers=2)
    reports, _ = regime_map(base, (1.0, 1.5), (1.0, 2.0))
    assert len(reports) == 12
    assert len(pools) == 1
    assert limits._g4_table.cache_info().misses == 1
    # the counter sees only the parent's calls; at workers=1 every draw is local
    reports1, _ = regime_map(dataclasses.replace(base, workers=1), (1.0, 1.5), (1.0, 2.0))
    assert limits._g4_table.cache_info().misses == 1
    # two alpha rows, one draw per replication for both p and all three scans
    assert len(draws) == 2 * 4
    blob = lambda r: json.dumps(report_payload(r), sort_keys=True, separators=(",", ":"))
    assert [blob(r) for r in reports] == [blob(r) for r in reports1]


def test_one_reduction_per_replication_and_n(monkeypatch):
    # the path's prefix sums and its one rescaled sample, from which V_{n,p}
    # and the ratios are read, serve every p of the row and every scan,
    # ek_functionals included; no scan reads the modulus of continuity, so no
    # window pass runs
    sums = _counting(monkeypatch, "partial_sums", process)
    rescales = _counting(monkeypatch, "_Rescaled", process)
    window_passes = _counting(monkeypatch, "_max_oscillations", process)
    window_passes += _counting(monkeypatch, "_max_oscillations", diagnostics)
    rescales_in_diagnostics = _counting(monkeypatch, "_Rescaled", diagnostics)
    base = config(n_grid=(50, 100), reps=4, workers=1)
    regime_map(base, (1.5,), (1.5, 2.0))
    assert len(sums) == 4 * 2
    assert len(rescales) == 4 * 2
    assert window_passes == []
    assert rescales_in_diagnostics == []


@pytest.mark.parametrize("workers", [1, 2])
def test_regime_map_rows_share_the_seed_and_each_report_is_pure(workers):
    # every p of an alpha row reads the row's draws, at the seed of the row's
    # first cell; each report is still what run_experiment gives its config
    alphas, ps = (0.8, 1.5, 2.0), (0.8, 1.5, 2.0)
    base = config(n_grid=(50, 120), reps=6, workers=workers)
    reports, matrix = regime_map(base, alphas, ps)
    assert [(r.config.family.alpha, r.config.p, r.config.experiment) for r in reports] == \
        [(a, p, kind) for a in alphas for p in ps for kind in harness.REGIME_SCAN_KINDS]
    assert list(matrix) == [(a, p) for a in alphas for p in ps]
    for r in reports:
        i = alphas.index(r.config.family.alpha)
        assert r.config.master_seed == derive_seed(12345, i * len(ps))
    blob = lambda r: json.dumps(report_payload(r), sort_keys=True, separators=(",", ":"))
    assert [blob(r) for r in reports] == \
        [blob(run_experiment(dataclasses.replace(r.config, workers=1))) for r in reports]


def _load(relpath: str, name: str):
    path = Path(__file__).resolve().parents[1] / relpath
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_regime_map_script_passes_n_through_unchanged(monkeypatch, capsys):
    # the script is `selfnorm sweep` with desk defaults: flags override them
    script = _load("scripts/regime_map.py", "regime_map_script")
    calls = []

    def fake_map(base, alphas, ps):
        calls.append((base, alphas, ps))
        return [], {(a, p): "inconclusive" for a in alphas for p in ps}

    monkeypatch.setattr(cli, "regime_map", fake_map)
    assert script.main(["--n", "1e3,4e3", "--workers", "1"]) == 0
    (base, alphas, ps), = calls
    assert (base.n_grid, base.workers, base.reps, base.epsilon) == ((1000, 4000), 1, 400, 0.2)
    assert (base.family.kind, alphas, ps) == ("SymStable", (0.8, 1.5, 2.0), (0.8, 1.5, 2.0))
    out = capsys.readouterr().out
    assert out.startswith("alpha \\ p") and out.endswith("s wall\n")
    # 100.7 is refused, not run at n = 100
    assert script.main(["--n", "100.7,200", "--workers", "1"]) == 1
    assert len(calls) == 1
    assert capsys.readouterr().err == "error: n_grid must be an integer, got 100.7\n"


@pytest.mark.parametrize("script, args", [
    ("chf_check", ["--reps", "4"]),
    ("calibrate_thresholds", ["--reps", "4", "--epsilons", "0.2"]),
])
def test_scripts_take_integral_float_n(script, args, monkeypatch, capsys):
    module = _load(f"scripts/{script}.py", f"{script}_script")
    monkeypatch.setattr(sys, "argv", [f"{script}.py", "--n", "2e2", "--workers", "1", *args])
    module.main()
    assert " at n=200, reps=4" in capsys.readouterr().out


@pytest.mark.parametrize("script, args", [
    ("chf_check", ["--n", "100.7"]),
    ("calibrate_thresholds", ["--n", "100.7"]),
    ("calibrate_thresholds", ["--epsilons", "0.1,x"]),
])
def test_scripts_refuse_bad_values_as_usage_errors(script, args, monkeypatch, capsys):
    module = _load(f"scripts/{script}.py", f"{script}_script")
    monkeypatch.setattr(module, "run_experiment", None)  # nothing may run
    monkeypatch.setattr(sys, "argv", [f"{script}.py", *args])
    with pytest.raises(SystemExit) as exc:
        module.main()
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "Traceback" not in err
    assert args[1] in err


def test_cli_passes_n_through_unchanged(monkeypatch, capsys):
    # --n is parsed like the config file and the script: 1e3 is 1000, and
    # ExperimentConfig refuses 100.7 instead of running it at n = 100
    grids = []
    real_run = cli.run_experiment

    def recording_run(config):
        grids.append(config.n_grid)
        return real_run(config)

    monkeypatch.setattr(cli, "run_experiment", recording_run)
    flags = ["run", "--family", "SymStable", "--alpha", "1.5", "--p", "2", "--reps", "4",
             "--seed", "1", "--experiment", "degenerate_scan"]
    assert cli.main([*flags, "--n", "1e3,4e3"]) == 0
    assert grids == [(1000, 4000)]
    assert json.loads(capsys.readouterr().out)["config"]["n_grid"] == [1000, 4000]
    assert cli.main([*flags, "--n", "100.7"]) == 1
    assert grids == [(1000, 4000)]
    assert capsys.readouterr().err == "error: n_grid must be an integer, got 100.7\n"


@pytest.mark.parametrize("command, flag, text", [("run", "--n", "100,2e"),
                                                  ("sweep", "--alpha", "1.5,one"),
                                                  ("sweep", "--p", "1,x")])
def test_cli_list_errors_quote_the_bad_text(command, flag, text, capsys):
    # the usage error quotes the text; it does not name the private parser function
    assert cli.main([command, flag, text]) == 1
    err = capsys.readouterr().err
    assert err == f"error: argument {flag}: {text!r} is not a comma-separated list of numbers\n"
    assert "_float_list" not in err


def test_benchmark_trace_installs_and_restores():
    # the benchmark's tracer rebinds layer names in harness and diagnostics;
    # each must still exist, be called through that name, and come back
    tracing = _load("perfbench/tracing.py", "perfbench_tracing")
    bound = [(module, attr, getattr(module, attr))
             for module, table in ((harness, tracing._HARNESS_NAMES),
                                   (diagnostics, tracing._DIAGNOSTICS_NAMES))
             for attr in table]
    bound.append((harness, "ProcessPoolExecutor", harness.ProcessPoolExecutor))
    base = config(n_grid=(50, 100), reps=3, workers=1)
    tracer = tracing.Tracer(timed=False)
    with tracing.installed(tracer):
        regime_map(base, (1.5,), (2.0,))
    assert tracer.counts["process.ek_functionals.calls"] == 3 * 2
    assert tracer.counts["process.ProcessPath.calls"] == 3 * 2
    assert [getattr(module, attr) is original for module, attr, original in bound] == \
        [True] * len(bound)


# ---------------------------------------------------------------------------
# reports on disk


def test_json_round_trip(tmp_path):
    r = run_experiment(config())
    dest = tmp_path / "r.json"
    write_report(r, dest)
    back = read_report(dest)
    blob = lambda x: json.dumps(report_payload(x), sort_keys=True, separators=(",", ":"))
    assert blob(back) == blob(r)
    assert back.config == dataclasses.replace(r.config, workers=1)


def _edit_first_row(payload: dict, **edit) -> str:
    first, *rest = payload["aggregates"]
    return json.dumps({**payload, "aggregates": [{**first, **edit}, *rest]})


@pytest.mark.parametrize("text", [
    lambda payload: "{}",
    lambda payload: "[]",
    lambda payload: json.dumps(payload)[:-7],  # cut short: not valid JSON
    lambda payload: json.dumps({**payload, "run_id": "0123456789ab"}),
    # reps edited under the old config's run_id
    lambda payload: json.dumps({**payload, "config": {**payload["config"], "reps": 17}}),
    lambda payload: json.dumps({**payload, "regime_decision": "banana"}),
    lambda payload: json.dumps({**payload, "draw_count": -5}),
    # one aggregate row edited: Python's json writes and reads the NaN literal
    lambda payload: _edit_first_row(payload, value=math.nan),
    lambda payload: _edit_first_row(payload, stderr=-1.0),
    lambda payload: _edit_first_row(payload, reps=3),
    lambda payload: _edit_first_row(payload, n=7),
    lambda payload: _edit_first_row(payload, n=float(payload["aggregates"][0]["n"])),  # 50.0
    # rows the experiment never writes: a renamed, a repeated, a missing and a moved row
    lambda payload: _edit_first_row(payload, statistic="banana"),
    lambda payload: json.dumps({**payload, "aggregates": payload["aggregates"] * 2}),
    lambda payload: json.dumps({**payload, "aggregates": payload["aggregates"][:-1]}),
    lambda payload: json.dumps({**payload, "aggregates": payload["aggregates"][::-1]}),
    # a key that no field has: it would be dropped on reading, so the file is refused
    lambda payload: json.dumps({**payload, "config": {**payload["config"], "q": 0.5}}),
    lambda payload: _edit_first_row(payload, note="x"),
    # a missing key is not rebuilt from its field's default (epsilon here is the default)
    lambda payload: json.dumps({**payload, "config": {k: v for k, v in payload["config"].items()
                                                      if k != "epsilon"}}),
], ids=["empty_object", "list", "malformed_json", "tampered_run_id", "edited_reps", "unknown_label",
        "wrong_draw_count", "nan_value", "negative_stderr", "row_reps", "row_n_off_grid",
        "row_n_not_int", "row_statistic_renamed", "rows_repeated", "row_missing", "rows_reordered",
        "unknown_config_key", "unknown_row_key", "missing_config_key"])
def test_read_report_refuses_what_is_not_its_own_payload(text, tmp_path):
    payload = report_payload(run_experiment(config()))
    dest = tmp_path / "r.json"
    dest.write_text(text(payload))
    with pytest.raises(ConfigError, match="r.json"):
        read_report(dest)
    with pytest.raises(OSError):
        read_report(tmp_path / "missing.json")  # an unreadable file stays an OSError


@pytest.mark.parametrize("experiment", ["fdd_covariance", "chf_compare"])
def test_read_report_refuses_a_label_on_a_scan_no_rule_reads(experiment, tmp_path):
    payload = report_payload(run_experiment(config(experiment=experiment, p=1.5, reps=4)))
    assert payload["regime_decision"] == "inconclusive"
    dest = tmp_path / "r.json"
    dest.write_text(json.dumps(payload))
    read_report(dest)
    dest.write_text(json.dumps({**payload, "regime_decision": "degenerate"}))
    with pytest.raises(ConfigError, match="regime_decision"):
        read_report(dest)


def test_report_files_byte_identical_across_workers(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_report(run_experiment(config(workers=1)), a)
    write_report(run_experiment(config(workers=4)), b)
    assert a.read_bytes() == b.read_bytes()


def test_write_report_rejects_non_finite(tmp_path):
    r = run_experiment(config())
    bad = dataclasses.replace(r, aggregates=(dataclasses.replace(r.aggregates[0], value=math.nan),))
    with pytest.raises(ValueError):
        write_report(bad, tmp_path / "r.json")
    assert list(tmp_path.iterdir()) == []


def test_write_report_is_atomic(tmp_path, monkeypatch):
    dest = tmp_path / "r.json"
    write_report(run_experiment(config()), dest)
    before = dest.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        write_report(run_experiment(config(master_seed=1)), dest)
    assert dest.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == [dest.name]


def test_write_report_wraps_os_errors(tmp_path):
    r = run_experiment(config())
    with pytest.raises(OSError):
        write_report(r, tmp_path / "no_such_dir" / "r.json")


# ---------------------------------------------------------------------------
# regime decision


def rows(reps: int = 400, **series) -> list[AggregateRow]:
    out = []
    for stat, values in series.items():
        for i, v in enumerate(values):
            out.append(AggregateRow(n=100 * 2**i, statistic=stat, value=v,
                                    stderr=0.005, reps=reps))
    return out


# one cell per label, each row's stderr 0.005 at reps 400
CELLS = {
    "degenerate": dict(exceedance=(0.5, 0.4, 0.3), mr_median=(0.2, 0.15, 0.1)),
    "not_tight": dict(exceedance=(0.95, 0.96, 0.95), mr_median=(0.7, 0.72, 0.71),
                      mr_ks_prev=(0.05, 0.04)),
    "brownian": dict(exceedance=(0.84, 0.84, 0.84), mr_median=(0.05, 0.03, 0.02),
                     ks_max_g1=(0.03,), ks_max_abs_g2=(0.02,), ks_mean_sq_g3=(0.03,),
                     ks_mean_abs_g4=(0.025,)),
}


def _trace(*clauses):
    return [harness._Clause(*c) for c in clauses]


def test_decide_degenerate():
    th = load_default_thresholds()
    aggregates = rows(**CELLS["degenerate"])
    # no EK rows: brownian's guards are in the table, but brownian is no candidate
    assert harness._decide(aggregates, th) == ("degenerate", _trace(
        ("degenerate", "exceedance_rise_n200", -0.11414213562373088, "<=", 0.0, True),
        ("degenerate", "exceedance_rise_n400", -0.11414213562373099, "<=", 0.0, True),
        ("degenerate", "exceedance", 0.3, "<=", 0.755, True),
        ("degenerate", "mr_median", 0.1, "<", 0.4, True),
        ("brownian", "mr_median", 0.1, "<", 0.4, True),
        ("brownian", "exceedance", 0.3, ">", 0.785, False)))
    assert decide_regime(aggregates, th) == "degenerate"


def test_decide_not_tight():
    th = load_default_thresholds()
    aggregates = rows(**CELLS["not_tight"])
    assert harness._decide(aggregates, th) == ("not_tight", _trace(
        ("degenerate", "exceedance_rise_n200", -0.0041421356237308915, "<=", 0.0, True),
        ("degenerate", "exceedance_rise_n400", -0.02414213562373091, "<=", 0.0, True),
        ("degenerate", "exceedance", 0.95, "<=", 0.755, False),
        ("degenerate", "mr_median", 0.71, "<", 0.4, False),
        ("not_tight", "mr_ks_prev", 0.04, "<=", 0.1, True),
        ("not_tight", "mr_median_last_two_min", 0.71, ">=", 0.45, True),
        ("brownian", "mr_median", 0.71, "<", 0.4, False),
        ("brownian", "exceedance", 0.95, ">", 0.785, True)))
    assert decide_regime(aggregates, th) == "not_tight"


def test_decide_brownian():
    th = load_default_thresholds()
    aggregates = rows(**CELLS["brownian"])
    # the EK bound is smirnovi(400, 1e-3 / 8): Bonferroni over the four rows
    assert harness._decide(aggregates, th) == ("brownian", _trace(
        ("degenerate", "exceedance_rise_n200", -0.0141421356237309, "<=", 0.0, True),
        ("degenerate", "exceedance_rise_n400", -0.0141421356237309, "<=", 0.0, True),
        ("degenerate", "exceedance", 0.84, "<=", 0.755, False),
        ("degenerate", "mr_median", 0.02, "<", 0.4, True),
        ("brownian", "ek_ks_largest", 0.03, "<=", 0.10547214203979575, True),
        ("brownian", "mr_median", 0.02, "<", 0.4, True),
        ("brownian", "exceedance", 0.84, ">", 0.785, True)))
    assert decide_regime(aggregates, th) == "brownian"


def _brownian_rows(reps: int, worst_ks: float) -> list[AggregateRow]:
    # twelve EK KS distances, as an ek_functionals scan over three n writes
    ks = {name: (0.03, 0.03, 0.03) for name in
          ("ks_max_g1", "ks_max_abs_g2", "ks_mean_sq_g3", "ks_mean_abs_g4")}
    ks["ks_mean_sq_g3"] = (0.03, worst_ks, 0.03)
    return rows(reps=reps, exceedance=(0.84, 0.84, 0.84), mr_median=(0.05, 0.03, 0.02), **ks)


@pytest.mark.parametrize("reps,passes,fails", [
    # smirnovi(400, 1e-3 / 24) = 0.11174: the bound scales with reps
    (400, 0.111, 0.112),
    # smirnovi(1500, 1e-3 / 24) = 0.0579: the ek_ks_max floor of 0.08 binds
    (1500, 0.080, 0.081),
])
def test_brownian_ks_bound_scales_with_reps(reps, passes, fails):
    th = load_default_thresholds()
    assert th["ek_ks_max"] == 0.08 and th["ek_family_level"] == 0.001
    assert decide_regime(_brownian_rows(reps, passes), th) == "brownian"
    assert decide_regime(_brownian_rows(reps, fails), th) == "inconclusive"


def test_brownian_ks_bound_is_bonferroni_over_the_rows_read():
    # with only G3's three rows, m = 3: smirnovi(400, 1e-3 / 6) = 0.1038
    th = load_default_thresholds()
    base = dict(reps=400, exceedance=(0.84,), mr_median=(0.02,))
    assert decide_regime(rows(ks_mean_sq_g3=(0.03, 0.103, 0.03), **base), th) == "brownian"
    assert decide_regime(rows(ks_mean_sq_g3=(0.03, 0.104, 0.03), **base), th) == "inconclusive"


def test_brownian_ks_bound_stays_fixed_without_the_guards():
    # a lone ek_functionals report has no max-ratio or exceedance rows to rule
    # out a nearby non-Brownian cell, so KS noise alone never widens its bound
    th = load_default_thresholds()
    ek = {name: (0.03, 0.1, 0.03) for name in
          ("ks_max_g1", "ks_max_abs_g2", "ks_mean_sq_g3", "ks_mean_abs_g4")}
    assert decide_regime(rows(reps=400, **ek), th) == "inconclusive"
    assert decide_regime(rows(reps=400, mr_median=(0.02,), **ek), th) == "inconclusive"
    assert decide_regime(rows(reps=400, mr_median=(0.02,), exceedance=(0.84,), **ek),
                         th) == "brownian"


def test_decide_inconclusive_when_no_rule_fires():
    th = load_default_thresholds()
    got = decide_regime(rows(exceedance=(0.5, 0.6, 0.7)), th)  # increasing, never low
    assert got == "inconclusive"
    # every brownian guard passes, but without EK rows brownian is no candidate
    guards = rows(exceedance=CELLS["brownian"]["exceedance"], mr_median=CELLS["brownian"]["mr_median"])
    assert decide_regime(guards, th) == "inconclusive"


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
    for key in ("exceedance_final_max", "exceedance_slack_se", "mr_median_min",
                "mr_stability_ks_max", "ek_ks_max", "ek_family_level", "splits"):
        bad = dict(th)
        bad.pop(key)
        with pytest.raises(ConfigError, match=key):
            decide_regime(rows(exceedance=(0.5,)), bad)
    for level in (0.0, 1.0):
        with pytest.raises(ConfigError, match="ek_family_level"):
            decide_regime(rows(exceedance=(0.5,)), dict(th, ek_family_level=level))
    crossed = dict(th, exceedance_final_max=0.95)  # above the split: rules overlap
    with pytest.raises(ConfigError):
        decide_regime(rows(exceedance=(0.5,)), crossed)


# The three rules as hand-wired before they became one clause table, frozen
# as the reference the evaluator must reproduce label for label.

def _frozen_series(rows, statistic):
    return sorted((r for r in rows if r.statistic == statistic), key=lambda r: r.n)


def _frozen_decide(aggregates, thresholds):
    rows = list(aggregates)
    exc = _frozen_series(rows, "exceedance")
    mr_med = _frozen_series(rows, "mr_median")
    mr_ks = _frozen_series(rows, "mr_ks_prev")
    ek = [r for name in ("ks_max_g1", "ks_max_abs_g2", "ks_mean_sq_g3", "ks_mean_abs_g4")
          for r in _frozen_series(rows, name)]
    if not exc and not mr_med and not ek:
        raise MissingStatisticsError("no statistics")
    mr_low = (not mr_med) or mr_med[-1].value < thresholds["splits"]["mr"]
    exc_high = (not exc) or exc[-1].value > thresholds["splits"]["exceedance"]
    degenerate = False
    if exc:
        slack_k = thresholds["exceedance_slack_se"]
        non_increasing = all(
            b.value <= a.value + slack_k * math.hypot(a.stderr or 0.0, b.stderr or 0.0)
            for a, b in zip(exc, exc[1:]))
        degenerate = non_increasing and exc[-1].value <= thresholds["exceedance_final_max"] and mr_low
    not_tight = False
    if len(mr_med) >= 2 and mr_ks:
        stable = mr_ks[-1].value <= thresholds["mr_stability_ks_max"]
        high = min(mr_med[-1].value, mr_med[-2].value) >= thresholds["mr_median_min"]
        not_tight = stable and high
    brownian = False
    if ek:
        bound = thresholds["ek_ks_max"]
        if mr_med and exc:
            level = thresholds["ek_family_level"] / len(ek)
            bound = max(bound, limits.ks_critical_value(min(r.reps for r in ek), level))
        brownian = max(r.value for r in ek) <= bound and mr_low and exc_high
    labels = [name for name, hit in
              (("degenerate", degenerate), ("brownian", brownian), ("not_tight", not_tight)) if hit]
    return labels[0] if len(labels) == 1 else "inconclusive"


_TH = load_default_thresholds()
_REPS = st.sampled_from((8, 400, 783, 1500))
_STDERR = st.sampled_from((None, 0.0, 0.003, 0.01, 0.04))
_EK = harness._EK_STATISTICS


def _beside(x: float) -> tuple[float, ...]:
    """x, one ulp either side of x, and 0.01 either side."""
    return (x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf), x - 0.01, x + 0.01)


def _values(edges, top):
    # on or beside a bound the statistic's clauses compare with, or anywhere in [0, top]
    return st.one_of(st.sampled_from([v for x in edges for v in _beside(x)]), st.floats(0.0, top))


# EK and lagged KS distances are small
_VALUES = {"exceedance": _values((_TH["exceedance_final_max"], _TH["splits"]["exceedance"]), 1.0),
           "mr_median": _values((_TH["splits"]["mr"], _TH["mr_median_min"]), 1.0),
           "mr_ks_prev": _values((_TH["mr_stability_ks_max"],), 0.3),
           **{name: _values((_TH["ek_ks_max"],), 0.15) for name in _EK}}


@st.composite
def _aggregate_sets(draw):
    """Rows of every statistic a rule reads, on, beside and off each bound its clauses use."""
    out = []
    for name, values in _VALUES.items():
        prev = None
        for i in range(draw(st.integers(0, 4 if name == "exceedance" else 3))):
            stderr = draw(_STDERR)
            value = draw(values)
            if name == "exceedance" and prev is not None and draw(st.booleans()):
                # a rise of exactly k combined standard errors: the edge of a step
                slack = _TH["exceedance_slack_se"] * math.hypot(prev.stderr or 0.0, stderr or 0.0)
                value = draw(st.sampled_from(_beside(prev.value + slack)))
            prev = AggregateRow(n=100 * 2**i, statistic=name, value=value, stderr=stderr,
                                reps=draw(_REPS))
            out.append(prev)
    ek = [r for r in out if r.statistic in _EK]
    if ek and draw(st.booleans()):
        # the last EK distance on or beside the Bonferroni bound of the rows drawn
        crit = limits.ks_critical_value(min(r.reps for r in ek), _TH["ek_family_level"] / len(ek))
        out[-1] = dataclasses.replace(out[-1], value=draw(st.sampled_from(_beside(crit))))
    return out


@given(_aggregate_sets())
@settings(max_examples=400, deadline=None)
def test_decide_equals_the_frozen_rules(aggregates):
    try:
        want = _frozen_decide(aggregates, _TH)
    except MissingStatisticsError:
        with pytest.raises(MissingStatisticsError):
            decide_regime(aggregates, _TH)
        return
    assert decide_regime(aggregates, _TH) == want


@pytest.mark.parametrize("label, statistic, at, bound", [
    # a step's rise: fl(0.5 + slack) rounds down, fl(0.4 + slack) up
    ("degenerate", "exceedance", (1,), 0.5 + 2.0 * math.hypot(0.005, 0.005)),
    ("degenerate", "exceedance", (2,), 0.4 + 2.0 * math.hypot(0.005, 0.005)),
    ("degenerate", "exceedance", (0, 1, 2), _TH["exceedance_final_max"]),
    ("degenerate", "mr_median", (2,), _TH["splits"]["mr"]),
    ("not_tight", "mr_ks_prev", (1,), _TH["mr_stability_ks_max"]),
    ("not_tight", "mr_median", (2,), _TH["mr_median_min"]),
    ("not_tight", "mr_median", (1,), _TH["mr_median_min"]),  # the smaller of the last two
    ("brownian", "ks_max_g1", (0,), limits.ks_critical_value(400, _TH["ek_family_level"] / 4)),
    ("brownian", "mr_median", (2,), _TH["splits"]["mr"]),
    ("brownian", "exceedance", (2,), _TH["splits"]["exceedance"]),
])
def test_each_bound_decides_as_the_frozen_rules(label, statistic, at, bound):
    # rows `at` of one statistic of a label's cell on its clause's bound and beside it
    for value in _beside(bound):
        series = dict(CELLS[label])
        series[statistic] = tuple(value if i in at else v for i, v in enumerate(series[statistic]))
        aggregates = rows(**series)
        assert decide_regime(aggregates, _TH) == _frozen_decide(aggregates, _TH)


# ---------------------------------------------------------------------------
# the regime map


def test_regime_map_runs_three_scans_per_cell():
    base = config(n_grid=(50, 100), reps=12)
    reports, matrix = regime_map(base, (1.0,), (1.0,))
    assert [r.config.experiment for r in reports] == \
        ["degenerate_scan", "tightness_scan", "ek_functionals"]
    assert len({r.config.master_seed for r in reports}) == 1  # same cell seed
    assert set(matrix) == {(1.0, 1.0)}
    assert matrix[(1.0, 1.0)] in ("degenerate", "not_tight", "brownian", "inconclusive")


def test_regime_map_rejects_empty_grid():
    with pytest.raises(ConfigError, match="nonempty"):
        regime_map(config(), (), (1.0,))


@pytest.mark.parametrize("alphas, ps, message", [
    (("0.8",), (1.0,), "alpha_list must be a real number"),
    ((1.0,), ("0.8",), "p_list must be a real number"),
    ((True,), (1.0,), "alpha_list must be a real number"),
    ("0.8", (1.0,), "alpha_list must be a sequence"),
])
def test_grids_check_each_value(alphas, ps, message):
    # a grid value is checked like a config field: a string is refused, not parsed
    with pytest.raises(ConfigError, match=message):
        regime_map(config(), alphas, ps)


@pytest.mark.parametrize("alphas, ps", [((1.5, 1.5), (2.0,)), ((1.5,), (2.0, 1.0, 2.0))])
def test_grids_refuse_a_repeated_value(alphas, ps, capsys):
    # a repeated value would fold cells into one matrix entry
    with pytest.raises(ConfigError, match="repeats"):
        regime_map(config(), alphas, ps)
    flags = ["--alpha", ",".join(map(str, alphas)), "--p", ",".join(map(str, ps))]
    assert cli.main(["sweep", "--family", "SymStable", *flags, "--n", "50", "--reps", "4",
                     "--seed", "1"]) == 1
    assert "repeats a value" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# command line


def test_cli_run_writes_report(tmp_path, capsys):
    dest = tmp_path / "out.json"
    code = cli.main(["run", "--family", "SymStable", "--alpha", "1.0", "--p", "1.0",
                     "--n", "50,200", "--reps", "8", "--seed", "3",
                     "--experiment", "degenerate_scan", "--out", str(dest)])
    assert code == 0
    assert read_report(dest).config.n_grid == (50, 200)


def test_cli_run_stdout_json(tmp_path, capsys):
    flags = ["run", "--family", "SymStable", "--alpha", "1.0", "--p", "1.0",
             "--n", "50", "--reps", "8", "--seed", "3", "--experiment", "degenerate_scan"]
    assert cli.main(flags) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["config"]["master_seed"] == 3
    # stdout is the file write_report writes, byte for byte
    assert cli.main([*flags, "--out", str(tmp_path / "r.json")]) == 0
    assert out.encode() == (tmp_path / "r.json").read_bytes()


def test_cli_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "SymStable", "alpha": 1.0, "p": 1.0,
                               "n": [50], "reps": 8, "seed": 77,
                               "experiment": "degenerate_scan"}))
    code = cli.main(["run", "--config", str(cfg), "--seed", "1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["config"]["master_seed"] == 77


def test_cli_reruns_a_reports_own_config(tmp_path, capsys):
    # a report's config object, nested family included, run through --config
    # gives the report back byte for byte
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": {"kind": "SymStable", "alpha": 1.5},
                               "p": 2.0, "n_grid": [50], "reps": 4, "master_seed": 5,
                               "experiment": "degenerate_scan"}))
    assert cli.main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["config"]["family"] == {"kind": "SymStable", "alpha": 1.5}
    cfg.write_text(json.dumps(report["config"]))
    assert cli.main(["run", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == out


RUN_FLAGS = {"--family": "SymStable", "--alpha": "1.0", "--p": "1.0", "--n": "50",
             "--reps": "4", "--seed": "1"}


@pytest.mark.parametrize("missing", RUN_FLAGS)
def test_cli_names_each_missing_required_flag(missing, capsys):
    args = [tok for flag, value in RUN_FLAGS.items() if flag != missing for tok in (flag, value)]
    assert cli.main(["run", *args, "--experiment", "degenerate_scan"]) == 1
    assert capsys.readouterr().err == f"error: {missing} is required (flag or config file)\n"


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    bad_p = ["run", "--family", "SymStable", "--alpha", "1.0", "--p", "9", "--n", "50",
             "--reps", "4", "--seed", "1", "--experiment", "degenerate_scan"]
    assert cli.main(bad_p) == 1
    io_err = ["run", "--family", "SymStable", "--alpha", "1.0", "--p", "1.0", "--n", "50",
              "--reps", "4", "--seed", "1", "--experiment", "degenerate_scan",
              "--out", str(tmp_path / "no_dir" / "x.json")]
    assert cli.main(io_err) == 3
    assert cli.main(["run", "--family", "Nope", "--alpha", "1", "--p", "1", "--n", "5",
                     "--reps", "2", "--seed", "1", "--experiment", "degenerate_scan"]) == 1
    # bad config-file values exit 1 with an error line, not a traceback;
    # ExperimentConfig and FamilySpec check them, and a JSON true is not a number
    run_args = ["run", "--family", "SymStable", "--alpha", "1.0", "--p", "1.0", "--n", "50",
                "--reps", "4", "--seed", "1", "--experiment", "degenerate_scan"]
    sweep_args = ["sweep", "--family", "SymStable", "--alpha", "1.0", "--p", "1.0", "--n", "50",
                  "--reps", "4", "--seed", "1"]
    bad = [(run_args, data) for data in (
        {"n": ["x"]}, {"n": 5}, {"n_grid": [100.7]}, {"reps": 1.5},
        {"seed": "1"}, {"alpha": [1.0]},
        {"family": {"kind": "SymStable", "alpha": "x"}},
        {"family": {"kind": "SymStable", "alpha": 1.0, "bogus": 1}}, {"out": 3},
        {"reps": True}, {"alpha": True}, b"\xff\xfe{")]  # the last is not UTF-8
    bad += [(sweep_args, data) for data in (
        {"alpha": ["1.5"]}, {"p": [1.0, "2"]}, {"experiment": False})]
    for i, (args, data) in enumerate(bad):
        cfg_file = tmp_path / f"bad{i}.json"
        cfg_file.write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())
        capsys.readouterr()
        assert cli.main(args + ["--config", str(cfg_file)]) == 1, data
        assert capsys.readouterr().err.startswith("error: "), data
    # a null inside the nested family is refused by name, as a top-level one
    # is, not read as the --alpha flag left unset; so is a key no field holds
    named = [({"family": {"kind": "SymStable", "alpha": None}}, "config key 'family.alpha' cannot be null"),
             ({"alpha": None}, "config key 'alpha' cannot be null"),
             ({"delta_grid": [0.5]}, "unknown config key 'delta_grid'"),
             ({"t_grid": [0.5, 1.0]}, "unknown config key 't_grid'"),
             ({"format": "json"}, "unknown config key 'format'"),
             ({"family": {"kind": "SymStable", "alpha": 1.0, "scale": 2.0}},
              "unknown family config key 'scale'")]
    for data, message in named:
        cfg_file = tmp_path / "named.json"
        cfg_file.write_text(json.dumps(data))
        capsys.readouterr()
        assert cli.main(run_args + ["--config", str(cfg_file)]) == 1, data
        assert capsys.readouterr().err == f"error: {message}\n", data
    assert cli.main(run_args + ["--delta-grid", "0.5"]) == 1
    assert capsys.readouterr().err == "error: unrecognized arguments: --delta-grid 0.5\n"
    assert cli.main(run_args + ["--t-grid", "0.5,1"]) == 1
    assert capsys.readouterr().err == "error: unrecognized arguments: --t-grid 0.5,1\n"
    # a report has one encoding, JSON: no flag picks another
    assert cli.main(run_args + ["--format", "csv"]) == 1
    assert capsys.readouterr().err == "error: unrecognized arguments: --format csv\n"
    # no trustworthy number: a draw overflows to inf
    non_finite = ["run", "--family", "SymPareto", "--alpha", "0.005", "--p", "1", "--n", "200",
                  "--reps", "20", "--seed", "1", "--experiment", "degenerate_scan"]
    capsys.readouterr()
    with pytest.warns(RuntimeWarning):
        assert cli.main(non_finite) == 4
    assert capsys.readouterr().err.startswith("error: replication ")

    def broken(cells):
        raise BrokenProcessPool("a worker died")

    ok = ["run", "--family", "SymStable", "--alpha", "1.0", "--p", "1.0", "--n", "50",
          "--reps", "4", "--seed", "1", "--experiment", "degenerate_scan"]

    def no_statistics(aggregates, thresholds):
        raise MissingStatisticsError("nothing to decide from")

    monkeypatch.setattr(harness, "decide_regime", no_statistics)
    assert cli.main(ok) == 2
    assert capsys.readouterr().err == "error: nothing to decide from\n"
    monkeypatch.setattr(harness, "_cell_slots", broken)
    assert cli.main(ok) == 5
    assert capsys.readouterr().err == "error: a worker died\n"


def test_cli_sweep_prints_matrix(tmp_path, capsys, monkeypatch):
    # a fresh machine: nothing under HOME, and nothing written there
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    code = cli.main(["sweep", "--family", "SymStable", "--alpha", "1.0", "--p", "1.0",
                     "--n", "50", "--reps", "8", "--seed", "3",
                     "--out", str(tmp_path / "reports")])
    assert code == 0
    assert not any(home.iterdir())
    out = capsys.readouterr().out
    assert "alpha \\ p" in out
    written = list((tmp_path / "reports").glob("*.json"))
    assert len(written) == 3  # three scans for the single cell


def test_cli_sweep_writes_one_json_report_per_run_id(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    flags = ["--family", "SymStable", "--alpha", "1.0,1.5", "--p", "1.0", "--n", "50",
             "--reps", "4", "--seed", "3"]
    assert cli.main(["sweep", *flags, "--out", str(out_dir)]) == 0
    reports, _ = regime_map(config(n_grid=(50,), reps=4, master_seed=3), (1.0, 1.5), (1.0,))
    assert len(reports) == 6
    assert sorted(f.name for f in out_dir.iterdir()) == sorted(f"{r.run_id}.json" for r in reports)
    for report in reports:
        assert read_report(out_dir / f"{report.run_id}.json") == report


def test_cli_sweep_refuses_an_experiment(tmp_path, capsys):
    # a sweep always runs the three regime scans: no flag or key picks one kind
    flags = ["sweep", "--family", "SymStable", "--alpha", "1.0", "--p", "1.0", "--n", "50",
             "--reps", "4", "--seed", "3"]
    assert cli.main([*flags, "--experiment", "degenerate_scan"]) == 1
    assert capsys.readouterr().err == "error: unrecognized arguments: --experiment degenerate_scan\n"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "degenerate_scan"}))
    assert cli.main([*flags, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: unknown config key 'experiment'\n"


@pytest.mark.parametrize("flag", ["--alpha", "--p"])
def test_cli_sweep_names_an_empty_grid(flag, tmp_path, capsys):
    # the list is given, so the error names it empty, not missing
    flags = ["sweep", "--family", "SymStable", "--alpha", "1.0", "--p", "1.0", "--n", "50",
             "--reps", "4", "--seed", "3"]
    assert cli.main([*flags, flag, ""]) == 1
    assert capsys.readouterr().err == f"error: {flag} is an empty list\n"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag[2:]: []}))
    assert cli.main([*flags, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {flag} is an empty list\n"
