"""Acceptance gate: ten end-to-end checks at fixed seeds and stated tolerances.

Each test prints one `[PASS]`/`[FAIL]` line with the measured numbers before
asserting, so a full run reads as a checklist. Statistical checks use frozen
seeds: a pass or fail here is exactly reproducible.
"""
import dataclasses
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from selfnorm import (
    ExperimentConfig,
    FamilySpec,
    ProcessPath,
    SeededStream,
    build_oracles,
    g2_law,
    g3_law,
    g4_law,
    ks_statistic,
    ks_two_sample,
    limit_chf,
    load_oracle,
    p_norm,
    regime_map,
    run_experiment,
    sample_family,
    std_normal_law,
    tail_constants,
    write_report,
    y_at,
)
from selfnorm.harness import ORACLE_SEED, ORACLE_STEPS

SEED = 20260815
WORKERS = 4


def verdict(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_norm_ordering_exactness():
    rng = np.random.default_rng(SEED)
    kinds = ("SymStable", "SymPareto", "Gaussian", "StudentT")
    failures = 0
    for i in range(1000):
        kind = kinds[i % 4]
        fam_alpha = 2.0 if kind == "Gaussian" else float(rng.uniform(0.3, 2.0))
        batch = sample_family(FamilySpec(kind=kind, alpha=fam_alpha), SeededStream(SEED, i), 100)
        alpha = float(rng.uniform(0.01, 1.0))
        beta = float(rng.uniform(1.0, 2.0))
        vals = [p_norm(batch, q) for q in (alpha, 1.0, beta, 2.0)]
        slack = [1e-10 * max(a, b) for a, b in zip(vals, vals[1:])]
        failures += any(b > a + s for a, b, s in zip(vals, vals[1:], slack))
    verdict(1, failures == 0,
            f"V_a >= V_1 >= V_b >= V_2 on 1000 mixed batches, {failures} violations (need 0)")


def test_criterion_02_brownian_regime_gaussian():
    cfg = ExperimentConfig(family=FamilySpec(kind="Gaussian"), p=2.0, n_grid=(5000,),
                           reps=2000, master_seed=SEED, experiment="ek_functionals",
                           workers=WORKERS)
    r = run_experiment(cfg)
    ks = {row.statistic: row.value for row in r.aggregates}
    cfg_fdd = dataclasses.replace(cfg, experiment="fdd_covariance")
    cov = {row.statistic: row.value
           for row in run_experiment(cfg_fdd).aggregates}
    c = cov["cov_t0.25_t0.75"]
    ok = ks["ks_max_g1"] <= 0.05 and ks["ks_max_abs_g2"] <= 0.05 and abs(c - 0.25) <= 0.02
    verdict(2, ok, f"KS(max vs G1)={ks['ks_max_g1']:.4f}, KS(max-abs vs G2)="
                   f"{ks['ks_max_abs_g2']:.4f} (both <=0.05); cov(0.25,0.75)={c:.4f} (0.25+-0.02)")


C3_FAMILY = FamilySpec(kind="SymPareto", alpha=2.0)
C3_N_GRID = (10, 100, 1000)


def _c3_block(seed: int, lo: int, hi: int) -> np.ndarray:
    """S_n/V_{n,2} at every n of C3_N_GRID for replications lo..hi-1, one row each."""
    last = np.array(C3_N_GRID) - 1
    snv = np.empty((hi - lo, len(C3_N_GRID)))
    for i, rep in enumerate(range(lo, hi)):
        x = sample_family(C3_FAMILY, SeededStream(seed, rep), C3_N_GRID[-1])
        snv[i] = np.cumsum(x)[last] / np.sqrt(np.cumsum(x * x)[last])
    return snv


def test_criterion_03_pareto_boundary_ks_trend():
    """KS(S_n/V_{n,2} vs N(0,1)) strictly decreasing along n, in >=4 of 5 seeds.

    Claim: at the alpha = 2 boundary the infinite-variance SymPareto still has
    a Gaussian self-normalized limit, and its distance to N(0,1) visibly
    shrinks along n. The grid sits where that decline exceeds the noise. The
    population KS distance is about 0.028/0.020/0.016/0.011/0.011 at
    n = 10/30/100/1e3/1e4 (4e5 reps; 4e4 at n = 1e4), so n = 1e3..1e5 at
    reps = 1000 (noise floor ~0.027) decreases strictly in only 1 of 8 to
    1 of 5 independent trials, and 4 of 5 seeds almost never. Here,
    n = 10/100/1000 at reps = 50 000 decreases strictly in 39 of 40
    independent trials, so 4 of 5 seeds hold with probability ~0.99. Each
    replication is drawn once at n = 1000 and cut into prefixes, which
    SymPareto samples are (families.py); the check on rep 0 ties the cut to
    the program's own y_at.
    Limit: SymPareto alpha = 1.5 also decreases on this grid (about
    0.046/0.036/0.033), so this checks convergence behaviour at the
    boundary, not that alpha = 2 is the only such case; criterion 9 covers
    the trichotomy.
    """
    law = std_normal_law()
    fam, n_grid, reps = C3_FAMILY, C3_N_GRID, 50_000
    wins, tables, gap = 0, [], 0.0
    # each seed's replications in WORKERS contiguous blocks, joined in order
    bounds = [round(i * reps / WORKERS) for i in range(WORKERS + 1)]
    with ProcessPoolExecutor(WORKERS, mp_context=multiprocessing.get_context("spawn")) as pool:
        blocks = [[pool.submit(_c3_block, SEED + s, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
                  for s in range(5)]
        for s in range(5):
            snv = np.concatenate([block.result() for block in blocks[s]])
            for i, n in enumerate(n_grid):  # the prefix cut is the program's S_n/V_{n,2}
                fresh = ProcessPath(sample_family(fam, SeededStream(SEED + s, 0), n), 2.0)
                gap = max(gap, abs(snv[0, i] - y_at(fresh, 1.0)))
            ks_vals = [ks_statistic(col, law) for col in snv.T]
            wins += ks_vals[0] > ks_vals[1] > ks_vals[2]
            tables.append("/".join(f"{v:.4f}" for v in ks_vals))
    verdict(3, wins >= 4 and gap <= 1e-12,
            f"KS vs StdNormal strictly decreasing in {wins}/5 seeds (need >=4); "
            f"KS(n=10/100/1000) per seed: {'; '.join(tables)}; "
            f"prefix vs fresh-draw gap {gap:.1e} (<=1e-12)")


def test_criterion_04_degenerate_cauchy_p_equals_alpha():
    """Degenerate diagonal p = alpha = 1 (Cauchy): the path collapses, slowly.

    Claim: mean (S_n/V_{n,1})^2 strictly decreases over n = 1e2/1e3/1e4, and
    the exceedance P(|S_n/V_{n,1}| > 0.1) falls at each step of the n grid by
    more than 3 combined standard errors (the hypot of the two rows'
    reported stderr; the rows share random numbers along n, which makes the
    combination conservative).
    The population exceedance is about 0.813/0.727/0.651/0.581 at
    n = 1e2/1e3/1e4/1e5 (2e5 reps; 2e4 at n = 1e5): on the diagonal the
    collapse runs like 1/log n, so over 1e2..1e4 the population ratio is
    1.25, not a factor 2.
    At the frozen seed the drops are 4.2 and 7.1 se. On non-degenerate cells
    the same clause gives |z| < 1 (Gaussian p = 2: -0.4/-0.1; SymStable
    alpha = 1, p = 2: -0.2/0.7), so it can fail.
    """
    cfg = ExperimentConfig(family=FamilySpec(kind="SymStable", alpha=1.0), p=1.0,
                           n_grid=(100, 1000, 10_000), reps=2000, master_seed=SEED,
                           experiment="degenerate_scan", workers=WORKERS)
    r = run_experiment(cfg)
    msq = [row.value for row in r.aggregates if row.statistic == "mean_sq_self_norm"]
    exc = [row for row in r.aggregates if row.statistic == "exceedance"]
    decreasing = msq[0] > msq[1] > msq[2]
    drops = [(a.value - b.value) / math.hypot(a.stderr, b.stderr) for a, b in zip(exc, exc[1:])]
    ok = decreasing and all(z > 3.0 for z in drops)
    verdict(4, ok, f"mean (S/V)^2 = {msq[0]:.4f}/{msq[1]:.4f}/{msq[2]:.4f} "
                   f"(strictly decreasing: {decreasing}); exceedance(0.1) = "
                   f"{'/'.join(f'{row.value:.4f}' for row in exc)}, drops "
                   f"{'/'.join(f'{z:.1f}' for z in drops)} se (each >3)")


def test_criterion_05_degenerate_gaussian_p_one_median():
    fam = FamilySpec(kind="Gaussian")
    vals = [abs(y_at(ProcessPath(sample_family(fam, SeededStream(SEED, rep), 10_000), 1.0), 1.0))
            for rep in range(2000)]
    med = float(np.median(vals))
    ok = 0.006 <= med <= 0.012
    verdict(5, ok, f"median |S_n/V_n,1| = {med:.5f} at n=1e4 "
                   f"(target 0.6745/sqrt(2n/pi) ~ 0.00845, window [0.006, 0.012])")


def test_criterion_06_not_tight_cauchy_darling():
    cfg = ExperimentConfig(family=FamilySpec(kind="SymStable", alpha=1.0), p=2.0,
                           n_grid=(1000, 10_000, 100_000), reps=1000, master_seed=SEED,
                           experiment="tightness_scan", workers=WORKERS)
    r = run_experiment(cfg)
    med = [row.value for row in r.aggregates if row.statistic == "darling_median"]
    ks_last = [row.value for row in r.aggregates if row.statistic == "darling_ks_prev"][-1]
    ok = all(m >= 0.2 for m in med) and ks_last <= 0.06
    verdict(6, ok, f"darling medians = {'/'.join(f'{m:.4f}' for m in med)} (each >=0.2); "
                   f"KS(n=1e4 vs 1e5) = {ks_last:.4f} (<=0.06)")


def test_criterion_07_chf_consistency_cauchy():
    fam = FamilySpec(kind="SymStable", alpha=1.0)
    checkpoint = abs(limit_chf(1.0, 0.0, 1.0, 2.0, tail_constants(fam)) - math.exp(-1.0))
    cfg = ExperimentConfig(family=fam, p=2.0, n_grid=(100_000,), reps=5000,
                           master_seed=SEED, experiment="chf_compare", workers=WORKERS)
    r = run_experiment(cfg)
    worst = [row.value for row in r.aggregates if row.statistic == "chf_abs_err_max"][0]
    ok = worst <= 0.05 and checkpoint <= 1e-6
    verdict(7, ok, f"max |empirical chf - limit chf| = {worst:.4f} over the 5x3 (u,w) grid "
                   f"(<=0.05); |chf(1,0) - 1/e| = {checkpoint:.2e} (<=1e-6)")


def test_criterion_08_reference_law_self_tests(tmp_path):
    """The exact G2-G4 laws against Brownian paths simulated here.

    20 000 paths of 1e4 steps at the canonical seed: the G2 series stays
    within 0.01 of the table at five points (the bound criterion 8 always
    had, then against 1e5 paths); each table mean lies within 3 se of the
    exact mean; and KS(table, exact law) for G3 and G4 stays below
    1.63/sqrt(20 000) = 0.0115, the 1% critical value of that distance
    when the table is drawn from the law. The tables' Riemann sums bias them
    by about 1/steps, well inside these bounds.
    """
    paths = 20_000
    tables = {kind: load_oracle(path) for kind, path in zip(
        ("G2", "G3", "G4"), build_oracles(tmp_path, paths=paths, steps=ORACLE_STEPS, seed=ORACLE_SEED))}
    xs = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
    gap = float(np.max(np.abs(g2_law().cdf(xs) - tables["G2"].cdf(xs))))
    ks_crit = 1.63 / math.sqrt(paths)
    ok = gap <= 0.01
    detail = [f"g2 series vs table gap {gap:.4f} (<=0.01)"]
    for kind, law, target in (("G3", g3_law(), 0.5),
                              ("G4", g4_law(), 2.0 / 3.0 * math.sqrt(2.0 / math.pi))):
        mean, se = tables[kind].mean_and_stderr()
        ks = ks_statistic(tables[kind].table, law)
        ok = ok and abs(mean - target) <= 3 * se and ks <= ks_crit
        detail.append(f"{kind} mean {mean:.4f} vs {target:.4f} ({abs(mean - target) / se:.1f} se, <=3), "
                      f"KS(table, exact) {ks:.4f} (<={ks_crit:.4f})")
    verdict(8, ok, "; ".join(detail))


def test_criterion_09_regime_map_trichotomy():
    grid = (0.8, 1.5, 2.0)
    base = ExperimentConfig(family=FamilySpec(kind="SymStable", alpha=2.0), p=2.0,
                            n_grid=(1000, 4000, 16000), reps=1500, master_seed=SEED,
                            experiment="degenerate_scan", epsilon=0.2, workers=WORKERS)
    _, matrix = regime_map(base, grid, grid)
    expected = {(a, p): "brownian" if (a, p) == (2.0, 2.0)
                else "not_tight" if p > a else "degenerate"
                for a in grid for p in grid}
    bad = {k: matrix[k] for k in matrix if matrix[k] != expected[k]}
    cells = "; ".join(f"({a:g},{p:g})={matrix[(a,p)]}" for a in grid for p in grid)
    verdict(9, not bad, f"{cells}" + (f" -- mismatches {bad}" if bad else ""))


def test_criterion_10_determinism_across_workers(tmp_path):
    cfg = ExperimentConfig(family=FamilySpec(kind="Gaussian"), p=2.0, n_grid=(5000,),
                           reps=2000, master_seed=SEED, experiment="ek_functionals",
                           workers=1)
    files = {}
    for workers in (1, 4):
        dest = tmp_path / f"w{workers}.json"
        write_report(run_experiment(dataclasses.replace(cfg, workers=workers)), dest)
        files[workers] = dest.read_bytes()
    ok = files[1] == files[4]
    verdict(10, ok, "criterion-2 config rerun with workers 1 and 4: report files "
                    f"byte-identical = {ok}")
