"""Monte Carlo experiment orchestration: run, aggregate, classify, report.

Reproducibility contract: the report payload is a pure function of the
configuration (excluding workers). Replication j always draws from the
per-replication stream (master_seed, j); results land in a slot array by
replication index and are aggregated in index order, so any worker count
produces identical bytes.

Each replication is drawn once per call, at the largest n, whatever the
family: every n of the grid reads its length-n prefix, and every scan that
shares the seed reads the same draw. In a regime_map that is a whole alpha
row: every p and its three scans share the row's seed, and each prefix's
p-independent reductions are computed once for all of them. One process
pool serves the whole call.
"""
from __future__ import annotations

import hashlib
import json
import math
import numbers
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._files import write_text_atomic
# modulus_of_continuity, the three ratios, y_at and load_oracle are not called
# here (the scans read the path's shared reductions, and the tightness scan
# divides the prefix's largest window ranges of N, taken once for its whole
# delta grid), but stay bound like every other layer function, so the
# benchmark's tracer (perfbench/tracing.py) finds them
from .diagnostics import (  # noqa: F401
    darling_ratio,
    max_ratio,
    modulus_of_continuity,
    sum_sq_ratio,
)
from .errors import ConfigError, MissingStatisticsError, NonFiniteSampleError, ParameterDomainError
from .families import FamilySpec, sample_family
from .limits import (  # noqa: F401
    brownian_functional_oracle,
    dispersion_matrix,
    empirical_chf,
    g1_law,
    g2_law,
    g3_law,
    g4_law,
    ks_critical_value,
    ks_statistic,
    ks_two_sample,
    limit_chf,
    load_oracle,
    save_oracle,
    tail_constants,
)
from .process import (  # noqa: F401
    ProcessPath,
    _endpoint,
    _node_oscillations,
    ek_functionals,
    y_at,
    y_path,
)
from .rng import SeededStream, derive_seed

__all__ = [
    "EXPERIMENT_KINDS",
    "REGIME_SCAN_KINDS",
    "CHF_U_GRID",
    "CHF_W_GRID",
    "ExperimentConfig",
    "AggregateRow",
    "ExperimentReport",
    "run_experiment",
    "decide_regime",
    "load_default_thresholds",
    "write_report",
    "read_report",
    "report_payload",
    "sweep",
    "regime_map",
    "build_oracles",
]

EXPERIMENT_KINDS = (
    "degenerate_scan",
    "ek_functionals",
    "fdd_covariance",
    "tightness_scan",
    "chf_compare",
)
# the three scans whose statistics feed the regime decision rules
REGIME_SCAN_KINDS = ("degenerate_scan", "tightness_scan", "ek_functionals")

CHF_U_GRID = (-2.0, -1.0, 0.0, 1.0, 2.0)
CHF_W_GRID = (0.0, 0.5, 1.0)

# canonical Brownian table build: 1e5 paths of 1e4 steps, fixed seed, one
# stream index per functional kind. The statistics compare against exact
# laws; the tables are an independent check of those laws.
ORACLE_PATHS = 100_000
ORACLE_STEPS = 10_000
ORACLE_SEED = 20260815
_ORACLE_STREAM = {"G1": 0, "G2": 1, "G3": 2, "G4": 3}


def _integral(name: str, value) -> int:
    # integral floats (1e3) and numpy integers pass; 100.7 is refused, not truncated
    try:
        as_int = int(value)
        integral = as_int == value
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return as_int


def _real(name: str, value) -> float:
    # numbers and numpy scalars pass; a string or None is refused, not parsed
    if not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _items(name: str, values) -> tuple:
    try:
        return tuple(values)
    except TypeError:
        raise ConfigError(f"{name} must be a sequence, got {values!r}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte Carlo experiment; hashable and immutable.

    Every field is checked on construction, and so is what an experiment
    needs of the family: chf_compare needs Paretian tails and p > alpha.
    """

    family: FamilySpec
    p: float
    n_grid: tuple[int, ...]
    reps: int
    master_seed: int
    experiment: str
    t_grid: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)
    epsilon: float = 0.1
    delta_grid: tuple[float, ...] = (0.5, 0.2, 0.1, 0.05)
    workers: int = 1

    def __post_init__(self):
        if not isinstance(self.family, FamilySpec):
            raise ConfigError(f"family must be a FamilySpec, got {type(self.family).__name__}")
        object.__setattr__(self, "p", _real("p", self.p))
        if not 0.0 < self.p <= 2.0:
            raise ConfigError(f"p must lie in (0, 2], got {self.p}")
        ns = tuple(_integral("n_grid", n) for n in _items("n_grid", self.n_grid))
        if len(ns) == 0:
            raise ConfigError("n_grid must be nonempty")
        if any(n < 1 for n in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
            raise ConfigError(f"n_grid must be increasing positive integers, got {ns}")
        object.__setattr__(self, "n_grid", ns)
        object.__setattr__(self, "reps", _integral("reps", self.reps))
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")
        object.__setattr__(self, "master_seed", _integral("master_seed", self.master_seed))
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed}")
        if self.experiment not in EXPERIMENT_KINDS:
            raise ConfigError(f"experiment must be one of {EXPERIMENT_KINDS}, got {self.experiment!r}")
        if self.experiment == "fdd_covariance" and self.reps < 2:
            raise ConfigError(f"fdd_covariance estimates covariances and needs reps >= 2, got {self.reps}")
        if self.experiment == "chf_compare":
            tail_constants(self.family)  # rejects light-tailed families
            if not self.p > self.family.alpha:
                raise ParameterDomainError(
                    f"chf_compare needs p > alpha, got p={self.p}, alpha={self.family.alpha}")
        ts = tuple(_real("t_grid", t) for t in _items("t_grid", self.t_grid))
        if len(ts) == 0 or any(not 0.0 < t <= 1.0 for t in ts) or any(b <= a for a, b in zip(ts, ts[1:])):
            raise ConfigError(f"t_grid must be increasing reals in (0, 1], got {ts}")
        object.__setattr__(self, "t_grid", ts)
        object.__setattr__(self, "epsilon", _real("epsilon", self.epsilon))
        if not self.epsilon > 0.0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        ds = tuple(_real("delta_grid", d) for d in _items("delta_grid", self.delta_grid))
        if len(ds) == 0 or any(not 0.0 < d <= 1.0 for d in ds):
            raise ConfigError(f"delta_grid must be reals in (0, 1], got {ds}")
        object.__setattr__(self, "delta_grid", ds)
        object.__setattr__(self, "workers", _integral("workers", self.workers))
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class AggregateRow:
    """One per-(n, statistic) aggregate with its Monte Carlo context."""

    n: int
    statistic: str
    value: float
    stderr: float | None
    reps: int

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "value", float(self.value))
        if self.stderr is not None:
            object.__setattr__(self, "stderr", float(self.stderr))
        object.__setattr__(self, "reps", int(self.reps))


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregates plus the regime decision for one configuration."""

    config: ExperimentConfig
    run_id: str
    aggregates: tuple[AggregateRow, ...]
    regime_decision: str
    draw_count: int
    """reps x sum(n_grid): the variates the statistics read, not the variates
    drawn (each replication is drawn once, at the largest n). The benchmark's
    `draws_per_cpu_s` reads it."""


def _config_payload(config: ExperimentConfig) -> dict:
    # workers deliberately excluded: the payload (and hence run_id) must be
    # identical for any worker count
    return {
        "family": {
            "kind": config.family.kind,
            "alpha": float(config.family.alpha),
            "scale": float(config.family.scale),
        },
        "p": config.p,
        "n_grid": list(config.n_grid),
        "reps": config.reps,
        "master_seed": config.master_seed,
        "experiment": config.experiment,
        "t_grid": list(config.t_grid),
        "epsilon": config.epsilon,
        "delta_grid": list(config.delta_grid),
    }


def _run_id(config: ExperimentConfig) -> str:
    blob = json.dumps(_config_payload(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def report_payload(report: ExperimentReport) -> dict:
    """JSON-ready dict; workers excluded so identical runs are byte-identical."""
    return {
        "run_id": report.run_id,
        "config": _config_payload(report.config),
        "regime_decision": report.regime_decision,
        "draw_count": report.draw_count,
        "aggregates": [
            {
                "n": row.n,
                "statistic": row.statistic,
                "value": row.value,
                "stderr": row.stderr,
                "reps": row.reps,
            }
            for row in report.aggregates
        ],
    }


# ---------------------------------------------------------------------------
# per-replication kernel
#
# A cell is a tuple of configs that differ only in `experiment` and `p`: the
# scans run on the same replications (a regime_map cell is a whole alpha row,
# every p with its three scans). Replication j of a cell is drawn once, from
# SeededStream(master_seed, j) at the largest n, and every n reads its
# length-n prefix, for every family: as in the paper, each Y_{n,p} is built
# from the first n terms of one i.i.d. sequence, and only its normalizer
# V_{n,p} depends on p. Every scan of the cell is computed on each prefix,
# from one ProcessPath per p: the scans read its reductions, each computed
# once per prefix whichever scans and p ask for it, and the paths at the
# other p share (`ProcessPath.at_p`) all of them but V_{n,p}. These are the
# prefix sums, the rescaled sample's power sums, the numerator N = V Y on the
# node grid, the largest window range of N for each delta, and max S_k,
# max |S_k| and |S_k|. Per p, a scan divides only what it reads by V: the
# endpoint N(1), one range per delta, and |S_k| for the EK means.

def _scan_stats(config: ExperimentConfig, x: np.ndarray, path) -> tuple[float, ...]:
    kind = config.experiment
    if kind == "degenerate_scan":
        # a tail index above 2 (StudentT, SymPareto) puts the family in DA(2)
        return (_endpoint(path), path.rescaled.sum_sq_ratio(min(config.family.alpha, 2.0)))
    if kind == "ek_functionals":
        ek = ek_functionals(path)
        return (ek.max_sn, ek.max_abs_sn, ek.mean_sq, ek.mean_abs)
    if kind == "fdd_covariance":
        return tuple(float(v) for v in y_path(path, config.t_grid))
    if kind == "tightness_scan":
        # one window pass over the shared numerator serves every delta and p
        oms = _node_oscillations(path, config.delta_grid)
        return (path.rescaled.darling_ratio(), path.rescaled.max_ratio(config.p), *oms)
    # chf_compare: the pair (S_n / n^{1/a}, V^p / n^{p/a}), scaled before
    # summing so heavy-tailed powers cannot overflow; |xs|^p is taken in
    # place on the one scaled copy (the same ufuncs as np.abs(xs) ** p), and
    # each sum runs over a whole array, so neither reduction order changes
    xs = x / float(x.size) ** (1.0 / config.family.alpha)
    s = float(np.sum(xs))
    np.abs(xs, out=xs)
    xs **= config.p
    return (s, float(np.sum(xs)))


def _rep_stats(cell: tuple[ExperimentConfig, ...], rep: int) -> list[list[tuple[float, ...]]]:
    """Statistics of one replication, indexed [n][scan]."""
    config = cell[0]
    full = sample_family(config.family, SeededStream(config.master_seed, rep), config.n_grid[-1])
    if not np.isfinite(full).all():
        # name the smallest n whose prefix holds the first non-finite draw
        first = int(np.argmin(np.isfinite(full)))
        raise _non_finite(config, rep, next(n for n in config.n_grid if n > first), "draw")
    # every scan but chf_compare reads the path Y_{n,p}
    path_ps = list(dict.fromkeys(c.p for c in cell if c.experiment != "chf_compare"))
    out = []
    for n in config.n_grid:
        x = full[:n]
        paths: dict[float, ProcessPath] = {}
        for p in path_ps:
            paths[p] = paths[path_ps[0]].at_p(p) if paths else ProcessPath(x, p)
        stats = [_scan_stats(c, x, paths.get(c.p)) for c in cell]
        bad = [c.experiment for c, row in zip(cell, stats) if not all(map(math.isfinite, row))]
        if bad:
            raise _non_finite(config, rep, n, f"statistic in {', '.join(bad)}")
        out.append(stats)
    return out


def _non_finite(config: ExperimentConfig, rep: int, n: int, what: str) -> NonFiniteSampleError:
    return NonFiniteSampleError(
        f"replication {rep} at n={n} ({config.family.kind}, alpha={config.family.alpha:g}, "
        f"seed {config.master_seed}): non-finite {what}")


def _block_stats(cell: tuple[ExperimentConfig, ...], lo: int, hi: int) -> list[list[np.ndarray]]:
    """Replications lo..hi-1 as [scan][n] -> (hi - lo, statistics) arrays.

    Each replication's statistics are stored as soon as they are computed,
    so a block never holds them as Python floats, and a pool worker sends
    back arrays.
    """
    out: list[list[np.ndarray]] = []
    for i, rep in enumerate(range(lo, hi)):
        stats = _rep_stats(cell, rep)
        if not out:
            out = [[np.empty((hi - lo, len(row[k]))) for row in stats] for k in range(len(cell))]
        for j, row in enumerate(stats):
            for k, values in enumerate(row):
                out[k][j][i] = values
    return out


def _cell_slots(cells: list[tuple[ExperimentConfig, ...]]) -> list[list[list[np.ndarray]]]:
    """Replication statistics as [cell][scan][n] -> (reps, statistics) arrays.

    The cells of one call share reps and workers; one process pool serves
    them all, each cell split into one contiguous block of replications per
    worker, and a cell's blocks are joined in replication order.
    """
    reps, workers = cells[0][0].reps, cells[0][0].workers
    if workers == 1 or reps < 2 * workers:
        return [_block_stats(cell, 0, reps) for cell in cells]
    bounds = [round(i * reps / workers) for i in range(workers + 1)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = [[pool.submit(_block_stats, cell, lo, hi)
                    for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
                   for cell in cells]
        out = []
        try:
            for index, cell in enumerate(cells):
                futures, pending[index] = pending[index], None  # a read future holds its arrays
                blocks = [fut.result() for fut in futures]  # each [scan][n]
                out.append([[np.concatenate(parts) for parts in zip(*scan)]
                            for scan in zip(*blocks)])
        except BaseException:
            # one failed block fails the call: drop the blocks not yet started
            pool.shutdown(cancel_futures=True)
            raise
    return out


# ---------------------------------------------------------------------------
# aggregation


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    se = float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0
    return float(x.mean()), se


def _median_se(x: np.ndarray) -> tuple[float, float]:
    # 1.2533 sd/sqrt(reps): asymptotic normal-theory median standard error
    se = float(1.2533 * x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0
    return float(np.median(x)), se


def _binom_se(phat: float, reps: int) -> float:
    return math.sqrt(phat * (1.0 - phat) / reps)


def _ks_crit(reps: int) -> float:
    # asymptotic 5% one-sample critical value, annotated for context
    return 1.36 / math.sqrt(reps)


def _aggregate_rows(config: ExperimentConfig, n: int, slots: np.ndarray,
                    prev: np.ndarray | None) -> list[AggregateRow]:
    # prev: the previous n's slots (None at the first n), for the lagged KS rows
    reps = config.reps
    kind = config.experiment
    rows: list[AggregateRow] = []

    def add(stat: str, value: float, stderr: float | None):
        rows.append(AggregateRow(n=n, statistic=stat, value=value, stderr=stderr, reps=reps))

    if kind == "degenerate_scan":
        snv, ssr = slots[:, 0], slots[:, 1]
        add("mean_sq_self_norm", *_mean_se(snv * snv))
        phat = float(np.mean(np.abs(snv) > config.epsilon))
        add("exceedance", phat, _binom_se(phat, reps))
        add("mean_sum_sq_ratio", *_mean_se(ssr))
    elif kind == "ek_functionals":
        laws = (g1_law(), g2_law(), g3_law(), g4_law())
        names = ("ks_max_g1", "ks_max_abs_g2", "ks_mean_sq_g3", "ks_mean_abs_g4")
        for col, (name, law) in enumerate(zip(names, laws)):
            add(name, ks_statistic(slots[:, col], law), _ks_crit(reps))
    elif kind == "fdd_covariance":
        disp = dispersion_matrix(config.t_grid)
        centered = slots - slots.mean(axis=0)
        emp = centered.T @ centered / (reps - 1)
        for i, ti in enumerate(config.t_grid):
            for j in range(i, len(config.t_grid)):
                tj = config.t_grid[j]
                prod = centered[:, i] * centered[:, j]
                se = float(prod.std(ddof=1) / math.sqrt(reps))
                add(f"cov_t{ti:g}_t{tj:g}", float(emp[i, j]), se)
        add("cov_dev_max", float(np.abs(emp - disp).max()), None)
    elif kind == "tightness_scan":
        add("darling_median", *_median_se(slots[:, 0]))
        add("mr_median", *_median_se(slots[:, 1]))
        for col, delta in enumerate(config.delta_grid):
            phat = float(np.mean(slots[:, 2 + col] > config.epsilon))
            add(f"omega_exceed_d{delta:g}", phat, _binom_se(phat, reps))
        if prev is not None:
            ks_se = _ks_crit(reps) * math.sqrt(2.0)
            add("darling_ks_prev", ks_two_sample(prev[:, 0], slots[:, 0]), ks_se)
            add("mr_ks_prev", ks_two_sample(prev[:, 1], slots[:, 1]), ks_se)
    else:  # chf_compare
        tails = tail_constants(config.family)
        alpha = config.family.alpha
        worst = 0.0
        for u in CHF_U_GRID:
            for w in CHF_W_GRID:
                emp = empirical_chf(slots, (u, w))
                theory = limit_chf(u, w, alpha, config.p, tails)
                err = abs(emp - theory)
                worst = max(worst, err)
                add(f"chf_abs_err_u{u:g}_w{w:g}", err, 1.0 / math.sqrt(reps))
        add("chf_abs_err_max", worst, None)
    return rows


def _report(config: ExperimentConfig, slots: list[np.ndarray], thresholds: dict) -> ExperimentReport:
    rows = [row for n, n_slots, prev in zip(config.n_grid, slots, [None, *slots])
            for row in _aggregate_rows(config, n, n_slots, prev)]
    if config.experiment in REGIME_SCAN_KINDS:
        decision = decide_regime(rows, thresholds)
    else:
        decision = "inconclusive"
    return ExperimentReport(
        config=config,
        run_id=_run_id(config),
        aggregates=tuple(rows),
        regime_decision=decision,
        draw_count=config.reps * sum(config.n_grid),
    )


def _run_cells(cells: list[tuple[ExperimentConfig, ...]],
               thresholds: dict | None) -> list[list[ExperimentReport]]:
    """Sample once per replication, aggregate: one report per (cell, scan)."""
    if thresholds is None:
        thresholds = load_default_thresholds()
    slots = _cell_slots(cells)
    return [[_report(c, s, thresholds) for c, s in zip(cell, cell_slots)]
            for cell, cell_slots in zip(cells, slots)]


def run_experiment(config: ExperimentConfig, thresholds: dict | None = None,
                   oracle_dir=None) -> ExperimentReport:
    """Run reps x n_grid replications and aggregate per the experiment kind.

    `oracle_dir` is ignored: every reference law is exact and needs no file.
    It stays only because the benchmark's workloads still pass it; the
    benchmark change that the ROADMAP lists stops passing it, and then it
    goes.
    """
    return _run_cells([(config,)], thresholds)[0][0]


# ---------------------------------------------------------------------------
# regime decision


def load_default_thresholds() -> dict:
    text = resources.files("selfnorm").joinpath("data/regime_thresholds.json").read_text()
    return json.loads(text)


def _validate_thresholds(th: dict) -> None:
    required = ("exceedance_final_max", "exceedance_slack_se", "mr_median_min",
                "mr_stability_ks_max", "ek_ks_max", "ek_family_level", "splits")
    missing = [k for k in required if k not in th]
    if missing:
        raise ConfigError(f"thresholds missing keys: {missing}")
    level = th["ek_family_level"]
    if not (isinstance(level, numbers.Real) and 0.0 < level < 1.0):
        raise ConfigError(f"ek_family_level must lie in (0, 1), got {level!r}")
    splits = th["splits"]
    if "mr" not in splits or "exceedance" not in splits:
        raise ConfigError("thresholds splits must define 'mr' and 'exceedance'")
    # structural split constants keep the three rules pairwise disjoint, so
    # tightening any threshold can only move decisions toward inconclusive
    if th["exceedance_final_max"] > splits["exceedance"]:
        raise ConfigError("exceedance_final_max must not exceed splits.exceedance")
    if th["mr_median_min"] < splits["mr"]:
        raise ConfigError("mr_median_min must be at least splits.mr")


def _series(rows, statistic: str) -> list[AggregateRow]:
    return sorted((r for r in rows if r.statistic == statistic), key=lambda r: r.n)


class _Clause(NamedTuple):
    """One test of a decision rule, `value comparison bound`, and whether it passed."""

    label: str
    statistic: str
    value: float
    comparison: str
    bound: float
    passed: bool


_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_EK_STATISTICS = ("ks_max_g1", "ks_max_abs_g2", "ks_mean_sq_g3", "ks_mean_abs_g4")


def _decide(aggregates, thresholds: dict) -> tuple[str, list[_Clause]]:
    """The label and the table of clauses, rule by rule, it was decided from.

    A clause enters the table when the statistics it reads are present. A label is a
    candidate when its rule's own statistics are present, and holds when all its clauses pass.
    """
    _validate_thresholds(thresholds)
    rows = list(aggregates)
    exc, mr, mr_ks = (_series(rows, name) for name in ("exceedance", "mr_median", "mr_ks_prev"))
    ek = [r for name in _EK_STATISTICS for r in _series(rows, name)]
    candidates = {"degenerate": bool(exc), "not_tight": len(mr) >= 2 and bool(mr_ks), "brownian": bool(ek)}
    table = []
    for a, b in zip(exc, exc[1:]):
        # fl(x - y) has the sign of x - y, so this decides exactly as b <= a + slack
        slack = thresholds["exceedance_slack_se"] * math.hypot(a.stderr or 0.0, b.stderr or 0.0)
        table.append(("degenerate", f"exceedance_rise_n{b.n}", b.value - (a.value + slack), "<=", 0.0))
    if exc:
        table.append(("degenerate", "exceedance", exc[-1].value, "<=", thresholds["exceedance_final_max"]))
    if mr:
        table.append(("degenerate", "mr_median", mr[-1].value, "<", thresholds["splits"]["mr"]))
    if candidates["not_tight"]:
        table.append(("not_tight", "mr_ks_prev", mr_ks[-1].value, "<=", thresholds["mr_stability_ks_max"]))
        table.append(("not_tight", "mr_median_last_two_min", min(mr[-1].value, mr[-2].value), ">=",
                      thresholds["mr_median_min"]))
    if ek:
        # the Bonferroni critical value of the m distances passes whatever KS noise
        # cannot reject, so it widens ek_ks_max only where both guards are present
        bound = thresholds["ek_ks_max"]
        if mr and exc:
            level = thresholds["ek_family_level"] / len(ek)
            bound = max(bound, ks_critical_value(min(r.reps for r in ek), level))
        table.append(("brownian", "ek_ks_largest", max(r.value for r in ek), "<=", bound))
    if mr:
        table.append(("brownian", "mr_median", mr[-1].value, "<", thresholds["splits"]["mr"]))
    if exc:
        table.append(("brownian", "exceedance", exc[-1].value, ">", thresholds["splits"]["exceedance"]))
    if not table:
        raise MissingStatisticsError("no exceedance, max-ratio, or path-functional statistics to decide from")
    table = [_Clause(*c, _COMPARE[c[3]](c[2], c[4])) for c in table]
    held = [label for label, present in candidates.items()
            if present and all(c.passed for c in table if c.label == label)]
    return (held[0] if len(held) == 1 else "inconclusive"), table


def decide_regime(aggregates, thresholds: dict) -> str:
    """Classify aggregates as degenerate / brownian / not_tight / inconclusive (`_decide`'s label)."""
    return _decide(aggregates, thresholds)[0]


# ---------------------------------------------------------------------------
# reports on disk


def _fmt(x) -> str:
    if x is None:
        return ""
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be written to a report")
    return repr(float(x))


def write_report(report: ExperimentReport, format: str, path) -> None:
    """CSV (one row per (n, statistic)) or JSON (full payload), byte-deterministic.

    A non-finite value raises ValueError instead of being written; the file
    is replaced atomically, so a failed write leaves any previous file whole.
    """
    if format not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {format!r}")
    if format == "json":
        text = json.dumps(report_payload(report), sort_keys=True, separators=(",", ":"),
                          allow_nan=False) + "\n"
    else:
        cfg = report.config
        header = "run_id,experiment,family,alpha,p,n,statistic,value,stderr,reps,seed"
        lines = [header]
        for row in report.aggregates:
            lines.append(",".join((
                report.run_id, cfg.experiment, cfg.family.kind,
                _fmt(cfg.family.alpha), _fmt(cfg.p), str(row.n), row.statistic,
                _fmt(row.value), _fmt(row.stderr), str(row.reps), str(cfg.master_seed),
            )))
        text = "\n".join(lines) + "\n"
    try:
        write_text_atomic(path, text)
    except OSError as exc:
        raise OSError(f"failed to write report to {path}: {exc}") from exc


def read_report(path) -> ExperimentReport:
    """Rebuild a report from its JSON payload (workers defaults to 1).

    A file that cannot be read raises OSError. One that is not a report
    payload, or whose run_id, label or draw count is not what its own config
    gives, raises ConfigError: the run_id is the config's hash, a regime
    scan's label one of the four, any other scan's inconclusive, and the
    draw count reps x sum(n_grid).
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise OSError(f"failed to read report from {path}: {exc}") from exc
    try:
        payload = json.loads(data)
        cfg = payload["config"]
        config = ExperimentConfig(
            family=FamilySpec(kind=cfg["family"]["kind"], alpha=cfg["family"]["alpha"],
                              scale=cfg["family"]["scale"]),
            p=cfg["p"], n_grid=tuple(cfg["n_grid"]), reps=cfg["reps"],
            master_seed=cfg["master_seed"], experiment=cfg["experiment"],
            t_grid=tuple(cfg["t_grid"]), epsilon=cfg["epsilon"],
            delta_grid=tuple(cfg["delta_grid"]),
        )
        rows = tuple(
            AggregateRow(n=r["n"], statistic=r["statistic"], value=r["value"],
                         stderr=r["stderr"], reps=r["reps"])
            for r in payload["aggregates"])
        report = ExperimentReport(
            config=config, run_id=payload["run_id"], aggregates=rows,
            regime_decision=payload["regime_decision"], draw_count=payload["draw_count"],
        )
    except (ValueError, KeyError, TypeError) as exc:  # a JSON or UTF-8 decode error is a ValueError
        raise ConfigError(f"{path} is not a report payload: {exc!r}") from exc
    if report.run_id != _run_id(config):
        raise ConfigError(f"{path}: run_id {report.run_id!r} is not the hash of its config "
                          f"({_run_id(config)!r})")
    labels = ("degenerate", "brownian", "not_tight", "inconclusive")
    if config.experiment not in REGIME_SCAN_KINDS:
        labels = ("inconclusive",)
    if report.regime_decision not in labels:
        raise ConfigError(f"{path}: regime_decision {report.regime_decision!r} of a "
                          f"{config.experiment} report is not one of {labels}")
    draws = config.reps * sum(config.n_grid)
    if type(report.draw_count) is not int or report.draw_count != draws:
        raise ConfigError(f"{path}: draw_count {report.draw_count!r} is not reps x sum(n_grid) = {draws}")
    return report


# ---------------------------------------------------------------------------
# sweeps


def _cell_config(base: ExperimentConfig, alpha: float, p: float, seed: int,
                 experiment: str | None = None) -> ExperimentConfig:
    fam = FamilySpec(kind=base.family.kind, alpha=alpha, scale=base.family.scale)
    return replace(base, family=fam, p=p, master_seed=seed,
                   experiment=experiment or base.experiment)


def _grid(alpha_list, p_list) -> tuple[tuple[float, ...], tuple[float, ...]]:
    alphas = tuple(float(a) for a in alpha_list)
    ps = tuple(float(p) for p in p_list)
    if not alphas or not ps:
        raise ConfigError("alpha_list and p_list must be nonempty")
    for name, values in (("alpha_list", alphas), ("p_list", ps)):
        if len(set(values)) < len(values):
            raise ConfigError(f"{name} repeats a value: {values}")
    return alphas, ps


def sweep(base: ExperimentConfig, alpha_list, p_list,
          thresholds: dict | None = None) -> tuple[ExperimentReport, ...]:
    """Cartesian product of runs; cell seeds derived from the base seed and index."""
    alphas, ps = _grid(alpha_list, p_list)
    cells = [(_cell_config(base, alpha, p, derive_seed(base.master_seed, idx)),)
             for idx, (alpha, p) in enumerate((a, p) for a in alphas for p in ps)]
    return tuple(r for (r,) in _run_cells(cells, thresholds))


def regime_map(base: ExperimentConfig, alpha_list, p_list, thresholds: dict | None = None,
               oracle_dir=None) -> tuple[tuple[ExperimentReport, ...], dict]:
    """Run all three regime scans per (alpha, p) on shared replications and classify jointly.

    Every p of an alpha row, with its three scans, uses the row seed
    derive_seed(base seed, i * len(p_list)) for the i-th alpha, so the whole
    row reads the same draws: each replication is drawn once and feeds every
    p, and each prefix's sums and rescale serve them all. Each report still
    equals `run_experiment(report.config)` byte for byte. Returns (reports,
    matrix): the reports in (alpha, p, scan) order, and matrix[(alpha, p)] in
    {degenerate, brownian, not_tight, inconclusive}. `oracle_dir` is
    ignored, as in `run_experiment`.
    """
    alphas, ps = _grid(alpha_list, p_list)
    if thresholds is None:
        thresholds = load_default_thresholds()
    rows = [tuple(_cell_config(base, alpha, p, derive_seed(base.master_seed, i * len(ps)), kind)
                  for p in ps for kind in REGIME_SCAN_KINDS)
            for i, alpha in enumerate(alphas)]
    reports = [r for row in _run_cells(rows, thresholds) for r in row]
    scans = len(REGIME_SCAN_KINDS)
    matrix = {(alpha, p): decide_regime([row for r in reports[k * scans:(k + 1) * scans]
                                         for row in r.aggregates], thresholds)
              for k, (alpha, p) in enumerate((a, p) for a in alphas for p in ps)}
    return tuple(reports), matrix


# ---------------------------------------------------------------------------
# simulated Brownian-functional tables


def build_oracles(out_dir, kinds=("G2", "G3", "G4"), paths: int = ORACLE_PATHS,
                  steps: int = ORACLE_STEPS, seed: int = ORACLE_SEED) -> list[Path]:
    """Simulate the Brownian functional tables into out_dir; returns written paths.

    No run reads these tables: the statistics compare against the exact laws
    `g1_law` to `g4_law`, and the tables are an independent check of them.
    G1 is not built by default; pass it in `kinds` to build its table anyway.
    Every argument is checked, the seed by building its streams, before the
    output directory is created.
    """
    unknown = [kind for kind in kinds if kind not in _ORACLE_STREAM]
    if unknown:
        raise ParameterDomainError(f"oracle kinds must be among {tuple(_ORACLE_STREAM)}, got {unknown}")
    if paths < 1 or steps < 1:
        raise ParameterDomainError("paths and steps must be >= 1")
    streams = [(kind, SeededStream(seed, _ORACLE_STREAM[kind])) for kind in kinds]
    base = Path(out_dir)
    base.mkdir(parents=True, exist_ok=True)
    written = []
    for kind, stream in streams:
        law = brownian_functional_oracle(kind, paths, steps, stream)
        dest = base / f"{kind.lower()}_oracle.txt"
        save_oracle(law, dest)
        written.append(dest)
    return written
