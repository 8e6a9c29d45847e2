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
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._files import write_text_atomic
# modulus_of_continuity, the three ratios, y_at and load_oracle are not called
# here (the scans read the path's shared reductions), but stay bound like
# every other layer function, so the benchmark's tracer (perfbench/tracing.py)
# finds them
from .diagnostics import (  # noqa: F401
    darling_ratio,
    max_ratio,
    modulus_of_continuity,
    sum_sq_ratio,
)
from .errors import ConfigError, MissingStatisticsError, NonFiniteSampleError, ParameterDomainError
# sample_family is not called here (each worker block draws over buffers it
# owns, `_sample_into`), but stays bound for the benchmark's tracer
from .families import FamilySpec, _sample_into, _scratch_size, sample_family  # noqa: F401
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
    "FDD_T_GRID",
    "ExperimentConfig",
    "AggregateRow",
    "ExperimentReport",
    "run_experiment",
    "decide_regime",
    "load_default_thresholds",
    "write_report",
    "read_report",
    "report_payload",
    "regime_map",
    "build_oracles",
]

# the kinds whose rows feed the regime rules, in regime_map's report order
REGIME_SCAN_KINDS = ("degenerate_scan", "tightness_scan", "ek_functionals")

CHF_U_GRID = (-2.0, -1.0, 0.0, 1.0, 2.0)
CHF_W_GRID = (0.0, 0.5, 1.0)
# the times at which fdd_covariance reads Y_{n,p} and the dispersion min(s, t)
FDD_T_GRID = (0.25, 0.5, 0.75, 1.0)
# the KS distances of the four path functionals to their laws G1..G4
_EK_STATISTICS = ("ks_max_g1", "ks_max_abs_g2", "ks_mean_sq_g3", "ks_mean_abs_g4")

# canonical Brownian table build: 1e5 paths of 1e4 steps, fixed seed, one
# stream index per functional kind. The statistics compare against exact
# laws; the tables are an independent check of those laws.
ORACLE_PATHS = 100_000
ORACLE_STEPS = 10_000
ORACLE_SEED = 20260815
_ORACLE_STREAM = {"G1": 0, "G2": 1, "G3": 2, "G4": 3}


def _integral(name: str, value) -> int:
    # integral floats (1e3) and numpy integers pass; 100.7 is refused, not
    # truncated, and a bool is refused, not read as 0 or 1
    try:
        as_int = int(value)
        integral = as_int == value and not isinstance(value, (bool, np.bool_))
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return as_int


def _real(name: str, value) -> float:
    # numbers and numpy scalars pass; a string, bool or None is refused, not parsed
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _items(name: str, values) -> tuple:
    try:
        if isinstance(values, str):  # a sequence of characters, not of values
            raise TypeError
        return tuple(values)
    except TypeError:
        raise ConfigError(f"{name} must be a sequence, got {values!r}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte Carlo experiment; hashable and immutable.

    Every field is checked on construction, and then what the experiment
    kind needs of them (its `_Kind.check`).
    """

    family: FamilySpec
    p: float
    n_grid: tuple[int, ...]
    reps: int
    master_seed: int
    experiment: str
    epsilon: float = 0.1
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
        object.__setattr__(self, "epsilon", _real("epsilon", self.epsilon))
        if not 0.0 < self.epsilon < math.inf:  # JSON holds no infinity
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        object.__setattr__(self, "workers", _integral("workers", self.workers))
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        _KINDS[self.experiment].check(self)


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


# The report format is the fields of ExperimentReport, ExperimentConfig,
# FamilySpec and AggregateRow, less workers: the payload (and hence run_id)
# must be identical for any worker count. `report_payload` writes it and
# `read_report` reads it back through the same dataclasses.


def _config_payload(config: ExperimentConfig) -> dict:
    payload = asdict(config)
    del payload["workers"]
    return payload


def _canonical_json(value) -> str:
    # sorted keys, no spaces, and no NaN or infinity, which JSON cannot hold
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _run_id(config: ExperimentConfig) -> str:
    return hashlib.sha256(_canonical_json(_config_payload(config)).encode()).hexdigest()[:12]


def report_payload(report: ExperimentReport) -> dict:
    """JSON-ready dict; workers excluded so identical runs are byte-identical."""
    return {**asdict(report), "config": _config_payload(report.config)}


# ---------------------------------------------------------------------------
# per-replication kernel
#
# A cell is a tuple of configs that differ only in `experiment` and `p`: the
# scans run on the same replications (a regime_map cell is a whole alpha row,
# every p with its three scans). Replication j of a cell is drawn once, from
# SeededStream(master_seed, j) at the largest n, over the draw buffer of its
# worker block, and every n reads its length-n prefix, for every family: as
# in the paper, each Y_{n,p} is built from the first n terms of one i.i.d.
# sequence, and only its normalizer V_{n,p} depends on p. Every scan of the
# cell is computed on each prefix, from one ProcessPath per p: the scans
# read its reductions, each computed once per prefix whichever scans and p
# ask for it, and the paths at the other p share (`ProcessPath.at_p`) all of
# them but V_{n,p}. These are the prefix sums S_k, which are V Y on the node
# grid k/n, the rescaled sample's power sums, and max S_k, max |S_k| and
# |S_k|. Per p, a scan divides only what it reads by V: the endpoint S_n, and
# |S_k| for the EK means.
#
# Every replication of a worker block draws over the block's draw buffer,
# and in a chf_compare cell scales over its scaled buffer, which also holds
# the sampler's block temporaries while it draws. When each replication
# allocated its own draw and scaled copy, the allocator gave their pages
# back to the kernel on every free, and a replication at n = 1e5 took about
# 360 minor page faults to refault them.

def _rep_stats(cell: tuple[ExperimentConfig, ...], rep: int, full: np.ndarray,
               scaled: np.ndarray | None) -> list[list[tuple[float, ...]]]:
    """Statistics of one replication, drawn over `full`, indexed [n][scan]."""
    config = cell[0]
    _sample_into(config.family, SeededStream(config.master_seed, rep), full, scaled)
    if not np.isfinite(full).all():
        # name the smallest n whose prefix holds the first non-finite draw
        first = int(np.argmin(np.isfinite(full)))
        raise _non_finite(config, rep, next(n for n in config.n_grid if n > first), "draw")
    kinds = [_KINDS[c.experiment] for c in cell]
    path_ps = list(dict.fromkeys(c.p for c, kind in zip(cell, kinds) if kind.path))
    out = []
    for n in config.n_grid:
        x = full[:n]
        paths: dict[float, ProcessPath] = {}
        for p in path_ps:
            paths[p] = paths[path_ps[0]].at_p(p) if paths else ProcessPath(x, p)
        stats = [kind.stats(c, x, paths.get(c.p), scaled) for c, kind in zip(cell, kinds)]
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
    # the buffers every replication of the block writes over (see the kernel
    # comment above). No ProcessPath may outlive its replication: its
    # `values` are a view of `full`. A cell whose kinds all read the path
    # owns no scaled buffer: there the sampler frees its scratch before the
    # scans run, and they reuse that memory while it is still in cache.
    n = cell[0].n_grid[-1]
    full = np.empty(n)
    scaled = None if all(_KINDS[c.experiment].path for c in cell) else np.empty(max(n, _scratch_size(n)))
    out: list[list[np.ndarray]] = []
    for i, rep in enumerate(range(lo, hi)):
        stats = _rep_stats(cell, rep, full, scaled)
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
# experiment kinds and aggregation
#
# The harness knows a kind only by its record in `_KINDS`. Its functions
# look the layer functions up when called, so the benchmark's tracer
# (perfbench/tracing.py), which rebinds those names here, sees every call.


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    se = float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0
    return float(x.mean()), se


def _median_se(x: np.ndarray) -> tuple[float, float]:
    # 1.2533 sd/sqrt(reps): asymptotic normal-theory median standard error
    se = float(1.2533 * x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0
    return float(np.median(x)), se


def _proportion_se(hits: np.ndarray) -> tuple[float, float]:
    phat = float(np.mean(hits))
    return phat, math.sqrt(phat * (1.0 - phat) / hits.size)


def _ks_crit(reps: int) -> float:
    # asymptotic 5% one-sample critical value, annotated for context
    return 1.36 / math.sqrt(reps)


class _Kind(NamedTuple):
    """One experiment kind: its statistics, its rows and its check."""

    stats: Callable  # (config, x, path, scaled): one replication's values at one n
    rows: Callable  # (config, lagged): one n's row names; lagged is false at the first n
    aggregate: Callable  # (config, slots, prev): the (value, stderr) of each row, in `rows` order
    check: Callable  # (config): what the kind needs of a config whose fields are checked
    path: bool  # reads the ProcessPath; false: reads the scaled buffer instead


def _fdd_aggregate(config, slots, prev):
    reps, k = config.reps, len(FDD_T_GRID)
    centered = slots - slots.mean(axis=0)
    emp = centered.T @ centered / (reps - 1)
    values = [(float(emp[i, j]), float((centered[:, i] * centered[:, j]).std(ddof=1) / math.sqrt(reps)))
              for i in range(k) for j in range(i, k)]
    return [*values, (float(np.abs(emp - dispersion_matrix(FDD_T_GRID)).max()), None)]


def _fdd_check(config):
    if config.reps < 2:
        raise ConfigError(f"{config.experiment} estimates covariances and needs reps >= 2, got {config.reps}")


def _tightness_aggregate(config, slots, prev):
    values = [_median_se(slots[:, 0]), _median_se(slots[:, 1])]
    if prev is not None:
        ks_se = _ks_crit(config.reps) * math.sqrt(2.0)
        values += [(ks_two_sample(prev[:, col], slots[:, col]), ks_se) for col in (0, 1)]
    return values


def _chf_stats(config, x, path, scaled):
    # the pair (S_n / n^{1/a}, V^p / n^{p/a}), scaled before summing so
    # heavy-tailed powers cannot overflow. The scaled sample goes to the
    # block's scaled buffer, never over the draw, whose longer prefixes the
    # next n reads; |xs|^p is taken in place there (the same ufuncs as
    # np.abs(xs) ** p), and each sum runs over a whole contiguous array, so
    # neither reduction order changes
    xs = np.divide(x, float(x.size) ** (1.0 / config.family.alpha), out=scaled[:x.size])
    s = float(np.sum(xs))
    np.abs(xs, out=xs)
    xs **= config.p
    return (s, float(np.sum(xs)))


def _chf_aggregate(config, slots, prev):
    tails = tail_constants(config.family)
    values = [(abs(empirical_chf(slots, (u, w)) - limit_chf(u, w, config.family.alpha, config.p, tails)),
               1.0 / math.sqrt(config.reps))
              for u in CHF_U_GRID for w in CHF_W_GRID]
    return [*values, (max(err for err, _ in values), None)]


def _chf_check(config):
    tail_constants(config.family)  # rejects light-tailed families
    if not config.p > config.family.alpha:
        raise ParameterDomainError(
            f"{config.experiment} needs p > alpha, got p={config.p}, alpha={config.family.alpha}")


_KINDS: dict[str, _Kind] = {
    "degenerate_scan": _Kind(
        stats=lambda config, x, path, scaled: (_endpoint(path),),
        rows=lambda config, lagged: ["mean_sq_self_norm", "exceedance"],
        aggregate=lambda config, slots, prev: [_mean_se(slots[:, 0] * slots[:, 0]),
                                               _proportion_se(np.abs(slots[:, 0]) > config.epsilon)],
        check=lambda config: None, path=True),
    "ek_functionals": _Kind(
        stats=lambda config, x, path, scaled: operator.attrgetter(
            "max_sn", "max_abs_sn", "mean_sq", "mean_abs")(ek_functionals(path)),
        rows=lambda config, lagged: list(_EK_STATISTICS),
        aggregate=lambda config, slots, prev: [(ks_statistic(slots[:, col], law()), _ks_crit(config.reps))
                                               for col, law in enumerate((g1_law, g2_law, g3_law, g4_law))],
        check=lambda config: None, path=True),
    "fdd_covariance": _Kind(
        stats=lambda config, x, path, scaled: tuple(float(v) for v in y_path(path, FDD_T_GRID)),
        rows=lambda config, lagged: [*(f"cov_t{ti:g}_t{tj:g}" for i, ti in enumerate(FDD_T_GRID)
                                       for tj in FDD_T_GRID[i:]), "cov_dev_max"],
        aggregate=_fdd_aggregate, check=_fdd_check, path=True),
    "tightness_scan": _Kind(
        stats=lambda config, x, path, scaled: (path.rescaled.darling_ratio(),
                                               path.rescaled.max_ratio(config.p)),
        rows=lambda config, lagged: ["darling_median", "mr_median",
                                     *(("darling_ks_prev", "mr_ks_prev") if lagged else ())],
        aggregate=_tightness_aggregate, check=lambda config: None, path=True),
    "chf_compare": _Kind(
        stats=_chf_stats,
        rows=lambda config, lagged: [*(f"chf_abs_err_u{u:g}_w{w:g}" for u in CHF_U_GRID for w in CHF_W_GRID),
                                     "chf_abs_err_max"],
        aggregate=_chf_aggregate, check=_chf_check, path=False),
}
EXPERIMENT_KINDS = tuple(_KINDS)


def _report(config: ExperimentConfig, slots: list[np.ndarray], thresholds: dict) -> ExperimentReport:
    kind = _KINDS[config.experiment]
    rows = [AggregateRow(n=n, statistic=name, value=value, stderr=stderr, reps=config.reps)
            for n, n_slots, prev in zip(config.n_grid, slots, [None, *slots])
            for name, (value, stderr) in zip(kind.rows(config, prev is not None),
                                             kind.aggregate(config, n_slots, prev), strict=True)]
    decision = decide_regime(rows, thresholds) if config.experiment in REGIME_SCAN_KINDS else "inconclusive"
    return ExperimentReport(
        config=config,
        run_id=_run_id(config),
        aggregates=tuple(rows),
        regime_decision=decision,
        draw_count=config.reps * sum(config.n_grid),
    )


def _run_cells(cells: list[tuple[ExperimentConfig, ...]],
               thresholds: dict) -> list[list[ExperimentReport]]:
    """Sample once per replication, aggregate: one report per (cell, scan)."""
    slots = _cell_slots(cells)
    return [[_report(c, s, thresholds) for c, s in zip(cell, cell_slots)]
            for cell, cell_slots in zip(cells, slots)]


def run_experiment(config: ExperimentConfig, oracle_dir=None) -> ExperimentReport:
    """Run reps x n_grid replications and aggregate per the experiment kind.

    `oracle_dir` is ignored: every reference law is exact and needs no file.
    It stays only because the benchmark's workloads still pass it; the
    benchmark change that the ROADMAP lists stops passing it, and then it
    goes.
    """
    return _run_cells([(config,)], load_default_thresholds())[0][0]


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


def _report_text(report: ExperimentReport) -> str:
    """The bytes of a report file: `write_report` writes them, `selfnorm run` prints them."""
    return _canonical_json(report_payload(report)) + "\n"


def write_report(report: ExperimentReport, path) -> None:
    """The report's JSON payload (`report_payload`), byte-deterministic.

    A non-finite value raises ValueError instead of being written; the file
    is replaced atomically, so a failed write leaves any previous file whole.
    """
    text = _report_text(report)
    try:
        write_text_atomic(path, text)
    except OSError as exc:
        raise OSError(f"failed to write report to {path}: {exc}") from exc


def _from_payload(cls, data: dict, **parsed):
    """cls built from one payload object, with `parsed` in place of its nested objects.

    The object holds every field of cls but workers, and nothing else: a key
    that no field has is refused, and so is a missing one, which would
    quietly take the field's default.
    """
    names = {f.name for f in fields(cls)} - {"workers"}
    if set(data) != names:
        raise TypeError(f"{cls.__name__} payload has keys {sorted(data)}, not {sorted(names)}")
    return cls(**{**data, **parsed})


def read_report(path) -> ExperimentReport:
    """Rebuild a report from its JSON payload (workers defaults to 1).

    A file that cannot be read raises OSError. One that is not a report
    payload (each object holds exactly the fields `report_payload` writes),
    or whose run_id, label, draw count or aggregate rows are not what its
    own config gives, raises ConfigError: the run_id is the
    config's hash, a regime scan's label one of the four, any other scan's
    inconclusive, the draw count reps x sum(n_grid), the rows' (n,
    statistic) sequence the one the experiment writes for the config, and
    each row has an integer n, the config's reps, a finite value, and a
    stderr that is null or finite and >= 0.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise OSError(f"failed to read report from {path}: {exc}") from exc
    try:
        payload = json.loads(data)
        cfg = payload["config"]
        config = _from_payload(ExperimentConfig, cfg, family=_from_payload(FamilySpec, cfg["family"]))
        rows = tuple(_from_payload(AggregateRow, r) for r in payload["aggregates"])
        report = _from_payload(ExperimentReport, payload, config=config, aggregates=rows)
    except (ValueError, KeyError, TypeError) as exc:  # a JSON or UTF-8 decode error is a ValueError
        raise ConfigError(f"{path} is not a report payload: {exc!r}") from exc
    if report.run_id != _run_id(config):
        raise ConfigError(f"{path}: run_id {report.run_id!r} is not the hash of its config "
                          f"({_run_id(config)!r})")
    kind = _KINDS[config.experiment]
    labels = (("degenerate", "brownian", "not_tight", "inconclusive") if config.experiment in REGIME_SCAN_KINDS
              else ("inconclusive",))
    if report.regime_decision not in labels:
        raise ConfigError(f"{path}: regime_decision {report.regime_decision!r} of a "
                          f"{config.experiment} report is not one of {labels}")
    draws = config.reps * sum(config.n_grid)
    if type(report.draw_count) is not int or report.draw_count != draws:
        raise ConfigError(f"{path}: draw_count {report.draw_count!r} is not reps x sum(n_grid) = {draws}")
    written = [(n, name) for i, n in enumerate(config.n_grid) for name in kind.rows(config, i > 0)]
    if [(row.n, row.statistic) for row in rows] != written:
        raise ConfigError(f"{path}: the aggregate rows are not the {len(written)} (n, statistic) rows "
                          f"that {config.experiment} writes for n_grid {config.n_grid}")
    for raw, row in zip(payload["aggregates"], rows):
        # n and reps are read as written, before AggregateRow casts them to int
        if type(raw["n"]) is not int:
            raise ConfigError(f"{path}: aggregate n {raw['n']!r} of {row.statistic} is not an integer")
        if type(raw["reps"]) is not int or raw["reps"] != config.reps:
            raise ConfigError(f"{path}: aggregate reps {raw['reps']!r} of {row.statistic} at n = {row.n} "
                              f"is not the config's reps = {config.reps}")
        if not math.isfinite(row.value):
            raise ConfigError(f"{path}: aggregate value {row.value!r} of {row.statistic} at n = {row.n} "
                              "is not finite")
        if row.stderr is not None and not (math.isfinite(row.stderr) and row.stderr >= 0.0):
            raise ConfigError(f"{path}: aggregate stderr {row.stderr!r} of {row.statistic} at n = {row.n} "
                              "is not null or finite and >= 0")
    return report


# ---------------------------------------------------------------------------
# the regime map


def _cell_config(base: ExperimentConfig, alpha: float, p: float, seed: int,
                 experiment: str) -> ExperimentConfig:
    return replace(base, family=replace(base.family, alpha=alpha), p=p, master_seed=seed,
                   experiment=experiment)


def _grid(alpha_list, p_list) -> tuple[tuple[float, ...], tuple[float, ...]]:
    alphas = tuple(_real("alpha_list", a) for a in _items("alpha_list", alpha_list))
    ps = tuple(_real("p_list", p) for p in _items("p_list", p_list))
    if not alphas or not ps:
        raise ConfigError("alpha_list and p_list must be nonempty")
    for name, values in (("alpha_list", alphas), ("p_list", ps)):
        if len(set(values)) < len(values):
            raise ConfigError(f"{name} repeats a value: {values}")
    return alphas, ps


def regime_map(base: ExperimentConfig, alpha_list, p_list,
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
