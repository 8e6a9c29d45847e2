"""Monte Carlo experiment orchestration: run, aggregate, classify, report.

Reproducibility contract: the report payload is a pure function of the
configuration (excluding workers). Replication j always draws from the
per-replication stream (master_seed, j); results land in a slot array by
replication index and are aggregated in index order, so any worker count
produces identical bytes.

Each replication is drawn once per call, at the largest n, and serves every
n of the grid and every scan that shares its seed (the three scans of a
regime_map cell); one process pool serves the whole call.
"""
from __future__ import annotations

import hashlib
import json
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from ._files import write_text_atomic
# modulus_of_continuity and load_oracle are not called here (the tightness
# scan calls _max_oscillations once for its whole delta grid), but stay bound
# like every other layer function, so the benchmark's tracer
# (perfbench/tracing.py) finds them
from .diagnostics import (  # noqa: F401
    _max_oscillations,
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
    ks_statistic,
    ks_two_sample,
    limit_chf,
    load_oracle,
    save_oracle,
    tail_constants,
)
from .process import ProcessPath, ek_functionals, y_at, y_path
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
    """Full description of one Monte Carlo experiment; hashable and immutable."""

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
# A cell is a tuple of configs that differ only in `experiment`: the scans
# run on the same replications. Replication j of a cell is drawn once, from
# SeededStream(master_seed, j) at the largest n, and every n reads its
# length-n prefix (the families' prefix property); a family without that
# property is drawn again at each n. Every scan of the cell is computed on
# each prefix.

def _scan_stats(config: ExperimentConfig, x: np.ndarray, path) -> tuple[float, ...]:
    kind = config.experiment
    if kind == "degenerate_scan":
        return (y_at(path, 1.0), sum_sq_ratio(x, config.family.alpha))
    if kind == "ek_functionals":
        ek = ek_functionals(path)
        return (ek.max_sn, ek.max_abs_sn, ek.mean_sq, ek.mean_abs)
    if kind == "fdd_covariance":
        return tuple(float(v) for v in y_path(path, config.t_grid))
    if kind == "tightness_scan":
        # one evaluation of the path on the node grid serves every delta
        y = y_path(path, np.arange(x.size + 1) / x.size)
        oms = _max_oscillations(y, config.delta_grid)
        return (darling_ratio(x), max_ratio(x, config.p), *oms)
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
    stream = SeededStream(config.master_seed, rep)
    full = sample_family(config.family, stream, config.n_grid[-1]) \
        if config.family.prefix_coherent else None
    # every scan but chf_compare reads the path Y_{n,p}
    needs_path = any(c.experiment != "chf_compare" for c in cell)
    out = []
    for n in config.n_grid:
        x = sample_family(config.family, stream, n) if full is None else full[:n]
        if not np.isfinite(x).all():
            raise _non_finite(config, rep, n, "draw")
        path = ProcessPath(x, config.p) if needs_path else None
        stats = [_scan_stats(c, x, path) for c in cell]
        bad = [c.experiment for c, row in zip(cell, stats) if not all(map(math.isfinite, row))]
        if bad:
            raise _non_finite(config, rep, n, f"statistic in {', '.join(bad)}")
        out.append(stats)
    return out


def _non_finite(config: ExperimentConfig, rep: int, n: int, what: str) -> NonFiniteSampleError:
    return NonFiniteSampleError(
        f"replication {rep} at n={n} ({config.family.kind}, alpha={config.family.alpha:g}, "
        f"seed {config.master_seed}): non-finite {what}")


def _block_stats(cell: tuple[ExperimentConfig, ...], lo: int, hi: int) -> list:
    return [_rep_stats(cell, rep) for rep in range(lo, hi)]


def _arrays(cell: tuple[ExperimentConfig, ...], rows: list) -> list[list[np.ndarray]]:
    # [scan][n] -> (reps, statistics) array from rows indexed [rep][n][scan]
    return [[np.array([rep[i][k] for rep in rows]) for i in range(len(cell[0].n_grid))]
            for k in range(len(cell))]


def _cell_slots(cells: list[tuple[ExperimentConfig, ...]]) -> list[list[list[np.ndarray]]]:
    """Replication statistics as [cell][scan][n] -> (reps, statistics) arrays.

    The cells of one call share reps and workers; one process pool serves
    them all, each cell split into one contiguous block of replications per
    worker. Each cell's rows become arrays as soon as they are read, so the
    Python rows of the whole call are never held at once.
    """
    reps, workers = cells[0][0].reps, cells[0][0].workers
    if workers == 1 or reps < 2 * workers:
        return [_arrays(cell, _block_stats(cell, 0, reps)) for cell in cells]
    bounds = [round(i * reps / workers) for i in range(workers + 1)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = [[pool.submit(_block_stats, cell, lo, hi)
                    for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
                   for cell in cells]
        out = []
        try:
            for index, cell in enumerate(cells):
                futures, pending[index] = pending[index], None  # a read future holds its rows
                out.append(_arrays(cell, [rep for fut in futures for rep in fut.result()]))
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


def _aggregate_rows(config: ExperimentConfig, n: int, slots: np.ndarray) -> list[AggregateRow]:
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


def _check_chf(config: ExperimentConfig) -> None:
    if config.experiment == "chf_compare":
        tail_constants(config.family)  # rejects light-tailed families
        if not config.p > config.family.alpha:
            raise ParameterDomainError(
                f"chf_compare needs p > alpha, got p={config.p}, alpha={config.family.alpha}")


def _report(config: ExperimentConfig, slots: list[np.ndarray], thresholds: dict) -> ExperimentReport:
    rows: list[AggregateRow] = []
    prev_tail: np.ndarray | None = None
    for n, n_slots in zip(config.n_grid, slots):
        rows.extend(_aggregate_rows(config, n, n_slots))
        if config.experiment == "tightness_scan":
            if prev_tail is not None:
                rows.append(AggregateRow(
                    n=n, statistic="darling_ks_prev", reps=config.reps,
                    value=ks_two_sample(prev_tail[:, 0], n_slots[:, 0]),
                    stderr=_ks_crit(config.reps) * math.sqrt(2.0)))
                rows.append(AggregateRow(
                    n=n, statistic="mr_ks_prev", reps=config.reps,
                    value=ks_two_sample(prev_tail[:, 1], n_slots[:, 1]),
                    stderr=_ks_crit(config.reps) * math.sqrt(2.0)))
            prev_tail = n_slots

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
    """Validate, sample once per replication, aggregate: one report per (cell, scan)."""
    if thresholds is None:
        thresholds = load_default_thresholds()
    for cell in cells:
        for c in cell:
            _check_chf(c)
    slots = _cell_slots(cells)
    return [[_report(c, s, thresholds) for c, s in zip(cell, cell_slots)]
            for cell, cell_slots in zip(cells, slots)]


def run_experiment(config: ExperimentConfig, thresholds: dict | None = None,
                   oracle_dir=None) -> ExperimentReport:
    """Run reps x n_grid replications and aggregate per the experiment kind.

    `oracle_dir` is ignored: every reference law is exact and needs no file.
    It stays only because the benchmark's workloads still pass it; the
    benchmark change of ROADMAP item 2 stops passing it, and then it goes.
    """
    return _run_cells([(config,)], thresholds)[0][0]


# ---------------------------------------------------------------------------
# regime decision


def load_default_thresholds() -> dict:
    text = resources.files("selfnorm").joinpath("data/regime_thresholds.json").read_text()
    return json.loads(text)


def _validate_thresholds(th: dict) -> None:
    required = ("exceedance_final_max", "exceedance_slack_se", "mr_median_min",
                "mr_stability_ks_max", "ek_ks_max", "splits")
    missing = [k for k in required if k not in th]
    if missing:
        raise ConfigError(f"thresholds missing keys: {missing}")
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


def decide_regime(aggregates, thresholds: dict) -> str:
    """Classify aggregates as degenerate / brownian / not_tight / inconclusive.

    Pure function of the aggregates and documented thresholds. Each rule
    requires its own statistics; cross-statistic guards apply only when those
    statistics are present. The fixed split constants make the three definite
    rules structurally disjoint.
    """
    _validate_thresholds(thresholds)
    rows = list(aggregates)
    exc = _series(rows, "exceedance")
    mr_med = _series(rows, "mr_median")
    mr_ks = _series(rows, "mr_ks_prev")
    ek = [r for name in ("ks_max_g1", "ks_max_abs_g2", "ks_mean_sq_g3", "ks_mean_abs_g4")
          for r in _series(rows, name)]
    if not exc and not mr_med and not ek:
        raise MissingStatisticsError(
            "no exceedance, max-ratio, or path-functional statistics to decide from")

    mr_split = thresholds["splits"]["mr"]
    exc_split = thresholds["splits"]["exceedance"]
    mr_low = (not mr_med) or mr_med[-1].value < mr_split
    exc_high = (not exc) or exc[-1].value > exc_split

    degenerate = False
    if exc:
        slack_k = thresholds["exceedance_slack_se"]
        non_increasing = all(
            b.value <= a.value + slack_k * math.hypot(a.stderr or 0.0, b.stderr or 0.0)
            for a, b in zip(exc, exc[1:]))
        degenerate = (non_increasing
                      and exc[-1].value <= thresholds["exceedance_final_max"]
                      and mr_low)

    not_tight = False
    if len(mr_med) >= 2 and mr_ks:
        stable = mr_ks[-1].value <= thresholds["mr_stability_ks_max"]
        high = min(mr_med[-1].value, mr_med[-2].value) >= thresholds["mr_median_min"]
        not_tight = stable and high

    brownian = False
    if ek:
        brownian = (max(r.value for r in ek) <= thresholds["ek_ks_max"]
                    and mr_low and exc_high)

    labels = [name for name, hit in
              (("degenerate", degenerate), ("brownian", brownian), ("not_tight", not_tight))
              if hit]
    return labels[0] if len(labels) == 1 else "inconclusive"


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
    """Rebuild a report from its JSON payload (workers defaults to 1)."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise OSError(f"failed to read report from {path}: {exc}") from exc
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
    return ExperimentReport(
        config=config, run_id=payload["run_id"], aggregates=rows,
        regime_decision=payload["regime_decision"], draw_count=payload["draw_count"],
    )


# ---------------------------------------------------------------------------
# sweeps


def _cell_config(base: ExperimentConfig, alpha: float, p: float, seed: int,
                 experiment: str | None = None) -> ExperimentConfig:
    fam = FamilySpec(kind=base.family.kind, alpha=alpha, scale=base.family.scale)
    return replace(base, family=fam, p=p, master_seed=seed,
                   experiment=experiment or base.experiment)


def _grid(alpha_list, p_list) -> list[tuple[float, float]]:
    alphas = tuple(float(a) for a in alpha_list)
    ps = tuple(float(p) for p in p_list)
    if not alphas or not ps:
        raise ConfigError("alpha_list and p_list must be nonempty")
    return [(a, p) for a in alphas for p in ps]


def sweep(base: ExperimentConfig, alpha_list, p_list,
          thresholds: dict | None = None) -> tuple[ExperimentReport, ...]:
    """Cartesian product of runs; cell seeds derived from the base seed and index."""
    cells = [(_cell_config(base, alpha, p, derive_seed(base.master_seed, idx)),)
             for idx, (alpha, p) in enumerate(_grid(alpha_list, p_list))]
    return tuple(r for (r,) in _run_cells(cells, thresholds))


def regime_map(base: ExperimentConfig, alpha_list, p_list, thresholds: dict | None = None,
               oracle_dir=None) -> tuple[tuple[ExperimentReport, ...], dict]:
    """Run all three regime scans per cell on shared replications and classify jointly.

    The scans of a cell use the cell seed, so they read the same draws: each
    replication is drawn once and feeds all three. Returns (reports, matrix)
    with matrix[(alpha, p)] in {degenerate, brownian, not_tight, inconclusive}.
    `oracle_dir` is ignored, as in `run_experiment`.
    """
    grid = _grid(alpha_list, p_list)
    if thresholds is None:
        thresholds = load_default_thresholds()
    cells = [tuple(_cell_config(base, alpha, p, derive_seed(base.master_seed, idx), kind)
                   for kind in REGIME_SCAN_KINDS)
             for idx, (alpha, p) in enumerate(grid)]
    per_cell = _run_cells(cells, thresholds)
    matrix = {cell: decide_regime([row for r in reports for row in r.aggregates], thresholds)
              for cell, reports in zip(grid, per_cell)}
    return tuple(r for reports in per_cell for r in reports), matrix


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
