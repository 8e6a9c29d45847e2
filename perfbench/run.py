"""selfnorm benchmark: run one workload end to end, or traced layer by layer.

    python3 perfbench/run.py --workload regime_map --seed 20260815 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
With --trace 0 the run prints the end-to-end metrics, with --trace 1 the
per-layer ones. One line per metric goes to stdout, then, as the last line, a
JSON object {"correct", "attempted", "failed", "metrics"}. The full record,
with provenance, goes to perfbench/results/<workload>-seed<seed>-trace<t>.json.
See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
WORKLOAD_NAMES = ("regime_map", "chf_compare", "oracle_build")
FROZEN_SEED = 20260815
SETUP_REPEATS = 3
# one BLAS/OpenMP thread per process; set before numpy loads, inherited by
# the forked pool workers
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# CPU time, not wall time: on a shared 2-vCPU guest the hypervisor's CPU
# steal moves wall time by far more than any bound could allow (see README)
END_TO_END_UNITS = {"cpu_s": "s", "draws_per_cpu_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "families.sample_s": "s", "families.draws": "count", "families.ns_per_draw": "ns",
    "families.useful_draw_ratio": "ratio",
    "process.path_s": "s", "process.y_s": "s", "process.y_points": "count", "process.ek_s": "s",
    "diagnostics.modulus_s": "s", "diagnostics.modulus_calls": "count",
    "diagnostics.ratios_s": "s",
    "harness.run_self_s": "s", "harness.pools_started": "count", "harness.pool_wall_s": "s",
    "limits.ks_s": "s", "limits.chf_quad_s": "s", "limits.chf_evals": "count",
    "limits.oracle_load_s": "s", "limits.oracle_loads": "count", "limits.oracle_build_s": "s",
    "limits.oracle_save_s": "s", "limits.oracle_bytes": "B",
    "trace.cpu_s": "s", "trace.overhead_frac": "ratio",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=FROZEN_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must be a 64-bit unsigned integer")
    return args


def _import_package() -> float:
    """Import selfnorm from the checkout's own sources; returns the import's CPU time."""
    src = ROOT / "src"
    if not (src / "selfnorm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no selfnorm sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.process_time()
    import selfnorm  # noqa: F401  (numpy and scipy load here)
    return time.process_time() - t0


def _fresh_import_s() -> float:
    """CPU time of importing selfnorm in a new interpreter, as each user's run pays it."""
    code = "import time; t0 = time.process_time(); import selfnorm; print(time.process_time() - t0)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout)


def _cpu_s() -> float:
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children: the largest waited-for child
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_maxrss + kids.ru_maxrss) / 1024.0


def _run_pass(workload, ctx, seed: int, workers: int, tracer=None) -> dict:
    cpu0, t0 = _cpu_s(), time.perf_counter()
    outcome, error = None, None
    try:
        if tracer is None:
            outcome = workload.run(ctx, seed, workers)
        else:
            with tracing.installed(tracer):
                outcome = workload.run(ctx, seed, workers)
    except Exception:  # a failing pass is counted by the gate, not fatal
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    checks = [{"name": "pass completed", "ok": error is None, "detail": error or "",
               "undecided": False}]
    checks += outcome.checks if outcome else []
    return {"seed": seed, "wall_s": wall, "cpu_s": cpu,
            "draws": outcome.draws if outcome else 0,
            "digests": outcome.digests if outcome else {}, "checks": checks}


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def _untraced(workload, ctx, args, workers, heldout_seed: int):
    """Whole passes until --seconds have passed, alternating workload and held-out seed."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        seed = args.seed if len(passes) % 2 == 0 else heldout_seed
        passes.append(_run_pass(workload, ctx, seed, workers))
    cpus, walls = [p["cpu_s"] for p in passes], [p["wall_s"] for p in passes]
    metrics = {
        "cpu_s": statistics.median(cpus),
        "draws_per_cpu_s": statistics.median(p["draws"] / p["cpu_s"] for p in passes),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return passes, metrics, {"cpu_s_quartiles": _quartiles(cpus), "wall_s": statistics.median(walls),
                             "wall_s_quartiles": _quartiles(walls)}


def _traced(workload, ctx, args, workers):
    """A counters-only pass, then a traced pass, both at the workload seed.

    The counters must repeat exactly; the CPU-time gap between the two
    passes is the cost of the clocks and spans.
    """
    counted, timed = tracing.Tracer(timed=False), tracing.Tracer(timed=True)
    passes = [_run_pass(workload, ctx, args.seed, workers, counted),
              _run_pass(workload, ctx, args.seed, workers, timed)]
    repeat = counted.counts == timed.counts and counted.needed == timed.needed
    passes[1]["checks"].append({
        "name": "counters repeat", "ok": repeat, "undecided": False,
        "detail": "" if repeat else f"counted {dict(counted.counts)} vs traced {dict(timed.counts)}"})
    base, traced = passes[0]["cpu_s"], passes[1]["cpu_s"]
    metrics = tracing.layer_metrics(timed)
    metrics["trace.cpu_s"] = traced
    metrics["trace.overhead_frac"] = (traced - base) / base
    extra = {"counters": dict(sorted(timed.counts.items())),
             "spans": tracing.span_summary(timed), "raw_spans": timed.spans}
    return passes, metrics, extra


def _getconf(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _provenance(workload, workers: int) -> dict:
    import numpy
    import scipy
    import selfnorm

    l3 = _getconf("LEVEL3_CACHE_SIZE")
    return {
        "nproc": workers,
        "cpu_model": _cpu_model(),
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": l3,
        "largest_array_bytes": workload.largest_array_bytes,
        "largest_array_over_l3": workload.largest_array_bytes / l3 if l3 else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "selfnorm": selfnorm.__version__,
        "git_commit": _git_commit(),
        "workers": workers,
        "thread_env": {var: os.environ.get(var) for var in PINNED_THREADS},
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    for var in PINNED_THREADS:
        os.environ[var] = "1"
    import_s = _import_package()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workers = len(os.sched_getaffinity(0))
    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    try:
        setup_samples = []
        for i in range(SETUP_REPEATS):
            t0 = time.process_time()
            ctx = workload.setup(workdir / f"setup{i}")
            setup_samples.append(time.process_time() - t0)
        import_samples = [import_s]
        if args.trace:
            passes, metrics, extra = _traced(workload, ctx, args, workers)
            units = PER_LAYER_UNITS
        else:
            passes, metrics, extra = _untraced(workload, ctx, args, workers, workloads.HELDOUT_SEED)
            # after peak_rss_mb is read: these interpreters are children too
            import_samples += [_fresh_import_s() for _ in range(SETUP_REPEATS - 1)]
            metrics["setup_s"] = statistics.median(import_samples) + statistics.median(setup_samples)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = [c for p in passes for c in p["checks"]]
    failed = sum(not c["ok"] for c in checks)
    # correct unless a check found a wrong output; a cell the classifier left
    # inconclusive is a failed check (in failed_frac) but reports nothing wrong
    wrong = sum(not c["ok"] and not c["undecided"] for c in checks)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_spans = extra.pop("raw_spans", None)
    record = {
        "workload": args.workload, "seed": args.seed, "heldout_seed": workloads.HELDOUT_SEED,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": _provenance(workload, workers),
        "import_samples_s": import_samples, "setup_samples_s": setup_samples,
        "attempted": len(checks), "failed": failed, "failed_frac": failed / len(checks),
        "wrong": wrong,
        "failed_checks": [c for c in checks if not c["ok"]],
        "metrics": metrics, **extra, "passes": passes,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if raw_spans is not None:
        # (name, parent index or -1, start, end, pid) per span, perf_counter seconds
        (RESULTS / f"{stem}.spans.json").write_text(json.dumps(raw_spans) + "\n")

    for c in record["failed_checks"]:
        print(f"FAILED {c['name']}: {c['detail']}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:<28} {value:.6g} {units[name]}")
    if "wall_s" in extra:
        print(f"{'wall_s (not bounded)':<28} {extra['wall_s']:.6g} s, quartiles "
              + " ".join(f"{q:.4g}" for q in extra["wall_s_quartiles"]))
    print(f"{'failed_frac':<28} {record['failed_frac']:.6g} ({failed}/{len(checks)} checks, "
          f"{failed - wrong} undecided)")
    print(json.dumps({
        "correct": wrong == 0, "attempted": len(checks), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
