"""Command-line front end: run one experiment or sweep an (alpha, p) grid."""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from .errors import (
    ConfigError,
    DegenerateSampleError,
    InternalConsistencyError,
    MissingStatisticsError,
    NonFiniteSampleError,
    ParameterDomainError,
)
from .families import FAMILY_KINDS, FamilySpec
from .harness import (
    EXPERIMENT_KINDS,
    ExperimentConfig,
    _report_text,
    regime_map,
    run_experiment,
    sweep,
    write_report,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through ConfigError
    # instead so usage errors share exit code 1 with config-file problems
    def error(self, message):
        raise ConfigError(message)


def _float_list(text: str) -> tuple[float, ...]:
    # argparse prints this message as is; a ValueError would name this function
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of numbers") from None


def _add_common(sub: argparse.ArgumentParser, grid: bool = False) -> None:
    sub.add_argument("--family", choices=FAMILY_KINDS, help="sampling family kind")
    if grid:
        sub.add_argument("--alpha", type=_float_list, help="comma-separated tail indices")
        sub.add_argument("--p", type=_float_list, help="comma-separated norm orders in (0, 2]")
    else:
        sub.add_argument("--alpha", type=float, help="tail index of the family")
        sub.add_argument("--p", type=float, help="norm order in (0, 2]")
    # integrality of n is left to ExperimentConfig, as for the config file
    sub.add_argument("--n", type=_float_list, help="comma-separated increasing sample sizes")
    sub.add_argument("--reps", type=int, help="Monte Carlo replications per n")
    sub.add_argument("--seed", type=int, help="64-bit master seed")
    sub.add_argument("--experiment", choices=EXPERIMENT_KINDS, help="experiment kind")
    sub.add_argument("--t-grid", type=_float_list, help="comma-separated times in (0, 1]")
    sub.add_argument("--epsilon", type=float, help="exceedance threshold")
    sub.add_argument("--workers", type=int, help="parallel worker count")
    sub.add_argument("--out", help="output path (run) or directory (sweep)")
    sub.add_argument("--format", choices=("csv", "json"), help="report file format")
    sub.add_argument("--config", help="JSON file whose values override flags")
    # no flag sets the scale: only a config file's nested family does
    sub.set_defaults(scale=FamilySpec.scale)


def _build_parser() -> _Parser:
    parser = _Parser(prog="selfnorm",
                     description="Monte Carlo laboratory for self-normalized partial-sum processes")
    subs = parser.add_subparsers(dest="command", required=True)
    _add_common(subs.add_parser("run", help="run one experiment"))
    sw = subs.add_parser("sweep", help="run a cartesian (alpha, p) grid")
    _add_common(sw, grid=True)
    return parser


# config-file keys: flag names with underscores, plus payload-style aliases
_CONFIG_ALIASES = {"n_grid": "n", "master_seed": "seed"}
_CONFIG_KEYS = ("family", "alpha", "p", "n", "reps", "seed", "experiment",
                "t_grid", "epsilon", "workers", "out", "format")


def _apply_config_file(args: argparse.Namespace) -> None:
    if not args.config:
        return
    try:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {args.config}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {args.config} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {args.config} must hold a JSON object")
    # values are set as read, for ExperimentConfig and FamilySpec to check; out
    # and format reach neither, and a null would read as a flag left unset
    for raw_key, value in data.items():
        key = _CONFIG_ALIASES.get(raw_key, raw_key)
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {raw_key!r}")
        if value is None or (key in ("out", "format") and not isinstance(value, str)):
            raise ConfigError(f"config key {raw_key!r} cannot be {json.dumps(value)}")
        if key == "family" and isinstance(value, dict):
            # payload-style nested family spec: its keys are FamilySpec's fields
            unknown = set(value) - {f.name for f in dataclasses.fields(FamilySpec)}
            if unknown:
                raise ConfigError(f"unknown family config key {min(unknown)!r}")
            nulls = [name for name, item in value.items() if item is None]
            if nulls:
                raise ConfigError(f"config key {f'{raw_key}.{nulls[0]}'!r} cannot be null")
            args.family = value.get("kind")
            args.alpha = value.get("alpha", args.alpha)
            args.scale = value.get("scale", args.scale)
            continue
        setattr(args, key, value)


def _experiment_config(args: argparse.Namespace, experiment: str) -> ExperimentConfig:
    for key in ("family", "alpha", "p", "n", "reps", "seed"):
        if getattr(args, key) is None:
            raise ConfigError(f"--{key} is required (flag or config file)")
    kwargs = {key: getattr(args, key) for key in ("t_grid", "epsilon", "workers")
              if getattr(args, key) is not None}
    return ExperimentConfig(
        family=FamilySpec(kind=args.family, alpha=args.alpha, scale=args.scale),
        p=args.p, n_grid=args.n, reps=args.reps, master_seed=args.seed,
        experiment=experiment, **kwargs)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.experiment is None:
        raise ConfigError("--experiment is required (flag or config file)")
    report = run_experiment(_experiment_config(args, args.experiment))
    fmt = args.format or "json"
    if args.out:
        write_report(report, fmt, args.out)
        print(f"{report.run_id} {report.config.experiment} "
              f"regime={report.regime_decision} draws={report.draw_count} -> {args.out}")
    else:
        sys.stdout.write(_report_text(report, "json"))  # the bytes write_report writes
    return 0


def _write_sweep_reports(reports, out, fmt: str) -> None:
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for report in reports:
        write_report(report, fmt, out_dir / f"{report.run_id}.{fmt}")


def _print_matrix(matrix) -> None:
    # regime_map keys the matrix in (alpha, p) order
    alphas = list(dict.fromkeys(a for a, _ in matrix))
    ps = list(dict.fromkeys(p for _, p in matrix))
    # widest label plus a 2-space gutter so adjacent cells never touch
    width = 2 + max(*(len(v) for v in matrix.values()),
                    *(len(f"p={p:g}") for p in ps))
    head = "alpha \\ p".ljust(10) + "".join(f"p={p:g}".rjust(width) for p in ps)
    print(head)
    for a in alphas:
        cells = "".join(matrix[(a, p)].rjust(width) for p in ps)
        print(f"{a:<10g}{cells}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.alpha_list is None or args.p_list is None:
        raise ConfigError("sweep needs --alpha and --p as comma-separated lists")
    base = _experiment_config(args, "degenerate_scan" if args.experiment is None else args.experiment)
    fmt = args.format or "json"
    if args.experiment is not None:
        reports = sweep(base, args.alpha_list, args.p_list)
        for report in reports:
            fam = report.config.family
            print(f"alpha={fam.alpha:g} p={report.config.p:g} run_id={report.run_id} "
                  f"regime={report.regime_decision}")
    else:
        reports, matrix = regime_map(base, args.alpha_list, args.p_list)
        _print_matrix(matrix)
    if args.out:
        _write_sweep_reports(reports, args.out, fmt)
        print(f"wrote {len(reports)} report(s) to {args.out}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _apply_config_file(args)
        if args.command == "sweep":
            # alpha/p carry grid lists here; the base config takes the first cell
            def as_list(v):
                if v is None:
                    return None
                return tuple(v) if isinstance(v, (list, tuple)) else (v,)
            args.alpha_list, args.p_list = as_list(args.alpha), as_list(args.p)
            args.alpha = args.alpha_list[0] if args.alpha_list else None
            args.p = args.p_list[0] if args.p_list else None
            return _cmd_sweep(args)
        return _cmd_run(args)
    except (ConfigError, ParameterDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MissingStatisticsError as exc:
        # exit 2 stays mapped, but no shipped experiment raises it: each
        # regime scan always yields a statistic a decision rule reads
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NonFiniteSampleError, DegenerateSampleError, InternalConsistencyError) as exc:
        # the run reached a value it cannot vouch for: no trustworthy number
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except BrokenProcessPool as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    raise SystemExit(main())
