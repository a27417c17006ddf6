"""Command-line entry point.

Subcommands:

* ``run``       execute one experiment and write its step records as CSV
* ``sweep``     predictor-accuracy sweep with per-cell summary output
* ``report``    percentile summaries (with bootstrap CIs) from a record CSV
* ``validate``  run the acceptance criteria and report pass/fail per line;
  with ``--seeds A..B``, run them at every seed of the range and report
  each criterion's pass count

Exit codes: 0 on success, 1 when validation fails, 2 on configuration
errors (bad flags, malformed config files, unknown settings).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections.abc import Sequence

from ..errors import ConfigError, IBRLError
from .acceptance import run_all
from .config import (
    DEFAULT_SEED,
    EXPERIMENTS,
    ExperimentConfig,
    config_from_mapping,
    parse_config_text,
)
from .csvio import emit_csv, read_records
from .runner import (
    BOOT_STREAM,
    catastrophe_rates,
    derive_stream,
    final_cumulative_regrets,
    run_experiment,
    run_newcomb_sweep,
)
from .stats import bootstrap_percentiles


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibrl",
        description="Robust decision-making experiments over sets of reweighted beliefs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment and write a record CSV")
    run_p.add_argument("--experiment", choices=EXPERIMENTS, help="experiment identifier")
    run_p.add_argument("--config", help="path to a key=value config file")
    run_p.add_argument("--seed", type=int, help="master seed (overrides config and IBRL_SEED)")
    run_p.add_argument("--out", help="output CSV path (default <experiment>.csv)")

    sweep_p = sub.add_parser("sweep", help="sweep predictor accuracy for the newcomb experiment")
    sweep_p.add_argument("--experiment", default="newcomb", help="must be 'newcomb'")
    sweep_p.add_argument("--config", help="path to a key=value config file")
    sweep_p.add_argument("--seed", type=int, help="master seed (overrides config and IBRL_SEED)")
    sweep_p.add_argument("--out", help="output CSV path (default newcomb.csv)")
    sweep_p.add_argument("--alpha-min", type=float, help="lowest predictor accuracy")
    sweep_p.add_argument("--alpha-max", type=float, help="highest predictor accuracy")
    sweep_p.add_argument("--alpha-step", type=float, help="accuracy grid spacing")

    report_p = sub.add_parser("report", help="summarize final regrets from a record CSV")
    report_p.add_argument("--in", dest="in_path", required=True, help="record CSV to read")
    report_p.add_argument(
        "--percentiles",
        default="50,95",
        help="comma-separated percentile levels in (0, 100], default 50,95",
    )
    report_p.add_argument(
        "--bootstrap",
        type=int,
        default=10000,
        help="bootstrap resample count for confidence intervals (default 10000)",
    )
    report_p.add_argument("--seed", type=int, help="seed for the bootstrap stream")

    val_p = sub.add_parser("validate", help="run the acceptance criteria")
    seeds = val_p.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, help="master seed for all criteria")
    seeds.add_argument("--seeds", help="run the gate at every seed of A..B and count passes")
    return parser


def _resolve_seed(flag: int | None, configured: object = None) -> object:
    """The seed of every command: ``--seed``, then the config file's
    ``seed``, then ``IBRL_SEED``, then the default."""
    if flag is not None:
        return flag
    if configured is not None:
        return configured
    raw = os.environ.get("IBRL_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"field 'seed': IBRL_SEED must be an integer, got {raw!r}") from None


def _load_mapping(path: str | None) -> dict[str, object]:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config_text(text)


def _assemble_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge config file, environment and flags into one mapping; each flag
    beats its config-file key, and ``_resolve_seed`` picks the seed."""
    mapping = _load_mapping(getattr(args, "config", None))
    for flag in ("experiment", "out", "alpha_min", "alpha_max", "alpha_step"):
        value = getattr(args, flag, None)
        if value is not None:
            mapping[flag.replace("_", ".")] = value
    if "experiment" not in mapping:
        raise ConfigError("no experiment given: pass --experiment or set it in the config")
    mapping["seed"] = _resolve_seed(args.seed, mapping.get("seed"))
    return config_from_mapping(mapping)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _assemble_config(args)
    records = run_experiment(cfg)
    out_path = cfg.out or f"{cfg.experiment}.csv"
    emit_csv(records, out_path)
    print(f"wrote {len(records)} records to {out_path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _assemble_config(args)
    if cfg.experiment != "newcomb":
        raise ConfigError(
            f"field 'experiment': sweep supports only 'newcomb', got {cfg.experiment!r}"
        )
    records, summaries = run_newcomb_sweep(cfg)
    out_path = cfg.out or "newcomb.csv"
    emit_csv(records, out_path)
    for cell in summaries:
        print(
            f"alpha={cell.alpha:.2f} one_box_rate={cell.selected_one_box_rate:.3f} "
            f"mean_reward={cell.mean_reward:.3f} policy_value={cell.mean_policy_value:.3f}"
        )
    print(f"wrote {len(records)} records to {out_path}")
    return 0


def _parse_percentiles(text: str) -> tuple[float, ...]:
    levels = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ConfigError(f"field 'percentiles': empty entry in {text!r}")
        try:
            level = float(part)
        except ValueError:
            raise ConfigError(
                f"field 'percentiles': expected a number, got {part!r}"
            ) from None
        if not 0.0 < level <= 100.0:
            raise ConfigError(
                f"field 'percentiles': level {level:g} outside (0, 100]"
            )
        levels.append(level)
    return tuple(levels)


def _cmd_report(args: argparse.Namespace) -> int:
    levels = _parse_percentiles(args.percentiles)
    if args.bootstrap < 1:
        raise ConfigError(f"field 'bootstrap': expected a positive count, got {args.bootstrap}")
    seed = _resolve_seed(args.seed)
    records = read_records(args.in_path)
    if not records:
        raise ConfigError(f"field 'in': {args.in_path!r} contains no records")
    finals = final_cumulative_regrets(records)
    cat_rates = catastrophe_rates(records)
    for agent_index, agent in enumerate(sorted(finals)):
        for level_index, level in enumerate(levels):
            report = bootstrap_percentiles(
                finals[agent],
                level / 100.0,
                args.bootstrap,
                derive_stream(seed, BOOT_STREAM, agent_index, level_index),
                catastrophe_rate=cat_rates[agent],
            )
            print(f"{agent} {report.format()}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.seeds is None:
        results = run_all(_resolve_seed(args.seed))
        for result in results:
            print(result.line())
        return 0 if all(r.passed for r in results) else 1
    match = re.fullmatch(r"(\d+)\.\.(\d+)", args.seeds)
    if match is None or int(match.group(1)) > int(match.group(2)):
        raise ConfigError(f"field 'seeds': expected A..B with A <= B, got {args.seeds!r}")
    seeds = range(int(match.group(1)), int(match.group(2)) + 1)
    # Per criterion, in numbered order: the seeds at which it failed.
    failed: dict[int, list[int]] = {}
    for seed in seeds:
        for result in run_all(seed):
            failed.setdefault(result.number, [])
            if not result.passed:
                failed[result.number].append(seed)
    for number, at in failed.items():
        where = f" (failed at {', '.join(map(str, at))})" if at else ""
        print(f"criterion {number}: {len(seeds) - len(at)}/{len(seeds)}{where}")
    return 1 if any(failed.values()) else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "report": _cmd_report,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IBRLError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
