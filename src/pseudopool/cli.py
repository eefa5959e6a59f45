"""Command-line entry point.

Verbs: run (execute a config over its seeds), compare (Welch verdicts between
two run directories), ablate (component matrix), gen-data (materialize splits
to CSV), inspect (dump a registry snapshot). Exit codes: 0 success, 2 invalid
config or a malformed summary.json or registry.json (named by file and
field), 3 training divergence.

The PSEUDOPOOL_OUTPUT_ROOT environment variable, when set, prefixes every
relative output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import experiments
from .datasets import generate_splits, save_splits
from .experiments import ConfigError, OUTPUT_ROOT_ENV
from .records import atomic_open
from .training import TrainingDiverged


def _resolve_out(path_str: str) -> Path:
    if not path_str:
        raise ConfigError("out", "an empty path names no output")
    path = Path(path_str)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def _parse_seeds(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError("seeds", f"unparseable seed list {text!r}") from None


def _load(args: argparse.Namespace) -> experiments.ExperimentConfig:
    config = experiments.load_config(args.config)
    # an option that is given wins, even when empty; the record that
    # ``replace`` builds checks it, as loading checked the file's values
    if getattr(args, "seeds", None) is not None:
        config = replace(config, seeds=_parse_seeds(args.seeds))
    if getattr(args, "method", None) is not None:
        config = replace(config, method=args.method)
    if getattr(args, "out", None) is not None:
        config = replace(config, output_dir=args.out)
    return config


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load(args)
    out_dir = _resolve_out(config.output_dir)
    summary = experiments.run_experiment(config, out_dir, emit_plot_data=args.emit_plot_data)
    for path in summary["paths"]:
        print(path)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    out = None if args.out is None else _resolve_out(args.out)
    report = experiments.compare_runs(args.dir_a, args.dir_b)
    print(experiments.format_comparison(report))
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        with atomic_open(out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, indent=2, sort_keys=True))
        print(out)
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    config = _load(args)
    result = experiments.run_ablation(config, _resolve_out(config.output_dir))
    print(result["csv"])
    print(result["json"])
    return 0


def _cmd_gen_data(args: argparse.Namespace) -> int:
    config = _load(args)
    out_dir = _resolve_out(config.output_dir)
    paths = save_splits(generate_splits(config.dataset), out_dir)
    for path in paths.values():
        print(path)
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    result = experiments.inspect_registry(args.run_dir)
    if args.full:
        print(json.dumps(result["snapshot"], indent=2, sort_keys=True))
    else:
        print(json.dumps(result["stats"], indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudopool",
        description="Long-tailed semi-supervised experiments with controllable pseudo-labels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a config across its seeds")
    run.add_argument("--config", required=True, help="YAML or JSON experiment config")
    run.add_argument("--seeds", help="comma-separated seed list override, e.g. 0,1,2")
    run.add_argument("--method", choices=experiments.METHODS, help="method override")
    run.add_argument("--out", help="output directory override")
    run.add_argument(
        "--emit-plot-data", action="store_true", help="also write tidy long-format plot_data.csv"
    )
    run.set_defaults(func=_cmd_run)

    comp = sub.add_parser("compare", help="Welch-test two run directories")
    comp.add_argument("dir_a")
    comp.add_argument("dir_b")
    comp.add_argument("--out", help="optional JSON report path")
    comp.set_defaults(func=_cmd_compare)

    abl = sub.add_parser("ablate", help="run the five-row component matrix")
    abl.add_argument("--config", required=True)
    abl.add_argument("--seeds", help="comma-separated seed list override")
    abl.add_argument("--out", help="output directory override")
    abl.set_defaults(func=_cmd_ablate)

    gen = sub.add_parser("gen-data", help="materialize the configured splits to CSV")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out", help="output directory override")
    gen.set_defaults(func=_cmd_gen_data)

    ins = sub.add_parser("inspect", help="dump a seed directory's registry snapshot")
    ins.add_argument("run_dir")
    ins.add_argument("--full", action="store_true", help="print the raw snapshot, not stats")
    ins.set_defaults(func=_cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
