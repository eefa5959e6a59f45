"""Config-driven experiment harness: seeded runs, baseline comparisons,
component-ablation matrices, and significance summaries.

Configs are YAML (JSON, being a YAML subset, is accepted unchanged). Every
defaulted field is echoed into ``resolved_config.json``, and re-running a
resolved config reproduces all metric files byte-identically.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from . import training
from .cycle import RegistrySnapshot
from .datasets import UNLABELED_SHAPES, DatasetSpec, generate_splits
from .metrics import welch_t_test
from .records import ConfigError, as_tuples, atomic_open, from_mapping
from .training import BASELINE_KINDS, TrainConfig

METHODS = ("cpg", *BASELINE_KINDS)
OUTPUT_ROOT_ENV = "PSEUDOPOOL_OUTPUT_ROOT"

SUMMARY_METRICS = ("acc", "macro_f1", "err_rate", "util_rate", "kl")
# Direction of improvement per summary metric (for compare verdicts).
HIGHER_IS_BETTER = {"acc": True, "macro_f1": True, "err_rate": False, "util_rate": True, "kl": False}

ABLATION_ROWS = (
    # (label, use_aux_branch, use_cycle, use_synthesis)
    ("none", False, False, False),
    ("aux", True, False, False),
    ("aux+synth", True, False, True),
    ("aux+cycle", True, True, False),
    ("full", True, True, True),
)


@dataclass(frozen=True)
class ExperimentConfig:
    method: str
    dataset: DatasetSpec
    train: TrainConfig = field(default_factory=TrainConfig)
    seeds: tuple[int, ...] = (0, 1, 2)
    output_dir: str = "runs/experiment"
    scenarios: tuple[str, ...] = ("consistent", "inverse", "arbitrary")

    def __post_init__(self) -> None:
        as_tuples(self, "seeds", "scenarios")
        if self.method not in METHODS:
            raise ConfigError("method", f"must be one of {METHODS}")
        if not self.seeds or not all(type(s) is int and s >= 0 for s in self.seeds):
            raise ConfigError("seeds", "must be a non-empty list of non-negative integers")
        if not self.output_dir:
            raise ConfigError("output_dir", "must not be empty")
        if not self.scenarios:
            raise ConfigError("scenarios", "at least one scenario is required")
        for scenario in self.scenarios:
            if scenario not in UNLABELED_SHAPES:
                raise ConfigError("scenarios", f"{scenario!r} is not an unlabeled shape")
        for name, values in (("seeds", self.seeds), ("scenarios", self.scenarios)):
            if len(set(values)) != len(values):
                raise ConfigError(name, f"repeats a value: {list(values)}")
        if self.method != "cpg" and self.train.checkpoint_every:
            raise ConfigError("train.checkpoint_every", f"{self.method} cannot checkpoint")


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError("<config>", f"no such file: {path}")
    try:
        data = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError("<config>", f"unparseable config: {exc}") from None
    return from_mapping(ExperimentConfig, data)


def _run_single(config: ExperimentConfig, seed: int, seed_dir: Path) -> training.RunHistory:
    train_cfg = replace(config.train, seed=seed)
    splits = generate_splits(replace(config.dataset, seed=seed))
    if config.method == "cpg":
        return training.train(train_cfg, splits, checkpoint_dir=seed_dir)
    return training.run_baseline(config.method, train_cfg, splits)


def _write_resolved_config(config: ExperimentConfig, out_dir: Path) -> Path:
    path = out_dir / "resolved_config.json"
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(asdict(config), indent=2, sort_keys=True))
    return path


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


@dataclass
class MetricSummary:
    """Mean +/- sample std of one final-epoch metric across seeds (None
    when no seed has a value), and the per-seed values."""

    mean: float | None
    std: float | None
    values: list[float | None]


@dataclass
class SummaryMetrics:
    """One ``MetricSummary`` per name in ``SUMMARY_METRICS``."""

    acc: MetricSummary
    macro_f1: MetricSummary
    err_rate: MetricSummary
    util_rate: MetricSummary
    kl: MetricSummary


@dataclass
class RunSummary:
    """``summary.json``: the method, its seeds and each summary metric."""

    method: str
    seeds: list[int]
    metrics: SummaryMetrics


def _read_record(cls, path: Path):
    """``cls`` read back from the JSON file ``path``; a malformed file raises
    ``ConfigError`` naming the file and the dotted field."""
    try:
        return from_mapping(cls, json.loads(path.read_text()))
    except (json.JSONDecodeError, ConfigError) as exc:
        raise ConfigError(str(path), str(exc)) from None


def _final_summary(method: str, finals: dict[int, dict]) -> RunSummary:
    seeds = sorted(finals)
    metrics = {}
    for name in SUMMARY_METRICS:
        values = [finals[s][name] for s in seeds]
        clean = [v for v in values if v is not None]
        if clean:
            arr = np.asarray(clean, dtype=np.float64)
            std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
            metrics[name] = MetricSummary(float(arr.mean()), std, values)
        else:
            metrics[name] = MetricSummary(None, None, values)
    return RunSummary(method, seeds, SummaryMetrics(**metrics))


def run_experiment(
    config: ExperimentConfig, out_dir: str | Path, emit_plot_data: bool = False
) -> dict:
    """Execute the configured method for every seed and write all artifacts.

    Per seed: ``seed_<s>/history.jsonl`` (one record per epoch) plus, for the
    full method, the registry snapshot, per-epoch class-stats CSV and any
    checkpoints. The run root gets ``resolved_config.json``, the plot data
    when asked for, and ``summary.json``, which is written last and so marks a
    complete run. An earlier run's summary and plot data are removed first,
    and a seed's optional files before that seed trains.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("summary.json", "plot_data.csv"):
        (out_dir / name).unlink(missing_ok=True)
    finals: dict[int, dict] = {}
    plot_records: dict[int, list[dict]] = {}
    paths = [_write_resolved_config(config, out_dir)]
    for seed in config.seeds:
        seed_dir = out_dir / f"seed_{seed}"
        seed_dir.mkdir(parents=True, exist_ok=True)
        stale = [seed_dir / "registry.json", seed_dir / "class_stats.csv", *seed_dir.glob("checkpoint_epoch*.npz")]
        for path in stale:
            path.unlink(missing_ok=True)
        history = _run_single(config, seed, seed_dir)
        records = history.to_records()
        _write_jsonl(seed_dir / "history.jsonl", records)
        paths.append(seed_dir / "history.jsonl")
        if history.registry is not None:
            with atomic_open(seed_dir / "registry.json", "w", encoding="utf-8") as fh:
                fh.write(json.dumps(asdict(history.registry.snapshot()), indent=2, sort_keys=True))
            paths.append(seed_dir / "registry.json")
        if config.method == "cpg" and config.train.use_synthesis:
            stats_path = seed_dir / "class_stats.csv"
            _write_class_stats(stats_path, history)
            paths.append(stats_path)
        finals[seed] = records[-1]
        if emit_plot_data:
            plot_records[seed] = records

    if emit_plot_data:
        _write_plot_data(out_dir / "plot_data.csv", plot_records)
        paths.append(out_dir / "plot_data.csv")
    summary = asdict(_final_summary(config.method, finals))
    with atomic_open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True))
    paths.append(out_dir / "summary.json")
    summary["paths"] = [str(p) for p in paths]
    return summary


def _write_class_stats(path: Path, history: training.RunHistory) -> None:
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "class", "alpha", "radius", "count"])
        for report in history.reports:
            if not report.class_stats:
                continue
            for row in report.class_stats:
                writer.writerow(
                    [report.epoch, row["class"], row["alpha"], row["radius"], row["count"]]
                )


def _write_plot_data(path: Path, records: dict[int, list[dict]]) -> None:
    """Tidy long-format per-epoch metrics for external plotting tools, from
    each seed's ``history.jsonl`` records (seed -> records)."""
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "epoch", "metric", "value"])
        for seed, seed_records in records.items():
            for record in seed_records:
                for name in SUMMARY_METRICS:
                    value = record[name]
                    if value is not None:
                        writer.writerow([seed, record["epoch"], name, value])


def compare_runs(dir_a: str | Path, dir_b: str | Path) -> dict:
    """Welch-test verdicts between two run directories' final metrics.

    Requires matching seed counts and at least two seeds each (one seed has
    no variance to test).
    """
    summary_a = _read_record(RunSummary, Path(dir_a) / "summary.json")
    summary_b = _read_record(RunSummary, Path(dir_b) / "summary.json")
    if len(summary_a.seeds) != len(summary_b.seeds):
        raise ValueError(f"seed counts differ: {len(summary_a.seeds)} vs {len(summary_b.seeds)}")
    if len(summary_a.seeds) < 2:
        raise ValueError("need at least two seeds per run for a variance estimate")
    report: dict = {"a": str(dir_a), "b": str(dir_b), "metrics": {}}
    for name in SUMMARY_METRICS:
        stats_a = getattr(summary_a.metrics, name)
        stats_b = getattr(summary_b.metrics, name)
        values_a = [v for v in stats_a.values if v is not None]
        values_b = [v for v in stats_b.values if v is not None]
        entry = {"mean_a": stats_a.mean, "std_a": stats_a.std, "mean_b": stats_b.mean, "std_b": stats_b.std}
        if len(values_a) < 2 or len(values_b) < 2:
            entry.update({"t": None, "p": None, "verdict": "tie"})
        else:
            t, _, p = welch_t_test(values_a, values_b)
            if p < 0.05:
                a_better = (entry["mean_a"] > entry["mean_b"]) == HIGHER_IS_BETTER[name]
                verdict = "win" if a_better else "loss"
            else:
                verdict = "tie"
            entry.update({"t": t, "p": p, "verdict": verdict})
        report["metrics"][name] = entry
    return report


def format_comparison(report: dict) -> str:
    lines = [f"comparison: {report['a']}  vs  {report['b']}"]
    for name, entry in report["metrics"].items():
        mean_a = "n/a" if entry["mean_a"] is None else f"{entry['mean_a']:.4f}"
        mean_b = "n/a" if entry["mean_b"] is None else f"{entry['mean_b']:.4f}"
        p = "n/a" if entry.get("p") is None else f"{entry['p']:.4f}"
        lines.append(f"  {name:>9}: {mean_a} vs {mean_b}  p={p}  -> {entry['verdict']}")
    return "\n".join(lines)


def run_ablation(config: ExperimentConfig, out_dir: str | Path) -> dict:
    """Five-row component matrix across unlabeled scenarios and seeds.

    Emits ``ablation.csv`` whose cells hold the mean final accuracy per
    (component row, scenario), plus a row average column, and the per-seed
    ``ablation.json``; an earlier ablation's two files are removed first.
    """
    if config.method != "cpg":
        raise ConfigError("method", "ablation requires the cpg method")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path, json_path = out_dir / "ablation.csv", out_dir / "ablation.json"
    csv_path.unlink(missing_ok=True)
    json_path.unlink(missing_ok=True)
    _write_resolved_config(config, out_dir)

    cells: dict[str, dict[str, float]] = {}
    details: dict[str, dict[str, list[float]]] = {}
    for label, use_aux, use_cycle, use_synth in ABLATION_ROWS:
        cells[label] = {}
        details[label] = {}
        for scenario in config.scenarios:
            accs = []
            for seed in config.seeds:
                dataset = replace(config.dataset, unlabeled_shape=scenario, seed=seed)
                train_cfg = replace(
                    config.train,
                    use_aux_branch=use_aux,
                    use_cycle=use_cycle,
                    use_synthesis=use_synth,
                    seed=seed,
                )
                history = training.train(train_cfg, generate_splits(dataset))
                accs.append(history.final_metrics()["acc"])
            cells[label][scenario] = float(np.mean(accs))
            details[label][scenario] = [float(a) for a in accs]
        cells[label]["average"] = float(np.mean([cells[label][s] for s in config.scenarios]))

    with atomic_open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", *config.scenarios, "average"])
        for label, *_ in ABLATION_ROWS:
            writer.writerow(
                [label]
                + [f"{cells[label][s]:.6f}" for s in config.scenarios]
                + [f"{cells[label]['average']:.6f}"]
            )
    with atomic_open(json_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(details, indent=2, sort_keys=True))
    return {"cells": cells, "csv": str(csv_path), "json": str(json_path)}


def inspect_registry(run_dir: str | Path) -> dict:
    """Load a seed directory's registry snapshot and derive quick stats."""
    path = Path(run_dir) / "registry.json"
    if not path.exists():
        raise FileNotFoundError(f"no registry snapshot at {path}")
    snapshot = _read_record(RegistrySnapshot, path)
    resolved = [e.resolved for e in snapshot.entries.values() if e.resolved is not None]
    per_class: dict[str, int] = {}
    for label in resolved:
        per_class[str(label)] = per_class.get(str(label), 0) + 1
    return {
        "snapshot": asdict(snapshot),
        "stats": {
            "ids_with_votes": len(snapshot.entries),
            "resolved": len(resolved),
            "total_votes": sum(sum(e.votes.values()) for e in snapshot.entries.values()),
            "resolved_per_class": dict(sorted(per_class.items())),
        },
    }
