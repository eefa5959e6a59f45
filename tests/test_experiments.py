import csv
import json
import os
import re
from dataclasses import MISSING, FrozenInstanceError, asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import pseudopool.training
from pseudopool.cli import main
from pseudopool.cycle import RegistryEntry, RegistrySnapshot
from pseudopool.experiments import (
    SUMMARY_METRICS,
    ConfigError,
    ExperimentConfig,
    MetricSummary,
    RunSummary,
    SummaryMetrics,
    compare_runs,
    inspect_registry,
    load_config,
    run_ablation,
    run_experiment,
)
from pseudopool.datasets import AugmentationPolicy, DatasetSpec, generate_splits
from pseudopool.network import ModelConfig, OptimizerConfig
from pseudopool.records import atomic_open, from_mapping
from pseudopool.training import (
    EpochReport,
    Losses,
    PoolSize,
    RunHistory,
    TrainConfig,
    TrainingDiverged,
    resume_training,
)

from test_cycle import brute_resolve

TINY_CONFIG = {
    "method": "cpg",
    "seeds": [0, 1],
    "output_dir": "runs/tiny",
    "dataset": {
        "num_classes": 3,
        "feature_dim": 4,
        "n_max": 12,
        "m_max": 36,
        "gamma_l": 3.0,
        "gamma_u": 3.0,
        "unlabeled_shape": "arbitrary",
        "test_per_class": 8,
    },
    "train": {
        "total_epochs": 10,
        "warmup_epochs": 3,
        "steps_per_epoch": 4,
        "labeled_batch": 6,
        "unlabeled_ratio": 2,
        "min_votes": 2,
        "majority_frac": 0.6,
        "hidden_dims": [12, 12],
    },
}


def write_config(tmp_path, data, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


class TestConfigParsing:
    def test_minimal_config_fills_defaults(self):
        config = from_mapping(ExperimentConfig, 
            {
                "method": "supervised_ce",
                "dataset": {"num_classes": 2, "feature_dim": 3, "n_max": 5, "m_max": 10},
            }
        )
        assert config.seeds == (0, 1, 2)
        assert config.train.confidence_threshold == 0.95
        assert config.train.optimizer.base_lr == 0.03

    def test_missing_required_field_names_it(self):
        with pytest.raises(ConfigError, match="dataset.num_classes"):
            from_mapping(ExperimentConfig, {"method": "cpg", "dataset": {"feature_dim": 3, "n_max": 5, "m_max": 9}})

    def test_unknown_field_names_it(self):
        # the removed settings are unknown fields too
        for path, value in [
            ("banana", 1),
            ("train.predict_branch", "primary"),
            ("train.synth_count", 10),
            ("train.augmentation", None),
            ("dataset.class_means", None),
            ("dataset.mean_scale", 2.5),
            ("dataset.cov_scale", 1.0),
        ]:
            data = json.loads(json.dumps(TINY_CONFIG))
            *section, name = path.split(".")
            (data[section[0]] if section else data)[name] = value
            with pytest.raises(ConfigError, match=f"^{path}: unknown field"):
                from_mapping(ExperimentConfig, data)

    def test_unknown_nested_field_names_path(self):
        data = json.loads(json.dumps(TINY_CONFIG))
        data["train"]["optimizer"] = {"base_lr": 0.01, "warp": 9}
        with pytest.raises(ConfigError, match="train.optimizer.warp"):
            from_mapping(ExperimentConfig, data)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("min_votes", 0),
            ("majority_frac", 0.2),
            ("ema_decay", 1.5),
            ("activation", "sigmoid"),
            ("hidden_dims", []),
            ("hidden_dims", [0]),
            ("checkpoint_every", -1),
            ("optimizer", {"total_steps": 5}),  # the train config owns the step count
        ],
    )
    def test_cycle_parameters_validated(self, field, value):
        data = json.loads(json.dumps(TINY_CONFIG))
        data["train"][field] = value
        if isinstance(value, dict):  # a nested key fails under its own dotted path
            (key,) = value
            fieldname, match = f"train.{field}.{key}", f"^train.{field}.{key}: unknown field"
        else:
            fieldname, match = "train", f"^train: {field}"
        with pytest.raises(ConfigError, match=match) as err:
            from_mapping(ExperimentConfig, data)
        assert err.value.fieldname == fieldname

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seeds", [0, 0]),
            ("seeds", [-1]),
            ("seeds", [True]),
            ("scenarios", []),
            ("scenarios", ["inverse", "inverse"]),
        ],
    )
    def test_bad_seeds_and_scenarios_rejected(self, field, value):
        data = json.loads(json.dumps(TINY_CONFIG))
        data[field] = value
        with pytest.raises(ConfigError) as err:
            from_mapping(ExperimentConfig, data)
        assert err.value.fieldname == field

    @pytest.mark.parametrize(
        "path, value",
        [
            ("train.optimizer", None),
            ("train.use_cycle", "no"),
            ("train.freeze_resolved", 1),
            ("train.labeled_batch", True),
            ("train.total_epochs", 2.5),
            ("train.hidden_dims", "64"),
            ("train.optimizer.base_lr", "0.1"),
            ("dataset.num_classes", 3.0),
            ("dataset.seed", True),
        ],
    )
    def test_wrong_type_names_its_field(self, path, value):
        data = json.loads(json.dumps(TINY_CONFIG))
        *sections, name = path.split(".")
        section = data
        for key in sections:
            section = section.setdefault(key, {})
        section[name] = value
        with pytest.raises(ConfigError, match=f"^{path}: expected ") as err:
            from_mapping(ExperimentConfig, data)
        assert err.value.fieldname == path

    @pytest.mark.parametrize(
        "path, value, fieldname, message",
        [
            ("train.optimizer.base_lr", float("nan"), "train.optimizer", "base_lr must be positive and finite"),
            ("train.optimizer.base_lr", float("inf"), "train.optimizer", "base_lr must be positive and finite"),
            ("train.optimizer.weight_decay", float("nan"), "train.optimizer", "weight_decay must be finite"),
            ("train.optimizer.weight_decay", float("inf"), "train.optimizer", "weight_decay must be finite"),
            ("dataset.gamma_l", float("nan"), "dataset", "imbalance ratios must be >= 1"),
            ("dataset.gamma_u", float("nan"), "dataset", "imbalance ratios must be >= 1"),
            ("dataset.seed", -1, "dataset", "seed must be >= 0"),
            ("train.seed", -1, "train", "seed must be >= 0"),
        ],
        ids=["base_lr-nan", "base_lr-inf", "weight_decay-nan", "weight_decay-inf", "gamma_l-nan", "gamma_u-nan",
             "dataset.seed", "train.seed"],
    )
    def test_non_finite_and_negative_values_rejected(self, path, value, fieldname, message):
        data = json.loads(json.dumps(TINY_CONFIG))
        *sections, name = path.split(".")
        section = data
        for key in sections:
            section = section.setdefault(key, {})
        section[name] = value
        with pytest.raises(ConfigError, match=f"^{fieldname}: {message}") as err:
            from_mapping(ExperimentConfig, data)
        assert err.value.fieldname == fieldname

    def test_readme_config_block_parses_and_names_every_field(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```yaml\n(.*?)```", readme, re.S)
        data = yaml.safe_load(block)
        from_mapping(ExperimentConfig, data)

        def names(prefix, section):
            return {f"{prefix}.{key}" for key in section}

        named = names("dataset", data["dataset"]) | names("train", data["train"])
        named |= names("train.optimizer", data["train"]["optimizer"])
        expected = names("dataset", [f.name for f in fields(DatasetSpec)])
        expected |= names("train", [f.name for f in fields(TrainConfig)])
        expected |= names("train.optimizer", [f.name for f in fields(OptimizerConfig)])
        assert named == expected

    def test_bad_method(self):
        data = json.loads(json.dumps(TINY_CONFIG))
        data["method"] = "alchemy"
        with pytest.raises(ConfigError, match="method"):
            from_mapping(ExperimentConfig, data)

    def test_json_is_accepted_as_yaml_subset(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(TINY_CONFIG))
        config = load_config(path)
        assert config.method == "cpg"
        assert config.dataset.num_classes == 3

    def test_resolved_dict_round_trips(self):
        config = from_mapping(ExperimentConfig, json.loads(json.dumps(TINY_CONFIG)))
        resolved = asdict(config)
        again = from_mapping(ExperimentConfig, resolved)
        assert asdict(again) == resolved


SPEC = DatasetSpec(
    num_classes=4, feature_dim=3, n_max=20, m_max=50, gamma_l=2.0, gamma_u=3,
    labeled_shape="arbitrary", unlabeled_shape="inverse", test_per_class=7,
    arbitrary_mode="dirichlet", seed=9,
)
OPTIMIZER = OptimizerConfig(base_lr=0.1, momentum=0.5, weight_decay=0.0)
TRAIN = TrainConfig(
    total_epochs=12, warmup_epochs=2, steps_per_epoch=3, labeled_batch=5, unlabeled_ratio=2,
    confidence_threshold=0.8, min_votes=2, majority_frac=0.6, freeze_resolved=True,
    use_aux_branch=False, use_cycle=False, use_synthesis=False, ema_decay=0.5,
    checkpoint_every=4, hidden_dims=(8, 2), activation="tanh", optimizer=OPTIMIZER, seed=3,
)
EXPERIMENT = ExperimentConfig(
    method="cpg", dataset=SPEC, train=TRAIN, seeds=[4], output_dir="x", scenarios=["uniform"],
)
MODEL = ModelConfig(input_dim=3, num_classes=4, hidden_dims=(8, 2), activation="tanh", init_seed=5)
RECORDS = [
    SPEC,
    OPTIMIZER,
    TRAIN,
    EXPERIMENT,
    MODEL,
    EpochReport(
        epoch=3, acc=0.5, macro_f1=0.4, per_class_acc=[0.5, 0.5], err_rate=0.25, util_rate=0.1,
        kl=None, O_t=14, eps_t=0.25, R_t=0.5, lambda_t=-0.1, cum_eps=0.75,
        losses=Losses(primary=0.5, auxiliary=1), pool=PoolSize(n=10, m_hat=4), pi=[0.25, 0.75],
        class_stats=[{"class": 0, "alpha": 0.1, "radius": 0.2, "count": 3}], wall_clock=1.5,
    ),
    RunSummary(
        method="cpg", seeds=[0, 2],
        metrics=SummaryMetrics(**{name: MetricSummary(0.5, 0.1, [0.4, 0.6]) for name in SUMMARY_METRICS}),
    ),
    RegistrySnapshot(
        num_classes=3, epoch=9,
        entries={"7": RegistryEntry({"0": 1, "2": 5}, 2, 4), "8": RegistryEntry({}, None, None)},
    ),
]


class TestFromMapping:
    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_json_round_trip(self, record):
        for f in fields(record):
            if f.default is not MISSING:
                assert getattr(record, f.name) != f.default, f.name
            elif f.default_factory is not MISSING:
                assert getattr(record, f.name) != f.default_factory(), f.name
        assert from_mapping(type(record), json.loads(json.dumps(asdict(record)))) == record

    def test_type_rules(self):
        opt = from_mapping(OptimizerConfig, {"base_lr": 1})
        assert type(opt.base_lr) is int
        entry = from_mapping(RegistryEntry, {"votes": {}, "resolved": None, "first_vote_epoch": None})
        assert entry.resolved is None
        model = from_mapping(ModelConfig, {"input_dim": 2, "num_classes": 3, "hidden_dims": [4]})
        assert model.hidden_dims == (4,)
        for cls, data, message in [
            (RegistryEntry, {"votes": {}, "resolved": True, "first_vote_epoch": None},
             "^resolved: expected int, got bool"),
            (OptimizerConfig, {"momentum": None}, "^momentum: expected float, got null"),
            (OptimizerConfig, {"base_lr": -1}, "^<root>: base_lr must be positive"),
            (OptimizerConfig, {"base_lr": 0}, "^<root>: base_lr must be positive"),
            (OptimizerConfig, [], "^<root>: expected a mapping, got list"),
        ]:
            with pytest.raises(ConfigError, match=message):
                from_mapping(cls, data)


class TestAtomicOpen:
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_file_gets_the_mode_open_gives(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            with open(tmp_path / "plain.txt", "w") as fh:
                fh.write("x")
            with atomic_open(tmp_path / "atomic.txt") as fh:
                fh.write("x")
        finally:
            os.umask(previous)
        modes = [(tmp_path / name).stat().st_mode for name in ("plain.txt", "atomic.txt")]
        assert modes[0] == modes[1] == 0o100666 & ~umask

    def test_leaves_the_process_umask_alone(self, tmp_path, monkeypatch):
        # reading the umask means setting it, for the whole process: a file
        # another thread creates meanwhile would get the value set
        def umask(mask):
            raise AssertionError(f"os.umask({mask:#o}) called")

        monkeypatch.setattr(os, "umask", umask)
        with atomic_open(tmp_path / "atomic.txt") as fh:
            fh.write("x")
        assert (tmp_path / "atomic.txt").read_text() == "x"
        assert [p.name for p in tmp_path.iterdir()] == ["atomic.txt"]


AUGMENTATION = AugmentationPolicy(weak_noise_sigma=0.1, strong_noise_sigma=0.2, strong_mask_rate=0.5)


# each config record, a field of it and a value that its check refuses
FROZEN = [
    (SPEC, "n_max", -4),
    (OPTIMIZER, "base_lr", 0.0),
    (TRAIN, "min_votes", 0),
    (EXPERIMENT, "seeds", []),
    (MODEL, "hidden_dims", ()),
    (AUGMENTATION, "strong_mask_rate", 1.5),
]


class TestFrozenRecords:
    @pytest.mark.parametrize("record, name, bad", FROZEN, ids=[type(r).__name__ for r, *_ in FROZEN])
    def test_built_record_stays_valid(self, record, name, bad):
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, bad)
        with pytest.raises(ValueError):
            replace(record, **{name: bad})


class TestSequenceFields:
    """Sequence fields are tuples, whatever sequence built them, so a record
    cannot change past its check and compares by value."""

    @pytest.mark.parametrize(
        "cls, args, name, given",
        [
            (TrainConfig, {}, "hidden_dims", [16, 16]),
            (ModelConfig, {"input_dim": 3, "num_classes": 4}, "hidden_dims", [8, 2]),
            (ExperimentConfig, {"method": "cpg", "dataset": SPEC}, "seeds", [4, 0]),
            (ExperimentConfig, {"method": "cpg", "dataset": SPEC}, "scenarios", ["uniform", "inverse"]),
        ],
        ids=["TrainConfig.hidden_dims", "ModelConfig.hidden_dims", "ExperimentConfig.seeds",
             "ExperimentConfig.scenarios"],
    )
    def test_list_given_is_stored_as_tuple(self, cls, args, name, given):
        from_list = cls(**args, **{name: given})
        assert getattr(from_list, name) == tuple(given)
        assert from_list == cls(**args, **{name: tuple(given)})
        with pytest.raises(AttributeError):
            getattr(from_list, name).append(given[0])
        assert json.loads(json.dumps(asdict(from_list)))[name] == given

    def test_checked_config_cannot_grow_a_repeat(self):
        config = replace(EXPERIMENT, seeds=[0, 1], scenarios=["uniform"])
        with pytest.raises(AttributeError):
            config.seeds.append(0)
        with pytest.raises(AttributeError):
            config.scenarios.append("wavy")
        assert (config.seeds, config.scenarios) == ((0, 1), ("uniform",))


class TestRunExperiment:
    def test_writes_all_artifacts(self, tmp_path):
        config = from_mapping(ExperimentConfig, json.loads(json.dumps(TINY_CONFIG)))
        summary = run_experiment(config, tmp_path / "out")
        assert (tmp_path / "out" / "resolved_config.json").exists()
        assert (tmp_path / "out" / "summary.json").exists()
        for seed in (0, 1):
            assert (tmp_path / "out" / f"seed_{seed}" / "history.jsonl").exists()
            assert (tmp_path / "out" / f"seed_{seed}" / "registry.json").exists()
            assert (tmp_path / "out" / f"seed_{seed}" / "class_stats.csv").exists()
        assert summary["method"] == "cpg"
        assert set(summary["metrics"]) == {"acc", "macro_f1", "err_rate", "util_rate", "kl"}

    def test_rerun_from_resolved_config_is_byte_identical(self, tmp_path):
        config = from_mapping(ExperimentConfig, json.loads(json.dumps(TINY_CONFIG)))
        run_experiment(config, tmp_path / "a")
        resolved = json.loads((tmp_path / "a" / "resolved_config.json").read_text())
        run_experiment(from_mapping(ExperimentConfig, resolved), tmp_path / "b")
        for rel in ("summary.json", "seed_0/history.jsonl", "seed_1/history.jsonl"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_baseline_ignores_toggles_with_warning(self, tmp_path, caplog):
        data = json.loads(json.dumps(TINY_CONFIG))
        data["method"] = "supervised_ce"
        data["seeds"] = [0]
        config = from_mapping(ExperimentConfig, data)
        import logging

        # the default toggles are on; run_baseline switches them off without a word
        with caplog.at_level(logging.WARNING):
            run_experiment(config, tmp_path / "ce")
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        history = json.loads(
            (tmp_path / "ce" / "seed_0" / "history.jsonl").read_text().splitlines()[-1]
        )
        assert history["util_rate"] == 0.0

    def test_cpg_checkpoints_resume_onto_the_run(self, tmp_path):
        data = json.loads(json.dumps(TINY_CONFIG))
        data["seeds"] = [0]
        data["train"]["checkpoint_every"] = 4
        config = from_mapping(ExperimentConfig, data)
        run_experiment(config, tmp_path / "out")
        seed_dir = tmp_path / "out" / "seed_0"
        assert sorted(p.name for p in seed_dir.glob("checkpoint_*.npz")) == [
            "checkpoint_epoch0004.npz",
            "checkpoint_epoch0008.npz",
        ]
        splits = generate_splits(replace(config.dataset, seed=0))
        resumed = resume_training(seed_dir / "checkpoint_epoch0004.npz", splits)
        lines = (seed_dir / "history.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines] == json.loads(json.dumps(resumed.to_records()))

    def test_frozen_registry_reports_the_pool_labels(self, tmp_path, monkeypatch):
        # under freeze_resolved a row keeps its first label while its tallies
        # may resolve elsewhere: registry.json reports the label in the pool
        data = json.loads(json.dumps(TINY_CONFIG))
        data["seeds"] = [1, 2, 3]
        data["dataset"].update(n_max=20, m_max=60, gamma_l=4.0, gamma_u=4.0, test_per_class=10)
        data["train"].update(
            total_epochs=20, warmup_epochs=2, steps_per_epoch=6, labeled_batch=8, unlabeled_ratio=3,
            min_votes=1, majority_frac=0.5, hidden_dims=[16, 16], freeze_resolved=True,
        )
        histories = {}
        train = pseudopool.training.train

        def kept(config, splits, **kwargs):
            histories[config.seed] = train(config, splits, **kwargs)
            return histories[config.seed]

        monkeypatch.setattr(pseudopool.training, "train", kept)
        run_experiment(from_mapping(ExperimentConfig, data), tmp_path / "out")
        retallied = []
        for seed, history in histories.items():
            pool, registry = history.pool, history.registry
            labels = dict(zip(pool.source.ids[pool.pseudo_rows].tolist(), pool.pseudo_labels.tolist()))
            inspected = inspect_registry(tmp_path / "out" / f"seed_{seed}")
            entries = inspected["snapshot"]["entries"]
            assert {int(k): e["resolved"] for k, e in entries.items() if e["resolved"] is not None} == labels
            assert inspected["stats"]["resolved"] == history.reports[-1].pool.m_hat
            tally = brute_resolve(registry.votes, 1, 0.5)
            retallied.append(dict(zip(registry.ids[tally >= 0].tolist(), tally[tally >= 0].tolist())) != labels)
        assert any(retallied)  # some row's tallies no longer back its label

    @pytest.mark.parametrize("method", ["supervised_ce", "supervised_la", "consistency_ssl"])
    def test_baseline_checkpoint_every_rejected(self, method):
        data = json.loads(json.dumps(TINY_CONFIG))
        data["train"]["checkpoint_every"] = 4
        with pytest.raises(ConfigError) as err:
            from_mapping(ExperimentConfig, {**data, "method": method})
        assert err.value.fieldname == "train.checkpoint_every"
        # a --method override on a cpg config is checked the same way
        with pytest.raises(ConfigError, match="train.checkpoint_every"):
            replace(from_mapping(ExperimentConfig, data), method=method)

    def test_diverging_rerun_leaves_no_stale_summary(self, tmp_path):
        data = json.loads(json.dumps(TINY_CONFIG))
        data["seeds"] = [0]
        run_experiment(from_mapping(ExperimentConfig, data), tmp_path / "out")
        assert (tmp_path / "out" / "summary.json").exists()
        data["train"]["optimizer"] = {"base_lr": 1e14}
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
            run_experiment(from_mapping(ExperimentConfig, data), tmp_path / "out")
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_rerun_removes_the_earlier_runs_optional_files(self, tmp_path):
        data = json.loads(json.dumps(TINY_CONFIG))
        data["seeds"] = [0]
        data["train"]["checkpoint_every"] = 4
        out = tmp_path / "out"
        run_experiment(from_mapping(ExperimentConfig, data), out, emit_plot_data=True)
        seed_dir = out / "seed_0"
        assert (seed_dir / "checkpoint_epoch0004.npz").exists() and (out / "plot_data.csv").exists()
        data["method"] = "supervised_ce"
        data["train"]["checkpoint_every"] = 0
        run_experiment(from_mapping(ExperimentConfig, data), out)
        assert sorted(p.name for p in seed_dir.iterdir()) == ["history.jsonl"]
        assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json", "seed_0", "summary.json"]

    def test_failed_history_write_keeps_previous_file(self, tmp_path, monkeypatch):
        data = json.loads(json.dumps(TINY_CONFIG))
        data["seeds"] = [0]
        config = from_mapping(ExperimentConfig, data)
        run_experiment(config, tmp_path / "out")
        seed_dir = tmp_path / "out" / "seed_0"
        before = (seed_dir / "history.jsonl").read_bytes()
        assert sorted(p.name for p in seed_dir.iterdir()) == ["class_stats.csv", "history.jsonl", "registry.json"]
        to_records = RunHistory.to_records

        def unserializable_second_record(self):
            records = to_records(self)
            records[1]["acc"] = object()  # json.dumps raises after line 1 is written
            return records

        monkeypatch.setattr(RunHistory, "to_records", unserializable_second_record)
        with pytest.raises(TypeError):
            run_experiment(config, tmp_path / "out")
        assert (seed_dir / "history.jsonl").read_bytes() == before
        # the seed's optional files went before it trained, and no temporary file is left
        assert sorted(p.name for p in seed_dir.iterdir()) == ["history.jsonl"]

    def test_failed_plot_data_write_keeps_previous_file(self, tmp_path, monkeypatch):
        # the previous run's plot data and summary go at the start, and a
        # failed plot write leaves no summary: only summary.json marks a
        # complete run, so nothing of the earlier run is left beside the new one
        data = json.loads(json.dumps(TINY_CONFIG))
        data["seeds"] = [0]
        config = from_mapping(ExperimentConfig, data)
        run_experiment(config, tmp_path / "out", emit_plot_data=True)
        assert {"plot_data.csv", "summary.json"} <= {p.name for p in (tmp_path / "out").iterdir()}
        to_records = RunHistory.to_records

        def second_record_without_kl(self):
            records = to_records(self)
            del records[1]["kl"]  # plot_data.csv raises after epoch 1's rows are written
            return records

        monkeypatch.setattr(RunHistory, "to_records", second_record_without_kl)
        with pytest.raises(KeyError):
            run_experiment(config, tmp_path / "out", emit_plot_data=True)
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["resolved_config.json", "seed_0"]

    def test_emit_plot_data(self, tmp_path):
        data = json.loads(json.dumps(TINY_CONFIG))
        data["seeds"] = [0]
        config = from_mapping(ExperimentConfig, data)
        run_experiment(config, tmp_path / "out", emit_plot_data=True)
        rows = list(csv.reader((tmp_path / "out" / "plot_data.csv").open()))
        assert rows[0] == ["seed", "epoch", "metric", "value"]
        assert len(rows) > 10


class TestCompare:
    def _make_run(self, tmp_path, name, values, seeds=(0, 1, 2)):
        out = tmp_path / name
        out.mkdir(parents=True, exist_ok=True)
        metrics = {}
        for metric in ("acc", "macro_f1", "err_rate", "util_rate", "kl"):
            vals = values.get(metric, [0.5] * len(seeds))
            arr = np.asarray(vals, dtype=np.float64)
            metrics[metric] = {
                "mean": float(arr.mean()),
                "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
                "values": list(map(float, vals)),
            }
        (out / "summary.json").write_text(
            json.dumps({"seeds": list(seeds), "metrics": metrics, "method": "cpg"})
        )
        return out

    def test_self_comparison_is_all_ties(self, tmp_path):
        run = self._make_run(tmp_path, "a", {"acc": [0.8, 0.82, 0.79]})
        report = compare_runs(run, run)
        assert all(entry["verdict"] == "tie" for entry in report["metrics"].values())

    def test_disjoint_ranges_win_significantly(self, tmp_path):
        a = self._make_run(tmp_path, "a", {"acc": [0.9, 0.91, 0.92]})
        b = self._make_run(tmp_path, "b", {"acc": [0.5, 0.52, 0.51]})
        report = compare_runs(a, b)
        assert report["metrics"]["acc"]["verdict"] == "win"
        assert report["metrics"]["acc"]["p"] < 0.05
        # direction-aware: lower error is better
        a2 = self._make_run(tmp_path, "a2", {"err_rate": [0.01, 0.02, 0.015]})
        b2 = self._make_run(tmp_path, "b2", {"err_rate": [0.4, 0.42, 0.41]})
        assert compare_runs(a2, b2)["metrics"]["err_rate"]["verdict"] == "win"

    def test_single_seed_refused(self, tmp_path):
        a = self._make_run(tmp_path, "a", {}, seeds=(0,))
        b = self._make_run(tmp_path, "b", {}, seeds=(0,))
        with pytest.raises(ValueError, match="two seeds"):
            compare_runs(a, b)

    def test_mismatched_seed_counts_refused(self, tmp_path):
        a = self._make_run(tmp_path, "a", {}, seeds=(0, 1))
        b = self._make_run(tmp_path, "b", {}, seeds=(0, 1, 2))
        with pytest.raises(ValueError, match="seed counts differ"):
            compare_runs(a, b)


class TestAblation:
    def test_matrix_layout_and_none_row(self, tmp_path):
        data = json.loads(json.dumps(TINY_CONFIG))
        data["seeds"] = [0]
        data["scenarios"] = ["consistent", "inverse"]
        config = from_mapping(ExperimentConfig, data)
        result = run_ablation(config, tmp_path / "abl")
        rows = list(csv.reader(open(result["csv"])))
        assert rows[0] == ["variant", "consistent", "inverse", "average"]
        assert [r[0] for r in rows[1:]] == ["none", "aux", "aux+synth", "aux+cycle", "full"]
        assert len(rows) == 6

        # the none row equals a supervised_la run on the same seeds
        from dataclasses import replace

        from pseudopool.datasets import generate_splits
        from pseudopool.training import run_baseline

        split_cfg = replace(config.dataset, unlabeled_shape="consistent", seed=0)
        la_cfg = replace(
            config.train, use_aux_branch=False, use_cycle=False, use_synthesis=False, seed=0
        )
        la = run_baseline("supervised_la", la_cfg, generate_splits(split_cfg))
        # csv cells carry 6 decimals
        assert float(rows[1][1]) == pytest.approx(la.final_metrics()["acc"], abs=1e-6)

    def test_diverging_rerun_leaves_no_stale_results(self, tmp_path):
        data = json.loads(json.dumps(TINY_CONFIG))
        data["seeds"] = [0]
        data["scenarios"] = ["consistent"]
        out = tmp_path / "abl"
        run_ablation(from_mapping(ExperimentConfig, data), out)
        assert (out / "ablation.csv").exists() and (out / "ablation.json").exists()
        data["train"]["optimizer"] = {"base_lr": 1e14}
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
            run_ablation(from_mapping(ExperimentConfig, data), out)
        assert json.loads((out / "resolved_config.json").read_text())["train"]["optimizer"]["base_lr"] == 1e14
        assert not (out / "ablation.csv").exists() and not (out / "ablation.json").exists()

    def test_requires_cpg_method(self, tmp_path):
        data = json.loads(json.dumps(TINY_CONFIG))
        data["method"] = "supervised_ce"
        with pytest.raises(ConfigError, match="method"):
            run_ablation(from_mapping(ExperimentConfig, data), tmp_path / "abl")


STATS = {"mean": 0.5, "std": 0.1, "values": [0.4, 0.6]}
SUMMARY = {"method": "cpg", "seeds": [0, 1], "metrics": {name: STATS for name in SUMMARY_METRICS}}
ENTRY = {"votes": {"1": 2}, "resolved": 1, "first_vote_epoch": 4}
REGISTRY = {"num_classes": 3, "epoch": 5, "entries": {"7": ENTRY}}


class TestCli:
    def test_run_and_inspect(self, tmp_path, capsys):
        data = json.loads(json.dumps(TINY_CONFIG))
        path = write_config(tmp_path, data)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--seeds", "0"])
        assert code == 0
        printed = capsys.readouterr().out
        assert str(tmp_path / "out" / "summary.json") in printed
        code = main(["inspect", str(tmp_path / "out" / "seed_0")])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert "resolved" in stats

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"method": "cpg", "dataset": {"feature_dim": 2, "n_max": 4, "m_max": 8}})
        code = main(["run", "--config", str(path)])
        assert code == 2
        assert "dataset.num_classes" in capsys.readouterr().err

    def test_rejected_config_keeps_earlier_run(self, tmp_path, capsys):
        data = json.loads(json.dumps(TINY_CONFIG))
        data["seeds"] = [0]
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, data)), "--out", str(out)]) == 0
        before = {name: (out / name).read_bytes() for name in ("summary.json", "resolved_config.json")}
        data["train"]["activation"] = "sigmoid"
        bad = write_config(tmp_path, data, name="bad.yaml")
        good = write_config(tmp_path, {**data, "train": TINY_CONFIG["train"]}, name="good.yaml")
        # a null optimizer would crash the run, a quoted "no" is truthy, and a
        # zero learning rate fails the first SGD step
        null_optimizer, cycle_no, zero_lr = (
            write_config(tmp_path, {**data, "train": {**TINY_CONFIG["train"], **change}}, name=name)
            for name, change in [
                ("null.yaml", {"optimizer": None}),
                ("no.yaml", {"use_cycle": "no"}),
                ("zero.yaml", {"optimizer": {"base_lr": 0}}),
            ]
        )
        for path, extra in [
            (bad, []),
            (null_optimizer, []),
            (cycle_no, []),
            (zero_lr, []),
            (good, ["--seeds", "0,0"]),
            (good, ["--seeds", "-1"]),
        ]:
            assert main(["run", "--config", str(path), "--out", str(out), *extra]) == 2
            assert "config error" in capsys.readouterr().err
            assert {name: (out / name).read_bytes() for name in before} == before

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 2

    def test_gen_data_round_trip(self, tmp_path, capsys):
        path = write_config(tmp_path, json.loads(json.dumps(TINY_CONFIG)))
        code = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "data")])
        assert code == 0
        out = capsys.readouterr().out
        assert str(tmp_path / "data" / "labeled.csv") in out
        from pseudopool.datasets import load_splits

        bundle = load_splits(tmp_path / "data")
        assert bundle.labeled.ids.size == 12 + 6 + 4  # counts for gamma_l=3, C=3

    def test_compare_cli(self, tmp_path, capsys):
        data = json.loads(json.dumps(TINY_CONFIG))
        data["seeds"] = [0, 1]
        path = write_config(tmp_path, data)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        code = main(["compare", str(tmp_path / "a"), str(tmp_path / "a")])
        assert code == 0
        assert "tie" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, data, message",
        [
            ("compare", {"metrics": {}}, "method: field is required"),
            ("compare", {**SUMMARY, "metrics": {**SUMMARY["metrics"], "acc": {**STATS, "values": 3}}},
             "metrics.acc.values: expected a list, got int"),
            ("compare", [], "<root>: expected a mapping, got list"),
            ("inspect", {**REGISTRY, "entries": {"7": {"votes": {"1": 2}, "first_vote_epoch": 4}}},
             "entries.7.resolved: field is required"),
            ("inspect", {**REGISTRY, "entries": {"7": {**ENTRY, "votes": {"1": "2"}}}},
             "entries.7.votes.1: expected int, got str"),
            ("inspect", [], "<root>: expected a mapping, got list"),
        ],
        ids=["compare-missing", "compare-type", "compare-list", "inspect-missing", "inspect-type", "inspect-list"],
    )
    def test_malformed_record_exits_2(self, tmp_path, capsys, command, data, message):
        path = tmp_path / ("summary.json" if command == "compare" else "registry.json")
        path.write_text(json.dumps(data))
        dirs = [str(tmp_path)] * (2 if command == "compare" else 1)
        assert main([command, *dirs]) == 2
        assert f"config error: {path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, output_dir, message",
        [
            (["run", "--seeds", ""], "runs/tiny", "seeds: must be a non-empty list"),
            (["run", "--out", ""], "runs/tiny", "output_dir: must not be empty"),
            (["ablate", "--out", ""], "runs/tiny", "output_dir: must not be empty"),
            (["gen-data", "--out", ""], "runs/tiny", "output_dir: must not be empty"),
            (["compare", ".", ".", "--out", ""], None, "out: an empty path names no output"),
            (["run"], "", "output_dir: must not be empty"),
        ],
        ids=["run-seeds", "run-out", "ablate-out", "gen-data-out", "compare-out", "config-output-dir"],
    )
    def test_empty_value_exits_2(self, tmp_path, capsys, monkeypatch, argv, output_dir, message):
        # an empty override used to fall back to the config's value, and an
        # empty output_dir wrote into the current directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "summary.json").write_text(json.dumps(SUMMARY))
        if output_dir is not None:
            data = {**json.loads(json.dumps(TINY_CONFIG)), "seeds": [0], "output_dir": output_dir}
            argv = [*argv, "--config", str(write_config(tmp_path, data))]
        before = sorted(tmp_path.iterdir())
        assert main(argv) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_output_root_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PSEUDOPOOL_OUTPUT_ROOT", str(tmp_path / "root"))
        data = json.loads(json.dumps(TINY_CONFIG))
        data["seeds"] = [0]
        data["output_dir"] = "nested/run"
        path = write_config(tmp_path, data)
        assert main(["run", "--config", str(path)]) == 0
        assert (tmp_path / "root" / "nested" / "run" / "summary.json").exists()

    def test_divergent_update_exits_3(self, tmp_path, capsys):
        data = json.loads(json.dumps(TINY_CONFIG))
        data["seeds"] = [0]
        data["train"]["optimizer"] = {"base_lr": 1e10, "weight_decay": 1e300}
        out = tmp_path / "d"
        with np.errstate(all="ignore"):
            assert main(["run", "--config", str(write_config(tmp_path, data)), "--out", str(out)]) == 3
        assert "non-finite update in parameter enc0_w at epoch 1, step 1" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_nan_learning_rate_exits_2(self, tmp_path, capsys):
        data = json.loads(json.dumps(TINY_CONFIG))
        data["train"]["optimizer"] = {"base_lr": float("nan")}
        path = write_config(tmp_path, data)
        assert ".nan" in path.read_text()
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "config error: train.optimizer: base_lr must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_divergent_run_exits_3(self, tmp_path, capsys, command):
        data = json.loads(json.dumps(TINY_CONFIG))
        data["seeds"] = [0]
        data["train"]["optimizer"] = {"base_lr": 1e14}
        path = write_config(tmp_path, data)
        with np.errstate(all="ignore"):
            code = main([command, "--config", str(path), "--out", str(tmp_path / "d")])
        assert code == 3
        assert "epoch" in capsys.readouterr().err
