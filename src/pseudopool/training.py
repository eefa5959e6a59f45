"""End-to-end training: warmup on labeled data, then the per-batch cycle
(filter -> vote -> pool update -> prior refresh -> losses -> SGD step), with
optional minority-class synthesis and an auxiliary consistency branch.

Baselines share the batch-sampling stream and schedule with the full
trainer, so the trainer with every component disabled reproduces the
supervised logit-adjusted baseline's trajectory exactly.

RNG discipline: one PCG64 stream per concern (batch sampling, view noise,
synthesis noise, audits), spawned from the run seed. A concern that is
switched off never consumes from any stream, which keeps trajectories
comparable across component toggles.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .augment import ClassStats, minority_classes, plan_synthesis, update_class_stats
from .cycle import (
    LabeledPool,
    PseudoRegistry,
    ViewPredictionBatch,
    class_distribution,
    reliability_mask_batch,
    update_pool,
)
from .datasets import (
    AugmentationPolicy,
    SplitBundle,
    policy_from_features,
    strong_view_batch,
    weak_view_batch,
)
from .losses import ClassPrior, softmax
from .network import (
    BatchPart,
    ModelConfig,
    ModelState,
    NonFiniteLossError,
    OptimizerConfig,
    SynthPlan,
    cosine_lr,
    encode,
    head_logits,
    init,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
    sgd_step,
)

BASELINE_KINDS = ("supervised_ce", "supervised_la", "consistency_ssl")
STREAM_NAMES = ("labeled", "unlabeled", "views", "synth", "audit")


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, step: int, message: str = "non-finite loss"):
        super().__init__(f"{message} at epoch {epoch}, step {step}")
        self.epoch = epoch
        self.step = step


@dataclass
class TrainConfig:
    total_epochs: int = 150
    warmup_epochs: int = 30
    steps_per_epoch: int = 20
    labeled_batch: int = 16
    unlabeled_ratio: int = 7
    confidence_threshold: float = 0.95
    min_votes: int = 30
    majority_frac: float = 0.9
    freeze_resolved: bool = False
    use_aux_branch: bool = True
    use_cycle: bool = True
    use_synthesis: bool = True
    ema_decay: float = 0.9
    synth_count: int = 10
    predict_branch: str = "primary"
    checkpoint_every: int = 0
    hidden_dims: tuple[int, ...] = (64, 64)
    activation: str = "relu"
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    augmentation: AugmentationPolicy | None = None
    seed: int = 0

    def validate(self) -> None:
        if self.total_epochs < 1 or self.steps_per_epoch < 1:
            raise ValueError("total_epochs and steps_per_epoch must be positive")
        if not 0 <= self.warmup_epochs <= self.total_epochs:
            raise ValueError("warmup_epochs must lie in [0, total_epochs]")
        if self.labeled_batch < 1 or self.unlabeled_ratio < 1:
            raise ValueError("labeled_batch and unlabeled_ratio must be positive")
        if not 0.0 < self.confidence_threshold <= 1.0:
            # 1.0 is legal: the strict > gate then never fires
            raise ValueError("confidence_threshold must lie in (0, 1]")
        if self.predict_branch not in ("primary", "auxiliary"):
            raise ValueError("predict_branch must be primary or auxiliary")
        if self.synth_count < 1:
            raise ValueError("synth_count must be positive")
        if self.augmentation is not None:
            self.augmentation.validate()

    @property
    def unlabeled_batch(self) -> int:
        return self.labeled_batch * self.unlabeled_ratio

    @property
    def total_steps(self) -> int:
        return self.total_epochs * self.steps_per_epoch


def paper_scale_config(**overrides) -> TrainConfig:
    """Preset mirroring the original large-scale recipe (2**18 total steps,
    labeled batch 64); keep the desk-scale defaults for everything else."""
    cfg = TrainConfig(
        total_epochs=256, steps_per_epoch=1024, labeled_batch=64, **overrides
    )
    return cfg


@dataclass
class EpochReport:
    epoch: int
    primary_loss: float
    aux_loss: float
    pool_n: int
    pool_m: int
    pi: list[float]
    metrics: dict
    class_stats: list[dict] | None = None
    wall_clock: float = 0.0

    def to_record(self) -> dict:
        """JSONL row; deliberately excludes wall-clock so logs are replayable."""
        return {
            "epoch": self.epoch,
            "acc": self.metrics["acc"],
            "macro_f1": self.metrics["macro_f1"],
            "per_class_acc": [float(v) for v in self.metrics["per_class_acc"]],
            "err_rate": self.metrics["error_rate"],
            "util_rate": self.metrics["utilization_rate"],
            "kl": self.metrics["kl"],
            "O_t": self.metrics["o_t"],
            "eps_t": self.metrics["eps_t"],
            "R_t": self.metrics["r_t"],
            "lambda_t": self.metrics["lambda_t"],
            "cum_eps": self.metrics["cum_eps"],
            "losses": {"primary": self.primary_loss, "auxiliary": self.aux_loss},
            "pool": {"n": self.pool_n, "m_hat": self.pool_m},
            "pi": self.pi,
        }


@dataclass
class RunHistory:
    method: str
    reports: list[EpochReport]
    state: ModelState
    ledger: metrics_mod.RiskLedger
    registry: PseudoRegistry | None = None
    pool: LabeledPool | None = None
    policy: AugmentationPolicy | None = None

    def final_metrics(self) -> dict:
        return self.reports[-1].to_record()

    def to_records(self) -> list[dict]:
        return [r.to_record() for r in self.reports]


@dataclass
class StepInfo:
    """Read-only view handed to step callbacks (diagnostics/invariant checks)."""

    epoch: int
    step: int
    global_step: int
    pool: LabeledPool
    prior: ClassPrior


def predict(state: ModelState, x: np.ndarray, branch: str = "primary") -> int:
    """Class with the highest confidence under the selected head.

    No prior re-adjustment at inference; ties go to the lowest index.
    """
    logits = head_logits(state, branch, encode(state, x))
    return int(np.argmax(logits))


def _streams(seed: int) -> dict[str, np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(len(STREAM_NAMES))
    return {name: np.random.default_rng(child) for name, child in zip(STREAM_NAMES, children)}


def _resolve_policy(config: TrainConfig, splits: SplitBundle) -> AugmentationPolicy:
    if config.augmentation is not None:
        return config.augmentation
    feats = np.concatenate([splits.labeled.features, splits.unlabeled.features], axis=0)
    return policy_from_features(feats)


def _build_model(config: TrainConfig, splits: SplitBundle) -> tuple[ModelState, OptimizerConfig]:
    model_cfg = ModelConfig(
        input_dim=splits.labeled.features.shape[1],
        num_classes=splits.spec.num_classes,
        hidden_dims=config.hidden_dims,
        activation=config.activation,
        init_seed=config.seed,
    )
    opt = replace(config.optimizer, total_steps=config.total_steps)
    return init(model_cfg), opt


def _epoch_report(
    state: ModelState,
    splits: SplitBundle,
    config: TrainConfig,
    ledger: metrics_mod.RiskLedger,
    epoch: int,
    labels: np.ndarray,
    primary_loss: float,
    aux_loss: float,
    pool: LabeledPool,
    prior: ClassPrior,
    stats: ClassStats | None,
    started: float,
) -> EpochReport:
    bundle = metrics_mod.evaluate_epoch(state, splits, labels, config.predict_branch)
    row = ledger.update(
        epoch=epoch,
        eps_t=bundle["error_rate"],
        m_hat=bundle["audit"].m_hat,
        n=splits.labeled.ids.size,
        balanced_error=bundle["balanced_error"],
    )
    bundle.pop("audit")
    bundle.pop("balanced_error")
    bundle["o_t"] = row.o_t
    bundle["eps_t"] = row.eps_t
    bundle["r_t"] = row.r_t
    bundle["lambda_t"] = row.lambda_t
    bundle["cum_eps"] = row.cum_eps
    return EpochReport(
        epoch=epoch,
        primary_loss=primary_loss,
        aux_loss=aux_loss,
        pool_n=int(splits.labeled.ids.size),
        pool_m=pool.pseudo_size,
        pi=[float(v) for v in prior.probabilities],
        metrics=bundle,
        class_stats=stats.rows() if stats is not None else None,
        wall_clock=time.perf_counter() - started,
    )


def train(
    config: TrainConfig,
    splits: SplitBundle,
    step_callback=None,
    checkpoint_dir: str | Path | None = None,
    _resume: dict | None = None,
) -> RunHistory:
    """Run the full training loop; deterministic per (config, splits) seed.

    Epochs up to ``warmup_epochs`` train on labeled data only (plus the
    auxiliary branch when enabled). Afterwards each batch commits reliable
    votes, re-resolves the pool, refreshes the prior, and optionally expands
    minority classes before the SGD step at the cosine learning rate.
    """
    config.validate()
    c = splits.spec.num_classes
    policy = _resolve_policy(config, splits)
    state, opt = _build_model(config, splits)
    rngs = _streams(config.seed)
    uview = splits.unlabeled_view()
    m = uview.ids.size

    pool = LabeledPool.from_split(splits.labeled, c)
    registry = PseudoRegistry(uview.ids, c)
    stats = ClassStats(c, state.config.rep_dim)
    prior = class_distribution(pool)
    ledger = metrics_mod.RiskLedger()
    reports: list[EpochReport] = []
    # the cycle's state: class per unlabeled row, -1 while not in the pool
    labels = np.full(m, -1, dtype=np.int64)
    global_step = 0
    start_epoch = 1

    if _resume is not None:
        state = _resume["state"]
        opt = _resume["opt"]
        rngs = _resume["rngs"]
        registry = _resume["registry"]
        if not np.array_equal(registry.ids, uview.ids):
            raise ValueError("checkpoint registry ids do not match the unlabeled split's rows")
        labels = _resume["labels"]
        pool = update_pool(pool, labels, uview)
        prior = class_distribution(pool)
        stats = _resume["stats"]
        ledger = _resume["ledger"]
        reports = _resume["reports"]
        global_step = _resume["global_step"]
        start_epoch = _resume["epoch"] + 1

    b_l = config.labeled_batch
    b_u = config.unlabeled_batch

    for epoch in range(start_epoch, config.total_epochs + 1):
        started = time.perf_counter()
        registry.begin_epoch(epoch)
        primary_sum = 0.0
        aux_sum = 0.0
        for step in range(1, config.steps_per_epoch + 1):
            cycle_active = config.use_cycle and epoch > config.warmup_epochs
            synth_active = config.use_synthesis and epoch > config.warmup_epochs
            need_unlabeled = config.use_aux_branch or cycle_active

            weak_u = strong_u = None
            if need_unlabeled:
                u_rows = rngs["unlabeled"].integers(0, m, size=b_u)
                x_u = uview.features[u_rows]
                weak_u = weak_view_batch(x_u, policy, rngs["views"])
                strong_u = strong_view_batch(x_u, policy, rngs["views"])

            if cycle_active:
                vpb = _views_from_arrays(state, weak_u, strong_u, "primary")
                fired = reliability_mask_batch(vpb, config.confidence_threshold)
                for i in np.flatnonzero(fired):
                    registry.record_vote(int(uview.ids[u_rows[i]]), int(vpb.labels_weak[i]))
                # only the rows voted on this step can change their resolution
                resolved = registry.resolve(
                    config.min_votes, config.majority_frac, rows=u_rows[fired]
                )
                if config.freeze_resolved:
                    # grow-only variant: once assigned, a row keeps its label
                    labels = np.where(labels >= 0, labels, resolved)
                else:
                    labels = resolved
                pool = update_pool(pool, labels, uview)
                prior = class_distribution(pool)

            rows = rngs["labeled"].integers(0, pool.size, size=b_l)
            x_b = pool.features()[rows]
            y_b = pool.labels()[rows]
            log_pi = prior.log

            primary = BatchPart("primary", x_b, y_b, log_pi)
            if synth_active:
                reps = encode(state, x_b)
                update_class_stats(stats, reps, y_b, config.ema_decay)
                plan = plan_synthesis(
                    y_b, minority_classes(pool.phi), stats, rngs["synth"], config.synth_count
                )
                if plan is not None:
                    origin, radii, noise = plan
                    primary.synth = SynthPlan(
                        inputs=x_b[origin], labels=y_b[origin], radii=radii, noise=noise
                    )
            parts = [primary]

            if config.use_aux_branch:
                parts.append(BatchPart("auxiliary", x_b, y_b, log_pi))
                aux_weak = softmax(head_logits(state, "auxiliary", encode(state, weak_u)))
                pseudo = np.argmax(aux_weak, axis=1)
                parts.append(BatchPart("auxiliary", strong_u, pseudo, None))

            try:
                _, part_means, grads = loss_and_grads(state, parts)
            except NonFiniteLossError as exc:
                raise TrainingDiverged(epoch, step, str(exc)) from exc
            sgd_step(state, grads, opt, cosine_lr(global_step, opt))
            global_step += 1

            primary_sum += part_means[0]
            aux_sum += sum(part_means[1:])
            if step_callback is not None:
                step_callback(StepInfo(epoch, step, global_step, pool, prior))

        reports.append(
            _epoch_report(
                state,
                splits,
                config,
                ledger,
                epoch,
                labels,
                primary_sum / config.steps_per_epoch,
                aux_sum / config.steps_per_epoch,
                pool,
                prior,
                stats if config.use_synthesis else None,
                started,
            )
        )
        if (
            checkpoint_dir is not None
            and config.checkpoint_every > 0
            and epoch % config.checkpoint_every == 0
            and epoch < config.total_epochs
        ):
            save_run_checkpoint(
                Path(checkpoint_dir) / f"checkpoint_epoch{epoch:04d}.npz",
                config,
                state,
                opt,
                epoch,
                global_step,
                rngs,
                registry,
                labels,
                stats,
                ledger,
                reports,
            )

    return RunHistory(
        method="cpg",
        reports=reports,
        state=state,
        ledger=ledger,
        registry=registry,
        pool=pool,
        policy=policy,
    )


def _views_from_arrays(state, weak, strong, branch) -> ViewPredictionBatch:
    pw = softmax(head_logits(state, branch, encode(state, weak)))
    ps = softmax(head_logits(state, branch, encode(state, strong)))
    return ViewPredictionBatch(
        labels_weak=np.argmax(pw, axis=1),
        confs_weak=np.max(pw, axis=1),
        labels_strong=np.argmax(ps, axis=1),
        confs_strong=np.max(ps, axis=1),
    )


def run_baseline(kind: str, config: TrainConfig, splits: SplitBundle) -> RunHistory:
    """Reference learners sharing the trainer's sampling streams and schedule.

    supervised_ce: plain cross-entropy on labeled data. supervised_la: the
    logit-adjusted loss with the base labeled prior. consistency_ssl: CE on
    labeled data plus strong-view CE against weak-view pseudo-labels gated at
    the confidence threshold (single head, no pool growth, no adjustment).
    """
    if kind not in BASELINE_KINDS:
        raise ValueError(f"kind must be one of {BASELINE_KINDS}")
    config.validate()
    c = splits.spec.num_classes
    policy = _resolve_policy(config, splits)
    state, opt = _build_model(config, splits)
    rngs = _streams(config.seed)
    uview = splits.unlabeled_view()
    m = uview.ids.size

    pool = LabeledPool.from_split(splits.labeled, c)
    prior = class_distribution(pool)
    log_pi = prior.log if kind == "supervised_la" else None
    ledger = metrics_mod.RiskLedger()
    reports: list[EpochReport] = []
    tau = config.confidence_threshold
    global_step = 0

    for epoch in range(1, config.total_epochs + 1):
        started = time.perf_counter()
        primary_sum = 0.0
        aux_sum = 0.0
        for step in range(1, config.steps_per_epoch + 1):
            parts = []
            if kind == "consistency_ssl":
                u_rows = rngs["unlabeled"].integers(0, m, size=config.unlabeled_batch)
                x_u = uview.features[u_rows]
                weak_u = weak_view_batch(x_u, policy, rngs["views"])
                strong_u = strong_view_batch(x_u, policy, rngs["views"])
                probs = softmax(head_logits(state, "primary", encode(state, weak_u)))
                labels_w = np.argmax(probs, axis=1)
                confs_w = np.max(probs, axis=1)
                keep = confs_w > tau
                if keep.any():
                    parts.append(
                        BatchPart(
                            "primary",
                            strong_u[keep],
                            labels_w[keep],
                            None,
                            normalizer=config.unlabeled_batch,
                        )
                    )

            rows = rngs["labeled"].integers(0, pool.size, size=config.labeled_batch)
            parts.insert(0, BatchPart("primary", pool.features()[rows], pool.labels()[rows], log_pi))

            try:
                _, part_means, grads = loss_and_grads(state, parts)
            except NonFiniteLossError as exc:
                raise TrainingDiverged(epoch, step, str(exc)) from exc
            sgd_step(state, grads, opt, cosine_lr(global_step, opt))
            global_step += 1
            primary_sum += part_means[0]
            aux_sum += sum(part_means[1:])

        if kind == "consistency_ssl":
            labels = metrics_mod.threshold_assignments(state, splits, policy, tau, rngs["audit"])
        else:
            labels = np.full(m, -1, dtype=np.int64)
        reports.append(
            _epoch_report(
                state,
                splits,
                config,
                ledger,
                epoch,
                labels,
                primary_sum / config.steps_per_epoch,
                aux_sum / config.steps_per_epoch,
                pool,
                prior,
                None,
                started,
            )
        )

    return RunHistory(
        method=kind, reports=reports, state=state, ledger=ledger, pool=pool, policy=policy
    )


# ---------------------------------------------------------------------------
# Run-level checkpointing (model checkpoint format + trainer extras)
# ---------------------------------------------------------------------------


def save_run_checkpoint(
    path: str | Path,
    config: TrainConfig,
    state: ModelState,
    opt: OptimizerConfig,
    epoch: int,
    global_step: int,
    rngs: dict[str, np.random.Generator],
    registry: PseudoRegistry,
    labels: np.ndarray,
    stats: ClassStats,
    ledger: metrics_mod.RiskLedger,
    reports: list[EpochReport],
) -> Path:
    extra = {
        "config": train_config_to_dict(config),
        "global_step": global_step,
        "assignments": _labels_to_json(registry.ids, labels),
        "registry_epoch": registry.current_epoch,
        "ledger": [vars(row) for row in ledger.rows],
        "reports": [
            {
                "record": r.to_record(),
                "class_stats": r.class_stats,
                "wall_clock": r.wall_clock,
                "primary_loss": r.primary_loss,
                "aux_loss": r.aux_loss,
                "pool_n": r.pool_n,
                "pool_m": r.pool_m,
                "pi": r.pi,
            }
            for r in reports
        ],
    }
    extra_arrays = {
        "votes": registry.votes,
        "first_vote_epoch": registry.first_vote_epoch,
        "resolved": registry.resolved,
        "registry_ids": registry.ids,
        "centroids": stats.centroids,
        "has_centroid": stats.has_centroid,
        "alpha": stats.alpha,
        "radius": stats.radius,
        "count_seen": stats.count_seen,
    }
    rng_states = {name: json.loads(json.dumps(rng.bit_generator.state)) for name, rng in rngs.items()}
    return save_checkpoint(
        path, state, opt, epoch, rng_states=rng_states, extra=extra, extra_arrays=extra_arrays
    )


def resume_training(
    path: str | Path,
    splits: SplitBundle,
    step_callback=None,
    checkpoint_dir: str | Path | None = None,
) -> RunHistory:
    """Continue a checkpointed run; the result matches the uninterrupted run."""
    state, opt, epoch, rng_states, extra, extra_arrays = load_checkpoint(path)
    config = train_config_from_dict(extra["config"])
    rngs = {}
    for name in STREAM_NAMES:
        gen = np.random.default_rng(0)
        gen.bit_generator.state = rng_states[name]
        rngs[name] = gen

    registry = PseudoRegistry(extra_arrays["registry_ids"], splits.spec.num_classes)
    registry.votes = extra_arrays["votes"]
    registry.first_vote_epoch = extra_arrays["first_vote_epoch"]
    registry.resolved = extra_arrays["resolved"]
    registry.begin_epoch(extra["registry_epoch"])

    stats = ClassStats(splits.spec.num_classes, state.config.rep_dim)
    stats.centroids = extra_arrays["centroids"]
    stats.has_centroid = extra_arrays["has_centroid"]
    stats.alpha = extra_arrays["alpha"]
    stats.radius = extra_arrays["radius"]
    stats.count_seen = extra_arrays["count_seen"]

    ledger = metrics_mod.RiskLedger(rows=[metrics_mod.RiskRow(**row) for row in extra["ledger"]])
    reports = []
    for item in extra["reports"]:
        rec = item["record"]
        metrics_bundle = {
            "acc": rec["acc"],
            "macro_f1": rec["macro_f1"],
            "per_class_acc": rec["per_class_acc"],
            "error_rate": rec["err_rate"],
            "utilization_rate": rec["util_rate"],
            "kl": rec["kl"],
            "o_t": rec["O_t"],
            "eps_t": rec["eps_t"],
            "r_t": rec["R_t"],
            "lambda_t": rec["lambda_t"],
            "cum_eps": rec["cum_eps"],
        }
        reports.append(
            EpochReport(
                epoch=rec["epoch"],
                primary_loss=item["primary_loss"],
                aux_loss=item["aux_loss"],
                pool_n=item["pool_n"],
                pool_m=item["pool_m"],
                pi=item["pi"],
                metrics=metrics_bundle,
                class_stats=item["class_stats"],
                wall_clock=item["wall_clock"],
            )
        )

    resume = {
        "state": state,
        "opt": opt,
        "rngs": rngs,
        "registry": registry,
        "labels": _labels_from_json(registry.ids, extra["assignments"]),
        "stats": stats,
        "ledger": ledger,
        "reports": reports,
        "global_step": extra["global_step"],
        "epoch": epoch,
    }
    return train(config, splits, step_callback=step_callback, checkpoint_dir=checkpoint_dir, _resume=resume)


def _labels_to_json(ids: np.ndarray, labels: np.ndarray) -> dict[str, int]:
    """Checkpoint form of a label vector: ``{id: label}`` over assigned rows, by id."""
    rows = np.flatnonzero(labels >= 0)
    return {str(k): v for k, v in sorted(zip(ids[rows].tolist(), labels[rows].tolist()))}


def _labels_from_json(ids: np.ndarray, assignments: dict[str, int]) -> np.ndarray:
    """Inverse of ``_labels_to_json`` over the registry's ``ids``."""
    position = {int(sid): pos for pos, sid in enumerate(ids)}
    labels = np.full(ids.size, -1, dtype=np.int64)
    for sid, label in assignments.items():
        labels[position[int(sid)]] = int(label)
    return labels


def train_config_to_dict(config: TrainConfig) -> dict:
    out = {
        "total_epochs": config.total_epochs,
        "warmup_epochs": config.warmup_epochs,
        "steps_per_epoch": config.steps_per_epoch,
        "labeled_batch": config.labeled_batch,
        "unlabeled_ratio": config.unlabeled_ratio,
        "confidence_threshold": config.confidence_threshold,
        "min_votes": config.min_votes,
        "majority_frac": config.majority_frac,
        "freeze_resolved": config.freeze_resolved,
        "use_aux_branch": config.use_aux_branch,
        "use_cycle": config.use_cycle,
        "use_synthesis": config.use_synthesis,
        "ema_decay": config.ema_decay,
        "synth_count": config.synth_count,
        "predict_branch": config.predict_branch,
        "checkpoint_every": config.checkpoint_every,
        "hidden_dims": list(config.hidden_dims),
        "activation": config.activation,
        "optimizer": {
            "base_lr": config.optimizer.base_lr,
            "momentum": config.optimizer.momentum,
            "weight_decay": config.optimizer.weight_decay,
            "total_steps": config.optimizer.total_steps,
        },
        "augmentation": None
        if config.augmentation is None
        else {
            "weak_noise_sigma": config.augmentation.weak_noise_sigma,
            "strong_noise_sigma": config.augmentation.strong_noise_sigma,
            "strong_mask_rate": config.augmentation.strong_mask_rate,
        },
        "seed": config.seed,
    }
    return out


def train_config_from_dict(data: dict) -> TrainConfig:
    data = dict(data)
    data["hidden_dims"] = tuple(data.get("hidden_dims", (64, 64)))
    if data.get("optimizer") is not None and not isinstance(data["optimizer"], OptimizerConfig):
        data["optimizer"] = OptimizerConfig(**data["optimizer"])
    if data.get("augmentation") is not None and not isinstance(data["augmentation"], AugmentationPolicy):
        data["augmentation"] = AugmentationPolicy(**data["augmentation"])
    return TrainConfig(**data)
