"""End-to-end training: warmup on labeled data, then the per-batch cycle
(filter -> vote -> pool update -> prior refresh -> losses -> SGD step), with
optional minority-class synthesis and an auxiliary consistency branch.

The baselines are this same loop with components off: every baseline runs
with the aux branch, the cycle and synthesis disabled; ``supervised_ce`` and
``consistency_ssl`` also drop the logit adjustment, and ``consistency_ssl``
adds a gated weak-to-strong term on the primary head. The trainer with every
component disabled is therefore the supervised logit-adjusted baseline.

RNG discipline: one PCG64 stream per concern (batch sampling, view noise,
synthesis noise, audits), spawned from the run seed. A concern that is
switched off never consumes from any stream, which keeps trajectories
comparable across component toggles.
"""

from __future__ import annotations

import ctypes
import json
import time
from dataclasses import asdict, dataclass, field, replace
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
    UnlabeledView,
    policy_from_features,
    strong_view_batch,
    weak_view_batch,
)
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
    loss_and_grads,
    sgd_step,
    top_class,
    validate_architecture,
)
from .records import atomic_open, from_mapping

BASELINE_KINDS = ("supervised_ce", "supervised_la", "consistency_ssl")
STREAM_NAMES = ("labeled", "unlabeled", "views", "synth", "audit")
CHECKPOINT_VERSION = 7


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
    checkpoint_every: int = 0
    hidden_dims: tuple[int, ...] = (64, 64)
    activation: str = "relu"
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
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
        if self.min_votes < 1:
            raise ValueError("min_votes must be >= 1")
        if not 0.5 <= self.majority_frac <= 1.0:
            raise ValueError("majority_frac must lie in [0.5, 1]")
        if not 0.0 <= self.ema_decay < 1.0:
            raise ValueError("ema_decay must lie in [0, 1)")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        validate_architecture(self.hidden_dims, self.activation)

    @property
    def unlabeled_batch(self) -> int:
        return self.labeled_batch * self.unlabeled_ratio

    @property
    def total_steps(self) -> int:
        return self.total_epochs * self.steps_per_epoch


def paper_scale_config(**overrides) -> TrainConfig:
    """Preset mirroring the original large-scale recipe (2**18 total steps,
    labeled batch 64); keep the desk-scale defaults for everything else.
    ``overrides`` win over the preset."""
    preset = TrainConfig(total_epochs=256, steps_per_epoch=1024, labeled_batch=64)
    return replace(preset, **overrides)


@dataclass
class Losses:
    """Per-epoch mean of each head's summed batch losses."""

    primary: float
    auxiliary: float


@dataclass
class PoolSize:
    """Base labeled rows ``n`` and accepted pseudo-labeled rows ``m_hat``."""

    n: int
    m_hat: int


@dataclass
class EpochReport:
    """One epoch's record; its fields up to ``pi`` are the ``history.jsonl`` row
    (``metrics.evaluate_epoch`` documents the metric fields)."""

    epoch: int
    acc: float
    macro_f1: float
    per_class_acc: list[float]
    err_rate: float
    util_rate: float
    kl: float | None
    O_t: int
    eps_t: float
    R_t: float
    lambda_t: float
    cum_eps: float
    losses: Losses
    pool: PoolSize
    pi: list[float]
    class_stats: list[dict] | None = None
    wall_clock: float = 0.0

    def to_record(self) -> dict:
        """JSONL row; deliberately excludes wall-clock so logs are replayable."""
        record = asdict(self)
        del record["class_stats"], record["wall_clock"]
        return record


@dataclass
class RunHistory:
    method: str
    reports: list[EpochReport]
    state: ModelState
    registry: PseudoRegistry | None = None
    pool: LabeledPool | None = None
    policy: AugmentationPolicy | None = None

    def final_metrics(self) -> dict:
        return self.reports[-1].to_record()

    def to_records(self) -> list[dict]:
        return [r.to_record() for r in self.reports]


def _streams(seed: int) -> dict[str, np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(len(STREAM_NAMES))
    return {name: np.random.default_rng(child) for name, child in zip(STREAM_NAMES, children)}


def _build_model(config: TrainConfig, splits: SplitBundle) -> ModelState:
    width, c = splits.labeled.features.shape[1], splits.spec.num_classes
    return init(ModelConfig(width, c, config.hidden_dims, config.activation, config.seed))


def train(
    config: TrainConfig,
    splits: SplitBundle,
    checkpoint_dir: str | Path | None = None,
) -> RunHistory:
    """Run the full training loop; deterministic per (config, splits) seed.

    Epochs up to ``warmup_epochs`` train on labeled data only (plus the
    auxiliary branch when enabled). Afterwards each batch commits reliable
    votes, re-resolves the pool, refreshes the prior, and optionally expands
    minority classes before the SGD step at the cosine learning rate.
    """
    return _run("cpg", config, splits, checkpoint_dir)


def run_baseline(kind: str, config: TrainConfig, splits: SplitBundle) -> RunHistory:
    """Reference learners: the training loop with the aux branch, the cycle
    and synthesis switched off, so they share its sampling streams and schedule.

    supervised_ce: plain cross-entropy on labeled data. supervised_la: the
    logit-adjusted loss with the base labeled prior. consistency_ssl: CE on
    labeled data plus strong-view CE against weak-view pseudo-labels gated at
    the confidence threshold (single head, no pool growth, no adjustment).
    """
    if kind not in BASELINE_KINDS:
        raise ValueError(f"kind must be one of {BASELINE_KINDS}")
    config = replace(config, use_aux_branch=False, use_cycle=False, use_synthesis=False)
    return _run(kind, config, splits)


@dataclass
class _RunState:
    """Everything one epoch hands the next; a run checkpoint is this record."""

    state: ModelState
    rngs: dict[str, np.random.Generator]
    registry: PseudoRegistry  # holds the cycle's label vector
    stats: ClassStats
    reports: list[EpochReport] = field(default_factory=list)
    global_step: int = 0
    epoch: int = 0  # the last completed epoch


def _run(
    method: str,
    config: TrainConfig,
    splits: SplitBundle,
    checkpoint_dir: str | Path | None = None,
    run: _RunState | None = None,
) -> RunHistory:
    """The one training loop behind ``train`` ("cpg") and every baseline kind;
    it continues ``run`` when given one, else starts a fresh record."""
    config.validate()
    _pin_heap_thresholds()
    policy = policy_from_features(np.concatenate([splits.labeled.features, splits.unlabeled.features]))
    uview = splits.unlabeled_view()
    m = uview.ids.size
    adjusted = method in ("cpg", "supervised_la")
    gated_consistency = method == "consistency_ssl"

    c = splits.spec.num_classes
    if run is None:
        state = _build_model(config, splits)
        registry = PseudoRegistry(uview.ids, c, grow_only=config.freeze_resolved)
        run = _RunState(state, _streams(config.seed), registry, ClassStats(c, state.config.rep_dim))
    elif not np.array_equal(run.registry.ids, uview.ids):
        raise ValueError("checkpoint registry ids do not match the unlabeled split's rows")
    pool, prior, log_pi, minority = _grown(
        LabeledPool.from_split(splits.labeled, c), run.registry.resolved, uview, adjusted
    )

    b_l = config.labeled_batch
    b_u = config.unlabeled_batch

    for epoch in range(run.epoch + 1, config.total_epochs + 1):
        started = time.perf_counter()
        run.registry.begin_epoch(epoch)
        primary_sum = 0.0
        aux_sum = 0.0
        for step in range(1, config.steps_per_epoch + 1):
            cycle_active = config.use_cycle and epoch > config.warmup_epochs
            synth_active = config.use_synthesis and epoch > config.warmup_epochs
            need_unlabeled = config.use_aux_branch or cycle_active or gated_consistency

            if need_unlabeled:
                u_rows = run.rngs["unlabeled"].integers(0, m, size=b_u)
                x_u = uview.features[u_rows]
                weak_u = weak_view_batch(x_u, policy, run.rngs["views"])
                strong_u = strong_view_batch(x_u, policy, run.rngs["views"])
                # one forward of [weak; strong] serves every reader of the batch:
                # the filter reads both views, the pseudo-labels the weak one,
                # and the loss's strong-view parts the strong rows' layers
                layers: list[np.ndarray] = []
                h_u = encode(run.state, np.concatenate([weak_u, strong_u]), layers)
                strong_layers = [a[b_u:] for a in layers]
                if cycle_active:
                    vpb = predict_views(run.state, h_u)
                if config.use_aux_branch:
                    aux_pseudo = np.argmax(head_logits(run.state, "auxiliary", h_u[:b_u]), axis=1)
                if gated_consistency:
                    weak_labels, weak_confs = top_class(run.state, h_u[:b_u])

            if cycle_active:
                fired = reliability_mask_batch(vpb, config.confidence_threshold)
                voted = u_rows[fired]
                for row, label in zip(voted.tolist(), vpb.labels_weak[fired].tolist()):
                    run.registry.record_vote(row, label)
                # only the rows voted on this step can change their resolution,
                # and a step that changed no label keeps the pool and all that
                # follows from it
                if run.registry.resolve(config.min_votes, config.majority_frac, rows=voted):
                    pool, prior, log_pi, minority = _grown(pool, run.registry.resolved, uview, adjusted)

            rows = run.rngs["labeled"].integers(0, pool.size, size=b_l)
            x_b, y_b = pool.take(rows)

            # one forward of x_b serves the class stats and the loss's x_b parts
            b_layers: list[np.ndarray] = []
            reps = encode(run.state, x_b, b_layers)
            primary = BatchPart("primary", b_layers, y_b, log_pi)
            if synth_active:
                update_class_stats(run.stats, reps, y_b, config.ema_decay)
                plan = plan_synthesis(y_b, minority, run.stats, run.rngs["synth"])
                if plan is not None:
                    primary.synth = SynthPlan(*plan)
            parts = [primary]

            if config.use_aux_branch:
                parts.append(BatchPart("auxiliary", b_layers, y_b, log_pi))
                parts.append(BatchPart("auxiliary", strong_layers, aux_pseudo, None))

            if gated_consistency:
                keep = weak_confs > config.confidence_threshold
                if keep.any():
                    kept = [a[keep] for a in strong_layers]
                    parts.append(BatchPart("primary", kept, weak_labels[keep], None, normalizer=b_u))

            try:
                _, part_means = loss_and_grads(run.state, parts)
            except NonFiniteLossError as exc:
                raise TrainingDiverged(epoch, step, str(exc)) from exc
            lr = cosine_lr(run.global_step, config.optimizer.base_lr, config.total_steps)
            sgd_step(run.state, config.optimizer, lr)
            run.global_step += 1

            primary_sum += part_means[0]
            aux_sum += sum(part_means[1:])
            # release this step's activations before the next step's forward
            # allocates its own; holding both raised peak RSS by about 0.5%
            parts = primary = layers = strong_layers = b_layers = reps = h_u = None

        labels = run.registry.resolved
        if gated_consistency:
            labels = metrics_mod.threshold_assignments(
                run.state, splits, policy, config.confidence_threshold, run.rngs["audit"]
            )
        run.reports.append(
            EpochReport(
                epoch=epoch,
                **metrics_mod.evaluate_epoch(run.state, splits, labels, run.reports[-1] if run.reports else None),
                losses=Losses(primary_sum / config.steps_per_epoch, aux_sum / config.steps_per_epoch),
                pool=PoolSize(int(splits.labeled.ids.size), pool.pseudo_size),
                pi=prior.tolist(),
                class_stats=run.stats.rows() if config.use_synthesis else None,
                wall_clock=time.perf_counter() - started,
            )
        )
        run.epoch = epoch
        if (
            checkpoint_dir is not None
            and config.checkpoint_every > 0
            and epoch % config.checkpoint_every == 0
            and epoch < config.total_epochs
        ):
            save_run_checkpoint(Path(checkpoint_dir) / f"checkpoint_epoch{epoch:04d}.npz", config, run)

    return RunHistory(
        method=method,
        reports=run.reports,
        state=run.state,
        registry=run.registry if method == "cpg" else None,
        pool=pool,
        policy=policy,
    )


def _grown(pool: LabeledPool, labels: np.ndarray, source: UnlabeledView, adjusted: bool) -> tuple:
    """The pool whose pseudo portion is ``labels`` and what follows from it
    alone: its prior, the loss's log prior (None unless ``adjusted``) and its
    minority classes."""
    pool = update_pool(pool, labels, source)
    prior = class_distribution(pool)
    return pool, prior, np.log(prior) if adjusted else None, minority_classes(pool.phi)


def _pin_heap_thresholds() -> None:
    """Fix glibc's heap thresholds; idempotent, skipped without ``mallopt`` (macOS).
    Adaptive ones hand a step's freed numpy blocks back to the OS and the next
    step faults them in again: up to ~100,000 minor faults per desk-scale call."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at the ceiling of glibc's adaptive rule
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def predict_views(state: ModelState, reps: np.ndarray) -> ViewPredictionBatch:
    """``network.top_class`` of the weak and the strong view. ``reps`` encodes
    the stacked ``[weak; strong]`` block, one forward for both views."""
    labels, confs = top_class(state, reps)
    n = reps.shape[0] // 2
    return ViewPredictionBatch(
        labels_weak=labels[:n], confs_weak=confs[:n], labels_strong=labels[n:], confs_strong=confs[n:]
    )


# ---------------------------------------------------------------------------
# Run checkpoint: an npz of the run's arrays beside one JSON header
# ---------------------------------------------------------------------------


@dataclass
class _CheckpointHeader:
    """What a run checkpoint holds besides arrays. The model and the optimizer
    follow from ``config`` and the split, so only their vectors are stored."""

    config: TrainConfig
    epoch: int
    global_step: int
    rng_states: dict[str, dict]
    reports: list[EpochReport]


def save_run_checkpoint(path: str | Path, config: TrainConfig, run: _RunState) -> Path:
    """Write ``run`` whole, atomically; ``resume_training`` reads it back, with
    every float64 array bit-exact."""
    rng_states = {name: rng.bit_generator.state for name, rng in run.rngs.items()}
    header = _CheckpointHeader(config, run.epoch, run.global_step, rng_states, run.reports)
    text = json.dumps({"version": CHECKPOINT_VERSION, **asdict(header)})
    arrays = {
        "header": np.frombuffer(text.encode("utf-8"), dtype=np.uint8),
        "params": run.state.params.flat,
        "momentum": run.state.momentum.flat,
        **_arrays("registry", run.registry),
        **_arrays("stats", run.stats),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path, "wb") as fh:
        np.savez(fh, **arrays)
    return path


def resume_training(
    path: str | Path,
    splits: SplitBundle,
    checkpoint_dir: str | Path | None = None,
) -> RunHistory:
    """Continue a checkpointed run; the result matches the uninterrupted run."""
    with np.load(Path(path), allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    raw = json.loads(bytes(arrays.pop("header")).decode("utf-8"))
    version = raw.pop("version", None)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    header = from_mapping(_CheckpointHeader, raw)
    state = _build_model(header.config, splits)
    for name in ("params", "momentum"):
        flat = getattr(state, name).flat
        if arrays[name].shape != flat.shape:
            raise ValueError(
                f"checkpoint {name} hold {arrays[name].size} values; the model "
                f"for its config and this split has {flat.size}"
            )
        flat[...] = arrays[name]
    rngs = _streams(0)
    for name, rng in rngs.items():
        rng.bit_generator.state = header.rng_states[name]
    c = splits.spec.num_classes
    ids = arrays.get("registry.ids", splits.unlabeled.ids)  # if missing, _restore names it
    run = _RunState(
        state=state,
        rngs=rngs,
        registry=_restore(PseudoRegistry(ids, c, header.config.freeze_resolved), "registry", arrays),
        stats=_restore(ClassStats(c, state.config.rep_dim), "stats", arrays),
        reports=header.reports,
        global_step=header.global_step,
        epoch=header.epoch,
    )
    return _run("cpg", header.config, splits, checkpoint_dir, run)


def _arrays(prefix: str, obj) -> dict[str, np.ndarray]:
    """Checkpoint form of a registry or class stats: its ndarray attributes,
    each under ``<prefix>.<attribute>``."""
    return {f"{prefix}.{k}": v for k, v in vars(obj).items() if isinstance(v, np.ndarray)}


def _restore(obj, prefix: str, arrays: dict[str, np.ndarray]):
    """Inverse of ``_arrays``: set each ndarray attribute of the fresh ``obj``
    to the array saved under ``<prefix>.<attribute>``, which must be there
    with the same shape and dtype."""
    for key, fresh in _arrays(prefix, obj).items():
        saved = arrays.get(key)
        if saved is None or saved.shape != fresh.shape or saved.dtype != fresh.dtype:
            raise ValueError(f"checkpoint {key} is missing or is not a {fresh.shape} array of {fresh.dtype}")
        setattr(obj, key.partition(".")[2], saved)
    return obj
