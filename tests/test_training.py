import copy
import json
import os
import pickle
import platform
import re
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pseudopool.augment
import pseudopool.cycle
import pseudopool.metrics
import pseudopool.network
import pseudopool.training
from pseudopool.datasets import UnlabeledSplit, generate_splits
from pseudopool.metrics import predict_batch
from pseudopool.network import ModelConfig, OptimizerConfig, cosine_lr, init
from pseudopool.records import ConfigError
from pseudopool.training import (
    BASELINE_KINDS,
    CHECKPOINT_VERSION,
    TrainConfig,
    TrainingDiverged,
    paper_scale_config,
    resume_training,
    run_baseline,
    train,
)

from conftest import tiny_spec
from step_reference import reference_loss_and_grads, reference_update_class_stats
from test_cycle import brute_resolve


def fast_config(**overrides) -> TrainConfig:
    defaults = dict(
        total_epochs=24,
        warmup_epochs=6,
        steps_per_epoch=6,
        labeled_batch=8,
        unlabeled_ratio=3,
        min_votes=3,
        majority_frac=0.6,
        hidden_dims=(16, 16),
        seed=0,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestDegenerateToggles:
    def test_all_off_equals_supervised_la_exactly(self, tiny_splits):
        cfg = fast_config(use_aux_branch=False, use_cycle=False, use_synthesis=False)
        cpg = train(cfg, tiny_splits)
        la = run_baseline("supervised_la", cfg, tiny_splits)
        assert [r.losses.primary for r in cpg.reports] == [r.losses.primary for r in la.reports]
        assert [r.acc for r in cpg.reports] == [r.acc for r in la.reports]
        for name in cpg.state.params:
            assert np.array_equal(cpg.state.params[name], la.state.params[name])
        assert cpg.pool.pseudo_size == 0

    def test_warmup_equal_to_total_commits_nothing(self, tiny_splits):
        cfg = fast_config(warmup_epochs=24)
        history = train(cfg, tiny_splits)
        assert history.registry.votes.sum() == 0
        assert history.pool.pseudo_size == 0
        assert all(r.util_rate == 0.0 for r in history.reports)

    def test_gate_blocks_votes_during_warmup(self, tiny_splits):
        cfg = fast_config()
        history = train(cfg, tiny_splits)
        first = history.registry.first_vote_epoch
        assert np.all((first == -1) | (first > cfg.warmup_epochs))


class TestPredict:
    def test_argmax_of_logits(self):
        state = init(ModelConfig(input_dim=2, num_classes=3, hidden_dims=(4,), init_seed=0))
        state.params["head_primary_w"][:] = 0.0
        state.params["head_primary_b"][:] = np.array([2.0, 1.0, 0.0])
        assert predict_batch(state, np.zeros((1, 2))).tolist() == [0]

    def test_tie_breaks_to_lowest_index(self):
        state = init(ModelConfig(input_dim=2, num_classes=4, hidden_dims=(4,), init_seed=0))
        for name in state.params:
            state.params[name][:] = 0.0
        assert predict_batch(state, np.ones((3, 2))).tolist() == [0, 0, 0]

    def test_handcrafted_linear_regions(self):
        state = init(ModelConfig(input_dim=2, num_classes=2, hidden_dims=(2,), init_seed=0))
        state.params["enc0_w"][:] = np.eye(2)
        state.params["enc0_b"][:] = 0.0
        state.params["head_primary_w"][:] = np.eye(2)
        state.params["head_primary_b"][:] = 0.0
        assert predict_batch(state, np.array([[3.0, 1.0], [1.0, 3.0]])).tolist() == [0, 1]


def pool_and_prior_per_step(monkeypatch) -> list[tuple]:
    """Per training step, one ``training._step`` call: the pool and the
    prior that the call's record holds when the step returns."""
    steps = []
    step = pseudopool.training._step

    def recorded(run, call, epoch, index):
        means = step(run, call, epoch, index)
        steps.append((call.pool, call.prior))
        return means

    monkeypatch.setattr(pseudopool.training, "_step", recorded)
    return steps


def encoder_calls_per_step(monkeypatch, method: str, cfg: TrainConfig, splits) -> list[Counter]:
    """Per training step, one ``training._step`` call: the rows the encoder
    forward sees (``rows``), the forwards run inside ``loss_and_grads``
    (``loss_forwards``), the encoder backwards and the synthesis calls."""
    calls, steps, scope = Counter(), [], ["step"]
    encode, step = pseudopool.network.encode, pseudopool.training._step

    def counted_encode(state, x, layers=None):
        calls["rows"] += np.atleast_2d(x).shape[0]
        calls["loss_forwards"] += scope[-1] == "loss"
        return encode(state, x, layers)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    def scoped(name, fn):
        def wrapper(*args, **kwargs):
            scope.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                scope.pop()

        return wrapper

    def counted_step(*args):
        calls.clear()
        means = step(*args)
        steps.append(calls.copy())
        return means

    # encode under the names its callers look it up by: the step's and the loss's
    for owner in (pseudopool.training, pseudopool.network):
        monkeypatch.setattr(owner, "encode", counted_encode)
    for name in ("_backprop_encoder", "synthesize"):
        monkeypatch.setattr(pseudopool.network, name, counted(name, getattr(pseudopool.network, name)))
    monkeypatch.setattr(pseudopool.training, "loss_and_grads", scoped("loss", pseudopool.training.loss_and_grads))
    monkeypatch.setattr(pseudopool.training, "_step", counted_step)
    if method == "cpg":
        train(cfg, splits)
    else:
        run_baseline(method, cfg, splits)
    return steps


def assert_each_row_encoded_once(steps: list[Counter], bound: int) -> None:
    """Every step encodes at most ``bound`` rows, none inside the loss, and
    makes one encoder backward."""
    for c in steps:
        assert c["loss_forwards"] == 0 and c["_backprop_encoder"] == 1, c
        assert 0 < c["rows"] <= bound, c


class TestTrainingRun:
    def test_filtered_error_beats_unfiltered_argmax(self):
        # accepted pseudo-labels must be cleaner than blanket argmax labels
        spec = tiny_spec(num_classes=3, n_max=20, m_max=100, seed=1)
        splits = generate_splits(spec)
        cfg = fast_config(total_epochs=40, warmup_epochs=10, steps_per_epoch=10, min_votes=8)
        history = train(cfg, splits)
        final = history.final_metrics()
        assert final["util_rate"] > 0.0
        preds = predict_batch(history.state, splits.unlabeled.features)
        unfiltered_error = float(np.mean(preds != splits.unlabeled.hidden_labels))
        assert final["err_rate"] < unfiltered_error

    def test_determinism_byte_identical(self, tiny_splits):
        cfg = fast_config()
        a = train(cfg, tiny_splits)
        b = train(cfg, tiny_splits)
        assert json.dumps(a.to_records()) == json.dumps(b.to_records())

    def test_seed_changes_trajectory(self, tiny_splits):
        a = train(fast_config(seed=0), tiny_splits)
        b = train(fast_config(seed=1), tiny_splits)
        assert json.dumps(a.to_records()) != json.dumps(b.to_records())

    def test_pool_census_matches_recount_every_step(self, tiny_splits, monkeypatch):
        checks = []
        steps = pool_and_prior_per_step(monkeypatch)
        train(fast_config(total_epochs=10), tiny_splits)
        for pool, prior in steps:
            scratch = pool.recount()
            checks.append(np.max(np.abs(scratch - pool.phi)))
            assert np.max(np.abs(prior - scratch / scratch.sum())) < 1e-12
        assert len(checks) == 10 * fast_config().steps_per_epoch and max(checks) == 0

    def test_post_warmup_cpg_step_encodes_no_row_twice_and_makes_one_backward(self, tiny_splits, monkeypatch):
        # the filter's [weak; strong] forward also serves the loss's strong-view
        # part, and the class stats' forward of x_b serves the loss's x_b parts,
        # so a step encodes each of its 2*b_u view rows and b_l labeled rows
        # once; one stacked loss pass, synthesis included, ends in one backward
        cfg = fast_config(total_epochs=6, warmup_epochs=2, min_votes=1)
        steps = encoder_calls_per_step(monkeypatch, "cpg", cfg, tiny_splits)
        cycle_steps = steps[cfg.warmup_epochs * cfg.steps_per_epoch :]
        assert len(cycle_steps) == (cfg.total_epochs - cfg.warmup_epochs) * cfg.steps_per_epoch
        assert_each_row_encoded_once(cycle_steps, 2 * cfg.unlabeled_batch + cfg.labeled_batch)
        assert sum(c["synthesize"] for c in cycle_steps) > 0

    @pytest.mark.parametrize("method", ["cpg", *BASELINE_KINDS])
    def test_warmup_and_baseline_steps_encode_no_row_twice_and_make_one_backward(
        self, tiny_splits, monkeypatch, method
    ):
        # x_b has one forward outside the loss in every phase of every method;
        # the supervised baselines draw no unlabeled batch, so x_b is all they encode
        cfg = fast_config(total_epochs=4, warmup_epochs=2, min_votes=1)
        steps = encoder_calls_per_step(monkeypatch, method, cfg, tiny_splits)
        if method == "cpg":
            steps = steps[: cfg.warmup_epochs * cfg.steps_per_epoch]
        assert len(steps) == (cfg.warmup_epochs if method == "cpg" else cfg.total_epochs) * cfg.steps_per_epoch
        if method.startswith("supervised"):
            assert all(c["rows"] == cfg.labeled_batch for c in steps)
        assert_each_row_encoded_once(steps, 2 * cfg.unlabeled_batch + cfg.labeled_batch)

    def test_divergence_raises_with_location(self, tiny_splits):
        cfg = fast_config(optimizer=OptimizerConfig(base_lr=1e14))
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as err:
            train(cfg, tiny_splits)
        assert err.value.epoch >= 1
        assert err.value.step >= 1

    def test_divergent_update_raises_with_location(self, tiny_splits):
        # the loss stays finite, and the first update overflows in sgd_step
        cfg = fast_config(optimizer=OptimizerConfig(base_lr=1e10, weight_decay=1e300))
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as err:
            train(cfg, tiny_splits)
        assert str(err.value) == "non-finite update in parameter enc0_w at epoch 1, step 1"

    def test_relu_run_survives_a_zero_norm_minority_row(self, caplog):
        # a one-unit relu encoder maps some rows to exactly zero; the class
        # stats skip them, and the synthesis plan must skip them too, since
        # synthesize has no direction to expand a zero representation along
        cfg = TrainConfig(
            total_epochs=3, warmup_epochs=0, steps_per_epoch=2, labeled_batch=4, unlabeled_ratio=2,
            confidence_threshold=0.01, min_votes=2, majority_frac=0.5, use_aux_branch=False,
            hidden_dims=(2,), seed=71,
        )
        spec = tiny_spec(n_max=9, m_max=11, gamma_l=1.0, gamma_u=1.0, unlabeled_shape="consistent",
                         test_per_class=3, seed=71)
        history = train(cfg, generate_splits(spec))
        assert len(history.reports) == 3
        assert "zero-norm representation" in caplog.text

    def test_epoch_report_schema(self, tiny_splits):
        history = train(fast_config(total_epochs=8, warmup_epochs=2), tiny_splits)
        record = history.final_metrics()
        expected_keys = {
            "epoch", "acc", "macro_f1", "per_class_acc", "err_rate", "util_rate",
            "kl", "O_t", "eps_t", "R_t", "lambda_t", "cum_eps", "losses", "pool", "pi",
        }
        assert set(record) == expected_keys
        assert record["O_t"] == record["pool"]["n"] + record["pool"]["m_hat"]
        assert abs(sum(record["pi"]) - 1.0) < 1e-9


def fresh_cpg_call(config: TrainConfig, splits) -> tuple:
    """A fresh run record and the call record of a "cpg" run, from the two
    builders ``training._run`` uses."""
    run = pseudopool.training._fresh_run(config, splits)
    return run, pseudopool.training._Call.start("cpg", config, splits, run.registry.resolved)


def step_fields(config, run) -> dict:
    """``run_fields`` without what only ``_run`` writes: the epoch's report."""
    fields = run_fields(config, run)
    del fields["reports"]
    return fields


class TestStepSeam:
    """``training._step`` runs one step on its own: from a fresh run state it
    leaves what a one-step ``_run`` leaves."""

    def test_one_step_equals_a_one_step_run(self, tiny_splits, monkeypatch):
        cfg = fast_config(
            total_epochs=1, warmup_epochs=0, steps_per_epoch=1, min_votes=1, confidence_threshold=0.3, seed=2
        )
        runs, plans = [], []
        step, plan_synthesis = pseudopool.training._step, pseudopool.training.plan_synthesis

        def kept(run, *args):
            runs.append(run)
            return step(run, *args)

        def planned(*args):
            plans.append(plan_synthesis(*args))
            return plans[-1]

        monkeypatch.setattr(pseudopool.training, "_step", kept)
        monkeypatch.setattr(pseudopool.training, "plan_synthesis", planned)
        history = train(cfg, tiny_splits)
        run, call = fresh_cpg_call(cfg, tiny_splits)
        run.registry.begin_epoch(1)
        means = step(run, call, 1, 1)
        assert len(runs) == 1 and runs[0] is not run
        assert step_fields(cfg, run) == step_fields(cfg, runs[0])
        assert means == (history.reports[0].losses.primary, history.reports[0].losses.auxiliary)
        assert np.array_equal(call.pool.pseudo_rows, history.pool.pseudo_rows)
        assert call.prior.tolist() == history.reports[0].pi
        # the step voted, grew the pool and synthesized, both times
        assert run.registry.votes.sum() > 0 and call.pool.pseudo_size > 0
        assert len(plans) == 2 and all(plan is not None for plan in plans)


class TestReferenceStep:
    """A whole run with the step's kept reference bodies swapped in
    (``tests/step_reference.py``) gives the shipped run's bits, on whatever
    BLAS build the tests run on."""

    @pytest.mark.parametrize(
        "method, overrides",
        [("cpg", {}), ("cpg", {"freeze_resolved": True})] + [(kind, {}) for kind in BASELINE_KINDS],
        ids=["cpg", "cpg-freeze", *BASELINE_KINDS],
    )
    def test_run_equals_reference_bodies(self, tiny_splits, monkeypatch, method, overrides):
        cfg = fast_config(**overrides)

        def run():
            return train(cfg, tiny_splits) if method == "cpg" else run_baseline(method, cfg, tiny_splits)

        synth_rows = []
        plan_synthesis = pseudopool.training.plan_synthesis

        def counted_plan(*args):
            plan = plan_synthesis(*args)
            synth_rows.append(0 if plan is None else plan[0].size)
            return plan

        monkeypatch.setattr(pseudopool.training, "plan_synthesis", counted_plan)
        shipped = run()
        monkeypatch.setattr(pseudopool.training, "loss_and_grads", reference_loss_and_grads)
        monkeypatch.setattr(pseudopool.training, "update_class_stats", reference_update_class_stats)
        kept = run()
        assert json.dumps(shipped.to_records()) == json.dumps(kept.to_records())
        assert shipped.state.params.flat.tobytes() == kept.state.params.flat.tobytes()
        # the cpg runs reach the synthesized rows the rewrite touches most
        assert (sum(synth_rows) > 0) == (method == "cpg")


class TestRunHistoryCopy:
    """A trained history can cross a process boundary: pickle and deepcopy
    rebuild each parameter view over the copy's own flat vector."""

    @pytest.mark.parametrize(
        "clone", [lambda h: pickle.loads(pickle.dumps(h)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_round_trip_keeps_bytes_and_views(self, tiny_splits, clone):
        history = train(fast_config(total_epochs=8, warmup_epochs=2), tiny_splits)
        twin = clone(history)
        assert pickle.dumps(twin) == pickle.dumps(history)
        assert twin.to_records() == history.to_records()
        x = tiny_splits.test.features
        assert predict_batch(twin.state, x).tobytes() == predict_batch(history.state, x).tobytes()
        for name in ("params", "momentum", "grads"):
            ours, theirs = getattr(twin.state, name), getattr(history.state, name)
            assert ours.flat.tobytes() == theirs.flat.tobytes()
            assert not np.shares_memory(ours.flat, theirs.flat)
        start = {name: start for name, start, *_ in twin.state.layout}["enc0_w"]
        before = history.state.params.flat[start]
        twin.state.params["enc0_w"][0, 0] += 1.0
        assert twin.state.params.flat[start] == before + 1.0
        assert history.state.params.flat[start] == before


class TestBaselines:
    def test_uniform_labeled_la_equals_ce_trajectory(self):
        spec = tiny_spec(gamma_l=1.0, n_max=10, seed=2)
        splits = generate_splits(spec)
        cfg = fast_config(total_epochs=10)
        la = run_baseline("supervised_la", cfg, splits)
        ce = run_baseline("supervised_ce", cfg, splits)
        for name in la.state.params:
            assert np.allclose(la.state.params[name], ce.state.params[name], atol=1e-12)
        assert [r.acc for r in la.reports] == [r.acc for r in ce.reports]

    def test_consistency_with_unreachable_gate_equals_ce(self, tiny_splits):
        # tau = 1.0 never fires under the strict gate
        cfg = fast_config(total_epochs=10, confidence_threshold=1.0)
        cons = run_baseline("consistency_ssl", cfg, tiny_splits)
        ce = run_baseline("supervised_ce", cfg, tiny_splits)
        for name in cons.state.params:
            assert np.array_equal(cons.state.params[name], ce.state.params[name])

    def test_consistency_audits_pseudo_labels(self, tiny_splits):
        cfg = fast_config(total_epochs=16, confidence_threshold=0.7)
        cons = run_baseline("consistency_ssl", cfg, tiny_splits)
        final = cons.final_metrics()
        assert final["util_rate"] > 0.0
        assert 0.0 <= final["err_rate"] <= 1.0

    def test_supervised_baselines_have_no_pseudo_labels(self, tiny_splits):
        cfg = fast_config(total_epochs=6)
        for kind in ("supervised_ce", "supervised_la"):
            history = run_baseline(kind, cfg, tiny_splits)
            final = history.final_metrics()
            assert final["util_rate"] == 0.0
            assert final["kl"] is None
            assert final["O_t"] == tiny_splits.labeled.ids.size

    def test_unknown_kind_rejected(self, tiny_splits):
        with pytest.raises(ValueError):
            run_baseline("mystery", fast_config(), tiny_splits)

    @pytest.mark.parametrize(
        "method, overrides, draws",
        [
            ("cpg", {}, True),
            ("cpg", {"use_aux_branch": False}, True),  # draws once the cycle opens after warmup
            ("consistency_ssl", {}, True),
            ("supervised_la", {}, False),
            ("cpg", {"use_aux_branch": False, "use_cycle": False, "use_synthesis": False}, False),
        ],
        ids=["cpg", "cpg-no-aux", "consistency_ssl", "supervised_la", "cpg-all-off"],
    )
    def test_empty_unlabeled_split(self, tiny_splits, method, overrides, draws):
        d = tiny_splits.labeled.features.shape[1]
        empty = UnlabeledSplit(np.zeros(0, dtype=np.int64), np.zeros((0, d)), np.zeros(0, dtype=np.int64))
        splits = replace(tiny_splits, unlabeled=empty)
        cfg = fast_config(total_epochs=8, warmup_epochs=2, **overrides)
        run = (lambda: train(cfg, splits)) if method == "cpg" else (lambda: run_baseline(method, cfg, splits))
        if draws:
            with pytest.raises(ValueError, match="^the unlabeled split is empty, but this run draws unlabeled batches$"):
                run()
        else:
            assert len(run().reports) == 8


class TestCheckpointResume:
    def test_resume_reproduces_uninterrupted_run(self, tiny_splits, tmp_path):
        for freeze in (False, True):
            cfg = fast_config(
                total_epochs=20, warmup_epochs=4, checkpoint_every=8, freeze_resolved=freeze
            )
            full = train(cfg, tiny_splits)
            train(cfg, tiny_splits, checkpoint_dir=tmp_path / str(freeze))
            ckpt = tmp_path / str(freeze) / "checkpoint_epoch0008.npz"
            assert ckpt.exists()
            resumed = resume_training(ckpt, tiny_splits)
            assert json.dumps(resumed.to_records()) == json.dumps(full.to_records())
            for name in full.state.params:
                assert np.array_equal(full.state.params[name], resumed.state.params[name])
                assert np.array_equal(full.state.momentum[name], resumed.state.momentum[name])
            assert np.array_equal(full.registry.votes, resumed.registry.votes)
            assert np.array_equal(full.pool.pseudo_rows, resumed.pool.pseudo_rows)
            assert np.array_equal(full.pool.pseudo_labels, resumed.pool.pseudo_labels)

    @settings(max_examples=12, deadline=None)
    @given(
        stop=st.integers(1, 9),
        use_synthesis=st.booleans(),
        freeze_resolved=st.booleans(),
    )
    def test_resume_at_any_epoch_matches_uninterrupted_run(self, stop, use_synthesis, freeze_resolved):
        splits = generate_splits(tiny_spec())
        cfg = fast_config(
            total_epochs=10,
            warmup_epochs=2,
            steps_per_epoch=3,
            min_votes=2,
            hidden_dims=(8,),
            checkpoint_every=stop,
            use_synthesis=use_synthesis,
            freeze_resolved=freeze_resolved,
        )
        with tempfile.TemporaryDirectory() as tmp:
            full = train(cfg, splits, checkpoint_dir=tmp)
            resumed = resume_training(Path(tmp) / f"checkpoint_epoch{stop:04d}.npz", splits)
        assert resumed.to_records() == full.to_records()
        assert [r.class_stats for r in resumed.reports] == [r.class_stats for r in full.reports]
        assert np.array_equal(resumed.pool.pseudo_rows, full.pool.pseudo_rows)
        assert np.array_equal(resumed.pool.pseudo_labels, full.pool.pseudo_labels)

    def test_resume_restores_frozen_labels_not_registry_resolution(self, tmp_path):
        # with freeze_resolved, a row keeps its first label while its tallies
        # may resolve elsewhere: the checkpoint must carry the pool's labels
        splits = generate_splits(tiny_spec(seed=2))
        cfg = fast_config(
            total_epochs=20,
            warmup_epochs=2,
            checkpoint_every=5,
            freeze_resolved=True,
            min_votes=1,
            majority_frac=0.5,
            seed=2,
        )
        full = train(cfg, splits, checkpoint_dir=tmp_path)
        pool_labels = np.full(splits.unlabeled.ids.size, -1, dtype=np.int64)
        pool_labels[full.pool.pseudo_rows] = full.pool.pseudo_labels
        assert np.any(pool_labels != brute_resolve(full.registry.votes, cfg.min_votes, cfg.majority_frac))
        assert np.array_equal(pool_labels, full.registry.resolved)
        resumed = resume_training(tmp_path / "checkpoint_epoch0010.npz", splits)
        assert resumed.to_records() == full.to_records()
        assert np.array_equal(resumed.pool.pseudo_rows, full.pool.pseudo_rows)
        assert np.array_equal(resumed.pool.pseudo_labels, full.pool.pseudo_labels)

    def test_steps_walk_the_cosine_schedule_once(self, tiny_splits, tmp_path, monkeypatch):
        # a step's schedule index follows from its epoch and step: a run, and
        # a run resumed from any checkpoint, step through [0, total_steps) in order
        cfg = fast_config(total_epochs=6, warmup_epochs=2, steps_per_epoch=3, checkpoint_every=2)
        lrs = []
        sgd_step = pseudopool.training.sgd_step
        monkeypatch.setattr(
            pseudopool.training, "sgd_step", lambda state, opt, lr: (lrs.append(lr), sgd_step(state, opt, lr))
        )
        train(cfg, tiny_splits, checkpoint_dir=tmp_path)
        schedule = [cosine_lr(t, cfg.optimizer.base_lr, cfg.total_steps) for t in range(cfg.total_steps)]
        assert lrs == schedule
        for epoch in (2, 4):
            lrs.clear()
            resume_training(tmp_path / f"checkpoint_epoch{epoch:04d}.npz", tiny_splits)
            assert lrs == schedule[epoch * cfg.steps_per_epoch :]

    def test_resume_onto_other_unlabeled_rows_rejected(self, tiny_splits, tmp_path):
        cfg = fast_config(total_epochs=10, warmup_epochs=2, checkpoint_every=4)
        train(cfg, tiny_splits, checkpoint_dir=tmp_path)
        other = generate_splits(tiny_spec(m_max=90))
        with pytest.raises(ValueError, match="unlabeled"):
            resume_training(tmp_path / "checkpoint_epoch0004.npz", other)


def run_fields(config, run) -> dict:
    """Every field of a run checkpoint's record, as bytes where it is an array."""
    arrays = {f"{owner}.{k}": v for owner in ("registry", "stats") for k, v in vars(getattr(run, owner)).items()}
    return {
        "config": asdict(config),
        "params": run.state.params.flat.tobytes(),
        "momentum": run.state.momentum.flat.tobytes(),
        "rngs": {name: rng.bit_generator.state for name, rng in run.rngs.items()},
        "grow_only": run.registry.grow_only,
        "arrays": {k: v.tobytes() for k, v in arrays.items() if isinstance(v, np.ndarray)},
        "reports": [asdict(r) for r in run.reports],
    }


def rewrite_checkpoint(path, edit_header=None, drop=(), **arrays):
    """Re-save a checkpoint with its header edited in place, the arrays named
    in ``drop`` left out and ``arrays`` replaced."""
    with np.load(path) as data:
        saved = {name: data[name] for name in data.files if name not in drop}
    header = json.loads(bytes(saved["header"]).decode("utf-8"))
    if edit_header is not None:
        edit_header(header)
    saved.update(arrays, header=np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8))
    np.savez(path, **saved)


class TestRunCheckpoint:
    """``save_run_checkpoint`` and ``resume_training`` are the one writer and
    reader of a run checkpoint; with ``_run`` replaced, the reader hands back
    the record it rebuilt."""

    CONFIG = dict(total_epochs=10, warmup_epochs=2, checkpoint_every=4, freeze_resolved=True)

    @staticmethod
    def read(monkeypatch, path, splits):
        with monkeypatch.context() as patch:
            patch.setattr(pseudopool.training, "_run", lambda method, config, splits, out, run: (config, run))
            return resume_training(path, splits)

    def test_round_trip_bit_exact(self, tiny_splits, tmp_path, monkeypatch):
        saved = {}
        write = pseudopool.training.save_run_checkpoint

        def capture(path, config, run):
            saved[Path(path).name] = run_fields(config, run)
            return write(path, config, run)

        monkeypatch.setattr(pseudopool.training, "save_run_checkpoint", capture)
        train(fast_config(**self.CONFIG), tiny_splits, checkpoint_dir=tmp_path)
        assert sorted(saved) == ["checkpoint_epoch0004.npz", "checkpoint_epoch0008.npz"]
        assert saved["checkpoint_epoch0008.npz"]["arrays"] != saved["checkpoint_epoch0004.npz"]["arrays"]
        for name, fields in saved.items():
            config, run = self.read(monkeypatch, tmp_path / name, tiny_splits)
            assert run_fields(config, run) == fields
            assert run.state.params["enc0_w"].base is run.state.params.flat

    def test_failed_save_keeps_previous_checkpoint(self, tiny_splits, tmp_path, monkeypatch):
        train(fast_config(**self.CONFIG), tiny_splits, checkpoint_dir=tmp_path)
        path = tmp_path / "checkpoint_epoch0004.npz"
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        config, run = self.read(monkeypatch, tmp_path / "checkpoint_epoch0008.npz", tiny_splits)

        def failing_savez(fh, **arrays):
            fh.write(b"PK\x03\x04 partial")
            raise OSError("disk full")

        monkeypatch.setattr(pseudopool.training.np, "savez", failing_savez)
        with pytest.raises(OSError, match="disk full"):
            pseudopool.training.save_run_checkpoint(path, config, run)
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert len(self.read(monkeypatch, path, tiny_splits)[1].reports) == 4

    def test_other_version_rejected(self, tiny_splits, tmp_path, monkeypatch):
        monkeypatch.setattr(pseudopool.training, "CHECKPOINT_VERSION", CHECKPOINT_VERSION - 1)
        train(fast_config(**self.CONFIG), tiny_splits, checkpoint_dir=tmp_path)
        monkeypatch.undo()
        with pytest.raises(ValueError, match=f"unsupported checkpoint version {CHECKPOINT_VERSION - 1}"):
            resume_training(tmp_path / "checkpoint_epoch0004.npz", tiny_splits)

    def test_wrong_typed_report_field_rejected(self, tiny_splits, tmp_path):
        train(fast_config(**self.CONFIG), tiny_splits, checkpoint_dir=tmp_path)
        path = tmp_path / "checkpoint_epoch0004.npz"
        rewrite_checkpoint(path, lambda header: header["reports"][1].update(acc="x"))
        with pytest.raises(ConfigError, match="^reports.acc: expected float, got str") as err:
            resume_training(path, tiny_splits)
        assert err.value.fieldname == "reports.acc"

    @pytest.mark.parametrize("name", ["params", "momentum"])
    def test_flat_vector_of_wrong_size_rejected(self, tiny_splits, tmp_path, name):
        train(fast_config(**self.CONFIG), tiny_splits, checkpoint_dir=tmp_path)
        path = tmp_path / "checkpoint_epoch0004.npz"
        with np.load(path) as data:
            short = data[name][:-1]
        rewrite_checkpoint(path, **{name: short})
        expected = f"checkpoint {name} is missing or is not a ({short.size + 1},) array of float64"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            resume_training(path, tiny_splits)

    @pytest.mark.parametrize(
        "name, recast",
        [
            ("params", lambda flat: flat.astype(np.float32)),
            ("momentum", lambda flat: flat.astype(np.int64)),
            ("params", lambda flat: flat.reshape(2, -1)),
        ],
        ids=["float32-params", "int64-momentum", "2d-params"],
    )
    def test_flat_vector_of_other_dtype_or_shape_rejected(self, tiny_splits, tmp_path, name, recast):
        # a recast vector holds the right number of values; copying it into
        # the model would cast or reshape it silently
        train(fast_config(**self.CONFIG), tiny_splits, checkpoint_dir=tmp_path)
        path = tmp_path / "checkpoint_epoch0004.npz"
        with np.load(path) as data:
            flat = data[name]
        rewrite_checkpoint(path, **{name: recast(flat)})
        expected = f"checkpoint {name} is missing or is not a ({flat.size},) array of float64"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            resume_training(path, tiny_splits)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda states: states.pop("audit"),
            lambda states: states.update(spare=states["audit"]),
        ],
        ids=["missing", "extra"],
    )
    def test_rng_streams_other_than_the_runs_rejected(self, tiny_splits, tmp_path, edit):
        train(fast_config(**self.CONFIG), tiny_splits, checkpoint_dir=tmp_path)
        path = tmp_path / "checkpoint_epoch0004.npz"
        rewrite_checkpoint(path, lambda header: edit(header["rng_states"]))
        streams = re.escape("['audit', 'labeled', 'synth', 'unlabeled', 'views']")
        with pytest.raises(ValueError, match=rf"^checkpoint rng_states \[.*\] are not the streams {streams}$"):
            resume_training(path, tiny_splits)

    @pytest.mark.parametrize(
        "key, shorten",
        [("stats.centroids", False), ("registry.votes", False), ("registry.votes", True)],
        ids=["missing-stats.centroids", "missing-registry.votes", "misshaped-registry.votes"],
    )
    def test_incomplete_registry_or_stats_rejected(self, tiny_splits, tmp_path, key, shorten):
        train(fast_config(**self.CONFIG), tiny_splits, checkpoint_dir=tmp_path)
        path = tmp_path / "checkpoint_epoch0004.npz"
        if shorten:
            with np.load(path) as data:
                rewrite_checkpoint(path, **{key: data[key][:, :-1]})  # 2 of 3 class columns
        else:
            rewrite_checkpoint(path, drop=[key])
        with pytest.raises(ValueError, match=f"checkpoint {key} is missing or is not a "):
            resume_training(path, tiny_splits)

    def test_unexpected_array_rejected(self, tiny_splits, tmp_path):
        # no writer of this version makes the extra array, so resuming would
        # drop state the file claims to hold
        train(fast_config(**self.CONFIG), tiny_splits, checkpoint_dir=tmp_path)
        path = tmp_path / "checkpoint_epoch0004.npz"
        with np.load(path) as data:
            rewrite_checkpoint(path, **{"registry.stale": data["registry.votes"]})
        expected = "checkpoint holds arrays ['registry.stale'] that a run does not have"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            resume_training(path, tiny_splits)

    def test_report_count_that_disagrees_with_epoch_rejected(self, tiny_splits, tmp_path):
        # the resumed run starts after its last report, so a lost report would
        # replay an epoch the saved state has already trained
        train(fast_config(**self.CONFIG), tiny_splits, checkpoint_dir=tmp_path)
        path = tmp_path / "checkpoint_epoch0004.npz"
        rewrite_checkpoint(path, lambda header: header["reports"].pop())
        with pytest.raises(ValueError, match="^checkpoint holds 3 reports for epoch 4$"):
            resume_training(path, tiny_splits)


class TestHiddenLabelFirewall:
    TRAINING_MODULES = (
        pseudopool.training,
        pseudopool.cycle,
        pseudopool.network,
        pseudopool.augment,
    )

    def test_training_sources_never_mention_hidden_labels(self):
        for module in self.TRAINING_MODULES:
            source = Path(module.__file__).read_text()
            assert "hidden_label" not in source, f"{module.__name__} touches hidden labels"

    def test_metrics_is_the_sole_consumer(self):
        import pseudopool.metrics

        source = Path(pseudopool.metrics.__file__).read_text()
        assert "hidden_labels" in source

    def test_unlabeled_view_carries_no_ground_truth(self, tiny_splits):
        view = tiny_splits.unlabeled_view()
        assert set(vars(view)) == {"ids", "features"}


class TestPresets:
    def test_paper_scale_preserves_original_budget(self):
        cfg = paper_scale_config()
        assert cfg.total_steps == 2**18
        assert cfg.labeled_batch == 64
        assert cfg.unlabeled_batch == 7 * 64
        assert cfg.warmup_epochs == 30
        assert cfg.confidence_threshold == 0.95

    def test_paper_scale_overrides_win(self):
        cfg = paper_scale_config(total_epochs=4, warmup_epochs=1, seed=3)
        assert (cfg.total_epochs, cfg.warmup_epochs, cfg.seed) == (4, 1, 3)
        assert cfg.steps_per_epoch == 1024 and cfg.labeled_batch == 64


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("min_votes", 0),
            ("majority_frac", 0.2),
            ("majority_frac", 1.5),
            ("ema_decay", 1.5),
            ("ema_decay", -0.1),
            ("confidence_threshold", 0.0),
            ("confidence_threshold", 1.5),
        ],
    )
    def test_cycle_parameters_rejected_before_epoch_one(self, tiny_splits, monkeypatch, field, value):
        steps = pool_and_prior_per_step(monkeypatch)
        with pytest.raises(ValueError, match=field):
            train(replace(fast_config(), **{field: value}), tiny_splits)
        assert steps == []


class TestFreezeResolved:
    def test_frozen_assignments_never_shrink(self, tiny_splits, monkeypatch):
        cfg = fast_config(total_epochs=30, warmup_epochs=5, freeze_resolved=True, min_votes=2)
        kept: dict[int, int] = {}
        steps = pool_and_prior_per_step(monkeypatch)
        train(cfg, tiny_splits)
        for pool, _ in steps:
            labels = dict(zip(pool.source.ids[pool.pseudo_rows].tolist(), pool.pseudo_labels.tolist()))
            assert all(labels.get(sid) == label for sid, label in kept.items())
            kept.update(labels)
        sizes = [pool.pseudo_size for pool, _ in steps]
        assert len(sizes) == cfg.total_steps and all(b >= a for a, b in zip(sizes, sizes[1:]))
        assert kept


ROOT = Path(__file__).resolve().parent.parent


def run_python(code: str) -> dict:
    """Run ``code`` in a fresh interpreter on this checkout's sources; return
    the JSON object it prints on its last line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestLeanProcess:
    def test_package_import_loads_no_module(self):
        out = run_python(
            "import json, sys\n"
            "import pseudopool\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith(('pseudopool.', 'numpy')))))\n"
        )
        assert out == []

    def test_training_never_imports_scipy(self):
        out = run_python(
            "import json, sys\n"
            "from pseudopool.datasets import DatasetSpec, generate_splits\n"
            "from pseudopool.metrics import welch_t_test\n"
            "from pseudopool.training import TrainConfig, run_baseline, train\n"
            "splits = generate_splits(DatasetSpec(num_classes=3, feature_dim=4, n_max=20, m_max=60,"
            " gamma_l=4.0, gamma_u=4.0, unlabeled_shape='arbitrary', test_per_class=10))\n"
            "cfg = TrainConfig(total_epochs=4, warmup_epochs=1, steps_per_epoch=3, labeled_batch=6,"
            " unlabeled_ratio=2, min_votes=1, majority_frac=0.6, hidden_dims=(8,))\n"
            "train(cfg, splits)\n"
            "run_baseline('consistency_ssl', cfg, splits)\n"
            "lean = 'scipy' not in sys.modules\n"
            "print(json.dumps({'lean': lean, 'welch': welch_t_test([1, 2, 3], [4, 5, 6])}))\n"
        )
        assert out["lean"]
        t, df, p = out["welch"]
        assert t == pytest.approx(-3.674, abs=1e-3)
        assert df == pytest.approx(4.0, abs=1e-9)
        assert p == pytest.approx(0.0213, abs=1e-3)

    def test_heap_pin_is_idempotent(self, monkeypatch):
        pseudopool.training._pin_heap_thresholds()
        pseudopool.training._pin_heap_thresholds()
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        libc = SimpleNamespace(mallopt=mallopt)
        monkeypatch.setattr(pseudopool.training.ctypes, "CDLL", lambda name: libc)
        pseudopool.training._pin_heap_thresholds()
        pseudopool.training._pin_heap_thresholds()
        pinned = [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
        assert calls == pinned + pinned

    def test_heap_pin_skipped_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(pseudopool.training.ctypes, "CDLL", lambda name: object())
        assert pseudopool.training._pin_heap_thresholds() is None

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap thresholds")
    def test_repeat_call_takes_few_page_faults(self):
        # the per-epoch full-split audit alone took ~6,700 faults per call
        # under glibc's adaptive thresholds
        out = run_python(
            "import json, resource\n"
            "from pseudopool.datasets import DatasetSpec, generate_splits\n"
            "from pseudopool.training import TrainConfig, run_baseline\n"
            "splits = generate_splits(DatasetSpec(num_classes=5, feature_dim=16, n_max=100,"
            " m_max=900, gamma_l=10.0, gamma_u=10.0, unlabeled_shape='arbitrary'))\n"
            "cfg = TrainConfig(total_epochs=10, warmup_epochs=3)\n"
            "faults = []\n"
            "for _ in range(2):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    run_baseline('consistency_ssl', cfg, splits)\n"
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
            "print(json.dumps(faults))\n"
        )
        assert out[1] < 1000, out
