import json
from pathlib import Path

import numpy as np
import pytest

import pseudopool.augment
import pseudopool.cycle
import pseudopool.losses
import pseudopool.network
import pseudopool.training
from pseudopool.datasets import generate_splits
from pseudopool.metrics import predict_batch
from pseudopool.network import ModelConfig, OptimizerConfig, encode, head_logits, init
from pseudopool.training import (
    TrainConfig,
    TrainingDiverged,
    paper_scale_config,
    predict,
    resume_training,
    run_baseline,
    train,
)

from conftest import tiny_spec


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
        assert [r.primary_loss for r in cpg.reports] == [r.primary_loss for r in la.reports]
        assert [r.metrics["acc"] for r in cpg.reports] == [r.metrics["acc"] for r in la.reports]
        for name in cpg.state.params:
            assert np.array_equal(cpg.state.params[name], la.state.params[name])
        assert cpg.pool.pseudo_size == 0

    def test_warmup_equal_to_total_commits_nothing(self, tiny_splits):
        cfg = fast_config(warmup_epochs=24)
        history = train(cfg, tiny_splits)
        assert history.registry.votes.sum() == 0
        assert history.pool.pseudo_size == 0
        assert all(r.metrics["utilization_rate"] == 0.0 for r in history.reports)

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
        assert predict(state, np.zeros(2)) == 0

    def test_tie_breaks_to_lowest_index(self):
        state = init(ModelConfig(input_dim=2, num_classes=4, hidden_dims=(4,), init_seed=0))
        for name in state.params:
            state.params[name][:] = 0.0
        assert predict(state, np.ones(2)) == 0

    def test_handcrafted_linear_regions(self):
        state = init(ModelConfig(input_dim=2, num_classes=2, hidden_dims=(2,), init_seed=0))
        state.params["enc0_w"][:] = np.eye(2)
        state.params["enc0_b"][:] = 0.0
        state.params["head_primary_w"][:] = np.eye(2)
        state.params["head_primary_b"][:] = 0.0
        assert predict(state, np.array([3.0, 1.0])) == 0
        assert predict(state, np.array([1.0, 3.0])) == 1

    def test_auxiliary_branch_flag(self):
        state = init(ModelConfig(input_dim=2, num_classes=2, hidden_dims=(2,), init_seed=3))
        x = np.array([0.5, -0.5])
        aux_logits = head_logits(state, "auxiliary", encode(state, x))
        assert predict(state, x, branch="auxiliary") == int(np.argmax(aux_logits))


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

    def test_pool_census_matches_recount_every_step(self, tiny_splits):
        checks = []

        def callback(info):
            scratch = info.pool.recount()
            incremental = info.pool.phi
            checks.append(np.max(np.abs(scratch - incremental)))
            pi = info.prior.probabilities
            assert np.max(np.abs(pi - scratch / scratch.sum())) < 1e-12

        train(fast_config(total_epochs=10), tiny_splits, step_callback=callback)
        assert checks and max(checks) == 0

    def test_divergence_raises_with_location(self, tiny_splits):
        cfg = fast_config(optimizer=OptimizerConfig(base_lr=1e14, total_steps=None))
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as err:
            train(cfg, tiny_splits)
        assert err.value.epoch >= 1
        assert err.value.step >= 1

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


class TestBaselines:
    def test_uniform_labeled_la_equals_ce_trajectory(self):
        spec = tiny_spec(gamma_l=1.0, n_max=10, seed=2)
        splits = generate_splits(spec)
        cfg = fast_config(total_epochs=10)
        la = run_baseline("supervised_la", cfg, splits)
        ce = run_baseline("supervised_ce", cfg, splits)
        for name in la.state.params:
            assert np.allclose(la.state.params[name], ce.state.params[name], atol=1e-12)
        assert [r.metrics["acc"] for r in la.reports] == [r.metrics["acc"] for r in ce.reports]

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
            assert np.array_equal(full.pool.pseudo_ids, resumed.pool.pseudo_ids)
            assert np.array_equal(full.pool.pseudo_labels, resumed.pool.pseudo_labels)

    def test_resume_onto_other_unlabeled_rows_rejected(self, tiny_splits, tmp_path):
        cfg = fast_config(total_epochs=10, warmup_epochs=2, checkpoint_every=4)
        train(cfg, tiny_splits, checkpoint_dir=tmp_path)
        other = generate_splits(tiny_spec(m_max=90))
        with pytest.raises(ValueError, match="unlabeled"):
            resume_training(tmp_path / "checkpoint_epoch0004.npz", other)


class TestHiddenLabelFirewall:
    TRAINING_MODULES = (
        pseudopool.training,
        pseudopool.cycle,
        pseudopool.network,
        pseudopool.losses,
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


class TestFreezeResolved:
    def test_frozen_assignments_never_shrink(self, tiny_splits):
        cfg = fast_config(total_epochs=30, warmup_epochs=5, freeze_resolved=True, min_votes=2)
        sizes = []
        kept: dict[int, int] = {}

        def callback(info):
            sizes.append(info.pool.pseudo_size)
            pool = dict(zip(info.pool.pseudo_ids.tolist(), info.pool.pseudo_labels.tolist()))
            assert all(pool.get(sid) == label for sid, label in kept.items())
            kept.update(pool)

        train(cfg, tiny_splits, step_callback=callback)
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))
        assert kept
