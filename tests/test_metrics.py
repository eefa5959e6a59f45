from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy import stats as scipy_stats

from pseudopool.datasets import (
    BLOCK_ROWS,
    LabeledSplit,
    SplitBundle,
    UnlabeledSplit,
    generate_splits,
    policy_from_features,
    weak_view_batch,
)

from pseudopool import metrics
from pseudopool.metrics import (
    classification_scores,
    evaluate_epoch,
    kl_divergence,
    pseudo_audit,
    risk_terms,
    threshold_assignments,
    welch_t_test,
)
from pseudopool.network import ModelConfig, encode, init, top_class

from conftest import WIDE_SPEC, tiny_spec, traced_peak


def per_class_accuracy_loop(preds, labels, num_classes):
    """Reference: the per-class loop that the bincount version replaced."""
    out = np.zeros(num_classes)
    for c in range(num_classes):
        mask = labels == c
        if mask.any():
            out[c] = float(np.mean(preds[mask] == c))
    return out


def macro_f1_loop(preds, labels, num_classes):
    """Reference: the per-class loop that the bincount version replaced."""
    f1s = np.zeros(num_classes)
    for c in range(num_classes):
        tp = int(np.sum((preds == c) & (labels == c)))
        fp = int(np.sum((preds == c) & (labels != c)))
        fn = int(np.sum((preds != c) & (labels == c)))
        precision = tp / (tp + fp) if (tp + fp) else 0.0
        recall = tp / (tp + fn) if (tp + fn) else 0.0
        f1s[c] = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return float(np.mean(f1s))


@st.composite
def prediction_pairs(draw):
    """Class count and aligned (preds, labels), some classes possibly absent
    from either side."""
    c = draw(st.integers(2, 8))
    n = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**16))
    used = draw(st.integers(1, c))  # labels and preds drawn from the first `used` classes
    rng = np.random.default_rng(seed)
    labels = rng.integers(used, size=n)
    preds = np.where(rng.random(n) < draw(st.floats(0, 1)), labels, rng.integers(c, size=n))
    return c, preds, labels


class TestAccuracy:
    """``classification_scores``: (accuracy, per-class recall, macro-F1)."""

    @settings(max_examples=200, deadline=None)
    @given(prediction_pairs())
    def test_counts_equal_per_class_loop(self, case):
        c, preds, labels = case
        acc, per_class, f1 = classification_scores(preds, labels, c)
        assert per_class.tobytes() == per_class_accuracy_loop(preds, labels, c).tobytes()
        assert f1 == macro_f1_loop(preds, labels, c)
        assert acc == float(np.mean(preds == labels))

    def test_perfect_predictions(self):
        preds = np.array([0, 1, 2, 1])
        acc, per_class, f1 = classification_scores(preds, preds, 3)
        assert acc == 1.0
        assert per_class.tolist() == [1.0, 1.0, 1.0]
        assert f1 == 1.0

    def test_hand_computed_binary_case(self):
        preds = np.array([1, 1, 0, 0])
        labels = np.array([1, 0, 0, 0])
        acc, _, f1 = classification_scores(preds, labels, 2)
        assert acc == 0.75
        # class 0: P=1, R=2/3, F1=0.8; class 1: P=0.5, R=1, F1=2/3
        assert f1 == pytest.approx((0.8 + 2 / 3) / 2, abs=1e-12)

    def test_constant_predictor_on_balanced_labels(self):
        labels = np.repeat(np.arange(4), 25)
        preds = np.zeros_like(labels)
        acc, per_class, _ = classification_scores(preds, labels, 4)
        assert acc == 0.25
        assert per_class.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_per_class_accuracy(self):
        preds = np.array([0, 0, 1, 1, 2, 0])
        labels = np.array([0, 1, 1, 1, 2, 2])
        _, out, _ = classification_scores(preds, labels, 3)
        assert np.allclose(out, [1.0, 2 / 3, 0.5])

    def test_macro_f1_invariant_to_consistent_relabeling(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = int(rng.integers(2, 6))
            n = int(rng.integers(10, 60))
            preds = rng.integers(c, size=n)
            labels = rng.integers(c, size=n)
            perm = rng.permutation(c)
            assert classification_scores(perm[preds], perm[labels], c)[2] == pytest.approx(
                classification_scores(preds, labels, c)[2], abs=1e-12
            )

    def test_empty_input_rejected(self):
        # empty, labels shorter than preds, and preds of another shape
        for preds, labels in (([], []), ([0, 1], [0]), ([[0, 1]], [0, 1])):
            with pytest.raises(ValueError, match="equal-length and non-empty"):
                classification_scores(np.array(preds), np.array(labels), 2)


class TestPseudoAudit:
    def test_all_correct(self):
        ids = np.arange(5)
        hidden = np.array([0, 1, 2, 1, 0])
        audit = pseudo_audit(np.array([0, -1, 2, -1, -1]), hidden, 3)
        assert audit.error_rate == 0.0
        assert audit.m_hat == 2
        assert audit.utilization_rate == pytest.approx(0.4)

    def test_no_assignments_convention(self):
        audit = pseudo_audit(np.full(4, -1), np.zeros(4, dtype=int), 2)
        assert audit.error_rate == 0.0
        assert audit.utilization_rate == 0.0

    def test_randomized_pairs_match_brute_tally(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = int(rng.integers(5, 40))
            c = int(rng.integers(2, 5))
            ids = np.arange(m) + 1000
            hidden = rng.integers(c, size=m)
            chosen = rng.choice(m, size=int(rng.integers(0, m)), replace=False)
            assignments = {int(ids[i]): int(rng.integers(c)) for i in chosen}
            labels = np.array([assignments.get(int(i), -1) for i in ids])
            audit = pseudo_audit(labels, hidden, c)
            tp = np.zeros(c, dtype=int)
            fp = np.zeros(c, dtype=int)
            for i in chosen:
                if assignments[int(ids[i])] == hidden[i]:
                    tp[assignments[int(ids[i])]] += 1
                else:
                    fp[assignments[int(ids[i])]] += 1
            assert np.array_equal(audit.tp, tp)
            assert np.array_equal(audit.fp, fp)
            assert audit.accepted_counts.sum() == len(assignments)
            assert audit.error_rate == pytest.approx(fp.sum() / max(1, len(assignments)))
            assert 0.0 <= audit.utilization_rate <= 1.0


def one_pass_assignments(state, bundle, policy, tau, rng):
    """Reference: the audit as one pass over the whole unlabeled split, the
    body that the streamed version replaced."""
    weak = weak_view_batch(bundle.unlabeled_view().features, policy, rng)
    labels, confs = top_class(state, encode(state, weak))
    return np.where(confs > tau, labels, -1)


def audit_case(m, hidden_dims, seed=0):
    """A bundle with ``m`` unlabeled rows of 16 features over 5 classes, a
    freshly initialised model of the given widths, and the policy of its
    features."""
    rng = np.random.default_rng(seed)

    def rows(n, first_id):
        return np.arange(first_id, first_id + n), rng.normal(size=(n, 16)), np.arange(n) % 5

    bundle = SplitBundle(
        tiny_spec(num_classes=5, feature_dim=16),
        LabeledSplit(*rows(5, 0)),
        UnlabeledSplit(*rows(m, 5)),
        LabeledSplit(*rows(5, 5 + m)),
    )
    state = init(ModelConfig(input_dim=16, num_classes=5, hidden_dims=hidden_dims, init_seed=seed))
    return bundle, state, policy_from_features(bundle.labeled.features, bundle.unlabeled.features)


class TestThresholdAssignments:
    """The audit streams the split in row blocks and still gives the labels
    and the audit-stream state of one pass over the whole split."""

    @pytest.mark.parametrize("hidden_dims", [(64, 64), (17, 17)], ids=["64x64", "17x17"])
    @pytest.mark.parametrize(
        "m", [1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1, 1_940, 19_407]
    )
    def test_equals_one_pass(self, m, hidden_dims):
        bundle, state, policy = audit_case(m, hidden_dims, seed=m % 89)
        tau = 0.22  # near the median confidence of these fresh models: both sides of the gate fill
        streamed, one_pass = np.random.default_rng(5), np.random.default_rng(5)
        labels = threshold_assignments(state, bundle, policy, tau, streamed)
        expected = one_pass_assignments(state, bundle, policy, tau, one_pass)
        assert labels.dtype == np.int64 and labels.shape == (m,)
        assert np.array_equal(labels, expected)
        assert streamed.bit_generator.state == one_pass.bit_generator.state

    @pytest.mark.parametrize("m", [2, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1, 19_407])
    def test_blocks_encode_to_one_pass_bits(self, m, monkeypatch):
        # the (64, 64) encoder gives a row the same bits in any product of two
        # or more rows, and other bits in a one-row product
        bundle, state, policy = audit_case(m, (64, 64), seed=m % 89)
        blocks = []

        def recording_encode(state, x):
            blocks.append(encode(state, x))
            return blocks[-1]

        monkeypatch.setattr(metrics, "encode", recording_encode)
        threshold_assignments(state, bundle, policy, 0.22, np.random.default_rng(5))
        weak = weak_view_batch(bundle.unlabeled.features, policy, np.random.default_rng(5))
        assert all(2 <= len(h) <= BLOCK_ROWS + 1 for h in blocks)
        assert np.array_equal(np.concatenate(blocks), encode(state, weak))

    def test_confidence_equal_to_tau_is_gated_out(self):
        bundle, state, policy = audit_case(3, (8,))
        weak = weak_view_batch(bundle.unlabeled.features, policy, np.random.default_rng(1))
        labels, confs = top_class(state, encode(state, weak))
        for row in range(3):
            gated = threshold_assignments(state, bundle, policy, confs[row], np.random.default_rng(1))
            assert gated[row] == -1
            assert np.array_equal(gated, np.where(confs > confs[row], labels, -1))

    def test_tau_one_assigns_nothing(self):
        bundle, state, policy = audit_case(BLOCK_ROWS + 3, (8,))
        state.params["head_primary_w"] *= 1e4  # saturated softmax: many confidences are exactly 1.0
        weak = weak_view_batch(bundle.unlabeled.features, policy, np.random.default_rng(2))
        assert np.any(top_class(state, encode(state, weak))[1] == 1.0)
        gated = threshold_assignments(state, bundle, policy, 1.0, np.random.default_rng(2))
        assert np.all(gated == -1)


class TestPeakMemory:
    def test_audit_peak_is_blocks_not_the_split(self):
        bundle = generate_splits(WIDE_SPEC)
        state = init(ModelConfig(input_dim=16, num_classes=5))
        policy = policy_from_features(bundle.labeled.features, bundle.unlabeled.features)
        rng = np.random.default_rng(0)
        labels, peak = traced_peak(threshold_assignments, state, bundle, policy, 0.5, rng)
        assert labels.shape == (19_407,)
        assert peak < 0.25 * bundle.unlabeled.features.nbytes


class TestKlDivergence:
    def test_identical_distributions(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-9)

    def test_closed_form_case(self):
        # smoothing shifts the exact value by O(eps); the contract allows < 1e-6
        expected = 0.5 * np.log(2) + 0.5 * np.log(2 / 3)
        assert kl_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(expected, abs=1e-6)
        assert kl_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(0.143841, abs=1e-6)

    def test_non_negative_on_random_simplex_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            c = int(rng.integers(2, 8))
            p = rng.dirichlet(np.ones(c))
            q = rng.dirichlet(np.ones(c))
            assert kl_divergence(p, q) >= -1e-12

    def test_tolerates_zero_cells_via_smoothing(self):
        value = kl_divergence([1.0, 0.0], [0.5, 0.5])
        assert np.isfinite(value) and value > 0

    def test_rejects_invalid_simplex(self):
        with pytest.raises(ValueError):
            kl_divergence([0.7, 0.7], [0.5, 0.5])
        with pytest.raises(ValueError):
            kl_divergence([-0.1, 1.1], [0.5, 0.5])
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [1.0])


class TestWelch:
    def test_identical_samples(self):
        t, _, p = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert t == 0.0
        assert p == pytest.approx(1.0)

    def test_reference_case(self):
        t, df, p = welch_t_test([1, 2, 3], [4, 5, 6])
        assert t == pytest.approx(-3.674, abs=1e-3)
        assert df == pytest.approx(4.0, abs=1e-9)
        assert p == pytest.approx(0.0213, abs=1e-3)

    def test_matches_independent_reference_implementation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.normal(size=int(rng.integers(2, 12)))
            b = rng.normal(loc=rng.uniform(-1, 1), size=int(rng.integers(2, 12)))
            t, df, p = welch_t_test(a, b)
            ref = scipy_stats.ttest_ind(a, b, equal_var=False)
            assert t == pytest.approx(ref.statistic, abs=1e-10)
            assert p == pytest.approx(ref.pvalue, abs=1e-9)

    def test_far_tail_matches_mpmath(self):
        # t ~ -1.5e8 on df ~ 3.2: the two-sided p is I_{df/(df+t^2)}(df/2, 1/2)
        t, df, p = welch_t_test([0.0, 1e-8, 2e-8], [1.0, 1.0, 1.0 + 1e-8])
        with mp.workdps(50):
            ref = float(mp.betainc(mp.mpf(df) / 2, 0.5, 0, df / (df + mp.mpf(t) ** 2), regularized=True))
        assert p == pytest.approx(ref, rel=1e-9, abs=0.0)
        assert ref == pytest.approx(1.8225710045053908e-26, rel=1e-12, abs=0.0)

    def test_antisymmetry(self):
        a = [1.0, 2.5, 3.0, 0.5]
        b = [2.0, 4.0, 5.0]
        t_ab, _, p_ab = welch_t_test(a, b)
        t_ba, _, p_ba = welch_t_test(b, a)
        assert t_ab == pytest.approx(-t_ba, abs=1e-12)
        assert p_ab == pytest.approx(p_ba, abs=1e-12)

    def test_degenerate_variance_fallback(self):
        t, _, p = welch_t_test([2.0, 2.0], [2.0, 2.0])
        assert (t, p) == (0.0, 1.0)
        t, _, p = welch_t_test([3.0, 3.0], [2.0, 2.0])
        assert t == np.inf and p == 0.0

    def test_short_samples_rejected(self):
        with pytest.raises(ValueError):
            welch_t_test([1.0], [1.0, 2.0])


class TestRiskLedger:
    """The per-epoch risk terms, each epoch built from the one before."""

    def test_epoch_without_pseudo_labels(self):
        row = risk_terms(None, eps_t=0.0, m_hat=0, n=214, balanced_error=0.4)
        assert row["eps_t"] == 0.0
        assert row["O_t"] == 214
        assert row["lambda_t"] == 0.0

    def test_replay_matches_hand_built_table(self):
        stream = [
            (1, 0.0, 0, 0.50),
            (2, 0.2, 10, 0.40),
            (3, 0.1, 25, 0.35),
            (4, 0.1, 30, 0.37),
        ]
        n = 100
        rows = []
        for _, eps, m_hat, err in stream:
            previous = SimpleNamespace(**rows[-1]) if rows else None
            rows.append(risk_terms(previous, eps, m_hat, n, err))
        hand = [
            # (O_t, lambda_t, cum_eps)
            (100, 0.0, 0.0),
            (110, 0.10, 0.2),
            (125, 0.05, 0.3),
            (130, -0.02, 0.4),
        ]
        assert len(rows) == len(hand)
        for row, (o_t, lam, cum) in zip(rows, hand):
            assert row["O_t"] == o_t
            assert row["lambda_t"] == pytest.approx(lam, abs=1e-12)
            assert row["cum_eps"] == pytest.approx(cum, abs=1e-12)

    def test_balanced_error_is_per_class_complement(self):
        # identity: R_t == 1 - mean(per-class accuracy)
        from pseudopool.network import ModelConfig, init

        bundle = generate_splits(tiny_spec(seed=4))
        state = init(ModelConfig(input_dim=4, num_classes=3, hidden_dims=(6,), init_seed=0))
        out = evaluate_epoch(state, bundle, np.full(bundle.unlabeled.ids.size, -1), None)
        assert 0.0 < out["R_t"] < 1.0
        assert out["R_t"] == pytest.approx(1.0 - np.mean(out["per_class_acc"]), abs=1e-12)
