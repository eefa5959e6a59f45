from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy import stats as scipy_stats

from pseudopool.datasets import generate_splits

from pseudopool.metrics import (
    accuracy,
    evaluate_epoch,
    kl_divergence,
    macro_f1,
    per_class_accuracy,
    pseudo_audit,
    risk_terms,
    welch_t_test,
)

from conftest import tiny_spec


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
    @settings(max_examples=200, deadline=None)
    @given(prediction_pairs())
    def test_counts_equal_per_class_loop(self, case):
        c, preds, labels = case
        got = per_class_accuracy(preds, labels, c)
        assert got.tobytes() == per_class_accuracy_loop(preds, labels, c).tobytes()
        assert macro_f1(preds, labels, c) == macro_f1_loop(preds, labels, c)

    def test_perfect_predictions(self):
        preds = np.array([0, 1, 2, 1])
        assert accuracy(preds, preds) == 1.0
        assert macro_f1(preds, preds, 3) == 1.0

    def test_hand_computed_binary_case(self):
        preds = np.array([1, 1, 0, 0])
        labels = np.array([1, 0, 0, 0])
        assert accuracy(preds, labels) == 0.75
        # class 0: P=1, R=2/3, F1=0.8; class 1: P=0.5, R=1, F1=2/3
        assert macro_f1(preds, labels, 2) == pytest.approx((0.8 + 2 / 3) / 2, abs=1e-12)

    def test_constant_predictor_on_balanced_labels(self):
        labels = np.repeat(np.arange(4), 25)
        preds = np.zeros_like(labels)
        assert accuracy(preds, labels) == 0.25

    def test_per_class_accuracy(self):
        preds = np.array([0, 0, 1, 1, 2, 0])
        labels = np.array([0, 1, 1, 1, 2, 2])
        out = per_class_accuracy(preds, labels, 3)
        assert np.allclose(out, [1.0, 2 / 3, 0.5])

    def test_macro_f1_invariant_to_consistent_relabeling(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = int(rng.integers(2, 6))
            n = int(rng.integers(10, 60))
            preds = rng.integers(c, size=n)
            labels = rng.integers(c, size=n)
            perm = rng.permutation(c)
            assert macro_f1(perm[preds], perm[labels], c) == pytest.approx(
                macro_f1(preds, labels, c), abs=1e-12
            )

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))


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
