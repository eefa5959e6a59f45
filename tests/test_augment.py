import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudopool.augment import (
    ALPHA_FLOOR,
    ClassStats,
    minority_classes,
    plan_synthesis,
    synthesize,
    update_class_stats,
)


def copies(h, radius, noise):
    """Synthesized copies of one representation, one per noise row."""
    noise = np.atleast_2d(noise)
    return synthesize(np.tile(h, (noise.shape[0], 1)), np.full(noise.shape[0], radius), noise)


def loop_update_class_stats(stats, reps, labels, ema_decay):
    """Reference: the per-class loop the array update replaced."""
    for c in np.unique(labels):
        members = reps[labels == c]
        norms = np.linalg.norm(members, axis=1)
        members, norms = members[norms > 0], norms[norms > 0]
        if members.shape[0] == 0:
            continue
        batch_mean = members.mean(axis=0)
        if stats.has_centroid[c]:
            stats.centroids[c] = ema_decay * stats.centroids[c] + (1.0 - ema_decay) * batch_mean
        else:
            stats.centroids[c] = batch_mean
            stats.has_centroid[c] = True
        centroid_norm = np.linalg.norm(stats.centroids[c])
        if centroid_norm == 0:
            continue
        alpha = float(np.clip(np.mean((members @ stats.centroids[c]) / (norms * centroid_norm)), -1.0, 1.0))
        stats.alpha[c] = alpha
        stats.radius[c] = 1.0 / max(alpha, ALPHA_FLOOR)
        stats.count_seen[c] += members.shape[0]


def loop_plan_synthesis(labels, reps, minority, stats, rng, count=10):
    """Reference: the per-row loop plan_synthesis used to pick its rows,
    skipping the rows whose representation has zero norm."""
    minority_set = set(int(c) for c in minority)
    rows = [
        i
        for i, lab in enumerate(labels)
        if int(lab) in minority_set and np.isfinite(stats.radius[lab]) and np.linalg.norm(reps[i]) > 0
    ]
    if not rows:
        return None
    origin = np.repeat(np.array(rows, dtype=np.int64), count)
    return origin, stats.radius[labels[origin]], rng.standard_normal((origin.size, stats.rep_dim))


class TestClassStats:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batches=st.integers(1, 6),
        ema_decay=st.sampled_from([0.0, 0.5, 0.9]),
    )
    def test_array_update_matches_per_class_loop(self, seed, batches, ema_decay):
        rng = np.random.default_rng(seed)
        fast, slow = ClassStats(4, 3, ema_decay), ClassStats(4, 3, ema_decay)
        for _ in range(batches):
            n = int(rng.integers(1, 10))
            reps = rng.normal(size=(n, 3))
            reps[rng.random(n) < 0.2] = 0.0  # some zero-norm rows
            labels = rng.integers(4, size=n)
            update_class_stats(fast, reps, labels)
            loop_update_class_stats(slow, reps, labels, ema_decay)
        assert np.array_equal(fast.has_centroid, slow.has_centroid)
        assert np.array_equal(fast.count_seen, slow.count_seen)
        for name in ("centroids", "alpha", "radius"):
            assert np.allclose(getattr(fast, name), getattr(slow, name), rtol=1e-12, atol=1e-14, equal_nan=True)

    def test_zero_norm_centroid_leaves_compactness_with_warning(self, caplog):
        stats = ClassStats(num_classes=1, rep_dim=2, ema_decay=0.5)
        update_class_stats(stats, np.array([[1.0, 0.0]]), np.zeros(1, dtype=int))
        with caplog.at_level(logging.WARNING):
            # the EMA lands the centroid exactly on the origin
            update_class_stats(stats, np.array([[-1.0, 0.0]]), np.zeros(1, dtype=int))
        assert "zero-norm centroid" in caplog.text
        assert np.array_equal(stats.centroids[0], [0.0, 0.0])
        assert stats.alpha[0] == 1.0 and stats.count_seen[0] == 1

    def test_identical_reps_give_unit_compactness(self):
        stats = ClassStats(num_classes=2, rep_dim=3, ema_decay=0.9)
        reps = np.tile([1.0, 2.0, 2.0], (4, 1))
        update_class_stats(stats, reps, np.zeros(4, dtype=int))
        assert stats.alpha[0] == pytest.approx(1.0)
        assert stats.radius[0] == pytest.approx(1.0)

    def test_fresh_centroid_hand_case(self):
        # reps (1,0) and (0,1): centroid (0.5,0.5), each cosine 1/sqrt(2)
        stats = ClassStats(num_classes=1, rep_dim=2, ema_decay=0.9)
        update_class_stats(stats, np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2, dtype=int))
        assert np.allclose(stats.centroids[0], [0.5, 0.5])
        assert stats.alpha[0] == pytest.approx(1 / np.sqrt(2), abs=1e-9)
        assert stats.radius[0] == pytest.approx(np.sqrt(2), abs=1e-9)

    def test_radius_floor_engages_for_dispersed_class(self):
        stats = ClassStats(num_classes=1, rep_dim=2, ema_decay=0.9)
        update_class_stats(stats, np.array([[1.0, 0.0]]), np.zeros(1, dtype=int))
        # a batch pointing away from the established centroid drives alpha < 0.1
        update_class_stats(stats, np.array([[-1.0, 0.01]]), np.zeros(1, dtype=int))
        assert stats.alpha[0] < 0.1
        assert stats.radius[0] == pytest.approx(10.0)

    def test_ema_blends_toward_batch_mean(self):
        stats = ClassStats(num_classes=1, rep_dim=2, ema_decay=0.9)
        update_class_stats(stats, np.array([[1.0, 0.0]]), np.zeros(1, dtype=int))
        update_class_stats(stats, np.array([[0.0, 1.0]]), np.zeros(1, dtype=int))
        assert np.allclose(stats.centroids[0], [0.9, 0.1])

    def test_zero_norm_rep_skipped_with_warning(self, caplog):
        stats = ClassStats(num_classes=1, rep_dim=2, ema_decay=0.9)
        with caplog.at_level(logging.WARNING):
            update_class_stats(
                stats, np.array([[0.0, 0.0], [1.0, 1.0]]), np.zeros(2, dtype=int)
            )
        assert "zero-norm" in caplog.text
        assert np.allclose(stats.centroids[0], [1.0, 1.0])

    def test_alpha_stays_within_unit_interval(self):
        rng = np.random.default_rng(0)
        stats = ClassStats(num_classes=3, rep_dim=5, ema_decay=0.9)
        for _ in range(20):
            reps = rng.normal(size=(12, 5))
            labels = rng.integers(3, size=12)
            update_class_stats(stats, reps, labels)
        valid = np.isfinite(stats.alpha)
        assert np.all(stats.alpha[valid] >= -1.0)
        assert np.all(stats.alpha[valid] <= 1.0)
        assert np.all(stats.radius[valid] <= 10.0)
        assert np.all(stats.radius[valid] > 0.0)


class TestMinorityClasses:
    def test_below_median(self):
        assert list(minority_classes(np.array([100, 50, 10]))) == [2]

    def test_uniform_pool_has_no_minorities(self):
        assert list(minority_classes(np.array([7, 7, 7, 7]))) == []

    def test_even_count_uses_lower_median(self):
        # sorted (3,5,7,9): lower median 5, strictly below -> only count 3
        assert list(minority_classes(np.array([9, 7, 5, 3]))) == [3]

    def test_matches_brute_force_rule(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            c = int(rng.integers(2, 12))
            phi = rng.integers(1, 60, size=c)
            lower_median = sorted(phi)[(c - 1) // 2]
            expected = [i for i in range(c) if phi[i] < lower_median]
            assert list(minority_classes(phi)) == expected


class TestSynthesize:
    def test_zero_noise_returns_original(self):
        out = copies(np.array([3.0, 4.0]), 2.0, np.zeros((4, 2)))
        assert out.shape == (4, 2)
        assert np.allclose(out, [3.0, 4.0])

    def test_hand_computed_elementwise_case(self):
        # h=(3,4), r=2, noise=1: h' = h + unit(h)*(r*1) = (3+0.6*2, 4+0.8*2)
        out = copies(np.array([3.0, 4.0]), 2.0, np.ones((1, 2)))
        assert np.allclose(out[0], [4.2, 5.6])

    def test_default_count_is_ten(self):
        stats = prepared_stats()
        rng = np.random.default_rng(0)
        origin, radii, noise = plan_synthesis(np.array([2]), np.ones((1, 4)), np.array([2]), stats, rng)
        assert origin.size == radii.size == noise.shape[0] == 10

    def test_labels_and_origin_carried(self):
        # every copy points back at its origin row, whose label it takes
        stats = prepared_stats()
        labels = np.array([0, 2, 1, 2])
        rng = np.random.default_rng(0)
        origin, radii, _ = plan_synthesis(labels, np.ones((4, 4)), np.array([2]), stats, rng, count=2)
        assert list(origin) == [1, 1, 3, 3]
        assert set(labels[origin]) == {2}
        assert np.all(radii == stats.radius[2])

    @settings(max_examples=200, deadline=None)
    @given(
        c=st.integers(2, 7),
        n=st.integers(0, 40),
        seed=st.integers(0, 2**16),
        count=st.integers(1, 12),
    )
    def test_plan_equals_per_row_loop(self, c, n, seed, count):
        rng = np.random.default_rng(seed)
        stats = ClassStats(num_classes=c, rep_dim=3, ema_decay=0.9)
        initialized = rng.random(c) < 0.7
        stats.radius[initialized] = rng.uniform(1.0, 10.0, size=int(initialized.sum()))
        minority = np.flatnonzero(rng.random(c) < 0.5)
        labels = rng.integers(c, size=n)
        reps = rng.normal(size=(n, 3))
        reps[rng.random(n) < 0.2] = 0.0  # some zero-norm rows
        got = plan_synthesis(labels, reps, minority, stats, np.random.default_rng(seed), count)
        expected = loop_plan_synthesis(labels, reps, minority, stats, np.random.default_rng(seed), count)
        if expected is None:
            assert got is None
        else:
            for a, b in zip(got, expected):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_monte_carlo_coordinate_std(self):
        # per-coordinate std of (h' - h) is r*|h_k|/||h||
        h = np.array([3.0, 4.0])
        r = 1.5
        rng = np.random.default_rng(2)
        reps = copies(h, r, rng.standard_normal((10_000, 2)))
        sds = (reps - h).std(axis=0)
        expected = r * np.abs(h) / np.linalg.norm(h)
        assert np.all(np.abs(sds - expected) / expected < 0.05)

    def test_zero_mean_displacement(self):
        h = np.array([2.0, -1.0, 0.5])
        rng = np.random.default_rng(3)
        reps = copies(h, 2.0, rng.standard_normal((20_000, 3)))
        assert np.allclose(reps.mean(axis=0), h, atol=0.05)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            copies(np.zeros(3), 1.0, np.zeros((1, 3)))

    def test_radius_compactness_antitonicity(self):
        stats = ClassStats(num_classes=2, rep_dim=2, ema_decay=0.9)
        update_class_stats(stats, np.tile([1.0, 0.0], (3, 1)), np.zeros(3, dtype=int))
        update_class_stats(stats, np.array([[1.0, 0.0], [0.8, 0.7]]), np.ones(2, dtype=int))
        assert stats.alpha[0] > stats.alpha[1] > 0.1
        assert stats.radius[0] < stats.radius[1]
        assert stats.radius[0] == pytest.approx(1.0 / stats.alpha[0])
        assert stats.radius[1] == pytest.approx(1.0 / stats.alpha[1])


def prepared_stats(num_classes=3, rep_dim=4):
    stats = ClassStats(num_classes=num_classes, rep_dim=rep_dim, ema_decay=0.9)
    rng = np.random.default_rng(4)
    for c in range(num_classes):
        reps = rng.normal(loc=c + 1.0, size=(6, rep_dim))
        update_class_stats(stats, reps, np.full(6, c))
    return stats


def expand(reps, labels, stats, phi, rng, count=10):
    """The training step's batch expansion: plan copies of the minority rows,
    then synthesize them from their origin representations."""
    plan = plan_synthesis(labels, reps, minority_classes(phi), stats, rng, count)
    if plan is None:
        return reps, labels
    origin, radii, noise = plan
    synth = synthesize(reps[origin], radii, noise)
    return np.concatenate([reps, synth]), np.concatenate([labels, labels[origin]])


class TestAugmentBatch:
    def test_no_minority_samples_leaves_batch_unchanged(self):
        stats = prepared_stats()
        phi = np.array([10, 10, 2])  # minority is class 2
        reps = np.ones((4, 4))
        labels = np.array([0, 0, 1, 1])
        assert plan_synthesis(labels, reps, minority_classes(phi), stats, np.random.default_rng(5)) is None
        out_reps, out_labels = expand(reps, labels, stats, phi, np.random.default_rng(5))
        assert out_reps.shape == (4, 4)
        assert np.array_equal(out_labels, labels)

    def test_one_minority_sample_adds_ten(self):
        stats = prepared_stats()
        phi = np.array([10, 10, 2])
        reps = np.ones((3, 4))
        labels = np.array([0, 1, 2])
        out_reps, out_labels = expand(reps, labels, stats, phi, np.random.default_rng(6))
        assert out_reps.shape == (13, 4)
        assert list(out_labels[3:]) == [2] * 10

    def test_mixed_batch_recount(self):
        stats = prepared_stats()
        phi = np.array([20, 3, 2])  # lower median 3 -> only class 2 is minority
        rng = np.random.default_rng(7)
        labels = np.array([0, 1, 2, 1, 0, 2, 2])
        reps = rng.normal(size=(7, 4)) + 1.0
        out_reps, out_labels = expand(reps, labels, stats, phi, rng)
        minority_count = int(np.sum(labels == 2))
        assert out_reps.shape[0] == 7 + 10 * minority_count
        assert out_labels.shape[0] == out_reps.shape[0]

    def test_label_purity(self):
        stats = prepared_stats()
        phi = np.array([20, 3, 20])
        labels = np.array([1, 1, 0])
        reps = np.ones((3, 4))
        _, out_labels = expand(reps, labels, stats, phi, np.random.default_rng(8))
        assert set(out_labels[3:]) == {1}

    def test_census_not_touched(self):
        stats = prepared_stats()
        phi = np.array([20, 3, 2])
        before = phi.copy()
        expand(np.ones((3, 4)), np.array([0, 1, 2]), stats, phi, np.random.default_rng(9))
        assert np.array_equal(phi, before)

    def test_plan_and_apply_round_trip(self):
        stats = prepared_stats()
        labels = np.array([0, 2, 2])
        reps = np.random.default_rng(11).normal(size=(3, 4)) + 2.0
        plan = plan_synthesis(labels, reps, np.array([2]), stats, np.random.default_rng(10), count=5)
        origin, radii, noise = plan
        assert origin.size == 10  # two minority rows, five copies each
        synth = synthesize(reps[origin], radii, noise)
        assert synth.shape == (10, 4)

    def test_plan_none_when_no_candidates(self):
        stats = ClassStats(num_classes=2, rep_dim=3, ema_decay=0.9)  # no radii initialized
        rng = np.random.default_rng(0)
        assert plan_synthesis(np.array([0, 1]), np.ones((2, 3)), np.array([1]), stats, rng) is None

    def test_zero_norm_rows_not_picked(self):
        # synthesize cannot expand a zero representation, so the plan leaves
        # it out, and a batch whose only minority row is zero gets no plan
        stats = prepared_stats()
        labels = np.array([2, 0, 2])
        reps = np.ones((3, 4))
        reps[0] = 0.0
        origin, _, _ = plan_synthesis(labels, reps, np.array([2]), stats, np.random.default_rng(0), count=2)
        assert list(origin) == [2, 2]
        assert plan_synthesis(labels[:2], reps[:2], np.array([2]), stats, np.random.default_rng(0)) is None
