from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudopool.cycle import (
    LabeledPool,
    PseudoRegistry,
    ViewPredictionBatch,
    class_distribution,
    reliability_mask_batch,
    update_pool,
)
from pseudopool.datasets import (
    AugmentationPolicy,
    UnlabeledView,
    generate_splits,
    strong_view_batch,
    weak_view_batch,
)
from pseudopool.network import ModelConfig, encode, init, top_class

from conftest import tiny_spec


def zero_logit_state(num_classes=4, d=3):
    cfg = ModelConfig(input_dim=d, num_classes=num_classes, hidden_dims=(5,), init_seed=0)
    state = init(cfg)
    for name in state.params:
        state.params[name][:] = 0.0
    return state


def axis_decision_state():
    """Hand-built model scoring class by coordinate: logits = (x0, x1) on the
    positive quadrant (identity relu layer, axis-aligned head)."""
    cfg = ModelConfig(input_dim=2, num_classes=2, hidden_dims=(2,), activation="relu", init_seed=0)
    state = init(cfg)
    state.params["enc0_w"][:] = np.eye(2)
    state.params["enc0_b"][:] = 0.0
    state.params["head_primary_w"][:] = np.eye(2)
    state.params["head_primary_b"][:] = 0.0
    return state


def views_of(state, X, policy, rng):
    """View predictions as training makes them: weak noise drawn first."""
    X = np.atleast_2d(X)
    weak = weak_view_batch(X, policy, rng)
    strong = strong_view_batch(X, policy, rng)
    labels, confs = top_class(state, encode(state, np.concatenate([weak, strong])))
    n = X.shape[0]
    return ViewPredictionBatch(labels[:n], confs[:n], labels[n:], confs[n:])


def one_view(label_weak, conf_weak, label_strong, conf_strong):
    """A one-row view prediction."""
    return ViewPredictionBatch(
        np.array([label_weak]), np.array([conf_weak]), np.array([label_strong]), np.array([conf_strong])
    )


def brute_mask(vpb, tau):
    """The filter's three clauses, evaluated row by row."""
    return np.array(
        [
            vpb.confs_weak[i] > tau and vpb.confs_strong[i] > tau and vpb.labels_weak[i] == vpb.labels_strong[i]
            for i in range(vpb.labels_weak.size)
        ],
        dtype=bool,
    )


class TestPredictViews:
    def test_zero_logit_model_ties_to_class_zero(self):
        state = zero_logit_state(num_classes=4)
        policy = AugmentationPolicy(0.0, 0.0, 0.0)
        vp = views_of(state, np.ones(3), policy, np.random.default_rng(0))
        assert vp.labels_weak[0] == 0 and vp.labels_strong[0] == 0
        assert vp.confs_weak[0] == pytest.approx(0.25)
        assert vp.confs_strong[0] == pytest.approx(0.25)

    def test_identical_views_when_no_perturbation(self):
        cfg = ModelConfig(input_dim=3, num_classes=3, hidden_dims=(6,), init_seed=1)
        state = init(cfg)
        policy = AugmentationPolicy(0.0, 0.0, 0.0)
        vp = views_of(state, np.array([0.3, -1.2, 2.0]), policy, np.random.default_rng(0))
        assert vp.labels_weak[0] == vp.labels_strong[0]
        assert vp.confs_weak[0] == pytest.approx(vp.confs_strong[0], abs=1e-15)

    def test_matches_analytic_decision_regions(self):
        state = axis_decision_state()
        policy = AugmentationPolicy(0.0, 0.0, 0.0)
        X = np.array([[3.0, 1.0], [1.0, 3.0], [0.2, 5.0], [2.0, 2.0]])
        vp = views_of(state, X, policy, np.random.default_rng(0))
        assert list(vp.labels_weak) == [0, 1, 1, 0]

    def test_batch_variant_consistent_fields(self):
        state = zero_logit_state()
        policy = AugmentationPolicy(0.1, 0.2, 0.25)
        vpb = views_of(state, np.ones((7, 3)), policy, np.random.default_rng(2))
        assert vpb.labels_weak.shape == (7,)
        assert np.all(vpb.confs_weak >= 1.0 / 4 - 1e-12)


class TestReliabilityMask:
    def test_fires_when_all_clauses_hold(self):
        assert reliability_mask_batch(one_view(2, 0.96, 2, 0.97), 0.95)[0]

    def test_rejects_low_strong_confidence(self):
        assert not reliability_mask_batch(one_view(2, 0.96, 2, 0.90), 0.95)[0]

    def test_rejects_label_disagreement(self):
        assert not reliability_mask_batch(one_view(1, 0.99, 2, 0.99), 0.95)[0]

    def test_boundary_equality_is_rejected(self):
        assert not reliability_mask_batch(one_view(0, 0.95, 0, 0.99), 0.95)[0]
        assert not reliability_mask_batch(one_view(0, 0.99, 0, 0.95), 0.95)[0]

    def test_matches_brute_force_conjunction(self):
        rng = np.random.default_rng(4)
        tau = 0.8
        n = 1000
        vpb = ViewPredictionBatch(
            labels_weak=rng.integers(3, size=n),
            confs_weak=np.where(rng.random(n) < 0.5, rng.uniform(0.3, 1.0, size=n), tau),
            labels_strong=rng.integers(3, size=n),
            confs_strong=np.where(rng.random(n) < 0.5, rng.uniform(0.3, 1.0, size=n), tau),
        )
        assert np.array_equal(reliability_mask_batch(vpb, tau), brute_mask(vpb, tau))

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(5)
        n = 300
        vpb = ViewPredictionBatch(
            rng.integers(2, size=n), rng.uniform(0.4, 1.0, size=n),
            rng.integers(2, size=n), rng.uniform(0.4, 1.0, size=n),
        )
        for _ in range(50):
            taus = sorted(rng.uniform(0.41, 0.99, size=2))
            high, low = reliability_mask_batch(vpb, taus[1]), reliability_mask_batch(vpb, taus[0])
            assert not np.any(high & ~low)

    def test_batch_equals_scalar(self):
        rng = np.random.default_rng(6)
        n = 200
        vpb = ViewPredictionBatch(
            labels_weak=rng.integers(3, size=n),
            confs_weak=rng.uniform(0.3, 1.0, size=n),
            labels_strong=rng.integers(3, size=n),
            confs_strong=rng.uniform(0.3, 1.0, size=n),
        )
        batch = reliability_mask_batch(vpb, 0.7)
        for i in range(n):
            row = one_view(vpb.labels_weak[i], vpb.confs_weak[i], vpb.labels_strong[i], vpb.confs_strong[i])
            assert batch[i] == reliability_mask_batch(row, 0.7)[0]


class TestRegistry:
    def test_first_vote(self):
        reg = PseudoRegistry(np.array([10, 11]), num_classes=4, min_votes=1, majority_frac=0.5)
        reg.record_vote(0, 2)  # row 0 holds id 10
        assert reg.snapshot().entries["10"].votes == {"2": 1}

    def test_vote_stream_accumulates(self):
        reg = PseudoRegistry(np.array([5]), num_classes=4, min_votes=1, majority_frac=0.5)
        for label in (2, 2, 3):
            reg.record_vote(0, label)
        assert reg.snapshot().entries["5"].votes == {"2": 2, "3": 1}

    def test_randomized_streams_match_independent_tally(self):
        rng = np.random.default_rng(7)
        ids = np.arange(40)
        reg = PseudoRegistry(ids, num_classes=5, min_votes=1, majority_frac=0.5)
        tally = {int(i): Counter() for i in ids}
        for _ in range(10_000):
            sid = int(rng.integers(40))
            label = int(rng.integers(5))
            reg.record_vote(sid, label)
            tally[sid][label] += 1
        for pos, sid in enumerate(ids):
            for c in range(5):
                assert reg.votes[pos, c] == tally[int(sid)][c]

    def test_vote_conservation(self):
        rng = np.random.default_rng(8)
        reg = PseudoRegistry(np.arange(10), num_classes=3, min_votes=1, majority_frac=0.5)
        firings = Counter()
        for _ in range(500):
            sid = int(rng.integers(10))
            reg.record_vote(sid, int(rng.integers(3)))
            firings[sid] += 1
        for pos in range(10):
            assert reg.votes[pos].sum() == firings[pos]

    def test_first_vote_epoch_tracking(self):
        reg = PseudoRegistry(np.array([0, 1]), num_classes=2, min_votes=1, majority_frac=0.5)
        reg.begin_epoch(3)
        reg.record_vote(0, 1)
        reg.begin_epoch(7)
        reg.record_vote(0, 1)
        reg.record_vote(1, 0)
        assert reg.first_vote_epoch.tolist() == [3, 7]


def brute_resolve(votes, min_votes, frac):
    """The resolution rule row by row: strict, untied modal majority."""
    expected = np.full(votes.shape[0], -1)
    for pos, counts in enumerate(votes):
        total = counts.sum()
        if total < min_votes:
            continue
        top = counts.max()
        winners = np.flatnonzero(counts == top)
        if winners.size != 1 or not top > frac * total:
            continue
        expected[pos] = int(winners[0])
    return expected


class TestResolve:
    def test_simple_majority(self):
        reg = PseudoRegistry(np.array([0]), num_classes=3, min_votes=3, majority_frac=0.5)
        for _ in range(3):
            reg.record_vote(0, 1)
        assert reg.resolve()
        assert reg.resolved.tolist() == [1]

    def test_tie_stays_unassigned(self):
        reg = PseudoRegistry(np.array([0]), num_classes=3, min_votes=3, majority_frac=0.5)
        for label in (1, 1, 2, 2):
            reg.record_vote(0, label)
        assert not reg.resolve()
        assert reg.resolved.tolist() == [-1]

    def test_below_min_votes_unassigned(self):
        reg = PseudoRegistry(np.array([0]), num_classes=3, min_votes=3, majority_frac=0.5)
        reg.record_vote(0, 1)
        reg.record_vote(0, 1)
        assert not reg.resolve()
        assert reg.resolved.tolist() == [-1]

    def test_matches_brute_force_rule(self):
        rng = np.random.default_rng(9)
        for trial in range(50):
            ids = np.arange(30)
            votes = [(int(rng.integers(30)), int(rng.integers(4))) for _ in range(int(rng.integers(50, 400)))]
            min_votes = int(rng.integers(1, 6))
            frac = float(rng.choice([0.5, 0.6, 0.75, 0.9]))
            reg = PseudoRegistry(ids, num_classes=4, min_votes=min_votes, majority_frac=frac)
            for row, label in votes:
                reg.record_vote(row, label)
            reg.resolve()
            assert np.array_equal(reg.resolved, brute_resolve(reg.votes, min_votes, frac))

    def test_resolution_can_change_with_new_votes(self):
        reg = PseudoRegistry(np.array([0]), num_classes=2, min_votes=1, majority_frac=0.5)
        for _ in range(3):
            reg.record_vote(0, 0)
        assert reg.resolve()
        assert reg.resolved.tolist() == [0]
        for _ in range(5):
            reg.record_vote(0, 1)
        assert reg.resolve()
        assert reg.resolved.tolist() == [1]
        assert not reg.resolve()

    def test_grow_only_keeps_the_first_label(self):
        reg = PseudoRegistry(np.array([0, 1]), num_classes=2, min_votes=1, majority_frac=0.5, grow_only=True)
        for _ in range(3):
            reg.record_vote(0, 0)
        assert reg.resolve()
        for _ in range(5):
            reg.record_vote(0, 1)
        reg.record_vote(1, 1)
        assert not reg.resolve(rows=np.array([0, 0]))  # row 1 is not asked for
        assert reg.resolved.tolist() == [0, -1]
        assert reg.resolve()
        assert reg.resolved.tolist() == [0, 1]


def small_pool():
    feats = np.arange(8.0).reshape(4, 2)
    labels = np.array([0, 0, 0, 1])
    return LabeledPool(feats, labels, num_classes=2)


def unlabeled_source(n=6, offset=100):
    ids = np.arange(offset, offset + n)
    feats = np.random.default_rng(0).normal(size=(n, 2))
    return UnlabeledView(ids=ids, features=feats)


def label_vector(source, assignments):
    """The cycle's label vector over ``source`` rows for an {id: label} map."""
    return np.array([assignments.get(int(sid), -1) for sid in source.ids], dtype=np.int64)


class TestPool:
    def test_empty_assignments_reverts_to_base(self):
        pool = small_pool()
        source = unlabeled_source()
        grown = update_pool(pool, label_vector(source, {100: 1, 101: 0}), source)
        assert grown.pseudo_size == 2
        reverted = update_pool(grown, label_vector(source, {}), source)
        assert reverted.pseudo_size == 0
        assert np.array_equal(reverted.phi, reverted.n)

    def test_counts_add_up(self):
        pool = small_pool()  # n = (3, 1)
        source = unlabeled_source()
        grown = update_pool(pool, label_vector(source, {100: 0, 101: 1}), source)
        assert np.array_equal(grown.phi, [4, 2])

    def test_random_churn_matches_recount(self):
        rng = np.random.default_rng(10)
        pool = small_pool()
        source = unlabeled_source(n=20)
        for _ in range(30):
            k = int(rng.integers(0, 15))
            chosen = rng.choice(source.ids, size=k, replace=False)
            assignments = {int(i): int(rng.integers(2)) for i in chosen}
            pool = update_pool(pool, label_vector(source, assignments), source)
            assert np.array_equal(pool.phi, pool.recount())
            assert np.array_equal(pool.phi, pool.n + pool.m)

    def test_base_is_immutable_across_updates(self):
        pool = small_pool()
        source = unlabeled_source()
        before_feats = pool.base_features.copy()
        before_labels = pool.base_labels.copy()
        grown = update_pool(pool, label_vector(source, {100: 1}), source)
        assert np.array_equal(grown.base_features, before_feats)
        assert np.array_equal(grown.base_labels, before_labels)
        assert np.array_equal(pool.base_labels, before_labels)

    def test_base_needs_every_class(self):
        with pytest.raises(ValueError):
            LabeledPool(np.zeros((1, 2)), np.array([0]), num_classes=2)


class TestClassDistribution:
    def test_simple_ratio(self):
        pool = small_pool()
        prior = class_distribution(pool)
        assert np.allclose(prior, [0.75, 0.25])

    def test_uniform_pool(self):
        pool = LabeledPool(np.zeros((4, 2)), np.array([0, 0, 1, 1]), num_classes=2)
        assert np.allclose(class_distribution(pool), [0.5, 0.5])

    def test_direct_normalization(self):
        pool = LabeledPool(
            np.zeros((8, 2)),
            np.array([0, 0, 0, 0, 1, 1, 2, 3]),
            num_classes=4,
        )
        prior = class_distribution(pool)
        assert prior.dtype == np.float64 and np.allclose(prior, [0.5, 0.25, 0.125, 0.125])
        assert np.isfinite(np.log(prior)).all()

    def test_normalization_invariant_under_churn(self):
        rng = np.random.default_rng(11)
        pool = small_pool()
        source = unlabeled_source(n=25)
        for _ in range(20):
            chosen = rng.choice(source.ids, size=int(rng.integers(0, 20)), replace=False)
            assignments = {int(i): int(rng.integers(2)) for i in chosen}
            pool = update_pool(pool, label_vector(source, assignments), source)
            assert abs(class_distribution(pool).sum() - 1.0) < 1e-9


class TestIntegrationWithSplits:
    def test_pool_from_generated_splits(self):
        bundle = generate_splits(tiny_spec())
        pool = LabeledPool(bundle.labeled.features, bundle.labeled.labels, 3)
        assert pool.size == bundle.labeled.ids.size
        assert np.array_equal(pool.phi, bundle.labeled.class_counts(3))


@st.composite
def vote_rounds(draw):
    """Registry size, class count, rounds of (row, label) votes, and the rule."""
    n = draw(st.integers(1, 12))
    c = draw(st.integers(2, 5))
    vote = st.tuples(st.integers(0, n - 1), st.integers(0, c - 1))
    rounds = draw(st.lists(st.lists(vote, max_size=20), min_size=1, max_size=8))
    min_votes = draw(st.integers(1, 5))
    frac = draw(st.sampled_from([0.5, 0.6, 0.75, 0.9, 1.0]))
    return n, c, rounds, min_votes, frac


@st.composite
def label_vectors(draw):
    """Class count, row count, and a sequence of cycle label vectors."""
    c = draw(st.integers(2, 4))
    n = draw(st.integers(1, 15))
    vector = st.lists(st.integers(-1, c - 1), min_size=n, max_size=n).map(np.array)
    return c, n, draw(st.lists(vector, min_size=1, max_size=10))


class TestLabelVectorProperties:
    @settings(max_examples=200, deadline=None)
    @given(vote_rounds())
    def test_incremental_resolve_equals_full_and_brute_force(self, case):
        n, c, rounds, min_votes, frac = case
        ids = np.arange(50, 50 + n)
        incremental = PseudoRegistry(ids, c, min_votes, frac)
        full = PseudoRegistry(ids, c, min_votes, frac)
        for votes in rounds:
            for pos, label in votes:
                incremental.record_vote(pos, label)
                full.record_vote(pos, label)
            rows = np.array([pos for pos, _ in votes], dtype=np.int64)
            before = full.resolved.copy()
            changed = incremental.resolve(rows=rows)
            assert full.resolve() == changed
            assert np.array_equal(incremental.resolved, full.resolved)
            assert np.array_equal(full.resolved, brute_resolve(full.votes, min_votes, frac))
            assert changed == (not np.array_equal(before, full.resolved))

    @settings(max_examples=200, deadline=None)
    @given(label_vectors())
    def test_grow_only_merge_matches_setdefault_and_never_shrinks(self, case):
        _, n, resolutions = case
        labels = np.full(n, -1)
        merged: dict[int, int] = {}
        for resolved in resolutions:
            grown = np.where(labels >= 0, labels, resolved)
            for pos in np.flatnonzero(resolved >= 0):
                merged.setdefault(int(pos), int(resolved[pos]))
            assert {int(p): int(grown[p]) for p in np.flatnonzero(grown >= 0)} == merged
            kept = labels >= 0
            assert np.array_equal(grown[kept], labels[kept])
            labels = grown

    @settings(max_examples=200, deadline=None)
    @given(label_vectors())
    def test_pool_census_matches_recount_under_churn(self, case):
        c, n, vectors = case
        pool = LabeledPool(np.zeros((c, 2)), np.arange(c), num_classes=c)
        source = unlabeled_source(n=n)
        for labels in vectors:
            pool = update_pool(pool, labels, source)
            assigned = labels >= 0
            assert np.array_equal(pool.phi, pool.recount())
            assert np.array_equal(pool.source.ids[pool.pseudo_rows], source.ids[assigned])
            assert np.array_equal(pool.pseudo_labels, labels[assigned])
            assert pool.pseudo_size == int(assigned.sum())

    @settings(max_examples=200, deadline=None)
    @given(label_vectors(), st.integers(0, 2**16))
    def test_take_equals_concatenated_reference(self, case, seed):
        c, n, vectors = case
        rng = np.random.default_rng(seed)
        pool = LabeledPool(rng.normal(size=(c, 2)), np.arange(c), num_classes=c)
        source = unlabeled_source(n=n)
        for labels in [np.full(n, -1), *vectors]:  # starts from an empty pseudo portion
            pool = update_pool(pool, labels, source)
            assigned = labels >= 0
            features = np.concatenate([pool.base_features, source.features[assigned]])
            classes = np.concatenate([pool.base_labels, labels[assigned]])
            rows = rng.integers(0, pool.size, size=int(rng.integers(0, 20)))
            x, y = pool.take(rows)
            assert x.tobytes() == features[rows].tobytes()
            assert y.dtype == np.int64 and np.array_equal(y, classes[rows])
            assert np.array_equal(pool.source.features[pool.pseudo_rows], source.features[assigned])
            assert np.array_equal(pool.labels(), classes)

    @settings(max_examples=200, deadline=None)
    @given(vote_rounds())
    def test_voted_rows_merge_equals_full_merge(self, case):
        # a grow-only registry that re-resolves only the voted rows holds the
        # full grow-only merge of the brute-force resolutions
        n, c, rounds, min_votes, frac = case
        ids = np.arange(50, 50 + n)
        registry = PseudoRegistry(ids, c, min_votes, frac, grow_only=True)
        full = np.full(n, -1)
        for votes in rounds:
            for pos, label in votes:
                registry.record_vote(pos, label)
            voted = np.array([pos for pos, _ in votes], dtype=np.int64)
            changed = registry.resolve(rows=voted)
            grown = np.where(full >= 0, full, brute_resolve(registry.votes, min_votes, frac))
            assert np.array_equal(registry.resolved, grown)
            assert changed == (not np.array_equal(grown, full))
            full = grown
