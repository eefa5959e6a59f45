"""The rewritten step functions give the bits of the kept references.

``loss_and_grads``, ``_backprop_encoder`` and ``update_class_stats`` were
rewritten with fewer numpy calls per training step. Each must still give the
bits of its reference body in ``step_reference``, compared by ``tobytes()``
over shapes where a rewrite is easiest to get wrong: one-row parts, an odd
width, repeated synthesis origins, normalizers that skip or rescale a part,
parts that share a forward or a head, and zero-norm representations.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudopool import network
from pseudopool.augment import ClassStats, update_class_stats
from pseudopool.network import BRANCHES, BatchPart, ModelConfig, NonFiniteLossError, SynthPlan, encode, init

from step_reference import reference_backprop_encoder, reference_loss_and_grads, reference_update_class_stats

SHAPES = [  # (input width, hidden dims, classes)
    (3, (5, 4), 3),
    (16, (17, 17), 5),
    (17, (17,), 2),
]


def outcome(fn, state, parts):
    """What ``fn`` returns, or the exception type it raises, with the
    gradient vector's bytes."""
    try:
        result = fn(state, parts)
    except (ValueError, NonFiniteLossError) as exc:
        return type(exc), None
    return result, state.grads.flat.tobytes()


@st.composite
def loss_cases(draw):
    input_dim, hidden, c = draw(st.sampled_from(SHAPES))
    activation = draw(st.sampled_from(["relu", "tanh"]))
    seed = draw(st.integers(0, 2**32 - 1))
    sizes = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
    layout = draw(
        st.lists(
            st.tuples(
                st.sampled_from(BRANCHES),
                st.integers(0, len(sizes) - 1),  # which forward the part reads (shared when repeated)
                st.booleans(),  # logit-adjusted
                st.integers(0, 4),  # synthesized copies
                st.sampled_from([None, 0, 11]),  # normalizer
            ),
            min_size=1,
            max_size=5,
        )
    )
    return input_dim, hidden, c, activation, seed, sizes, layout


def build(case):
    """A state and the parts of one case, each part's rows encoded by it."""
    input_dim, hidden, c, activation, seed, sizes, layout = case
    rng = np.random.default_rng(seed)
    state = init(ModelConfig(input_dim, c, hidden, activation, init_seed=seed % 97))
    forwards = []
    for n in sizes:
        forwards.append([])
        # shifted inputs keep most relu representations away from zero
        encode(state, rng.normal(size=(n, input_dim)) + 0.5, forwards[-1])
    parts = []
    for branch, source, adjusted, k, normalizer in layout:
        layers = forwards[source]
        n = layers[0].shape[0]
        prior = np.log(rng.dirichlet(np.ones(c))) if adjusted else None
        part = BatchPart(branch, layers, rng.integers(c, size=n), prior, normalizer=normalizer)
        if k and n:
            # origins drawn with repeats, as plan_synthesis repeats each row
            part.synth = SynthPlan(rng.integers(n, size=k), rng.uniform(0.5, 2.0, size=k), rng.normal(size=(k, hidden[-1])))
        parts.append(part)
    return state, parts


class TestLossAndGrads:
    @settings(max_examples=300, deadline=None)
    @given(loss_cases())
    def test_equals_reference_bytes(self, case):
        state, parts = build(case)
        kept = copy.deepcopy(state)
        new = outcome(network.loss_and_grads, state, parts)
        ref = outcome(reference_loss_and_grads, kept, parts)
        if ref[1] is None or new[1] is None:
            assert new[0] is ref[0]
            return
        (total, means), grads = new
        (ref_total, ref_means), ref_grads = ref
        assert np.float64(total).tobytes() == np.float64(ref_total).tobytes()
        assert np.array(means).tobytes() == np.array(ref_means).tobytes()
        assert grads == ref_grads

    def test_one_row_parts_on_a_shared_head(self):
        # one-row forwards, three parts on the auxiliary head, the middle one
        # with synthesized copies of its one row
        state, parts = build((16, (17, 17), 5, "tanh", 7, [1, 1, 1], [
            ("auxiliary", 0, True, 0, None),
            ("auxiliary", 1, False, 3, None),
            ("auxiliary", 2, True, 0, 11),
        ]))
        kept = copy.deepcopy(state)
        assert outcome(network.loss_and_grads, state, parts) == outcome(reference_loss_and_grads, kept, parts)


class TestBackpropEncoder:
    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(SHAPES),
        st.sampled_from(["relu", "tanh"]),
        st.integers(1, 9),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_reference_bytes(self, shape, activation, n, seed):
        input_dim, hidden, c = shape
        rng = np.random.default_rng(seed)
        state = init(ModelConfig(input_dim, c, hidden, activation, init_seed=seed % 97))
        layers: list = []
        encode(state, rng.normal(size=(n, input_dim)), layers)
        d_h = rng.normal(size=(n, hidden[-1]))
        start = rng.normal(size=state.size)  # the backward adds into what the vector holds
        grads, ref_grads = state.views(start.copy()), state.views(start.copy())
        network._backprop_encoder(state, layers, d_h.copy(), grads)
        reference_backprop_encoder(state, layers, d_h.copy(), ref_grads)
        assert grads.flat.tobytes() == ref_grads.flat.tobytes()


class TestUpdateClassStats:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 6),
        st.sampled_from([3, 17, 64]),
        st.sampled_from([0.0, 0.5, 0.9]),
        st.integers(0, 2**32 - 1),
        st.lists(st.tuples(st.integers(1, 16), st.sampled_from([0.0, 0.2]), st.booleans()), min_size=1, max_size=6),
    )
    def test_equals_reference_bytes(self, c, d, ema_decay, seed, batches):
        rng = np.random.default_rng(seed)
        new, ref = ClassStats(c, d, ema_decay), ClassStats(c, d, ema_decay)
        for n, zero_share, column_major in batches:
            reps = rng.normal(size=(n, d))
            reps[rng.random(n) < zero_share] = 0.0  # zero-norm rows are skipped
            if column_major:
                reps = np.asfortranarray(reps)
            labels = rng.integers(c, size=n)
            update_class_stats(new, reps, labels)
            reference_update_class_stats(ref, reps, labels)
            for name in ("centroids", "has_centroid", "alpha", "radius", "count_seen"):
                assert getattr(new, name).tobytes() == getattr(ref, name).tobytes(), name

    def test_zero_norm_centroid_path(self):
        # a class whose batch mean cancels its centroid to zero takes the
        # slow path; both bodies leave its compactness unchanged
        new, ref = ClassStats(2, 3, 0.5), ClassStats(2, 3, 0.5)
        for reps, labels in [
            (np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.array([0, 1])),
            (np.array([[-1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]), np.array([0, 1])),
        ]:
            update_class_stats(new, reps, labels)
            reference_update_class_stats(ref, reps, labels)
        assert not np.any(new.centroids[0]) and new.alpha[0] == 1.0
        for name in ("centroids", "has_centroid", "alpha", "radius", "count_seen"):
            assert getattr(new, name).tobytes() == getattr(ref, name).tobytes(), name


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_loss_over_a_recorded_step_shape(activation):
    # the desk step's layout: primary with 20 synthesized copies of two rows
    # and the labeled aux part on the 16 labeled rows, the aux strong-view
    # part on 112 others
    rng = np.random.default_rng(3)
    state = init(ModelConfig(16, 5, (64, 64), activation, init_seed=3))
    labeled, strong = [], []
    encode(state, rng.normal(size=(16, 16)), labeled)
    encode(state, rng.normal(size=(112, 16)), strong)
    y = rng.integers(5, size=16)
    prior = np.log(rng.dirichlet(np.ones(5)))
    origin = np.repeat(np.array([3, 9]), 10)
    plan = SynthPlan(origin, rng.uniform(0.5, 2.0, size=20), rng.normal(size=(20, 64)))
    parts = [
        BatchPart("primary", labeled, y, prior, synth=plan),
        BatchPart("auxiliary", labeled, y, prior),
        BatchPart("auxiliary", strong, rng.integers(5, size=112)),
    ]
    kept = copy.deepcopy(state)
    assert outcome(network.loss_and_grads, state, parts) == outcome(reference_loss_and_grads, kept, parts)
