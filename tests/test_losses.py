import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudopool.network import ModelConfig, _xent_forward_backward, init, log_softmax, loss_and_grads, top_class

from test_network import encoded_part


def uniform_prior(c):
    return np.full(c, 1.0 / c)


def la_loss(logits, y, prior):
    """Adjusted cross-entropy of one logit vector under the class distribution
    ``prior``, on the training loss path."""
    losses, _ = _xent_forward_backward(np.atleast_2d(logits) + np.log(prior), [y])
    return float(losses[0])


def plain_ce(logits, y):
    """Plain cross-entropy (no prior) of one logit vector, on the training loss path."""
    losses, _ = _xent_forward_backward(np.atleast_2d(logits), [y])
    return float(losses[0])


def row_wise_log_softmax(z):
    """Reference: the reduction along the trailing class axis that the
    class-major one replaced."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - np.max(z, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def brute_force_adjusted_xent(logits, y, probs):
    """Unstabilized direct evaluation of the adjusted softmax cross-entropy."""
    adjusted = np.asarray(logits, dtype=np.float64) + np.log(probs)
    weights = np.exp(adjusted)
    return -math.log(weights[y] / weights.sum())


class TestLaLoss:
    def test_uniform_everything(self):
        prior = np.array([0.5, 0.5])
        assert la_loss(np.zeros(2), 0, prior) == pytest.approx(math.log(2), abs=1e-12)

    def test_equal_logits_recover_prior(self):
        # with flat logits the adjusted softmax equals the prior itself
        prior = np.array([0.9, 0.1])
        assert la_loss(np.zeros(2), 1, prior) == pytest.approx(-math.log(0.1), abs=1e-9)

    def test_uniform_prior_reduces_to_plain_ce(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            c = int(rng.integers(2, 8))
            logits = rng.normal(scale=3.0, size=c)
            y = int(rng.integers(c))
            prior = uniform_prior(c)
            assert abs(la_loss(logits, y, prior) - plain_ce(logits, y)) < 1e-9

    def test_matches_brute_force_on_small_logits(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            c = int(rng.integers(2, 6))
            logits = rng.normal(size=c)
            probs = rng.dirichlet(np.ones(c)) + 0.01
            probs /= probs.sum()
            y = int(rng.integers(c))
            expected = brute_force_adjusted_xent(logits, y, probs)
            assert la_loss(logits, y, probs) == pytest.approx(expected, abs=1e-12)

    def test_positive_unless_saturated(self):
        prior = uniform_prior(3)
        assert la_loss(np.array([1.0, -2.0, 0.3]), 0, prior) > 0

    def test_stable_at_extreme_logits(self):
        prior = uniform_prior(3)
        for logits in ([1000.0, -1000.0, 0.0], [-1000.0, -1000.0, -1000.0]):
            value = la_loss(np.array(logits), 0, prior)
            assert np.isfinite(value)

    def test_prediction_shift_property(self):
        # the prior flips the adjusted argmax exactly when the log-prior gap
        # exceeds the logit margin
        logits = np.array([1.0, 0.0])
        small_gap = np.array([0.4, 0.6])  # ln(0.6/0.4)=0.405 < 1
        big_gap = np.array([0.1, 0.9])  # ln(0.9/0.1)=2.197 > 1
        assert np.argmax(logits + np.log(small_gap)) == np.argmax(logits) == 0
        assert np.argmax(logits + np.log(big_gap)) == 1

    def test_dimension_mismatch(self):
        # the log prior's length must broadcast against the class axis
        state = init(ModelConfig(input_dim=3, num_classes=3, hidden_dims=(4,), init_seed=0))
        part = encoded_part(state, "primary", np.ones((2, 3)), [0, 1], np.log(uniform_prior(2)))
        with pytest.raises(ValueError):
            loss_and_grads(state, [part])


class TestAuxLoss:
    def test_flat_logits(self):
        assert plain_ce(np.zeros(4), 2) == pytest.approx(math.log(4), abs=1e-12)

    def test_saturated_correct(self):
        logits = np.zeros(4)
        logits[1] = 30.0
        assert plain_ce(logits, 1) < 1e-9

    def test_matches_independent_softmax_ce(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            logits = rng.normal(size=3)
            y = int(rng.integers(3))
            probs = np.exp(logits) / np.exp(logits).sum()
            assert plain_ce(logits, y) == pytest.approx(-math.log(probs[y]), abs=1e-12)


def random_batch(state, rng, n=6):
    d, c = state.config.input_dim, state.config.num_classes
    counts = np.arange(1, c + 1)
    prior = counts / counts.sum()
    x = rng.normal(size=(n, d))
    y = rng.integers(c, size=n)
    return prior, x, y


class TestOverallLoss:
    """The overall loss is ``loss_and_grads``' total: the sum of its parts'
    batch means, each routed to the head its part names."""

    def setup_method(self):
        self.state = init(ModelConfig(input_dim=3, num_classes=4, hidden_dims=(5,), init_seed=0))
        self.rng = np.random.default_rng(7)

    def test_primary_only(self):
        prior, x, y = random_batch(self.state, self.rng)
        total, means = loss_and_grads(self.state, [encoded_part(self.state, "primary", x, y, np.log(prior))])
        grads = self.state.grads
        assert total == means[0]
        assert not grads["head_auxiliary_w"].any() and not grads["head_auxiliary_b"].any()

    def test_additivity_with_aux(self):
        prior, x, y = random_batch(self.state, self.rng)
        strong = self.rng.normal(size=x.shape)
        parts = [encoded_part(self.state, "primary", x, y, np.log(prior)), encoded_part(self.state, "auxiliary", strong, y)]
        total, means = loss_and_grads(self.state, parts)
        assert total == pytest.approx(means[0] + means[1], abs=1e-15)
        assert means[1] == pytest.approx(loss_and_grads(self.state, parts[1:])[0], abs=1e-15)

    def test_auxiliary_la_routes_to_auxiliary(self):
        prior, x, y = random_batch(self.state, self.rng)
        loss_and_grads(self.state, [encoded_part(self.state, "auxiliary", x, y, np.log(prior))])
        grads = self.state.grads
        assert not grads["head_primary_w"].any() and not grads["head_primary_b"].any()
        assert grads["head_auxiliary_w"].any()


class TestXentRows:
    def test_matches_scalar_ops(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(4, size=5)
        prior = uniform_prior(4)
        rows, _ = _xent_forward_backward(logits + np.log(prior), labels)
        for i in range(5):
            expected = brute_force_adjusted_xent(logits[i], labels[i], prior)
            assert rows[i] == pytest.approx(expected, abs=1e-12)


class TestLogSoftmax:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(1, 2000),
        classes=st.integers(2, 12),
        scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3]),
        seed=st.integers(0, 2**16),
    )
    def test_equals_row_wise_bit_for_bit(self, rows, classes, scale, seed):
        z = np.random.default_rng(seed).uniform(-scale, scale, size=(rows, classes))
        got = log_softmax(z)
        assert got.flags.c_contiguous
        assert got.tobytes() == row_wise_log_softmax(z).tobytes()

    @pytest.mark.parametrize("classes", [2, 5, 7, 8, 12])
    def test_one_dimensional_input(self, classes):
        z = np.random.default_rng(classes).normal(scale=100.0, size=classes)
        got = log_softmax(z)
        assert got.shape == (classes,)
        assert got.tobytes() == row_wise_log_softmax(z).tobytes()

    def test_transposed_input_left_unchanged(self):
        # z.T of a Fortran-ordered input is contiguous; it must still be copied
        z = np.asfortranarray(np.random.default_rng(1).normal(size=(6, 5)))
        before = z.copy()
        got = log_softmax(z)
        assert np.array_equal(z, before)
        assert got.flags.c_contiguous
        assert got.tobytes() == row_wise_log_softmax(before).tobytes()

    def test_empty_batch(self):
        assert log_softmax(np.zeros((0, 5))).shape == (0, 5)


class TestTopClass:
    """``top_class``: the primary head's (argmax, max softmax) per row."""

    @staticmethod
    def state_with_logits(c, w):
        """A state whose primary head maps a representation ``h`` to ``h @ w``."""
        state = init(ModelConfig(input_dim=2, num_classes=c, hidden_dims=(w.shape[0],), init_seed=c))
        state.params["head_primary_w"][...] = w
        state.params["head_primary_b"][...] = 0.0
        return state

    @pytest.mark.parametrize("c", [3, 7, 8, 12])
    def test_ties_go_to_the_lowest_class(self, c):
        state = self.state_with_logits(c, np.eye(c))
        h = np.zeros((3, c))
        h[1, [c - 1, 1]] = 2.0  # classes 1 and c-1 tie for the top
        h[2, [2, 0]] = -1.0  # every class but 0 and 2 ties at the top
        labels, confs = top_class(state, h)
        assert labels.tolist() == [0, 1, 1]
        assert confs[0] == pytest.approx(1.0 / c, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        classes=st.sampled_from([2, 5, 7, 8, 12]),
        rows=st.integers(1, 40),
        scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3]),
        seed=st.integers(0, 2**16),
    )
    def test_confidence_is_the_row_max_of_a_reference_softmax(self, classes, rows, scale, seed):
        rng = np.random.default_rng(seed)
        state = self.state_with_logits(classes, rng.uniform(-scale, scale, size=(4, classes)))
        h = rng.normal(size=(rows, 4))
        labels, confs = top_class(state, h)
        z = h @ state.params["head_primary_w"] + state.params["head_primary_b"]
        reference = np.stack([np.exp(row_wise_log_softmax(row)) for row in z])  # exp(z - logsumexp(z)), one row at a time
        assert labels.tolist() == np.argmax(reference, axis=1).tolist()
        assert confs.tobytes() == reference.max(axis=1).tobytes()
