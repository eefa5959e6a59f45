import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from pseudopool import network
from pseudopool.augment import synthesize
from pseudopool.network import (
    BRANCHES,
    BatchPart,
    ModelConfig,
    NonFiniteLossError,
    OptimizerConfig,
    SynthPlan,
    cosine_lr,
    encode,
    head_logits,
    init,
    loss_and_grads,
    sgd_step,
)

from conftest import rel_err


def small_config(activation="tanh", seed=0, d=3, c=3, hidden=(5, 4)):
    return ModelConfig(input_dim=d, num_classes=c, hidden_dims=hidden, activation=activation, init_seed=seed)


def straight_line_forward(state, x):
    """Independent re-implementation of the forward pass with plain loops."""
    cfg = state.config
    a = list(map(float, x))
    for i in range(len(cfg.hidden_dims)):
        w = state.params[f"enc{i}_w"]
        b = state.params[f"enc{i}_b"]
        z = [sum(a[j] * w[j, k] for j in range(len(a))) + b[k] for k in range(w.shape[1])]
        if cfg.activation == "relu":
            a = [max(v, 0.0) for v in z]
        else:
            a = [np.tanh(v) for v in z]
    return np.array(a)


class TestInit:
    def test_same_seed_identical(self):
        a = init(small_config(seed=5))
        b = init(small_config(seed=5))
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    def test_biases_and_momentum_zero(self):
        state = init(small_config())
        for name, value in state.params.items():
            if name.endswith("_b"):
                assert np.all(value == 0.0)
        for buf in state.momentum.values():
            assert np.all(buf == 0.0)

    def test_weights_within_fan_in_bound(self):
        cfg = ModelConfig(input_dim=9, num_classes=4, hidden_dims=(16, 25), init_seed=1)
        state = init(cfg)
        fan_ins = {"enc0_w": 9, "enc1_w": 16, "head_primary_w": 25, "head_auxiliary_w": 25}
        for name, fan_in in fan_ins.items():
            bound = 1.0 / np.sqrt(fan_in)
            assert np.all(np.abs(state.params[name]) <= bound)


class TestForward:
    def test_zero_weights_relu_gives_zero(self):
        state = init(small_config(activation="relu"))
        for name in state.params:
            state.params[name][:] = 0.0
        assert np.array_equal(encode(state, np.ones(3)), np.zeros(4))

    def test_tanh_zero_input_gives_zero(self):
        cfg = ModelConfig(input_dim=2, num_classes=2, hidden_dims=(2,), activation="tanh", init_seed=0)
        state = init(cfg)
        assert np.allclose(encode(state, np.zeros(2)), np.zeros(2))

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(8)
        for activation in ("relu", "tanh"):
            state = init(small_config(activation=activation, seed=3))
            for _ in range(20):
                x = rng.normal(size=3)
                assert np.allclose(encode(state, x), straight_line_forward(state, x), atol=1e-12)

    def test_head_zero_weights(self):
        state = init(small_config())
        state.params["head_primary_w"][:] = 0.0
        state.params["head_primary_b"][:] = 0.0
        h = np.ones(4)
        assert np.array_equal(head_logits(state, "primary", h), np.zeros(3))

    def test_zero_rep_returns_bias(self):
        state = init(small_config())
        state.params["head_auxiliary_b"][:] = np.array([1.0, -2.0, 0.5])
        out = head_logits(state, "auxiliary", np.zeros(4))
        assert np.array_equal(out, [1.0, -2.0, 0.5])

    def test_head_matches_manual_affine(self):
        rng = np.random.default_rng(9)
        state = init(small_config(seed=2))
        h = rng.normal(size=4)
        w = state.params["head_primary_w"]
        b = state.params["head_primary_b"]
        manual = np.array([sum(h[j] * w[j, k] for j in range(4)) + b[k] for k in range(3)])
        assert np.allclose(head_logits(state, "primary", h), manual, atol=1e-12)

    def test_dimension_mismatch(self):
        state = init(small_config())
        with pytest.raises(ValueError):
            encode(state, np.ones(7))
        with pytest.raises(ValueError):
            head_logits(state, "primary", np.ones(9))


def encoded_part(state, branch, x, labels, log_prior=None, **kwargs):
    """A ``BatchPart`` over a forward of ``x`` on the state's parameters."""
    layers: list = []
    encode(state, x, layers)
    return BatchPart(branch, layers, labels, log_prior, **kwargs)


def loss_with_grads(state, parts):
    """``loss_and_grads`` with a copy of the gradient it leaves in
    ``state.grads``, so that the next call cannot overwrite it."""
    total, means = loss_and_grads(state, parts)
    return total, means, state.views(state.grads.flat.copy())


def finite_difference_check(state, build, step=1e-4, tol=1e-4):
    """Central finite differences against the analytic gradients, every entry.
    ``build(state)`` returns the parts, encoding their rows at the state's
    current parameters, so every perturbed loss gets its own forward."""
    _, _, grads = loss_with_grads(state, build(state))
    worst = 0.0
    for name, param in state.params.items():
        flat = param.reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + step
            plus, _ = loss_and_grads(state, build(state))
            flat[idx] = original - step
            minus, _ = loss_and_grads(state, build(state))
            flat[idx] = original
            numeric = (plus - minus) / (2 * step)
            analytic = grads[name].reshape(-1)[idx]
            worst = max(worst, rel_err(analytic, numeric))
    assert worst < tol, f"max relative gradient error {worst}"
    return worst


def random_parts(state, rng, with_synth=False, with_aux=True):
    """``build(state)``, which makes parts shaped like a training step's at
    the state's current parameters: the primary and the labeled aux part
    share one forward of an input array, synthesis expands rows of it by
    origin (with repeats, so the scatter-add is exercised), and an unlabeled
    aux part brings a second array, encoded in the same forward as the first."""
    cfg = state.config
    n = 8
    x = rng.normal(size=(n, cfg.input_dim))
    y = rng.integers(cfg.num_classes, size=n)
    log_prior = np.log(rng.dirichlet(np.ones(cfg.num_classes) * 5))
    plan = None
    if with_synth:
        k = 6
        plan = SynthPlan(
            origin=rng.integers(n, size=k),
            radii=rng.uniform(0.5, 2.0, size=k),
            noise=rng.normal(size=(k, cfg.rep_dim)),
        )
    if with_aux:
        xs = rng.normal(size=(n, cfg.input_dim))
        ys = rng.integers(cfg.num_classes, size=n)
        x = np.concatenate([x, xs])

    def build(state):
        layers: list = []
        encode(state, x, layers)
        labeled = [a[:n] for a in layers]
        parts = [BatchPart("primary", labeled, y, log_prior, synth=plan)]
        if with_aux:
            parts.append(BatchPart("auxiliary", labeled, y, log_prior))
            parts.append(BatchPart("auxiliary", [a[n:] for a in layers], ys, None))
        return parts

    return build


class TestGradients:
    def test_finite_differences_all_loss_kinds(self):
        rng = np.random.default_rng(12)
        state = init(small_config(activation="tanh", seed=4))
        finite_difference_check(state, random_parts(state, rng, with_synth=True, with_aux=True))

    def test_finite_differences_relu(self):
        rng = np.random.default_rng(13)
        state = init(small_config(activation="relu", seed=6))
        finite_difference_check(state, random_parts(state, rng, with_synth=False, with_aux=True))

    def test_saturated_batch_has_vanishing_gradient(self):
        state = init(small_config(activation="relu"))
        for i in range(len(state.config.hidden_dims)):
            state.params[f"enc{i}_w"][:] = 0.0
            state.params[f"enc{i}_b"][:] = 0.0
        # zero representations: logits equal the bias; saturate class 1
        state.params["head_primary_w"][:] = 0.0
        state.params["head_primary_b"][:] = np.array([-40.0, 40.0, -40.0])
        loss_and_grads(state, [encoded_part(state, "primary", np.ones((4, 3)), np.ones(4, dtype=int))])
        total = np.sqrt(sum(float(np.sum(g**2)) for g in state.grads.values()))
        assert total < 1e-6

    def test_doubling_batch_leaves_mean_gradient_unchanged(self):
        rng = np.random.default_rng(14)
        state = init(small_config(seed=7))
        x = rng.normal(size=(5, 3))
        y = rng.integers(3, size=5)
        _, _, g1 = loss_with_grads(state, [encoded_part(state, "primary", x, y)])
        _, _, g2 = loss_with_grads(state, [encoded_part(state, "primary", np.tile(x, (2, 1)), np.tile(y, 2))])
        for name in g1:
            assert np.allclose(g1[name], g2[name], atol=1e-12)

    def test_head_isolation_exact_zeros(self):
        rng = np.random.default_rng(15)
        state = init(small_config(seed=8))
        x = rng.normal(size=(4, 3))
        y = rng.integers(3, size=4)
        _, _, g_primary = loss_with_grads(state, [encoded_part(state, "primary", x, y)])
        assert np.all(g_primary["head_auxiliary_w"] == 0.0)
        assert np.all(g_primary["head_auxiliary_b"] == 0.0)
        _, _, g_aux = loss_with_grads(state, [encoded_part(state, "auxiliary", x, y)])
        assert np.all(g_aux["head_primary_w"] == 0.0)
        assert np.all(g_aux["head_primary_b"] == 0.0)
        # both route gradients into the shared encoder
        assert np.any(g_primary["enc0_w"] != 0.0)
        assert np.any(g_aux["enc0_w"] != 0.0)

    def test_normalizer_override_scales_mean(self):
        rng = np.random.default_rng(16)
        state = init(small_config(seed=9))
        x = rng.normal(size=(4, 3))
        y = rng.integers(3, size=4)
        loss_plain, _ = loss_and_grads(state, [encoded_part(state, "primary", x, y)])
        loss_scaled, _ = loss_and_grads(state, [encoded_part(state, "primary", x, y, normalizer=8)])
        assert loss_scaled == pytest.approx(loss_plain / 2)

    def test_non_finite_loss_raises(self):
        state = init(small_config())
        x = np.full((2, 3), np.nan)
        with pytest.raises(NonFiniteLossError):
            loss_and_grads(state, [encoded_part(state, "primary", x, np.zeros(2, dtype=int))])


def per_block_reference(state, part):
    """One part evaluated the way the loss worked before the fused pass: the
    part's rows get a forward and a backward of their own, and the origin
    rows of its synthesized copies are copied out and re-encoded for a
    second forward and backward. Returns (mean, grads)."""
    grads = state.zeros_like_params()
    w_key, b_key = f"head_{part.branch}_w", f"head_{part.branch}_b"
    head_w = state.params[w_key]
    labels = np.asarray(part.labels)
    plan = part.synth
    blocks = [(part.inputs, labels, None)]
    if plan is not None and len(plan):
        blocks.append((part.inputs[plan.origin], labels[plan.origin], plan))
    denom = part.normalizer or sum(x.shape[0] for x, _, _ in blocks)
    loss_sum = 0.0
    for x, y, synth in blocks:
        cache: list = []
        h0 = encode(state, x, cache)
        h = h0 if synth is None else synthesize(h0, synth.radii, synth.noise)
        logits = h @ head_w + state.params[b_key]
        if part.log_prior is not None:
            logits += part.log_prior
        losses, d_logits = network._xent_forward_backward(logits, y)
        loss_sum += float(losses.sum())
        d_logits /= denom
        grads[w_key] += h.T @ d_logits
        grads[b_key] += d_logits.sum(axis=0)
        d_h = d_logits @ head_w.T
        if synth is not None:
            u = synth.noise * d_h
            r = synth.radii[:, None]
            norms = np.linalg.norm(h0, axis=1, keepdims=True)
            inner = np.sum(h0 * u, axis=1, keepdims=True)
            d_h = d_h + r * u / norms - h0 * (r * inner / norms**3)
        network._backprop_encoder(state, cache, d_h, grads)
    return loss_sum / denom, grads


def assert_same_loss(a, b):
    """Two ``loss_with_grads`` results agree: means to 1e-12, gradients allclose."""
    assert a[0] == pytest.approx(b[0], abs=1e-12)
    assert np.allclose(a[1], b[1], rtol=0, atol=1e-12)
    for name in a[2]:
        assert np.allclose(a[2][name], b[2][name], rtol=1e-9, atol=1e-12), name


class TestFusedLoss:
    """``loss_and_grads`` stacks the distinct forwards of its parts and runs
    one backward; that may not change what it computes."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        layout=st.lists(
            st.tuples(
                st.sampled_from(BRANCHES),
                st.integers(0, 2),  # which forward the part reads (shared when repeated)
                st.booleans(),  # logit-adjusted
                st.integers(0, 4),  # synthesized copies
                st.sampled_from([None, 0, 11]),  # normalizer
            ),
            min_size=1,
            max_size=5,
        ),
        sizes=st.tuples(st.integers(0, 6), st.integers(1, 6), st.integers(1, 6)),
    )
    def test_equals_sum_of_parts_evaluated_alone(self, seed, layout, sizes):
        rng = np.random.default_rng(seed)
        state = init(small_config(seed=seed % 97))
        forwards = []
        for n in sizes:
            forwards.append([])
            encode(state, rng.normal(size=(n, 3)), forwards[-1])
        parts = []
        for branch, source, adjusted, k, normalizer in layout:
            layers = forwards[source]
            n = layers[0].shape[0]
            prior = np.log(rng.dirichlet(np.ones(3))) if adjusted else None
            part = BatchPart(branch, layers, rng.integers(3, size=n), prior, normalizer=normalizer)
            if k and n:
                part.synth = SynthPlan(
                    rng.integers(n, size=k), rng.uniform(0.5, 2.0, size=k), rng.normal(size=(k, 4))
                )
            parts.append(part)
        fused = loss_with_grads(state, parts)
        alone = [loss_with_grads(state, [part]) for part in parts]
        summed = {name: sum(result[2][name] for result in alone) for name in fused[2]}
        means = [result[0] for result in alone]
        assert_same_loss(fused, (sum(means), means, summed))
        for part, (mean, _, grads) in zip(parts, alone):
            if part.inputs.size and part.normalizer != 0:
                ref_mean, ref_grads = per_block_reference(state, part)
                assert_same_loss((mean, [mean], grads), (ref_mean, [ref_mean], ref_grads))

    def test_shared_inputs_equal_copies(self):
        rng = np.random.default_rng(21)
        state = init(small_config(seed=3))
        x = rng.normal(size=(6, 3))
        y = rng.integers(3, size=6)
        prior = np.log(rng.dirichlet(np.ones(3)))
        plan = SynthPlan(np.array([0, 2, 2, 5]), rng.uniform(0.5, 2.0, size=4), rng.normal(size=(4, 4)))

        def parts(shared):
            primary = encoded_part(state, "primary", x, y, prior, synth=plan)
            layers = primary.layers if shared else encoded_part(state, "auxiliary", x.copy(), y).layers
            return [primary, BatchPart("auxiliary", layers, y, prior)]

        assert_same_loss(loss_with_grads(state, parts(True)), loss_with_grads(state, parts(False)))

    def test_origin_synthesis_equals_re_encoded_copies(self):
        rng = np.random.default_rng(22)
        for activation in ("tanh", "relu"):
            state = init(small_config(activation=activation, seed=5))
            x = rng.normal(size=(7, 3)) + 1.0
            origin = np.array([6, 0, 0, 3, 6, 6])
            plan = SynthPlan(origin, rng.uniform(0.5, 2.0, size=6), rng.normal(size=(6, 4)))
            part = encoded_part(state, "primary", x, rng.integers(3, size=7), np.log(np.full(3, 1.0 / 3)), synth=plan)
            total, means, grads = loss_with_grads(state, [part])
            ref_mean, ref_grads = per_block_reference(state, part)
            assert_same_loss((total, means, grads), (ref_mean, [ref_mean], ref_grads))

    def test_workspace_gradient_is_zeroed_in_place(self):
        state = init(small_config(seed=24))
        parts = random_parts(state, np.random.default_rng(24), with_synth=True, with_aux=True)(state)
        grads = state.grads
        total, means = loss_and_grads(state, parts)
        first = grads.flat.copy()
        grads.flat[:] = 7.0
        assert loss_and_grads(state, parts) == (total, means)
        assert state.grads is grads
        assert np.array_equal(grads.flat, first)

    def test_one_forward_and_one_backward_per_call(self, monkeypatch):
        calls = {"forward": 0, "backward": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        # the names encode's callers look it up under: this module's, which
        # builds the parts, and network's, where the loss would find it
        forward = counted("forward", encode)
        monkeypatch.setitem(globals(), "encode", forward)
        monkeypatch.setattr(network, "encode", forward)
        monkeypatch.setattr(network, "_backprop_encoder", counted("backward", network._backprop_encoder))
        state = init(small_config(seed=4))
        build = random_parts(state, np.random.default_rng(23), with_synth=True, with_aux=True)
        parts = build(state)
        assert calls == {"forward": 1, "backward": 0}
        loss_and_grads(state, parts)  # the loss reads the parts' forward and encodes nothing
        assert calls == {"forward": 1, "backward": 1}


def filled_grads(state, value):
    """``state.grads``, every entry set to ``value``."""
    state.grads.flat[:] = value
    return state.grads


def per_tensor_sgd(params, momentum, grads, opt, lr):
    """Reference: the per-name SGD update the flat-vector step replaced.
    Returns fresh (params, momentum) dicts."""
    new_params, new_momentum = {}, {}
    for name, param in params.items():
        g = grads[name]
        if opt.weight_decay and not name.endswith("_b"):
            g = g + opt.weight_decay * param
        buf = momentum[name] * opt.momentum
        buf += g
        new_params[name], new_momentum[name] = param - lr * buf, buf
    return new_params, new_momentum


def assert_same_bytes(a, b):
    assert list(a) == list(b)
    for name in a:
        assert a[name].tobytes() == b[name].tobytes(), name


class TestSgdStep:
    def test_plain_gradient_descent(self):
        state = init(small_config(seed=10))
        opt = OptimizerConfig(momentum=0.0, weight_decay=0.0)
        filled_grads(state, 1.0)
        before = {k: v.copy() for k, v in state.params.items()}
        sgd_step(state, opt, lr=0.1)
        for name in state.params:
            assert np.allclose(state.params[name], before[name] - 0.1, atol=1e-15)

    def test_zero_grads_zero_buffers_no_change(self):
        state = init(small_config(seed=11))
        opt = OptimizerConfig(momentum=0.9, weight_decay=0.0)
        before = {k: v.copy() for k, v in state.params.items()}
        sgd_step(state, opt, lr=0.5)
        for name in state.params:
            assert np.array_equal(state.params[name], before[name])

    def test_momentum_recurrence(self):
        # constant gradient g: second step displacement is lr*g*(1+m)
        state = init(small_config(seed=12))
        m = 0.7
        opt = OptimizerConfig(momentum=m, weight_decay=0.0)
        filled_grads(state, 2.0)
        p0 = state.params["enc0_w"].copy()
        sgd_step(state, opt, lr=0.1)
        p1 = state.params["enc0_w"].copy()
        sgd_step(state, opt, lr=0.1)
        p2 = state.params["enc0_w"].copy()
        assert np.allclose(p0 - p1, 0.1 * 2.0, atol=1e-15)
        assert np.allclose(p1 - p2, 0.1 * 2.0 * (1 + m), atol=1e-12)

    def test_diverging_step_leaves_state_unchanged(self):
        state = init(small_config(seed=14))
        opt = OptimizerConfig(momentum=0.9, weight_decay=0.1)
        filled_grads(state, 1.0)
        sgd_step(state, opt, lr=0.1)
        params = {k: v.copy() for k, v in state.params.items()}
        momentum = {k: v.copy() for k, v in state.momentum.items()}
        grads = filled_grads(state, 0.5)
        last = list(state.params)[-1]
        grads[last][0] = np.inf  # only the last layer diverges
        with pytest.raises(NonFiniteLossError, match=last):
            sgd_step(state, opt, lr=0.1)
        for name in state.params:
            assert np.array_equal(state.params[name], params[name])
            assert np.array_equal(state.momentum[name], momentum[name])
        # the failed step left the views on their flat vectors, so it can go on
        filled_grads(state, 0.5)
        sgd_step(state, opt, lr=0.1)
        expected, _ = per_tensor_sgd(params, momentum, state.grads, opt, 0.1)
        assert_same_bytes(state.params, expected)

    def test_weight_decay_skips_biases(self):
        state = init(small_config(seed=13))
        opt = OptimizerConfig(momentum=0.0, weight_decay=0.5)
        state.params["enc0_b"][:] = 1.0
        before_w = state.params["enc0_w"].copy()
        sgd_step(state, opt, lr=0.1)
        assert np.allclose(state.params["enc0_b"], 1.0)  # no decay on bias
        assert np.allclose(state.params["enc0_w"], before_w * (1 - 0.1 * 0.5))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        hidden=st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
        momentum=st.sampled_from([0.0, 0.5, 0.9]),
        weight_decay=st.sampled_from([0.0, 5e-4, 0.3]),
        steps=st.integers(1, 4),
    )
    def test_flat_step_equals_per_tensor_loop(self, seed, hidden, momentum, weight_decay, steps):
        rng = np.random.default_rng(seed)
        state = init(small_config(activation="relu", seed=seed, hidden=hidden))
        opt = OptimizerConfig(momentum=momentum, weight_decay=weight_decay)
        params = {k: v.copy() for k, v in state.params.items()}
        buffers = {k: v.copy() for k, v in state.momentum.items()}
        for _ in range(steps):
            for g in state.grads.values():
                g[...] = rng.normal(scale=10.0, size=g.shape)
            lr = float(rng.uniform(0.001, 0.5))
            params, buffers = per_tensor_sgd(params, buffers, state.grads, opt, lr)
            sgd_step(state, opt, lr)
            assert_same_bytes(state.params, params)
            assert_same_bytes(state.momentum, buffers)
            assert np.shares_memory(state.params["enc0_w"], state.params.flat)

    def test_workspace_step_does_not_write_grads(self):
        state = init(small_config(seed=17))
        opt = OptimizerConfig(momentum=0.9, weight_decay=0.1)
        state.grads.flat[:] = np.random.default_rng(17).normal(size=state.size)
        before = state.grads.flat.copy()
        sgd_step(state, opt, lr=0.1)
        sgd_step(state, opt, lr=0.1)
        assert state.grads.flat.tobytes() == before.tobytes()

    def test_non_finite_workspace_step_keeps_params_and_momentum(self):
        state = init(small_config(seed=18))
        opt = OptimizerConfig(momentum=0.9, weight_decay=0.1)
        filled_grads(state, 1.0)
        sgd_step(state, opt, lr=0.1)
        params, momentum = state.params, state.momentum
        params_bytes, momentum_bytes = params.flat.tobytes(), momentum.flat.tobytes()
        state.grads.flat[:] = 0.5
        state.grads.flat[3] = np.nan
        with pytest.raises(NonFiniteLossError):
            sgd_step(state, opt, lr=0.1)
        assert state.params is params and state.momentum is momentum
        assert params.flat.tobytes() == params_bytes
        assert momentum.flat.tobytes() == momentum_bytes

    def test_five_workspace_steps_equal_per_tensor_loop(self):
        rng = np.random.default_rng(19)
        state = init(small_config(activation="relu", seed=19, hidden=(6, 5)))
        opt = OptimizerConfig(momentum=0.9, weight_decay=5e-4)
        params = {k: v.copy() for k, v in state.params.items()}
        buffers = {k: v.copy() for k, v in state.momentum.items()}
        for _ in range(5):
            state.grads.flat[:] = rng.normal(scale=3.0, size=state.size)
            lr = float(rng.uniform(0.001, 0.5))
            params, buffers = per_tensor_sgd(params, buffers, state.grads, opt, lr)
            sgd_step(state, opt, lr)
            assert_same_bytes(state.params, params)
            assert_same_bytes(state.momentum, buffers)

    def test_rebinding_a_view_rejected(self):
        grads = init(small_config(seed=16)).zeros_like_params()
        grads["enc0_b"] += 1.0  # in place: allowed
        assert grads.flat.sum() == grads["enc0_b"].size
        with pytest.raises(TypeError, match="in place"):
            grads["enc0_b"] = grads["enc0_b"] + 1.0


class TestCosineSchedule:
    def test_initial_value_is_base_lr(self):
        assert cosine_lr(0, 0.03, 1000) == pytest.approx(0.03)

    def test_final_value_high_precision(self):
        mp.dps = 50
        expected = float(mp.mpf("0.03") * mp.cos(7 * mp.pi / 16))
        assert cosine_lr(1000, 0.03, 1000) == pytest.approx(expected, abs=1e-15)
        assert cosine_lr(1000, 0.03, 1000) == pytest.approx(0.0058527, abs=1e-7)

    def test_zero_base_lr(self):
        assert all(cosine_lr(t, 0.0, 100) == 0.0 for t in range(0, 101, 10))

    def test_strictly_decreasing_and_positive(self):
        values = [cosine_lr(t, 0.03, 500) for t in range(501)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 0 for v in values)
