import numpy as np
import pytest
from mpmath import mp

from pseudopool.losses import ClassPrior
from pseudopool.network import (
    BatchPart,
    ModelConfig,
    NonFiniteLossError,
    OptimizerConfig,
    SynthPlan,
    cosine_lr,
    encode,
    head_logits,
    init,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
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


def finite_difference_check(state, parts, step=1e-4, tol=1e-4):
    """Central finite differences against the analytic gradients, every entry."""
    _, _, grads = loss_and_grads(state, parts)
    worst = 0.0
    for name, param in state.params.items():
        flat = param.reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + step
            plus, _, _ = loss_and_grads(state, parts)
            flat[idx] = original - step
            minus, _, _ = loss_and_grads(state, parts)
            flat[idx] = original
            numeric = (plus - minus) / (2 * step)
            analytic = grads[name].reshape(-1)[idx]
            worst = max(worst, rel_err(analytic, numeric))
    assert worst < tol, f"max relative gradient error {worst}"
    return worst


def random_parts(state, rng, with_synth=False, with_aux=True):
    cfg = state.config
    n = 8
    x = rng.normal(size=(n, cfg.input_dim))
    y = rng.integers(cfg.num_classes, size=n)
    prior = ClassPrior(rng.dirichlet(np.ones(cfg.num_classes) * 5))
    primary = BatchPart("primary", x, y, prior.log)
    if with_synth:
        k = 3
        primary.synth = SynthPlan(
            inputs=rng.normal(size=(k, cfg.input_dim)) + 1.0,
            labels=rng.integers(cfg.num_classes, size=k),
            radii=rng.uniform(0.5, 2.0, size=k),
            noise=rng.normal(size=(k, cfg.rep_dim)),
        )
    parts = [primary]
    if with_aux:
        parts.append(BatchPart("auxiliary", x, y, prior.log))
        xs = rng.normal(size=(n, cfg.input_dim))
        parts.append(BatchPart("auxiliary", xs, rng.integers(cfg.num_classes, size=n), None))
    return parts


class TestGradients:
    def test_finite_differences_all_loss_kinds(self):
        rng = np.random.default_rng(12)
        state = init(small_config(activation="tanh", seed=4))
        parts = random_parts(state, rng, with_synth=True, with_aux=True)
        finite_difference_check(state, parts)

    def test_finite_differences_relu(self):
        rng = np.random.default_rng(13)
        state = init(small_config(activation="relu", seed=6))
        parts = random_parts(state, rng, with_synth=False, with_aux=True)
        finite_difference_check(state, parts)

    def test_saturated_batch_has_vanishing_gradient(self):
        state = init(small_config(activation="relu"))
        for i in range(len(state.config.hidden_dims)):
            state.params[f"enc{i}_w"][:] = 0.0
            state.params[f"enc{i}_b"][:] = 0.0
        # zero representations: logits equal the bias; saturate class 1
        state.params["head_primary_w"][:] = 0.0
        state.params["head_primary_b"][:] = np.array([-40.0, 40.0, -40.0])
        part = BatchPart("primary", np.ones((4, 3)), np.ones(4, dtype=int), None)
        _, _, grads = loss_and_grads(state, [part])
        total = np.sqrt(sum(float(np.sum(g**2)) for g in grads.values()))
        assert total < 1e-6

    def test_doubling_batch_leaves_mean_gradient_unchanged(self):
        rng = np.random.default_rng(14)
        state = init(small_config(seed=7))
        x = rng.normal(size=(5, 3))
        y = rng.integers(3, size=5)
        part_single = BatchPart("primary", x, y, None)
        part_double = BatchPart("primary", np.tile(x, (2, 1)), np.tile(y, 2), None)
        _, _, g1 = loss_and_grads(state, [part_single])
        _, _, g2 = loss_and_grads(state, [part_double])
        for name in g1:
            assert np.allclose(g1[name], g2[name], atol=1e-12)

    def test_head_isolation_exact_zeros(self):
        rng = np.random.default_rng(15)
        state = init(small_config(seed=8))
        x = rng.normal(size=(4, 3))
        y = rng.integers(3, size=4)
        _, _, g_primary = loss_and_grads(state, [BatchPart("primary", x, y, None)])
        assert np.all(g_primary["head_auxiliary_w"] == 0.0)
        assert np.all(g_primary["head_auxiliary_b"] == 0.0)
        _, _, g_aux = loss_and_grads(state, [BatchPart("auxiliary", x, y, None)])
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
        loss_plain, _, _ = loss_and_grads(state, [BatchPart("primary", x, y, None)])
        loss_scaled, _, _ = loss_and_grads(
            state, [BatchPart("primary", x, y, None, normalizer=8)]
        )
        assert loss_scaled == pytest.approx(loss_plain / 2)

    def test_non_finite_loss_raises(self):
        state = init(small_config())
        x = np.full((2, 3), np.nan)
        with pytest.raises(NonFiniteLossError):
            loss_and_grads(state, [BatchPart("primary", x, np.zeros(2, dtype=int), None)])


class TestSgdStep:
    def test_plain_gradient_descent(self):
        state = init(small_config(seed=10))
        opt = OptimizerConfig(momentum=0.0, weight_decay=0.0, total_steps=10)
        grads = {k: np.ones_like(v) for k, v in state.params.items()}
        before = {k: v.copy() for k, v in state.params.items()}
        sgd_step(state, grads, opt, lr=0.1)
        for name in state.params:
            assert np.allclose(state.params[name], before[name] - 0.1, atol=1e-15)

    def test_zero_grads_zero_buffers_no_change(self):
        state = init(small_config(seed=11))
        opt = OptimizerConfig(momentum=0.9, weight_decay=0.0, total_steps=10)
        before = {k: v.copy() for k, v in state.params.items()}
        sgd_step(state, state.zeros_like_params(), opt, lr=0.5)
        for name in state.params:
            assert np.array_equal(state.params[name], before[name])

    def test_momentum_recurrence(self):
        # constant gradient g: second step displacement is lr*g*(1+m)
        state = init(small_config(seed=12))
        m = 0.7
        opt = OptimizerConfig(momentum=m, weight_decay=0.0, total_steps=10)
        grads = {k: np.full_like(v, 2.0) for k, v in state.params.items()}
        p0 = state.params["enc0_w"].copy()
        sgd_step(state, grads, opt, lr=0.1)
        p1 = state.params["enc0_w"].copy()
        sgd_step(state, grads, opt, lr=0.1)
        p2 = state.params["enc0_w"].copy()
        assert np.allclose(p0 - p1, 0.1 * 2.0, atol=1e-15)
        assert np.allclose(p1 - p2, 0.1 * 2.0 * (1 + m), atol=1e-12)

    def test_diverging_step_leaves_state_unchanged(self):
        state = init(small_config(seed=14))
        opt = OptimizerConfig(momentum=0.9, weight_decay=0.1, total_steps=10)
        sgd_step(state, {k: np.ones_like(v) for k, v in state.params.items()}, opt, lr=0.1)
        params = {k: v.copy() for k, v in state.params.items()}
        momentum = {k: v.copy() for k, v in state.momentum.items()}
        grads = {k: np.full_like(v, 0.5) for k, v in state.params.items()}
        last = list(state.params)[-1]
        grads[last][0] = np.inf  # only the last layer diverges
        with pytest.raises(NonFiniteLossError):
            sgd_step(state, grads, opt, lr=0.1)
        for name in state.params:
            assert np.array_equal(state.params[name], params[name])
            assert np.array_equal(state.momentum[name], momentum[name])

    def test_weight_decay_skips_biases(self):
        state = init(small_config(seed=13))
        opt = OptimizerConfig(momentum=0.0, weight_decay=0.5, total_steps=10)
        state.params["enc0_b"][:] = 1.0
        before_w = state.params["enc0_w"].copy()
        sgd_step(state, state.zeros_like_params(), opt, lr=0.1)
        assert np.allclose(state.params["enc0_b"], 1.0)  # no decay on bias
        assert np.allclose(state.params["enc0_w"], before_w * (1 - 0.1 * 0.5))


class TestCosineSchedule:
    def test_initial_value_is_base_lr(self):
        opt = OptimizerConfig(total_steps=1000)
        assert cosine_lr(0, opt) == pytest.approx(0.03)

    def test_final_value_high_precision(self):
        mp.dps = 50
        expected = float(mp.mpf("0.03") * mp.cos(7 * mp.pi / 16))
        opt = OptimizerConfig(total_steps=1000)
        assert cosine_lr(1000, opt) == pytest.approx(expected, abs=1e-15)
        assert cosine_lr(1000, opt) == pytest.approx(0.0058527, abs=1e-7)

    def test_zero_base_lr(self):
        opt = OptimizerConfig(base_lr=0.0, total_steps=100)
        assert all(cosine_lr(t, opt) == 0.0 for t in range(0, 101, 10))

    def test_strictly_decreasing_and_positive(self):
        opt = OptimizerConfig(total_steps=500)
        values = [cosine_lr(t, opt) for t in range(501)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 0 for v in values)

    def test_out_of_range(self):
        opt = OptimizerConfig(total_steps=10)
        with pytest.raises(ValueError):
            cosine_lr(11, opt)
        with pytest.raises(ValueError):
            cosine_lr(-1, opt)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        state = init(small_config(seed=14))
        for buf in state.momentum.values():
            buf[:] = rng.normal(size=buf.shape)
        opt = OptimizerConfig(total_steps=123)
        rng_states = {"main": np.random.default_rng(3).bit_generator.state}
        extra = {"note": "hello", "value": 7}
        arrays = {"votes": np.arange(12).reshape(3, 4)}
        path = save_checkpoint(
            tmp_path / "ckpt.npz", state, opt, epoch=9,
            rng_states=rng_states, extra=extra, extra_arrays=arrays,
        )
        loaded, opt2, epoch, rng2, extra2, arrays2 = load_checkpoint(path)
        assert epoch == 9
        assert opt2 == opt
        assert extra2 == extra
        assert rng2 == rng_states
        assert np.array_equal(arrays2["votes"], arrays["votes"])
        for name in state.params:
            assert state.params[name].tobytes() == loaded.params[name].tobytes()
            assert state.momentum[name].tobytes() == loaded.momentum[name].tobytes()
        assert loaded.config == state.config
