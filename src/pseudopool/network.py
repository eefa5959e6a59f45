"""Shared MLP encoder with two linear heads, exact gradients, and SGD.

The forward pass, the backward pass, and the optimizer are written out in
numpy (float64 throughout) so every gradient can be checked against central
finite differences. A loss is described as a list of ``BatchPart`` objects;
each part is a batch-mean term routed to one head, optionally extended by
synthesized representations whose construction stays differentiable in the
encoder parameters (the noise and radii are constants of the step).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .losses import log_softmax

ACTIVATIONS = ("relu", "tanh")
BRANCHES = ("primary", "auxiliary")

CHECKPOINT_VERSION = 1


class NonFiniteLossError(ArithmeticError):
    """Raised when a loss or update stops being finite (divergence signal)."""


@dataclass
class ModelConfig:
    input_dim: int
    num_classes: int
    hidden_dims: tuple[int, ...] = (64, 64)
    activation: str = "relu"
    init_seed: int = 0

    def __post_init__(self) -> None:
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)
        if self.input_dim < 1 or self.num_classes < 2:
            raise ValueError("input_dim must be >= 1 and num_classes >= 2")
        if not self.hidden_dims or any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden_dims must be non-empty positive integers")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")

    @property
    def rep_dim(self) -> int:
        return self.hidden_dims[-1]


@dataclass
class OptimizerConfig:
    base_lr: float = 0.03
    momentum: float = 0.9
    weight_decay: float = 5e-4
    total_steps: int | None = None

    def __post_init__(self) -> None:
        if self.base_lr < 0:
            raise ValueError("base_lr must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.total_steps is not None and self.total_steps < 1:
            raise ValueError("total_steps must be positive")


class ModelState:
    """Parameters and momentum buffers, keyed by layer name.

    Encoder layers are ``enc{i}_w`` / ``enc{i}_b``; the heads are
    ``head_primary_w`` / ``head_primary_b`` and the auxiliary pair.
    """

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = params
        self.momentum = {k: np.zeros_like(v) for k, v in params.items()}

    def param_names(self) -> list[str]:
        return list(self.params.keys())

    def copy(self) -> "ModelState":
        clone = ModelState(self.config, {k: v.copy() for k, v in self.params.items()})
        clone.momentum = {k: v.copy() for k, v in self.momentum.items()}
        return clone

    def zeros_like_params(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.params.items()}


def init(config: ModelConfig) -> ModelState:
    """Fan-in-scaled uniform init: W ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)),
    zero biases, zero momentum. Deterministic per init_seed."""
    rng = np.random.default_rng(config.init_seed)
    dims = [config.input_dim, *config.hidden_dims]
    params: dict[str, np.ndarray] = {}
    for i in range(len(dims) - 1):
        limit = 1.0 / np.sqrt(dims[i])
        params[f"enc{i}_w"] = rng.uniform(-limit, limit, size=(dims[i], dims[i + 1]))
        params[f"enc{i}_b"] = np.zeros(dims[i + 1])
    limit = 1.0 / np.sqrt(config.rep_dim)
    for branch in BRANCHES:
        params[f"head_{branch}_w"] = rng.uniform(
            -limit, limit, size=(config.rep_dim, config.num_classes)
        )
        params[f"head_{branch}_b"] = np.zeros(config.num_classes)
    return ModelState(config, params)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    return np.maximum(z, 0.0) if kind == "relu" else np.tanh(z)


def _activate_grad(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    # relu subgradient at exactly 0 is taken as 0
    return (z > 0).astype(np.float64) if kind == "relu" else 1.0 - a * a


def _forward_encoder(state: ModelState, X: np.ndarray) -> tuple[np.ndarray, list]:
    """Forward pass caching (input, pre-activation, activation) per layer."""
    cfg = state.config
    a = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if a.shape[1] != cfg.input_dim:
        raise ValueError(f"expected input dim {cfg.input_dim}, got {a.shape[1]}")
    cache = []
    for i in range(len(cfg.hidden_dims)):
        z = a @ state.params[f"enc{i}_w"] + state.params[f"enc{i}_b"]
        out = _activate(z, cfg.activation)
        cache.append((a, z, out))
        a = out
    return a, cache


def encode(state: ModelState, x: np.ndarray) -> np.ndarray:
    """Deterministic encoder forward; output length = last hidden dim."""
    x = np.asarray(x, dtype=np.float64)
    h, _ = _forward_encoder(state, x)
    return h[0] if x.ndim == 1 else h


def head_logits(state: ModelState, branch: str, h: np.ndarray) -> np.ndarray:
    """Affine map of a representation by the selected head."""
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}")
    h = np.asarray(h, dtype=np.float64)
    w = state.params[f"head_{branch}_w"]
    b = state.params[f"head_{branch}_b"]
    if h.shape[-1] != w.shape[0]:
        raise ValueError(f"expected representation dim {w.shape[0]}, got {h.shape[-1]}")
    return h @ w + b


def _backprop_encoder(
    state: ModelState, cache: list, d_h: np.ndarray, grads: dict[str, np.ndarray]
) -> None:
    cfg = state.config
    delta = d_h
    for i in reversed(range(len(cache))):
        a_in, z, a_out = cache[i]
        delta = delta * _activate_grad(z, a_out, cfg.activation)
        grads[f"enc{i}_w"] += a_in.T @ delta
        grads[f"enc{i}_b"] += delta.sum(axis=0)
        delta = delta @ state.params[f"enc{i}_w"].T


@dataclass
class SynthPlan:
    """Synthesized-representation block attached to a batch part.

    ``inputs`` are re-encoded on every evaluation so the synthesized
    representations h' = h + (h/||h||) * (radius * noise) remain functions of
    the encoder parameters; ``radii`` and ``noise`` are step constants.
    """

    inputs: np.ndarray
    labels: np.ndarray
    radii: np.ndarray
    noise: np.ndarray

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass
class BatchPart:
    """One batch-mean loss term routed to a single head.

    ``log_prior`` None means plain cross-entropy. ``normalizer`` overrides the
    mean denominator (used for gated terms averaged over the full batch).
    """

    branch: str
    inputs: np.ndarray
    labels: np.ndarray
    log_prior: np.ndarray | None = None
    synth: SynthPlan | None = None
    normalizer: int | None = None


def _apply_synthesis(h: np.ndarray, radii: np.ndarray, noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(h, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("zero-norm representation cannot be synthesized from")
    return h + (h / norms) * (radii[:, None] * noise), norms


def _xent_forward_backward(
    logits: np.ndarray, labels: np.ndarray, log_prior: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row losses and d(loss_sum)/d(logits) for (adjusted) cross-entropy."""
    adjusted = logits if log_prior is None else logits + log_prior
    logp = log_softmax(adjusted)
    rows = np.arange(adjusted.shape[0])
    labels = np.asarray(labels, dtype=np.int64)
    losses = -logp[rows, labels]
    d_logits = np.exp(logp)
    d_logits[rows, labels] -= 1.0
    return losses, d_logits


def loss_and_grads(
    state: ModelState, parts: list[BatchPart]
) -> tuple[float, list[float], dict[str, np.ndarray]]:
    """Exact analytic gradients of the summed per-part batch means.

    Returns (total loss, per-part means, gradient dict covering every
    parameter; entries for heads a part never touches stay exactly zero).
    """
    grads = state.zeros_like_params()
    part_means: list[float] = []
    total = 0.0
    for part in parts:
        if part.branch not in BRANCHES:
            raise ValueError(f"branch must be one of {BRANCHES}")
        n_plain = np.atleast_2d(part.inputs).shape[0] if part.inputs.size else 0
        n_synth = len(part.synth) if part.synth is not None else 0
        denom = part.normalizer if part.normalizer is not None else n_plain + n_synth
        if denom <= 0 or (n_plain + n_synth) == 0:
            part_means.append(0.0)
            continue
        w_key, b_key = f"head_{part.branch}_w", f"head_{part.branch}_b"
        head_w = state.params[w_key]
        loss_sum = 0.0

        if n_plain:
            h, cache = _forward_encoder(state, part.inputs)
            logits = h @ head_w + state.params[b_key]
            losses, d_logits = _xent_forward_backward(logits, part.labels, part.log_prior)
            loss_sum += float(losses.sum())
            d_logits /= denom
            grads[w_key] += h.T @ d_logits
            grads[b_key] += d_logits.sum(axis=0)
            _backprop_encoder(state, cache, d_logits @ head_w.T, grads)

        if n_synth:
            plan = part.synth
            h0, cache0 = _forward_encoder(state, plan.inputs)
            h_prime, norms = _apply_synthesis(h0, plan.radii, plan.noise)
            logits = h_prime @ head_w + state.params[b_key]
            losses, d_logits = _xent_forward_backward(logits, plan.labels, part.log_prior)
            loss_sum += float(losses.sum())
            d_logits /= denom
            grads[w_key] += h_prime.T @ d_logits
            grads[b_key] += d_logits.sum(axis=0)
            d_hp = d_logits @ head_w.T
            # Jacobian of h' = h + (h/||h||) * (r * noise) w.r.t. h:
            #   d_h = d_hp + r*(noise . d_hp)/||h|| - h * (h . (r*noise . d_hp)) / ||h||^3
            u = plan.noise * d_hp
            r = plan.radii[:, None]
            inner = np.sum(h0 * u, axis=1, keepdims=True)
            d_h0 = d_hp + r * u / norms - h0 * (r * inner / norms**3)
            _backprop_encoder(state, cache0, d_h0, grads)

        mean = loss_sum / denom
        if not np.isfinite(mean):
            raise NonFiniteLossError("loss is not finite")
        part_means.append(mean)
        total += mean
    return total, part_means, grads


def sgd_step(
    state: ModelState, grads: dict[str, np.ndarray], opt: OptimizerConfig, lr: float
) -> ModelState:
    """One SGD-with-momentum update of ``state``; returns the updated state.

    buffer <- momentum*buffer + grad + weight_decay*param, then
    param <- param - lr*buffer. Weight decay skips biases. The step is
    atomic: the new parameters and buffers are built as fresh arrays and
    swapped in only once every new parameter is finite; otherwise it raises
    ``NonFiniteLossError`` and leaves ``state`` untouched.
    """
    if lr <= 0:
        raise ValueError("lr must be positive")
    params, momentum = {}, {}
    for name, param in state.params.items():
        g = grads[name]
        if opt.weight_decay and not name.endswith("_b"):
            g = g + opt.weight_decay * param
        buf = state.momentum[name] * opt.momentum
        buf += g
        new = param - lr * buf
        if not np.isfinite(new).all():
            raise NonFiniteLossError(f"non-finite update in parameter {name}")
        params[name], momentum[name] = new, buf
    state.params, state.momentum = params, momentum
    return state


def cosine_lr(t: int, opt: OptimizerConfig) -> float:
    """Learning rate base_lr * cos(7*pi*t / (16*T)); decreasing, positive on [0, T]."""
    if opt.total_steps is None:
        raise ValueError("OptimizerConfig.total_steps must be set for the schedule")
    if t < 0 or t > opt.total_steps:
        raise ValueError(f"step {t} outside [0, {opt.total_steps}]")
    return opt.base_lr * float(np.cos(7.0 * np.pi * t / (16.0 * opt.total_steps)))


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def save_checkpoint(
    path: str | Path,
    state: ModelState,
    opt: OptimizerConfig,
    epoch: int,
    rng_states: dict | None = None,
    extra: dict | None = None,
    extra_arrays: dict[str, np.ndarray] | None = None,
) -> Path:
    """Versioned npz checkpoint; float64 arrays round-trip bit-exactly.

    ``extra``/``extra_arrays`` hold caller-owned run state (the trainer uses
    them for its registry, pool, and schedule position).
    """
    path = Path(path)
    header = {
        "version": CHECKPOINT_VERSION,
        "model": {
            "input_dim": state.config.input_dim,
            "num_classes": state.config.num_classes,
            "hidden_dims": list(state.config.hidden_dims),
            "activation": state.config.activation,
            "init_seed": state.config.init_seed,
        },
        "optimizer": {
            "base_lr": opt.base_lr,
            "momentum": opt.momentum,
            "weight_decay": opt.weight_decay,
            "total_steps": opt.total_steps,
        },
        "epoch": epoch,
        "rng_states": rng_states,
        "extra": extra,
    }
    arrays = {f"param_{k}": v for k, v in state.params.items()}
    arrays.update({f"mom_{k}": v for k, v in state.momentum.items()})
    if extra_arrays:
        arrays.update({f"xtr_{k}": v for k, v in extra_arrays.items()})
    arrays["header"] = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        np.savez(fh, **arrays)
    return path


def load_checkpoint(path: str | Path):
    """Inverse of save_checkpoint.

    Returns (state, optimizer config, epoch, rng_states, extra, extra_arrays).
    """
    with np.load(Path(path), allow_pickle=False) as data:
        header = json.loads(bytes(data["header"]).decode("utf-8"))
        if header["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {header['version']}")
        model_cfg = ModelConfig(
            input_dim=header["model"]["input_dim"],
            num_classes=header["model"]["num_classes"],
            hidden_dims=tuple(header["model"]["hidden_dims"]),
            activation=header["model"]["activation"],
            init_seed=header["model"]["init_seed"],
        )
        params = {
            k[len("param_"):]: data[k].copy() for k in data.files if k.startswith("param_")
        }
        state = ModelState(model_cfg, params)
        state.momentum = {
            k[len("mom_"):]: data[k].copy() for k in data.files if k.startswith("mom_")
        }
        extra_arrays = {
            k[len("xtr_"):]: data[k].copy() for k in data.files if k.startswith("xtr_")
        }
    opt = OptimizerConfig(**header["optimizer"])
    return state, opt, header["epoch"], header["rng_states"], header["extra"], extra_arrays
