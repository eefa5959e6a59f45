"""Shared MLP encoder with two linear heads, exact gradients, and SGD.

The forward pass, the backward pass, and the optimizer are written out in
numpy (float64 throughout) so every gradient can be checked against central
finite differences. A loss is described as a list of ``BatchPart`` objects;
each part is a batch-mean term routed to one head, optionally extended by
synthesized representations of some of its own rows, and carries the
per-layer activations of the forward that ``encode`` made of its rows.
``loss_and_grads`` runs no forward of its own: it stacks the distinct
activation lists of its parts, builds the synthesized copies from those same
representations (so they stay differentiable in the encoder parameters; the
noise and radii are constants of the step), runs one encoder backward into
the state's gradient vector, and ``sgd_step`` reads that vector.

Every head loss is a softmax cross-entropy. The logit-adjusted one first adds
the pool's log class prior to the logits (a part's ``log_prior``), so that its
minimizer targets balanced error instead of plain accuracy. ``log_softmax``
subtracts the row max first, so losses stay finite far beyond float64 exp range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .augment import row_norms, synthesize
from .records import as_tuples

ACTIVATIONS = ("relu", "tanh")
BRANCHES = ("primary", "auxiliary")
_HEAD_KEYS = {branch: (f"head_{branch}_w", f"head_{branch}_b") for branch in BRANCHES}


class NonFiniteLossError(ArithmeticError):
    """Raised when a loss or update stops being finite (divergence signal)."""


def validate_architecture(hidden_dims: tuple[int, ...], activation: str) -> None:
    """The encoder rule ``ModelConfig`` and ``TrainConfig`` share."""
    if not hidden_dims or any(h < 1 for h in hidden_dims):
        raise ValueError("hidden_dims must be non-empty positive integers")
    if activation not in ACTIVATIONS:
        raise ValueError(f"activation must be one of {ACTIVATIONS}")


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    num_classes: int
    hidden_dims: tuple[int, ...] = (64, 64)
    activation: str = "relu"
    init_seed: int = 0

    def __post_init__(self) -> None:
        as_tuples(self, "hidden_dims")
        if self.input_dim < 1 or self.num_classes < 2:
            raise ValueError("input_dim must be >= 1 and num_classes >= 2")
        validate_architecture(self.hidden_dims, self.activation)

    @property
    def rep_dim(self) -> int:
        return self.hidden_dims[-1]


@dataclass(frozen=True)
class OptimizerConfig:
    base_lr: float = 0.03
    momentum: float = 0.9
    weight_decay: float = 5e-4

    def __post_init__(self) -> None:
        if not 0 < self.base_lr < math.inf:
            raise ValueError("base_lr must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be finite and >= 0")


class ParamVector(dict):
    """Named views into one contiguous float64 vector, ``flat``.

    The parameters, the momentum buffers and the gradient of a ``ModelState``
    take this form, so the optimizer updates each of them as one vector.
    Write into a view in place; rebinding a name to another array would
    leave it out of ``flat``. A pickled or deep-copied vector is rebuilt from
    a copy of ``flat`` and the layout, so its views write into its own copy.
    """

    def __init__(self, flat: np.ndarray, layout: list[tuple[str, int, int, tuple[int, ...]]]):
        super().__init__(
            (name, flat[start:stop].reshape(shape)) for name, start, stop, shape in layout
        )
        self.flat = flat
        self.layout = layout

    def __reduce__(self):
        return type(self), (self.flat, self.layout)

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        # ``grads[name] += g`` adds in place and stores the same view back
        if value is not self.get(name):
            raise TypeError(f"{name} is a view into a flat buffer; write into it in place")
        super().__setitem__(name, value)


class ModelState:
    """Parameters and momentum buffers (zero at construction), keyed by layer name.

    Encoder layers are ``enc{i}_w`` / ``enc{i}_b``; the heads are
    ``head_primary_w`` / ``head_primary_b`` and the auxiliary pair.
    ``params`` and ``momentum`` are ``ParamVector``s. Their flat vectors hold
    every weight matrix first and the biases after them, so weight decay
    covers the first ``decayed`` entries.

    The state is also a training step's workspace, with every view built
    once: ``grads`` is the one gradient vector. ``loss_and_grads`` fills it
    and ``sgd_step`` reads it, writing the updated parameters and momentum
    into a spare pair of vectors that it then swaps in.
    """

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.encoder_keys = [(f"enc{i}_w", f"enc{i}_b") for i in range(len(config.hidden_dims))]
        names = list(params)
        order = [n for n in names if not n.endswith("_b")] + [n for n in names if n.endswith("_b")]
        stops = np.cumsum([np.size(params[n]) for n in order]).tolist()
        span = {n: (stop - np.size(params[n]), stop) for n, stop in zip(order, stops)}
        self.layout = [(n, *span[n], np.shape(params[n])) for n in names]
        self.decayed = sum(np.size(params[n]) for n in names if not n.endswith("_b"))
        self.size = stops[-1]
        self.params = self._pack(params)
        self.momentum = self.zeros_like_params()
        self.grads = self.zeros_like_params()
        self._spare = (self.views(np.empty(self.size)), self.views(np.empty(self.size)))

    def _pack(self, arrays: dict[str, np.ndarray]) -> ParamVector:
        """A fresh vector holding a copy of ``arrays`` (same names and shapes)."""
        packed = self.views(np.empty(self.size))
        if set(arrays) != set(packed):
            raise ValueError(f"expected arrays {sorted(packed)}, got {sorted(arrays)}")
        for name, view in packed.items():
            view[...] = arrays[name]
        return packed

    def views(self, flat: np.ndarray) -> ParamVector:
        """Named views of a flat vector laid out like ``params.flat``."""
        return ParamVector(flat, self.layout)

    def zeros_like_params(self) -> ParamVector:
        return self.views(np.zeros(self.size))


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


def encode(state: ModelState, x: np.ndarray, layers: list | None = None) -> np.ndarray:
    """Deterministic encoder forward; output length = last hidden dim.

    ``layers``, when given a list, receives the forward's per-layer
    activations (2-D, input first, output last): the rows a ``BatchPart``
    hands to ``loss_and_grads``. The backward needs no pre-activation, so
    none is kept; each activation is computed in place over its pre-activation.
    """
    x = np.asarray(x, dtype=np.float64)
    a = x if x.ndim == 2 else np.atleast_2d(x)
    params, relu = state.params, state.config.activation == "relu"
    activations = [a]
    for w_key, b_key in state.encoder_keys:
        z = a @ params[w_key]
        z += params[b_key]
        a = np.maximum(z, 0.0, out=z) if relu else np.tanh(z, out=z)
        activations.append(a)
    if layers is not None:
        layers += activations
    return a[0] if x.ndim == 1 else a


def head_logits(state: ModelState, branch: str, h: np.ndarray) -> np.ndarray:
    """Affine map of a representation by the head ``branch`` (one of ``BRANCHES``)."""
    w_key, b_key = _HEAD_KEYS[branch]
    return np.asarray(h, dtype=np.float64) @ state.params[w_key] + state.params[b_key]


# numpy sums fewer than this many terms in sequence, and more pairwise when
# they lie along a contiguous axis
_SEQUENTIAL_SUM_MAX = 7


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise stabilized log-softmax (works on 1-D or 2-D input).

    numpy reduces along a short trailing axis slowly, so a 2-D input with at
    most ``_SEQUENTIAL_SUM_MAX`` classes takes its max and sum over a
    contiguous class-major copy. Both orders sum those few terms in sequence,
    so the result is bit-identical to the row-wise reduction; wider inputs
    keep the row-wise one, whose pairwise sum a class-major pass would not
    reproduce. The result is C-contiguous either way.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] > _SEQUENTIAL_SUM_MAX:
        shifted = z - np.max(z, axis=-1, keepdims=True)
        return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    zt = z.T.copy()  # always a copy (z.T may already be contiguous): written in place
    zt -= np.maximum.reduce(zt, axis=0)
    zt -= np.log(np.add.reduce(np.exp(zt), axis=0))
    return np.ascontiguousarray(zt.T)


def top_class(state: ModelState, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(argmax, max softmax) of the primary head per row of the 2-D ``h``; argmax
    ties go to the lowest class index. The max is read at the argmax, which is
    exact and skips a slow reduction along the short class axis."""
    probs = np.exp(log_softmax(head_logits(state, "primary", h)))
    labels = probs.argmax(axis=1)
    return labels, probs[np.arange(probs.shape[0]), labels]


def _backprop_encoder(
    state: ModelState, activations: list[np.ndarray], d_h: np.ndarray, grads: dict[str, np.ndarray]
) -> None:
    """Add the encoder's parameter gradients for output gradient ``d_h`` into
    ``grads``; ``d_h`` is overwritten."""
    relu = state.config.activation == "relu"
    delta = d_h
    for i in reversed(range(len(state.encoder_keys))):
        w_key, b_key = state.encoder_keys[i]
        a = activations[i + 1]
        # relu: a > 0 exactly where the pre-activation is; its subgradient at 0
        # is 0. The boolean mask multiplies as 1.0 / 0.0, with no float copy of it
        delta *= a > 0 if relu else 1.0 - a * a
        # in-place adds into the views: ``grads[key] += g`` would store each back
        g_w, g_b = grads[w_key], grads[b_key]
        g_w += activations[i].T @ delta
        g_b += np.add.reduce(delta, axis=0)
        if i:  # the input needs no gradient
            delta = delta @ state.params[w_key].T


@dataclass
class SynthPlan:
    """Synthesized-representation block attached to a batch part.

    Copy ``k`` is built from row ``origin[k]`` of its part's inputs, and
    carries that row's label: h' = h + (h/||h||) * (radius * noise), with h
    taken from the same forward pass as the part's own rows, so the copies
    remain functions of the encoder parameters. ``radii`` and ``noise`` are
    step constants.
    """

    origin: np.ndarray
    radii: np.ndarray
    noise: np.ndarray

    def __len__(self) -> int:
        return self.origin.shape[0]


@dataclass
class BatchPart:
    """One batch-mean loss term routed to a single head.

    ``layers`` is a forward of the part's rows on the current parameters, one
    array per layer as ``encode`` fills it; parts that pass the same list
    object share its rows. ``log_prior`` None means plain cross-entropy.
    ``normalizer`` overrides the mean denominator (used for gated terms
    averaged over the full batch).
    """

    branch: str
    layers: list[np.ndarray]
    labels: np.ndarray
    log_prior: np.ndarray | None = None
    synth: SynthPlan | None = None
    normalizer: int | None = None

    @property
    def inputs(self) -> np.ndarray:
        """The part's input rows, the first of its ``layers``."""
        return self.layers[0]


def _xent_forward_backward(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row losses and d(loss_sum)/d(logits) for softmax cross-entropy."""
    logp = log_softmax(logits)
    # each row's label cell, as an index into the flat rows
    cells = np.arange(0, logp.size, logp.shape[1]) + np.asarray(labels, dtype=np.int64)
    losses = -logp.take(cells)
    d_logits = np.exp(logp)
    d_logits.reshape(-1)[cells] -= 1.0
    return losses, d_logits


def loss_and_grads(state: ModelState, parts: list[BatchPart]) -> tuple[float, list[float]]:
    """Exact analytic gradients of the summed per-part batch means, written
    into ``state.grads``.

    The distinct ``layers`` lists of ``parts`` are stacked in the order they
    first appear, so the one encoder backward runs over every row once. Every
    part reads its rows (and its synthesized copies' origins) from that block
    and adds its representation gradient into it. The parts' logits and
    labels fill one buffer each, part after part; a part with synthesized
    copies gets one head-input block, its own rows and then its copies, so
    each head product runs over the rows it did when every part was stacked
    by concatenation. ``state.grads`` is zeroed and then covers every
    parameter; entries for heads no part touches stay exactly zero. Returns
    (total loss, per-part means).
    """
    grads, params = state.grads, state.params
    grads.flat.fill(0.0)
    # per evaluated part: (index, part, first row of its forward in the
    # stack, its rows, its synthesized copies, first row of its logits, the
    # denominator of its mean)
    starts: dict[int, int] = {}
    blocks, terms = [], []
    n_rows = n_logits = 0
    for i, part in enumerate(parts):
        x = part.layers[0]
        if x.size == 0 or (part.normalizer is not None and part.normalizer <= 0):
            continue
        n = x.shape[0]
        start = starts.setdefault(id(part.layers), n_rows)
        if start == n_rows:
            blocks.append(part.layers)
            n_rows += n
        k = 0 if part.synth is None else part.synth.origin.shape[0]
        terms.append((i, part, start, n, k, n_logits, n + k if part.normalizer is None else part.normalizer))
        n_logits += n + k
    part_means = [0.0] * len(parts)
    if not terms:
        return 0.0, part_means

    layers = blocks[0] if len(blocks) == 1 else [np.concatenate(rows) for rows in zip(*blocks)]
    h = layers[-1]
    logits = np.empty((n_logits, state.config.num_classes))
    labels = np.empty(n_logits, dtype=np.int64)
    denoms = np.empty((n_logits, 1))
    heads = []  # per term: its head-input rows and its synthesis (plan, origin rows, their norms)
    for i, part, start, n, k, row, denom in terms:
        w_key, b_key = _HEAD_KEYS[part.branch]
        h_rows = h[start : start + n]
        y = labels[row : row + n + k]
        y[:n] = part.labels
        synth = None
        if k:
            plan = part.synth
            h0 = h_rows[plan.origin]
            norms = row_norms(h0)[:, None]
            block = np.empty((n + k, h.shape[1]))
            block[:n] = h_rows
            synthesize(h0, plan.radii, plan.noise, norms, block[n:])
            y[n:] = y[plan.origin]
            h_rows, synth = block, (plan, h0, norms)
        z = logits[row : row + n + k]
        np.matmul(h_rows, params[w_key], out=z)
        z += params[b_key]
        if part.log_prior is not None:
            z += part.log_prior
        denoms[row : row + n + k] = denom
        heads.append((h_rows, synth))
    # the softmax works row by row, so one pass over the rows of every part
    # gives each row the bits that a pass over its own part would
    losses, d_all = _xent_forward_backward(logits, labels)
    for i, part, start, n, k, row, denom in terms:
        mean = float(np.add.reduce(losses[row : row + n + k])) / denom
        if not math.isfinite(mean):
            raise NonFiniteLossError("loss is not finite")
        part_means[i] = mean
    d_all /= denoms

    d_h = np.zeros(h.shape)
    for (i, part, start, n, k, row, denom), (h_rows, synth) in zip(terms, heads):
        w_key, b_key = _HEAD_KEYS[part.branch]
        d_logits = d_all[row : row + n + k]
        # in-place adds into the views: ``grads[key] += g`` would store each back
        g_w, g_b = grads[w_key], grads[b_key]
        g_w += h_rows.T @ d_logits
        g_b += np.add.reduce(d_logits, axis=0)
        d_out = d_logits @ params[w_key].T
        d_rows = d_h[start : start + n]
        d_rows += d_out[:n]
        if synth is not None:
            # Jacobian of h' = h + (h/||h||) * (r * noise) w.r.t. h:
            #   d_h = d_hp + r*(noise . d_hp)/||h|| - h * (h . (r*noise . d_hp)) / ||h||^3
            # each product and sum in that order, written over two buffers
            plan, h0, norms = synth
            d_hp = d_out[n:]
            u = plan.noise * d_hp
            inner = np.add.reduce(h0 * u, axis=1, keepdims=True)
            r = plan.radii[:, None]
            u *= r
            u /= norms
            u += d_hp
            inner *= r
            inner /= norms**3
            u -= h0 * inner
            # scatter-add by origin over the flat rows: the same additions in
            # the same order as np.add.at(d_rows, plan.origin, u), faster
            width = h.shape[1]
            cells = (plan.origin[:, None] * width + np.arange(width)).ravel()
            np.add.at(d_rows.reshape(-1), cells, u.reshape(-1))
    _backprop_encoder(state, layers, d_h, grads)
    return sum(part_means), part_means


def sgd_step(state: ModelState, opt: OptimizerConfig, lr: float) -> ModelState:
    """One SGD-with-momentum update of ``state`` by the gradient in
    ``state.grads``; returns the updated state.

    buffer <- momentum*buffer + grad + weight_decay*param, then
    param <- param - lr*buffer. Weight decay skips biases. The update runs on
    the flat vectors, and ``state.grads`` is only read. The step is atomic:
    the new parameters and buffers are written into the state's spare
    vectors and swapped in only once every new parameter is finite;
    otherwise it raises ``NonFiniteLossError`` and leaves ``state`` untouched.
    """
    g = state.grads.flat
    new_params, new_momentum = state._spare
    param, new, buf = state.params.flat, new_params.flat, new_momentum.flat
    np.multiply(state.momentum.flat, opt.momentum, out=buf)
    if opt.weight_decay:
        # grad + weight_decay*param first (``new`` holds it), as one sum per entry
        d = state.decayed
        np.multiply(param[:d], opt.weight_decay, out=new[:d])
        new[:d] += g[:d]
        buf[:d] += new[:d]
        buf[d:] += g[d:]
    else:
        buf += g
    np.multiply(buf, lr, out=new)
    np.subtract(param, new, out=new)
    if not np.isfinite(new).all():
        bad = next(name for name, v in new_params.items() if not np.isfinite(v).all())
        raise NonFiniteLossError(f"non-finite update in parameter {bad}")
    state._spare = (state.params, state.momentum)
    state.params, state.momentum = new_params, new_momentum
    return state


def cosine_lr(t: int, base_lr: float, total_steps: int) -> float:
    """Learning rate base_lr * cos(7*pi*t / (16*total_steps)); decreasing, and
    positive for a positive ``base_lr``, on [0, total_steps], where the
    caller keeps ``t``."""
    return base_lr * float(np.cos(7.0 * np.pi * t / (16.0 * total_steps)))
