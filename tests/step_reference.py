"""The training step's loss, encoder backward and class-stats update as they
were written before they were rewritten with fewer numpy calls per step.

The rewritten functions must give these the same bits: ``test_step_bits``
compares them call by call, and ``test_training`` swaps these in for a whole
run. Each body is kept as it was, with the helpers it called then
(``reference_xent``, ``reference_synthesize``), so the comparison does not
lean on code it checks.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from pseudopool.augment import ALPHA_FLOOR, row_norms
from pseudopool.network import _HEAD_KEYS, NonFiniteLossError, log_softmax

logger = logging.getLogger("pseudopool.augment")


def reference_synthesize(h, radii, noise, norms=None):
    if norms is None:
        norms = row_norms(h)[:, None]
    if not norms.all():
        raise ValueError("zero-norm representation cannot be synthesized from")
    return h + (h / norms) * (radii[:, None] * noise)


def reference_xent(logits, labels):
    logp = log_softmax(logits)
    rows = np.arange(logits.shape[0])
    labels = np.asarray(labels, dtype=np.int64)
    losses = -logp[rows, labels]
    d_logits = np.exp(logp)
    d_logits[rows, labels] -= 1.0
    return losses, d_logits


def _activate_grad(a, kind):
    return a > 0 if kind == "relu" else 1.0 - a * a


def reference_backprop_encoder(state, activations, d_h, grads):
    kind = state.config.activation
    delta = d_h
    for i in reversed(range(len(state.encoder_keys))):
        w_key, b_key = state.encoder_keys[i]
        delta *= _activate_grad(activations[i + 1], kind)
        grads[w_key] += activations[i].T @ delta
        grads[b_key] += delta.sum(axis=0)
        if i:  # the input needs no gradient
            delta = delta @ state.params[w_key].T


def reference_loss_and_grads(state, parts):
    grads = state.grads
    grads.flat.fill(0.0)
    offsets: dict[int, int] = {}
    blocks: list[list[np.ndarray]] = []
    spans: list[tuple[int, int] | None] = []
    n_rows = 0
    for part in parts:
        if part.inputs.size == 0 or (part.normalizer is not None and part.normalizer <= 0):
            spans.append(None)
            continue
        n = part.inputs.shape[0]
        if id(part.layers) not in offsets:
            offsets[id(part.layers)] = n_rows
            blocks.append(part.layers)
            n_rows += n
        spans.append((offsets[id(part.layers)], n))
    if not blocks:
        return 0.0, [0.0] * len(parts)

    layers = blocks[0] if len(blocks) == 1 else [np.concatenate(rows) for rows in zip(*blocks)]
    h = layers[-1]
    terms = []
    logits, labels = [], []
    for i, (part, span) in enumerate(zip(parts, spans)):
        if span is None:
            continue
        start, n_plain = span
        h_rows = h[start : start + n_plain]
        y = np.asarray(part.labels, dtype=np.int64)
        synth = None
        if part.synth is not None and len(part.synth):
            plan = part.synth
            h0 = h_rows[plan.origin]
            norms = row_norms(h0)[:, None]
            h_rows = np.concatenate([h_rows, reference_synthesize(h0, plan.radii, plan.noise, norms)])
            y = np.concatenate([y, y[plan.origin]])
            synth = (plan, h0, norms)
        w_key, b_key = _HEAD_KEYS[part.branch]
        z = h_rows @ state.params[w_key]
        z += state.params[b_key]
        if part.log_prior is not None:
            z += part.log_prior
        terms.append((i, span, h_rows, synth))
        logits.append(z)
        labels.append(y)
    losses, d_all = reference_xent(np.concatenate(logits), np.concatenate(labels))
    d_h = np.zeros_like(h)
    part_means = [0.0] * len(parts)
    row = 0
    for i, (start, n_plain), h_rows, synth in terms:
        n = h_rows.shape[0]
        denom = parts[i].normalizer if parts[i].normalizer is not None else n
        mean = float(losses[row : row + n].sum()) / denom
        if not math.isfinite(mean):
            raise NonFiniteLossError("loss is not finite")
        part_means[i] = mean
        d_logits = d_all[row : row + n]
        row += n
        d_logits /= denom
        w_key, b_key = _HEAD_KEYS[parts[i].branch]
        head_w = state.params[w_key]
        grads[w_key] += h_rows.T @ d_logits
        grads[b_key] += d_logits.sum(axis=0)
        d_out = d_logits @ head_w.T
        d_rows = d_h[start : start + n_plain]
        d_rows += d_out[:n_plain]
        if synth is not None:
            plan, h0, norms = synth
            d_hp = d_out[n_plain:]
            u = plan.noise * d_hp
            r = plan.radii[:, None]
            inner = np.add.reduce(h0 * u, axis=1, keepdims=True)
            d_h0 = d_hp + r * u / norms - h0 * (r * inner / norms**3)
            width = d_h0.shape[1]
            cells = (plan.origin[:, None] * width + np.arange(width)).ravel()
            np.add.at(d_rows.reshape(-1), cells, d_h0.reshape(-1))
    reference_backprop_encoder(state, layers, d_h, grads)
    return sum(part_means), part_means


def reference_update_class_stats(stats, reps, labels):
    reps = np.atleast_2d(np.asarray(reps, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    norms = row_norms(reps)
    if not norms.all():
        for c, n in zip(*np.unique(labels[norms == 0], return_counts=True)):
            logger.warning("class %d: skipping %d zero-norm representation(s)", c, n)
        keep = norms > 0
        reps, labels, norms = reps[keep], labels[keep], norms[keep]
    k, d, ema_decay = stats.num_classes, stats.rep_dim, stats.ema_decay
    counts = np.bincount(labels, minlength=k)
    present = counts > 0
    cells = (labels[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(cells, weights=reps.ravel(), minlength=k * d).reshape(k, d)
    batch_mean = sums[present] / counts[present, None]
    stats.centroids[present] = np.where(
        stats.has_centroid[present, None],
        ema_decay * stats.centroids[present] + (1.0 - ema_decay) * batch_mean,
        batch_mean,
    )
    stats.has_centroid |= present
    centroid_norms = row_norms(stats.centroids)
    if not centroid_norms.all():
        for c in np.flatnonzero(present & (centroid_norms == 0)):
            logger.warning("class %d: zero-norm centroid, compactness left unchanged", c)
    updated = present & (centroid_norms > 0)
    rows = updated[labels]
    members = labels[rows]
    cosines = np.einsum("ij,ij->i", reps[rows], stats.centroids[members]) / (
        norms[rows] * centroid_norms[members]
    )
    alpha = np.clip(
        np.bincount(members, weights=cosines, minlength=k)[updated] / counts[updated],
        -1.0,
        1.0,
    )
    stats.alpha[updated] = alpha
    stats.radius[updated] = 1.0 / np.maximum(alpha, ALPHA_FLOOR)
    stats.count_seen[updated] += counts[updated]
