"""Evaluation quantities: accuracy, macro-F1, pseudo-label audits, KL
divergence to the ground-truth unlabeled distribution, the per-epoch risk
terms, and Welch's t-test for run comparisons.

This module is the only consumer of hidden unlabeled ground truth; training
code hands it the full split bundle and receives plain numbers back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import datasets
from .network import ModelState, encode, head_logits, top_class


def classification_scores(
    preds: np.ndarray, labels: np.ndarray, num_classes: int
) -> tuple[float, np.ndarray, float]:
    """Accuracy, per-class recall and macro-F1 of ``preds`` against ``labels``.

    A class absent from ``labels`` has recall 0. Macro-F1 is the unweighted
    mean of per-class F1, to which a class with no prediction or no label
    contributes 0.
    """
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.size == 0 or preds.shape != labels.shape:
        raise ValueError("preds and labels must be equal-length and non-empty")
    correct = preds == labels

    def count(values: np.ndarray) -> np.ndarray:
        return np.bincount(values, minlength=num_classes)[:num_classes]

    hits, predicted, actual = count(labels[correct]), count(preds), count(labels)
    zeros = np.zeros(num_classes)
    precision = np.divide(hits, predicted, out=zeros.copy(), where=predicted > 0)
    recall = np.divide(hits, actual, out=zeros.copy(), where=actual > 0)
    both = precision + recall
    f1s = np.divide(2 * precision * recall, both, out=zeros, where=both > 0)
    return float(np.mean(correct)), recall, float(np.mean(f1s))


@dataclass
class PseudoLabelAudit:
    """Accepted-pseudo-label quality against hidden ground truth."""

    tp: np.ndarray
    fp: np.ndarray
    gt_counts: np.ndarray
    m_hat: int
    m_total: int
    error_rate: float
    utilization_rate: float

    @property
    def accepted_counts(self) -> np.ndarray:
        return self.tp + self.fp


def pseudo_audit(
    labels: np.ndarray, hidden_labels: np.ndarray, num_classes: int
) -> PseudoLabelAudit:
    """Tally accepted pseudo-labels as true/false positives per class.

    ``labels`` is the cycle's label vector, aligned row for row with
    ``hidden_labels`` (the unlabeled split); -1 means unassigned.
    error_rate = FP_total / max(1, accepted); utilization = accepted / M.
    """
    labels = np.asarray(labels, dtype=np.int64)
    hidden_labels = np.asarray(hidden_labels, dtype=np.int64)
    if labels.shape != hidden_labels.shape:
        raise ValueError("labels and hidden_labels must be aligned row for row")
    accepted = labels >= 0
    assigned = labels[accepted]
    correct = assigned == hidden_labels[accepted]
    tp = np.bincount(assigned[correct], minlength=num_classes)
    fp = np.bincount(assigned[~correct], minlength=num_classes)
    m_hat = int(assigned.size)
    m_total = hidden_labels.size
    return PseudoLabelAudit(
        tp=tp,
        fp=fp,
        gt_counts=np.bincount(hidden_labels, minlength=num_classes),
        m_hat=m_hat,
        m_total=m_total,
        error_rate=float(fp.sum()) / max(1, m_hat),
        utilization_rate=m_hat / m_total if m_total else 0.0,
    )


def kl_divergence(p: np.ndarray, q: np.ndarray, eps: float = 1e-8) -> float:
    """KL(p || q) with epsilon smoothing and renormalization before the log."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("p and q must be 1-D vectors of equal length")
    for name, vec in (("p", p), ("q", q)):
        if np.any(vec < 0) or abs(float(vec.sum()) - 1.0) > 1e-6:
            raise ValueError(f"{name} is not a probability vector")
    p = (p + eps) / (p + eps).sum()
    q = (q + eps) / (q + eps).sum()
    return float(np.sum(p * np.log(p / q)))


def welch_t_test(sample_a: np.ndarray, sample_b: np.ndarray) -> tuple[float, float, float]:
    """Welch's unequal-variance t-test with the Student-t tail from ``stdtr``.

    Returns (t, Welch-Satterthwaite df, two-sided p). Requires >= 2 values
    per sample. When both variances vanish the test degenerates; the
    documented fallback compares means exactly: equal means give (0, df, 1),
    unequal means give (+-inf, df, 0).
    """
    # scipy costs a training process ~0.3 s and ~24 MB to import; only this test needs it
    from scipy.special import stdtr

    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("each sample needs at least 2 values")
    va, vb = float(np.var(a, ddof=1)), float(np.var(b, ddof=1))
    ma, mb = float(a.mean()), float(b.mean())
    if va == 0.0 and vb == 0.0:
        df = float(a.size + b.size - 2)
        if ma == mb:
            return 0.0, df, 1.0
        return float(np.sign(ma - mb)) * np.inf, df, 0.0
    sa, sb = va / a.size, vb / b.size
    se2 = sa + sb
    t = (ma - mb) / np.sqrt(se2)
    df = se2**2 / (sa**2 / (a.size - 1) + sb**2 / (b.size - 1))
    p = min(1.0, max(0.0, 2.0 * float(stdtr(df, -abs(t)))))
    return float(t), float(df), float(p)


def risk_terms(previous, eps_t: float, m_hat: int, n: int, balanced_error: float) -> dict:
    """One epoch's measurable generalization-bound terms, keyed as in its
    ``history.jsonl`` row.

    ``previous`` is the epoch before's report (anything with ``R_t`` and
    ``cum_eps``; None for the first epoch). O_t is the pool size n + m_hat;
    R_t is the balanced test error (mean per-class error) under the current
    model; lambda_t is the realized drop R_{t-1} - R_t (0 for the first
    epoch); cum_eps accumulates the accepted-pseudo-label error rates.
    """
    lam = previous.R_t - balanced_error if previous is not None else 0.0
    cum = (previous.cum_eps if previous is not None else 0.0) + eps_t
    return {
        "O_t": int(n + m_hat),
        "eps_t": float(eps_t),
        "R_t": float(balanced_error),
        "lambda_t": float(lam),
        "cum_eps": float(cum),
    }


# ---------------------------------------------------------------------------
# Epoch evaluation (sole consumer of hidden labels)
# ---------------------------------------------------------------------------


def predict_batch(state: ModelState, X: np.ndarray) -> np.ndarray:
    """Argmax class per row of the primary head (ties -> lowest index)."""
    return np.argmax(head_logits(state, "primary", encode(state, X)), axis=1)


def threshold_assignments(
    state: ModelState,
    bundle: datasets.SplitBundle,
    policy: datasets.AugmentationPolicy,
    tau: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Weak-view pseudo-labels over the whole unlabeled split, gated at tau.

    Returns a label vector aligned with the unlabeled rows (-1 below the
    gate). This mirrors what a threshold-consistency learner is implicitly
    training on, so its pseudo-label quality can be audited like the voting
    cycle's.

    It streams: the views are drawn, encoded and gated in blocks of
    ``datasets.BLOCK_ROWS`` rows, so a call holds one block's view and
    activations, never the split's. Consecutive draws on one generator give
    the numbers of one draw, so ``rng`` ends where a one-pass audit leaves
    it, and the labels are a one-pass audit's wherever the BLAS gives a row
    the same bits at any row count. A trailing one-row block joins the one
    before it, since numpy sends a one-row product to another BLAS routine.
    (OpenBLAS also changes kernel above 10^6 multiply-adds per product; at
    some layer widths, 17 or 33, a confidence then differs from a one-pass
    audit's in its last bits.)
    """
    features = bundle.unlabeled_view().features
    m = features.shape[0]
    starts = list(range(0, m, datasets.BLOCK_ROWS))
    if m > 1 and m % datasets.BLOCK_ROWS == 1:
        starts.pop()
    out = np.empty(m, dtype=np.int64)
    for lo, hi in zip(starts, starts[1:] + [m]):
        weak = datasets.weak_view_batch(features[lo:hi], policy, rng)
        labels, confs = top_class(state, encode(state, weak))
        out[lo:hi] = np.where(confs > tau, labels, -1)
    return out


def evaluate_epoch(state: ModelState, bundle: datasets.SplitBundle, labels: np.ndarray, previous) -> dict:
    """One epoch's test metrics, pseudo-label audit and risk terms, keyed as
    in its ``history.jsonl`` row.

    ``labels`` is the cycle's label vector over the unlabeled rows (-1 means
    unassigned); ``previous`` is the epoch before's report, as ``risk_terms``
    takes it.

    ``kl`` is the divergence from the accepted-pseudo-label class
    distribution to the ground-truth unlabeled distribution; None while
    nothing is accepted (the empty distribution is undefined).
    """
    c = bundle.spec.num_classes
    preds = predict_batch(state, bundle.test.features)
    acc, per_class, f1 = classification_scores(preds, bundle.test.labels, c)
    audit = pseudo_audit(labels, bundle.unlabeled.hidden_labels, c)
    kl = None
    if audit.m_hat > 0:
        kl = kl_divergence(audit.accepted_counts / audit.m_hat, audit.gt_counts / audit.m_total)
    balanced_error = float(1.0 - per_class.mean())
    return {
        "acc": acc,
        "macro_f1": f1,
        "per_class_acc": per_class.tolist(),
        "err_rate": audit.error_rate,
        "util_rate": audit.utilization_rate,
        "kl": kl,
        **risk_terms(previous, audit.error_rate, audit.m_hat, bundle.labeled.ids.size, balanced_error),
    }
