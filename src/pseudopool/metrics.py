"""Evaluation quantities: accuracy, macro-F1, pseudo-label audits, KL
divergence to the ground-truth unlabeled distribution, the per-epoch risk
ledger, and Welch's t-test for run comparisons.

This module is the only consumer of hidden unlabeled ground truth; training
code hands it the full split bundle and receives plain numbers back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import stdtr

from . import datasets
from .losses import softmax
from .network import ModelState, encode, head_logits


def accuracy(preds: np.ndarray, labels: np.ndarray) -> float:
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.size == 0 or preds.shape != labels.shape:
        raise ValueError("preds and labels must be equal-length and non-empty")
    return float(np.mean(preds == labels))


def per_class_accuracy(preds: np.ndarray, labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Per-class recall; classes absent from ``labels`` score 0."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.size == 0 or preds.shape != labels.shape:
        raise ValueError("preds and labels must be equal-length and non-empty")
    out = np.zeros(num_classes)
    for c in range(num_classes):
        mask = labels == c
        if mask.any():
            out[c] = float(np.mean(preds[mask] == c))
    return out


def macro_f1(preds: np.ndarray, labels: np.ndarray, num_classes: int) -> float:
    """Unweighted mean of per-class F1; degenerate classes contribute 0."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.size == 0 or preds.shape != labels.shape:
        raise ValueError("preds and labels must be equal-length and non-empty")
    f1s = np.zeros(num_classes)
    for c in range(num_classes):
        tp = int(np.sum((preds == c) & (labels == c)))
        fp = int(np.sum((preds == c) & (labels != c)))
        fn = int(np.sum((preds != c) & (labels == c)))
        precision = tp / (tp + fp) if (tp + fp) else 0.0
        recall = tp / (tp + fn) if (tp + fn) else 0.0
        f1s[c] = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return float(np.mean(f1s))


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


# ---------------------------------------------------------------------------
# Risk ledger
# ---------------------------------------------------------------------------


@dataclass
class RiskRow:
    epoch: int
    eps_t: float
    o_t: int
    r_t: float
    lambda_t: float
    cum_eps: float


@dataclass
class RiskLedger:
    """Per-epoch trace of the measurable generalization-bound terms.

    r_t is the balanced test error (mean per-class error) under the current
    model; lambda_t is the realized drop r_{t-1} - r_t (0 for the first row);
    cum_eps accumulates the accepted-pseudo-label error rates.
    """

    rows: list[RiskRow] = field(default_factory=list)

    def update(self, epoch: int, eps_t: float, m_hat: int, n: int, balanced_error: float) -> RiskRow:
        lam = self.rows[-1].r_t - balanced_error if self.rows else 0.0
        cum = (self.rows[-1].cum_eps if self.rows else 0.0) + eps_t
        row = RiskRow(
            epoch=epoch,
            eps_t=float(eps_t),
            o_t=int(n + m_hat),
            r_t=float(balanced_error),
            lambda_t=float(lam),
            cum_eps=float(cum),
        )
        self.rows.append(row)
        return row


# ---------------------------------------------------------------------------
# Epoch evaluation (sole consumer of hidden labels)
# ---------------------------------------------------------------------------


def predict_batch(state: ModelState, X: np.ndarray, branch: str = "primary") -> np.ndarray:
    """Argmax class per row of the selected head (ties -> lowest index)."""
    return np.argmax(head_logits(state, branch, encode(state, X)), axis=1)


def evaluate_classifier(
    state: ModelState, features: np.ndarray, labels: np.ndarray, num_classes: int, branch: str = "primary"
) -> dict:
    preds = predict_batch(state, features, branch)
    per_class = per_class_accuracy(preds, labels, num_classes)
    return {
        "acc": accuracy(preds, labels),
        "per_class_acc": per_class,
        "macro_f1": macro_f1(preds, labels, num_classes),
        "balanced_error": float(1.0 - per_class.mean()),
    }


def threshold_assignments(
    state: ModelState,
    bundle: datasets.SplitBundle,
    policy: datasets.AugmentationPolicy,
    tau: float,
    rng: np.random.Generator,
    branch: str = "primary",
) -> np.ndarray:
    """Weak-view pseudo-labels over the whole unlabeled split, gated at tau.

    Returns a label vector aligned with the unlabeled rows (-1 below the
    gate). This mirrors what a threshold-consistency learner is implicitly
    training on, so its pseudo-label quality can be audited like the voting
    cycle's.
    """
    view = bundle.unlabeled_view()
    weak = datasets.weak_view_batch(view.features, policy, rng)
    probs = softmax(head_logits(state, branch, encode(state, weak)))
    labels = np.argmax(probs, axis=1)
    confs = np.max(probs, axis=1)
    return np.where(confs > tau, labels, -1)


def evaluate_epoch(
    state: ModelState,
    bundle: datasets.SplitBundle,
    labels: np.ndarray,
    branch: str = "primary",
) -> dict:
    """Test metrics plus the pseudo-label audit for one epoch.

    ``labels`` is the cycle's label vector over the unlabeled rows (-1 means
    unassigned).

    ``kl`` is the divergence from the accepted-pseudo-label class
    distribution to the ground-truth unlabeled distribution; None while
    nothing is accepted (the empty distribution is undefined).
    """
    c = bundle.spec.num_classes
    out = evaluate_classifier(state, bundle.test.features, bundle.test.labels, c, branch)
    audit = pseudo_audit(labels, bundle.unlabeled.hidden_labels, c)
    out["error_rate"] = audit.error_rate
    out["utilization_rate"] = audit.utilization_rate
    out["audit"] = audit
    if audit.m_hat > 0:
        accepted = audit.accepted_counts / audit.m_hat
        gt = audit.gt_counts / audit.m_total
        out["kl"] = kl_divergence(accepted, gt)
    else:
        out["kl"] = None
    return out
