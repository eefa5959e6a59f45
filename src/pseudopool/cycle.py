"""The self-reinforcing pseudo-label cycle: filter, vote, expand, renormalize.

Each unlabeled sample is predicted under a weak and a strong view; a sample
is reliable only when both views clear the confidence threshold strictly and
agree on the label. Reliable hits accumulate as votes. A sample joins the
labeled pool while a strict majority of its cumulative votes backs one class;
assignments are recomputed from the vote tallies on every commit, so early
mistakes wash out. The updated pool's per-class census defines the class
prior fed to the logit-adjusted loss.

The cycle's state is one position-indexed label vector, aligned with the
rows of the unlabeled split (and of its ``UnlabeledView``): entry ``i`` holds
the class assigned to row ``i``, or -1 while that row is not in the pool.
``PseudoRegistry.resolve`` produces it, ``update_pool`` gathers the pool from
it, and ``metrics.pseudo_audit`` tallies it against hidden ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import AugmentationPolicy, UnlabeledView, strong_view, strong_view_batch, weak_view, weak_view_batch
from .losses import ClassPrior, softmax
from .network import ModelState, encode, head_logits


@dataclass
class ViewPrediction:
    """Pseudo-label and confidence per augmentation view of one sample."""

    label_weak: int
    conf_weak: float
    label_strong: int
    conf_strong: float


@dataclass
class ViewPredictionBatch:
    labels_weak: np.ndarray
    confs_weak: np.ndarray
    labels_strong: np.ndarray
    confs_strong: np.ndarray


def _predict_one(state: ModelState, x: np.ndarray, branch: str) -> tuple[int, float]:
    probs = softmax(head_logits(state, branch, encode(state, x)))
    # np.argmax breaks ties toward the lowest class index
    label = int(np.argmax(probs))
    return label, float(probs[label])


def predict_views(
    state: ModelState,
    x_u: np.ndarray,
    policy: AugmentationPolicy,
    rng: np.random.Generator,
    branch: str = "primary",
) -> ViewPrediction:
    """Predict (argmax, max softmax) for the weak and strong view of a sample."""
    lw, cw = _predict_one(state, weak_view(x_u, policy, rng), branch)
    ls, cs = _predict_one(state, strong_view(x_u, policy, rng), branch)
    return ViewPrediction(lw, cw, ls, cs)


def predict_views_batch(
    state: ModelState,
    X_u: np.ndarray,
    policy: AugmentationPolicy,
    rng: np.random.Generator,
    branch: str = "primary",
) -> ViewPredictionBatch:
    """Batched view predictions (weak noise drawn first, then strong)."""
    weak = weak_view_batch(X_u, policy, rng)
    strong = strong_view_batch(X_u, policy, rng)
    pw = softmax(head_logits(state, branch, encode(state, weak)))
    ps = softmax(head_logits(state, branch, encode(state, strong)))
    return ViewPredictionBatch(
        labels_weak=np.argmax(pw, axis=1),
        confs_weak=np.max(pw, axis=1),
        labels_strong=np.argmax(ps, axis=1),
        confs_strong=np.max(ps, axis=1),
    )


def reliability_mask(vp: ViewPrediction, tau: float) -> int:
    """1 iff both confidences strictly exceed tau and the view labels agree.

    tau = 1.0 is legal and selects nothing (the comparisons are strict).
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    return int(
        (vp.conf_weak > tau) and (vp.conf_strong > tau) and (vp.label_weak == vp.label_strong)
    )


def reliability_mask_batch(vpb: ViewPredictionBatch, tau: float) -> np.ndarray:
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    return (
        (vpb.confs_weak > tau)
        & (vpb.confs_strong > tau)
        & (vpb.labels_weak == vpb.labels_strong)
    )


class PseudoRegistry:
    """Cumulative per-sample vote tallies over the whole training run."""

    def __init__(self, ids: np.ndarray, num_classes: int):
        self.ids = np.asarray(ids, dtype=np.int64).copy()
        if np.unique(self.ids).size != self.ids.size:
            raise ValueError("registry ids must be unique")
        self.num_classes = num_classes
        self._index = {int(i): pos for pos, i in enumerate(self.ids)}
        self.votes = np.zeros((self.ids.size, num_classes), dtype=np.int64)
        self.first_vote_epoch = np.full(self.ids.size, -1, dtype=np.int64)
        self.resolved = np.full(self.ids.size, -1, dtype=np.int64)
        self.current_epoch = 0

    def begin_epoch(self, epoch: int) -> None:
        self.current_epoch = epoch

    def record_vote(self, sample_id: int, label: int) -> None:
        """Count one reliable hit for (sample, label); cumulative, never reset."""
        pos = self._index.get(int(sample_id))
        if pos is None:
            raise KeyError(f"unknown unlabeled id {sample_id}")
        if not 0 <= label < self.num_classes:
            raise ValueError(f"label {label} outside [0, {self.num_classes})")
        self.votes[pos, label] += 1
        if self.first_vote_epoch[pos] < 0:
            self.first_vote_epoch[pos] = self.current_epoch

    def epochs_since_first_vote(self, sample_id: int) -> int:
        pos = self._index[int(sample_id)]
        first = self.first_vote_epoch[pos]
        return -1 if first < 0 else self.current_epoch - int(first)

    def resolve(
        self, min_votes: int, majority_frac: float, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Current assignments as a label vector: -1 where a row is unassigned.

        A sample is assigned iff its total votes reach ``min_votes`` and the
        modal class share strictly exceeds ``majority_frac``; modal ties stay
        unassigned. Recomputed from the cumulative tallies, so an id can gain,
        change, or lose its label as votes accrue.

        Only ``rows`` (registry positions; all rows by default) are
        recomputed; the others keep their last resolution. That is exact as
        long as ``rows`` covers every row voted on since the last call with
        the same ``min_votes`` and ``majority_frac``, because a row's
        resolution depends on its own tallies alone. Returns a copy of
        ``self.resolved``, aligned with ``self.ids``.
        """
        if min_votes < 1:
            raise ValueError("min_votes must be >= 1")
        if not 0.5 <= majority_frac <= 1.0:
            raise ValueError("majority_frac must lie in [0.5, 1]")
        votes = self.votes if rows is None else self.votes[rows]
        totals = votes.sum(axis=1)
        modal = np.argmax(votes, axis=1)
        modal_count = votes[np.arange(votes.shape[0]), modal]
        tied = (votes == modal_count[:, None]).sum(axis=1) > 1
        ok = (totals >= min_votes) & (modal_count > majority_frac * totals) & ~tied
        if rows is None:
            self.resolved = np.where(ok, modal, -1)
        else:
            self.resolved[rows] = np.where(ok, modal, -1)
        return self.resolved.copy()

    def snapshot(self) -> dict:
        """JSON-ready export: per id, vote counts, resolved label, first epoch."""
        entries = {}
        for pos, sid in enumerate(self.ids):
            counts = {
                int(c): int(v) for c, v in enumerate(self.votes[pos]) if v > 0
            }
            if not counts and self.resolved[pos] < 0:
                continue
            entries[str(int(sid))] = {
                "votes": counts,
                "resolved": int(self.resolved[pos]) if self.resolved[pos] >= 0 else None,
                "first_vote_epoch": int(self.first_vote_epoch[pos])
                if self.first_vote_epoch[pos] >= 0
                else None,
            }
        return {
            "num_classes": self.num_classes,
            "epoch": self.current_epoch,
            "entries": entries,
        }


class LabeledPool:
    """The base labeled set plus the currently accepted pseudo-labeled samples.

    Base examples are immutable: never removed, never relabeled. The pseudo
    portion is replaced wholesale on every update.
    """

    def __init__(
        self,
        base_ids: np.ndarray,
        base_features: np.ndarray,
        base_labels: np.ndarray,
        num_classes: int,
    ):
        self.base_ids = np.asarray(base_ids, dtype=np.int64)
        self.base_features = np.asarray(base_features, dtype=np.float64)
        self.base_labels = np.asarray(base_labels, dtype=np.int64)
        self.num_classes = num_classes
        self.n = np.bincount(self.base_labels, minlength=num_classes)
        if np.any(self.n < 1):
            raise ValueError("every class needs at least one base labeled sample")
        self.pseudo_ids = np.zeros(0, dtype=np.int64)
        self.pseudo_features = np.zeros((0, self.base_features.shape[1]))
        self.pseudo_labels = np.zeros(0, dtype=np.int64)

    @classmethod
    def from_split(cls, split, num_classes: int) -> "LabeledPool":
        return cls(split.ids, split.features, split.labels, num_classes)

    @property
    def m(self) -> np.ndarray:
        return np.bincount(self.pseudo_labels, minlength=self.num_classes)

    @property
    def phi(self) -> np.ndarray:
        return self.n + self.m

    @property
    def size(self) -> int:
        return self.base_ids.size + self.pseudo_ids.size

    @property
    def pseudo_size(self) -> int:
        return self.pseudo_ids.size

    def features(self) -> np.ndarray:
        if self.pseudo_ids.size == 0:
            return self.base_features
        return np.concatenate([self.base_features, self.pseudo_features], axis=0)

    def labels(self) -> np.ndarray:
        if self.pseudo_ids.size == 0:
            return self.base_labels
        return np.concatenate([self.base_labels, self.pseudo_labels])

    def recount(self) -> np.ndarray:
        """Per-class census recomputed from the raw example arrays (oracle path)."""
        return np.bincount(self.labels(), minlength=self.num_classes)


def update_pool(pool: LabeledPool, labels: np.ndarray, source: UnlabeledView) -> LabeledPool:
    """New pool whose pseudo portion is exactly the assigned rows of ``labels``.

    ``labels`` is the cycle's label vector, aligned with ``source`` rows (-1
    means unassigned). Pseudo ids, features and labels are gathered in
    ``source`` row order, which is id order for every split this library
    builds. ``pool`` itself is left unchanged.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != source.ids.shape:
        raise ValueError(
            f"label vector of shape {labels.shape} does not match {source.ids.size} unlabeled rows"
        )
    rows = np.flatnonzero(labels >= 0)
    ids = source.ids[rows]
    collisions = ids[np.isin(ids, pool.base_ids)]
    if collisions.size:
        raise ValueError(f"pseudo ids collide with base labeled ids: {collisions[:5].tolist()}")
    grown = LabeledPool(pool.base_ids, pool.base_features, pool.base_labels, pool.num_classes)
    grown.pseudo_ids = ids
    grown.pseudo_features = source.features[rows]
    grown.pseudo_labels = labels[rows]
    return grown


def class_distribution(pool: LabeledPool) -> ClassPrior:
    """Normalized census of the updated pool (the logit-adjustment prior)."""
    phi = pool.phi
    total = int(phi.sum())
    if total <= 0:
        raise ValueError("pool census is empty")
    if np.any(phi == 0):
        raise ValueError("a class with zero pool count has an undefined log prior")
    return ClassPrior(phi / total)
