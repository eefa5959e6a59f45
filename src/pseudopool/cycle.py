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
``PseudoRegistry`` owns it as ``resolved``, beside the vote tallies and the
rule (``min_votes``, ``majority_frac``, ``grow_only``) it is resolved by;
``PseudoRegistry.resolve`` updates it in place and reports whether a row
changed label. ``update_pool`` turns it into the pool's pseudo portion (the
assigned rows' indices and labels; features are read through the indices
when a batch is drawn, never copied), and ``metrics.pseudo_audit`` tallies
it against hidden ground truth. Nothing here re-checks what an owner
guarantees: a ``TrainConfig`` checks the rule and the threshold when it is
built, and ``SplitBundle`` the ids, so no pseudo row can share an id with a
base row.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .datasets import UnlabeledView


@dataclass
class ViewPredictionBatch:
    """Pseudo-label and confidence per row under the weak and the strong view
    (``network.top_class`` of the two halves of one ``[weak; strong]`` forward)."""

    labels_weak: np.ndarray
    confs_weak: np.ndarray
    labels_strong: np.ndarray
    confs_strong: np.ndarray


def reliability_mask_batch(vpb: ViewPredictionBatch, tau: float) -> np.ndarray:
    """Per row: True iff both confidences strictly exceed tau and the view
    labels agree. tau = 1.0 is legal and selects nothing."""
    return (
        (vpb.confs_weak > tau)
        & (vpb.confs_strong > tau)
        & (vpb.labels_weak == vpb.labels_strong)
    )


class PseudoRegistry:
    """Cumulative per-sample vote tallies, the label vector they resolve to
    (``resolved``, aligned with ``ids``) and the rule they resolve by.

    With ``grow_only`` (the ``freeze_resolved`` variant) a row keeps the
    first label it resolves to, whatever its later votes say.
    """

    def __init__(
        self, ids: np.ndarray, num_classes: int, min_votes: int, majority_frac: float, grow_only: bool = False
    ):
        self.ids = np.asarray(ids, dtype=np.int64).copy()
        self.num_classes = num_classes
        self.min_votes = min_votes
        self.majority_frac = majority_frac
        self.grow_only = grow_only
        self.votes = np.zeros((self.ids.size, num_classes), dtype=np.int64)
        self.first_vote_epoch = np.full(self.ids.size, -1, dtype=np.int64)
        self.resolved = np.full(self.ids.size, -1, dtype=np.int64)
        self.current_epoch = 0

    def begin_epoch(self, epoch: int) -> None:
        self.current_epoch = epoch

    def record_vote(self, row: int, label: int) -> None:
        """Count one reliable hit for (registry row, label); cumulative, never reset."""
        self.votes[row, label] += 1
        if self.first_vote_epoch[row] < 0:
            self.first_vote_epoch[row] = self.current_epoch

    def resolve(self, rows: np.ndarray | None = None) -> bool:
        """Re-resolve ``rows`` (registry positions; all rows by default) of
        ``resolved`` by the registry's rule; True iff one changed label.

        A sample is assigned iff its total votes reach ``min_votes`` and the
        modal class share strictly exceeds ``majority_frac``; modal ties stay
        unassigned (-1). Recomputed from the cumulative tallies, so an id can
        gain, change, or lose its label as votes accrue; under ``grow_only``
        only an unassigned row takes a new resolution.

        The rows outside ``rows`` keep their last resolution. That is exact as
        long as ``rows`` covers every row voted on since the last call,
        because a row's resolution depends on its own tallies (and,
        grow-only, its own label) alone.
        """
        rows = slice(None) if rows is None else rows
        votes = self.votes[rows]
        totals = np.add.reduce(votes, axis=1)
        modal = votes.argmax(axis=1)
        modal_count = np.maximum.reduce(votes, axis=1)
        # a modal count above majority_frac >= 0.5 of the total is held by one
        # class alone (a tie would need twice the count), so the test also
        # leaves every modal tie unassigned
        ok = (totals >= self.min_votes) & (modal_count > self.majority_frac * totals)
        before = self.resolved[rows]
        after = np.where(ok, modal, -1)
        if self.grow_only:
            after = np.where(before >= 0, before, after)
        changed = bool((after != before).any())  # before may be a view of resolved
        self.resolved[rows] = after
        return changed

    def snapshot(self) -> RegistrySnapshot:
        """The registry as ``registry.json`` holds it: per id with a vote or a
        label, its vote counts by class, its label in the pool (``resolved``) and
        first vote epoch."""
        entries = {}
        for pos, sid in enumerate(self.ids):
            counts = {str(c): int(v) for c, v in enumerate(self.votes[pos]) if v > 0}
            if not counts and self.resolved[pos] < 0:
                continue
            resolved, first = int(self.resolved[pos]), int(self.first_vote_epoch[pos])
            entries[str(int(sid))] = RegistryEntry(
                counts, resolved if resolved >= 0 else None, first if first >= 0 else None
            )
        return RegistrySnapshot(self.num_classes, self.current_epoch, entries)


@dataclass
class RegistryEntry:
    """One id of a registry snapshot; ``votes`` maps a class, as a string, to
    its count."""

    votes: dict[str, int]
    resolved: int | None
    first_vote_epoch: int | None


@dataclass
class RegistrySnapshot:
    """``registry.json``: the vote registry of one seed at the end of its run."""

    num_classes: int
    epoch: int
    entries: dict[str, RegistryEntry]


class LabeledPool:
    """The base labeled set plus the currently accepted pseudo-labeled samples.

    The pool holds features and labels, not ids: the split bundle already
    guarantees that no unlabeled id is a base id. Base examples are
    immutable: never removed, never relabeled. The pseudo portion is held as
    indices: ``pseudo_rows`` are rows of the unlabeled view ``source`` it was
    taken from, ``pseudo_labels`` their classes, and its features are read
    through those indices, never copied into the pool. Pool row ``i`` is base
    row ``i`` below ``len(base_labels)`` and pseudo row ``i - len(base_labels)``
    from there on.

    The census is built with the pool: ``n`` counts the base labels per
    class, ``m`` the pseudo labels and ``phi`` both. A pool is never changed
    once built (``update_pool`` builds a new one), so they stay exact;
    ``recount`` recomputes the census from the labels.
    """

    def __init__(self, base_features: np.ndarray, base_labels: np.ndarray, num_classes: int):
        self.base_features = np.asarray(base_features, dtype=np.float64)
        self.base_labels = np.asarray(base_labels, dtype=np.int64)
        self.num_classes = num_classes
        self.n = np.bincount(self.base_labels, minlength=num_classes)
        if np.any(self.n < 1):
            raise ValueError("every class needs at least one base labeled sample")
        self.source: UnlabeledView | None = None
        self.pseudo_rows = np.zeros(0, dtype=np.int64)
        self.pseudo_labels = np.zeros(0, dtype=np.int64)
        self.m = np.zeros(num_classes, dtype=np.int64)
        self.phi = self.n + self.m

    @property
    def size(self) -> int:
        return self.base_labels.size + self.pseudo_rows.size

    @property
    def pseudo_size(self) -> int:
        return self.pseudo_rows.size

    def take(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Features and labels of pool rows ``rows`` (each in ``[0, size)``)."""
        rows = np.asarray(rows, dtype=np.int64)
        if not self.pseudo_rows.size:
            return self.base_features[rows], self.base_labels[rows]
        n_base = self.base_labels.size
        pseudo = rows >= n_base
        base_at = np.where(pseudo, 0, rows)
        pseudo_at = np.where(pseudo, rows - n_base, 0)
        features = np.where(
            pseudo[:, None],
            self.source.features[self.pseudo_rows[pseudo_at]],
            self.base_features[base_at],
        )
        return features, np.where(pseudo, self.pseudo_labels[pseudo_at], self.base_labels[base_at])

    def labels(self) -> np.ndarray:
        if self.pseudo_rows.size == 0:
            return self.base_labels
        return np.concatenate([self.base_labels, self.pseudo_labels])

    def recount(self) -> np.ndarray:
        """Per-class census recomputed from the raw example arrays (oracle path)."""
        return np.bincount(self.labels(), minlength=self.num_classes)


def update_pool(pool: LabeledPool, labels: np.ndarray, source: UnlabeledView) -> LabeledPool:
    """New pool whose pseudo portion is exactly the assigned rows of ``labels``.

    ``labels`` is the cycle's label vector, aligned with ``source`` rows (-1
    means unassigned). The new pool keeps the assigned rows' indices, in
    ``source`` row order (id order for every split this library builds), and
    their labels, and counts them once into its census; it shares the base
    arrays with ``pool`` and copies no features. ``pool`` itself is left
    unchanged.
    """
    labels = np.asarray(labels, dtype=np.int64)
    rows = (labels >= 0).nonzero()[0]
    grown = copy.copy(pool)
    grown.source = source
    grown.pseudo_rows, grown.pseudo_labels = rows, labels[rows]
    grown.m = np.bincount(grown.pseudo_labels, minlength=pool.num_classes)
    grown.phi = grown.n + grown.m
    return grown


def class_distribution(pool: LabeledPool) -> np.ndarray:
    """Normalized census of the updated pool (the logit-adjustment prior). Its
    log is finite: ``LabeledPool`` rejects a base set that lacks a class."""
    phi = pool.phi
    return phi / np.add.reduce(phi)
