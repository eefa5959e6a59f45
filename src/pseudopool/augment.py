"""Class-aware representation synthesis for minority classes.

Each class keeps an EMA centroid in representation space; its compactness is
the mean cosine similarity between in-batch representations and that
centroid. Tighter classes get a smaller synthesis radius (radius = 1 /
compactness, floored), and minority-class samples are expanded with noisy
copies h' = h + (h/||h||) * (radius * delta), delta standard normal. The
product is elementwise; a scalar-projection reading of the same recipe would
reduce to radial scaling and is deliberately not implemented.

Synthesized representations feed the head losses only; they never enter the
pool census or the class prior.
"""

from __future__ import annotations

import logging
import numpy as np

logger = logging.getLogger(__name__)

ALPHA_FLOOR = 0.1


class ClassStats:
    """Per-class EMA centroid (at decay ``ema_decay``), compactness, synthesis radius, running count."""

    def __init__(self, num_classes: int, rep_dim: int, ema_decay: float):
        self.num_classes = num_classes
        self.rep_dim = rep_dim
        self.ema_decay = ema_decay
        self.centroids = np.zeros((num_classes, rep_dim))
        self.has_centroid = np.zeros(num_classes, dtype=bool)
        self.alpha = np.full(num_classes, np.nan)
        self.radius = np.full(num_classes, np.nan)
        self.count_seen = np.zeros(num_classes, dtype=np.int64)

    def rows(self) -> list[dict]:
        """Diagnostic dump rows: one dict per class with stats so far."""
        out = []
        for c in range(self.num_classes):
            out.append(
                {
                    "class": c,
                    "alpha": float(self.alpha[c]) if np.isfinite(self.alpha[c]) else None,
                    "radius": float(self.radius[c]) if np.isfinite(self.radius[c]) else None,
                    "count": int(self.count_seen[c]),
                }
            )
        return out


def update_class_stats(stats: ClassStats, reps: np.ndarray, labels: np.ndarray) -> None:
    """Fold a batch of (representation, label) pairs into the running stats.

    Centroids move by EMA, at ``stats.ema_decay``, toward the batch mean of
    each class present (a fresh class adopts the batch mean outright).
    Compactness is the mean cosine between the batch's class members and the
    updated centroid; radius = 1 / max(alpha, 0.1). Zero-norm representations
    or centroids are skipped with a warning (their cosine is undefined).
    """
    reps = np.asarray(reps, dtype=np.float64)
    if reps.ndim != 2:
        reps = np.atleast_2d(reps)
    labels = np.asarray(labels, dtype=np.int64)
    norms = row_norms(reps)
    if not norms.all():
        for c, n in zip(*np.unique(labels[norms == 0], return_counts=True)):
            logger.warning("class %d: skipping %d zero-norm representation(s)", c, n)
        keep = norms > 0
        reps, labels, norms = reps[keep], labels[keep], norms[keep]
    k, d, ema_decay = stats.num_classes, stats.rep_dim, stats.ema_decay
    centroids = stats.centroids
    counts = np.bincount(labels, minlength=k)
    present = counts > 0
    # the present classes, as a slice when that is every class: the same
    # values as the mask selects, with no gather or scatter
    at = slice(None) if present.all() else present
    # per-class sums of the rows: one bincount over (class, coordinate) cells
    # adds each cell's terms from zero in row order, as np.add.at would
    cells = (labels[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(cells, weights=reps.ravel(), minlength=k * d).reshape(k, d)
    batch_mean = sums[at] / counts[at, None]
    ema = ema_decay * centroids[at] + (1.0 - ema_decay) * batch_mean
    if stats.has_centroid.all():
        centroids[at] = ema
    else:
        centroids[at] = np.where(stats.has_centroid[at, None], ema, batch_mean)
        stats.has_centroid |= present
    centroid_norms = row_norms(centroids)
    if centroid_norms.all():
        # the common case: every present class is updated, so every row is a
        # member; the copy is the one the selection below would make
        updated, members, member_reps, member_norms = at, labels, np.ascontiguousarray(reps), norms
    else:
        for c in (present & (centroid_norms == 0)).nonzero()[0]:
            logger.warning("class %d: zero-norm centroid, compactness left unchanged", c)
        updated = present & (centroid_norms > 0)
        rows = updated[labels]
        members, member_reps, member_norms = labels[rows], reps[rows], norms[rows]
    cosines = np.einsum("ij,ij->i", member_reps, centroids[members]) / (
        member_norms * centroid_norms[members]
    )
    # clipped to [-1, 1]: np.clip's bits, without its dispatch
    mean_cosine = np.bincount(members, weights=cosines, minlength=k)[updated] / counts[updated]
    alpha = np.minimum(np.maximum(mean_cosine, -1.0), 1.0)
    stats.alpha[updated] = alpha
    stats.radius[updated] = 1.0 / np.maximum(alpha, ALPHA_FLOOR)
    stats.count_seen[updated] += counts[updated]


def minority_classes(phi: np.ndarray) -> np.ndarray:
    """Classes whose pool count is strictly below the (lower) median count."""
    phi = np.asarray(phi)
    lower_median = np.sort(phi)[(phi.size - 1) // 2]
    return (phi < lower_median).nonzero()[0]


def plan_synthesis(
    labels: np.ndarray,
    reps: np.ndarray,
    minority: np.ndarray,
    stats: ClassStats,
    rng: np.random.Generator,
    count: int = 10,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Pick batch rows to expand and draw their noise/radii up front.

    Returns (origin row indices repeated ``count`` times, per-copy radii,
    per-copy noise) or None when the batch holds no minority-class sample
    with an initialized radius and a representation in ``reps`` of nonzero
    norm (``synthesize`` has no direction to expand a zero one along).
    Drawing the noise here keeps the training step's synthesis a
    deterministic function of (state, plan).
    """
    labels = np.asarray(labels, dtype=np.int64)
    wanted = np.zeros(stats.num_classes, dtype=bool)
    wanted[minority] = True
    wanted &= np.isfinite(stats.radius)
    rows = (wanted[labels] & (row_norms(reps) > 0)).nonzero()[0]
    if not rows.size:
        return None
    origin = rows.repeat(count)
    radii = stats.radius[labels[origin]]
    noise = rng.standard_normal((origin.size, stats.rep_dim))
    return origin, radii, noise


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array: ``np.linalg.norm(x, axis=1)``
    bit for bit (the same product and sum), without its dispatch."""
    return np.sqrt(np.add.reduce(x * x, axis=1))


def synthesize(
    h: np.ndarray,
    radii: np.ndarray,
    noise: np.ndarray,
    norms: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Synthesized copies h' = h + (h/||h||) * (radius * noise), one per row.

    ``h`` holds the representation of each copy's origin row, ``radii`` one
    radius per copy and ``noise`` one standard-normal row per copy (the
    output of ``plan_synthesis``, gathered by origin). ``norms``, the column
    ``row_norms(h)[:, None]``, may be passed by a caller that needs it too;
    ``out``, an array shaped like ``h``, receives the copies.
    """
    if norms is None:
        norms = row_norms(h)[:, None]
    if not norms.all():
        raise ValueError("zero-norm representation cannot be synthesized from")
    # each product and sum of the formula, in its order, written into ``out``
    out = np.divide(h, norms, out=out)
    out *= radii[:, None] * noise
    out += h
    return out
