"""The class prior and the stabilized softmax behind the logit-adjusted loss.

The adjusted loss adds per-class log-prior offsets (``ClassPrior.log``) to
the logits inside a softmax cross-entropy, so the minimizer targets balanced
error instead of plain accuracy; with no prior it is plain cross-entropy,
the consistency term. The loss itself, with its gradient, is
``network._xent_forward_backward``. ``log_softmax`` subtracts the row max
first, so losses stay finite for logit magnitudes far beyond float64 exp
range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ClassPrior:
    """A strictly positive class distribution used as the logit offset."""

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=np.float64)
        if probs.ndim != 1 or probs.size < 2:
            raise ValueError("prior must be a 1-D vector over >= 2 classes")
        if (probs <= 0).any():
            raise ValueError("prior entries must be strictly positive")
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ValueError("prior must sum to 1 within 1e-9")
        self.probabilities = probs

    @property
    def log(self) -> np.ndarray:
        return np.log(self.probabilities)


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
    zt -= zt.max(axis=0)
    zt -= np.log(np.exp(zt).sum(axis=0))
    return np.ascontiguousarray(zt.T)


def softmax(z: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(z))


def top_class(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(argmax, max) of each row of a 2-D array; argmax ties go to the lowest
    class index. The max is read at the argmax, which is exact and skips a
    slow reduction along the short class axis."""
    labels = np.argmax(probs, axis=1)
    return labels, probs[np.arange(probs.shape[0]), labels]
