"""Seeded long-tailed synthetic datasets, augmentation views, and CSV ingest.

Splits are generated from unit-variance per-class Gaussians whose means sit
on the radius-2.5 circle in the first two feature dimensions; the remaining
dimensions carry pure noise. Every operation that takes a seed uses numpy's
PCG64 generator (``np.random.default_rng``), so identical seeds give
bit-identical splits.

Hidden ground truth for unlabeled samples lives only on ``UnlabeledSplit``;
training code receives an ``UnlabeledView`` projection that does not carry it.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .records import read_json, write_csv, write_json

LABELED_SHAPES = ("long_tailed", "arbitrary")
UNLABELED_SHAPES = ("consistent", "inverse", "uniform", "arbitrary")
ARBITRARY_MODES = ("permutation", "dirichlet")
CSV_ROLES = ("labeled", "unlabeled", "test")
MEAN_RADIUS = 2.5
BLOCK_ROWS = 256  # rows per block of a streamed pass over a split (the policy's, the audit's)


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one long-tailed labeled/unlabeled/test split family."""

    num_classes: int
    feature_dim: int
    n_max: int
    m_max: int
    gamma_l: float = 1.0
    gamma_u: float = 1.0
    labeled_shape: str = "long_tailed"
    unlabeled_shape: str = "consistent"
    test_per_class: int = 40
    arbitrary_mode: str = "permutation"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if self.n_max < 1 or self.m_max < 1:
            raise ValueError("n_max and m_max must be positive")
        if not (self.gamma_l >= 1 and self.gamma_u >= 1):
            raise ValueError("imbalance ratios must be >= 1")
        if self.n_max // self.gamma_l < 1:
            raise ValueError("n_max / gamma_l < 1 would force an empty class")
        if self.m_max // self.gamma_u < 1:
            raise ValueError("m_max / gamma_u < 1 would force an empty class")
        if self.labeled_shape not in LABELED_SHAPES:
            raise ValueError(f"labeled_shape must be one of {LABELED_SHAPES}")
        if self.unlabeled_shape not in UNLABELED_SHAPES:
            raise ValueError(f"unlabeled_shape must be one of {UNLABELED_SHAPES}")
        if self.arbitrary_mode not in ARBITRARY_MODES:
            raise ValueError(f"arbitrary_mode must be one of {ARBITRARY_MODES}")
        if self.test_per_class < 1:
            raise ValueError("test_per_class must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class LabeledSplit:
    ids: np.ndarray
    features: np.ndarray
    labels: np.ndarray

    def class_counts(self, num_classes: int) -> np.ndarray:
        return np.bincount(self.labels, minlength=num_classes)


@dataclass
class UnlabeledSplit:
    ids: np.ndarray
    features: np.ndarray
    hidden_labels: np.ndarray

    def class_counts(self, num_classes: int) -> np.ndarray:
        return np.bincount(self.hidden_labels, minlength=num_classes)


@dataclass
class UnlabeledView:
    """Projection of the unlabeled split handed to training code.

    Deliberately lacks any ground-truth field; the hidden labels stay on
    ``UnlabeledSplit`` and are consumed by the metrics module alone.
    """

    ids: np.ndarray
    features: np.ndarray


@dataclass
class SplitBundle:
    """The three splits of one dataset. Checked once, here, so that no
    reader checks again: each role has one id, one feature row and one label
    per sample, every label is a class of ``spec``, every role's features are
    finite and 2-D with the labeled split's width, and no id appears twice,
    within a role or across roles. The test split has at least one row; an
    empty unlabeled split is allowed (the supervised baselines train on one)."""

    spec: DatasetSpec
    labeled: LabeledSplit
    unlabeled: UnlabeledSplit
    test: LabeledSplit

    def __post_init__(self) -> None:
        for role, split, labels in (
            ("labeled", self.labeled, self.labeled.labels),
            ("unlabeled", self.unlabeled, self.unlabeled.hidden_labels),
            ("test", self.test, self.test.labels),
        ):
            shape = np.shape(split.features)
            if len(shape) != 2 or shape[1] != np.shape(self.labeled.features)[1]:
                raise ValueError(f"{role} features of shape {shape} are not 2-D rows as wide as the labeled ones")
            if not np.size(split.ids) == shape[0] == np.size(labels):
                raise ValueError(
                    f"{role} split has {np.size(split.ids)} ids, {shape[0]} feature rows and {np.size(labels)} labels"
                )
            labels = np.asarray(labels)
            outside = labels[(labels < 0) | (labels >= self.spec.num_classes)]
            if outside.size:
                raise ValueError(f"{role} label {outside[0]} outside [0, {self.spec.num_classes})")
            bad = np.flatnonzero(~np.isfinite(split.features).all(axis=1))
            if bad.size:
                raise ValueError(f"{role} feature row {bad[0]} holds a non-finite value")
        if not np.size(self.test.ids):
            raise ValueError("test split has no rows to score")
        ids = np.concatenate([self.labeled.ids, self.unlabeled.ids, self.test.ids])
        order = np.argsort(ids, kind="stable")
        repeats = order[1:][ids[order[1:]] == ids[order[:-1]]]  # later positions of a repeated id
        if repeats.size:
            raise ValueError(f"id {ids[repeats.min()]} appears more than once in the labeled, unlabeled and test ids")

    def unlabeled_view(self) -> UnlabeledView:
        return UnlabeledView(ids=self.unlabeled.ids, features=self.unlabeled.features)


def long_tailed_counts(n_max: int, gamma: float, num_classes: int) -> np.ndarray:
    """Exponential long-tailed class counts: head n_max, head/tail ratio gamma.

    counts[c] = max(1, floor(n_max * gamma ** (-c / (C - 1)))).
    """
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    if n_max < gamma:
        raise ValueError("n_max < gamma would force zero-count classes")
    exponents = -np.arange(num_classes, dtype=np.float64) / (num_classes - 1)
    raw = n_max * np.power(float(gamma), exponents)
    return np.maximum(1, np.floor(raw).astype(np.int64))


def shape_counts(
    base_counts: np.ndarray,
    shape: str,
    seed: int | np.random.Generator | None = None,
    arbitrary_mode: str = "permutation",
) -> np.ndarray:
    """Reshape a per-class count profile for the unlabeled split."""
    counts = np.asarray(base_counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size == 0 or np.any(counts < 1):
        raise ValueError("base_counts must be a 1-D vector of positive counts")
    if shape == "consistent":
        return counts.copy()
    if shape == "inverse":
        return counts[::-1].copy()
    if shape == "uniform":
        return np.full_like(counts, int(np.rint(counts.mean())))
    if shape == "arbitrary":
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        if arbitrary_mode == "permutation":
            return rng.permutation(counts)
        if arbitrary_mode == "dirichlet":
            return _dirichlet_counts(counts, rng)
        raise ValueError(f"arbitrary_mode must be one of {ARBITRARY_MODES}")
    raise ValueError(f"shape must be one of {UNLABELED_SHAPES}")


def _dirichlet_counts(base_counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Dirichlet(1) re-apportionment of the profile's total, every class >= 1."""
    total = int(base_counts.sum())
    weights = rng.dirichlet(np.ones(base_counts.size))
    raw = weights * total
    counts = np.floor(raw).astype(np.int64)
    # Largest-remainder fill, then steal from the max to guarantee counts >= 1.
    remainder = total - int(counts.sum())
    order = np.argsort(-(raw - counts), kind="stable")
    counts[order[:remainder]] += 1
    while np.any(counts < 1):
        counts[np.argmax(counts)] -= 1
        counts[np.argmin(counts)] += 1
    return counts


def circle_class_means(num_classes: int, feature_dim: int) -> np.ndarray:
    """Class means evenly spaced on the ``MEAN_RADIUS`` circle in the first
    two dimensions (on [-MEAN_RADIUS, MEAN_RADIUS] when ``feature_dim`` is 1)."""
    means = np.zeros((num_classes, feature_dim), dtype=np.float64)
    if feature_dim == 1:
        means[:, 0] = MEAN_RADIUS * np.linspace(-1.0, 1.0, num_classes)
        return means
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    means[:, 0] = MEAN_RADIUS * np.cos(angles)
    means[:, 1] = MEAN_RADIUS * np.sin(angles)
    return means


def generate_splits(spec: DatasetSpec) -> SplitBundle:
    """Draw labeled/unlabeled/test splits for a spec, bit-identical per seed."""
    shape_ss, data_ss = np.random.SeedSequence(spec.seed).spawn(2)
    shape_rng = np.random.default_rng(shape_ss)
    data_rng = np.random.default_rng(data_ss)

    labeled_counts = long_tailed_counts(spec.n_max, spec.gamma_l, spec.num_classes)
    if spec.labeled_shape == "arbitrary":
        labeled_counts = shape_counts(
            labeled_counts, "arbitrary", shape_rng, spec.arbitrary_mode
        )
    unlabeled_counts = shape_counts(
        long_tailed_counts(spec.m_max, spec.gamma_u, spec.num_classes),
        spec.unlabeled_shape,
        shape_rng,
        spec.arbitrary_mode,
    )

    means = circle_class_means(spec.num_classes, spec.feature_dim)

    def draw(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # each class's noise is drawn straight into its rows of the split,
        # then shifted by its mean: no per-class copy and no concatenation
        feats = np.empty((int(counts.sum()), spec.feature_dim))
        for c, stop in enumerate(np.cumsum(counts).tolist()):
            rows = feats[stop - int(counts[c]) : stop]
            data_rng.standard_normal(out=rows)
            rows += means[c]
        return feats, np.repeat(np.arange(spec.num_classes, dtype=np.int64), counts)

    lab_x, lab_y = draw(labeled_counts)
    unl_x, unl_y = draw(unlabeled_counts)
    test_x, test_y = draw(np.full(spec.num_classes, spec.test_per_class, dtype=np.int64))

    n, m = lab_x.shape[0], unl_x.shape[0]
    labeled = LabeledSplit(np.arange(n, dtype=np.int64), lab_x, lab_y)
    unlabeled = UnlabeledSplit(np.arange(n, n + m, dtype=np.int64), unl_x, unl_y)
    test = LabeledSplit(
        np.arange(n + m, n + m + test_x.shape[0], dtype=np.int64), test_x, test_y
    )
    return SplitBundle(spec=spec, labeled=labeled, unlabeled=unlabeled, test=test)


# ---------------------------------------------------------------------------
# Augmentation views
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AugmentationPolicy:
    """Weak/strong perturbation strengths for feature-vector views."""

    weak_noise_sigma: float
    strong_noise_sigma: float
    strong_mask_rate: float = 0.3

    def __post_init__(self) -> None:
        if not (self.weak_noise_sigma >= 0 and self.strong_noise_sigma >= 0):
            raise ValueError("noise sigmas must be >= 0")
        if self.strong_noise_sigma < self.weak_noise_sigma:
            raise ValueError("strong view must perturb at least as hard as weak")
        if not 0.0 <= self.strong_mask_rate <= 1.0:
            raise ValueError("strong_mask_rate must lie in [0, 1]")


def policy_from_features(*features: np.ndarray) -> AugmentationPolicy:
    """The training policy: weak and strong sigmas 0.05 and 0.15 of the mean
    per-feature std of the given row blocks stacked (in training, the labeled
    and the unlabeled features), and 30% of each strong view's coordinates
    masked.

    The stack is never built: both of ``np.std``'s passes run over blocks of
    ``BLOCK_ROWS`` rows, and the std has the bits of
    ``np.std(np.concatenate(features), axis=0)``.
    """
    parts = [np.asarray(x) for x in features]
    n = sum(x.shape[0] for x in parts)
    if parts[0].shape[1] == 1 or n == 0:
        # numpy sums a lone contiguous column pairwise, not row after row, so
        # that column is stacked; it is 1/d of a split's bytes
        std = np.std(np.concatenate(parts).astype(np.float64, copy=False), axis=0)
    else:
        mean = _column_sum(parts) / n
        std = np.sqrt(_column_sum(parts, mean) / n)
    base = float(np.mean(std))
    return AugmentationPolicy(weak_noise_sigma=0.05 * base, strong_noise_sigma=0.15 * base, strong_mask_rate=0.3)


def _column_sum(parts: list[np.ndarray], mean: np.ndarray | None = None) -> np.ndarray:
    """Column sums of the rows of ``parts`` stacked, or of their squared
    deviations from ``mean`` when it is given. numpy sums a C-contiguous
    stack of two or more columns down axis 0 one row after another, so each
    block is summed with the running sum as its first row to add in the same
    order. The running sum starts at zero: 0.0 + x is x for every x but
    -0.0, and the sign of a zero sum changes no std."""
    buf = np.zeros((BLOCK_ROWS + 1, parts[0].shape[1]))
    for part in parts:
        for lo in range(0, part.shape[0], BLOCK_ROWS):
            rows = part[lo : lo + BLOCK_ROWS]
            block = buf[: rows.shape[0] + 1]
            if mean is None:
                block[1:] = rows
            else:
                np.subtract(rows, mean, out=block[1:])
                np.square(block[1:], out=block[1:])
            buf[0] = block.sum(axis=0)
    return buf[0].copy()


def weak_view_batch(
    X: np.ndarray, policy: AugmentationPolicy, rng: np.random.Generator
) -> np.ndarray:
    """Weak view of each row: additive Gaussian noise."""
    X = np.asarray(X, dtype=np.float64)
    out = rng.standard_normal(X.shape)
    out *= policy.weak_noise_sigma
    out += X
    return out


def strong_view_batch(
    X: np.ndarray, policy: AugmentationPolicy, rng: np.random.Generator
) -> np.ndarray:
    """Strong view of each row: heavier noise, then a fixed fraction of its
    coordinates zeroed."""
    X = np.asarray(X, dtype=np.float64)
    out = rng.standard_normal(X.shape)
    out *= policy.strong_noise_sigma
    out += X
    k = int(round(policy.strong_mask_rate * X.shape[1]))
    if k > 0:
        # Per-row mask: the k smallest of a uniform draw picks coords uniformly.
        scores = rng.random(X.shape)
        masked = np.argsort(scores, axis=1)[:, :k]
        out[np.arange(X.shape[0])[:, None], masked] = 0.0
    return out


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


def _expected_header(feature_dim: int) -> list[str]:
    return [f"f{i}" for i in range(feature_dim)] + ["label"]


def load_csv(
    path: str | Path, role: str, num_classes: int, id_start: int = 0
) -> LabeledSplit | UnlabeledSplit:
    """Parse one split CSV; row-level problems are rejected with the row number.

    The header must read ``f0,...,f{d-1},label``. The unlabeled role gives an
    ``UnlabeledSplit`` whose label column is ``hidden_labels``; labeled/test
    give a ``LabeledSplit``. Row ids run consecutively from ``id_start``.
    """
    if role not in CSV_ROLES:
        raise ValueError(f"role must be one of {CSV_ROLES}")
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        rows = _numbered_rows(csv.reader(fh), path)
        _, header = next(rows, (1, None))
        if header is None:
            raise ValueError(f"{path}: empty file, header row required")
        if len(header) < 2 or header[-1] != "label":
            raise ValueError(f"{path}: header must be f0,...,f{{d-1}},label")
        feature_dim = len(header) - 1
        if header != _expected_header(feature_dim):
            raise ValueError(f"{path}: header must be f0,...,f{{d-1}},label")
        # one float64 and one int64 buffer grow row by row, with no Python
        # float kept per value
        features, labels = array("d"), array("q")
        for row_num, row in rows:
            if len(row) != feature_dim + 1:
                raise ValueError(
                    f"{path}: row {row_num}: expected {feature_dim + 1} columns, got {len(row)}"
                )
            try:
                feats = [float(v) for v in row[:-1]]
            except ValueError:
                raise ValueError(
                    f"{path}: row {row_num}: non-numeric feature value"
                ) from None
            if not all(map(math.isfinite, feats)):
                raise ValueError(f"{path}: row {row_num}: non-finite feature value")
            try:
                label = int(row[-1])
            except ValueError:
                raise ValueError(
                    f"{path}: row {row_num}: label {row[-1]!r} is not an integer"
                ) from None
            if not 0 <= label < num_classes:
                raise ValueError(
                    f"{path}: row {row_num}: label {label} outside [0, {num_classes})"
                )
            features.extend(feats)
            labels.append(label)
    split = UnlabeledSplit if role == "unlabeled" else LabeledSplit
    return split(
        np.arange(id_start, id_start + len(labels), dtype=np.int64),
        np.frombuffer(features, dtype=np.float64).reshape(len(labels), feature_dim),
        np.frombuffer(labels, dtype=np.int64),
    )


def _numbered_rows(reader, path: Path):
    """Yield (row number, cells) per record, the header being row 1. Faults
    the csv reader itself raises (a NUL byte before Python 3.11, a field over
    the size limit) become ``ValueError`` naming the row."""
    row_num = 1
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ValueError(f"{path}: row {row_num}: {exc}") from None
        yield row_num, row
        row_num += 1


def save_splits(bundle: SplitBundle, out_dir: str | Path) -> dict[str, Path]:
    """Persist a bundle as one CSV per role plus a JSON sidecar with the spec.

    Any old sidecar goes first and the new one is written last, each file
    through ``records.atomic_open``: a write that fails leaves no ``dataset.json``,
    so ``load_splits`` never reads a mix of old and new splits.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "labeled": out_dir / "labeled.csv",
        "unlabeled": out_dir / "unlabeled.csv",
        "test": out_dir / "test.csv",
        "spec": out_dir / "dataset.json",
    }
    paths["spec"].unlink(missing_ok=True)
    for role in CSV_ROLES:
        split = getattr(bundle, role)
        labels = split.hidden_labels if role == "unlabeled" else split.labels
        rows = ([repr(float(v)) for v in feats] + [int(label)] for feats, label in zip(split.features, labels))
        write_csv(paths[role], _expected_header(split.features.shape[1]), rows)
    write_json(paths["spec"], asdict(bundle.spec))
    return paths


def load_splits(in_dir: str | Path) -> SplitBundle:
    """Rebuild a bundle from ``save_splits`` output (ids reassigned globally).
    A malformed ``dataset.json`` raises ``ConfigError`` naming the file."""
    in_dir = Path(in_dir)
    spec = read_json(DatasetSpec, in_dir / "dataset.json")
    c = spec.num_classes
    labeled = load_csv(in_dir / "labeled.csv", "labeled", c, id_start=0)
    unlabeled = load_csv(in_dir / "unlabeled.csv", "unlabeled", c, id_start=labeled.ids.size)
    test = load_csv(in_dir / "test.csv", "test", c, id_start=labeled.ids.size + unlabeled.ids.size)
    return SplitBundle(spec=spec, labeled=labeled, unlabeled=unlabeled, test=test)

