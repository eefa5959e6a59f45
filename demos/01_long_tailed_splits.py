"""Build long-tailed splits with mismatched unlabeled distributions.

The labeled split always follows an exponential long-tail profile; the
unlabeled split can mirror it, invert it, flatten it, or permute it into an
arbitrary shape where any class may dominate. Ground-truth unlabeled labels
exist only for evaluation and are invisible to training code.
"""

import numpy as np

from pseudopool.datasets import DatasetSpec, generate_splits, long_tailed_counts

spec = DatasetSpec(
    num_classes=5,
    feature_dim=16,
    n_max=100,
    m_max=900,
    gamma_l=10.0,
    gamma_u=10.0,
    seed=0,
)

print("labeled long-tail profile for n_max=100, ratio 10, 5 classes:")
print("  ", long_tailed_counts(spec.n_max, spec.gamma_l, spec.num_classes))
print()

for shape in ("consistent", "inverse", "uniform", "arbitrary"):
    bundle = generate_splits(
        DatasetSpec(**{**spec.__dict__, "unlabeled_shape": shape})
    )
    counts = bundle.unlabeled.class_counts(spec.num_classes)
    print(f"unlabeled counts, {shape:>10s}: {counts}  (total {counts.sum()})")

bundle = generate_splits(spec)
print()
print(f"labeled: {bundle.labeled.ids.size} samples, "
      f"unlabeled: {bundle.unlabeled.ids.size}, test: {bundle.test.ids.size} (balanced)")

view = bundle.unlabeled_view()
print(f"training code sees the unlabeled split as: {sorted(vars(view))}")

again = generate_splits(spec)
identical = np.array_equal(bundle.labeled.features, again.labeled.features)
print(f"same seed regenerates bit-identical features: {identical}")
