"""Class-aware representation synthesis, step by step.

Each class tracks an EMA centroid in representation space; compactness is
the mean cosine of members to that centroid, and the synthesis radius is its
reciprocal (floored). Tight clusters get gentle copies, loose ones get wider
exploration, and only classes below the pool's median count are expanded.
"""

import numpy as np

from pseudopool.augment import (
    ClassStats,
    minority_classes,
    plan_synthesis,
    synthesize,
    update_class_stats,
)

rng = np.random.default_rng(0)

stats = ClassStats(num_classes=3, rep_dim=8, ema_decay=0.9)
tight = rng.normal(loc=4.0, scale=0.2, size=(30, 8))
medium = rng.normal(loc=2.0, scale=1.0, size=(30, 8))
loose = rng.normal(loc=1.0, scale=2.5, size=(30, 8))
for c, reps in enumerate((tight, medium, loose)):
    update_class_stats(stats, reps, np.full(30, c))

print("compactness drives how far synthesized copies may wander:")
for row in stats.rows():
    print(f"  class {row['class']}: compactness {row['alpha']:.3f} -> radius {row['radius']:.3f}")

phi = np.array([140, 40, 12])
print(f"\npool census {phi} -> minority classes {[int(c) for c in minority_classes(phi)]}")

h = np.array([3.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
radii = np.full(3, stats.radius[2])
copies = synthesize(np.tile(h, (3, 1)), radii, rng.standard_normal((3, 8)))
print(f"\nthree copies of one representation (norm {np.linalg.norm(h):.1f}):")
for rep in copies:
    print("  ", np.round(rep[:4], 3), "...")

batch_reps = np.vstack([tight[:2], medium[:2], loose[:3]])
batch_labels = np.array([0, 0, 1, 1, 2, 2, 2])
origin, radii, noise = plan_synthesis(batch_labels, batch_reps, minority_classes(phi), stats, rng)
synth = synthesize(batch_reps[origin], radii, noise)
out_labels = np.concatenate([batch_labels, batch_labels[origin]])
print(f"\nbatch of {len(batch_labels)} -> {len(out_labels)} after expanding "
      f"{int(np.sum(batch_labels == 2))} minority samples tenfold "
      f"({synth.shape[0]} copies, all labelled {set(batch_labels[origin].tolist())})")
print(f"census untouched by augmentation: {phi}")
