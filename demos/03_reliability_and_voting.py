"""Inside the pseudo-label cycle: dual-view filtering and cumulative voting.

A sample earns a vote only when its weak AND strong views are both confident
past the threshold and agree on the label. Votes accumulate across the whole
run; a sample joins the labeled pool while one class holds a strict
super-majority of its votes. This demo trains a short run and then walks
through the registry it left behind.
"""

import numpy as np

from pseudopool.cycle import ViewPredictionBatch, reliability_mask_batch
from pseudopool.datasets import DatasetSpec, generate_splits, strong_view_batch, weak_view_batch
from pseudopool.network import encode, top_class
from pseudopool.training import TrainConfig, train

print("the three-clause filter on hand-built view predictions (tau = 0.95):")
cases = [
    # (name, weak label, weak confidence, strong label, strong confidence)
    ("both confident, labels agree", 2, 0.97, 2, 0.96),
    ("strong view not confident   ", 2, 0.97, 2, 0.80),
    ("views disagree on the label ", 1, 0.99, 2, 0.99),
    ("exactly at the threshold    ", 2, 0.95, 2, 0.99),
]
names, *columns = zip(*cases)
views = ViewPredictionBatch(*(np.array(col) for col in columns))
for name, fired in zip(names, reliability_mask_batch(views, 0.95)):
    print(f"  {name} -> mask {int(fired)}")

spec = DatasetSpec(
    num_classes=5, feature_dim=16, n_max=100, m_max=900,
    gamma_l=10.0, gamma_u=10.0, unlabeled_shape="arbitrary", seed=0,
)
splits = generate_splits(spec)
config = TrainConfig(total_epochs=60, warmup_epochs=30, seed=0)
history = train(config, splits)

registry = history.registry
voted = int(np.sum(registry.votes.sum(axis=1) > 0))
resolved = int(np.sum(registry.resolved >= 0))
print(f"\nafter {config.total_epochs} epochs "
      f"({config.total_epochs - config.warmup_epochs} past warmup):")
print(f"  unlabeled samples with any votes: {voted} / {registry.ids.size}")
print(f"  resolved into the pool:           {resolved}")

totals = registry.votes.sum(axis=1)
shares = np.zeros_like(totals, dtype=float)
nonzero = totals > 0
top = registry.votes.max(axis=1)
shares[nonzero] = top[nonzero] / totals[nonzero]
print("\nvote-share distribution among voted samples (modal class share):")
for lo, hi in [(0.5, 0.8), (0.8, 0.95), (0.95, 1.0)]:
    n = int(np.sum(nonzero & (shares >= lo) & (shares < hi)))
    print(f"  share in [{lo:.2f}, {hi:.2f}): {n}")
print(f"  unanimous (share = 1.0):   {int(np.sum(nonzero & (shares == 1.0)))}")

# the filter on the trained model, as a training step runs it: both views of
# a batch go through one encoder forward, and the primary head's top class of
# that block splits back into the weak and the strong half
rng = np.random.default_rng(1)
batch = splits.unlabeled.features[rng.integers(0, registry.ids.size, size=112)]
weak = weak_view_batch(batch, history.policy, rng)
strong = strong_view_batch(batch, history.policy, rng)
labels, confs = top_class(history.state, encode(history.state, np.concatenate([weak, strong])))
views = ViewPredictionBatch(labels[:112], confs[:112], labels[112:], confs[112:])
fired = reliability_mask_batch(views, 0.95)
print(f"\none batch of {batch.shape[0]} unlabeled samples under the trained model:")
print(f"  reliable (would vote): {int(fired.sum())}")

pool = history.pool
print(f"\npool census: base {pool.n} + accepted {pool.m} = {pool.phi}")
print(f"class prior now fed to the adjusted loss: {np.round(pool.phi / pool.phi.sum(), 3)}")
