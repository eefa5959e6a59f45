"""The benchmark's workloads: one training method on one split family each.

Every workload is closed loop: one training call at a time, each started when
the previous one returned. A run trains ``seeds_per_run`` distinct seeds
derived from the benchmark seed, so the quality figures and the call times it
reports average over several splits rather than hanging on one draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    method: str  # "cpg" or a baseline kind accepted by training.run_baseline
    m_max: int
    unlabeled_shape: str
    seeds_per_run: int
    config: dict = field(default_factory=dict)

    def seeds(self, seed: int) -> list[int]:
        """Data/training seeds of one run; disjoint across benchmark seeds."""
        return [seed * self.seeds_per_run + i for i in range(self.seeds_per_run)]

    def spec(self, seed: int):
        from pseudopool.datasets import DatasetSpec

        # The desk split family: C=5, d=16, n_max=100, imbalance ratio 10.
        return DatasetSpec(
            num_classes=5,
            feature_dim=16,
            n_max=100,
            m_max=self.m_max,
            gamma_l=10.0,
            gamma_u=10.0,
            unlabeled_shape=self.unlabeled_shape,
            seed=seed,
        )

    def train_config(self, seed: int):
        from pseudopool.training import TrainConfig

        return TrainConfig(seed=seed, **self.config)

    def run(self, config, splits):
        from pseudopool import training

        if self.method == "cpg":
            return training.train(config, splits)
        return training.run_baseline(self.method, config, splits)


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's desk-scale run of the full method with the default
        # 150 x 20-step budget; every layer takes a share.
        Workload("cpg-desk", "cpg", m_max=900, unlabeled_shape="arbitrary", seeds_per_run=4),
        # Ten times the unlabeled data and a low vote quorum, so the pool
        # grows into the thousands and the id-keyed cycle state dominates;
        # freeze_resolved takes the grow-only merge path cpg-desk never runs.
        # The consistent shape keeps the pool's growth from hanging on which
        # classes a permuted unlabeled split happens to favour.
        Workload(
            "cpg-wide-u",
            "cpg",
            m_max=9000,
            unlabeled_shape="consistent",
            seeds_per_run=4,
            config=dict(total_epochs=40, warmup_epochs=8, min_votes=3, freeze_resolved=True),
        ),
        # The threshold-consistency baseline: no cycle and no synthesis, so a
        # cycle optimisation must leave it unchanged.
        Workload(
            "ssl-desk", "consistency_ssl", m_max=900, unlabeled_shape="arbitrary", seeds_per_run=8
        ),
    )
}
