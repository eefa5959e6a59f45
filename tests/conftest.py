import pytest

from pseudopool.datasets import DatasetSpec, generate_splits


def tiny_spec(**overrides) -> DatasetSpec:
    """Small, fast split family for unit tests (C=3, d=4)."""
    defaults = dict(
        num_classes=3,
        feature_dim=4,
        n_max=20,
        m_max=60,
        gamma_l=4.0,
        gamma_u=4.0,
        unlabeled_shape="arbitrary",
        test_per_class=10,
        seed=0,
    )
    defaults.update(overrides)
    return DatasetSpec(**defaults)


@pytest.fixture
def tiny_splits():
    return generate_splits(tiny_spec())


def desk_spec(unlabeled_shape: str = "arbitrary", seed: int = 0) -> DatasetSpec:
    """The desk-scale suite family: C=5, d=16, n_max=100, m_max=900, gamma=10."""
    return DatasetSpec(
        num_classes=5,
        feature_dim=16,
        n_max=100,
        m_max=900,
        gamma_l=10.0,
        gamma_u=10.0,
        unlabeled_shape=unlabeled_shape,
        seed=seed,
    )


def rel_err(analytic: float, numeric: float, floor: float = 1e-8) -> float:
    return abs(analytic - numeric) / max(floor, abs(analytic), abs(numeric))

