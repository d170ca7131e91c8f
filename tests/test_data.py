"""Synthetic datasets and partitioners."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfnas.data import (
    DIRICHLET_DRAWS,
    DataSpec,
    Dataset,
    Partition,
    dirichlet_split,
    generate_synthetic,
    iid_split,
)
from dfnas.errors import ConfigurationError, DataError


def spec(**overrides):
    base = dict(kind="blobs", n_samples=200, num_classes=4, noise=0.1, feature_dim=6)
    base.update(overrides)
    return DataSpec(**base)


# --- generation ---


def test_blobs_linearly_separable_at_zero_noise():
    ds = generate_synthetic(spec(noise=0.0), np.random.default_rng(0))
    # least squares onto one-hot targets classifies perfectly
    x = np.hstack([ds.features, np.ones((len(ds), 1))])
    targets = np.eye(ds.num_classes)[ds.labels]
    w, *_ = np.linalg.lstsq(x, targets, rcond=None)
    pred = (x @ w).argmax(axis=1)
    assert (pred == ds.labels).mean() == 1.0


def test_generation_is_deterministic():
    a = generate_synthetic(spec(), np.random.default_rng(42))
    b = generate_synthetic(spec(), np.random.default_rng(42))
    assert a.features.tobytes() == b.features.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()


def test_balanced_class_counts():
    ds = generate_synthetic(
        spec(n_samples=1000, num_classes=10, feature_dim=10), np.random.default_rng(1)
    )
    assert np.bincount(ds.labels, minlength=10).tolist() == [100] * 10


def test_patches_have_near_zero_class_means():
    ds = generate_synthetic(
        spec(kind="patches", n_samples=800, num_classes=4, noise=0.0, image_size=8),
        np.random.default_rng(3),
    )
    for c in range(4):
        mean = ds.features[ds.labels == c].mean(axis=0)
        assert np.abs(mean).max() < 0.25  # random phase cancels the grating


def test_rings_are_not_linearly_separable():
    ds = generate_synthetic(
        spec(kind="rings", n_samples=400, num_classes=2, noise=0.05, feature_dim=2),
        np.random.default_rng(5),
    )
    x = np.hstack([ds.features, np.ones((len(ds), 1))])
    targets = np.eye(2)[ds.labels]
    w, *_ = np.linalg.lstsq(x, targets, rcond=None)
    pred = (x @ w).argmax(axis=1)
    assert (pred == ds.labels).mean() < 0.75


def test_invalid_spec_rejected():
    with pytest.raises(ConfigurationError):
        generate_synthetic(spec(kind="nope"), np.random.default_rng(0))
    with pytest.raises(ConfigurationError):
        generate_synthetic(spec(feature_dim=2, num_classes=4), np.random.default_rng(0))
    with pytest.raises(ConfigurationError):
        generate_synthetic(spec(noise=-1.0), np.random.default_rng(0))
    with pytest.raises(ConfigurationError, match="n_samples must be >= 1, got 0"):
        generate_synthetic(spec(n_samples=0), np.random.default_rng(0))
    with pytest.raises(ConfigurationError, match="num_classes must be >= 2, got 1"):
        generate_synthetic(spec(num_classes=1), np.random.default_rng(0))
    with pytest.raises(ConfigurationError, match="feature_dim must be >= 2 for rings, got 1"):
        generate_synthetic(spec(kind="rings", feature_dim=1), np.random.default_rng(0))


def test_rings_fill_extra_columns_with_noise_scaled_draws():
    ds = generate_synthetic(spec(kind="rings", noise=0.01), np.random.default_rng(4))
    assert ds.features.shape == (200, 6)
    assert np.all(np.hypot(ds.features[:, 0], ds.features[:, 1]) >= 0.9)  # radii 1 to 4
    assert 0 < np.abs(ds.features[:, 2:]).max() < 0.05  # 5 noise sigmas


def test_patch_channels_repeat_one_grating_and_differ_only_by_noise():
    draw = dict(kind="patches", n_samples=40, image_channels=3, image_size=6)
    clean = generate_synthetic(spec(noise=0.0, **draw), np.random.default_rng(6)).features
    noisy = generate_synthetic(spec(noise=0.01, **draw), np.random.default_rng(6)).features
    assert clean.shape == (40, 3, 6, 6)
    assert np.array_equal(clean[:, 1], clean[:, 0]) and np.array_equal(clean[:, 2], clean[:, 0])
    assert 0 < np.abs(noisy - clean).max() < 0.05


@pytest.mark.parametrize("features, labels, num_classes, names", [
    (np.zeros((2, 3, 4)), [0, 1], 2, "rank 2 or 4, got 3"),
    (np.zeros((3, 2)), [0, 1], 2, "labels shape (2,) does not match N=3"),
    (np.zeros((2, 2)), [0, 0], 0, "num_classes must be >= 1, got 0"),
    (np.zeros((3, 2)), [0, 2, 1], 2, "label 2 at index 1 outside [0, 2)"),
])
def test_malformed_dataset_is_rejected_naming_the_fault(features, labels, num_classes, names):
    with pytest.raises(DataError) as exc:
        Dataset(features=features, labels=labels, num_classes=num_classes)
    assert names in str(exc.value)


# --- iid split ---


def test_iid_class_proportions_close_to_global():
    ds = generate_synthetic(
        spec(n_samples=10_000, num_classes=4), np.random.default_rng(0)
    )
    part = iid_split(ds, 8, np.random.default_rng(2))
    global_hist = np.bincount(ds.labels, minlength=4) / len(ds)
    for shard in part.client_indices:
        hist = np.bincount(ds.labels[shard], minlength=4) / shard.size
        tv = 0.5 * np.abs(hist - global_hist).sum()
        assert tv < 0.1


# --- dirichlet split ---


def test_dirichlet_single_client():
    # a one-component draw is 1.0 or 0.9999999999999999; rounding gives all rows either way
    ds = generate_synthetic(spec(), np.random.default_rng(0))
    for concentration in (1e-6, 0.5, 1e6):
        for seed in range(20):
            part = dirichlet_split(ds, 1, concentration, np.random.default_rng(seed))
            assert part.sizes() == [len(ds)]


def test_dirichlet_skew_decreases_with_concentration():
    ds = generate_synthetic(spec(n_samples=4000, num_classes=4), np.random.default_rng(0))
    mean_entropies = []
    for concentration in (0.1, 0.5, 10.0):
        rng = np.random.default_rng(123)
        entropies = []
        for _ in range(100):
            part = dirichlet_split(ds, 4, concentration, rng)
            for shard in part.client_indices:
                hist = np.bincount(ds.labels[shard], minlength=4) / shard.size
                nz = hist[hist > 0]
                entropies.append(float(-(nz * np.log(nz)).sum()))
        mean_entropies.append(float(np.mean(entropies)))
    assert mean_entropies[0] <= mean_entropies[1] <= mean_entropies[2]


def test_dirichlet_rejects_bad_arguments():
    ds = generate_synthetic(spec(), np.random.default_rng(0))
    with pytest.raises(ConfigurationError):
        dirichlet_split(ds, 0, 0.5, np.random.default_rng(0))
    with pytest.raises(ConfigurationError):
        dirichlet_split(ds, 2, 0.0, np.random.default_rng(0))


def test_dirichlet_errors_after_retries_on_degenerate_partition():
    # 3 samples over 3 clients with extreme skew cannot cover everyone reliably
    ds = Dataset(
        features=np.zeros((3, 4)), labels=np.array([0, 0, 0]), num_classes=1
    )
    with pytest.raises(DataError):
        dirichlet_split(ds, 3, 1e-6, np.random.default_rng(5))


# --- partition properties ---


def _labelled(n: int, classes: int, seed: int) -> Dataset:
    labels = np.random.default_rng(seed).integers(0, classes, size=n)
    return Dataset(features=np.zeros((n, 2)), labels=labels, num_classes=classes)


def _covers_exactly(part: Partition, n: int) -> bool:
    merged = np.concatenate(part.client_indices)
    return merged.size == n and np.array_equal(np.sort(merged), np.arange(n))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.integers(1, 16), st.integers(0, 2**32 - 1))
@example(n=200, clients=1, seed=1)
@example(n=1000, clients=8, seed=1)
@example(n=1000, clients=7, seed=1)
@example(n=4, clients=5, seed=0)
def test_iid_shards_cover_the_dataset_with_near_equal_sizes(n, clients, seed):
    ds = _labelled(n, 3, seed)
    if clients > n:
        with pytest.raises(ConfigurationError):
            iid_split(ds, clients, np.random.default_rng(seed))
        return
    part = iid_split(ds, clients, np.random.default_rng(seed))
    assert part.num_clients == clients
    assert _covers_exactly(part, n)
    assert max(part.sizes()) - min(part.sizes()) <= 1


class _RecordingRng:
    """Draws from a seeded generator and keeps every Dirichlet draw."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self.draws: list[np.ndarray] = []

    def dirichlet(self, alpha):
        p = self._rng.dirichlet(alpha)
        self.draws.append(p)
        return p


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 300), st.integers(1, 5), st.integers(1, 12),
    st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1),
)
@example(n=997, classes=4, clients=8, concentration=0.5, seed=7)
def test_dirichlet_shards_cover_the_dataset_or_a_client_is_empty(
    n, classes, clients, concentration, seed
):
    ds = _labelled(n, classes, seed)
    rng = _RecordingRng(seed)
    try:
        part = dirichlet_split(ds, clients, concentration, rng)
    except DataError:
        # Every draw must have left a client empty. A client with no samples
        # got under one sample's share of every class: largest-remainder
        # rounding never rounds a share of one or more down to zero.
        class_sizes = np.bincount(ds.labels, minlength=classes)
        class_sizes = class_sizes[class_sizes > 0]
        assert len(rng.draws) == DIRICHLET_DRAWS * class_sizes.size
        for draw in np.array(rng.draws).reshape(DIRICHLET_DRAWS, class_sizes.size, clients):
            shares = draw * class_sizes[:, None]
            assert (shares < 1).all(axis=0).any()
        return
    assert part.num_clients == clients
    assert _covers_exactly(part, n)
    assert min(part.sizes()) > 0


def test_partition_validation_catches_overlap_and_gaps():
    with pytest.raises(DataError):
        Partition(client_indices=[np.array([0, 1]), np.array([1, 2])], parent_size=3)
    with pytest.raises(DataError):
        Partition(client_indices=[np.array([0, 1])], parent_size=3)
    with pytest.raises(DataError):
        Partition(client_indices=[], parent_size=3)
