"""Datasets: synthetic generators, IID and Dirichlet partitioning.

Synthetic geometries stand in for image benchmarks at desk scale:

* ``blobs``   - Gaussian clusters in D dimensions, linearly separable at noise 0.
* ``rings``   - concentric 2-D rings, separable only with a nonlinearity.
* ``patches`` - oriented gratings with random phase; per-pixel marginals are
  identical across classes, so spatial filters are required and purely linear
  (identity-only) paths stay near chance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, raise_problems


@dataclass
class Dataset:
    """Features (N x C x H x W or N x D), integer labels, class count."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim not in (2, 4):
            raise DataError(f"features must be rank 2 or 4, got {self.features.ndim}")
        n = self.features.shape[0]
        if n < 1:
            raise DataError("dataset is empty")
        if self.labels.shape != (n,):
            raise DataError(f"labels shape {self.labels.shape} does not match N={n}")
        if self.num_classes < 1:
            raise DataError(f"num_classes must be >= 1, got {self.num_classes}")
        if ((self.labels < 0) | (self.labels >= self.num_classes)).any():
            bad = int(np.nonzero((self.labels < 0) | (self.labels >= self.num_classes))[0][0])
            raise DataError(
                f"label {int(self.labels[bad])} at index {bad} outside "
                f"[0, {self.num_classes})"
            )

    def __len__(self) -> int:
        return int(self.features.shape[0])

    def subset(self, indices: np.ndarray, access_log: list | None = None) -> "Dataset":
        """Materialize a shard; optionally record which parent rows were read."""
        indices = np.asarray(indices, dtype=np.int64)
        if access_log is not None:
            access_log.append(indices.copy())
        return Dataset(
            features=self.features[indices].copy(),
            labels=self.labels[indices].copy(),
            num_classes=self.num_classes,
        )


@dataclass(frozen=True)
class DataSpec:
    """Everything a generator needs; fully determines the dataset given a seed."""

    kind: str  # blobs | rings | patches
    n_samples: int
    num_classes: int
    noise: float = 0.1
    feature_dim: int = 8  # blobs/rings
    image_channels: int = 1  # patches
    image_size: int = 8  # patches

    def problems(self) -> list[tuple[str, str]]:
        """(field, complaint) for every rule this spec breaks."""
        found = []
        if self.kind not in ("blobs", "rings", "patches"):
            found.append(("kind", f"must be blobs, rings or patches, got {self.kind!r}"))
        if self.n_samples < 1:
            found.append(("n_samples", f"must be >= 1, got {self.n_samples}"))
        if self.num_classes < 2:
            found.append(("num_classes", f"must be >= 2, got {self.num_classes}"))
        if not 0 <= self.noise < math.inf:
            found.append(("noise", f"must be finite and >= 0, got {self.noise}"))
        if self.kind == "patches" and self.image_channels < 1:
            found.append(("image_channels", f"must be >= 1 for patches, got {self.image_channels}"))
        if self.kind == "patches" and self.image_size < 1:
            found.append(("image_size", f"must be >= 1 for patches, got {self.image_size}"))
        if self.kind == "blobs" and self.feature_dim < self.num_classes:
            found.append((
                "feature_dim",
                f"must be >= the class count for blobs, got "
                f"{self.feature_dim} < {self.num_classes}",
            ))
        if self.kind == "rings" and self.feature_dim < 2:
            found.append(("feature_dim", f"must be >= 2 for rings, got {self.feature_dim}"))
        return found


def _balanced_counts(n: int, classes: int) -> np.ndarray:
    counts = np.full(classes, n // classes, dtype=np.int64)
    counts[: n % classes] += 1
    return counts


def generate_synthetic(spec: DataSpec, rng: np.random.Generator) -> Dataset:
    """Deterministic balanced dataset of the requested geometry."""
    raise_problems(spec.problems())
    counts = _balanced_counts(spec.n_samples, spec.num_classes)
    labels = np.repeat(np.arange(spec.num_classes), counts)

    if spec.kind == "blobs":
        means = np.zeros((spec.num_classes, spec.feature_dim))
        means[np.arange(spec.num_classes), np.arange(spec.num_classes)] = 3.0
        features = means[labels] + spec.noise * rng.normal(
            size=(spec.n_samples, spec.feature_dim)
        )
    elif spec.kind == "rings":
        radius = 1.0 + labels.astype(np.float64)
        angle = rng.uniform(0.0, 2.0 * np.pi, size=spec.n_samples)
        r = radius + spec.noise * rng.normal(size=spec.n_samples)
        features = np.zeros((spec.n_samples, spec.feature_dim))
        features[:, 0] = r * np.cos(angle)
        features[:, 1] = r * np.sin(angle)
        if spec.feature_dim > 2:
            features[:, 2:] = spec.noise * rng.normal(
                size=(spec.n_samples, spec.feature_dim - 2)
            )
    else:
        features = _oriented_gratings(spec, labels, rng)

    perm = rng.permutation(spec.n_samples)
    return Dataset(features=features[perm], labels=labels[perm], num_classes=spec.num_classes)


def _oriented_gratings(
    spec: DataSpec, labels: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Per class: a sinusoidal grating at a class-specific orientation.

    The phase is uniform per sample, so class means are ~zero everywhere and a
    linear readout of raw pixels carries no class signal.
    """
    size = spec.image_size
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    angles = np.pi * labels / spec.num_classes
    freq = 2.0 * 2.0 * np.pi / size  # two full cycles across the patch
    phase = rng.uniform(0.0, 2.0 * np.pi, size=labels.shape[0])
    proj = (
        np.cos(angles)[:, None, None] * xx[None] + np.sin(angles)[:, None, None] * yy[None]
    )
    img = np.cos(freq * proj + phase[:, None, None])
    img = img[:, None, :, :]  # single drawn channel
    if spec.image_channels > 1:
        img = np.repeat(img, spec.image_channels, axis=1)
    img = img + spec.noise * rng.normal(size=img.shape)
    return img


# ---------------------------------------------------------------------------
# partitioning


@dataclass
class Partition:
    """Disjoint per-client index lists covering the parent dataset exactly."""

    client_indices: list[np.ndarray]
    parent_size: int

    def __post_init__(self):
        self.client_indices = [np.asarray(ix, dtype=np.int64) for ix in self.client_indices]
        merged = (
            np.concatenate(self.client_indices)
            if self.client_indices
            else np.empty(0, dtype=np.int64)
        )
        uniq = np.unique(merged)
        if uniq.size != merged.size:
            raise DataError("partition assigns a sample to more than one client")
        if merged.size != self.parent_size or (
            merged.size and (uniq[0] != 0 or uniq[-1] != self.parent_size - 1)
        ):
            raise DataError("partition does not cover the dataset exactly")

    @property
    def num_clients(self) -> int:
        return len(self.client_indices)

    def sizes(self) -> list[int]:
        return [int(ix.size) for ix in self.client_indices]


def iid_split(dataset: Dataset, num_clients: int, rng: np.random.Generator) -> Partition:
    """Seeded shuffle into near-equal shards (sizes differ by at most one)."""
    n = len(dataset)
    if num_clients < 1 or num_clients > n:
        raise ConfigurationError(f"cannot split {n} samples into {num_clients} clients")
    perm = rng.permutation(n)
    sizes = _balanced_counts(n, num_clients)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    shards = [perm[bounds[i] : bounds[i + 1]] for i in range(num_clients)]
    return Partition(client_indices=shards, parent_size=n)


def _largest_remainder(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer allocation of `total` by proportions, conserving the sum exactly."""
    raw = proportions * total
    counts = np.floor(raw).astype(np.int64)
    short = total - int(counts.sum())
    if short > 0:
        remainders = raw - counts
        # ties broken by lowest index for determinism
        order = np.lexsort((np.arange(len(raw)), -remainders))
        counts[order[:short]] += 1
    return counts


DIRICHLET_DRAWS = 10  # partitions drawn before an empty client is an error


def dirichlet_split(
    dataset: Dataset,
    num_clients: int,
    concentration: float,
    rng: np.random.Generator,
) -> Partition:
    """Class-skewed shards: per class, client proportions drawn from a
    symmetric Dirichlet, allocated by largest-remainder rounding.

    Redraws, up to `DIRICHLET_DRAWS` draws in all, while some client gets no samples.
    """
    if num_clients < 1:
        raise ConfigurationError(f"num_clients must be >= 1, got {num_clients}")
    if concentration <= 0:
        raise ConfigurationError(f"concentration must be > 0, got {concentration}")

    for _ in range(DIRICHLET_DRAWS):
        shards: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
        for c in range(dataset.num_classes):
            class_idx = np.nonzero(dataset.labels == c)[0]
            if class_idx.size == 0:
                continue
            proportions = rng.dirichlet(np.full(num_clients, concentration))
            counts = _largest_remainder(proportions, class_idx.size)
            bounds = np.concatenate([[0], np.cumsum(counts)])
            for k in range(num_clients):
                shards[k].append(class_idx[bounds[k] : bounds[k + 1]])
        client_indices = [
            np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
            for parts in shards
        ]
        if all(ix.size > 0 for ix in client_indices):
            return Partition(client_indices=client_indices, parent_size=len(dataset))
    raise DataError(
        f"dirichlet partition left a client empty after {DIRICHLET_DRAWS} draws "
        f"(K={num_clients}, concentration={concentration})"
    )
