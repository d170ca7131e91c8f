"""Client-side single-path architecture search on one private shard.

Each batch: sample a path, run only that path forward, backpropagate, update
the network weights by SGD, then update every block's alpha with the
score-function rule scaled by its mask gradient. The whole run is a pure
function of (parameter blob, shard, config), so clients can execute in
parallel without sharing state. Pruning is left to the server.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .blob import ParameterBlob
from .data import Dataset
from .errors import DataError, raise_problems
from .seeds import stream
from .supernet import (
    SpaceConfig,
    alpha_gradient,
    build_supernet,
    flatten_params,
    forward_path,
    sample_path,
    unflatten_params,
)
from .tensor import SGD, Tensor, global_grad_norm


@dataclass(frozen=True)
class LocalSearchConfig:
    epochs: int = 1
    batch_size: int = 32
    lr_w: float = 0.05
    lr_alpha: float = 0.003
    momentum_w: float = 0.9
    seed: int = 0
    epoch_offset: int = 0  # absolute index of this run's first epoch
    clip_norm: float | None = None

    def problems(self) -> list[tuple[str, str]]:
        """(field, complaint) for every rule this config breaks."""
        found = []
        if self.epochs < 1:
            found.append(("epochs", f"must be >= 1, got {self.epochs}"))
        if self.batch_size < 1:
            found.append(("batch_size", f"must be >= 1, got {self.batch_size}"))
        if self.lr_w < 0:
            found.append(("lr_w", f"must be >= 0, got {self.lr_w}"))
        if self.lr_alpha < 0:
            found.append(("lr_alpha", f"must be >= 0, got {self.lr_alpha}"))
        if not 0.0 <= self.momentum_w < 1.0:
            found.append(("momentum_w", f"must be in [0, 1), got {self.momentum_w}"))
        if self.clip_norm is not None and self.clip_norm <= 0:
            found.append(("clip_norm", f"must be > 0, got {self.clip_norm}"))
        return found

    def validate(self) -> None:
        raise_problems(self.problems())


@dataclass
class LocalSearchReport:
    blob: ParameterBlob
    sample_count: int
    epoch_losses: list[float]
    candidate_executions: int
    batches: int


def client_local_search(
    initial: ParameterBlob,
    shard: Dataset,
    space: SpaceConfig,
    config: LocalSearchConfig,
) -> LocalSearchReport:
    """Run the local search loop and return the updated parameters.

    Architecture updates happen only when the incoming blob carries alpha
    records; a weights-only blob trains a fixed architecture (plain SGD).
    Never touches any data beyond `shard`.
    """
    config.validate()
    if len(shard) == 0:
        raise DataError("client shard is empty")

    net = build_supernet(space)
    unflatten_params(net, initial)
    search_mode = initial.has_alpha()

    optimizer = SGD(net.parameters(), lr=config.lr_w, momentum=config.momentum_w)
    net.counters.reset()
    epoch_losses: list[float] = []
    total_batches = 0
    n = len(shard)

    for epoch in range(config.epochs):
        rng = stream(config.seed, "epoch", config.epoch_offset + epoch)
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            features = Tensor(shard.features[batch_idx])
            labels = shard.labels[batch_idx]

            path = sample_path(net, rng)
            loss, tape = forward_path(net, path, features, labels)
            tape.backward(loss)

            if config.clip_norm is not None:
                norm = global_grad_norm(net.parameters())
                if norm > config.clip_norm:
                    factor = config.clip_norm / norm
                    for p in net.parameters():
                        if p.grad is not None:
                            p.grad *= factor
            optimizer.step(strict=False)  # only the sampled path has gradients

            if search_mode:
                for edge, selected, mask in zip(
                    net.edges, path.selections, path.mask_scalars
                ):
                    grad = alpha_gradient(edge, selected, float(mask.grad))
                    edge.alpha -= config.lr_alpha * grad

            losses.append(loss.item())
            total_batches += 1
        epoch_losses.append(float(np.mean(losses)))

    return LocalSearchReport(
        blob=flatten_params(net, include_alpha=search_mode),
        sample_count=n,
        epoch_losses=epoch_losses,
        candidate_executions=net.counters.candidate_executions,
        batches=total_batches,
    )


def with_round(config: LocalSearchConfig, seed: int, round_index: int) -> LocalSearchConfig:
    """Client config for one federated round: same stream family, epoch
    offset advanced so consecutive rounds continue the centralized schedule."""
    return replace(
        config, seed=seed, epoch_offset=round_index * config.epochs
    )
