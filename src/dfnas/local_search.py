"""Client-side single-path architecture search on one private shard.

Each batch: sample a path, run only that path forward, backpropagate, update
the network weights by SGD, then update every block's alpha with the
score-function rule scaled by its mask gradient, read off the block output.
The whole run is a pure function of (parameter blob, shard, space, config,
seed, first epoch), so the server runs its clients in order and no client
sees another's state.
Pruning is left to the server.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blob import ParameterBlob
from .data import Dataset
from .errors import NumericalError, raise_problems
from .seeds import stream
from .supernet import (
    SpaceConfig,
    alpha_gradient,
    build_supernet,
    flatten_params,
    forward_path,
    mask_gradient,
    sample_path,
)
from .tensor import SGD, Tensor, global_grad_norm


@dataclass(frozen=True)
class LocalSearchConfig:
    epochs: int = 2
    batch_size: int = 32
    # at lr_w 0.05 or with no clip, the default scenario diverges or stays at chance
    lr_w: float = 0.02
    lr_alpha: float = 0.003
    momentum_w: float = 0.9
    clip_norm: float | None = 5.0

    def problems(self) -> list[tuple[str, str]]:
        """(field, complaint) for every rule this config breaks."""
        found = []
        if self.epochs < 1:
            found.append(("epochs", f"must be >= 1, got {self.epochs}"))
        if self.batch_size < 1:
            found.append(("batch_size", f"must be >= 1, got {self.batch_size}"))
        for name, lr in (("lr_w", self.lr_w), ("lr_alpha", self.lr_alpha)):
            if not 0 <= lr < math.inf:
                found.append((name, f"must be finite and >= 0, got {lr}"))
        if not 0.0 <= self.momentum_w < 1.0:
            found.append(("momentum_w", f"must be in [0, 1), got {self.momentum_w}"))
        if self.clip_norm is not None and self.clip_norm <= 0:
            found.append(("clip_norm", f"must be > 0, got {self.clip_norm}"))
        return found


@dataclass
class LocalSearchReport:
    blob: ParameterBlob
    epoch_losses: list[float]
    candidate_executions: int
    batches: int


def client_local_search(
    initial: ParameterBlob, shard: Dataset, space: SpaceConfig, config: LocalSearchConfig,
    *, seed: int, first_epoch: int = 0,
) -> LocalSearchReport:
    """Run the local search loop and return the updated parameters.

    Epoch e shuffles and samples from `stream(seed, "epoch", first_epoch + e)`.

    Architecture updates happen only when the incoming blob carries alpha
    records; a weights-only blob trains a fixed architecture (plain SGD).
    Never touches any data beyond `shard`.
    """
    raise_problems(config.problems())

    net = build_supernet(space, initial)
    search_mode = initial.has_alpha()

    optimizer = SGD(net.parameters(), lr=config.lr_w, momentum=config.momentum_w)
    epoch_losses: list[float] = []
    total_batches = 0
    n = len(shard)

    for epoch in range(config.epochs):
        rng = stream(seed, "epoch", first_epoch + epoch)
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            features = Tensor(shard.features[batch_idx], dtype=space.dtype)
            labels = shard.labels[batch_idx]

            selections = sample_path(net, rng)
            loss, tape, outputs = forward_path(net, selections, features, labels)
            tape.backward(loss)

            if config.clip_norm is not None:
                norm = global_grad_norm(optimizer.params)
                if not math.isfinite(norm):
                    raise NumericalError(f"clip_norm {config.clip_norm}: gradient norm {norm}")
                if norm > config.clip_norm:
                    factor = config.clip_norm / norm
                    for p in optimizer.params:
                        if p.grad is not None:
                            p.grad *= factor
            optimizer.step()  # only the sampled path has gradients

            if search_mode:
                for edge, selected, output in zip(net.edges, selections, outputs):
                    grad = alpha_gradient(edge, selected, mask_gradient(output))
                    edge.alpha -= config.lr_alpha * grad

            losses.append(loss.item())
            total_batches += 1
        epoch_losses.append(float(np.mean(losses)))

    return LocalSearchReport(
        blob=flatten_params(net, include_alpha=search_mode),
        epoch_losses=epoch_losses,
        candidate_executions=net.candidate_executions,
        batches=total_batches,
    )

