"""Server-side orchestration: rounds of dispatch, local search and aggregation.

Each round the server sends the current (w, alpha) blob to K selected clients,
runs their local search in parallel, then replaces both the weights and the
architecture parameters with the sample-weighted average of the clients'
post-update values. A client's run is a pure function of (blob, shard, space,
config, seed, first epoch); the server picks the last two. Exactly one blob
travels down and one up per selected client per round. Transport always goes
through full serialization, so measured byte counts are the real wire cost.
Aggregation order is canonical (ascending client id), making results
independent of completion order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .blob import ParameterBlob, check_layout
from .data import Dataset, Partition
from .errors import ConfigurationError, DfnasError, raise_problems
from .local_search import LocalSearchConfig, client_local_search
from .seeds import derive_seed, stream
from .supernet import (
    SpaceConfig,
    Supernet,
    argmax_path,
    build_supernet,
    derive_child,
    flatten_params,
    forward_logits,
    prune_edges,
    unflatten_params,
)
from .tensor import Tensor
from . import tensor as tz

WEIGHTING_MODES = ("uniform", "proportional")
EVAL_BATCH = 256  # test rows per forward pass in `evaluate`


@dataclass(frozen=True)
class FederationConfig:
    rounds: int
    client_pool: int
    clients_per_round: int
    weighting: str = "proportional"
    server_alpha_threshold: float = float("-inf")
    workers: int = 1
    master_seed: int = 0

    def problems(self) -> list[tuple[str, str]]:
        """(field, complaint) for every rule this config breaks."""
        found = []
        if self.rounds < 1:
            found.append(("rounds", f"must be >= 1, got {self.rounds}"))
        if self.client_pool < 1:
            found.append(("client_pool", f"must be >= 1, got {self.client_pool}"))
        if not 1 <= self.clients_per_round <= self.client_pool:
            found.append((
                "clients_per_round",
                f"must be in [1, {self.client_pool}], got {self.clients_per_round}",
            ))
        if self.weighting not in WEIGHTING_MODES:
            found.append((
                "weighting",
                f"must be {' or '.join(WEIGHTING_MODES)}, got {self.weighting!r}",
            ))
        if self.workers < 1:
            found.append(("workers", f"must be >= 1, got {self.workers}"))
        return found


@dataclass
class RoundRecord:
    round_index: int
    client_ids: list[int]
    client_sizes: list[int]
    test_acc: float
    test_loss: float
    bytes_up: int
    bytes_down: int
    work_units: int  # deterministic cost proxy (candidate executions + eval samples)


@dataclass
class FederationResult:
    history: list[RoundRecord]
    child: Supernet  # the derived fixed-path child
    net: Supernet
    final_blob: ParameterBlob


class ClientFailure(DfnasError):
    def __init__(self, round_index: int, client_id: int, cause: Exception):
        super().__init__(f"round {round_index}: client {client_id} failed: {cause}")
        self.round_index = round_index
        self.client_id = client_id
        self.cause = cause


def select_clients(pool: int, k: int, rng: np.random.Generator) -> list[int]:
    """Uniform sample without replacement, sorted for deterministic iteration."""
    if k > pool:
        raise ConfigurationError(f"cannot select {k} clients from a pool of {pool}")
    chosen = rng.choice(pool, size=k, replace=False)
    return sorted(int(c) for c in chosen)


def client_weights(mode: str, sizes: list[int]) -> list[float]:
    """Per-round aggregation weights over the selected clients (sum to 1)."""
    k = len(sizes)
    if mode == "uniform":
        return [1.0 / k] * k
    total = float(sum(sizes))
    return [s / total for s in sizes]


def aggregate_by_client(
    blobs_by_id: dict[int, ParameterBlob], weights_by_id: dict[int, float]
) -> ParameterBlob:
    """Aggregate in canonical ascending-client-id order regardless of how the
    reports arrived, so results never depend on completion order."""
    order = sorted(blobs_by_id)
    if sorted(weights_by_id) != order:
        raise ConfigurationError("client ids of blobs and weights differ")
    return aggregate([blobs_by_id[c] for c in order], [weights_by_id[c] for c in order])


def aggregate(blobs: list[ParameterBlob], weights: list[float]) -> ParameterBlob:
    """Convex combination of identically laid out blobs, left to right."""
    if not blobs:
        raise ConfigurationError("nothing to aggregate")
    if len(blobs) != len(weights):
        raise ConfigurationError(
            f"{len(blobs)} blobs but {len(weights)} weights"
        )
    if any(w < 0 for w in weights):
        raise ConfigurationError(f"negative aggregation weight in {weights}")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ConfigurationError(f"aggregation weights sum to {sum(weights)!r}, not 1")
    for other in blobs[1:]:
        check_layout(blobs[0].layout, other)
    acc = weights[0] * blobs[0].values
    for blob, w in zip(blobs[1:], weights[1:]):
        acc = acc + w * blob.values
    return ParameterBlob(layout=blobs[0].layout, values=acc)


def evaluate(net: Supernet, dataset: Dataset) -> tuple[float, float]:
    """Accuracy and mean loss along `argmax_path(net)` (no sampling).

    A derived child is a fixed-path supernet, so this evaluates it the same way.
    """
    selections = argmax_path(net)
    correct = 0
    loss_sum = 0.0
    n = len(dataset)
    for start in range(0, n, EVAL_BATCH):
        feats = Tensor(dataset.features[start : start + EVAL_BATCH])
        labels = dataset.labels[start : start + EVAL_BATCH]
        logits = forward_logits(net, selections, feats)
        correct += int((logits.data.argmax(axis=1) == labels).sum())
        loss_sum += tz.softmax_cross_entropy(logits, labels).item() * len(labels)
    return correct / n, loss_sum / n


@dataclass
class FederationState:
    config: FederationConfig
    local: LocalSearchConfig
    shards: list[Dataset]
    test_set: Dataset
    net: Supernet
    global_blob: ParameterBlob


def _run_client(
    blob_bytes: bytes, shard: Dataset, space: SpaceConfig, config: LocalSearchConfig,
    *, seed: int, first_epoch: int,
) -> tuple[bytes, int]:
    """The client's reply bytes and its candidate executions."""
    # serialization round trip is mandatory on both hops
    blob = ParameterBlob.from_bytes(blob_bytes)
    report = client_local_search(blob, shard, space, config, seed=seed, first_epoch=first_epoch)
    return report.blob.to_bytes(), report.candidate_executions


def run_round(state: FederationState, round_index: int) -> RoundRecord:
    """One full round: select, dispatch, collect, aggregate, evaluate."""
    cfg = state.config
    rng = stream(cfg.master_seed, "selection", round_index)
    selected = select_clients(cfg.client_pool, cfg.clients_per_round, rng)

    payload = state.global_blob.to_bytes()
    bytes_down = len(payload) * len(selected)

    def client_task(cid: int) -> tuple[int, ParameterBlob, int]:
        # each round continues the client's epoch stream where the last round ended
        try:
            raw, executions = _run_client(
                payload, state.shards[cid], state.net.space, state.local,
                seed=derive_seed(cfg.master_seed, "client", cid),
                first_epoch=round_index * state.local.epochs,
            )
            # decoded on arrival, so a round holds each reply once
            return len(raw), ParameterBlob.from_bytes(raw), executions
        except DfnasError as err:
            raise ClientFailure(round_index, cid, err) from err

    # one worker maps on the calling thread: a one-thread pool only adds memory
    if cfg.workers > 1 and len(selected) > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            outputs = list(pool.map(client_task, selected))
    else:
        outputs = list(map(client_task, selected))
    bytes_up = sum(n for n, _, _ in outputs)

    sizes = [state.shards[cid].features.shape[0] for cid in selected]
    weights = client_weights(cfg.weighting, sizes)
    blobs_by_id = {cid: blob for cid, (_, blob, _) in zip(selected, outputs)}
    weights_by_id = dict(zip(selected, weights))
    aggregated = aggregate_by_client(blobs_by_id, weights_by_id)

    state.global_blob = aggregated
    unflatten_params(state.net, aggregated)
    # pruning is a server-side decision: prune masks are not part of the wire
    # format, so clients always sample from the full space. The default
    # threshold, -inf, prunes nothing.
    prune_edges(state.net, cfg.server_alpha_threshold)

    test_acc, test_loss = evaluate(state.net, state.test_set)
    work_units = sum(executions for _, _, executions in outputs) + len(state.test_set)

    return RoundRecord(
        round_index=round_index,
        client_ids=selected,
        client_sizes=sizes,
        test_acc=test_acc,
        test_loss=test_loss,
        bytes_up=bytes_up,
        bytes_down=bytes_down,
        work_units=work_units,
    )


def run_federated_search(
    train: Dataset,
    test: Dataset,
    partition: Partition,
    space: SpaceConfig,
    fed: FederationConfig,
    local: LocalSearchConfig,
    round_callback: Callable[[RoundRecord, ParameterBlob], None] | None = None,
    access_log: list | None = None,
) -> FederationResult:
    """Full search: T rounds then child derivation from the aggregated net.

    A space with a `fixed_path` (baseline mode) has one candidate per block,
    and only weights are exchanged.
    """
    raise_problems(fed.problems())
    raise_problems(local.problems())
    if partition.num_clients != fed.client_pool:
        raise ConfigurationError(
            f"partition has {partition.num_clients} clients, pool is {fed.client_pool}"
        )
    if partition.parent_size != len(train):
        raise ConfigurationError(
            f"partition covers {partition.parent_size} rows, training set has {len(train)}"
        )
    net = build_supernet(space)

    shards = [train.subset(ix, access_log) for ix in partition.client_indices]
    state = FederationState(
        config=fed,
        local=local,
        shards=shards,
        test_set=test,
        net=net,
        global_blob=flatten_params(net, include_alpha=space.fixed_path is None),
    )

    history: list[RoundRecord] = []
    for t in range(fed.rounds):
        record = run_round(state, t)
        history.append(record)
        if round_callback is not None:
            round_callback(record, state.global_blob)

    child = derive_child(state.net)
    return FederationResult(
        history=history, child=child, net=state.net, final_blob=state.global_blob
    )
