"""Client local search: degeneracies, determinism, discrimination, isolation."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import named_arrays

from dfnas import tensor as tz
from dfnas.data import DataSpec, Dataset, generate_synthetic
from dfnas.errors import ConfigurationError, DataError, NumericalError, raise_problems
from dfnas.local_search import LocalSearchConfig, client_local_search
from dfnas.seeds import stream
from dfnas.supernet import (
    SpaceConfig,
    argmax_path,
    build_supernet,
    derive_child,
    flatten_params,
    forward_logits,
    unflatten_params,
)
from dfnas.tensor import SGD, Tensor


def vector_space(**overrides):
    base = dict(
        blocks=1,
        candidates=("linear8",),
        input_shape=(4,),
        num_classes=2,
        hidden_width=8,
        init_seed=0,
    )
    base.update(overrides)
    return SpaceConfig(**base)


def blob_shard(n=64, noise=0.2, seed=1):
    return generate_synthetic(
        DataSpec(kind="blobs", n_samples=n, num_classes=2, noise=noise, feature_dim=4),
        np.random.default_rng(seed),
    )


def test_zero_learning_rates_leave_blob_bit_identical():
    space = vector_space(blocks=2, candidates=("linear8", "identity"))
    net = build_supernet(space)
    net.edges[0].alpha[:] = [0.3, -0.4]
    blob = flatten_params(net)
    config = LocalSearchConfig(epochs=2, batch_size=16, lr_w=0.0, lr_alpha=0.0, momentum_w=0.0)
    report = client_local_search(blob, blob_shard(), space, config, seed=0)
    assert report.blob.to_bytes() == blob.to_bytes()


def test_degenerate_supernet_equals_plain_sgd_oracle():
    """B=1, m=1: trajectory matches an independent training loop to 1e-10."""
    space = vector_space()
    net = build_supernet(space)
    blob = flatten_params(net)
    shard = blob_shard(n=48)
    config = LocalSearchConfig(
        epochs=4, batch_size=16, lr_w=0.05, lr_alpha=0.003, momentum_w=0.9
    )
    report = client_local_search(blob, shard, space, config, seed=11)

    # oracle: plain SGD over the same six tensors, no supernet machinery
    params = {
        name: Tensor(values.copy(), requires_grad=True)
        for name, values in named_arrays(blob).items()
    }
    weights = [
        params["stem.weight"], params["stem.bias"],
        params["block00.cand0.weight"], params["block00.cand0.bias"],
        params["head.weight"], params["head.bias"],
    ]
    opt = SGD(weights, lr=0.05, momentum=0.9)
    n = len(shard)
    oracle_losses = []
    for epoch in range(4):
        rng = stream(11, "epoch", epoch)
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, 16):
            idx = order[start : start + 16]
            tape = tz.Tape()
            x = Tensor(shard.features[idx])
            h = tz.bias_add(tz.matmul(x, params["stem.weight"], tape), params["stem.bias"], tape)
            h = tz.relu(
                tz.bias_add(
                    tz.matmul(h, params["block00.cand0.weight"], tape),
                    params["block00.cand0.bias"],
                    tape,
                ),
                tape,
            )
            logits = tz.bias_add(
                tz.matmul(h, params["head.weight"], tape), params["head.bias"], tape
            )
            loss = tz.softmax_cross_entropy(logits, shard.labels[idx], tape)
            tape.backward(loss)
            opt.step()
            losses.append(loss.item())
        oracle_losses.append(float(np.mean(losses)))

    assert np.abs(np.array(report.epoch_losses) - np.array(oracle_losses)).max() < 1e-10
    for name, values in named_arrays(report.blob).items():
        if not name.endswith(".alpha"):
            assert values.tobytes() == params[name].data.tobytes()


def test_search_finds_capable_candidate_on_rings():
    """Exhaustively train all 4 fixed paths; the search must land in the
    near-best tier, avoid the affine path, and reach high train accuracy."""
    shard = generate_synthetic(
        DataSpec(kind="rings", n_samples=256, num_classes=2, noise=0.05, feature_dim=2),
        np.random.default_rng(10),
    )

    def make_space(fixed=None):
        return SpaceConfig(
            blocks=2,
            candidates=("identity", "linear8"),
            input_shape=(2,),
            num_classes=2,
            hidden_width=8,
            init_seed=0,
            fixed_path=fixed,
        )

    def train_accuracy(net):
        logits = forward_logits(net, tuple(0 for _ in net.edges), Tensor(shard.features))
        return float((logits.data.argmax(axis=1) == shard.labels).mean())

    oracle_acc = {}
    for path in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        sp = make_space(fixed=path)
        net = build_supernet(sp)
        cfg = LocalSearchConfig(epochs=30, batch_size=16, lr_w=0.05, lr_alpha=0.0,
                                momentum_w=0.9)
        report = client_local_search(flatten_params(net, include_alpha=False), shard, sp, cfg,
                                     seed=5)
        unflatten_params(net, report.blob)
        oracle_acc[path] = train_accuracy(net)

    best = max(oracle_acc.values())
    near_best = {p for p, a in oracle_acc.items() if a >= best - 0.02}
    worst_path = min(oracle_acc, key=oracle_acc.get)
    assert worst_path == (0, 0)  # the affine path cannot fit rings
    assert oracle_acc[worst_path] < 0.8

    space = make_space()
    net = build_supernet(space)
    cfg = LocalSearchConfig(epochs=30, batch_size=16, lr_w=0.05, lr_alpha=0.02,
                            momentum_w=0.9)
    report = client_local_search(flatten_params(net), shard, space, cfg, seed=0)
    unflatten_params(net, report.blob)
    child = derive_child(net)

    assert child.space.fixed_path in near_best
    assert child.space.fixed_path != worst_path
    # the higher-capacity candidate wins on every block
    assert child.space.fixed_path == (1, 1)
    logits = forward_logits(child, argmax_path(child), Tensor(shard.features))
    assert float((logits.data.argmax(axis=1) == shard.labels).mean()) >= 0.95


def test_report_is_deterministic_and_counters_consistent():
    space = vector_space(blocks=3, candidates=("linear8", "identity"))
    net = build_supernet(space)
    blob = flatten_params(net)
    shard = blob_shard(n=50)
    config = LocalSearchConfig(epochs=2, batch_size=16, lr_w=0.05, lr_alpha=0.01,
                               momentum_w=0.9)
    a = client_local_search(blob, shard, space, config, seed=7)
    b = client_local_search(blob, shard, space, config, seed=7)
    assert a.blob.to_bytes() == b.blob.to_bytes()
    assert a.epoch_losses == b.epoch_losses
    # 50 samples at batch 16 -> 4 batches per epoch, 2 epochs, 3 blocks each
    assert a.batches == 8
    assert a.candidate_executions == 8 * 3


def test_loss_decreases_in_expectation_over_20_seeds():
    space = vector_space(blocks=2, candidates=("linear8", "identity"))
    first, last = [], []
    for seed in range(20):
        shard = blob_shard(n=48, noise=0.3, seed=100 + seed)
        net = build_supernet(space)
        blob = flatten_params(net)
        config = LocalSearchConfig(epochs=3, batch_size=16, lr_w=0.05, lr_alpha=0.003,
                                   momentum_w=0.9)
        report = client_local_search(blob, shard, space, config, seed=seed)
        first.append(report.epoch_losses[0])
        last.append(report.epoch_losses[-1])
    assert np.mean(last) < np.mean(first)


def test_weights_only_blob_trains_fixed_architecture():
    space = vector_space(blocks=2, candidates=("linear8",))
    net = build_supernet(space)
    net.edges[0].alpha[:] = 0.0
    blob = flatten_params(net, include_alpha=False)
    config = LocalSearchConfig(epochs=1, batch_size=16, lr_w=0.05, momentum_w=0.0)
    report = client_local_search(blob, blob_shard(), space, config, seed=0)
    assert not report.blob.has_alpha()


def test_empty_shard_rejected():
    space = vector_space()
    blob = flatten_params(build_supernet(space))
    ds = blob_shard()
    with pytest.raises(DataError):
        ds.subset(np.array([], dtype=np.int64))


def test_numerical_blowup_aborts_with_error():
    space = vector_space()
    blob = flatten_params(build_supernet(space))
    huge = Dataset(
        features=np.full((8, 4), 1e200), labels=np.zeros(8, dtype=np.int64), num_classes=2
    )
    config = LocalSearchConfig(epochs=1, batch_size=4, lr_w=0.05)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError):
            client_local_search(blob, huge, space, config, seed=0)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        raise_problems(LocalSearchConfig(epochs=0).problems())
    with pytest.raises(ConfigurationError):
        raise_problems(LocalSearchConfig(momentum_w=1.0).problems())
    with pytest.raises(ConfigurationError):
        raise_problems(LocalSearchConfig(clip_norm=0.0).problems())
    with pytest.raises(ConfigurationError, match="batch_size must be >= 1, got 0"):
        raise_problems(LocalSearchConfig(batch_size=0).problems())


def test_clip_norm_limits_update_magnitude():
    space = vector_space()
    net = build_supernet(space)
    blob = flatten_params(net)
    shard = blob_shard(n=32, noise=0.0)
    free = client_local_search(
        blob, shard, space, LocalSearchConfig(epochs=1, batch_size=8, lr_w=0.5), seed=3
    )
    clipped = client_local_search(
        blob, shard, space,
        LocalSearchConfig(epochs=1, batch_size=8, lr_w=0.5, clip_norm=1e-3), seed=3,
    )

    def total_drift(report):
        return float(np.abs(report.blob.values - blob.values).sum())

    assert total_drift(clipped) < total_drift(free)
