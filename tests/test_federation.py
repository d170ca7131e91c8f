"""Server orchestration: selection, aggregation, rounds, evaluation, and the
degenerate-federation identity."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_blob
from dfnas.data import DataSpec, Dataset, Partition, generate_synthetic, iid_split
from dfnas.errors import ConfigurationError, SerializationError, raise_problems
from dfnas.federation import (
    ClientFailure,
    FederationConfig,
    FederationState,
    aggregate,
    aggregate_by_client,
    client_weights,
    evaluate,
    run_federated_search,
    run_round,
    select_clients,
)
from dfnas.local_search import LocalSearchConfig, client_local_search
from dfnas.seeds import derive_seed, stream
from dfnas.supernet import (
    SpaceConfig,
    build_supernet,
    derive_child,
    expected_layout,
    flatten_params,
    unflatten_params,
)


def vector_space(**overrides):
    base = dict(
        blocks=2,
        candidates=("linear8", "identity"),
        input_shape=(4,),
        num_classes=2,
        hidden_width=8,
        init_seed=0,
    )
    base.update(overrides)
    return SpaceConfig(**base)


def blob_data(n=96, seed=1, classes=2, dim=4, noise=0.3):
    return generate_synthetic(
        DataSpec(kind="blobs", n_samples=n, num_classes=classes, noise=noise, feature_dim=dim),
        np.random.default_rng(seed),
    )


def scalar_blob(value):
    return make_blob(("w", (1,), [float(value)]))


# --- client selection ---


def test_select_all_when_k_equals_pool():
    for r in range(5):
        rng = stream(0, "selection", r)
        assert select_clients(6, 6, rng) == [0, 1, 2, 3, 4, 5]


def test_select_uniform_frequencies():
    counts = np.zeros(8)
    for r in range(10_000):
        rng = stream(7, "selection", r)
        (cid,) = select_clients(8, 1, rng)
        counts[cid] += 1
    assert np.abs(counts / 10_000 - 0.125).max() < 0.01


def test_select_deterministic_for_seed():
    a = [select_clients(10, 3, stream(5, "selection", r)) for r in range(20)]
    b = [select_clients(10, 3, stream(5, "selection", r)) for r in range(20)]
    assert a == b
    assert all(ids == sorted(ids) for ids in a)


def test_select_rejects_oversized_k():
    with pytest.raises(ConfigurationError):
        select_clients(3, 4, np.random.default_rng(0))


# --- aggregation ---


def test_aggregate_matches_high_precision_mean():
    rng = np.random.default_rng(3)
    blobs = [make_blob(("w", (64,), rng.normal(size=64))) for _ in range(5)]
    out = aggregate(blobs, [0.2] * 5)
    stacked = np.stack([b.values for b in blobs]).astype(np.longdouble)
    oracle = (stacked.mean(axis=0)).astype(np.float64)
    assert np.abs(out.values - oracle).max() < 1e-12


def test_aggregate_validates_weights_and_layout():
    with pytest.raises(ConfigurationError):
        aggregate([scalar_blob(1.0)], [0.5])
    with pytest.raises(ConfigurationError):
        aggregate([scalar_blob(1.0), scalar_blob(2.0)], [0.8, 0.1])
    with pytest.raises(ConfigurationError):
        aggregate([scalar_blob(1.0), scalar_blob(2.0)], [-0.5, 1.5])
    other = make_blob(("v", (1,), [1.0]))
    with pytest.raises(SerializationError):
        aggregate([scalar_blob(1.0), other], [0.5, 0.5])
    with pytest.raises(ConfigurationError, match="nothing to aggregate"):
        aggregate([], [])
    with pytest.raises(ConfigurationError, match="2 blobs but 1 weights"):
        aggregate([scalar_blob(1.0), scalar_blob(2.0)], [1.0])
    with pytest.raises(ConfigurationError, match="client ids of blobs and weights differ"):
        aggregate_by_client({0: scalar_blob(1.0)}, {1: 1.0})


def test_weighting_modes_agree_on_equal_shards():
    sizes = [25, 25, 25, 25]
    assert client_weights("uniform", sizes) == client_weights("proportional", sizes)


def test_symmetry_identical_clients_aggregate_to_single_result():
    space = vector_space()
    net = build_supernet(space)
    blob = flatten_params(net)
    shard = blob_data(n=40)
    config = LocalSearchConfig(epochs=1, batch_size=16, lr_w=0.05, lr_alpha=0.01)
    reports = [client_local_search(blob, shard, space, config, seed=3) for _ in range(3)]
    out = aggregate([r.blob for r in reports], [1 / 3] * 3)
    assert np.abs(out.values - reports[0].blob.values).max() < 1e-12


# --- evaluation ---


def test_untrained_net_is_at_chance_on_balanced_data():
    # a single random init carries a class bias, so average over inits
    data = blob_data(n=2000, seed=5, classes=10, dim=10, noise=0.5)
    accs = []
    for init in range(6):
        space = vector_space(
            blocks=1, candidates=("linear16",), input_shape=(10,), num_classes=10,
            hidden_width=16, init_seed=init,
        )
        acc, loss = evaluate(build_supernet(space), data)
        accs.append(acc)
        assert loss > 1.5  # around ln(10) or worse
    assert abs(np.mean(accs) - 0.1) < 0.03


def test_child_evaluation_matches_argmax_supernet():
    space = vector_space()
    net = build_supernet(space)
    rng = np.random.default_rng(2)
    for edge in net.edges:
        edge.alpha[:] = rng.normal(size=2)
    data = blob_data(n=64, seed=2)
    acc_net, loss_net = evaluate(net, data)
    acc_child, loss_child = evaluate(derive_child(net), data)
    assert acc_net == acc_child
    assert abs(loss_net - loss_child) < 1e-12


def test_child_is_the_fixed_path_supernet_of_its_selections():
    space = SpaceConfig(
        blocks=3, candidates=("conv3", "sep3", "identity"), input_shape=(1, 6, 6),
        num_classes=3, channels=4, init_seed=2,
    )
    net = build_supernet(space)
    for edge, best in zip(net.edges, (1, 2, 0)):
        edge.alpha[best] = 1.0
    child = derive_child(net)
    assert child.space == replace(space, fixed_path=(1, 2, 0))
    baseline = build_supernet(child.space)
    layout = expected_layout(baseline, include_alpha=False)
    assert expected_layout(child, include_alpha=False) == layout
    unflatten_params(baseline, flatten_params(child, include_alpha=False))
    data = generate_synthetic(
        DataSpec(kind="patches", n_samples=40, num_classes=3, image_size=6),
        np.random.default_rng(3),
    )
    assert evaluate(child, data) == evaluate(baseline, data)
    # a fixed-path net's child keeps its path
    assert derive_child(baseline).space == baseline.space


def test_accuracy_matches_hand_confusion_tally():
    space = vector_space()
    net = build_supernet(space)
    data = blob_data(n=20, seed=8)
    acc, _ = evaluate(net, data)
    from dfnas.supernet import forward_logits
    from dfnas.tensor import Tensor

    hits = 0
    for i in range(20):
        logits = forward_logits(net, (0, 0), Tensor(data.features[i : i + 1]))
        hits += int(logits.data.argmax()) == int(data.labels[i])
    assert acc == hits / 20


# --- rounds ---


def small_run(
    pool=2, k=2, rounds=2, weighting="proportional", seed=0,
    epochs=1, momentum=0.9, callback=None, space=None, workers=1,
):
    train = blob_data(n=80, seed=11)
    test = blob_data(n=40, seed=12)
    space = space or vector_space()
    partition = iid_split(train, pool, stream(seed, "partition"))
    fed = FederationConfig(
        rounds=rounds, client_pool=pool, clients_per_round=k, weighting=weighting,
        master_seed=seed, workers=workers,
    )
    local = LocalSearchConfig(
        epochs=epochs, batch_size=16, lr_w=0.05, lr_alpha=0.01, momentum_w=momentum
    )
    return run_federated_search(
        train, test, partition, space, fed, local, round_callback=callback
    )


def test_single_client_round_returns_that_clients_blob():
    train = blob_data(n=80, seed=11)
    test = blob_data(n=40, seed=12)
    space = vector_space()
    partition = Partition(client_indices=[np.arange(80)], parent_size=80)
    fed = FederationConfig(rounds=1, client_pool=1, clients_per_round=1, master_seed=0)
    local = LocalSearchConfig(epochs=1, batch_size=16, lr_w=0.05, lr_alpha=0.01,
                              momentum_w=0.9)
    blobs = []
    run_federated_search(
        train, test, partition, space, fed, local,
        round_callback=lambda rec, blob: blobs.append(blob),
    )
    report = client_local_search(flatten_params(build_supernet(space)), train, space, local,
                                 seed=derive_seed(0, "client", 0), first_epoch=0)
    assert blobs[0].to_bytes() == report.blob.to_bytes()


def test_round_holds_each_client_reply_once():
    """A finished reply is kept only as its decoded blob, so a 16-client round
    peaks well below two blobs per client (holding the report, the bytes and
    the decoded blob of every reply until the round ends peaks above three)."""
    clients = 16
    train = blob_data(n=16 * clients, seed=3)
    net = build_supernet(vector_space(candidates=("linear64", "identity"), hidden_width=64))
    blob = flatten_params(net)
    partition = iid_split(train, clients, stream(0, "partition"))
    state = FederationState(
        config=FederationConfig(rounds=1, client_pool=clients, clients_per_round=clients),
        local=LocalSearchConfig(epochs=1, batch_size=16),
        shards=[train.subset(ix) for ix in partition.client_indices],
        test_set=blob_data(n=32, seed=4), net=net, global_blob=blob,
    )
    tracemalloc.start()
    try:
        run_round(state, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * clients * blob.nbytes()


def test_round_byte_accounting():
    result = small_run(pool=4, k=3, rounds=2)
    net = build_supernet(vector_space())
    blob_size = flatten_params(net).nbytes()
    for record in result.history:
        assert record.bytes_down == 3 * blob_size
        assert record.bytes_up == 3 * blob_size
        assert record.bytes_down + record.bytes_up == 2 * 3 * blob_size


def test_history_and_child_shape():
    result = small_run(pool=3, k=2, rounds=3)
    assert [r.round_index for r in result.history] == [0, 1, 2]
    assert all(len(r.client_ids) == 2 for r in result.history)
    assert len(result.child.space.fixed_path) == 2
    assert 0.0 <= result.history[-1].test_acc <= 1.0


def test_threaded_dispatch_matches_sequential():
    a = small_run(pool=4, k=4, rounds=2, workers=1)
    b = small_run(pool=4, k=4, rounds=2, workers=4)
    assert a.final_blob.to_bytes() == b.final_blob.to_bytes()
    assert [r.test_acc for r in a.history] == [r.test_acc for r in b.history]


def test_equal_shards_make_weighting_modes_identical():
    a = small_run(pool=4, k=4, rounds=2, weighting="proportional")
    b = small_run(pool=4, k=4, rounds=2, weighting="uniform")
    assert np.abs(a.final_blob.values - b.final_blob.values).max() < 1e-12


def test_baseline_mode_exchanges_weights_only():
    space = vector_space(fixed_path=(0, 1))
    result = small_run(space=space)
    assert not result.final_blob.has_alpha()
    assert result.child.space.fixed_path == (0, 1)  # indices in space.candidates
    assert result.child.kinds == ("linear8", "identity")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # np.errstate stays on this thread
def test_client_failure_aborts_round_with_id(workers):
    train = blob_data(n=40, seed=11)
    bad = train.features.copy()
    bad[:10] = 1e200  # client 0's rows blow up
    train = Dataset(features=bad, labels=train.labels, num_classes=train.num_classes)
    test = blob_data(n=20, seed=12)
    partition = Partition(client_indices=[np.arange(10), np.arange(10, 40)], parent_size=40)
    fed = FederationConfig(rounds=1, client_pool=2, clients_per_round=2, master_seed=0,
                           workers=workers)
    local = LocalSearchConfig(epochs=1, batch_size=8, lr_w=0.05)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ClientFailure) as exc:
            run_federated_search(train, test, partition, vector_space(), fed, local)
    assert exc.value.client_id == 0
    assert "client 0" in str(exc.value)


def test_pool_partition_size_must_match():
    train = blob_data(n=40)
    partition = iid_split(train, 2, np.random.default_rng(0))
    fed = FederationConfig(rounds=1, client_pool=3, clients_per_round=2)
    with pytest.raises(ConfigurationError):
        run_federated_search(
            train, train, partition, vector_space(), fed, LocalSearchConfig()
        )


@pytest.mark.parametrize("rows", [20, 80])
def test_partition_must_cover_the_training_set(rows):
    train = blob_data(n=64)
    partition = iid_split(blob_data(n=rows), 2, np.random.default_rng(0))
    fed = FederationConfig(rounds=1, client_pool=2, clients_per_round=2)
    with pytest.raises(ConfigurationError, match=f"covers {rows} rows, training set has 64"):
        run_federated_search(train, train, partition, vector_space(), fed, LocalSearchConfig())


def test_config_validation():
    with pytest.raises(ConfigurationError):
        raise_problems(FederationConfig(rounds=0, client_pool=2, clients_per_round=1).problems())
    with pytest.raises(ConfigurationError):
        raise_problems(FederationConfig(rounds=1, client_pool=2, clients_per_round=3).problems())
    with pytest.raises(ConfigurationError):
        raise_problems(FederationConfig(rounds=1, client_pool=2, clients_per_round=1,
                                        weighting="median").problems())
    with pytest.raises(ConfigurationError, match="client_pool must be >= 1, got 0"):
        raise_problems(FederationConfig(rounds=1, client_pool=0, clients_per_round=1).problems())
    with pytest.raises(ConfigurationError, match="workers must be >= 1, got 0"):
        raise_problems(FederationConfig(rounds=1, client_pool=2, clients_per_round=1,
                                        workers=0).problems())


def test_server_pruning_constrains_child_derivation():
    space = vector_space()
    train = blob_data(n=80, seed=11)
    test = blob_data(n=40, seed=12)
    partition = iid_split(train, 2, stream(0, "partition"))
    fed = FederationConfig(rounds=2, client_pool=2, clients_per_round=2, master_seed=0,
                           server_alpha_threshold=1e9)
    local = LocalSearchConfig(epochs=1, batch_size=16, lr_w=0.05, lr_alpha=0.05)
    result = run_federated_search(train, test, partition, space, fed, local)
    # only the per-edge argmax survives a prune-everything threshold
    for edge in result.net.edges:
        assert int((~edge.pruned).sum()) == 1
    assert result.net.cardinality() == 1


def test_data_isolation_access_log_covers_partition_exactly():
    train = blob_data(n=60, seed=11)
    test = blob_data(n=20, seed=12)
    partition = iid_split(train, 3, stream(0, "partition"))
    log: list[np.ndarray] = []
    fed = FederationConfig(rounds=1, client_pool=3, clients_per_round=3, master_seed=0)
    local = LocalSearchConfig(epochs=1, batch_size=16, lr_w=0.05, lr_alpha=0.01)
    run_federated_search(
        train, test, partition, vector_space(), fed, local, access_log=log
    )
    assert len(log) == 3
    for accessed, expected in zip(log, partition.client_indices):
        assert np.array_equal(accessed, expected)


# --- degenerate federation identity ---


def test_one_client_federation_matches_segmented_run_with_momentum():
    """The federated plumbing adds nothing even at momentum > 0: it equals the
    segmented sequence of local runs (velocity resets per round in both)."""
    train = blob_data(n=64, seed=31)
    test = blob_data(n=32, seed=32)
    space = vector_space()
    partition = Partition(client_indices=[np.arange(64)], parent_size=64)
    fed = FederationConfig(rounds=2, client_pool=1, clients_per_round=1, master_seed=9)
    local = LocalSearchConfig(
        epochs=2, batch_size=16, lr_w=0.05, lr_alpha=0.01, momentum_w=0.9
    )
    round_blobs: list[bytes] = []
    run_federated_search(
        train, test, partition, space, fed, local,
        round_callback=lambda rec, blob: round_blobs.append(blob.to_bytes()),
    )
    client_seed = derive_seed(9, "client", 0)
    current = flatten_params(build_supernet(space))
    for t in range(2):
        current = client_local_search(current, train, space, local, seed=client_seed,
                                      first_epoch=t * local.epochs).blob
        assert current.to_bytes() == round_blobs[t]


def test_one_client_float32_federation_equals_centralized_run():
    """Criterion 4 in float32 with conv candidates: the wire widens each weight
    exactly and loading narrows it back exactly, so the federation adds nothing."""
    spec = DataSpec(kind="patches", n_samples=64, num_classes=2, noise=0.3, image_size=4)
    train = generate_synthetic(spec, np.random.default_rng(20))
    test = generate_synthetic(replace(spec, n_samples=32), np.random.default_rng(21))
    space = SpaceConfig(
        blocks=2, candidates=("conv3", "sep3", "identity"), input_shape=(1, 4, 4),
        num_classes=2, channels=2, init_seed=2, dtype="float32",
    )
    fed = FederationConfig(rounds=3, client_pool=1, clients_per_round=1, master_seed=4)
    local = LocalSearchConfig(epochs=2, batch_size=16, lr_w=0.05, lr_alpha=0.01, momentum_w=0.0)
    partition = Partition(client_indices=[np.arange(64)], parent_size=64)
    result = run_federated_search(train, test, partition, space, fed, local)

    blob = flatten_params(build_supernet(space))
    centralized = client_local_search(
        blob, train, space, replace(local, epochs=6), seed=derive_seed(4, "client", 0)
    ).blob
    assert centralized.to_bytes() == result.final_blob.to_bytes()
