"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion. The end-to-end scenario (criterion 7) is built once per session
and shared by criteria 9 and 10; its exhaustive path ranking is cached in
tests/.cache/ across sessions. Those three are marked `slow`, so
`pytest -m "not slow"` skips the scenario.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest
from conftest import fd_gradient, make_blob, rel_err
from scipy import stats

from dfnas import tensor as tz
from dfnas.config import ExperimentConfig, override
from dfnas.data import DataSpec, Partition, dirichlet_split, generate_synthetic
from dfnas.experiment import build_datasets, rank_fixed_paths, run_experiment
from dfnas.federation import FederationConfig, aggregate, aggregate_by_client, run_federated_search
from dfnas.local_search import LocalSearchConfig, client_local_search, with_round
from dfnas.seeds import derive_seed
from dfnas.supernet import (
    SpaceConfig,
    alpha_gradient,
    build_supernet,
    flatten_params,
    forward_logits,
    forward_path,
    sample_path,
)
from dfnas.tensor import Tape, Tensor

CACHE_DIR = Path(__file__).parent / ".cache"


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


# ---------------------------------------------------------------------------
# criterion 7 scenario, shared with 9 and 10


def c7_config(out_dir: str, seed: int = 7) -> ExperimentConfig:
    return ExperimentConfig(
        scenario="desk-scale",
        master_seed=seed,
        output_dir=out_dir,
        data_kind="patches",
        data_train_samples=4000,
        data_test_samples=1000,
        data_classes=4,
        data_noise=0.1,
        data_image_size=8,
        data_image_channels=1,
        partition_kind="dirichlet",
        partition_concentration=0.5,
        space_blocks=4,
        space_candidates=("conv3", "conv5", "identity"),
        space_channels=4,
        federation_rounds=40,
        federation_client_pool=4,
        federation_clients_per_round=4,
        federation_weighting="proportional",
        local_epochs=2,
        local_batch_size=32,
        local_lr_w=0.02,
        local_lr_alpha=0.003,
        local_momentum_w=0.9,
    )


@pytest.fixture(scope="session")
def desk_scale(tmp_path_factory):
    """DFNAS run + exhaustive 81-path ranking + best/worst FedAvg baselines."""
    started = time.perf_counter()
    root = tmp_path_factory.mktemp("desk_scale")
    config = c7_config(str(root / "dfnas"))

    train, test = build_datasets(config)
    ranks = rank_fixed_paths(
        config, train, test, epochs=2, cache_path=CACHE_DIR / "c7_ranks.json"
    )
    assert len(ranks) == 3**4 == 81

    dfnas_art = run_experiment(config, quiet=True)

    baselines = {}
    for tag, path in (("best", ranks[0].path), ("worst", ranks[-1].path)):
        baseline_cfg = override(
            config,
            mode="baseline",
            space_fixed_path=path,
            output_dir=str(root / f"baseline-{tag}"),
        )
        baselines[tag] = run_experiment(baseline_cfg, quiet=True)

    return {
        "config": config,
        "root": root,
        "ranks": ranks,
        "dfnas": dfnas_art,
        "baselines": baselines,
        "elapsed_s": time.perf_counter() - started,
    }


# ---------------------------------------------------------------------------
# 1. gradient suite


def test_criterion_01_gradient_suite():
    started = time.perf_counter()
    h = 1e-5
    tol = 1e-4

    space = SpaceConfig(
        blocks=2, candidates=("conv3", "identity"), input_shape=(1, 4, 4),
        num_classes=3, channels=2, init_seed=0,
    )
    for seed in range(100):
        rng = np.random.default_rng(seed)

        # matmul
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        w = rng.normal(size=(3, 2))
        tape = Tape()
        out = tz.matmul(a, b, tape)
        tape.backward(tz.sum_all(tz.mul(out, Tensor(w), tape), tape))
        assert rel_err(a.grad, fd_gradient(
            lambda v: float(((v @ b.data) * w).sum()), a.data, h)) < tol
        assert rel_err(b.grad, fd_gradient(
            lambda v: float(((a.data @ v) * w).sum()), b.data, h)) < tol

        # conv2d
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        wc = rng.normal(size=(1, 2, 4, 4))
        tape = Tape()
        out = tz.conv2d(x, k, 1, 1, tape=tape)
        tape.backward(tz.sum_all(tz.mul(out, Tensor(wc), tape), tape))
        assert rel_err(x.grad, fd_gradient(
            lambda v: float((tz.conv2d(Tensor(v), Tensor(k.data), 1, 1).data * wc).sum()),
            x.data, h)) < tol
        assert rel_err(k.grad, fd_gradient(
            lambda v: float((tz.conv2d(Tensor(x.data), Tensor(v), 1, 1).data * wc).sum()),
            k.data, h)) < tol

        # relu, kink excluded
        vals = rng.normal(size=(3, 3))
        vals[np.abs(vals) < 1e-3] = 0.5
        xr = Tensor(vals, requires_grad=True)
        tape = Tape()
        out = tz.relu(xr, tape)
        tape.backward(tz.sum_all(tz.mul(out, out, tape), tape))
        assert rel_err(xr.grad, fd_gradient(
            lambda v: float((np.maximum(v, 0) ** 2).sum()), vals, h)) < tol

        # softmax cross entropy
        logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        labels = rng.integers(0, 4, size=3)
        tape = Tape()
        tape.backward(tz.softmax_cross_entropy(logits, labels, tape))
        assert rel_err(logits.grad, fd_gradient(
            lambda v: tz.softmax_cross_entropy(Tensor(v), labels).item(),
            logits.data, h)) < tol

        # end-to-end supernet loss w.r.t. sampled weight coordinates
        net = build_supernet(space)
        feats = Tensor(rng.normal(size=(2, 1, 4, 4)))
        labels = rng.integers(0, 3, size=2)
        path = sample_path(net, rng)
        loss, tape = forward_path(net, path, feats, labels)
        tape.backward(loss)
        items = net.weight_items()

        def loss_now():
            logits = forward_logits(net, path.selections, feats)
            return tz.softmax_cross_entropy(logits, labels).item()

        base_loss = loss_now()
        for _ in range(12):
            name, tensor = items[rng.integers(0, len(items))]
            idx = rng.integers(0, tensor.size)
            flat = tensor.data.ravel()
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_now()
            flat[idx] = orig - h
            down = loss_now()
            flat[idx] = orig
            fwd = (up - base_loss) / h
            bwd = (base_loss - down) / h
            # one-sided slopes disagreeing means a ReLU kink inside [x-h, x+h]
            # (for example a zero-init bias on an all-zero receptive field);
            # finite differences are invalid there, as in the relu primitive's
            # own kink exclusion
            if abs(fwd - bwd) > 1e-3 * max(1.0, abs(fwd), abs(bwd)):
                continue
            fd = (up - down) / (2 * h)
            analytic = 0.0 if tensor.grad is None else tensor.grad.ravel()[idx]
            assert rel_err(np.array([analytic]), np.array([fd])) < tol, name

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(f"criterion 1 PASS: gradient suite, 100 seeds, rel err < 1e-4 ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. architecture-gradient exactness by exhaustive enumeration


def test_criterion_02_alpha_update_unbiased():
    started = time.perf_counter()
    space = SpaceConfig(
        blocks=2, candidates=("identity", "conv3"), input_shape=(1, 4, 4),
        num_classes=3, channels=2, init_seed=1,
    )
    net = build_supernet(space)
    rng = np.random.default_rng(5)
    for _, t in net.weight_items():
        t.data = np.abs(t.data) + 0.05  # keep every ReLU active: loss affine in masks
    net.edges[0].alpha[:] = [0.4, -0.1]
    net.edges[1].alpha[:] = [-0.3, 0.6]

    feats = Tensor(np.abs(rng.normal(size=(2, 1, 4, 4))) + 0.1)
    readout = Tensor(rng.normal(size=(2, 2, 4, 4)))

    def run_path(selections):
        tape = Tape()
        masks = [Tensor(np.array(1.0), requires_grad=True) for _ in net.edges]
        hmap = net.stem.forward(feats, tape)
        for edge, sel, mask in zip(net.edges, selections, masks):
            hmap = edge.candidates[sel].forward(hmap, tape)
            hmap = tz.scale(hmap, mask, tape)
        loss = tz.sum_all(tz.mul(hmap, readout, tape), tape)
        tape.backward(loss)
        return loss.item(), [float(m.grad) for m in masks]

    probs = [e.probabilities() for e in net.edges]
    estimator = [np.zeros(2), np.zeros(2)]
    analytic = [np.zeros(2), np.zeros(2)]
    for s0 in range(2):
        for s1 in range(2):
            p_path = probs[0][s0] * probs[1][s1]
            loss_val, cs = run_path((s0, s1))
            for e, sel in enumerate((s0, s1)):
                estimator[e] += p_path * alpha_gradient(net.edges[e], sel, cs[e])
                onehot = np.zeros(2)
                onehot[sel] = 1.0
                analytic[e] += p_path * loss_val * (onehot - probs[e])

    worst = max(float(np.abs(estimator[e] - analytic[e]).max()) for e in range(2))
    assert worst < 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(f"criterion 2 PASS: exhaustive architecture-update expectation matches "
           f"analytic gradient, max dev {worst:.2e} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. single-path cost


def test_criterion_03_single_path_cost():
    per_m = {}
    for m, candidates in [
        (2, ("conv3", "identity")),
        (3, ("conv3", "identity", "sep3")),
        (4, ("conv3", "identity", "sep3", "conv5")),
    ]:
        space = SpaceConfig(
            blocks=3, candidates=candidates, input_shape=(1, 4, 4),
            num_classes=3, channels=2, init_seed=0,
        )
        net = build_supernet(space)
        for edge in net.edges:
            edge.alpha[0] = 1000.0  # pin the sampled path across m
        rng = np.random.default_rng(0)
        feats = Tensor(rng.normal(size=(2, 1, 4, 4)))
        labels = rng.integers(0, 3, size=2)
        path = sample_path(net, rng)
        net.counters.reset()
        loss, tape = forward_path(net, path, feats, labels)
        tape.backward(loss)
        assert net.counters.candidate_executions == 3  # == B, never B*m
        per_m[m] = (net.counters.candidate_executions, tape.live_tensors)
    assert per_m[2] == per_m[3] == per_m[4]
    report(f"criterion 3 PASS: executed candidates == B and live tensors {per_m[2][1]} "
           f"identical across m in {{2,3,4}}")


# ---------------------------------------------------------------------------
# 4. degenerate federation identity


def test_criterion_04_degenerate_federation_bit_identity():
    rounds, epochs = 3, 2
    train = generate_synthetic(
        DataSpec(kind="blobs", n_samples=64, num_classes=2, noise=0.3, feature_dim=4),
        np.random.default_rng(20),
    )
    test = generate_synthetic(
        DataSpec(kind="blobs", n_samples=32, num_classes=2, noise=0.3, feature_dim=4),
        np.random.default_rng(21),
    )
    space = SpaceConfig(
        blocks=2, candidates=("linear8", "identity"), input_shape=(4,),
        num_classes=2, hidden_width=8, init_seed=2,
    )
    fed = FederationConfig(rounds=rounds, client_pool=1, clients_per_round=1, master_seed=4)
    # momentum 0: optimizer velocity is client-local state outside the blob
    local = LocalSearchConfig(
        epochs=epochs, batch_size=16, lr_w=0.05, lr_alpha=0.01, momentum_w=0.0
    )
    partition = Partition(client_indices=[np.arange(64)])
    round_blobs: list[bytes] = []
    run_federated_search(
        train, test, partition, space, fed, local,
        round_callback=lambda rec, blob: round_blobs.append(blob.to_bytes()),
    )

    client_seed = derive_seed(4, "client", 0)
    blob = flatten_params(build_supernet(space))
    current = blob
    for t in range(rounds):
        cfg = with_round(local, seed=client_seed, round_index=t)
        current = client_local_search(current, train, space, cfg).blob
        assert current.to_bytes() == round_blobs[t]

    long_cfg = LocalSearchConfig(
        epochs=rounds * epochs, batch_size=16, lr_w=0.05, lr_alpha=0.01,
        momentum_w=0.0, seed=client_seed,
    )
    long_blob = client_local_search(blob, train, space, long_cfg).blob
    assert long_blob.to_bytes() == round_blobs[-1]
    report("criterion 4 PASS: 1-client federation bit-identical to centralized "
           f"{rounds * epochs}-epoch run at every round boundary")


# ---------------------------------------------------------------------------
# 5. aggregation identities


def test_criterion_05_aggregation_identities():
    space = SpaceConfig(
        blocks=2, candidates=("linear8", "identity"), input_shape=(4,),
        num_classes=2, hidden_width=8, init_seed=3,
    )
    blob = flatten_params(build_supernet(space))
    mixed = aggregate([blob, blob, blob], [0.2, 0.5, 0.3])
    assert np.abs(mixed.values - blob.values).max() < 1e-12

    def scalar(v):
        return make_blob(("w", (1,), [v]))

    assert aggregate([scalar(1.0), scalar(3.0)], [0.25, 0.75]).values[0] == 2.5

    rng = np.random.default_rng(1)
    blobs = {cid: scalar(rng.normal()) for cid in (3, 0, 2, 1)}
    weights = {0: 0.1, 1: 0.2, 2: 0.3, 3: 0.4}
    forward = aggregate_by_client(blobs, weights)
    permuted = aggregate_by_client({c: blobs[c] for c in (1, 3, 0, 2)}, weights)
    assert forward.to_bytes() == permuted.to_bytes()
    report("criterion 5 PASS: convex fixed point (1e-12), exact permutation "
           "invariance, 0.25*1 + 0.75*3 == 2.5 exactly")


# ---------------------------------------------------------------------------
# 6. sampling statistics


def test_criterion_06_sampling_statistics():
    started = time.perf_counter()
    # path sampling matches softmax(alpha) by chi-square
    space = SpaceConfig(
        blocks=1, candidates=("conv3", "conv5", "identity", "sep3"),
        input_shape=(1, 4, 4), num_classes=3, channels=2, init_seed=0,
    )
    net = build_supernet(space)
    net.edges[0].alpha[:] = [0.4, -0.3, 0.0, 0.8]
    probs = net.edges[0].probabilities()
    rng = np.random.default_rng(0)
    draws = 10_000
    counts = np.zeros(4)
    for _ in range(draws):
        counts[sample_path(net, rng).selections[0]] += 1
    stat = float(((counts - draws * probs) ** 2 / (draws * probs)).sum())
    p_value = float(stats.chi2.sf(stat, df=3))
    assert p_value > 0.01

    # Dirichlet partitioner checks
    ds = generate_synthetic(
        DataSpec(kind="blobs", n_samples=8000, num_classes=4, noise=0.2, feature_dim=4),
        np.random.default_rng(2),
    )
    part = dirichlet_split(ds, 1, 0.5, np.random.default_rng(3))
    assert part.sizes() == [8000]

    part = dirichlet_split(ds, 8, 10_000.0, np.random.default_rng(4))
    for shard in part.client_indices:
        hist = np.bincount(ds.labels[shard], minlength=4) / shard.size
        assert 0.5 * np.abs(hist - 0.25).sum() < 0.05

    prop_rng = np.random.default_rng(5)
    mean_p = np.mean([prop_rng.dirichlet([0.5, 0.5])[0] for _ in range(1000)])
    assert abs(mean_p - 0.5) < 0.02

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(f"criterion 6 PASS: chi-square p={p_value:.3f} > 0.01, Dirichlet "
           f"checks hold ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 7. desk-scale end-to-end


@pytest.mark.slow
def test_criterion_07_desk_scale_end_to_end(desk_scale):
    ranks = desk_scale["ranks"]
    dfnas_acc = desk_scale["dfnas"].result.history[-1].test_acc
    best_acc = desk_scale["baselines"]["best"].result.history[-1].test_acc
    worst_acc = desk_scale["baselines"]["worst"].result.history[-1].test_acc

    assert dfnas_acc >= 0.90
    assert dfnas_acc >= worst_acc
    assert dfnas_acc >= best_acc - 0.03
    assert desk_scale["elapsed_s"] < 600.0
    report(
        f"criterion 7 PASS: dfnas={dfnas_acc:.4f} >= 0.90, >= worst fedavg "
        f"{worst_acc:.4f} (path {ranks[-1].path}), within 0.03 of best fedavg "
        f"{best_acc:.4f} (path {ranks[0].path}); {desk_scale['elapsed_s']:.0f}s < 600s"
    )


# ---------------------------------------------------------------------------
# 8. search-space cardinality


def test_criterion_08_cardinality():
    cross_silo = build_supernet(SpaceConfig(
        blocks=20, candidates=("conv3", "conv5", "conv7", "sep3"),
        input_shape=(1, 4, 4), num_classes=4, channels=2, init_seed=0,
    ))
    assert cross_silo.cardinality() == 4**20 == 1_099_511_627_776
    cross_device = build_supernet(SpaceConfig(
        blocks=12, candidates=("conv3", "sep3", "identity"),
        input_shape=(1, 4, 4), num_classes=4, channels=2, init_seed=0,
    ))
    assert cross_device.cardinality() == 3**12 == 531_441
    report("criterion 8 PASS: cardinality 4^20 and 3^12 exact")


# ---------------------------------------------------------------------------
# 9. communication accounting


@pytest.mark.slow
def test_criterion_09_communication_accounting(desk_scale):
    config = desk_scale["config"]
    from dfnas.experiment import space_config
    from dfnas.supernet import expected_layout

    net = build_supernet(space_config(config))
    # manual audit from the documented wire format
    expected_size = 12
    for name, shape in expected_layout(net, include_alpha=True):
        numel = int(np.prod(shape)) if shape else 1
        expected_size += 2 + len(name.encode()) + 1 + 4 * len(shape) + 8 * numel
    k = config.federation_clients_per_round
    for rec in desk_scale["dfnas"].result.history:
        assert rec.bytes_down == k * expected_size
        assert rec.bytes_up == k * expected_size
        assert rec.bytes_up + rec.bytes_down == 2 * k * expected_size
    report(f"criterion 9 PASS: every round moves exactly 2*K*blob "
           f"(2*{k}*{expected_size}) bytes, one round trip per client")


# ---------------------------------------------------------------------------
# 10. reproducibility


@pytest.mark.slow
def test_criterion_10_reproducibility(desk_scale):
    rerun_cfg = override(
        desk_scale["config"], output_dir=str(desk_scale["root"] / "dfnas-rerun")
    )
    rerun = run_experiment(rerun_cfg, quiet=True)
    first = desk_scale["dfnas"].metrics_path.read_bytes()
    second = rerun.metrics_path.read_bytes()
    assert first == second
    report("criterion 10 PASS: two runs of the criterion-7 config produce "
           "byte-identical metrics CSVs")
