"""Supernet: construction, sampling, single-path forward, architecture
updates, pruning, child derivation and blob round trips."""

from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import fd_gradient, rel_err
from scipy import stats

from dfnas import tensor as tz
from dfnas.errors import (
    ConfigurationError,
    DataError,
    InvariantError,
    SerializationError,
    UsageError,
)
from dfnas.supernet import (
    ChoiceEdge,
    Identity,
    PathSample,
    SpaceConfig,
    alpha_gradient,
    build_supernet,
    derive_child,
    flatten_params,
    forward_logits,
    forward_path,
    prune_edges,
    sample_path,
    unflatten_params,
)
from dfnas.tensor import Tape, Tensor


def small_image_space(**overrides):
    base = dict(
        blocks=2,
        candidates=("conv3", "identity"),
        input_shape=(1, 4, 4),
        num_classes=3,
        channels=2,
        init_seed=0,
    )
    base.update(overrides)
    return SpaceConfig(**base)


def batch_for(space, n=4, seed=0):
    rng = np.random.default_rng(seed)
    features = Tensor(rng.normal(size=(n, *space.input_shape)))
    labels = rng.integers(0, space.num_classes, size=n)
    return features, labels


# --- build & cardinality ---


def test_cardinality_cross_silo_space():
    space = small_image_space(
        blocks=20, candidates=("conv3", "conv5", "conv7", "sep3"), channels=2
    )
    net = build_supernet(space)
    assert net.cardinality() == 4**20


def test_cardinality_cross_device_space():
    space = small_image_space(blocks=12, candidates=("conv3", "sep3", "identity"))
    net = build_supernet(space)
    assert net.cardinality() == 3**12


def test_cardinality_degenerate_space():
    net = build_supernet(small_image_space(blocks=1, candidates=("conv3",)))
    assert net.cardinality() == 1


def test_build_is_deterministic():
    a = build_supernet(small_image_space(init_seed=5))
    b = build_supernet(small_image_space(init_seed=5))
    assert flatten_params(a).to_bytes() == flatten_params(b).to_bytes()
    c = build_supernet(small_image_space(init_seed=6))
    assert flatten_params(a).to_bytes() != flatten_params(c).to_bytes()


def test_build_rejects_incompatible_candidates():
    with pytest.raises(ConfigurationError) as exc:
        build_supernet(small_image_space(candidates=("conv3", "linear8")))
    assert "edge" in str(exc.value)
    with pytest.raises(ConfigurationError):
        build_supernet(
            SpaceConfig(
                blocks=1,
                candidates=("conv3",),
                input_shape=(6,),
                num_classes=2,
            )
        )
    with pytest.raises(ConfigurationError) as exc:
        build_supernet(
            SpaceConfig(
                blocks=2,
                candidates=("linear9", "identity"),
                input_shape=(6,),
                num_classes=2,
                hidden_width=8,
            )
        )
    assert "width" in str(exc.value)


def test_build_rejects_bad_shuffle_groups():
    with pytest.raises(ConfigurationError):
        build_supernet(small_image_space(candidates=("shuffle3g3",), channels=4))


# --- edge probabilities ---


def test_probabilities_uniform_at_zero_init():
    edge = ChoiceEdge([Identity() for _ in range(4)])
    assert np.allclose(edge.probabilities(), [0.25] * 4, atol=1e-15)


def test_probabilities_renormalize_over_unpruned():
    edge = ChoiceEdge([Identity() for _ in range(4)])
    edge.pruned[3] = True
    probs = edge.probabilities()
    assert np.allclose(probs[:3], [1 / 3] * 3, atol=1e-15)
    assert probs[3] == 0.0
    assert abs(probs.sum() - 1.0) < 1e-9


def test_probabilities_match_direct_softmax():
    edge = ChoiceEdge([Identity() for _ in range(3)])
    edge.alpha[:] = [1.0, 2.0, 3.0]
    expect = np.exp([1.0, 2.0, 3.0]) / np.exp([1.0, 2.0, 3.0]).sum()
    assert np.abs(edge.probabilities() - expect).max() < 1e-12


def test_probabilities_shift_invariant():
    edge = ChoiceEdge([Identity() for _ in range(3)])
    edge.alpha[:] = [0.2, -1.0, 0.7]
    before = edge.probabilities()
    edge.alpha += 5.0
    assert np.abs(edge.probabilities() - before).max() < 1e-12


# --- sampling ---


def test_sampling_saturated_alpha():
    net = build_supernet(small_image_space(blocks=1, candidates=("conv3", "identity", "sep3")))
    net.edges[0].alpha[:] = [1000.0, 0.0, 0.0]
    rng = np.random.default_rng(1)
    counts = np.zeros(3)
    for _ in range(1000):
        counts[sample_path(net, rng).selections[0]] += 1
    assert counts[0] == 1000


def test_sampling_matches_softmax_chi_square():
    net = build_supernet(
        small_image_space(blocks=1, candidates=("conv3", "conv5", "identity", "sep3"))
    )
    net.edges[0].alpha[:] = [0.4, -0.3, 0.0, 0.8]
    probs = net.edges[0].probabilities()
    rng = np.random.default_rng(0)
    draws = 10_000
    counts = np.zeros(4)
    for _ in range(draws):
        counts[sample_path(net, rng).selections[0]] += 1
    stat = float(((counts - draws * probs) ** 2 / (draws * probs)).sum())
    assert stats.chi2.sf(stat, df=3) > 0.01
    # uniform case: each frequency within 0.02 of 0.25
    net.edges[0].alpha[:] = 0.0
    counts = np.zeros(4)
    for _ in range(draws):
        counts[sample_path(net, rng).selections[0]] += 1
    assert np.abs(counts / draws - 0.25).max() < 0.02


def test_sampling_never_selects_pruned():
    net = build_supernet(
        small_image_space(blocks=1, candidates=("conv3", "conv5", "identity", "sep3"))
    )
    net.edges[0].pruned[2] = True
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        assert sample_path(net, rng).selections[0] != 2


def test_sampling_log_prob_accumulates():
    net = build_supernet(small_image_space(blocks=3, candidates=("conv3", "identity")))
    for edge in net.edges:
        edge.alpha[:] = [0.6, -0.6]
    rng = np.random.default_rng(3)
    path = sample_path(net, rng)
    expect = 0.0
    for edge, k in zip(net.edges, path.selections):
        expect += math.log(edge.probabilities()[k])
    assert abs(path.log_prob - expect) < 1e-12


# --- forward ---


def test_forward_executes_exactly_one_candidate_per_block():
    space = small_image_space(blocks=5, candidates=("conv3", "conv5", "identity"))
    net = build_supernet(space)
    features, labels = batch_for(space)
    path = sample_path(net, np.random.default_rng(0))
    net.counters.reset()
    forward_path(net, path, features, labels)
    assert net.counters.candidate_executions == 5


def test_forward_masks_do_not_change_the_loss():
    space = small_image_space(blocks=3)
    net = build_supernet(space)
    features, labels = batch_for(space)
    path = sample_path(net, np.random.default_rng(2))
    loss, _ = forward_path(net, path, features, labels)
    logits = forward_logits(net, path.selections, features)
    bare = tz.softmax_cross_entropy(logits, labels)
    assert abs(loss.item() - bare.item()) < 1e-12


def test_mask_gradient_equals_replay_inner_product():
    space = small_image_space(blocks=3, candidates=("conv3", "sep3"))
    net = build_supernet(space)
    features, labels = batch_for(space, n=3, seed=9)
    path = sample_path(net, np.random.default_rng(4))
    loss, tape = forward_path(net, path, features, labels)
    tape.backward(loss)
    got = [float(m.grad) for m in path.mask_scalars]

    # replay oracle: same path, no masks; capture each block output and its
    # gradient, then take the inner product
    replay = Tape()
    x = net.stem.forward(features, replay)
    outputs = []
    for edge, k in zip(net.edges, path.selections):
        x = edge.candidates[k].forward(x, replay)
        outputs.append(x)
    logits = net.head.forward(x, replay)
    replay.backward(tz.softmax_cross_entropy(logits, labels, replay))
    for g, out in zip(got, outputs):
        expect = float((out.grad * out.data).sum())
        assert abs(g - expect) < 1e-12


def test_forward_rejects_shape_mismatch():
    space = small_image_space(blocks=1)
    net = build_supernet(space)
    path = sample_path(net, np.random.default_rng(0))
    bad = Tensor(np.zeros((2, 1, 5, 5)))
    with pytest.raises(DataError):
        forward_path(net, path, bad, np.array([0, 1]))


def test_probabilities_reject_fully_pruned_edge():
    edge = ChoiceEdge([Identity(), Identity()])
    edge.pruned[:] = True
    with pytest.raises(InvariantError):
        edge.probabilities()


def test_forward_rejects_pruned_selection():
    space = small_image_space(blocks=1)
    net = build_supernet(space)
    features, labels = batch_for(space)
    path = PathSample(
        selections=(1,), log_prob=0.0, mask_scalars=[Tensor(np.array(1.0), requires_grad=True)]
    )
    net.edges[0].pruned[1] = True
    with pytest.raises(UsageError):
        forward_path(net, path, features, labels)


# --- alpha gradient ---


def test_alpha_gradient_zero_signal():
    edge = ChoiceEdge([Identity() for _ in range(4)])
    assert np.array_equal(alpha_gradient(edge, 1, 0.0), np.zeros(4))


def test_alpha_gradient_uniform_case():
    edge = ChoiceEdge([Identity() for _ in range(4)])
    got = alpha_gradient(edge, 0, 1.0)
    assert np.allclose(got, [0.75, -0.25, -0.25, -0.25], atol=1e-15)


def test_alpha_gradient_rejects_pruned():
    edge = ChoiceEdge([Identity() for _ in range(3)])
    edge.pruned[2] = True
    with pytest.raises(UsageError):
        alpha_gradient(edge, 2, 1.0)


def test_alpha_gradient_matches_log_softmax_finite_differences():
    edge = ChoiceEdge([Identity() for _ in range(5)])
    rng = np.random.default_rng(11)
    edge.alpha[:] = rng.normal(size=5)
    k = 3

    def log_p(alpha):
        z = alpha - alpha.max()
        return float(z[k] - np.log(np.exp(z).sum()))

    fd = fd_gradient(log_p, edge.alpha.copy())
    got = alpha_gradient(edge, k, 1.0)
    assert rel_err(got, fd) < 1e-6


# --- pruning ---


def test_prune_disabled_at_minus_infinity():
    net = build_supernet(small_image_space())
    assert prune_edges(net, -np.inf) == 0
    assert net.cardinality() == 4


def test_prune_by_threshold():
    net = build_supernet(
        small_image_space(blocks=1, candidates=("conv3", "conv5", "identity", "sep3"))
    )
    net.edges[0].alpha[:] = [-1.0, 0.0, 1.0, 2.0]
    # strict comparison alpha < threshold
    assert prune_edges(net, 0.5) == 2
    assert list(net.edges[0].pruned) == [True, True, False, False]
    assert prune_edges(net, 1.5) == 1
    assert list(net.edges[0].pruned) == [True, True, True, False]


def test_prune_keeps_argmax_when_all_below_threshold():
    net = build_supernet(
        small_image_space(blocks=1, candidates=("conv3", "conv5", "identity", "sep3"))
    )
    net.edges[0].alpha[:] = [-3.0, -1.0, -2.0, -4.0]
    assert prune_edges(net, 10.0) == 3
    assert list(net.edges[0].pruned) == [True, False, True, True]


def test_prune_monotone_and_never_removes_argmax():
    net = build_supernet(small_image_space(blocks=4, candidates=("conv3", "conv5", "identity")))
    rng = np.random.default_rng(5)
    for edge in net.edges:
        edge.alpha[:] = rng.normal(size=3)
    card = net.cardinality()
    for threshold in (-1.0, 0.0, 0.5, 2.0):
        prune_edges(net, threshold)
        now = net.cardinality()
        assert now <= card
        card = now
        for edge in net.edges:
            best = int(np.argmax(edge.alpha))
            assert not edge.pruned[best] or np.where(~edge.pruned, edge.alpha, -np.inf).max() >= edge.alpha[best]
    assert card >= 1


# --- child derivation ---


def test_derive_child_argmax_and_shift_invariance():
    net = build_supernet(small_image_space(blocks=3, candidates=("conv3", "conv5", "identity")))
    for edge in net.edges:
        edge.alpha[:] = [0.1, 0.9, 0.3]
    child = derive_child(net)
    assert child.selections == (1, 1, 1)
    for edge in net.edges:
        edge.alpha += 5.0
    assert derive_child(net).selections == child.selections


def test_derive_child_ties_break_to_lowest_index():
    net = build_supernet(small_image_space(blocks=1, candidates=("conv3", "conv5")))
    net.edges[0].alpha[:] = [0.7, 0.7]
    assert derive_child(net).selections == (0,)


def test_child_forward_matches_argmax_supernet_path():
    space = small_image_space(blocks=3, candidates=("conv3", "sep3", "identity"))
    net = build_supernet(space)
    rng = np.random.default_rng(8)
    for edge in net.edges:
        edge.alpha[:] = rng.normal(size=3)
    features, labels = batch_for(space, n=5, seed=3)
    child = derive_child(net)
    path = PathSample(
        selections=child.selections,
        log_prob=0.0,
        mask_scalars=[Tensor(np.array(1.0), requires_grad=True) for _ in net.edges],
    )
    loss, _ = forward_path(net, path, features, labels)
    child_loss = tz.softmax_cross_entropy(child.forward(features), labels)
    assert abs(loss.item() - child_loss.item()) < 1e-12


def test_child_weights_are_frozen_copies():
    space = small_image_space(blocks=1, candidates=("conv3",))
    net = build_supernet(space)
    child = derive_child(net)
    before = child.ops[0].weight.data.copy()
    net.edges[0].candidates[0].weight.data += 1.0
    assert np.array_equal(child.ops[0].weight.data, before)


def test_child_description_lists_blocks():
    net = build_supernet(small_image_space(blocks=2))
    text = derive_child(net).describe()
    assert text.startswith("child-architecture v1")
    assert "block 0:" in text and "block 1:" in text


# --- single-path cost across m ---


def test_step_cost_independent_of_candidate_count():
    results = []
    for candidates in [("conv3", "identity"), ("conv3", "identity", "sep3"),
                       ("conv3", "identity", "sep3", "conv5")]:
        space = small_image_space(blocks=3, candidates=candidates)
        net = build_supernet(space)
        for edge in net.edges:
            edge.alpha[0] = 1000.0  # force the shared first candidate
        features, labels = batch_for(space, n=2, seed=1)
        path = sample_path(net, np.random.default_rng(0))
        net.counters.reset()
        loss, tape = forward_path(net, path, features, labels)
        tape.backward(loss)
        results.append((net.counters.candidate_executions, tape.live_tensors))
    assert results[0][0] == results[1][0] == results[2][0] == 3
    assert results[0][1] == results[1][1] == results[2][1]


# --- unbiasedness of the architecture update (exhaustive enumeration) ---


def linear_readout_losses(net, readout, features):
    """Loss of every path under a linear readout, plus per-path mask grads."""

    def run(selections):
        tape = Tape()
        masks = [Tensor(np.array(1.0), requires_grad=True) for _ in net.edges]
        h = net.stem.forward(features, tape)
        for edge, k, m in zip(net.edges, selections, masks):
            h = edge.candidates[k].forward(h, tape)
            h = tz.scale(h, m, tape)
        loss = tz.sum_all(tz.mul(h, readout, tape), tape)
        tape.backward(loss)
        return loss.item(), [float(m.grad) for m in masks]

    return run


def test_alpha_update_unbiased_over_exhaustive_paths():
    """Probability-weighted sum of sampled updates == gradient of E[loss].

    The score-function identity is exact when the loss is affine in each mask,
    so the network is put in a regime where every ReLU stays active and the
    readout is linear.
    """
    space = small_image_space(blocks=2, candidates=("identity", "conv3"), channels=2)
    net = build_supernet(space)
    rng = np.random.default_rng(21)
    for _, t in net.weight_items():
        t.data = np.abs(t.data) + 0.05  # positive weights keep ReLUs active
    net.edges[0].alpha[:] = [0.3, -0.2]
    net.edges[1].alpha[:] = [0.1, 0.5]

    features = Tensor(np.abs(rng.normal(size=(2, *space.input_shape))) + 0.1)
    readout = Tensor(rng.normal(size=(2, space.channels, 4, 4)))
    run = linear_readout_losses(net, readout, features)

    probs = [e.probabilities() for e in net.edges]
    expected_update = [np.zeros(2), np.zeros(2)]
    analytic = [np.zeros(2), np.zeros(2)]
    for s0 in range(2):
        for s1 in range(2):
            p_path = probs[0][s0] * probs[1][s1]
            loss_val, mask_grads = run((s0, s1))
            for e, sel in enumerate((s0, s1)):
                expected_update[e] += p_path * alpha_gradient(
                    net.edges[e], sel, mask_grads[e]
                )
                onehot = np.zeros(2)
                onehot[sel] = 1.0
                analytic[e] += p_path * loss_val * (onehot - probs[e])
    for e in range(2):
        assert np.abs(expected_update[e] - analytic[e]).max() < 1e-8


# --- parameter blobs ---


def test_flatten_round_trip_bit_exact():
    net = build_supernet(small_image_space())
    rng = np.random.default_rng(2)
    for edge in net.edges:
        edge.alpha[:] = rng.normal(size=edge.alpha.shape)
    blob = flatten_params(net)
    raw = blob.to_bytes()
    other = build_supernet(small_image_space(init_seed=77))
    unflatten_params(other, blob)
    assert flatten_params(other).to_bytes() == raw


def test_same_config_nets_accept_each_others_blobs():
    a = build_supernet(small_image_space(init_seed=1))
    b = build_supernet(small_image_space(init_seed=2))
    unflatten_params(a, flatten_params(b))
    assert flatten_params(a).to_bytes() == flatten_params(b).to_bytes()


def test_blob_layout_mismatch_names_first_divergence():
    a = build_supernet(small_image_space(blocks=2))
    b = build_supernet(small_image_space(blocks=3))
    with pytest.raises(SerializationError) as exc:
        unflatten_params(a, flatten_params(b))
    assert "block" in str(exc.value) or "head" in str(exc.value)


def test_blob_without_alpha_loads_weights_only():
    net = build_supernet(small_image_space())
    net.edges[0].alpha[:] = [1.5, -0.5]
    blob = flatten_params(net, include_alpha=False)
    assert not blob.has_alpha()
    other = build_supernet(small_image_space(init_seed=9))
    other.edges[0].alpha[:] = [9.0, 9.0]
    unflatten_params(other, blob)
    assert np.array_equal(other.edges[0].alpha, [9.0, 9.0])  # untouched
    assert flatten_params(other, include_alpha=False).to_bytes() == blob.to_bytes()


def test_blob_size_manual_audit():
    """Byte count recomputed record by record from the documented layout."""
    space = small_image_space(blocks=2, candidates=("conv3",), channels=2)
    net = build_supernet(space)
    blob = flatten_params(net)
    layout = [
        ("stem.weight", (2, 1, 1, 1)),
        ("stem.bias", (2,)),
        ("block00.cand0.weight", (2, 2, 3, 3)),
        ("block00.cand0.bias", (2,)),
        ("block01.cand0.weight", (2, 2, 3, 3)),
        ("block01.cand0.bias", (2,)),
        ("head.weight", (32, 3)),
        ("head.bias", (3,)),
        ("block00.alpha", (1,)),
        ("block01.alpha", (1,)),
    ]
    expected = 12  # magic + version + count
    for name, shape in layout:
        numel = int(np.prod(shape)) if shape else 1
        expected += 2 + len(name) + 1 + 4 * len(shape) + 8 * numel
    raw = blob.to_bytes()
    assert blob.layout == tuple(layout)
    assert len(raw) == expected
    assert blob.nbytes() == expected
