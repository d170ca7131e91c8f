"""Supernet: construction, sampling, single-path forward, architecture
updates, pruning, child derivation and blob round trips."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import fd_gradient, rel_err

from dfnas import tensor as tz
from dfnas.errors import (
    ConfigurationError,
    DataError,
    NumericalError,
    SerializationError,
)
from dfnas.supernet import (
    ChoiceEdge,
    Identity,
    SpaceConfig,
    alpha_gradient,
    argmax_path,
    build_supernet,
    derive_child,
    describe_child,
    flatten_params,
    forward_logits,
    forward_path,
    make_candidate,
    mask_gradient,
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
    assert "'linear8'" in str(exc.value)
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


@pytest.mark.parametrize("overrides, names", [
    ({"blocks": 0}, "blocks must be >= 1, got 0"),
    ({"candidates": ()}, "candidates must list at least one candidate"),
    ({"num_classes": 1}, "num_classes must be >= 2, got 1"),
    ({"input_shape": (4, 4)}, "input_shape must be (D,) or (C, H, W), got (4, 4)"),
    ({"dtype": "float16"}, "dtype must be float32 or float64, got 'float16'"),
])
def test_bad_space_field_is_rejected_naming_it(overrides, names):
    with pytest.raises(ConfigurationError) as exc:
        build_supernet(small_image_space(**overrides))
    assert names in str(exc.value)


def test_edge_rejects_no_candidates_and_non_finite_values():
    with pytest.raises(ConfigurationError, match="needs at least one candidate"):
        ChoiceEdge([])
    edge = ChoiceEdge([Identity(), Identity()])
    with pytest.raises(NumericalError, match="mask gradient is not finite"):
        alpha_gradient(edge, 0, np.inf)
    edge.alpha[1] = np.nan
    with pytest.raises(NumericalError, match="alpha contains a non-finite value"):
        edge.probabilities()


# --- candidates ---

# (name, shape, He fan-in) of each tensor at channels 8, in draw order.
# A bias draws nothing: its fan-in is None.
BIAS8 = ("bias", (8,), None)
CANDIDATE_TENSORS = {
    "identity": [],
    "linear16": [("weight", (16, 16), 16), ("bias", (16,), None)],
    "conv3": [("weight", (8, 8, 3, 3), 72), BIAS8],
    "conv5": [("weight", (8, 8, 5, 5), 200), BIAS8],
    "conv7": [("weight", (8, 8, 7, 7), 392), BIAS8],
    "sep3": [("depthwise", (8, 1, 3, 3), 9), ("pointwise", (8, 8, 1, 1), 8), BIAS8],
    "sep5": [("depthwise", (8, 1, 5, 5), 25), ("pointwise", (8, 8, 1, 1), 8), BIAS8],
    "sep7": [("depthwise", (8, 1, 7, 7), 49), ("pointwise", (8, 8, 1, 1), 8), BIAS8],
}
for _k, _kk in ((3, 9), (5, 25), (7, 49)):
    for _g, _per_group in ((1, 8), (2, 4), (4, 2), (8, 1)):
        CANDIDATE_TENSORS[f"shuffle{_k}g{_g}"] = [
            ("reduce", (8, _per_group, 1, 1), _per_group),
            ("depthwise", (8, 1, _k, _k), _kk),
            ("expand", (8, _per_group, 1, 1), _per_group),
            BIAS8,
        ]


def _hand_forward(token, t, x):
    """The candidate's forward, composed by hand from the tensor primitives."""
    tape = Tape()
    if token == "identity":
        return x
    if token.startswith("linear"):
        out = tz.matmul(x, t["weight"], tape)
    elif token.startswith("conv"):
        out = tz.conv2d(x, t["weight"], tape=tape)
    elif token.startswith("sep"):
        out = tz.conv2d(x, t["depthwise"], groups=8, tape=tape)
        out = tz.conv2d(out, t["pointwise"], tape=tape)
    else:
        g = int(token.split("g")[1])
        out = tz.conv2d(x, t["reduce"], groups=g, tape=tape)
        out = tz.channel_shuffle(out, g, tape)
        out = tz.conv2d(out, t["depthwise"], groups=8, tape=tape)
        out = tz.conv2d(out, t["expand"], groups=g, tape=tape)
    return tz.relu(tz.bias_add(out, t["bias"], tape), tape)


@pytest.mark.parametrize("token", sorted(CANDIDATE_TENSORS))
def test_candidate_tensors_draws_and_forward_match_a_hand_count(token):
    op = make_candidate(token, channels=8, rng=np.random.default_rng(41))
    assert op.kind == token
    expected = CANDIDATE_TENSORS[token]
    assert [(n, t.shape) for n, t in op.tensors()] == [(n, s) for n, s, _ in expected]

    rng = np.random.default_rng(41)
    for (name, t), (_, shape, fan_in) in zip(op.tensors(), expected):
        if fan_in is None:
            assert np.array_equal(t.data, np.zeros(shape))
        else:
            assert np.array_equal(t.data, rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape))

    data_rng = np.random.default_rng(43)
    for _, t in op.tensors():
        if t.data.ndim == 1:  # a nonzero bias, so the bias step shows
            t.data[:] = data_rng.normal(size=t.shape)
    x = Tensor(data_rng.normal(size=(3, 16) if token == "linear16" else (2, 8, 5, 5)))
    got = op.forward(x, Tape())
    want = _hand_forward(token, dict(op.tensors()), x)
    assert np.array_equal(got.data, want.data)
    assert np.array_equal(op.forward(x, None).data, want.data)


# --- edge probabilities ---


def test_probabilities_uniform_at_zero_init():
    edge = ChoiceEdge([Identity() for _ in range(4)])
    assert np.allclose(edge.probabilities(), [0.25] * 4, atol=1e-15)


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
        counts[sample_path(net, rng)[0]] += 1
    assert counts[0] == 1000


def test_sampling_uniform_alpha_frequencies():
    # each frequency within 0.02 of 0.25; criterion 6 checks non-uniform alpha
    net = build_supernet(
        small_image_space(blocks=1, candidates=("conv3", "conv5", "identity", "sep3"))
    )
    rng = np.random.default_rng(0)
    counts = np.bincount([sample_path(net, rng)[0] for _ in range(10_000)], minlength=4)
    assert np.abs(counts / 10_000 - 0.25).max() < 0.02


def test_sampling_a_fixed_path_draws_nothing():
    net = build_supernet(
        small_image_space(
            blocks=3, candidates=("conv3", "identity", "sep3"), fixed_path=(2, 0, 1)
        )
    )
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    assert sample_path(net, rng) == (0, 0, 0)  # indices on the built edges
    assert rng.bit_generator.state == before


# --- forward ---


def test_forward_executes_exactly_one_candidate_per_block():
    space = small_image_space(blocks=5, candidates=("conv3", "conv5", "identity"))
    net = build_supernet(space)
    features, labels = batch_for(space)
    selections = sample_path(net, np.random.default_rng(0))
    forward_path(net, selections, features, labels)
    assert net.candidate_executions == 5


def test_forward_path_loss_matches_forward_logits():
    space = small_image_space(blocks=3)
    net = build_supernet(space)
    features, labels = batch_for(space)
    selections = sample_path(net, np.random.default_rng(2))
    loss, _, _ = forward_path(net, selections, features, labels)
    logits = forward_logits(net, selections, features)
    bare = tz.softmax_cross_entropy(logits, labels)
    assert abs(loss.item() - bare.item()) < 1e-12


VECTOR_SPACE = dict(candidates=("linear8", "identity"), input_shape=(5,), hidden_width=8)


@pytest.mark.parametrize("overrides, selections", [
    pytest.param({}, (1, 0, 2, 1), id="image-identity-after-stem"),
    pytest.param({}, (0, 1, 1, 2), id="image-two-identities"),
    pytest.param(VECTOR_SPACE, (1, 1, 0, 1), id="vector-identities-after-stem"),
    pytest.param(VECTOR_SPACE, (0, 1, 1, 0), id="vector-two-identities"),
])
def test_mask_gradient_equals_replay_inner_product(overrides, selections):
    base = dict(blocks=4, candidates=("conv3", "identity", "sep3"))
    space = small_image_space(**{**base, **overrides})
    net = build_supernet(space)
    features, labels = batch_for(space, n=3, seed=9)
    loss, tape, outputs = forward_path(net, selections, features, labels)
    tape.backward(loss)
    got = [mask_gradient(out) for out in outputs]

    # replay oracle: same path with a unit mask on every block output, the
    # DSNAS formulation; each mask's gradient is the signal for its block
    replay = Tape()
    masks = [Tensor(np.array(1.0), requires_grad=True) for _ in net.edges]
    x = net.stem.forward(features, replay)
    for edge, k, m in zip(net.edges, selections, masks):
        x = tz.scale(edge.candidates[k].forward(x, replay), m, replay)
    logits = net.head.forward(x, replay)
    replay.backward(tz.softmax_cross_entropy(logits, labels, replay))
    for g, m in zip(got, masks):
        assert abs(g - float(m.grad)) < 1e-12


def test_forward_rejects_shape_mismatch():
    space = small_image_space(blocks=1)
    net = build_supernet(space)
    selections = sample_path(net, np.random.default_rng(0))
    bad = Tensor(np.zeros((2, 1, 5, 5)))
    with pytest.raises(DataError):
        forward_path(net, selections, bad, np.array([0, 1]))


# --- alpha gradient ---


def test_alpha_gradient_zero_signal():
    edge = ChoiceEdge([Identity() for _ in range(4)])
    assert np.array_equal(alpha_gradient(edge, 1, 0.0), np.zeros(4))


def test_alpha_gradient_uniform_case():
    edge = ChoiceEdge([Identity() for _ in range(4)])
    got = alpha_gradient(edge, 0, 1.0)
    assert np.allclose(got, [0.75, -0.25, -0.25, -0.25], atol=1e-15)


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
    assert child.space.fixed_path == (1, 1, 1)
    for edge in net.edges:
        edge.alpha += 5.0
    assert derive_child(net).space.fixed_path == child.space.fixed_path


def test_derive_child_ties_break_to_lowest_index():
    net = build_supernet(small_image_space(blocks=1, candidates=("conv3", "conv5")))
    net.edges[0].alpha[:] = [0.7, 0.7]
    assert derive_child(net).space.fixed_path == (0,)


def test_child_kinds_match_the_pruned_argmax_path():
    space = small_image_space(blocks=4, candidates=("conv3", "identity", "sep3", "conv5"))
    net = build_supernet(space)
    features, labels = batch_for(space, n=8, seed=4)
    rng = np.random.default_rng(6)
    for _ in range(6):  # a few search steps move every alpha
        selections = sample_path(net, rng)
        loss, tape, outputs = forward_path(net, selections, features, labels)
        tape.backward(loss)
        for edge, k, out in zip(net.edges, selections, outputs):
            edge.alpha -= 0.5 * alpha_gradient(edge, k, mask_gradient(out))
    assert prune_edges(net, float(np.median([e.alpha for e in net.edges]))) > 0
    # clients keep training pruned candidates, so one can later top its block
    b = next(i for i, e in enumerate(net.edges) if e.pruned.any())
    dead = int(np.argmax(net.edges[b].pruned))
    net.edges[b].alpha[dead] = net.edges[b].alpha.max() + 1.0
    child = derive_child(net)
    assert net.kinds == child.kinds
    assert net.kinds[b] != space.candidates[dead]
    assert child.kinds == tuple(space.candidates[i] for i in child.space.fixed_path)


def test_child_forward_matches_argmax_supernet_path():
    space = small_image_space(blocks=3, candidates=("conv3", "sep3", "identity"))
    net = build_supernet(space)
    rng = np.random.default_rng(8)
    for edge in net.edges:
        edge.alpha[:] = rng.normal(size=3)
    features, labels = batch_for(space, n=5, seed=3)
    child = derive_child(net)
    loss, _, _ = forward_path(net, child.space.fixed_path, features, labels)
    child_logits = forward_logits(child, argmax_path(child), features)
    child_loss = tz.softmax_cross_entropy(child_logits, labels)
    assert abs(loss.item() - child_loss.item()) < 1e-12


def test_child_weights_are_frozen_copies():
    space = small_image_space(blocks=1, candidates=("conv3",))
    net = build_supernet(space)
    child = derive_child(net)
    before = child.edges[0].candidates[0].weight.data.copy()
    net.edges[0].candidates[0].weight.data += 1.0
    assert np.array_equal(child.edges[0].candidates[0].weight.data, before)


def test_child_description_lists_blocks():
    net = build_supernet(small_image_space(blocks=2))
    text = describe_child(derive_child(net))
    assert text.startswith("child-architecture v1")
    assert "block 0:" in text and "block 1:" in text


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


# --- dtype ---


@pytest.mark.parametrize("candidates", [("conv3", "sep3"), ("shuffle5g2", "identity")])
def test_float32_tape_holds_no_float64_tensor_or_gradient(candidates, monkeypatch):
    space = small_image_space(blocks=2, candidates=candidates, dtype="float32")
    net = build_supernet(space)
    features, labels = batch_for(space)  # a float64 batch, cast on entry
    seen = []
    record = Tape.record

    def spy(self, inputs, output, backward):
        seen.extend((*inputs, output))
        record(self, inputs, output, backward)

    monkeypatch.setattr(Tape, "record", spy)
    loss, tape, _ = forward_path(net, (0, 1), features, labels)
    tape.backward(loss)
    assert {t.data.dtype for t in seen} == {np.dtype(np.float32)}
    assert {t.grad.dtype for t in seen if t.grad is not None} == {np.dtype(np.float32)}
    assert forward_logits(net, (0, 1), features).data.dtype == np.float32


def test_float32_net_draws_the_float64_weights_rounded_and_blobs_stay_float64():
    wide = build_supernet(small_image_space())
    narrow = build_supernet(small_image_space(dtype="float32"))
    for (_, a), (_, b) in zip(wide.weight_items(), narrow.weight_items()):
        assert np.array_equal(a.data.astype(np.float32), b.data)
    for include_alpha in (True, False):
        blob = flatten_params(narrow, include_alpha)
        assert blob.values.dtype == np.float64
        unflatten_params(wide, blob)  # widening is exact, so the round trip is too
        unflatten_params(narrow, flatten_params(wide, include_alpha))
        assert flatten_params(narrow, include_alpha).to_bytes() == blob.to_bytes()
