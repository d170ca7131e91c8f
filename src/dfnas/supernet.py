"""The searchable parent network.

A chain of choice blocks between a fixed stem and a fixed linear classifier
head. Every block holds m interchangeable candidate operations plus an
architecture-parameter vector alpha; softmax(alpha) is the sampling
distribution for single-path training. Candidates keep the feature shape, so
any block sequence is a valid network. A sampled path is one candidate index
per block; `mask_gradient` reads each block's architecture signal off its
output. Prune masks are the server's: they restrict only `argmax_path`
(evaluation and the derived child, a fixed-path supernet).
"""

from __future__ import annotations

import copy
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as tz
from .blob import Layout, ParameterBlob, check_layout
from .errors import (
    ConfigurationError,
    DataError,
    NumericalError,
    raise_problems,
)
from .tensor import Tape, Tensor

VALID_KERNELS = (3, 5, 7)


# ---------------------------------------------------------------------------
# candidate operations


def _he_init(rng: np.random.Generator | None, shape: tuple[int, ...]) -> Tensor:
    """He-normal weights whose fan-in is every axis but the output axis: axis 0
    of an (F, C/groups, k, k) kernel, axis 1 of an (in, out) dense weight.
    Without an rng, zeros that a blob is about to overwrite: nothing is drawn."""
    if rng is None:
        return _zeros(shape)
    fan_in = math.prod(shape) // shape[0 if len(shape) == 4 else 1]
    std = math.sqrt(2.0 / fan_in)
    return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)


def _zeros(shape: tuple[int, ...]) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


class Layer:
    """A network piece whose parameters are its `Tensor` attributes."""

    def tensors(self) -> list[tuple[str, Tensor]]:
        """(name, tensor) in assignment order, which is the order of the rng draws."""
        return [(name, v) for name, v in vars(self).items() if isinstance(v, Tensor)]

    def forward(self, x: Tensor, tape: Tape | None) -> Tensor:
        raise NotImplementedError


class CandidateOp(Layer):
    """One interchangeable operation on a choice block."""

    kind: str = ""


class Identity(CandidateOp):
    kind = "identity"

    def forward(self, x: Tensor, tape: Tape | None) -> Tensor:
        return x


class Conv(CandidateOp):
    """Convolution steps, then bias and ReLU; shape preserving. A step
    (name, k, groups) convolves by the kernel attribute `name`, shaped
    (channels, channels / groups, k, k) and drawn in step order; the step
    named "shuffle" interleaves `groups` channel bands instead."""

    def __init__(self, kind: str, channels: int, steps: tuple, rng: np.random.Generator | None):
        self.kind = kind
        self.steps = steps
        for name, k, groups in steps:
            if name != "shuffle":
                setattr(self, name, _he_init(rng, (channels, channels // groups, k, k)))
        self.bias = _zeros((channels,))

    def forward(self, x, tape):
        for name, _, groups in self.steps:
            if name == "shuffle":
                x = tz.channel_shuffle(x, groups, tape)
            else:
                x = tz.conv2d(x, getattr(self, name), groups=groups, tape=tape)
        return tz.relu(tz.bias_add(x, self.bias, tape), tape)


class LinearReLU(CandidateOp):
    """Dense layer with ReLU for vector-shaped feature chains."""

    def __init__(self, width: int, rng: np.random.Generator | None):
        self.kind = f"linear{width}"
        self.weight = _he_init(rng, (width, width))
        self.bias = _zeros((width,))

    def forward(self, x, tape):
        return tz.relu(tz.bias_add(tz.matmul(x, self.weight, tape), self.bias, tape), tape)


# Image tokens: identity, conv{k}, sep{k}, shuffle{k}g{groups}, k in VALID_KERNELS.
# Vector tokens: identity, linear{width}. `SpaceConfig.problems()` states the rules.
# Numbers are positive and have no leading zeros, so each token is its op's kind.
_TOKEN_RE = re.compile(
    r"identity|conv(?P<ck>[1-9]\d*)|sep(?P<sk>[1-9]\d*)|linear(?P<lw>[1-9]\d*)"
    r"|shuffle(?P<hk>[1-9]\d*)g(?P<hg>[1-9]\d*)"
)


def make_candidate(token: str, *, channels: int, rng: np.random.Generator | None) -> CandidateOp:
    """Build one candidate op from a token that `SpaceConfig.problems()` accepts."""
    m = _TOKEN_RE.fullmatch(token)
    if m["lw"]:
        return LinearReLU(int(m["lw"]), rng)
    if token == "identity":
        return Identity()
    if m["ck"]:  # a dense k x k conv
        steps = (("weight", int(m["ck"]), 1),)
    elif m["sk"]:  # depthwise k x k, then pointwise 1 x 1
        steps = (("depthwise", int(m["sk"]), channels), ("pointwise", 1, 1))
    else:  # grouped 1 x 1, channel shuffle, depthwise k x k, grouped 1 x 1
        g = int(m["hg"])
        steps = (
            ("reduce", 1, g), ("shuffle", None, g),
            ("depthwise", int(m["hk"]), channels), ("expand", 1, g),
        )
    return Conv(token, channels, steps, rng)


# ---------------------------------------------------------------------------
# stem and head


class PointwiseStem(Layer):
    """Affine 1x1 channel lift for image inputs (no spatial extent)."""

    def __init__(self, in_channels: int, channels: int, rng: np.random.Generator | None):
        self.weight = _he_init(rng, (channels, in_channels, 1, 1))
        self.bias = _zeros((channels,))

    def forward(self, x, tape):
        return tz.bias_add(tz.conv2d(x, self.weight, tape=tape), self.bias, tape)


class Affine(Layer):
    """Flatten if 4-d, then x @ W + b: the vector stem and the classifier head."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator | None):
        self.weight = _he_init(rng, (in_features, out_features))
        self.bias = _zeros((out_features,))

    def forward(self, x, tape):
        flat = tz.flatten_batch(x, tape) if x.data.ndim != 2 else x
        return tz.bias_add(tz.matmul(flat, self.weight, tape), self.bias, tape)


# ---------------------------------------------------------------------------
# the supernet proper


@dataclass(frozen=True)
class SpaceConfig:
    """Search-space description; fully determines network layout and init."""

    blocks: int
    candidates: tuple[str, ...]
    input_shape: tuple[int, ...]  # (C, H, W) for images, (D,) for vectors
    num_classes: int
    channels: int = 8
    hidden_width: int = 16
    init_seed: int = 0
    fixed_path: tuple[int, ...] | None = None  # restricts each block to one candidate
    # float64 for the gradient oracles; every experiment derives float32 in
    # `config.space_config`, the one intended difference from the experiment defaults
    dtype: str = "float64"  # of weights and activations; blobs and alpha stay float64

    def problems(self) -> list[tuple[str, str]]:
        """(field, complaint) for every rule this config breaks."""
        found = []
        if self.blocks < 1:
            found.append(("blocks", f"must be >= 1, got {self.blocks}"))
        if not self.candidates:
            found.append(("candidates", "must list at least one candidate"))
        if self.num_classes < 2:
            found.append(("num_classes", f"must be >= 2, got {self.num_classes}"))
        if self.channels < 1:
            found.append(("channels", f"must be >= 1, got {self.channels}"))
        if self.hidden_width < 1:
            found.append(("hidden_width", f"must be >= 1, got {self.hidden_width}"))
        if self.dtype not in ("float32", "float64"):
            found.append(("dtype", f"must be float32 or float64, got {self.dtype!r}"))
        if len(self.input_shape) not in (1, 3):
            found.append(("input_shape", f"must be (D,) or (C, H, W), got {self.input_shape}"))
        if self.fixed_path is not None:
            if len(self.fixed_path) != self.blocks:
                found.append((
                    "fixed_path", f"has {len(self.fixed_path)} entries, blocks is {self.blocks}"
                ))
            bad = [i for i in self.fixed_path if not 0 <= i < len(self.candidates)]
            if bad:
                found.append(("fixed_path", f"indices out of range: {bad}"))
        image = len(self.input_shape) == 3
        for token in self.candidates:
            m = _TOKEN_RE.fullmatch(token)
            if m is None:
                found.append(("candidates", f"has unknown token {token!r}"))
                continue
            kernel = m["ck"] or m["sk"] or m["hk"]  # None unless an image token
            why = []
            if kernel and not image:
                why.append(f"needs (C, H, W) inputs, got {self.input_shape}")
            if kernel and int(kernel) not in VALID_KERNELS:
                why.append(f"has kernel {kernel}, must be one of {VALID_KERNELS}")
            if m["hg"] and self.channels % int(m["hg"]):
                why.append(f"has {m['hg']} groups, not a divisor of channels {self.channels}")
            if m["lw"] and image:
                why.append(f"needs (D,) inputs, got {self.input_shape}")
            if m["lw"] and int(m["lw"]) != self.hidden_width:
                why.append(f"must keep hidden_width {self.hidden_width}")
            found.extend(("candidates", f"token {token!r} {w}") for w in why)
        return found


class ChoiceEdge:
    """Candidates plus architecture parameters for one block."""

    def __init__(self, candidates: list[CandidateOp]):
        if not candidates:
            raise ConfigurationError("choice edge needs at least one candidate")
        self.candidates = candidates
        self.alpha = np.zeros(len(candidates))
        self.pruned = np.zeros(len(candidates), dtype=bool)  # set by the server only

    def probabilities(self) -> np.ndarray:
        """Softmax over alpha: the sampling distribution of this block."""
        if not np.isfinite(self.alpha).all():
            raise NumericalError("alpha contains a non-finite value")
        z = self.alpha - self.alpha.max()
        e = np.exp(z)
        return e / e.sum()


class Supernet:
    def __init__(
        self,
        space: SpaceConfig,
        stem: Layer,
        edges: list[ChoiceEdge],
        head: Affine,
    ):
        self.space = space
        self.stem = stem
        self.edges = edges
        self.head = head
        self.candidate_executions = 0  # forward_path's count: the single-path cost

    @property
    def kinds(self) -> tuple[str, ...]:
        """The kind of each block's candidate along `argmax_path`."""
        return tuple(e.candidates[i].kind for e, i in zip(self.edges, argmax_path(self)))

    def cardinality(self) -> int:
        """Exact number of derivable architectures (product of unpruned counts)."""
        total = 1
        for edge in self.edges:
            total *= int((~edge.pruned).sum())
        return total

    def weight_items(self) -> list[tuple[str, Tensor]]:
        items = [(f"stem.{n}", t) for n, t in self.stem.tensors()]
        for i, edge in enumerate(self.edges):
            for j, cand in enumerate(edge.candidates):
                items.extend(
                    (f"block{i:02d}.cand{j}.{n}", t) for n, t in cand.tensors()
                )
        items.extend((f"head.{n}", t) for n, t in self.head.tensors())
        return items

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.weight_items()]


def build_supernet(space: SpaceConfig, initial: ParameterBlob | None = None) -> Supernet:
    """Deterministically construct and initialize a supernet from its config.

    Weights use He fan-in scaling, biases and all alpha start at zero, so the
    round-0 sampling distribution is uniform. Weights are drawn in float64 and
    then cast to `space.dtype`, so the draws do not depend on the dtype.
    Given an `initial` blob, nothing is drawn: the net holds that blob's values,
    loaded by `unflatten_params`.
    """
    raise_problems(space.problems())
    rng = None if initial is not None else np.random.default_rng(space.init_seed)
    image = len(space.input_shape) == 3
    if image:
        in_channels, h, w = space.input_shape
        stem = PointwiseStem(in_channels, space.channels, rng)
        feature_count = space.channels * h * w
    else:
        stem = Affine(space.input_shape[0], space.hidden_width, rng)
        feature_count = space.hidden_width

    edges = []
    for i in range(space.blocks):
        if space.fixed_path is not None:
            tokens = [space.candidates[space.fixed_path[i]]]
        else:
            tokens = list(space.candidates)
        edges.append(ChoiceEdge([
            make_candidate(token, channels=space.channels, rng=rng) for token in tokens
        ]))

    head = Affine(feature_count, space.num_classes, rng)
    net = Supernet(space, stem, edges, head)
    for t in net.parameters():
        t.data = t.data.astype(space.dtype, copy=False)
    if initial is not None:
        unflatten_params(net, initial)
    return net


# ---------------------------------------------------------------------------
# sampling, forward, architecture updates


def sample_path(net: Supernet, rng: np.random.Generator) -> tuple[int, ...]:
    """Draw one candidate per block from softmax(alpha).

    A block with a single candidate (every block of a fixed path) is selected
    without a draw, so a fixed-path net consumes no randomness here. Prune
    masks are not consulted: only the server prunes, and it never samples.
    """
    selections = []
    for edge in net.edges:
        m = len(edge.candidates)
        idx = 0
        if m > 1:
            cdf = np.cumsum(edge.probabilities())
            # the clamp covers u falling past a cdf that rounds below 1
            idx = min(int(np.searchsorted(cdf, rng.random(), side="right")), m - 1)
        selections.append(idx)
    return tuple(selections)


def forward_path(
    net: Supernet,
    selections: tuple[int, ...],
    features: Tensor,
    labels: np.ndarray,
) -> tuple[Tensor, Tape, list[Tensor]]:
    """Run only the selected candidates and return (CE loss, tape, block outputs).

    After `tape.backward(loss)`, `mask_gradient` of each block output is the
    gradient a unit mask on that output would receive. An identity block's
    output is its input tensor, so it shares that gradient too.
    """
    if features.shape[1:] != net.space.input_shape:
        raise DataError(
            f"batch shape {features.shape} does not match input shape "
            f"{net.space.input_shape}"
        )
    tape = Tape()
    x = net.stem.forward(_in_net_dtype(net, features), tape)
    outputs = []
    for edge, idx in zip(net.edges, selections):
        x = edge.candidates[idx].forward(x, tape)
        outputs.append(x)
        net.candidate_executions += 1
    logits = net.head.forward(x, tape)
    loss = tz.softmax_cross_entropy(logits, labels, tape)
    return loss, tape, outputs


def _in_net_dtype(net: Supernet, features: Tensor) -> Tensor:
    """The batch in the net's dtype: a float64 batch would upcast every float32 op."""
    same = features.data.dtype == net.space.dtype
    return features if same else Tensor(features.data, dtype=net.space.dtype)


def mask_gradient(output: Tensor) -> float:
    """d loss / d m for a unit mask m on a block output: <output, d loss / d output>."""
    return float((output.grad * output.data).sum())


def forward_logits(
    net: Supernet, selections: tuple[int, ...] | list[int], features: Tensor
) -> Tensor:
    """Deterministic unmasked forward along a fixed path (no tape)."""
    x = net.stem.forward(_in_net_dtype(net, features), None)
    for edge, idx in zip(net.edges, selections):
        x = edge.candidates[idx].forward(x, None)
    return net.head.forward(x, None)


def alpha_gradient(edge: ChoiceEdge, selected: int, mask_grad: float) -> np.ndarray:
    """Score-function architecture gradient: mask_grad * (onehot - probs),
    with probs = softmax(alpha) over every candidate of the block."""
    if not math.isfinite(mask_grad):
        raise NumericalError("mask gradient is not finite")
    probs = edge.probabilities()
    grad = -mask_grad * probs
    grad[selected] += mask_grad
    return grad


def prune_edges(net: Supernet, alpha_threshold: float) -> int:
    """Mark candidates with alpha below the threshold as pruned.

    The max-alpha candidate on each block always survives, so a block can
    never lose all its candidates. Returns the number pruned by this call.
    """
    count = 0
    for edge in net.edges:
        alive = ~edge.pruned
        doomed = alive & (edge.alpha < alpha_threshold)
        if doomed.sum() == alive.sum():
            keep_local = int(np.argmax(np.where(alive, edge.alpha, -np.inf)))
            doomed[keep_local] = False
        count += int(doomed.sum())
        edge.pruned |= doomed
    return count


# ---------------------------------------------------------------------------
# child derivation


def argmax_path(net: Supernet) -> tuple[int, ...]:
    """The unpruned argmax-alpha candidate of each block (ties: lowest index)."""
    return tuple(int(np.argmax(np.where(e.pruned, -np.inf, e.alpha))) for e in net.edges)


def derive_child(net: Supernet) -> Supernet:
    """The argmax path as a fixed-path supernet with copied weights.

    The child's path is the net's `fixed_path`, or else `argmax_path(net)`, so
    its weights-only blob is exactly the one baseline mode exchanges for the
    path. Stem, selected candidates and head are deep copies: the child is
    unaffected by further supernet training and needs no retraining itself.
    """
    built = argmax_path(net)  # indices on the built edges
    return Supernet(
        replace(net.space, fixed_path=net.space.fixed_path or built),
        copy.deepcopy(net.stem),
        [ChoiceEdge([copy.deepcopy(e.candidates[i])]) for e, i in zip(net.edges, built)],
        copy.deepcopy(net.head),
    )


def describe_child(child: Supernet) -> str:
    """The `child.txt` text: shape, size and each block's candidate in `space.candidates`."""
    lines = [
        "child-architecture v1",
        f"input_shape = {'x'.join(str(d) for d in child.space.input_shape)}",
        f"num_classes = {child.space.num_classes}",
        f"blocks = {len(child.edges)}",
        f"params = {sum(t.size for t in child.parameters())}",
    ]
    for i, (idx, edge) in enumerate(zip(child.space.fixed_path, child.edges)):
        (op,) = edge.candidates
        n_params = sum(t.size for _, t in op.tensors())
        lines.append(f"block {i}: candidate {idx} ({op.kind}, {n_params} params)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parameter blobs


def _alpha_name(i: int) -> str:
    return f"block{i:02d}.alpha"


def _named_arrays(net: Supernet, include_alpha: bool) -> list[tuple[str, np.ndarray]]:
    """Every exchanged parameter in canonical order: all weights, then each alpha."""
    items = [(name, t.data) for name, t in net.weight_items()]
    if include_alpha:
        items.extend((_alpha_name(i), e.alpha) for i, e in enumerate(net.edges))
    return items


def expected_layout(net: Supernet, include_alpha: bool = True) -> Layout:
    return tuple((name, array.shape) for name, array in _named_arrays(net, include_alpha))


def flatten_params(net: Supernet, include_alpha: bool = True) -> ParameterBlob:
    """Copy all weights (and optionally all alpha) into one float64 blob, in canonical order."""
    return ParameterBlob(
        layout=expected_layout(net, include_alpha),
        values=np.concatenate([a.ravel() for _, a in _named_arrays(net, include_alpha)],
                              dtype=np.float64),
    )


def unflatten_params(net: Supernet, blob: ParameterBlob) -> None:
    """Load a blob into the net, validating the full layout first.

    A blob without alpha records (fixed-architecture exchange) loads weights
    only; a float32 net rounds each weight once. Any divergence reports the
    first mismatching record by name.
    """
    check_layout(expected_layout(net, include_alpha=blob.has_alpha()), blob)
    offset = 0
    for _, array in _named_arrays(net, include_alpha=blob.has_alpha()):
        array[...] = blob.values[offset : offset + array.size].reshape(array.shape)
        offset += array.size
