"""The searchable parent network.

A chain of choice blocks between a fixed stem and a fixed linear classifier
head. Every block holds m interchangeable candidate operations plus an
architecture-parameter vector alpha; softmax(alpha) over the unpruned
candidates is the sampling distribution for single-path training. Candidates
keep the feature shape, so any block sequence is a valid network.
"""

from __future__ import annotations

import copy
import math
import re
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .blob import Layout, ParameterBlob, check_layout
from .errors import (
    ConfigurationError,
    DataError,
    InvariantError,
    NumericalError,
    UsageError,
    raise_problems,
)
from .tensor import Tape, Tensor

VALID_KERNELS = (3, 5, 7)


# ---------------------------------------------------------------------------
# candidate operations


def _he_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    std = math.sqrt(2.0 / fan_in)
    return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)


def _zeros(shape: tuple[int, ...]) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


class CandidateOp:
    """One interchangeable operation on a choice block."""

    kind: str = ""

    def tensors(self) -> list[tuple[str, Tensor]]:
        return []

    def forward(self, x: Tensor, tape: Tape | None) -> Tensor:
        raise NotImplementedError


class Identity(CandidateOp):
    kind = "identity"

    def forward(self, x: Tensor, tape: Tape | None) -> Tensor:
        return x


class Conv(CandidateOp):
    """k x k convolution with bias and ReLU, shape preserving."""

    def __init__(self, channels: int, k: int, rng: np.random.Generator):
        self.kind = f"conv{k}"
        self.k = k
        self.weight = _he_init(rng, (channels, channels, k, k), channels * k * k)
        self.bias = _zeros((channels,))

    def tensors(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def forward(self, x, tape):
        out = tz.conv2d(x, self.weight, stride=1, padding=self.k // 2, tape=tape)
        return tz.relu(tz.bias_add(out, self.bias, tape), tape)


class SeparableConv(CandidateOp):
    """Depthwise k x k followed by pointwise 1 x 1, bias and ReLU."""

    def __init__(self, channels: int, k: int, rng: np.random.Generator):
        self.kind = f"sep{k}"
        self.k = k
        self.depthwise = _he_init(rng, (channels, 1, k, k), k * k)
        self.pointwise = _he_init(rng, (channels, channels, 1, 1), channels)
        self.bias = _zeros((channels,))
        self.channels = channels

    def tensors(self):
        return [
            ("depthwise", self.depthwise),
            ("pointwise", self.pointwise),
            ("bias", self.bias),
        ]

    def forward(self, x, tape):
        out = tz.conv2d(x, self.depthwise, 1, self.k // 2, groups=self.channels, tape=tape)
        out = tz.conv2d(out, self.pointwise, 1, 0, tape=tape)
        return tz.relu(tz.bias_add(out, self.bias, tape), tape)


class GroupedShuffleConv(CandidateOp):
    """Grouped 1x1 -> channel shuffle -> depthwise kxk -> grouped 1x1, bias, ReLU."""

    def __init__(self, channels: int, k: int, groups: int, rng: np.random.Generator):
        self.kind = f"shuffle{k}g{groups}"
        self.k = k
        self.groups = groups
        self.channels = channels
        per_group = channels // groups
        self.reduce = _he_init(rng, (channels, per_group, 1, 1), per_group)
        self.depthwise = _he_init(rng, (channels, 1, k, k), k * k)
        self.expand = _he_init(rng, (channels, per_group, 1, 1), per_group)
        self.bias = _zeros((channels,))

    def tensors(self):
        return [
            ("reduce", self.reduce),
            ("depthwise", self.depthwise),
            ("expand", self.expand),
            ("bias", self.bias),
        ]

    def forward(self, x, tape):
        out = tz.conv2d(x, self.reduce, 1, 0, groups=self.groups, tape=tape)
        out = tz.channel_shuffle(out, self.groups, tape)
        out = tz.conv2d(out, self.depthwise, 1, self.k // 2, groups=self.channels, tape=tape)
        out = tz.conv2d(out, self.expand, 1, 0, groups=self.groups, tape=tape)
        return tz.relu(tz.bias_add(out, self.bias, tape), tape)


class LinearReLU(CandidateOp):
    """Dense layer with ReLU for vector-shaped feature chains."""

    def __init__(self, width: int, rng: np.random.Generator):
        self.kind = f"linear{width}"
        self.width = width
        self.weight = _he_init(rng, (width, width), width)
        self.bias = _zeros((width,))

    def tensors(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def forward(self, x, tape):
        return tz.relu(tz.bias_add(tz.matmul(x, self.weight, tape), self.bias, tape), tape)


_TOKEN_RE = re.compile(
    r"^(identity|conv(?P<ck>\d+)|sep(?P<sk>\d+)|shuffle(?P<hk>\d+)g(?P<hg>\d+)|linear(?P<lw>\d+))$"
)


def make_candidate(
    token: str, *, channels: int, width: int, rng: np.random.Generator
) -> CandidateOp:
    """Build one candidate op from its textual token.

    Image tokens: identity, conv{3,5,7}, sep{3,5,7}, shuffle{k}g{groups}.
    Vector tokens: identity, linear{width}.
    """
    m = _TOKEN_RE.match(token.strip().lower())
    if m is None:
        raise ConfigurationError(f"unknown candidate token {token!r}")
    if token == "identity":
        return Identity()
    if m.group("ck"):
        k = int(m.group("ck"))
        if k not in VALID_KERNELS:
            raise ConfigurationError(f"conv kernel must be one of {VALID_KERNELS}, got {k}")
        return Conv(channels, k, rng)
    if m.group("sk"):
        k = int(m.group("sk"))
        if k not in VALID_KERNELS:
            raise ConfigurationError(f"sep kernel must be one of {VALID_KERNELS}, got {k}")
        return SeparableConv(channels, k, rng)
    if m.group("hk"):
        k = int(m.group("hk"))
        groups = int(m.group("hg"))
        if k not in VALID_KERNELS:
            raise ConfigurationError(f"shuffle kernel must be one of {VALID_KERNELS}, got {k}")
        if groups < 1 or channels % groups != 0:
            raise ConfigurationError(
                f"shuffle groups {groups} must divide channel count {channels}"
            )
        return GroupedShuffleConv(channels, k, groups, rng)
    return LinearReLU(int(m.group("lw")), rng)


_IMAGE_TOKENS = ("conv", "sep", "shuffle")


def _token_rank(token: str) -> int:
    """3 for image-only tokens, 1 for vector-only, 0 for either."""
    t = token.strip().lower()
    if t.startswith(_IMAGE_TOKENS):
        return 3
    if t.startswith("linear"):
        return 1
    return 0


# ---------------------------------------------------------------------------
# stem and head


class PointwiseStem:
    """Affine 1x1 channel lift for image inputs (no spatial extent)."""

    def __init__(self, in_channels: int, channels: int, rng: np.random.Generator):
        self.weight = _he_init(rng, (channels, in_channels, 1, 1), in_channels)
        self.bias = _zeros((channels,))

    def tensors(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def forward(self, x, tape):
        return tz.bias_add(tz.conv2d(x, self.weight, 1, 0, tape=tape), self.bias, tape)


class DenseStem:
    """Affine projection for vector inputs."""

    def __init__(self, in_dim: int, width: int, rng: np.random.Generator):
        self.weight = _he_init(rng, (in_dim, width), in_dim)
        self.bias = _zeros((width,))

    def tensors(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def forward(self, x, tape):
        return tz.bias_add(tz.matmul(x, self.weight, tape), self.bias, tape)


class LinearHead:
    """Flatten then affine map to class logits."""

    def __init__(self, in_features: int, num_classes: int, rng: np.random.Generator):
        self.weight = _he_init(rng, (in_features, num_classes), in_features)
        self.bias = _zeros((num_classes,))

    def tensors(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def forward(self, x, tape):
        flat = tz.flatten_batch(x, tape) if x.data.ndim != 2 else x
        return tz.bias_add(tz.matmul(flat, self.weight, tape), self.bias, tape)


# ---------------------------------------------------------------------------
# the supernet proper


@dataclass
class Counters:
    """Instrumentation proving the single-path cost of each training step."""

    candidate_executions: int = 0

    def reset(self) -> None:
        self.candidate_executions = 0


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

    def problems(self) -> list[tuple[str, str]]:
        """(field, complaint) for every rule this config breaks."""
        found = []
        if self.blocks < 1:
            found.append(("blocks", f"must be >= 1, got {self.blocks}"))
        if not self.candidates:
            found.append(("candidates", "must list at least one candidate"))
        if self.num_classes < 2:
            found.append(("num_classes", f"must be >= 2, got {self.num_classes}"))
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
        return found


class ChoiceEdge:
    """Candidates plus architecture parameters for one block."""

    def __init__(self, candidates: list[CandidateOp]):
        if not candidates:
            raise ConfigurationError("choice edge needs at least one candidate")
        self.candidates = candidates
        self.alpha = np.zeros(len(candidates))
        self.pruned = np.zeros(len(candidates), dtype=bool)

    def unpruned_indices(self) -> np.ndarray:
        return np.nonzero(~self.pruned)[0]

    def probabilities(self) -> np.ndarray:
        """Softmax over unpruned alpha entries; pruned entries are exactly 0."""
        alive = ~self.pruned
        if not alive.any():
            raise InvariantError("edge has no unpruned candidate")
        if not np.isfinite(self.alpha[alive]).all():
            raise NumericalError("alpha contains a non-finite value")
        probs = np.zeros_like(self.alpha)
        z = self.alpha[alive] - self.alpha[alive].max()
        e = np.exp(z)
        probs[alive] = e / e.sum()
        return probs


@dataclass
class PathSample:
    """One sampled subnetwork: a selected candidate per block."""

    selections: tuple[int, ...]
    log_prob: float
    mask_scalars: list[Tensor]


class Supernet:
    def __init__(
        self,
        space: SpaceConfig,
        stem,
        edges: list[ChoiceEdge],
        head: LinearHead,
    ):
        self.space = space
        self.stem = stem
        self.edges = edges
        self.head = head
        self.counters = Counters()

    @property
    def num_classes(self) -> int:
        return self.space.num_classes

    @property
    def input_shape(self) -> tuple[int, ...]:
        return self.space.input_shape

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


def _check_candidate_fits(
    token: str, edge_index: int, space: SpaceConfig
) -> None:
    rank = _token_rank(token)
    feature_rank = len(space.input_shape)
    if rank == 3 and feature_rank != 3:
        raise ConfigurationError(
            f"edge {edge_index}: candidate {token!r} needs image features, "
            f"space input shape is {space.input_shape}"
        )
    if rank == 1 and feature_rank != 1:
        raise ConfigurationError(
            f"edge {edge_index}: candidate {token!r} needs vector features, "
            f"space input shape is {space.input_shape}"
        )
    if token.lower().startswith("linear"):
        width = int(token.lower().removeprefix("linear"))
        if width != space.hidden_width:
            raise ConfigurationError(
                f"edge {edge_index}: candidate {token!r} does not preserve the "
                f"working width {space.hidden_width}"
            )


def build_supernet(space: SpaceConfig) -> Supernet:
    """Deterministically construct and initialize a supernet from its config.

    Weights use He fan-in scaling, biases and all alpha start at zero, so the
    round-0 sampling distribution is uniform.
    """
    raise_problems(space.problems())
    rng = np.random.default_rng(space.init_seed)
    image = len(space.input_shape) == 3
    if image:
        in_channels, h, w = space.input_shape
        stem = PointwiseStem(in_channels, space.channels, rng)
        feature_count = space.channels * h * w
    else:
        stem = DenseStem(space.input_shape[0], space.hidden_width, rng)
        feature_count = space.hidden_width

    edges = []
    for i in range(space.blocks):
        if space.fixed_path is not None:
            tokens = [space.candidates[space.fixed_path[i]]]
        else:
            tokens = list(space.candidates)
        ops = []
        for token in tokens:
            _check_candidate_fits(token, i, space)
            ops.append(
                make_candidate(
                    token, channels=space.channels, width=space.hidden_width, rng=rng
                )
            )
        edges.append(ChoiceEdge(ops))

    head = LinearHead(feature_count, space.num_classes, rng)
    return Supernet(space, stem, edges, head)


# ---------------------------------------------------------------------------
# sampling, forward, architecture updates


def sample_path(net: Supernet, rng: np.random.Generator) -> PathSample:
    """Draw one candidate per block from softmax(alpha).

    Blocks with a single unpruned candidate are selected deterministically and
    consume no randomness, so degenerate spaces reduce to plain training.
    """
    selections = []
    log_prob = 0.0
    masks = []
    for edge in net.edges:
        alive = edge.unpruned_indices()
        if alive.size == 1:
            idx = int(alive[0])
        else:
            probs = edge.probabilities()
            cdf = np.cumsum(probs)
            # pruned entries have zero mass, so searchsorted can never land on
            # them; clamp covers u falling past a cdf that rounds below 1.
            idx = int(np.searchsorted(cdf, rng.random(), side="right"))
            idx = min(idx, int(alive[-1]))
            log_prob += float(np.log(probs[idx]))
        selections.append(idx)
        masks.append(Tensor(np.array(1.0), requires_grad=True))
    return PathSample(selections=tuple(selections), log_prob=log_prob, mask_scalars=masks)


def forward_path(
    net: Supernet,
    path: PathSample,
    features: Tensor,
    labels: np.ndarray,
) -> tuple[Tensor, Tape]:
    """Run only the selected candidates, mask each block output, return CE loss.

    Every block output is multiplied by that block's scalar mask (value one,
    recorded on the tape) so that after backward the mask gradient equals the
    inner product of the output feature map with its upstream gradient.
    """
    if features.shape[1:] != net.input_shape:
        raise DataError(
            f"batch shape {features.shape} does not match input shape "
            f"{net.input_shape}"
        )
    tape = Tape()
    x = net.stem.forward(features, tape)
    for edge, idx, mask in zip(net.edges, path.selections, path.mask_scalars):
        if edge.pruned[idx]:
            raise UsageError(f"sampled candidate {idx} is pruned")
        x = edge.candidates[idx].forward(x, tape)
        x = tz.scale(x, mask, tape)
        net.counters.candidate_executions += 1
    logits = net.head.forward(x, tape)
    loss = tz.softmax_cross_entropy(logits, labels, tape)
    return loss, tape


def forward_logits(
    net: Supernet, selections: tuple[int, ...] | list[int], features: Tensor
) -> Tensor:
    """Deterministic unmasked forward along a fixed path (no tape)."""
    x = net.stem.forward(features, None)
    for edge, idx in zip(net.edges, selections):
        x = edge.candidates[idx].forward(x, None)
    return net.head.forward(x, None)


def alpha_gradient(edge: ChoiceEdge, selected: int, mask_grad: float) -> np.ndarray:
    """Score-function architecture gradient: mask_grad * (onehot - probs).

    Pruned positions receive exactly zero.
    """
    if edge.pruned[selected]:
        raise UsageError(f"alpha gradient for pruned candidate {selected}")
    if not math.isfinite(mask_grad):
        raise NumericalError("mask gradient is not finite")
    probs = edge.probabilities()
    grad = -mask_grad * probs
    grad[selected] += mask_grad
    grad[edge.pruned] = 0.0
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


@dataclass
class ChildArchitecture:
    """A deployable network: argmax candidate per block with frozen weights."""

    stem: object
    ops: list[CandidateOp]
    head: LinearHead
    selections: tuple[int, ...]
    kinds: tuple[str, ...]
    input_shape: tuple[int, ...]
    num_classes: int

    def forward(self, features: Tensor) -> Tensor:
        x = self.stem.forward(features, None)
        for op in self.ops:
            x = op.forward(x, None)
        return self.head.forward(x, None)

    def num_params(self) -> int:
        total = sum(t.size for _, t in self.stem.tensors())
        total += sum(t.size for op in self.ops for _, t in op.tensors())
        total += sum(t.size for _, t in self.head.tensors())
        return total

    def describe(self) -> str:
        lines = [
            "child-architecture v1",
            f"input_shape = {'x'.join(str(d) for d in self.input_shape)}",
            f"num_classes = {self.num_classes}",
            f"blocks = {len(self.ops)}",
            f"params = {self.num_params()}",
        ]
        for i, (idx, kind, op) in enumerate(zip(self.selections, self.kinds, self.ops)):
            n_params = sum(t.size for _, t in op.tensors())
            lines.append(f"block {i}: candidate {idx} ({kind}, {n_params} params)")
        return "\n".join(lines) + "\n"


def derive_child(net: Supernet) -> ChildArchitecture:
    """Pick the unpruned argmax-alpha candidate per block (ties: lowest index).

    Weights are copied, so the child is unaffected by further supernet
    training and needs no retraining itself.
    """
    selections = []
    for edge in net.edges:
        masked = np.where(edge.pruned, -np.inf, edge.alpha)
        selections.append(int(np.argmax(masked)))
    ops = [
        copy.deepcopy(edge.candidates[idx]) for edge, idx in zip(net.edges, selections)
    ]
    return ChildArchitecture(
        stem=copy.deepcopy(net.stem),
        ops=ops,
        head=copy.deepcopy(net.head),
        selections=tuple(selections),
        kinds=tuple(op.kind for op in ops),
        input_shape=net.input_shape,
        num_classes=net.num_classes,
    )


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
    """Copy all weights (and optionally all alpha) into one blob, in canonical order."""
    return ParameterBlob(
        layout=expected_layout(net, include_alpha),
        values=np.concatenate([a.ravel() for _, a in _named_arrays(net, include_alpha)]),
    )


def unflatten_params(net: Supernet, blob: ParameterBlob) -> None:
    """Load a blob into the net, validating the full layout first.

    A blob without alpha records (fixed-architecture exchange) loads weights
    only. Any divergence reports the first mismatching record by name.
    """
    check_layout(expected_layout(net, include_alpha=blob.has_alpha()), blob)
    offset = 0
    for _, array in _named_arrays(net, include_alpha=blob.has_alpha()):
        array[...] = blob.values[offset : offset + array.size].reshape(array.shape)
        offset += array.size
