"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Deliberately small: just the primitives needed to express convolutional
candidate operations, a linear classifier head, scalar feature-map masks and
the cross-entropy training loss, each with an exact backward rule. Everything
is float64 so gradient checks and aggregation identities have headroom.

A tape and its tensors belong to one worker at a time; hand them off whole,
never share them mutably. There is no global state.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    DataError,
    DimensionError,
    NumericalError,
    UsageError,
)


def _ensure_finite(arr: np.ndarray, op: str) -> None:
    # Never let NaN/Inf propagate silently.
    if not np.isfinite(arr).all():
        raise NumericalError(f"{op} produced a non-finite value")


class Tensor:
    """A dense float64 array plus a gradient slot of the same shape."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)  # copy: a tensor owns its storage
        _ensure_finite(arr, "Tensor")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def copy(self) -> "Tensor":
        return Tensor(self.data, requires_grad=self.requires_grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _wrap(arr: np.ndarray, op: str, requires_grad: bool) -> Tensor:
    # Internal constructor that adopts `arr` without copying.
    _ensure_finite(arr, op)
    t = Tensor.__new__(Tensor)
    t.data = arr
    t.grad = None
    t.requires_grad = requires_grad
    return t


_BackwardFn = Callable[[np.ndarray, tuple[bool, ...]], tuple]


class Tape:
    """Recorded primitive applications for one forward pass.

    Replaying the backward rules in reverse recording order yields gradients
    for every requires_grad tensor reachable from the loss. A tape is consumed
    by exactly one backward pass.
    """

    __slots__ = ("_records", "_produced", "_consumed")

    def __init__(self):
        self._records: list[tuple[tuple[Tensor, ...], Tensor, _BackwardFn]] = []
        self._produced: set[int] = set()
        self._consumed = False

    def record(self, inputs: tuple[Tensor, ...], output: Tensor, backward: _BackwardFn) -> None:
        self._records.append((inputs, output, backward))
        self._produced.add(id(output))

    def __len__(self) -> int:
        return len(self._records)

    @property
    def live_tensors(self) -> int:
        """Number of distinct tensors held live by this tape."""
        seen: set[int] = set()
        for inputs, output, _ in self._records:
            seen.update(id(t) for t in inputs)
            seen.add(id(output))
        return len(seen)

    def backward(self, loss: Tensor) -> None:
        if self._consumed:
            raise UsageError("tape already consumed by a backward pass")
        if loss.size != 1:
            raise UsageError(f"backward from non-scalar tensor of shape {loss.shape}")
        self._consumed = True
        loss.grad = np.ones_like(loss.data)
        for inputs, output, backward in reversed(self._records):
            g = output.grad
            if g is None:
                continue  # output did not influence the loss
            needs = tuple(t.requires_grad or id(t) in self._produced for t in inputs)
            grads = backward(g, needs)
            for t, need, dt in zip(inputs, needs, grads):
                if not need or dt is None:
                    continue
                _ensure_finite(dt, "backward")
                if t.grad is None:
                    # A fresh C-ordered array, never an alias of dt: reductions
                    # over a gradient (clip norm, bias) sum in memory order.
                    t.grad = np.add(dt, 0.0, order="C")
                else:
                    t.grad += dt


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = _wrap(a.data @ b.data, "matmul", a.requires_grad or b.requires_grad)
    if tape is not None:
        a_data, b_data = a.data, b.data

        def backward(g, needs):
            da = g @ b_data.T if needs[0] else None
            db = a_data.T @ g if needs[1] else None
            return da, db

        tape.record((a, b), out, backward)
    return out


def add(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.shape != b.shape:
        raise DimensionError(f"add: shape mismatch {a.shape} vs {b.shape}")
    out = _wrap(a.data + b.data, "add", a.requires_grad or b.requires_grad)
    if tape is not None:
        def backward(g, needs):
            return (g if needs[0] else None, g if needs[1] else None)

        tape.record((a, b), out, backward)
    return out


def mul(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    if a.shape != b.shape:
        raise DimensionError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    out = _wrap(a.data * b.data, "mul", a.requires_grad or b.requires_grad)
    if tape is not None:
        a_data, b_data = a.data, b.data

        def backward(g, needs):
            return (g * b_data if needs[0] else None, g * a_data if needs[1] else None)

        tape.record((a, b), out, backward)
    return out


def scale(x: Tensor, s: Tensor, tape: Tape | None = None) -> Tensor:
    """Multiply a tensor by a scalar tensor (the feature-map mask primitive).

    The gradient of the scalar is the inner product of upstream gradient and
    the unscaled input, which is exactly the signal the architecture update
    consumes when the scalar is a mask of value one.
    """
    if s.size != 1:
        raise DimensionError(f"scale: scalar operand has shape {s.shape}")
    out = _wrap(x.data * s.data.reshape(()), "scale", x.requires_grad or s.requires_grad)
    if tape is not None:
        x_data, s_val = x.data, float(s.data.reshape(()))

        def backward(g, needs):
            dx = g * s_val if needs[0] else None
            ds = np.array((g * x_data).sum()).reshape(s.shape) if needs[1] else None
            return dx, ds

        tape.record((x, s), out, backward)
    return out


def relu(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Elementwise max(0, x). Subgradient at exactly 0 is 0."""
    mask = x.data > 0
    out = _wrap(np.where(mask, x.data, 0.0), "relu", x.requires_grad)
    if tape is not None:
        def backward(g, needs):
            return (g * mask if needs[0] else None,)

        tape.record((x,), out, backward)
    return out


def bias_add(x: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Add a rank-1 bias: per channel for NCHW inputs, per column for ND inputs."""
    if b.data.ndim != 1:
        raise DimensionError(f"bias_add: bias must be rank 1, got shape {b.shape}")
    if x.data.ndim == 4:
        if b.shape[0] != x.shape[1]:
            raise DimensionError(f"bias_add: bias {b.shape} vs channels of {x.shape}")
        out_arr = x.data + b.data[None, :, None, None]
        reduce_axes: tuple[int, ...] = (0, 2, 3)
    elif x.data.ndim == 2:
        if b.shape[0] != x.shape[1]:
            raise DimensionError(f"bias_add: bias {b.shape} vs columns of {x.shape}")
        out_arr = x.data + b.data[None, :]
        reduce_axes = (0,)
    else:
        raise DimensionError(f"bias_add: unsupported input rank {x.data.ndim}")
    out = _wrap(out_arr, "bias_add", x.requires_grad or b.requires_grad)
    if tape is not None:
        def backward(g, needs):
            dx = g if needs[0] else None
            db = g.sum(axis=reduce_axes) if needs[1] else None
            return dx, db

        tape.record((x, b), out, backward)
    return out


def _conv_out_size(size: int, k: int, stride: int, padding: int) -> int:
    span = size + 2 * padding - k
    if span < 0 or span % stride != 0:
        raise ConfigurationError(
            f"conv2d: output size not integral for input {size}, kernel {k}, "
            f"stride {stride}, padding {padding}"
        )
    return span // stride + 1


def conv2d(
    x: Tensor,
    kernel: Tensor,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
    tape: Tape | None = None,
) -> Tensor:
    """2-D cross-correlation of an NCHW input with an FCkk kernel.

    With groups > 1 the kernel is F x (C/groups) x k x k and input/output
    channels are split into `groups` independent bands (groups == C gives a
    depthwise convolution).

    Each contraction (output, kernel gradient, column gradient) is one
    `np.matmul` with the group as its batch axis. Its operand shapes and
    layouts are those `einsum(optimize=True)` gives a per-group contraction,
    so results match a per-group einsum bit for bit (tests pin this).
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise DimensionError(
            f"conv2d: expected 4-d input and kernel, got {x.shape} and {kernel.shape}"
        )
    n, c, h, w = x.shape
    f, c_per_group, kh, kw = kernel.shape
    if kh != kw:
        raise ConfigurationError(f"conv2d: kernel must be square, got {kh}x{kw}")
    k = kh
    if k % 2 != 1:
        raise ConfigurationError(f"conv2d: kernel size must be odd, got {k}")
    if stride < 1 or padding < 0:
        raise ConfigurationError(f"conv2d: bad stride {stride} or padding {padding}")
    if groups < 1 or c % groups != 0 or f % groups != 0 or c_per_group * groups != c:
        raise DimensionError(
            f"conv2d: input {x.shape} and kernel {kernel.shape} incompatible "
            f"for groups={groups}"
        )
    h_out = _conv_out_size(h, k, stride, padding)
    w_out = _conv_out_size(w, k, stride, padding)
    f_per_group = f // groups
    m = n * h_out * w_out  # columns per group
    padded = (n, c, h + 2 * padding, w + 2 * padding)
    windows = [
        (i, j, np.s_[:, :, i : i + (h_out - 1) * stride + 1 : stride,
                     j : j + (w_out - 1) * stride + 1 : stride])
        for i in range(k)
        for j in range(k)
    ]

    if padding:
        xp = np.zeros(padded, dtype=np.float64)
        xp[:, :, padding : padding + h, padding : padding + w] = x.data
    else:
        xp = x.data
    # Columns laid out (C, k, k, N, Ho, Wo): each group's block is a
    # C-contiguous (C/groups * k * k, N * Ho * Wo) matrix.
    cols = np.empty((c, k, k, n, h_out, w_out), dtype=np.float64)
    xp_cn = xp.transpose(1, 0, 2, 3)
    for i, j, window in windows:
        cols[:, i, j] = xp_cn[window]
    cols = cols.reshape(groups, c_per_group * k * k, m)
    kmat = kernel.data.reshape(groups, f_per_group, c_per_group * k * k)

    out_arr = np.matmul(kmat, cols).reshape(f, n, h_out, w_out).transpose(1, 0, 2, 3)
    out = _wrap(np.ascontiguousarray(out_arr), "conv2d", x.requires_grad or kernel.requires_grad)

    if tape is not None:
        def backward(g, needs):
            g_groups = g.reshape(n, groups, f_per_group, h_out * w_out)
            dk = None
            if needs[1]:
                # (G, N*Ho*Wo, F/G), C-contiguous
                gt = np.ascontiguousarray(g_groups.transpose(1, 0, 3, 2))
                dk = np.matmul(cols, gt.reshape(groups, m, f_per_group))
                dk = dk.transpose(0, 2, 1).reshape(kernel.shape)
            dx = None
            if needs[0]:
                # (G, F/G, N*Ho*Wo), C-contiguous
                gm = np.ascontiguousarray(g_groups.transpose(1, 2, 0, 3))
                dcols = np.matmul(kmat.transpose(0, 2, 1), gm.reshape(groups, f_per_group, m))
                dcols = dcols.reshape(c, k, k, n, h_out, w_out).transpose(3, 0, 1, 2, 4, 5)
                dxp = np.zeros(padded, dtype=np.float64)
                for i, j, window in windows:
                    dxp[window] += dcols[:, :, i, j]
                dx = dxp[:, :, padding : padding + h, padding : padding + w] if padding else dxp
            return dx, dk

        tape.record((x, kernel), out, backward)
    return out


def channel_shuffle(x: Tensor, groups: int, tape: Tape | None = None) -> Tensor:
    """Interleave channel groups (the shuffle step of grouped-conv blocks)."""
    if x.data.ndim != 4:
        raise DimensionError(f"channel_shuffle: expected 4-d input, got {x.shape}")
    c = x.shape[1]
    if groups < 1 or c % groups != 0:
        raise ConfigurationError(f"channel_shuffle: {c} channels not divisible by {groups}")
    perm = np.arange(c).reshape(groups, c // groups).T.ravel()
    inv = np.argsort(perm)
    out = _wrap(np.ascontiguousarray(x.data[:, perm]), "channel_shuffle", x.requires_grad)
    if tape is not None:
        def backward(g, needs):
            return (np.ascontiguousarray(g[:, inv]) if needs[0] else None,)

        tape.record((x,), out, backward)
    return out


def flatten_batch(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Reshape (N, ...) to (N, D)."""
    n = x.shape[0]
    shape = x.shape
    out = _wrap(x.data.reshape(n, -1), "flatten_batch", x.requires_grad)
    if tape is not None:
        def backward(g, needs):
            return (g.reshape(shape) if needs[0] else None,)

        tape.record((x,), out, backward)
    return out


def sum_all(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Sum of every element, as a 0-d tensor."""
    out = _wrap(np.array(x.data.sum()), "sum_all", x.requires_grad)
    if tape is not None:
        shape = x.shape

        def backward(g, needs):
            return (np.broadcast_to(g, shape).copy() if needs[0] else None,)

        tape.record((x,), out, backward)
    return out


def softmax_cross_entropy(
    logits: Tensor, labels: np.ndarray, tape: Tape | None = None
) -> Tensor:
    """Mean negative log softmax probability of the true class.

    `labels` are integer class indices of length N. Stabilized by row-max
    subtraction; the backward rule is (softmax - onehot) / N.
    """
    if logits.data.ndim != 2:
        raise DimensionError(f"softmax_cross_entropy: logits must be 2-d, got {logits.shape}")
    labels = np.asarray(labels)
    n, num_classes = logits.shape
    if labels.shape != (n,):
        raise DimensionError(
            f"softmax_cross_entropy: {n} rows of logits vs labels shape {labels.shape}"
        )
    bad = np.nonzero((labels < 0) | (labels >= num_classes))[0]
    if bad.size:
        i = int(bad[0])
        raise DataError(
            f"label {int(labels[i])} at index {i} outside [0, {num_classes})"
        )
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    losses = lse[:, 0] - z[np.arange(n), labels]
    out = _wrap(np.array(losses.mean()), "softmax_cross_entropy", logits.requires_grad)
    if tape is not None:
        probs = np.exp(z - lse)

        def backward(g, needs):
            if not needs[0]:
                return (None,)
            d = probs.copy()
            d[np.arange(n), labels] -= 1.0
            return (d * (float(g.reshape(())) / n),)

        tape.record((logits,), out, backward)
    return out


class SGD:
    """SGD with optional momentum over a fixed set of parameters.

    step() requires every parameter to carry a gradient, applies
    v <- momentum * v + grad, param <- param - lr * v, then clears the grads.
    With strict=False, parameters without a gradient are skipped and their
    velocity left untouched (single-path training only visits the sampled
    candidates each batch).
    """

    def __init__(self, params: Iterable[Tensor], lr: float, momentum: float = 0.0):
        if lr < 0:
            raise UsageError(f"learning rate must be >= 0, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise UsageError(f"momentum must be in [0, 1), got {momentum}")
        self.params = list(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self, strict: bool = True) -> None:
        if strict:
            for p in self.params:
                if p.grad is None:
                    raise UsageError("sgd step: parameter is missing its gradient")
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v += p.grad
            p.data -= self.lr * v
            p.grad = None


def global_grad_norm(params: Sequence[Tensor]) -> float:
    """L2 norm over all gradients of `params` (for optional clipping)."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    return float(np.sqrt(total))
