"""Dense tensors with tape-based reverse-mode automatic differentiation.

Deliberately small: just the primitives needed to express convolutional
candidate operations, a linear classifier head and the cross-entropy training
loss, each with an exact backward rule. No mask goes on the tape; `scale`, a
tensor times a scalar tensor, remains only as the tests' unit-mask oracle.
Every primitive computes in the dtype of its inputs. The training net runs
in float32; the gradient checks run in float64, which gives them headroom.

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
    """A dense array plus a gradient slot of the same shape and dtype. Without a
    `dtype`, a float32 or float64 array keeps its dtype; anything else becomes
    float64."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.array(data, dtype=dtype)  # copy: a tensor owns its storage
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
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

    __slots__ = ("_records", "_consumed")

    def __init__(self):
        self._records: list[tuple[tuple[Tensor, ...], Tensor, _BackwardFn]] = []
        self._consumed = False

    def record(self, inputs: tuple[Tensor, ...], output: Tensor, backward: _BackwardFn) -> None:
        self._records.append((inputs, output, backward))

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
            # a primitive's output requires grad iff one of its inputs does
            needs = tuple(t.requires_grad for t in inputs)
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
    """Multiply a tensor by a scalar tensor (a feature-map mask, in the tests).

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
    """Add a rank-1 bias along axis 1: per column of (N, D), per channel of NCHW."""
    if x.data.ndim not in (2, 4) or b.data.ndim != 1 or b.shape[0] != x.shape[1]:
        raise DimensionError(f"bias_add: bias {b.shape} does not fit input {x.shape}")
    out_arr = x.data + b.data.reshape(-1, *(1,) * (x.data.ndim - 2))
    reduce_axes = (0, *range(2, x.data.ndim))
    out = _wrap(out_arr, "bias_add", x.requires_grad or b.requires_grad)
    if tape is not None:
        def backward(g, needs):
            dx = g if needs[0] else None
            db = g.sum(axis=reduce_axes) if needs[1] else None
            return dx, db

        tape.record((x, b), out, backward)
    return out


def _columns(a: np.ndarray, k: int) -> np.ndarray:
    """The k x k windows of a (C, H, W, N) array zero-padded by k // 2, as
    (C, k, k, H, W, N) columns: each window copy runs over W * N contiguous floats."""
    c, h, w, n = a.shape
    p = k // 2
    if p:  # a 1x1 kernel's one window is `a` itself
        padded = np.zeros((c, h + 2 * p, w + 2 * p, n), dtype=a.dtype)
        padded[:, p : p + h, p : p + w] = a
        a = padded
    cols = np.empty((c, k, k, h, w, n), dtype=a.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = a[:, i : i + h, j : j + w]
    return cols


def conv2d(x: Tensor, kernel: Tensor, *, groups: int = 1, tape: Tape | None = None) -> Tensor:
    """2-D stride-1 cross-correlation of an NCHW input with an FCkk kernel,
    zero-padded by k // 2 so the output keeps the input's H x W.

    With groups > 1 the kernel is F x (C/groups) x k x k and input/output
    channels are split into `groups` independent bands (groups == C gives a
    depthwise convolution).

    Every contraction keeps the batch innermost: the input is copied once
    into a zero-padded (C, Hp, Wp, N) buffer, its columns are laid out
    (C, k, k, H, W, N), and each contraction is one `np.matmul` with the group
    as its batch axis. The output matches a per-group einsum bit for bit
    (tests pin this). The kernel gradient is the upstream gradient, as a
    (G, F/G, H*W*N) matrix, times the columns transposed. The input gradient
    is the stride-1 transposed convolution: the upstream gradient, padded by
    k - 1 - k // 2 = k // 2, correlated with the flipped kernel whose in and
    out channels swap within each group. Both gradients sum in another order
    than the einsum (tests bound the difference). The tape copies the NCHW
    dx view to C order.
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
    if groups < 1 or c % groups != 0 or f % groups != 0 or c_per_group * groups != c:
        raise DimensionError(
            f"conv2d: input {x.shape} and kernel {kernel.shape} incompatible "
            f"for groups={groups}"
        )
    f_per_group = f // groups
    m = h * w * n  # columns per group

    cols = _columns(x.data.transpose(1, 2, 3, 0), k).reshape(groups, c_per_group * k * k, m)
    out_arr = np.matmul(kernel.data.reshape(groups, f_per_group, c_per_group * k * k), cols)
    out_arr = out_arr.reshape(f, h, w, n).transpose(3, 0, 1, 2)
    out = _wrap(np.ascontiguousarray(out_arr), "conv2d", x.requires_grad or kernel.requires_grad)

    if tape is not None:
        def backward(g, needs):
            gm = np.ascontiguousarray(g.transpose(1, 2, 3, 0))  # (F, H, W, N)
            dk = None
            if needs[1]:
                dk = np.matmul(gm.reshape(groups, f_per_group, m), cols.transpose(0, 2, 1))
                dk = dk.reshape(kernel.shape)
            dx = None
            if needs[0]:
                gcols = _columns(gm, k).reshape(groups, f_per_group * k * k, m)
                flipped = kernel.data.reshape(groups, f_per_group, c_per_group, k, k)[..., ::-1, ::-1]
                kt = flipped.transpose(0, 2, 1, 3, 4).reshape(groups, c_per_group, -1)
                dx = np.matmul(kt, gcols).reshape(c, h, w, n).transpose(3, 0, 1, 2)
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

    step() applies v <- momentum * v + grad, param <- param - lr * v, then
    clears the grads. Parameters without a gradient are skipped and their
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

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v += p.grad
            p.data -= self.lr * v
            p.grad = None


def global_grad_norm(params: Sequence[Tensor]) -> float:
    """L2 norm over all gradients of `params`, squared and summed in float64
    (a float32 square overflows from |g| = 1.8e19)."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.square(p.grad, dtype=np.float64).sum())
    return float(np.sqrt(total))
