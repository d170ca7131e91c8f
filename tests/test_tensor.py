"""Tensor primitives: hand-checked values, finite-difference gradient checks,
composite chain rule against a dual-number oracle, determinism."""

from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import Dual, fd_gradient, rel_err

from dfnas import tensor as tz
from dfnas.errors import (
    ConfigurationError,
    DataError,
    DimensionError,
    NumericalError,
    UsageError,
)
from dfnas.tensor import SGD, Tape, Tensor


# --- matmul ---


def test_matmul_identity():
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    assert np.array_equal(tz.matmul(eye, m).data, m.data)


def test_matmul_hand_values():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[1.0], [1.0]])
    assert np.array_equal(tz.matmul(a, b).data, [[3.0], [7.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError) as exc:
        tz.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    a = Tensor(rng.normal(size=(5, 7)), requires_grad=True)
    b = Tensor(rng.normal(size=(7, 3)), requires_grad=True)

    tape = Tape()
    out = tz.matmul(a, b, tape)
    loss = tz.sum_all(tz.mul(out, out, tape), tape)
    tape.backward(loss)

    def f_a(x):
        prod = x @ b.data
        return float((prod * prod).sum())

    def f_b(x):
        prod = a.data @ x
        return float((prod * prod).sum())

    assert rel_err(a.grad, fd_gradient(f_a, a.data)) < 1e-6
    assert rel_err(b.grad, fd_gradient(f_b, b.data)) < 1e-6


# --- conv2d ---


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(1, 1, 5, 5)))
    k = Tensor(np.ones((1, 1, 1, 1)))
    out = tz.conv2d(x, k)
    assert np.array_equal(out.data, x.data)


def test_conv2d_counting_kernel():
    # zero padding k // 2: each output counts the input cells its window covers
    x = Tensor(np.ones((1, 1, 3, 3)))
    k = Tensor(np.ones((1, 1, 3, 3)))
    out = tz.conv2d(x, k)
    assert np.array_equal(out.data[0, 0], [[4, 6, 4], [6, 9, 6], [4, 6, 4]])


def test_conv2d_rejects_even_kernel():
    with pytest.raises(ConfigurationError):
        tz.conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2))))


def test_conv2d_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(2, 3, 8, 8)), requires_grad=True)
    k = Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.5, requires_grad=True)
    w = rng.normal(size=(2, 4, 8, 8))  # fixed projection to a scalar

    tape = Tape()
    out = tz.conv2d(x, k, tape=tape)
    loss = tz.sum_all(tz.mul(out, Tensor(w), tape), tape)
    tape.backward(loss)

    def f_x(v):
        c = tz.conv2d(Tensor(v), Tensor(k.data))
        return float((c.data * w).sum())

    def f_k(v):
        c = tz.conv2d(Tensor(x.data), Tensor(v))
        return float((c.data * w).sum())

    assert rel_err(x.grad, fd_gradient(f_x, x.data)) < 1e-5
    assert rel_err(k.grad, fd_gradient(f_k, k.data)) < 1e-5


def _einsum_conv2d(x, kernel, groups, g):
    """Reference: the earlier per-group einsum conv2d, as (out, dx, dk) for
    upstream gradient g. Kept to pin conv2d's output bit for bit and its
    gradients to a stated tolerance."""
    n, c, h, w = x.shape
    f, c_per_group, k, _ = kernel.shape
    padding = k // 2
    h_out = h + 2 * padding - k + 1
    w_out = w + 2 * padding - k + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    window = [[np.s_[:, :, i : i + h_out, j : j + w_out] for j in range(k)] for i in range(k)]
    cols = np.empty((n, c, k, k, h_out, w_out))
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[window[i][j]]
    f_per_group = f // groups
    out = np.empty((n, f, h_out, w_out))
    dk = np.empty_like(kernel)
    dxp = np.zeros_like(xp)
    for gi in range(groups):
        cs = slice(gi * c_per_group, (gi + 1) * c_per_group)
        fs = slice(gi * f_per_group, (gi + 1) * f_per_group)
        out[:, fs] = np.einsum("ncijhw,fcij->nfhw", cols[:, cs], kernel[fs], optimize=True)
        dk[fs] = np.einsum("nfhw,ncijhw->fcij", g[:, fs], cols[:, cs], optimize=True)
        dcols = np.einsum("nfhw,fcij->ncijhw", g[:, fs], kernel[fs], optimize=True)
        for i in range(k):
            for j in range(k):
                dxp[:, cs][window[i][j]] += dcols[:, :, i, j]
    return out, dxp[:, :, padding : padding + h, padding : padding + w], dk


# (batch, in channels, out channels, kernel, groups) and input (height,
# width): the shapes the search space runs, at training batch 32, evaluation
# batch 256 and a ragged last batch, plus a non-square input, a
# single-sample depthwise batch, and 2x5 inputs smaller than the kernel.
CONV_SHAPES = {
    "dense-k3-b32": ((32, 4, 4, 3, 1), (8, 8)),
    "dense-k5-b32": ((32, 4, 4, 5, 1), (8, 8)),
    "dense-k3-b256": ((256, 4, 4, 3, 1), (8, 8)),
    "dense-k5-b256": ((256, 4, 4, 5, 1), (8, 8)),
    "dense-k3-ragged": ((13, 4, 4, 3, 1), (8, 8)),
    "dense-k5-ragged": ((13, 4, 4, 5, 1), (8, 8)),
    "depthwise-k3g8": ((32, 8, 8, 3, 8), (8, 8)),
    "grouped-k1g2": ((32, 8, 8, 1, 2), (8, 8)),
    "stem-k1-from-1": ((32, 1, 4, 1, 1), (8, 8)),
    "pointwise-8to8": ((32, 8, 8, 1, 1), (8, 8)),
    "dense-k5-nonsquare-8x6": ((32, 4, 4, 5, 1), (8, 6)),
    "depthwise-k3g8-b1": ((1, 8, 8, 3, 8), (8, 8)),
    **{f"dense-k{k}-2x5": ((4, 2, 3, k, 1), (2, 5)) for k in (1, 3, 5, 7)},
}


def _conv2d_case(shape, hw):
    """A random conv2d case: x, kernel, upstream gradient g, and conv2d's
    (out, dx, dk) for it."""
    n, c, f, k, groups = shape
    rng = np.random.default_rng(sum(shape) + 1)  # + 1 keeps each case's established draws
    x = Tensor(rng.normal(size=(n, c, *hw)), requires_grad=True)
    kernel = Tensor(rng.normal(size=(f, c // groups, k, k)), requires_grad=True)

    tape = Tape()
    out = tz.conv2d(x, kernel, groups=groups, tape=tape)
    g = rng.normal(size=out.shape)
    tape.backward(tz.sum_all(tz.mul(out, Tensor(g), tape), tape))
    return x.data, kernel.data, g, (out.data, x.grad, kernel.grad)


def _conv2d_against_einsum(shape, hw):
    """conv2d's (out, dx, dk) and the einsum reference's, for a random case."""
    x, kernel, g, got = _conv2d_case(shape, hw)
    return got, _einsum_conv2d(x, kernel, shape[4], g)


@pytest.mark.parametrize("shape, hw", CONV_SHAPES.values(), ids=CONV_SHAPES.keys())
def test_conv2d_bit_identical_to_per_group_einsum(shape, hw):
    # The output, bit for bit; the gradients' layout.
    (out, dx, dk), (ref_out, _, _) = _conv2d_against_einsum(shape, hw)
    assert out.shape == (shape[0], shape[2], *hw)
    # Layout matters too: reductions over a gradient (the clip norm, bias
    # gradients) sum in memory order.
    for arr in (out, dx, dk):
        assert arr.flags.c_contiguous
    assert np.array_equal(out, ref_out)


@pytest.mark.parametrize("shape, hw", CONV_SHAPES.values(), ids=CONV_SHAPES.keys())
def test_conv2d_gradients_close_to_per_group_einsum(shape, hw):
    # dx is a transposed convolution and dk takes the batch innermost, so both
    # sum in another order than the einsum. Allowed: 1e-14 (about 45 float64
    # epsilons) of the largest reference magnitude; the largest difference
    # over these cases is under 1.5e-15 of it.
    (_, dx, dk), (_, ref_dx, ref_dk) = _conv2d_against_einsum(shape, hw)
    for arr, ref_arr in ((dx, ref_dx), (dk, ref_dk)):
        np.testing.assert_allclose(arr, ref_arr, rtol=0, atol=1e-14 * np.abs(ref_arr).max())


@pytest.mark.parametrize("shape, hw", CONV_SHAPES.values(), ids=CONV_SHAPES.keys())
def test_conv2d_gradients_are_adjoint_to_the_forward(shape, hw):
    # conv2d is linear in x and in the kernel, so <out, g> = <x, dx> =
    # <kernel, dk>. This pins the flip and the channel transpose of the
    # transposed convolution without the einsum reference.
    x, kernel, g, (out, dx, dk) = _conv2d_case(shape, hw)
    inner = float((out * g).sum())
    assert float((x * dx).sum()) == pytest.approx(inner, rel=1e-12)
    assert float((kernel * dk).sum()) == pytest.approx(inner, rel=1e-12)


@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_conv2d_keeps_shape_of_input_smaller_than_kernel(k):
    # At 1x1, einsum hands BLAS the column matrix transposed (conv2d passes
    # it C-contiguous), and BLAS may sum the two layouts in different orders:
    # close, not bit-identical.
    got, ref = _conv2d_against_einsum((4, 2, 3, k, 1), (1, 1))
    assert got[0].shape == (4, 3, 1, 1)
    for arr, ref_arr in zip(got, ref):
        np.testing.assert_allclose(arr, ref_arr, rtol=0, atol=1e-13)


# --- relu ---


def test_relu_values():
    x = Tensor([-1.0, 0.0, 2.0])
    assert np.array_equal(tz.relu(x).data, [0.0, 0.0, 2.0])


def test_relu_all_negative_zero_gradient():
    x = Tensor([[-3.0, -1.0], [-0.5, -2.0]], requires_grad=True)
    tape = Tape()
    out = tz.relu(x, tape)
    assert np.array_equal(out.data, np.zeros((2, 2)))
    tape.backward(tz.sum_all(out, tape))
    assert np.array_equal(x.grad, np.zeros((2, 2)))


def test_relu_gradient_away_from_kink():
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(4, 6))
    vals[np.abs(vals) < 1e-3] = 0.5  # exclude the kink
    x = Tensor(vals, requires_grad=True)
    tape = Tape()
    out = tz.relu(x, tape)
    loss = tz.sum_all(tz.mul(out, out, tape), tape)
    tape.backward(loss)

    def f(v):
        r = np.where(v > 0, v, 0.0)
        return float((r * r).sum())

    assert rel_err(x.grad, fd_gradient(f, vals)) < 1e-6


# --- softmax cross entropy ---


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((3, 10)))
    loss = tz.softmax_cross_entropy(logits, np.array([0, 5, 9]))
    assert abs(loss.item() - math.log(10)) < 1e-12


def test_cross_entropy_saturated_true_class():
    logits = np.zeros((2, 4))
    logits[0, 1] = 1000.0
    logits[1, 3] = 1000.0
    loss = tz.softmax_cross_entropy(Tensor(logits), np.array([1, 3]))
    assert loss.item() < 1e-9


def test_cross_entropy_rejects_bad_label():
    with pytest.raises(DataError) as exc:
        tz.softmax_cross_entropy(Tensor(np.zeros((3, 4))), np.array([0, 4, 1]))
    assert "index 1" in str(exc.value)


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    logits = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    labels = np.array([0, 2, 4, 1])
    tape = Tape()
    loss = tz.softmax_cross_entropy(logits, labels, tape)
    tape.backward(loss)

    def f(v):
        return tz.softmax_cross_entropy(Tensor(v), labels).item()

    assert rel_err(logits.grad, fd_gradient(f, logits.data)) < 1e-6


# --- other primitives ---


def test_scale_passes_inner_product_to_scalar():
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    s = Tensor(np.array(1.0), requires_grad=True)
    w = rng.normal(size=(3, 4))
    tape = Tape()
    out = tz.scale(x, s, tape)
    loss = tz.sum_all(tz.mul(out, Tensor(w), tape), tape)
    tape.backward(loss)
    assert abs(float(s.grad) - float((w * x.data).sum())) < 1e-12
    assert np.allclose(x.grad, w)


def test_channel_shuffle_round_trip_and_gradient():
    rng = np.random.default_rng(23)
    x = Tensor(rng.normal(size=(2, 6, 3, 3)), requires_grad=True)
    tape = Tape()
    out = tz.channel_shuffle(x, 2, tape)
    # groups=2 over 6 channels interleaves (0,3,1,4,2,5)
    assert np.array_equal(out.data[:, 1], x.data[:, 3])
    w = rng.normal(size=out.shape)
    loss = tz.sum_all(tz.mul(out, Tensor(w), tape), tape)
    tape.backward(loss)

    def f(v):
        perm = np.arange(6).reshape(2, 3).T.ravel()
        return float((v[:, perm] * w).sum())

    assert rel_err(x.grad, fd_gradient(f, x.data)) < 1e-6


def test_bias_add_gradients_2d_and_4d():
    rng = np.random.default_rng(29)
    for shape in [(3, 5), (2, 3, 4, 4)]:
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        b = Tensor(rng.normal(size=(shape[1],)), requires_grad=True)
        w = rng.normal(size=shape)
        tape = Tape()
        out = tz.bias_add(x, b, tape)
        loss = tz.sum_all(tz.mul(out, Tensor(w), tape), tape)
        tape.backward(loss)

        def f_b(v):
            if len(shape) == 4:
                o = x.data + v[None, :, None, None]
            else:
                o = x.data + v[None, :]
            return float((o * w).sum())

        assert rel_err(b.grad, fd_gradient(f_b, b.data)) < 1e-6
        assert np.allclose(x.grad, w)


@pytest.mark.parametrize("x_shape, b_shape", [
    ((2, 3, 4), (3,)),  # rank-3 input
    ((2, 3), (1, 3)),  # 2-d bias
    ((2, 3), (4,)),  # length mismatch on a 2-d input
    ((2, 3, 4, 4), (4,)),  # length mismatch on a 4-d input
])
def test_bias_add_rejection_names_both_shapes(x_shape, b_shape):
    with pytest.raises(DimensionError) as exc:
        tz.bias_add(Tensor(np.zeros(x_shape)), Tensor(np.zeros(b_shape)))
    assert str(x_shape) in str(exc.value) and str(b_shape) in str(exc.value)


# --- tape semantics ---


def test_tape_consumed_once():
    x = Tensor([2.0], requires_grad=True)
    tape = Tape()
    loss = tz.sum_all(tz.mul(x, x, tape), tape)
    tape.backward(loss)
    with pytest.raises(UsageError):
        tape.backward(loss)


def test_gradients_accumulate_across_shared_inputs():
    x = Tensor([3.0], requires_grad=True)
    tape = Tape()
    a = tz.mul(x, x, tape)  # x^2
    b = tz.add(a, x, tape)  # x^2 + x
    tape.backward(tz.sum_all(b, tape))
    assert np.allclose(x.grad, [7.0])  # 2x + 1 at x=3


def test_intermediate_without_requires_grad_gets_no_gradient():
    x = Tensor([3.0], requires_grad=True)
    c = Tensor([2.0])
    tape = Tape()
    const = tz.mul(c, c, tape)  # taped, but computed from constants only
    tape.backward(tz.sum_all(tz.mul(x, const, tape), tape))
    assert not const.requires_grad
    assert const.grad is None and c.grad is None
    assert np.allclose(x.grad, [4.0])


def test_first_gradient_write_is_a_fresh_c_ordered_array():
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    out = Tensor(np.array(1.0), requires_grad=True)
    upstream = np.arange(6.0).reshape(3, 2).T  # a transposed view
    tape = Tape()
    tape.record((x,), out, lambda g, needs: (upstream,))
    tape.backward(out)
    assert np.array_equal(x.grad, upstream)
    assert x.grad.flags.c_contiguous
    assert not np.shares_memory(x.grad, upstream)


def test_non_finite_raises_never_propagates():
    x = Tensor([1e308])
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError):
            tz.mul(x, x)
    with pytest.raises(NumericalError):
        Tensor([np.nan])


def test_composite_graph_matches_dual_number_oracle():
    # f(u, v) = relu(u*v + u) * v + u on scalars; <= 10 nodes
    rng = np.random.default_rng(31)
    for _ in range(25):
        u0, v0 = rng.normal(size=2) + 0.1
        u = Tensor([u0], requires_grad=True)
        v = Tensor([v0], requires_grad=True)
        tape = Tape()
        t1 = tz.mul(u, v, tape)
        t2 = tz.add(t1, u, tape)
        t3 = tz.relu(t2, tape)
        t4 = tz.mul(t3, v, tape)
        t5 = tz.add(t4, u, tape)
        tape.backward(tz.sum_all(t5, tape))

        for seed_du, seed_dv, got in [(1.0, 0.0, u.grad[0]), (0.0, 1.0, v.grad[0])]:
            du = Dual(u0, seed_du)
            dv = Dual(v0, seed_dv)
            expect = (du * dv + du).relu() * dv + du
            assert abs(got - expect.dot) < 1e-10


# --- sgd ---


def test_sgd_zero_lr_leaves_parameters_bit_identical():
    p = Tensor([1.25, -2.5], requires_grad=True)
    before = p.data.tobytes()
    p.grad = np.array([10.0, -3.0])
    SGD([p], lr=0.0, momentum=0.5).step()
    assert p.data.tobytes() == before
    assert p.grad is None


def test_sgd_hand_step():
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.array([0.5])
    SGD([p], lr=0.1, momentum=0.0).step()
    assert np.allclose(p.data, [0.95])


def test_sgd_quadratic_contraction():
    # f(w) = (w-3)^2, grad 2(w-3); w_t - 3 = (1 - 2*lr)^t * (w_0 - 3)
    p = Tensor([0.0], requires_grad=True)
    opt = SGD([p], lr=0.1, momentum=0.0)
    for _ in range(10):
        p.grad = 2.0 * (p.data - 3.0)
        opt.step()
    expected_gap = 3.0 * (1.0 - 0.2) ** 10
    assert abs(p.data[0] - 3.0) <= expected_gap + 1e-12
    assert abs(p.data[0] - 3.0) < 0.35


def test_sgd_momentum_accumulates_velocity():
    p = Tensor([0.0], requires_grad=True)
    opt = SGD([p], lr=1.0, momentum=0.5)
    p.grad = np.array([1.0])
    opt.step()  # v=1, p=-1
    p.grad = np.array([1.0])
    opt.step()  # v=1.5, p=-2.5
    assert np.allclose(p.data, [-2.5])


# --- rejections ---


def _zeros(*shape):
    return Tensor(np.zeros(shape))


# case -> (call, error, what the message must name)
REJECTIONS = {
    "item": (lambda: _zeros(2).item(), UsageError, "shape (2,)"),
    "backward": (lambda: Tape().backward(_zeros(2)), UsageError, "shape (2,)"),
    "add": (lambda: tz.add(_zeros(2), _zeros(3)), DimensionError, "(2,) vs (3,)"),
    "mul": (lambda: tz.mul(_zeros(2), _zeros(3)), DimensionError, "(2,) vs (3,)"),
    "scale": (lambda: tz.scale(_zeros(2), _zeros(2)), DimensionError, "shape (2,)"),
    "conv2d-rank": (
        lambda: tz.conv2d(_zeros(1, 4, 4), _zeros(1, 1, 1, 1)), DimensionError, "(1, 4, 4)"),
    "conv2d-square": (
        lambda: tz.conv2d(_zeros(1, 1, 4, 4), _zeros(1, 1, 3, 1)), ConfigurationError, "3x1"),
    "conv2d-groups": (
        lambda: tz.conv2d(_zeros(1, 4, 4, 4), _zeros(4, 2, 1, 1), groups=3), DimensionError,
        "groups=3"),
    "shuffle-rank": (lambda: tz.channel_shuffle(_zeros(2, 6), 2), DimensionError, "(2, 6)"),
    "shuffle-groups": (
        lambda: tz.channel_shuffle(_zeros(1, 6, 2, 2), 4), ConfigurationError, "6 channels"),
    "ce-rank": (lambda: tz.softmax_cross_entropy(_zeros(3), [0]), DimensionError, "(3,)"),
    "ce-labels": (
        lambda: tz.softmax_cross_entropy(_zeros(3, 4), [0, 1]), DimensionError, "shape (2,)"),
    "sgd-lr": (lambda: SGD([], lr=-0.5), UsageError, "got -0.5"),
    "sgd-momentum": (lambda: SGD([], lr=0.1, momentum=1.0), UsageError, "got 1.0"),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_bad_operand_is_rejected_naming_it(case):
    call, error, names = REJECTIONS[case]
    with pytest.raises(error) as exc:
        call()
    assert names in str(exc.value)


# --- determinism ---


def test_determinism_bit_identical_across_runs():
    def run():
        rng = np.random.default_rng(99)
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 3, 3, 3)), requires_grad=True)
        tape = Tape()
        out = tz.relu(tz.conv2d(x, k, tape=tape), tape)
        flat = tz.flatten_batch(out, tape)
        head = Tensor(rng.normal(size=(flat.shape[1], 4)))
        loss = tz.softmax_cross_entropy(tz.matmul(flat, head, tape), np.array([0, 1]), tape)
        tape.backward(loss)
        return loss.item(), k.grad.tobytes()

    first = run()
    second = run()
    assert first[0] == second[0]
    assert first[1] == second[1]
