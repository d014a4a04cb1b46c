"""Unit tests for the reverse-mode engine: op forwards, gradients, optimizers."""

import json
import os
import platform
import resource
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import spatialcausal
from spatialcausal import cli
from spatialcausal import engine as E
from spatialcausal import model as M
from spatialcausal import nets as N
from spatialcausal import synthgen as S
from spatialcausal.errors import ContractError, DimensionError, NumericError


def scalar_loss(t):
    return E.tsum(t)


class TestForward:
    def test_matmul_identity(self):
        rng = np.random.default_rng(11)
        a = E.Tensor(rng.normal(size=(4, 4)))
        out = E.matmul(a, E.Tensor(np.eye(4)))
        npt.assert_allclose(out.data, a.data)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(DimensionError):
            E.matmul(E.Tensor(np.ones((2, 3))), E.Tensor(np.ones((4, 2))))

    def test_relu_values(self):
        out = E.relu(E.Tensor(np.array([-1.0, 0.0, 2.0])))
        npt.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_elu_negative_branch(self):
        out = E.elu(E.Tensor(np.array([-1.0, 0.5])))
        npt.assert_allclose(out.data, [np.expm1(-1.0), 0.5])

    def test_conv2d_uniform(self):
        img = E.Tensor(np.ones((1, 1, 4, 4)))
        ker = E.Tensor(np.ones((1, 1, 2, 2)))
        out = E.conv2d(img, ker)
        assert out.data.shape == (1, 1, 3, 3)
        npt.assert_allclose(out.data, 4.0)

    def test_conv2d_padding_preserves_size(self):
        img = E.Tensor(np.ones((2, 3, 5, 5)))
        ker = E.Tensor(np.ones((4, 3, 3, 3)))
        assert E.conv2d(img, ker, padding=1).data.shape == (2, 4, 5, 5)

    def test_maxpool_first_index_wins_on_ties(self):
        x = np.zeros((1, 1, 2, 2))
        x[0, 0] = [[3.0, 3.0], [3.0, 3.0]]
        t = E.Tensor(x, requires_grad=True)
        with E.Tape() as tape:
            loss = E.tsum(E.maxpool2(t))
        tape.backward(loss)
        npt.assert_array_equal(t.grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_maxpool_odd_side_rejected(self):
        with pytest.raises(DimensionError):
            E.maxpool2(E.Tensor(np.ones((1, 1, 3, 4))))

    def test_upsample_repeats_nearest(self):
        x = E.Tensor(np.arange(4.0).reshape(1, 1, 2, 2))
        out = E.upsample2(x)
        npt.assert_array_equal(out.data[0, 0, :2, :2], [[0.0, 0.0], [0.0, 0.0]])
        npt.assert_array_equal(out.data[0, 0, 2:, 2:], [[3.0, 3.0], [3.0, 3.0]])

    def test_center_pixel_requires_odd_sides(self):
        with pytest.raises(ContractError):
            E.center_pixel(E.Tensor(np.ones((1, 1, 4, 4))))
        out = E.center_pixel(E.Tensor(np.arange(9.0).reshape(1, 1, 3, 3)))
        npt.assert_array_equal(out.data, [[4.0]])

    def test_pad_crop_roundtrip(self):
        x = np.arange(12.0).reshape(1, 1, 3, 4)
        padded = E.pad2d(E.Tensor(x), 1, 2, 0, 1)
        assert padded.data.shape == (1, 1, 6, 5)
        back = E.crop2d(padded, 1, 4, 0, 4)
        npt.assert_array_equal(back.data, x)

    def test_mse_zero_at_equality(self):
        x = np.linspace(-1, 1, 8).reshape(8, 1)
        assert E.mse(E.Tensor(x), E.Tensor(x.copy())).item() == 0.0

    def test_nonfinite_input_rejected(self):
        with pytest.raises(NumericError):
            E.Tensor(np.array([1.0, np.nan]))


class TestBackward:
    def test_linear_grad_is_input(self):
        rng = np.random.default_rng(3)
        w = E.Tensor(rng.normal(size=4), requires_grad=True)
        x = E.Tensor(rng.normal(size=4))
        with E.Tape() as tape:
            loss = E.tsum(E.mul(w, x))
        tape.backward(loss)
        npt.assert_allclose(w.grad, x.data)

    def test_duplicated_parameter_accumulates(self):
        w = E.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        x = E.Tensor(np.array([3.0, 4.0]))
        with E.Tape() as tape:
            loss = E.tsum(E.add(E.mul(w, x), w))
        tape.backward(loss)
        npt.assert_allclose(w.grad, x.data + 1.0)

    def test_first_gradient_is_a_new_array_with_positive_zero(self):
        # add hands one array to both leaves; a -0.0 gradient is stored as +0.0
        a = E.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = E.Tensor(np.array([3.0, 4.0]), requires_grad=True)
        w = E.Tensor(np.array([5.0]), requires_grad=True)
        with E.Tape() as tape:
            loss = E.add(E.tsum(E.add(a, b)), E.tsum(E.mul(w, E.Tensor([-0.0]))))
        tape.backward(loss)
        assert a.grad is not b.grad
        a.grad += 1.0
        npt.assert_array_equal(b.grad, 1.0)
        assert w.grad[0] == 0.0 and not np.signbit(w.grad[0])

    def test_grad_accumulates_across_backward_calls(self):
        w = E.Tensor(np.array([2.0]), requires_grad=True)
        for _ in range(2):
            with E.Tape() as tape:
                loss = E.tsum(E.mul(w, w))
            tape.backward(loss)
        npt.assert_allclose(w.grad, 2.0 * 2.0 * w.data)
        w.zero_grad()
        assert w.grad is None

    @pytest.mark.parametrize("const", [0, 1], ids=["left", "right"])
    def test_matmul_skips_constant_operand(self, const):
        rng = np.random.default_rng(6)
        ops = [E.Tensor(rng.normal(size=(5, 3)), requires_grad=const != 0),
               E.Tensor(rng.normal(size=(3, 2)), requires_grad=const != 1)]
        g = rng.normal(size=(5, 2))
        with E.Tape() as tape:
            E.matmul(*ops)
        grads = tape.nodes[0].vjp(g)
        assert grads[const] is None
        expected = g @ ops[1].data.T if const == 1 else ops[0].data.T @ g
        npt.assert_array_equal(grads[1 - const], expected)

    def test_backward_rejects_vector_loss(self):
        w = E.Tensor(np.ones(3), requires_grad=True)
        with E.Tape() as tape:
            out = E.mul(w, w)
        with pytest.raises(ContractError):
            tape.backward(out)

    def test_no_tape_means_no_recording(self):
        w = E.Tensor(np.ones(3), requires_grad=True)
        out = E.mul(w, w)
        assert out.requires_grad
        tape = E.Tape()
        tape.backward(E.tsum(out) if False else E.Tensor(0.0))
        assert w.grad is None


def _conv_reference(x, w, g, padding):
    """Direct nested-loop convolution of x by w, and the gradients of sum(out * g)."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, _, hp, wp = xp.shape
    kh, kw = w.shape[2:]
    out = np.zeros((n, w.shape[0], hp - kh + 1, wp - kw + 1))
    gw = np.zeros_like(w)
    gxp = np.zeros_like(xp)
    for b in range(n):
        for i in range(out.shape[2]):
            for j in range(out.shape[3]):
                patch = xp[b, :, i:i + kh, j:j + kw]
                out[b, :, i, j] = np.tensordot(w, patch, axes=3)
                gw += g[b, :, i, j, None, None, None] * patch
                gxp[b, :, i:i + kh, j:j + kw] += np.tensordot(g[b, :, i, j], w, axes=1)
    gx = gxp[:, :, padding:hp - padding, padding:wp - padding]
    return out, gx, gw


def _conv_taped(x, w, g, padding):
    with E.Tape() as tape:
        out = E.conv2d(x, w, padding=padding)
        loss = E.tsum(E.mul(out, E.Tensor(g)))
    tape.backward(loss)
    return out.data, tape


# (n, c_in, h, w, c_out, k, padding)
CONV_SHAPES = [
    (2, 3, 5, 5, 4, 1, 0),
    (2, 3, 6, 6, 2, 3, 0),
    (2, 2, 6, 6, 3, 3, 1),
    (2, 2, 7, 7, 3, 5, 2),
    (3, 2, 5, 8, 4, 3, 1),
    (2, 3, 9, 4, 2, 3, 0),
    (1, 2, 6, 5, 3, 3, 1),
    (2, 1, 4, 4, 5, 3, 1),
    (3, 12, 8, 8, 4, 3, 1),
    (3, 24, 4, 4, 8, 3, 1),
    (4, 3, 30, 30, 5, 3, 1),
    (8, 1, 30, 30, 5, 3, 1),
    (3, 4, 16, 16, 1, 1, 0),
]
# shapes whose input spans several column tiles, the last one partial
MULTI_TILE = [(4, 3, 30, 30, 5, 3, 1), (8, 1, 30, 30, 5, 3, 1)]


class TestConv2d:
    @pytest.mark.parametrize("shape", CONV_SHAPES,
                             ids=["n{}_c{}_{}x{}_f{}_k{}_p{}".format(*s) for s in CONV_SHAPES])
    def test_matches_nested_loop_reference(self, shape):
        n, cin, h, wdt, cout, k, pad = shape
        rng = np.random.default_rng(sum(shape))
        x = E.Tensor(rng.normal(size=(n, cin, h, wdt)), requires_grad=True)
        w = E.Tensor(rng.normal(size=(cout, cin, k, k)), requires_grad=True)
        g = rng.normal(size=(n, cout, h + 2 * pad - k + 1, wdt + 2 * pad - k + 1))
        ref_out, ref_gx, ref_gw = _conv_reference(x.data, w.data, g, pad)
        out, _ = _conv_taped(x, w, g, pad)
        npt.assert_allclose(out, ref_out, rtol=1e-12, atol=1e-12)
        npt.assert_allclose(x.grad, ref_gx, rtol=1e-12, atol=1e-12)
        npt.assert_allclose(w.grad, ref_gw, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("shape", MULTI_TILE, ids=["c3", "c1"])
    def test_shape_spans_several_tiles(self, shape):
        n, cin, h, wdt, _, k, pad = shape
        span = n * (h + 2 * pad) * (wdt + 2 * pad)
        block = E._TILE_BYTES // (8 * cin * k * k)
        assert span > block and span % block

    def test_bias_folds_into_one_node(self):
        n, cin, h, wdt, cout, k, pad = MULTI_TILE[0]
        rng = np.random.default_rng(12)
        x = E.Tensor(rng.normal(size=(n, cin, h, wdt)), requires_grad=True)
        w = E.Tensor(rng.normal(size=(cout, cin, k, k)), requires_grad=True)
        b = E.Tensor(rng.normal(size=cout), requires_grad=True)
        g = rng.normal(size=(n, cout, h, wdt))
        with E.Tape() as tape:
            out = E.conv2d(x, w, b, padding=pad)
            loss = E.tsum(E.mul(out, E.Tensor(g)))
        tape.backward(loss)
        assert [nd.kind for nd in tape.nodes] == ["conv2d", "mul", "sum"]
        assert tape.nodes[0].inputs == (x, w, b)
        ref_out, ref_gx, ref_gw = _conv_reference(x.data, w.data, g, pad)
        npt.assert_allclose(out.data, ref_out + b.data[None, :, None, None],
                            rtol=1e-12, atol=1e-12)
        npt.assert_allclose(x.grad, ref_gx, rtol=1e-12, atol=1e-12)
        npt.assert_allclose(w.grad, ref_gw, rtol=1e-12, atol=1e-12)
        npt.assert_allclose(b.grad, g.sum(axis=(0, 2, 3)), rtol=1e-12, atol=1e-12)

    def test_constant_input_gets_no_gradient(self):
        rng = np.random.default_rng(5)
        x = E.Tensor(rng.normal(size=(2, 3, 6, 5)))
        w = E.Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        g = rng.normal(size=(2, 4, 6, 5))
        _, tape = _conv_taped(x, w, g, 1)
        node = next(nd for nd in tape.nodes if nd.kind == "conv2d")
        assert node.vjp(g)[0] is None
        assert x.grad is None
        npt.assert_allclose(w.grad, _conv_reference(x.data, w.data, g, 1)[2],
                            rtol=1e-12, atol=1e-12)

    def test_finite_diff_non_square_unpadded(self):
        rng = np.random.default_rng(8)
        x = E.Tensor(rng.normal(size=(2, 2, 5, 7)), requires_grad=True)
        w = E.Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = E.Tensor(rng.normal(size=3), requires_grad=True)
        g = E.Tensor(rng.normal(size=(2, 3, 3, 5)))
        report = E.finite_diff_check(
            lambda: E.tsum(E.mul(E.conv2d(x, w, b), g)), [x, w, b],
            tolerance=1e-4, step=1e-5)
        assert report.passed, report


# (n, k, m, relu): the line MLP's layers, its head, the raster confounder's
# first layer, and one-row batches
DENSE_SHAPES = [(500, 3, 256, True), (500, 256, 256, True), (500, 256, 1, False),
                (60, 4, 128, True), (1, 4, 8, True), (1, 8, 1, False)]


def _dense_and_chain(x, w, b, relu, g):
    """Output and vjp results of ``dense`` and of matmul -> bias_add [-> relu]."""
    with E.Tape() as tape:
        out = E.dense(x, w, b, relu=relu)
    (node,) = tape.nodes
    g_before = g.copy()
    fused = (out.data, *node.vjp(g))
    npt.assert_array_equal(g, g_before)  # the upstream gradient is never written
    with E.Tape() as tape:
        h = E.bias_add(E.matmul(x, w), b)
        if relu:
            h = E.relu(h)
    nodes = tape.nodes[::-1]
    gh = nodes.pop(0).vjp(g)[0] if relu else g
    gm, gb = nodes[0].vjp(gh)
    gx, gw = nodes[1].vjp(gm)
    return fused, (h.data, gx, gw, gb)


def _assert_same_bytes(fused, chain):
    for a, c in zip(fused, chain, strict=True):
        assert (a is None) == (c is None)
        if a is not None:
            assert a.shape == c.shape and a.tobytes() == c.tobytes()


class TestDense:
    @pytest.mark.parametrize("shape", DENSE_SHAPES,
                             ids=["n{}_k{}_m{}_relu{}".format(*s) for s in DENSE_SHAPES])
    def test_bytes_match_three_op_chain(self, shape):
        n, k, m, relu = shape
        rng = np.random.default_rng(n + k + m)
        x = E.Tensor(rng.normal(size=(n, k)), requires_grad=True)
        w = E.Tensor(rng.normal(size=(k, m)) / np.sqrt(k), requires_grad=True)
        b = E.Tensor(rng.normal(size=m), requires_grad=True)
        _assert_same_bytes(*_dense_and_chain(x, w, b, relu, rng.normal(size=(n, m))))

    @pytest.mark.parametrize("relu", [True, False])
    def test_nan_and_negative_zero_match_chain(self, relu):
        rng = np.random.default_rng(21)
        xd = rng.normal(size=(6, 3))
        xd[1] = -0.0
        xd[4, 2] = np.nan
        wd = rng.normal(size=(3, 4))
        x, w = E.Tensor.__new__(E.Tensor), E.Tensor(wd, requires_grad=True)
        x.data, x.requires_grad, x.grad = xd, True, None  # bypasses the finite scan
        b = E.Tensor(np.array([-0.0, 0.0, 1.0, -1.0]), requires_grad=True)
        g = rng.normal(size=(6, 4))
        g[0, 0] = -0.0
        fused, chain = _dense_and_chain(x, w, b, relu, g)
        assert np.isnan(fused[0][4]).all()
        _assert_same_bytes(fused, chain)

    def test_constant_input_gets_no_gradient(self):
        rng = np.random.default_rng(22)
        x = E.Tensor(rng.normal(size=(5, 3)))
        w = E.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = E.Tensor(rng.normal(size=4), requires_grad=True)
        fused, chain = _dense_and_chain(x, w, b, True, rng.normal(size=(5, 4)))
        assert fused[1] is None
        _assert_same_bytes(fused, chain)
        with E.Tape() as tape:
            loss = E.tsum(E.dense(x, w, b, relu=True))
        tape.backward(loss)
        assert x.grad is None and w.grad is not None and b.grad is not None

    @pytest.mark.parametrize("shapes", [((4, 3), (2, 5), (5,)), ((4, 3), (3, 5), (4,)),
                                        ((4, 3), (3, 5), (1, 5)), ((3,), (3, 5), (5,))],
                             ids=["inner", "bias_len", "bias_2d", "x_1d"])
    def test_mismatched_shapes_raise(self, shapes):
        with pytest.raises(DimensionError):
            E.dense(*(np.ones(s) for s in shapes))

    def test_clamped_negative_overflow_raises_outside_tape(self):
        x = np.full((1, 2), 1e200)
        w = np.full((2, 1), -1e200)
        with np.errstate(over="ignore"), \
                pytest.raises(NumericError, match="non-finite values in output of dense"):
            E.dense(x, w, np.zeros(1), relu=True)


def _maxpool_reference(xd):
    """The argmax formula: each window copied out to a length-4 axis, its argmax
    gathered, and the gradient scattered back with put_along_axis."""
    n, c, h, w = xd.shape
    windows = (xd.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
               .reshape(n, c, h // 2, w // 2, 4))
    idx = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]

    def vjp(g):
        gw = np.zeros(windows.shape)
        np.put_along_axis(gw, idx[..., None], g[..., None], axis=-1)
        return (gw.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
                .reshape(n, c, h, w))

    return out, vjp


def _upsample_reference_vjp(g):
    """The reshape-and-sum formula for upsample2's vjp."""
    n, c, h, w = g.shape
    return g.reshape(n, c, h // 2, 2, w // 2, 2).sum(axis=(3, 5))


def _leaf(data):
    """A leaf holding ``data`` in its own layout, non-finite values kept."""
    t = E.Tensor.__new__(E.Tensor)
    t.data, t.requires_grad, t.grad = data, True, None
    return t


def _pool_values(rng, shape, kind):
    if kind == "normal":
        return rng.normal(size=shape)
    if kind == "equal":  # every 2x2 window holds one value four times
        n, c, h, w = shape
        return np.repeat(np.repeat(rng.normal(size=(n, c, h // 2, w // 2)), 2, 2), 2, 3)
    if kind == "signed_zeros":
        return rng.choice([-0.0, 0.0], size=shape)
    return rng.choice([-1.0, -0.0, 0.0, 1.0, np.inf, -np.inf, np.nan, -np.nan], size=shape)


def _laid_out(a, layout):
    """``a`` with the strides the U-Net hands over: C order, channel-major as
    conv2d's and relu's outputs are, or concat's vjp output for a second input
    cut from a channel-major gradient."""
    if layout == "contiguous":
        return a.copy()
    if layout == "channel_major":
        return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    n, _, h, w = a.shape
    first = _leaf(np.zeros((n, 2, h, w)))
    with E.Tape() as tape:
        E.concat_channels([first, _leaf(a)])
    whole = _laid_out(np.concatenate([np.ones((n, 2, h, w)), a], axis=1), "channel_major")
    return tape.nodes[0].vjp(whole)[1]


def _assert_same_bits(new, ref):
    assert new.shape == ref.shape and new.tobytes() == ref.tobytes()


# the encoder's inputs at d_s = 15 with base 4 (a third level at depth 3),
# then odd batch and channel counts, a one-row window and an empty batch
MAXPOOL_SHAPES = [(60, 4, 16, 16), (60, 8, 8, 8), (60, 16, 4, 4), (7, 3, 6, 10),
                  (1, 5, 2, 2), (3, 1, 2, 8), (0, 2, 4, 4)]
# the decoder's inputs at d_s = 15, odd counts, and one-column inputs as the
# lowest level gets at d_s = 3 (depth 2 or 3)
UPSAMPLE_SHAPES = [(60, 16, 4, 4), (60, 8, 3, 3), (60, 16, 8, 8), (7, 3, 5, 6),
                   (60, 8, 1, 1), (5, 3, 2, 1), (1, 1, 1, 1)]
POOL_KINDS = ["normal", "equal", "signed_zeros", "nan"]


class TestPoolingBytes:
    """maxpool2 and upsample2 against the formulas they replaced, byte for byte."""

    @pytest.mark.parametrize("kind", POOL_KINDS)
    @pytest.mark.parametrize("layout", ["contiguous", "channel_major"])
    @pytest.mark.parametrize("shape", MAXPOOL_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_maxpool_matches_argmax(self, shape, layout, kind):
        rng = np.random.default_rng(sum(shape) + len(kind))
        x = _leaf(_laid_out(_pool_values(rng, shape, kind), layout))
        ref_out, ref_vjp = _maxpool_reference(x.data)
        with E.Tape() as tape:
            out = E.maxpool2(x)
        _assert_same_bits(out.data, ref_out)
        shape_g = ref_out.shape
        g = np.where(rng.random(shape_g) < 0.5, rng.normal(size=shape_g),
                     _pool_values(rng, shape_g, "signed_zeros"))
        for g_layout in ("contiguous", "channel_major", "concat_split"):
            laid = _laid_out(g, g_layout)
            _assert_same_bits(tape.nodes[0].vjp(laid)[0], ref_vjp(laid))

    def test_maxpool_tie_rules(self):
        windows = [[3.0, 3.0, 3.0, 3.0], [-0.0, 0.0, 0.0, -0.0], [0.0, -0.0, -0.0, 0.0],
                   [1.0, np.nan, -np.nan, 2.0], [np.inf, np.nan, 1.0, 1.0],
                   [-np.inf, -np.inf, -np.inf, 5.0]]
        x = np.array(windows).reshape(1, len(windows), 2, 2)
        t = _leaf(x)
        with E.Tape() as tape:
            out = E.maxpool2(t)
        first = [0, 0, 0, 1, 1, 3]
        picked = out.data.reshape(-1).view(np.uint64)
        npt.assert_array_equal(picked, x.reshape(-1, 4)[range(6), first].view(np.uint64))
        grad = tape.nodes[0].vjp(np.full((1, 6, 1, 1), 2.0))[0].reshape(-1, 4)
        npt.assert_array_equal(grad.argmax(axis=1), first)
        assert not np.signbit(grad).any() and np.count_nonzero(grad) == 6

    @pytest.mark.parametrize("kind", POOL_KINDS)
    @pytest.mark.parametrize("layout", ["contiguous", "channel_major", "concat_split"])
    @pytest.mark.parametrize("shape", UPSAMPLE_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_upsample_vjp_matches_reshape_sum(self, shape, layout, kind):
        rng = np.random.default_rng(sum(shape) + len(kind))
        x = _leaf(rng.normal(size=shape))
        with E.Tape() as tape:
            out = E.upsample2(x)
        npt.assert_array_equal(out.data, np.repeat(np.repeat(x.data, 2, 2), 2, 3))
        g = _laid_out(_pool_values(rng, out.data.shape, kind), layout)
        with np.errstate(invalid="ignore"):
            new, ref = tape.nodes[0].vjp(g)[0], _upsample_reference_vjp(g)
        if kind == "nan":
            # of two NaNs, which one numpy's sum keeps varies with the layout
            # and the width; a NaN gradient fails the step, so it is never seen
            npt.assert_array_equal(np.isnan(new), np.isnan(ref))
            new, ref = np.nan_to_num(new), np.nan_to_num(ref)
        _assert_same_bits(new, ref)

    @pytest.mark.parametrize("bad", [np.nan, -np.nan, np.inf])
    def test_nonfinite_output_outside_tape_raises_at_the_op(self, bad):
        x = np.zeros((2, 3, 4, 4))
        x[1, 2, 3, 0] = bad
        for op in (E.maxpool2, E.upsample2):
            with pytest.raises(NumericError, match=f"^non-finite values in output of {op.__name__}$"):
                op(_leaf(x))


def _deep_mlp():
    return N.build_mlp(in_dim=3, width=8, depth=4, seed=0)


class TestFiniteness:
    """A step fails when a non-finite value reaches the loss or a leaf gradient."""

    def _forward(self, net):
        rng = np.random.default_rng(4)
        with E.Tape() as tape:
            loss = E.mse(net.forward(E.Tensor(rng.normal(size=(6, 3)))),
                         E.Tensor(rng.normal(size=(6, 1))))
        return tape, loss

    def test_nan_weight_named_as_dense_output(self):
        net = _deep_mlp()
        net.params[4].data[0, 0] = np.nan
        tape, loss = self._forward(net)
        with pytest.raises(NumericError, match="non-finite values in output of dense"):
            tape.backward(loss)
        assert all(p.grad is None for p in net.params)

    def test_backward_overflow_named_as_gradient(self):
        x = E.Tensor(np.array([1e308, 1e308]), requires_grad=True)
        s = E.Tensor(1e-10, requires_grad=True)
        with E.Tape() as tape:
            loss = E.tsum(E.scale(x, s))
        assert np.isfinite(loss.data)
        with np.errstate(over="ignore"), \
                pytest.raises(NumericError, match="non-finite values in gradient of scale"):
            tape.backward(loss)
        assert x.grad is None and s.grad is None

    def test_op_outside_tape_raises_at_the_op(self):
        net = _deep_mlp()
        net.params[4].data[0, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite values in output of dense"):
            net.forward(E.Tensor(np.ones((6, 3))))

    def test_clean_step_scans_loss_and_each_leaf(self, monkeypatch):
        net = _deep_mlp()
        tape, loss = self._forward(net)
        scanned = []
        check = E._check_finite

        def counting(arr, where):
            scanned.append(where)
            check(arr, where)

        monkeypatch.setattr(E, "_check_finite", counting)
        tape.backward(loss)
        assert scanned == ["loss"] + ["leaf gradient"] * len(net.params)
        assert all(p.grad is not None for p in net.params)


class TestFiniteDiff:
    @pytest.mark.parametrize("kind,fn,params", cli._gradcheck_cases(),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_every_op_kind(self, kind, fn, params):
        report = E.finite_diff_check(fn, params, tolerance=1e-4, step=1e-5)
        assert report.passed, f"{kind}: max rel err {report.max_rel_err:.3e}"

    def test_constant_fn_passes_with_zero_grads(self):
        p = E.Tensor(np.ones(3), requires_grad=True)
        report = E.finite_diff_check(lambda: E.Tensor(5.0), [p])
        assert report.passed
        assert report.max_rel_err == 0.0

    def test_wrong_backward_is_caught(self):
        # A sabotaged op: forward is x^2, reported gradient is 3x instead of 2x.
        p = E.Tensor(np.array([0.5, -1.5, 2.0]), requires_grad=True)

        def bad_square():
            def vjp(g):
                return (3.0 * p.data * g,)
            out = E._record("bad_square", (p,), p.data * p.data, vjp)
            return E.tsum(out)

        report = E.finite_diff_check(bad_square, [p])
        assert not report.passed

    def test_composite_network_gradient(self):
        rng = np.random.default_rng(7)
        w1 = E.Tensor(rng.normal(size=(3, 8)) * 0.5, requires_grad=True)
        b1 = E.Tensor(np.zeros(8), requires_grad=True)
        w2 = E.Tensor(rng.normal(size=(8, 1)) * 0.5, requires_grad=True)
        x = E.Tensor(rng.normal(size=(5, 3)))
        y = E.Tensor(rng.normal(size=(5, 1)))

        def fn():
            hidden = E.relu(E.bias_add(E.matmul(x, w1), b1))
            return E.mse(E.matmul(hidden, w2), y)

        report = E.finite_diff_check(fn, [w1, b1, w2])
        assert report.passed, report


class TestOptimizers:
    def test_sgd_zero_momentum_is_vanilla(self):
        p = E.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.array([0.5, 0.25])
        E.SGD([p], lr=0.1, momentum=0.0).step()
        npt.assert_allclose(p.data, [1.0 - 0.05, -2.0 - 0.025])

    def test_sgd_momentum_velocity_growth(self):
        p = E.Tensor(np.array([0.0]), requires_grad=True)
        opt = E.SGD([p], lr=1.0, momentum=0.99)
        g = np.array([1.0])
        p.grad = g.copy()
        opt.step()
        npt.assert_allclose(opt.velocity[0], 1.0)
        p.grad = g.copy()
        opt.step()
        npt.assert_allclose(opt.velocity[0], 1.99)
        npt.assert_allclose(p.data, -(1.0 + 1.99))

    def test_adam_first_step_magnitude(self):
        p = E.Tensor(np.array([10.0, -3.0]), requires_grad=True)
        opt = E.Adam([p], lr=0.001)
        p.grad = np.array([4.0, -0.2])
        opt.step()
        step = np.abs(p.data - np.array([10.0, -3.0]))
        npt.assert_allclose(step, 0.001, rtol=1e-6)

    def test_adam_descends_quadratic(self):
        p = E.Tensor(np.array([3.0]), requires_grad=True)
        opt = E.Adam([p], lr=0.05)
        for _ in range(400):
            opt.zero_grad()
            with E.Tape() as tape:
                loss = E.tsum(E.mul(p, p))
            tape.backward(loss)
            opt.step()
        assert abs(float(p.data[0])) < 1e-2

    def test_optimizer_rejects_constant_params(self):
        with pytest.raises(ContractError):
            E.SGD([E.Tensor(np.ones(2))], lr=0.1)
        with pytest.raises(ContractError):
            E.SGD([E.Tensor(np.ones(2), requires_grad=True)], lr=-0.1)


class TestDeterminism:
    def test_training_loop_bitwise_repeatable(self):
        def run():
            rng = np.random.default_rng(99)
            w = E.Tensor(rng.normal(size=(4, 1)), requires_grad=True)
            x = E.Tensor(rng.normal(size=(16, 4)))
            y = E.Tensor(rng.normal(size=(16, 1)))
            opt = E.SGD([w], lr=0.01, momentum=0.9)
            for _ in range(25):
                opt.zero_grad()
                with E.Tape() as tape:
                    loss = E.mse(E.matmul(x, w), y)
                tape.backward(loss)
                opt.step()
            return w.data.copy(), float(loss.data)

        first, second = run(), run()
        npt.assert_array_equal(first[0], second[0])
        assert first[1] == second[1]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="allocator policy is glibc-only")
class TestAllocatorPolicy:
    def test_training_steps_do_not_refault_the_heap(self):
        # Full-batch MLP steps over 500 units: every activation is (500, 256).
        data, _ = S.gen_line_graph(S.LineGraphConfig(n=500))
        model = M.build_model(M.ModelConfig(m=1, patch_shape=(3,), x_dim=4,
                                            interference="mlp", confounder="mlp"))
        cfg = M.TrainConfig(epochs=2, lr=1e-4, optimizer="sgd")
        M.train(model, data, cfg)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        # Two calls: without the policy, glibc's dynamic thresholds trim the heap
        # on alternate calls (about 1k and 5k faults per step).
        M.train(model, data, cfg)
        M.train(model, data, cfg)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 1000, f"{faults} minor page faults in 4 training steps"

    def test_policy_adds_no_public_name(self):
        public = {k for k in vars(E) if not k.startswith("_")}
        assert not {k for k in public if "malloc" in k or "heap" in k or k == "ctypes"}
        assert not [k for k in vars(spatialcausal) if "malloc" in k or "heap" in k]


@pytest.fixture
def pool_width(monkeypatch):
    """``set(n)`` runs branches ``n`` at a time, on a pool of this test's own."""
    monkeypatch.setattr(E, "_POOL", None)
    yield lambda n: monkeypatch.setattr(E, "_WIDTH", n)
    if E._POOL is not None:
        E._POOL.shutdown(wait=True)


def _branch_chain(x, w, h, depth):
    """A branch that reads the shared leaf ``w`` and tensor ``h`` once each."""
    out = E.mul(h, E.matmul(x, w))
    for _ in range(depth):
        out = E.relu(E.add(out, E.Tensor(np.full(out.shape, 0.1))))
    return out


def _taped_branches(n_branches, depth=0, rows=9):
    """(node kinds, groups, leaf gradient) of a loss whose branches share a
    leaf that is read before, inside and after them."""
    rng = np.random.default_rng(5)
    w = E.Tensor(rng.normal(size=(6, 6)), requires_grad=True)
    xs = [E.Tensor(rng.normal(size=(rows, 6))) for _ in range(n_branches)]
    with E.Tape() as tape:
        h = E.relu(E.matmul(xs[0], w))
        outs = E.branches([lambda x=x: _branch_chain(x, w, h, depth) for x in xs])
        total = outs[0]
        for out in outs[1:]:
            total = E.add(total, out)
        loss = E.tsum(E.matmul(total, w))
    tape.backward(loss)
    return [nd.kind for nd in tape.nodes], tape.groups, w.grad


class TestBranches:
    def test_width_one_runs_inline_and_starts_no_pool(self, pool_width):
        pool_width(1)
        threads = []
        outs = E.branches([lambda k=k: threads.append(threading.get_ident()) or E.Tensor(k)
                           for k in range(3)])
        assert [o.item() for o in outs] == [0.0, 1.0, 2.0]
        assert threads == [threading.get_ident()] * 3 and E._POOL is None
        kinds, groups, _ = _taped_branches(3)
        assert groups == [] and E._POOL is None

    def test_first_branch_runs_here_and_the_rest_on_the_pool(self, pool_width):
        pool_width(2)
        threads = {}

        def branch(k):
            threads[k] = threading.get_ident()
            return E.Tensor(k)

        outs = E.branches([lambda k=k: branch(k) for k in range(3)])
        assert [o.item() for o in outs] == [0.0, 1.0, 2.0]
        assert threads[0] == threading.get_ident()
        assert threading.get_ident() not in (threads[1], threads[2])

    def test_taped_branches_give_the_serial_nodes_and_gradient_bits(self, pool_width):
        """Each branch adds into the shared leaf's gradient, and so does an op
        before and one after them; the sums must be those of the serial walk."""
        pool_width(1)
        serial = _taped_branches(3)
        pool_width(2)
        kinds, groups, grad = _taped_branches(3)
        assert kinds == serial[0]
        assert groups == [[(2, 4), (4, 6), (6, 8)]]
        assert grad.tobytes() == serial[2].tobytes()

    def test_contention_loses_no_node(self, pool_width):
        """More workers than cores and a short switch interval: every node is
        recorded once, in the serial order, with the serial gradient bits.
        The arrays are large enough for numpy to release the interpreter
        lock in each op, so the branches interleave."""
        pool_width(1)
        serial = _taped_branches(8, depth=20, rows=2000)
        pool_width(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [_taped_branches(8, depth=20, rows=2000) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        for kinds, groups, grad in runs:
            assert kinds == serial[0] and len(groups) == 1 and len(groups[0]) == 8
            assert grad.tobytes() == serial[2].tobytes()

    def test_error_is_the_first_failing_branch_after_all_finish(self, pool_width):
        pool_width(2)
        finished = threading.Event()

        def slow():
            time.sleep(0.2)
            finished.set()
            return E.Tensor(1.0)

        def fail(message):
            raise ContractError(message)

        with E.Tape() as tape:
            with pytest.raises(ContractError, match="first"):
                E.branches([lambda: fail("first"), slow, lambda: fail("second")])
            assert finished.is_set() and E._POOL._work_queue.empty()
            with pytest.raises(ContractError, match="second"):
                E.branches([lambda: E.Tensor(0.0), lambda: fail("second"),
                            lambda: fail("third")])
        assert tape.nodes == [] and tape.groups == [] and E._STATE.tapes == []


def _openblas_threads(snippet: str, **variables) -> list:
    """The thread count of each OpenBLAS loaded after ``snippet`` in a fresh
    process with no thread variable set but ``variables``, by library path."""
    script = snippet + textwrap.dedent("""
        import ctypes, json
        paths = {line.split(None, 5)[5].strip() for line in open("/proc/self/maps")
                 if "openblas" in line and len(line.split(None, 5)) == 6}
        counts = []
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_",
                         "scipy_openblas_get_num_threads"):
                getter = getattr(lib, name, None)
                if getter is not None:
                    getter.argtypes, getter.restype = (), ctypes.c_int
                    counts.append(getter())
        print(json.dumps(counts))
        """)
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(spatialcausal.__file__).resolve().parents[1]),
                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env={**env, **variables},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="libraries found via /proc")
class TestBlasThreads:
    LOAD = "import spatialcausal.engine as E\nE.scipy_linalg()\n"

    def test_numpy_and_scipy_openblas_run_one_thread(self):
        assert _openblas_threads(self.LOAD) == [1, 1]

    def test_a_thread_variable_the_user_set_is_left_alone(self):
        plain = "import numpy, scipy.linalg\n"
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            assert (_openblas_threads(self.LOAD, **{name: "2"})
                    == _openblas_threads(plain, **{name: "2"}))
