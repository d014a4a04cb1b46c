"""Tests for network builders: shapes, parameter counts, init, gradients."""

import numpy as np
import numpy.testing as npt
import pytest

from spatialcausal import engine as E
from spatialcausal import nets as N
from spatialcausal.errors import ContractError, DimensionError


def expected_param_count(kind: str, size: int, depth: int, in_dim: int = 1) -> int:
    """Closed-form parameter count of an MLP of width ``size`` on ``in_dim``
    inputs, a CNN of ``size`` channels, or a U-Net of ``size`` base channels."""
    def conv(cin, cout, k=3):
        return cin * cout * k * k + cout

    if kind == "mlp":
        dims = [in_dim] + [size] * depth + [1]
        return sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
    if kind == "cnn":
        return conv(1, size) + (depth - 1) * conv(size, size) + size + 1
    total = 0
    cin = 1
    enc = []
    for lvl in range(depth):
        cout = size * (2 ** lvl)
        total += conv(cin, cout) + conv(cout, cout)
        enc.append(cout)
        cin = cout
    bott = size * (2 ** depth)
    total += conv(cin, bott) + conv(bott, bott)
    up_in = bott
    for lvl in reversed(range(depth)):
        total += conv(up_in + enc[lvl], enc[lvl]) + conv(enc[lvl], enc[lvl])
        up_in = enc[lvl]
    return total + conv(up_in, 1, k=1)


class TestMlp:
    def test_param_count_matches_layer_arithmetic(self):
        net = N.build_mlp(in_dim=4, width=256, depth=3, seed=0)
        # 4*256+256 hidden-in, two 256*256+256 hidden-hidden, 256*1+1 head
        expected = (4 * 256 + 256) + 2 * (256 * 256 + 256) + (256 * 1 + 1)
        assert expected == 133121
        assert net.param_count() == expected
        assert expected_param_count("mlp", 256, 3, in_dim=4) == expected

    def test_small_count(self):
        net = N.build_mlp(in_dim=3, width=5, depth=2, seed=1)
        assert net.param_count() == (3 * 5 + 5) + (5 * 5 + 5) + (5 + 1)

    def test_zero_width_rejected(self):
        with pytest.raises(ContractError):
            N.build_mlp(in_dim=4, width=0, depth=2, seed=0)

    def test_same_seed_same_params(self):
        a = N.build_mlp(2, 7, 2, seed=42)
        b = N.build_mlp(2, 7, 2, seed=42)
        for pa, pb in zip(a.params, b.params, strict=True):
            npt.assert_array_equal(pa.data, pb.data)
        c = N.build_mlp(2, 7, 2, seed=43)
        assert not all(np.array_equal(pa.data, pc.data)
                       for pa, pc in zip(a.params, c.params, strict=True))

    def test_glorot_limits_and_zero_biases(self):
        net = N.build_mlp(in_dim=9, width=16, depth=1, seed=5)
        w0 = net.params[0].data
        limit = np.sqrt(6.0 / (9 + 16))
        assert np.all(np.abs(w0) <= limit)
        npt.assert_array_equal(net.params[1].data, 0.0)

    def test_forward_shape_and_batch(self):
        net = N.build_mlp(3, 8, 2, 0)
        out = net.forward(np.random.default_rng(0).normal(size=(11, 3)))
        assert out.data.shape == (11, 1)
        with pytest.raises(DimensionError):
            net.forward(np.ones((4, 5)))

    @pytest.mark.parametrize("depth", [1, 3])
    def test_taped_forward_keeps_one_array_per_layer(self, depth):
        n, width = 50, 16
        net = N.build_mlp(in_dim=3, width=width, depth=depth, seed=0)
        with E.Tape() as tape:
            net.forward(np.random.default_rng(2).normal(size=(n, 3)))
        assert [nd.kind for nd in tape.nodes] == ["dense"] * (depth + 1)
        assert sum(nd.output.data.nbytes for nd in tape.nodes) == n * (depth * width + 1) * 8

    def test_gradient_check(self):
        net = N.build_mlp(2, 6, 2, 3)
        x = E.Tensor(np.random.default_rng(1).normal(size=(7, 2)))
        report = E.finite_diff_check(lambda: E.tsum(net.forward(x)), net.params)
        assert report.passed, report


class TestCnn:
    def test_forward_scalar_per_sample(self):
        net = N.build_cnn(channels=4, depth=2, seed=0)
        out = net.forward(np.random.default_rng(0).normal(size=(3, 1, 9, 9)))
        assert out.data.shape == (3, 1)

    def test_zero_input_zero_bias_gives_zero(self):
        net = N.build_cnn(4, 3, 0)
        out = net.forward(np.zeros((2, 1, 9, 9)))
        npt.assert_allclose(out.data, 0.0)

    def test_param_count_formula(self):
        net = N.build_cnn(channels=5, depth=3, seed=0)
        expected = (1 * 5 * 9 + 5) + 2 * (5 * 5 * 9 + 5) + (5 + 1)
        assert net.param_count() == expected == expected_param_count("cnn", 5, 3)

    def test_kernel_larger_than_input_rejected(self):
        net = N.build_cnn(4, 2, 0)
        with pytest.raises(DimensionError, match="smaller than kernel 3"):
            net.forward(np.ones((1, 1, 2, 2)))

    def test_constant_input_constant_interior_features(self):
        # Zero-padded convs only disturb a one-pixel border per layer, so a
        # constant map stays constant on the interior after one conv + relu.
        rng = np.random.default_rng(8)
        w = E.Tensor(rng.normal(size=(3, 1, 3, 3)))
        x = E.Tensor(np.full((1, 1, 8, 8), 1.7))
        feat = E.relu(E.conv2d(x, w, padding=1)).data
        interior = feat[:, :, 1:-1, 1:-1]
        npt.assert_allclose(interior, np.broadcast_to(interior[:, :, :1, :1], interior.shape))

    def test_gradient_check_miniature(self):
        net = N.build_cnn(2, 2, 2)
        x = E.Tensor(np.random.default_rng(3).normal(size=(2, 1, 8, 8)))
        report = E.finite_diff_check(lambda: E.tsum(net.forward(x)), net.params)
        assert report.passed, report


def full_map_unet(net, depth, x, head_first=True):
    """U-Net forward with every decoder conv on the whole map, from the engine ops.

    With ``head_first`` the 1x1 head runs on the whole map before
    ``E.center_pixel`` keeps its center; otherwise ``E.center_pixel`` keeps the
    decoder's center features and the head runs on those alone.
    """
    x = E.as_tensor(x)
    _, _, h_in, w_in = x.data.shape
    mult = 2 ** depth
    pad_h, pad_w = (-h_in) % mult, (-w_in) % mult
    r0, c0 = pad_h // 2, pad_w // 2
    h = E.pad2d(x, r0, pad_h - r0, c0, pad_w - c0)
    params = iter(net.params)

    def conv(h, pad=1):
        return E.conv2d(h, next(params), next(params), padding=pad)

    skips = []
    for _ in range(depth):
        h = E.relu(conv(E.relu(conv(h))))
        skips.append(h)
        h = E.maxpool2(h)
    h = E.relu(conv(E.relu(conv(h))))
    for lvl in reversed(range(depth)):
        h = E.concat_channels([E.upsample2(h), skips[lvl]])
        h = E.relu(conv(E.relu(conv(h))))
    h = E.crop2d(h, r0, r0 + h_in, c0, c0 + w_in)
    if head_first:
        return E.center_pixel(conv(h, pad=0))
    features = E.center_pixel(h)
    return E.reshape(conv(E.reshape(features, features.data.shape + (1, 1)), pad=0), (-1, 1))


def loss_and_grads(net, forward, x, seed=0):
    """A random linear functional of the output, and every parameter's gradient."""
    for p in net.params:
        p.zero_grad()
    with E.Tape() as tape:
        out = forward(x)
        weights = np.random.default_rng(seed).normal(size=out.data.shape)
        loss = E.tsum(E.mul(out, E.Tensor(weights)))
    tape.backward(loss)
    return out.data, [p.grad.copy() for p in net.params]


class TestUnet:
    @pytest.mark.parametrize("side", [15, 25, 51])
    def test_output_is_one_value_per_sample(self, side):
        net = N.build_unet(base_channels=2, depth=3, seed=0)
        out = net.forward(np.random.default_rng(0).normal(size=(2, 1, side, side)))
        assert out.data.shape == (2, 1)

    @pytest.mark.parametrize("shape", [(16, 16), (15, 16), (16, 15), (24, 24)])
    def test_even_side_rejected(self, shape):
        net = N.build_unet(2, depth=2, seed=0)
        with pytest.raises(ContractError, match="odd"):
            net.forward(np.ones((1, 1) + shape))

    def test_same_seed_same_output(self):
        x = np.random.default_rng(5).normal(size=(1, 1, 16, 16))[:, :, :15, :15]
        a = N.build_unet(2, 3, 9).forward(x).data
        b = N.build_unet(2, 3, 9).forward(x).data
        npt.assert_array_equal(a, b)

    def test_param_count_formula(self):
        net = N.build_unet(base_channels=2, depth=3, seed=0)
        assert net.param_count() == expected_param_count("unet", 2, 3)

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("side", [5, 7, 9, 13, 15, 25])
    def test_matches_full_map_decoder(self, side, depth, batch):
        net = N.build_unet(2, depth, side + depth)
        x = np.random.default_rng(side * depth + batch).normal(size=(batch, 1, side, side))
        out, grads = loss_and_grads(net, net.forward, x)
        ref, ref_grads = loss_and_grads(
            net, lambda t: full_map_unet(net, depth, t, head_first=False), x)
        assert out.tobytes() == ref.tobytes()
        # A 1x1 head over the whole map is one long matrix-vector product, which
        # BLAS may sum in another order than the short one over the center pixels.
        npt.assert_allclose(out, full_map_unet(net, depth, x).data, rtol=1e-14, atol=0.0)
        for g, r in zip(grads, ref_grads, strict=True):
            npt.assert_allclose(g, r, rtol=1e-12, atol=1e-12 * np.abs(r).max())

    def test_value_does_not_depend_on_batch_position(self):
        # OpenBLAS computes a GEMM's last columns through another kernel when
        # its width leaves 1 to 4 modulo 8; conv2d's GEMMs are 8 columns wide
        # or a multiple of that, so each unit's value is the same alone and
        # at any position of a batch.
        net = N.build_unet(4, depth=2, seed=0)
        x = np.random.default_rng(0).normal(size=(61, 1, 15, 15))
        batch = net.forward(x).data
        alone = np.concatenate([net.forward(x[i:i + 1]).data for i in range(len(x))])
        assert batch.tobytes() == alone.tobytes()

    def test_edge_windows_are_zero_padded(self):
        # At side 5 and depth 3 the decoder windows reach the map's edge, where
        # their convs pad only the sides that stop there: the value and every
        # gradient match the full-map decoder's.
        net = N.build_unet(2, depth=3, seed=1)
        x = np.random.default_rng(2).normal(size=(2, 1, 5, 5))
        out, grads = loss_and_grads(net, net.forward, x)
        ref, ref_grads = loss_and_grads(
            net, lambda t: full_map_unet(net, 3, t, head_first=False), x)
        assert out.tobytes() == ref.tobytes()
        for g, r in zip(grads, ref_grads, strict=True):
            npt.assert_allclose(g, r, rtol=1e-12, atol=1e-12 * np.abs(r).max())

    def test_decoder_conv_output_sides(self):
        net = N.build_unet(2, depth=2, seed=0)
        with E.Tape() as tape:
            net.forward(np.random.default_rng(3).normal(size=(2, 1, 15, 15)))
        convs = [nd.output.data.shape for nd in tape.nodes if nd.kind == "conv2d"]
        assert [s[2] for s in convs[-5:]] == [5, 3, 3, 1, 1]
        assert [s[3] for s in convs[-5:]] == [5, 3, 3, 1, 1]

    def test_reduce_center_pixel(self):
        # rows and columns have their own center and their own padding
        net = N.build_unet(2, depth=2, seed=6)
        for shape in [(7, 9), (13, 5)]:
            x = np.random.default_rng(4).normal(size=(3, 1) + shape)
            out = net.forward(x).data
            assert out.shape == (3, 1)
            npt.assert_array_equal(out, full_map_unet(net, 2, x, head_first=False).data)

    def test_reduce_51_is_index_25(self):
        # Only the pixel (25, 25) of the output map reaches the value: moving an
        # input pixel outside the center's receptive field changes nothing.
        net = N.build_unet(2, depth=2, seed=7)
        x = np.random.default_rng(5).normal(size=(1, 1, 51, 51))
        out = net.forward(x).data
        npt.assert_array_equal(out, full_map_unet(net, 2, x, head_first=False).data)
        far = x.copy()
        far[0, 0, 0, 0] += 1.0
        npt.assert_array_equal(net.forward(far).data, out)

    def test_gradient_check_side15_miniature(self):
        net = N.build_unet(1, depth=2, seed=4)
        x = E.Tensor(np.random.default_rng(6).normal(size=(1, 1, 16, 16))[:, :, :15, :15])
        report = E.finite_diff_check(lambda: E.tsum(net.forward(x)), net.params)
        assert report.passed, report

    def test_gradient_check_through_center_reduction(self):
        # Odd side exercises the internal pad path plus the windowed decoder.
        net = N.build_unet(1, depth=2, seed=4)
        x = E.Tensor(np.random.default_rng(6).normal(size=(2, 1, 7, 7)))
        report = E.finite_diff_check(lambda: E.tsum(net.forward(x)), net.params)
        assert report.passed, report


class TestLinear:
    def test_zero_weights_zero_output(self):
        net = N.build_linear_interference((5, 5))
        out = net.forward(np.random.default_rng(0).normal(size=(3, 5, 5)))
        npt.assert_array_equal(out.data, 0.0)

    def test_one_hot_weight_selects_entry(self):
        net = N.build_linear_interference((3, 3))
        w = np.zeros((9, 1))
        w[3 * 1 + 2] = 1.0  # (k,l) = (1,2) in row-major order
        net.params[0].data = w
        patch = np.arange(9.0).reshape(1, 3, 3)
        npt.assert_array_equal(net.forward(patch).data, [[5.0]])

    def test_gradient_wrt_weights_is_patch(self):
        net = N.build_linear_interference((4,))
        patch = np.random.default_rng(2).normal(size=(1, 4))
        with E.Tape() as tape:
            loss = E.tsum(net.forward(E.Tensor(patch)))
        tape.backward(loss)
        npt.assert_allclose(net.params[0].grad.reshape(-1), patch.reshape(-1))

    def test_affine_has_bias(self):
        net = N.build_affine(3)
        net.params[1].data = np.array([2.5])
        npt.assert_array_equal(net.forward(np.zeros((2, 3))).data, 2.5)
