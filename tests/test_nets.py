"""Tests for network builders: shapes, parameter counts, init, gradients."""

import numpy as np
import numpy.testing as npt
import pytest

from spatialcausal import engine as E
from spatialcausal import nets as N
from spatialcausal.errors import ContractError, DimensionError


def expected_param_count(spec) -> int:
    """Closed-form parameter count of an MLP, CNN or U-Net spec."""
    def conv(cin, cout, k=3):
        return cin * cout * k * k + cout

    if isinstance(spec, N.MlpSpec):
        dims = [spec.in_dim] + [spec.width] * spec.depth + [spec.out_dim]
        return sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
    if isinstance(spec, N.CnnSpec):
        k = 3
        total = conv(spec.in_channels, spec.channels, k)
        total += (spec.depth - 1) * conv(spec.channels, spec.channels, k)
        return total + spec.channels + 1
    total = 0
    cin = spec.in_channels
    enc = []
    for lvl in range(spec.depth):
        cout = spec.base_channels * (2 ** lvl)
        total += conv(cin, cout) + conv(cout, cout)
        enc.append(cout)
        cin = cout
    bott = spec.base_channels * (2 ** spec.depth)
    total += conv(cin, bott) + conv(bott, bott)
    up_in = bott
    for lvl in reversed(range(spec.depth)):
        total += conv(up_in + enc[lvl], enc[lvl]) + conv(enc[lvl], enc[lvl])
        up_in = enc[lvl]
    return total + conv(up_in, 1, k=1)


class TestMlp:
    def test_param_count_matches_layer_arithmetic(self):
        spec = N.MlpSpec(in_dim=4, width=256, depth=3)
        net = N.build_mlp(spec, seed=0)
        # 4*256+256 hidden-in, two 256*256+256 hidden-hidden, 256*1+1 head
        expected = (4 * 256 + 256) + 2 * (256 * 256 + 256) + (256 * 1 + 1)
        assert expected == 133121
        assert net.param_count() == expected
        assert expected_param_count(spec) == expected

    def test_small_count(self):
        spec = N.MlpSpec(in_dim=3, width=5, depth=2)
        assert N.build_mlp(spec, 1).param_count() == (3 * 5 + 5) + (5 * 5 + 5) + (5 + 1)

    def test_zero_width_rejected(self):
        with pytest.raises(ContractError):
            N.build_mlp(N.MlpSpec(in_dim=4, width=0, depth=2), 0)

    def test_same_seed_same_params(self):
        a = N.build_mlp(N.MlpSpec(2, 7, 2), seed=42)
        b = N.build_mlp(N.MlpSpec(2, 7, 2), seed=42)
        for pa, pb in zip(a.params, b.params, strict=True):
            npt.assert_array_equal(pa.data, pb.data)
        c = N.build_mlp(N.MlpSpec(2, 7, 2), seed=43)
        assert not all(np.array_equal(pa.data, pc.data)
                       for pa, pc in zip(a.params, c.params, strict=True))

    def test_glorot_limits_and_zero_biases(self):
        spec = N.MlpSpec(in_dim=9, width=16, depth=1)
        net = N.build_mlp(spec, 5)
        w0 = net.params[0].data
        limit = np.sqrt(6.0 / (9 + 16))
        assert np.all(np.abs(w0) <= limit)
        npt.assert_array_equal(net.params[1].data, 0.0)

    def test_forward_shape_and_batch(self):
        net = N.build_mlp(N.MlpSpec(3, 8, 2), 0)
        out = net.forward(np.random.default_rng(0).normal(size=(11, 3)))
        assert out.data.shape == (11, 1)
        with pytest.raises(DimensionError):
            net.forward(np.ones((4, 5)))

    def test_gradient_check(self):
        net = N.build_mlp(N.MlpSpec(2, 6, 2), 3)
        x = E.Tensor(np.random.default_rng(1).normal(size=(7, 2)))
        report = E.finite_diff_check(lambda: E.tsum(net.forward(x)), net.params)
        assert report.passed, report


class TestCnn:
    def test_forward_scalar_per_sample(self):
        spec = N.CnnSpec(in_channels=1, channels=4, depth=2, input_side=9)
        net = N.build_cnn(spec, 0)
        out = net.forward(np.random.default_rng(0).normal(size=(3, 1, 9, 9)))
        assert out.data.shape == (3, 1)

    def test_zero_input_zero_bias_gives_zero(self):
        net = N.build_cnn(N.CnnSpec(1, 4, 3, 9), 0)
        out = net.forward(np.zeros((2, 1, 9, 9)))
        npt.assert_allclose(out.data, 0.0)

    def test_param_count_formula(self):
        spec = N.CnnSpec(in_channels=2, channels=5, depth=3, input_side=9)
        net = N.build_cnn(spec, 0)
        expected = (2 * 5 * 9 + 5) + 2 * (5 * 5 * 9 + 5) + (5 + 1)
        assert net.param_count() == expected == expected_param_count(spec)

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(DimensionError):
            N.CnnSpec(1, 4, 2, input_side=2)

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
        net = N.build_cnn(N.CnnSpec(1, 2, 2, input_side=8), 2)
        x = E.Tensor(np.random.default_rng(3).normal(size=(2, 1, 8, 8)))
        report = E.finite_diff_check(lambda: E.tsum(net.forward(x)), net.params)
        assert report.passed, report


class TestUnet:
    @pytest.mark.parametrize("side", [16, 24, 51])
    def test_output_side_matches_input(self, side):
        net = N.build_unet(N.UnetSpec(in_channels=1, base_channels=2, input_side=side), 0)
        out = net.forward(np.random.default_rng(0).normal(size=(1, 1, side, side)))
        assert out.data.shape == (1, 1, side, side)

    def test_same_seed_same_output(self):
        x = np.random.default_rng(5).normal(size=(1, 1, 16, 16))
        spec = N.UnetSpec(1, 2, 16)
        a = N.build_unet(spec, 9).forward(x).data
        b = N.build_unet(spec, 9).forward(x).data
        npt.assert_array_equal(a, b)

    def test_param_count_formula(self):
        spec = N.UnetSpec(in_channels=1, base_channels=2, input_side=16)
        assert N.build_unet(spec, 0).param_count() == expected_param_count(spec)

    def test_reduce_center_pixel(self):
        m = np.arange(1.0, 10.0).reshape(1, 1, 3, 3)
        out = N.unet_reduce(E.Tensor(m))
        npt.assert_array_equal(out.data, [[5.0]])
        const = N.unet_reduce(E.Tensor(np.full((2, 1, 5, 5), 3.25)))
        npt.assert_array_equal(const.data, 3.25)
        with pytest.raises(ContractError):
            N.unet_reduce(E.Tensor(np.ones((1, 1, 4, 4))))

    def test_reduce_51_is_index_25(self):
        m = np.zeros((1, 1, 51, 51))
        m[0, 0, 25, 25] = 7.5
        assert N.unet_reduce(E.Tensor(m)).data[0, 0] == 7.5

    def test_gradient_check_side16_miniature(self):
        net = N.build_unet(N.UnetSpec(1, 1, 16, depth=2), 4)
        x = E.Tensor(np.random.default_rng(6).normal(size=(1, 1, 16, 16)))
        report = E.finite_diff_check(lambda: E.tsum(net.forward(x)), net.params)
        assert report.passed, report

    def test_gradient_check_through_center_reduction(self):
        # Odd side exercises the internal pad/crop path plus the reduction.
        net = N.build_unet(N.UnetSpec(1, 1, 7, depth=2), 4)
        x = E.Tensor(np.random.default_rng(6).normal(size=(2, 1, 7, 7)))
        report = E.finite_diff_check(
            lambda: E.tsum(N.unet_reduce(net.forward(x))), net.params)
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
