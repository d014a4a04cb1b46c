"""Network constructors: MLP, CNN, U-Net, and linear maps over the engine ops.

Every builder takes an explicit seed and draws weights from
``numpy.random.default_rng(seed)`` with Glorot-uniform limits, so construction
is reproducible bit for bit.  Forward procedures are pure functions of the
parameters; convolutional nets consume (n, c, h, w) batches, dense nets
(n, d) batches, and every scalar-valued head returns shape (n, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import engine as E
from .engine import Tensor
from .errors import ContractError, DimensionError


@dataclass(frozen=True)
class MlpSpec:
    in_dim: int
    width: int
    depth: int            # number of hidden layers
    out_dim: int = 1

    def validate(self) -> None:
        if min(self.in_dim, self.width, self.depth, self.out_dim) < 1:
            raise ContractError(f"invalid mlp spec {self}")


@dataclass(frozen=True)
class CnnSpec:
    in_channels: int
    channels: int
    depth: int            # number of conv layers
    input_side: int
    kernel_size: int = 3

    def validate(self) -> None:
        if min(self.in_channels, self.channels, self.depth, self.input_side) < 1:
            raise ContractError(f"invalid cnn spec {self}")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ContractError(f"kernel size must be odd, got {self.kernel_size}")
        if self.input_side < self.kernel_size:
            raise DimensionError(
                f"input side {self.input_side} smaller than kernel {self.kernel_size}")


@dataclass(frozen=True)
class UnetSpec:
    in_channels: int
    base_channels: int
    input_side: int
    depth: int = 3        # number of down/up levels

    def validate(self) -> None:
        if min(self.in_channels, self.base_channels, self.depth, self.input_side) < 1:
            raise ContractError(f"invalid unet spec {self}")


@dataclass(frozen=True)
class LinearSpec:
    in_dim: int
    bias: bool = False

    def validate(self) -> None:
        if self.in_dim < 1:
            raise ContractError(f"invalid linear spec {self}")


def _glorot(rng: np.random.Generator, shape: tuple, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Network:
    """A spec, an ordered parameter list, and a forward procedure."""

    def __init__(self, kind: str, spec, params: list[Tensor]):
        self.kind = kind
        self.spec = spec
        self.params = params

    def param_count(self) -> int:
        return sum(p.data.size for p in self.params)

    def forward(self, x) -> Tensor:
        return _FORWARD[self.kind](self, E.as_tensor(x))

    def __repr__(self) -> str:
        return f"Network(kind={self.kind!r}, params={self.param_count()})"


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_mlp(spec: MlpSpec, seed: int) -> Network:
    """Fully connected net: ``depth`` ReLU hidden layers plus a linear head."""
    spec.validate()
    rng = np.random.default_rng(seed)
    dims = [spec.in_dim] + [spec.width] * spec.depth + [spec.out_dim]
    params = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        params.append(Tensor(_glorot(rng, (d_in, d_out), d_in, d_out), requires_grad=True))
        params.append(Tensor(np.zeros(d_out), requires_grad=True))
    return Network("mlp", spec, params)


def build_cnn(spec: CnnSpec, seed: int) -> Network:
    """Conv stack (ReLU, size-preserving padding), global average pool, linear head."""
    spec.validate()
    rng = np.random.default_rng(seed)
    k = spec.kernel_size
    params = []
    cin = spec.in_channels
    for _ in range(spec.depth):
        cout = spec.channels
        params.append(Tensor(
            _glorot(rng, (cout, cin, k, k), cin * k * k, cout * k * k), requires_grad=True))
        params.append(Tensor(np.zeros(cout), requires_grad=True))
        cin = cout
    params.append(Tensor(
        _glorot(rng, (spec.channels, 1), spec.channels, 1), requires_grad=True))
    params.append(Tensor(np.zeros(1), requires_grad=True))
    return Network("cnn", spec, params)


def build_unet(spec: UnetSpec, seed: int) -> Network:
    """Encoder-decoder with skip connections and a 1x1 head to a 1-channel map.

    Each level applies conv-conv then 2x2 max pooling on the way down; the way
    up is nearest upsampling, concatenation with the matching skip, conv-conv.
    Inputs whose sides are not divisible by 2**depth are zero padded before the
    encoder and center cropped after the decoder, so the output map always has
    the input's spatial size.
    """
    spec.validate()
    rng = np.random.default_rng(seed)
    params = []

    def conv_param(cin, cout, k=3):
        params.append(Tensor(
            _glorot(rng, (cout, cin, k, k), cin * k * k, cout * k * k), requires_grad=True))
        params.append(Tensor(np.zeros(cout), requires_grad=True))

    c = spec.base_channels
    cin = spec.in_channels
    enc_channels = []
    for lvl in range(spec.depth):
        cout = c * (2 ** lvl)
        conv_param(cin, cout)
        conv_param(cout, cout)
        enc_channels.append(cout)
        cin = cout
    bott = c * (2 ** spec.depth)
    conv_param(cin, bott)
    conv_param(bott, bott)
    up_in = bott
    for lvl in reversed(range(spec.depth)):
        skip = enc_channels[lvl]
        conv_param(up_in + skip, skip)
        conv_param(skip, skip)
        up_in = skip
    conv_param(up_in, 1, k=1)
    return Network("unet", spec, params)


def build_linear_interference(patch_shape: Sequence[int], seed: int = 0) -> Network:
    """Trainable weighted sum of the patch entries, no bias, zero initialized."""
    size = int(np.prod(patch_shape))
    spec = LinearSpec(in_dim=size, bias=False)
    spec.validate()
    params = [Tensor(np.zeros((size, 1)), requires_grad=True)]
    return Network("linear", spec, params)


def build_affine(in_dim: int, seed: int = 0) -> Network:
    """Zero-initialized affine map x -> x @ w + b, used by the linear baselines."""
    spec = LinearSpec(in_dim=in_dim, bias=True)
    spec.validate()
    params = [Tensor(np.zeros((in_dim, 1)), requires_grad=True),
              Tensor(np.zeros(1), requires_grad=True)]
    return Network("linear", spec, params)


# ---------------------------------------------------------------------------
# forward procedures
# ---------------------------------------------------------------------------

def _mlp_forward(net: Network, x: Tensor) -> Tensor:
    if x.data.ndim != 2 or x.data.shape[1] != net.spec.in_dim:
        raise DimensionError(f"mlp expects (n,{net.spec.in_dim}), got {x.data.shape}")
    h = x
    n_layers = len(net.params) // 2
    for i in range(n_layers):
        h = E.bias_add(E.matmul(h, net.params[2 * i]), net.params[2 * i + 1])
        if i < n_layers - 1:
            h = E.relu(h)
    return h


def _cnn_forward(net: Network, x: Tensor) -> Tensor:
    spec = net.spec
    if x.data.ndim != 4 or x.data.shape[1] != spec.in_channels:
        raise DimensionError(f"cnn expects (n,{spec.in_channels},h,w), got {x.data.shape}")
    if min(x.data.shape[2], x.data.shape[3]) < spec.kernel_size:
        raise DimensionError(f"input {x.data.shape} smaller than kernel {spec.kernel_size}")
    pad = (spec.kernel_size - 1) // 2
    h = x
    for i in range(spec.depth):
        h = E.relu(E.conv2d(h, net.params[2 * i], net.params[2 * i + 1], padding=pad))
    pooled = E.global_avg_pool(h)
    return E.bias_add(E.matmul(pooled, net.params[-2]), net.params[-1])


def _unet_forward(net: Network, x: Tensor) -> Tensor:
    spec = net.spec
    if x.data.ndim != 4 or x.data.shape[1] != spec.in_channels:
        raise DimensionError(f"unet expects (n,{spec.in_channels},h,w), got {x.data.shape}")
    n, _, h_in, w_in = x.data.shape
    mult = 2 ** spec.depth
    pad_h = (-h_in) % mult
    pad_w = (-w_in) % mult
    if pad_h or pad_w:
        x = E.pad2d(x, pad_h // 2, pad_h - pad_h // 2, pad_w // 2, pad_w - pad_w // 2)

    idx = 0

    def conv(h, pad=1):
        nonlocal idx
        out = E.conv2d(h, net.params[idx], net.params[idx + 1], padding=pad)
        idx += 2
        return out

    skips = []
    h = x
    for _ in range(spec.depth):
        h = E.relu(conv(h))
        h = E.relu(conv(h))
        skips.append(h)
        h = E.maxpool2(h)
    h = E.relu(conv(h))
    h = E.relu(conv(h))
    for lvl in reversed(range(spec.depth)):
        h = E.upsample2(h)
        h = E.concat_channels([h, skips[lvl]])
        h = E.relu(conv(h))
        h = E.relu(conv(h))
    h = conv(h, pad=0)  # 1x1 head
    if pad_h or pad_w:
        r0, c0 = pad_h // 2, pad_w // 2
        h = E.crop2d(h, r0, r0 + h_in, c0, c0 + w_in)
    return h


def _linear_forward(net: Network, x: Tensor) -> Tensor:
    spec = net.spec
    flat = x if x.data.ndim == 2 else E.reshape(x, (x.data.shape[0], -1))
    if flat.data.shape[1] != spec.in_dim:
        raise DimensionError(f"linear expects {spec.in_dim} features, got {flat.data.shape}")
    out = E.matmul(flat, net.params[0])
    if spec.bias:
        out = E.bias_add(out, net.params[1])
    return out


_FORWARD = {
    "mlp": _mlp_forward,
    "cnn": _cnn_forward,
    "unet": _unet_forward,
    "linear": _linear_forward,
}


def unet_reduce(output_map: Tensor) -> Tensor:
    """Collapse a (n, 1, h, w) map to (n, 1) by taking the center pixel."""
    out = E.center_pixel(output_map)
    if out.data.shape[1] != 1:
        raise ContractError(f"unet_reduce expects a 1-channel map, got {out.data.shape}")
    return out


# ---------------------------------------------------------------------------
# closed-form parameter counts
# ---------------------------------------------------------------------------

def expected_param_count(spec) -> int:
    if isinstance(spec, MlpSpec):
        dims = [spec.in_dim] + [spec.width] * spec.depth + [spec.out_dim]
        return sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
    if isinstance(spec, CnnSpec):
        k2 = spec.kernel_size ** 2
        total = spec.in_channels * spec.channels * k2 + spec.channels
        total += (spec.depth - 1) * (spec.channels * spec.channels * k2 + spec.channels)
        return total + spec.channels + 1
    if isinstance(spec, UnetSpec):
        def conv(cin, cout, k=3):
            return cin * cout * k * k + cout

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
    if isinstance(spec, LinearSpec):
        return spec.in_dim + (1 if spec.bias else 0)
    raise ContractError(f"unknown spec type {type(spec).__name__}")
