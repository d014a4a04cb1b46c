"""Network constructors: MLP, CNN, U-Net, and linear maps over the engine ops.

The builders take plain sizes, each checked against the domain of the
``ModelConfig`` field that feeds it.  The MLP, CNN and U-Net builders take an
explicit seed and draw weights from ``numpy.random.default_rng(seed)`` with
Glorot-uniform limits, so construction is reproducible bit for bit; the linear
maps start at zero.  Forward procedures are pure functions of the parameters
and read every size from their shapes; convolutional nets consume (n, 1, h, w)
batches, dense nets (n, d) batches, and every net returns shape (n, 1).  Each
MLP layer, the CNN head and ``build_affine``'s map are one engine ``dense`` op
each, so a training step keeps one activation array per layer.  The U-Net's
value is the center pixel of its output map, so its decoder convolutions run
only on the windows that pixel depends on.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import engine as E
from .engine import Tensor
from .errors import ContractError, DimensionError, check


def _glorot(rng: np.random.Generator, shape: tuple, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Network:
    """A kind, an ordered parameter list, and a forward procedure."""

    def __init__(self, kind: str, params: list[Tensor]):
        self.kind = kind
        self.params = params

    def param_count(self) -> int:
        return sum(p.data.size for p in self.params)

    def forward(self, x) -> Tensor:
        return _FORWARD[self.kind](self, E.as_tensor(x))

    def __repr__(self) -> str:
        return f"Network(kind={self.kind!r}, params={self.param_count()})"


def _check(**args) -> None:
    """Each argument, given as (config field, value), in the domain of the
    ``ModelConfig`` field that feeds it; the message names the argument."""
    for name, (field, value) in args.items():
        check(field, value, ContractError, name)


def _conv_param(rng: np.random.Generator, cin: int, cout: int, k: int = 3) -> list[Tensor]:
    """A k x k conv's Glorot weight and zero bias."""
    return [Tensor(_glorot(rng, (cout, cin, k, k), cin * k * k, cout * k * k),
                   requires_grad=True),
            Tensor(np.zeros(cout), requires_grad=True)]


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_mlp(in_dim: int, width: int, depth: int, seed: int) -> Network:
    """Fully connected net: ``depth`` ReLU hidden layers plus a linear head."""
    _check(in_dim=("in_dim", in_dim), width=("mlp_width", width),
           depth=("mlp_depth", depth), seed=("seed", seed))
    rng = np.random.default_rng(seed)
    dims = [in_dim] + [width] * depth + [1]
    params = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        params.append(Tensor(_glorot(rng, (d_in, d_out), d_in, d_out), requires_grad=True))
        params.append(Tensor(np.zeros(d_out), requires_grad=True))
    return Network("mlp", params)


def build_cnn(channels: int, depth: int, seed: int) -> Network:
    """3x3 conv stack (ReLU, padding 1) on one input channel, global average
    pool, linear head."""
    _check(channels=("cnn_channels", channels), depth=("cnn_depth", depth),
           seed=("seed", seed))
    rng = np.random.default_rng(seed)
    params = []
    for layer in range(depth):
        params += _conv_param(rng, channels if layer else 1, channels)
    params.append(Tensor(_glorot(rng, (channels, 1), channels, 1), requires_grad=True))
    params.append(Tensor(np.zeros(1), requires_grad=True))
    return Network("cnn", params)


def build_unet(base_channels: int, depth: int, seed: int) -> Network:
    """Encoder-decoder with skip connections and a 1x1 head; returns the center value.

    Each level applies conv-conv then 2x2 max pooling on the way down; the way
    up is nearest upsampling, concatenation with the matching skip, conv-conv.
    Input sides must be odd; inputs whose sides are not divisible by 2**depth
    are zero padded to such sides by the first convolution.  The forward
    returns (n, 1): the value the full output map holds at the input's center
    pixel.  Encoder and bottleneck run on whole maps, which pooling needs;
    each decoder conv runs only on the rows and columns the next layer reads,
    zero padded where they meet the map's edge, so each decoder feature is
    bit for bit the full-map one.
    """
    _check(base_channels=("unet_base", base_channels), depth=("unet_depth", depth),
           seed=("seed", seed))
    rng = np.random.default_rng(seed)
    params = []
    cin = 1
    for lvl in range(depth + 1):    # the encoder levels, then the bottleneck
        cout = base_channels * (2 ** lvl)
        params += _conv_param(rng, cin, cout) + _conv_param(rng, cout, cout)
        cin = cout
    for lvl in reversed(range(depth)):
        skip = base_channels * (2 ** lvl)
        params += _conv_param(rng, cin + skip, skip) + _conv_param(rng, skip, skip)
        cin = skip
    params += _conv_param(rng, cin, 1, k=1)
    return Network("unet", params)


def build_linear_interference(patch_shape: Sequence[int]) -> Network:
    """Trainable weighted sum of the patch entries, no bias, zero initialized."""
    size = int(np.prod(patch_shape))
    check("in_dim", size, ContractError)
    return Network("linear", [Tensor(np.zeros((size, 1)), requires_grad=True)])


def build_affine(in_dim: int) -> Network:
    """Zero-initialized affine map x -> x @ w + b, used by the linear baselines."""
    check("in_dim", in_dim, ContractError)
    return Network("linear", [Tensor(np.zeros((in_dim, 1)), requires_grad=True),
                              Tensor(np.zeros(1), requires_grad=True)])


# ---------------------------------------------------------------------------
# forward procedures
# ---------------------------------------------------------------------------

def _mlp_forward(net: Network, x: Tensor) -> Tensor:
    in_dim = net.params[0].data.shape[0]
    if x.data.ndim != 2 or x.data.shape[1] != in_dim:
        raise DimensionError(f"mlp expects (n,{in_dim}), got {x.data.shape}")
    h = x
    n_layers = len(net.params) // 2
    for i in range(n_layers):
        h = E.dense(h, net.params[2 * i], net.params[2 * i + 1], relu=i < n_layers - 1)
    return h


def _cnn_forward(net: Network, x: Tensor) -> Tensor:
    if x.data.ndim != 4 or x.data.shape[1] != 1:
        raise DimensionError(f"cnn expects (n,1,h,w), got {x.data.shape}")
    if min(x.data.shape[2], x.data.shape[3]) < 3:
        raise DimensionError(f"input {x.data.shape} smaller than kernel 3")
    h = x
    for i in range(len(net.params) // 2 - 1):
        h = E.relu(E.conv2d(h, net.params[2 * i], net.params[2 * i + 1], padding=1))
    pooled = E.global_avg_pool(h)
    return E.dense(pooled, net.params[-2], net.params[-1])


def _grow(win: tuple, sides: tuple) -> tuple:
    """The rows and columns a 3x3 conv reads for output window ``win``, clipped to the map."""
    return tuple((max(lo - 1, 0), min(hi + 1, side)) for (lo, hi), side in zip(win, sides))


def _crop(t: Tensor, win: tuple, origin: tuple = (0, 0)) -> Tensor:
    """Window ``win`` of a map whose first row and column sit at ``origin``."""
    (r0, r1), (c0, c1) = ((lo - o, hi - o) for (lo, hi), o in zip(win, origin))
    if (r0, r1, c0, c1) == (0, t.data.shape[2], 0, t.data.shape[3]):
        return t
    return E.crop2d(t, r0, r1, c0, c1)


def _unet_forward(net: Network, x: Tensor) -> Tensor:
    if x.data.ndim != 4 or x.data.shape[1] != 1:
        raise DimensionError(f"unet expects (n,1,h,w), got {x.data.shape}")
    depth = (len(net.params) - 6) // 8    # 4 convs per level, 2 bottleneck, 1 head
    n, _, h_in, w_in = x.data.shape
    if h_in % 2 == 0 or w_in % 2 == 0:
        raise ContractError(f"unet returns the center pixel, which needs odd sides, "
                            f"got {h_in}x{w_in}")
    mult = 2 ** depth
    pad_h = (-h_in) % mult
    pad_w = (-w_in) % mult
    # the first conv zero pads the input to sides divisible by 2**depth, and 1 more
    first = (1 + pad_h // 2, 1 + pad_h - pad_h // 2, 1 + pad_w // 2, 1 + pad_w - pad_w // 2)

    idx = 0

    def conv(h, pad=1):
        nonlocal idx
        out = E.conv2d(h, net.params[idx], net.params[idx + 1], padding=pad)
        idx += 2
        return out

    def window_conv(h, src, dst):
        """conv + relu from input window ``src`` to output window ``dst``, zero
        padded only where ``src`` stops at the map's edge."""
        return E.relu(conv(h, pad=tuple(side for (s0, s1), (d0, d1) in zip(src, dst)
                                        for side in (s0 - d0 + 1, d1 + 1 - s1))))

    skips = []
    h = x
    for lvl in range(depth):
        h = E.relu(conv(h, pad=first if lvl == 0 else 1))
        h = E.relu(conv(h))
        skips.append(h)
        h = E.maxpool2(h)
    h = E.relu(conv(h))
    h = E.relu(conv(h))

    # Decoder windows ((r0, r1), (c0, c1)), from the head down: the head reads
    # the center pixel, each 3x3 conv one more pixel on every side, and
    # upsample2 halves a window (floor at the start, ceil at the end).
    win = tuple((c, c + 1) for c in (pad_h // 2 + h_in // 2, pad_w // 2 + w_in // 2))
    windows = []
    for lvl in range(depth):
        sides = [(h_in + pad_h) >> lvl, (w_in + pad_w) >> lvl]
        mid = _grow(win, sides)
        cat = _grow(mid, sides)
        windows.append((cat, mid, win))
        win = tuple((lo // 2, -(-hi // 2)) for lo, hi in cat)
    h = _crop(h, win)
    for lvl in reversed(range(depth)):
        cat, mid, out = windows[lvl]
        up = _crop(E.upsample2(h), cat, origin=[2 * lo for lo, _ in win])
        h = E.concat_channels([up, _crop(skips[lvl], cat)])
        h = window_conv(h, cat, mid)
        h = window_conv(h, mid, out)
        win = out
    return E.reshape(conv(h, pad=0), (n, 1))  # 1x1 head on the center pixel


def _linear_forward(net: Network, x: Tensor) -> Tensor:
    in_dim = net.params[0].data.shape[0]
    flat = x if x.data.ndim == 2 else E.reshape(x, (x.data.shape[0], -1))
    if flat.data.shape[1] != in_dim:
        raise DimensionError(f"linear expects {in_dim} features, got {flat.data.shape}")
    if len(net.params) == 2:    # build_affine's bias
        return E.dense(flat, net.params[0], net.params[1])
    return E.matmul(flat, net.params[0])


_FORWARD = {
    "mlp": _mlp_forward,
    "cnn": _cnn_forward,
    "unet": _unet_forward,
    "linear": _linear_forward,
}
