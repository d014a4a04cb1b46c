"""The additive spatial outcome model, its training loop, and prediction.

A prediction decomposes into four additive components:

    yhat(i) = sum_m alpha_m * t_m(i)          direct
            + sum_m f_m(patch_m(i))           interference
            + g(x(i))                         observed confounders
            + w^T z(s(i))                     spatial adjustment (optional)

``predict`` reports each component of one unit's prediction, and the effect
estimators read the interference nets through ``interference_component``.
Interference nets consume neighborhood patches whose center entry is zero, so
the unit's own treatment enters only through the direct term.
"""

from __future__ import annotations

import functools
import json
import struct
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from . import engine as E
from . import gp as G
from . import nets as N
from .engine import Tensor
from .errors import (ConfigError, ContractError, DataError, DimensionError, FormatError,
                     NumericError, SpatialCausalError, check, check_fields, check_sizes)


@dataclass
class SpatialDataset:
    """Point-referenced units: coordinates, treatments, patches, confounders, outcomes.

    ``patches`` has shape (N, M, d_S) for 1-d line data or (N, M, d_S, d_S)
    for grids, with the center entry zeroed.  Missing outcomes are NaN.
    """

    coords: np.ndarray
    treatments: np.ndarray
    patches: np.ndarray
    confounders: np.ndarray
    outcomes: np.ndarray
    d_s: int

    def __post_init__(self):
        self.coords = G.as_coords(self.coords)
        self.treatments = np.asarray(self.treatments, dtype=np.float64)
        self.patches = np.asarray(self.patches, dtype=np.float64)
        self.confounders = np.asarray(self.confounders, dtype=np.float64)
        self.outcomes = np.asarray(self.outcomes, dtype=np.float64)
        if not np.all(np.isfinite(self.coords)):
            raise DataError("unit coordinates must be finite")
        n = self.coords.shape[0]
        if self.treatments.ndim != 2 or self.treatments.shape[0] != n:
            raise DimensionError(f"treatments must be (N, M), got {self.treatments.shape}")
        m = self.treatments.shape[1]
        if self.patches.shape[:2] != (n, m) or self.patches.ndim not in (3, 4):
            raise DimensionError(f"patches must be (N, M, ...) matching N={n} M={m}, "
                                 f"got {self.patches.shape}")
        if self.confounders.ndim != 2 or self.confounders.shape[0] != n:
            raise DimensionError(f"confounders must be (N, dx), got {self.confounders.shape}")
        if self.outcomes.shape != (n,):
            raise DimensionError(f"outcomes must be (N,), got {self.outcomes.shape}")
        check("d_s", self.d_s, ContractError)
        if self.patches.shape[2] != self.d_s or (self.patches.ndim == 4
                                                 and self.patches.shape[3] != self.d_s):
            raise DimensionError(f"patch side {self.patches.shape[2:]} != d_s {self.d_s}")
        center = (slice(None), slice(None)) + ((self.d_s // 2,) * (self.patches.ndim - 2))
        if np.any(self.patches[center] != 0.0):
            raise DataError("patch centers must be zero (own treatment excluded)")

    @property
    def n_units(self) -> int:
        return self.coords.shape[0]

    @property
    def n_treatments(self) -> int:
        return self.treatments.shape[1]

    @property
    def patch_shape(self) -> tuple:
        return self.patches.shape[2:]

    def observed_mask(self) -> np.ndarray:
        return np.isfinite(self.outcomes)

    def subset(self, indices) -> "SpatialDataset":
        idx = np.asarray(indices)
        return SpatialDataset(self.coords[idx], self.treatments[idx], self.patches[idx],
                              self.confounders[idx], self.outcomes[idx], self.d_s)


INTERFERENCE_KINDS = ("linear", "mlp", "cnn", "unet", "none")
CONFOUNDER_KINDS = ("linear", "mlp")
OPTIMIZERS = ("auto", "sgd", "adam")


@dataclass(frozen=True)
class ModelConfig:
    """Names each component kind plus the hyperparameters to build it."""

    m: int
    patch_shape: tuple
    x_dim: int
    interference: str = "linear"        # one of INTERFERENCE_KINDS
    confounder: str = "linear"          # one of CONFOUNDER_KINDS
    mlp_width: int = 256
    mlp_depth: int = 3
    cnn_channels: int = 64
    cnn_depth: int = 9
    unet_base: int = 16
    unet_depth: int = 3
    gp: bool = False
    kernel: G.KernelSpec | None = None
    q: int = 100
    inducing_strategy: str = "grid"
    train_lengthscale: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, ConfigError)
        if self.interference not in INTERFERENCE_KINDS:
            raise ConfigError(f"unknown interference kind {self.interference!r}")
        if self.confounder not in CONFOUNDER_KINDS:
            raise ConfigError(f"unknown confounder kind {self.confounder!r}")
        if self.interference in ("cnn", "unet") and len(self.patch_shape) != 2:
            raise ConfigError(f"{self.interference} interference needs 2-d patches, "
                              f"got shape {self.patch_shape}")
        if self.interference == "cnn" and self.patch_shape[0] < 3:
            raise DimensionError(f"input side {self.patch_shape[0]} smaller than kernel 3")
        if self.gp and self.kernel is None:
            raise ConfigError("gp enabled but no kernel given")
        check_sizes(self.array_sizes(vars(self)), ConfigError)

    @staticmethod
    def array_sizes(model) -> tuple:
        """(key, array, element count) of the largest arrays, and of each net's
        hidden weights in all, that the settings in mapping ``model`` size,
        whatever the data."""
        width, channels, base = model["mlp_width"], model["cnn_channels"], model["unet_base"]
        depth = min(model["unet_depth"], 14)    # deeper is over the cap at every base
        return (("q", "the q x q Gram", model["q"] ** 2),
                ("mlp_width", "the mlp_width x mlp_width hidden weight", width * width),
                ("mlp_depth", "the mlp_depth x mlp_width x mlp_width hidden weights",
                 model["mlp_depth"] * width * width),
                ("cnn_channels", "the cnn_channels x cnn_channels x 9 kernel",
                 channels * channels * 9),
                ("cnn_depth", "the cnn_depth x cnn_channels x cnn_channels x 9 kernels",
                 model["cnn_depth"] * channels * channels * 9),
                ("unet_depth" if 2 ** depth > base else "unet_base",
                 f"the (unet_base * 2**{depth})**2 x 9 U-Net bottleneck kernel",
                 (base * 2 ** depth) ** 2 * 9))


class SpatialModel:
    """Additive outcome model; see the module docstring for the decomposition."""

    def __init__(self, config: ModelConfig, alphas: Tensor,
                 interference_nets: list, confounder_net, gp_term: G.GpTerm | None):
        self.config = config
        self.alphas = alphas                    # (M, 1)
        self.interference_nets = interference_nets
        self.confounder_net = confounder_net
        self.gp_term = gp_term
        self.noise_sigma = 0.0

    @property
    def m(self) -> int:
        return self.config.m

    def parameters(self) -> list:
        params = [self.alphas]
        for net in self.interference_nets:
            params.extend(net.params)
        params.extend(self.confounder_net.params)
        if self.gp_term is not None:
            params.extend(self.gp_term.parameters())
        return params

    def _interference(self, m: int, patches_m: np.ndarray) -> Tensor:
        """f_m on a batch of patch m, laid out for the net kind, as (n, 1)."""
        net = self.interference_nets[m]
        if net.kind in ("cnn", "unet"):
            x = patches_m[:, None, :, :]
        else:
            x = patches_m.reshape(patches_m.shape[0], -1)
        return net.forward(Tensor(x))

    def forward_batch(self, treatments: np.ndarray, patches: np.ndarray,
                      confounders: np.ndarray, coords: np.ndarray,
                      gp_features: np.ndarray | None = None) -> Tensor:
        """(n, 1) predictions; differentiable under a tape, plain numpy outside one.

        The interference nets and the confounder net share no input that
        needs a gradient, so they run as engine ``branches``; their outputs
        are then added to the direct term in order, interference nets first.
        ``gp_features``, when given, are the GP features of ``coords`` that
        ``train`` solved once for the fit; otherwise the GP term solves them.
        """
        pred = E.matmul(Tensor(treatments), self.alphas)
        terms = [functools.partial(self._interference, m, patches[:, m])
                 for m in range(len(self.interference_nets))]
        terms.append(lambda: self.confounder_net.forward(Tensor(confounders)))
        for term in E.branches(terms):
            pred = E.add(pred, term)
        if self.gp_term is not None:
            pred = E.add(pred, self.gp_term.values_op(coords, gp_features))
        return pred

    def predict_dataset(self, dataset: SpatialDataset,
                        gp_features: np.ndarray | None = None) -> np.ndarray:
        """Predicted outcomes for every unit at observed assignments."""
        return self.forward_batch(dataset.treatments, dataset.patches, dataset.confounders,
                                  dataset.coords, gp_features).data.reshape(-1)

    def interference_component(self, m: int, patches_m: np.ndarray) -> np.ndarray:
        """f_m on a batch of patch m as (n,); zeros when there are no nets."""
        if not self.interference_nets:
            return np.zeros(patches_m.shape[0])
        return self._interference(m, patches_m).data.reshape(-1)


@dataclass
class PredictionBreakdown:
    yhat: float
    direct: float
    interference: float
    confounder: float
    spatial: float


def build_model(config: ModelConfig, coords: np.ndarray | None = None) -> SpatialModel:
    """Construct the model named by the config.

    ``coords`` supplies inducing-point candidates and is required when the
    spatial term is enabled.
    """
    inducing = None
    if config.gp:
        if coords is None:
            raise ConfigError("gp-enabled model needs coordinates for inducing points")
        inducing = G.select_inducing(coords, config.q, config.inducing_strategy,
                                    seed=config.seed + 13)
    return _assemble(config, inducing)


def _assemble(config: ModelConfig, inducing: G.InducingSet | None) -> SpatialModel:
    """Every component of the model once its inducing points are known.  The
    data-sized arrays, the m x 1 coefficients and each net's first weight, are
    stated first, as ``DataError`` naming the key to lower."""
    patch_size = int(np.prod(config.patch_shape, dtype=object))     # exact: never wraps
    sizes = [("m", "the m x 1 direct coefficients", config.m)]
    for kind, rows, key, net in ((config.interference, patch_size, "patch_shape", "interference"),
                                 (config.confounder, config.x_dim, "x_dim", "confounder")):
        if kind in ("linear", "mlp"):
            width = config.mlp_width if kind == "mlp" else 1
            sizes.append(("mlp_width" if kind == "mlp" else key,
                          f"the {rows} x {width} first {net} weight", rows * width))
    check_sizes(sizes, DataError)
    alphas = Tensor(np.zeros((config.m, 1)), requires_grad=True)
    nets = []
    if config.interference != "none":
        for m in range(config.m):
            seed = config.seed + 101 * (m + 1)
            if config.interference == "linear":
                nets.append(N.build_linear_interference(config.patch_shape))
            elif config.interference == "mlp":
                nets.append(N.build_mlp(patch_size, config.mlp_width, config.mlp_depth, seed))
            elif config.interference == "cnn":
                nets.append(N.build_cnn(config.cnn_channels, config.cnn_depth, seed))
            else:
                nets.append(N.build_unet(config.unet_base, config.unet_depth, seed))
    if config.confounder == "linear":
        conf_net = N.build_affine(config.x_dim)
    else:
        conf_net = N.build_mlp(config.x_dim, config.mlp_width, config.mlp_depth,
                               config.seed + 7)
    gp_term = None
    if config.gp:
        gp_term = G.GpTerm(inducing, config.kernel, config.train_lengthscale)
    return SpatialModel(config, alphas, nets, conf_net, gp_term)


def predict(model: SpatialModel, dataset: SpatialDataset, index: int,
            overrides: dict | None = None) -> PredictionBreakdown:
    """Predict one unit, optionally replacing t_m and/or patch_m values.

    ``overrides`` = {"t": {m: value}, "patch": {m: array-or-scalar}}; a scalar
    patch override fills the whole patch (0 gives the all-zero neighborhood).
    The dataset is never modified.
    """
    if not 0 <= index < dataset.n_units:
        raise ContractError(f"unit index {index} outside 0..{dataset.n_units - 1}")
    if dataset.n_treatments != model.m:
        raise DimensionError(f"dataset has M={dataset.n_treatments}, model has M={model.m}")
    overrides = overrides or {}
    t = dataset.treatments[index:index + 1].copy()
    for m, val in overrides.get("t", {}).items():
        t[0, m] = float(val)
    patches = dataset.patches[index:index + 1].copy()
    for m, val in overrides.get("patch", {}).items():
        val = np.asarray(val, dtype=np.float64)
        if val.ndim == 0:
            patches[0, m] = val
        else:
            if val.shape != dataset.patch_shape:
                raise DimensionError(
                    f"patch override shape {val.shape} != {dataset.patch_shape}")
            patches[0, m] = val
    direct = float((t @ model.alphas.data)[0, 0])
    interference = sum((float(model.interference_component(m, patches[:, m])[0])
                        for m in range(len(model.interference_nets))), 0.0)
    x = Tensor(dataset.confounders[index:index + 1])
    confounder = float(model.confounder_net.forward(x).data[0, 0])
    spatial = 0.0
    if model.gp_term is not None:
        spatial = float(model.gp_term.values_op(dataset.coords[index:index + 1]).data[0, 0])
    return PredictionBreakdown(direct + interference + confounder + spatial,
                               direct, interference, confounder, spatial)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    lr: float = 0.001
    batch_size: int = 0                 # 0 = full batch
    optimizer: str = "auto"             # one of OPTIMIZERS
    momentum: float = 0.99
    seed: int = 0
    patience: int = 0                   # early stopping on validation MSE; 0 = none

    def __post_init__(self) -> None:
        check_fields(self, ContractError)
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")


def _make_optimizer(model: SpatialModel, cfg: TrainConfig):
    kind = cfg.optimizer
    if kind == "auto":
        kind = "adam" if model.gp_term is not None else "sgd"
    if kind == "sgd":
        return E.SGD(model.parameters(), lr=cfg.lr, momentum=cfg.momentum)
    return E.Adam(model.parameters(), lr=cfg.lr)


def _snapshot(model: SpatialModel) -> list:
    return [p.data.copy() for p in model.parameters()]


def _restore(model: SpatialModel, snap: list) -> None:
    for p, d in zip(model.parameters(), snap):
        p.data = d.copy()


def _check_unit_sizes(config: ModelConfig, n: int, interference_only: bool = False) -> None:
    """Raises ``DataError`` when a forward on ``n`` units would allocate an
    array over ``errors.MAX_ELEMENTS``: the n x q GP features, an MLP net's
    n x mlp_width activations, or a convolution's n x channels maps on the
    zero-padded patch, which the CNN sizes at every layer and the U-Net at
    its first level.  ``interference_only`` states only the interference
    nets' arrays."""
    sizes = []
    if config.gp and not interference_only:
        sizes.append(("q", f"the {n} x q GP features", n * config.q))
    if config.interference == "mlp" or (config.confounder == "mlp" and not interference_only):
        sizes.append(("mlp_width", f"the {n} x mlp_width MLP activations",
                      n * config.mlp_width))
    if config.interference == "cnn":
        h, w = (side + 2 for side in config.patch_shape)
        sizes.append(("cnn_channels", f"the {n} x cnn_channels x {h}x{w} CNN activations",
                      n * config.cnn_channels * h * w))
    if config.interference == "unet":
        mult = 2 ** config.unet_depth
        h, w = (side + (-side) % mult + 2 for side in config.patch_shape)
        sizes.append(("unet_base", f"the {n} x unet_base x {h}x{w} U-Net first-level "
                      "activations", n * config.unet_base * h * w))
    check_sizes(sizes, DataError)


def train(model: SpatialModel, dataset: SpatialDataset, cfg: TrainConfig,
          val_dataset: SpatialDataset | None = None) -> list:
    """Minimize MSE on observed-outcome units; returns the per-epoch loss trace.

    Trace rows are (epoch, train_mse, val_mse) with val_mse NaN when no
    validation set is given.  With a validation set and ``patience`` above 0,
    training stops after that many non-improving epochs and the best
    parameters (by validation MSE) are restored.

    A fixed GP lengthscale makes the GP features of the training and
    validation units constants of the fit: each set's features are solved
    once, and every step, validation pass and the closing ``noise_sigma``
    prediction pass their rows to ``GpTerm.values_op``.  The lengthscale leaf
    is then no parameter, so nothing here changes the map they were solved with.
    """
    mask = dataset.observed_mask()
    if not mask.any():
        raise DataError("no units with observed outcomes")
    obs = dataset.subset(np.nonzero(mask)[0])
    n = obs.n_units
    y = obs.outcomes.reshape(-1, 1)
    batch = min(cfg.batch_size or n, n)
    opt = _make_optimizer(model, cfg)
    rng = np.random.default_rng(cfg.seed)
    val_obs = None
    if val_dataset is not None:
        vmask = val_dataset.observed_mask()
        if vmask.any():
            val_obs = val_dataset.subset(np.nonzero(vmask)[0])

    for part in (obs, val_obs):
        if part is not None:
            _check_unit_sizes(model.config, part.n_units)

    feats = val_feats = None
    if model.gp_term is not None:
        model.gp_term.map  # a kernel that cannot be factored fails here, not as divergence
        if not model.gp_term.train_lengthscale:
            feats = model.gp_term.features_op(obs.coords).data
            if val_obs is not None:
                val_feats = model.gp_term.features_op(val_obs.coords).data

    trace = []
    best_val = np.inf
    best_snap = None
    stale = 0
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        sq_sum = 0.0
        for start in range(0, n, batch):
            idx = perm[start:start + batch]
            opt.zero_grad()
            try:
                with E.Tape() as tape:
                    pred = model.forward_batch(obs.treatments[idx], obs.patches[idx],
                                               obs.confounders[idx], obs.coords[idx],
                                               None if feats is None else feats[idx])
                    loss = E.mse(pred, Tensor(y[idx]))
                lv = loss.item()
                tape.backward(loss)
            except NumericError as exc:
                raise NumericError(f"training diverged at epoch {epoch}: {exc}") from exc
            opt.step()
            sq_sum += lv * idx.size
        train_mse = sq_sum / n
        val_mse = np.nan
        if val_obs is not None:
            resid = model.predict_dataset(val_obs, val_feats) - val_obs.outcomes
            val_mse = float(np.mean(resid * resid))
            if val_mse < best_val - 1e-12:
                best_val = val_mse
                stale = 0
                if cfg.patience:
                    best_snap = _snapshot(model)
            else:
                stale += 1
        trace.append((epoch, train_mse, val_mse))
        if cfg.patience and val_obs is not None and stale >= cfg.patience:
            break
    if best_snap is not None:
        _restore(model, best_snap)
    resid = model.predict_dataset(obs, feats) - obs.outcomes
    model.noise_sigma = float(np.std(resid))
    return trace


def evaluate(model: SpatialModel, dataset: SpatialDataset) -> dict:
    """R-squared and MAE overall and per treatment-percentile stratum, as the
    flat ``r2_<stratum>`` and ``mae_<stratum>`` keys of ``metrics.json``.

    The strata are ``all`` and a split on treatment 1: ``low`` below its 30th
    percentile, ``mid`` between, ``high`` above the 70th.  Empty strata are
    omitted from the result.
    """
    mask = dataset.observed_mask()
    if not mask.any():
        raise DataError("no observed outcomes to evaluate")
    obs = dataset.subset(np.nonzero(mask)[0])
    _check_unit_sizes(model.config, obs.n_units)
    y = obs.outcomes
    pred = model.predict_dataset(obs)
    t1 = obs.treatments[:, 0]
    lo, hi = np.percentile(t1, [30.0, 70.0])

    out = {}
    for name, sel in (("all", np.ones(y.size, dtype=bool)), ("low", t1 < lo),
                      ("mid", (t1 >= lo) & (t1 <= hi)), ("high", t1 > hi)):
        if not sel.any():
            continue
        yy, pp = y[sel], pred[sel]
        ss_res = float(np.sum((yy - pp) ** 2))
        ss_tot = float(np.sum((yy - yy.mean()) ** 2))
        if ss_tot == 0.0:
            out[f"r2_{name}"] = 1.0 if ss_res == 0.0 else 0.0
        else:
            out[f"r2_{name}"] = 1.0 - ss_res / ss_tot
        out[f"mae_{name}"] = float(np.mean(np.abs(yy - pp)))
    return out


# ---------------------------------------------------------------------------
# checkpoints: JSON header + flat little-endian float64 parameter stream
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"SCKP"
_CKPT_VERSION = 2


def _model_header(model: SpatialModel) -> dict:
    """The config rebuilds every net; inducing points depend on training coords."""
    inducing = None
    if model.gp_term is not None:
        inducing = model.gp_term.inducing.points.tolist()
    return {"version": _CKPT_VERSION, "config": asdict(model.config),
            "inducing": inducing, "noise_sigma": model.noise_sigma}


def save_model(model: SpatialModel, path: str) -> None:
    """Write the header, then ``model.parameters()`` in order as float64."""
    head = json.dumps(_model_header(model), sort_keys=True).encode("utf-8")
    payload = np.concatenate([p.data.reshape(-1) for p in model.parameters()])
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        fh.write(payload.astype("<f8").tobytes())


def load_model(path: str) -> SpatialModel:
    """The model ``save_model`` wrote.  The parameter stream is checked against
    the count the header implies before the header's m treatments are built:
    a one-treatment model's parameters, plus m - 1 coefficients and m - 1
    interference nets of that model's sizes."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _CKPT_MAGIC:
        raise FormatError(f"bad checkpoint magic {blob[:4]!r} at byte 0")
    if len(blob) < 8:
        raise FormatError(f"checkpoint header length truncated at byte {len(blob)}")
    (hlen,) = struct.unpack("<I", blob[4:8])
    if len(blob) < 8 + hlen:
        raise FormatError(f"checkpoint header truncated at byte {len(blob)}")
    try:
        head = json.loads(blob[8:8 + hlen].decode("utf-8"))
        version = head.get("version") if isinstance(head, dict) else None
        if version != _CKPT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version!r} "
                              f"(expected {_CKPT_VERSION}); retrain the model")
        fields = dict(head["config"])
        fields["patch_shape"] = tuple(fields["patch_shape"])
        if fields["kernel"] is not None:
            fields["kernel"] = G.KernelSpec(**fields["kernel"])
        config = ModelConfig(**fields)
        inducing = G.InducingSet(head["inducing"]) if config.gp else None
        model = _assemble(replace(config, m=1), inducing)
        noise_sigma = float(head["noise_sigma"])
        per_net = sum(p.data.size for net in model.interference_nets for p in net.params)
        need = sum(p.data.size for p in model.parameters()) + (config.m - 1) * (1 + per_net)
        if (len(blob) - 8 - hlen) % 8:
            raise FormatError(f"parameter stream of {len(blob) - 8 - hlen} bytes is not "
                              "whole float64 values")
        stream = np.frombuffer(blob[8 + hlen:], dtype="<f8")
        if stream.size < need:
            raise FormatError(f"parameter stream truncated: need {need} values, "
                              f"have {stream.size}")
        if stream.size > need:
            raise FormatError(f"parameter stream has {stream.size - need} trailing values")
        bad = np.flatnonzero(~np.isfinite(stream))
        if bad.size:
            raise FormatError(f"parameter stream holds {bad.size} non-finite values, "
                              f"the first at value {bad[0]}")
        if config.m > 1:
            model = _assemble(config, inducing)
        model.noise_sigma = noise_sigma
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError, RecursionError, SpatialCausalError) as exc:
        raise FormatError(f"malformed checkpoint header: {exc!r}") from None
    off = 0
    for p in model.parameters():
        p.data = stream[off:off + p.data.size].reshape(p.data.shape).copy()
        off += p.data.size
    return model
