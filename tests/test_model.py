"""Tests for the additive model: construction, prediction, training, metrics."""

import os
import pickle
import signal
import struct
import time

import numpy as np
import numpy.testing as npt
import pytest

from spatialcausal import engine as E
from spatialcausal import errors
from spatialcausal import gp as G
from spatialcausal import model as M
from spatialcausal.errors import (ConfigError, ContractError, DataError,
                                  DimensionError, FormatError, NumericError)


def line_dataset(n=40, m=1, seed=0, y_fn=None, x_dim=2):
    """Small 1-d dataset with length-3 center-zero patches."""
    rng = np.random.default_rng(seed)
    coords = np.linspace(0.0, 1.0, n)[:, None]
    t = rng.normal(size=(n, m))
    patches = np.zeros((n, m, 3))
    for j in range(m):
        patches[1:, j, 0] = t[:-1, j]
        patches[:-1, j, 2] = t[1:, j]
    x = rng.normal(size=(n, x_dim))
    if y_fn is None:
        y = rng.normal(size=n)
    else:
        y = y_fn(t, patches, x)
    return M.SpatialDataset(coords, t, patches, x, y, d_s=3)


def linear_cfg(patch_shape=(3,), x_dim=2, m=1, **kw):
    return M.ModelConfig(m=m, patch_shape=patch_shape, x_dim=x_dim,
                         interference="linear", confounder="linear", **kw)


class TestDataset:
    def test_validation_catches_shape_mismatch(self):
        with pytest.raises(DimensionError):
            M.SpatialDataset(np.zeros((5, 1)), np.zeros((4, 1)), np.zeros((5, 1, 3)),
                             np.zeros((5, 2)), np.zeros(5), d_s=3)

    def test_nonzero_patch_center_rejected(self):
        patches = np.ones((4, 1, 3))
        with pytest.raises(DataError):
            M.SpatialDataset(np.zeros((4, 1)), np.zeros((4, 1)), patches,
                             np.zeros((4, 2)), np.zeros(4), d_s=3)

    def test_even_d_s_rejected(self):
        with pytest.raises(ContractError):
            M.SpatialDataset(np.zeros((4, 1)), np.zeros((4, 1)), np.zeros((4, 1, 4)),
                             np.zeros((4, 2)), np.zeros(4), d_s=4)

    def test_one_d_coords_are_points(self):
        rng = np.random.default_rng(0)
        fields = (rng.normal(size=(5, 1)), np.zeros((5, 1, 3)), rng.normal(size=(5, 2)),
                  rng.normal(size=5))
        flat = M.SpatialDataset(np.linspace(0.0, 1.0, 5), *fields, d_s=3)
        column = M.SpatialDataset(np.linspace(0.0, 1.0, 5)[:, None], *fields, d_s=3)
        for name in ("coords", "treatments", "patches", "confounders", "outcomes"):
            npt.assert_array_equal(getattr(flat, name), getattr(column, name))
        assert flat.coords.shape == (5, 1)
        with pytest.raises(DimensionError, match="coordinates must be"):
            M.SpatialDataset(np.zeros((5, 1, 1)), *fields, d_s=3)


class TestBuildAndPredict:
    def test_zeroed_model_predicts_zero(self):
        data = line_dataset()
        model = M.build_model(linear_cfg())
        npt.assert_array_equal(model.predict_dataset(data), 0.0)

    def test_single_linear_term(self):
        data = line_dataset()
        model = M.build_model(linear_cfg())
        model.alphas.data[0, 0] = 2.0
        data.treatments[5, 0] = 3.0
        out = M.predict(model, data, 5)
        assert out.yhat == pytest.approx(6.0)
        assert out.direct == pytest.approx(6.0)
        assert out.interference == out.confounder == out.spatial == 0.0

    def test_override_t_shifts_by_alpha_t(self):
        data = line_dataset(seed=3)
        model = M.build_model(linear_cfg())
        rng = np.random.default_rng(1)
        model.alphas.data[0, 0] = 1.7
        model.interference_nets[0].params[0].data = rng.normal(size=(3, 1))
        model.confounder_net.params[0].data = rng.normal(size=(2, 1))
        base = M.predict(model, data, 7)
        cf = M.predict(model, data, 7, overrides={"t": {0: 0.0}})
        npt.assert_allclose(base.yhat - cf.yhat, 1.7 * data.treatments[7, 0])
        npt.assert_allclose(base.interference, cf.interference)

    def test_override_patch_touches_only_interference(self):
        data = line_dataset(seed=4)
        model = M.build_model(M.ModelConfig(m=1, patch_shape=(3,), x_dim=2,
                                            interference="mlp", confounder="linear",
                                            mlp_width=8, mlp_depth=2, seed=5))
        base = M.predict(model, data, 9)
        cf = M.predict(model, data, 9, overrides={"patch": {0: 0.0}})
        assert base.direct == cf.direct
        assert base.confounder == cf.confounder
        assert base.interference != cf.interference

    def test_components_sum_to_prediction(self):
        data = line_dataset(seed=6)
        kernel = G.KernelSpec("rbf", 1.0, 0.5, 1e-8)
        model = M.build_model(M.ModelConfig(m=1, patch_shape=(3,), x_dim=2,
                                            interference="mlp", confounder="mlp",
                                            mlp_width=6, mlp_depth=2, gp=True,
                                            kernel=kernel, q=10, seed=2),
                              coords=data.coords)
        rng = np.random.default_rng(0)
        model.gp_term.weights.data = rng.normal(size=model.gp_term.weights.data.shape)
        out = M.predict(model, data, 3)
        npt.assert_allclose(out.yhat,
                            out.direct + out.interference + out.confounder + out.spatial,
                            rtol=0, atol=1e-15)

    def test_two_treatments_build_two_nets(self):
        model = M.build_model(linear_cfg(m=2))
        assert len(model.interference_nets) == 2
        assert model.interference_nets[0].params[0] is not model.interference_nets[1].params[0]

    def test_interference_none_recovers_no_spillover_model(self):
        data = line_dataset()
        model = M.build_model(M.ModelConfig(m=1, patch_shape=(3,), x_dim=2,
                                            interference="none", confounder="linear"))
        assert model.interference_nets == []
        assert all(M.predict(model, data, i).interference == 0.0
                   for i in range(data.n_units))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            M.build_model(M.ModelConfig(m=1, patch_shape=(3,), x_dim=2,
                                        interference="transformer"))

    def test_cnn_on_1d_patches_rejected(self):
        with pytest.raises(ConfigError):
            M.build_model(M.ModelConfig(m=1, patch_shape=(3,), x_dim=2,
                                        interference="cnn"))

    def test_cnn_on_patches_smaller_than_its_kernel_rejected(self):
        with pytest.raises(DimensionError, match=r"^input side 1 smaller than kernel 3$"):
            M.ModelConfig(m=1, patch_shape=(1, 1), x_dim=2, interference="cnn")


class TestTrain:
    def test_linear_recovery_matches_ols(self):
        # Noiseless y = 2 t + 3 x1 - x2 + 1; no interference, no spatial term.
        def y_fn(t, patches, x):
            return 2.0 * t[:, 0] + 3.0 * x[:, 0] - x[:, 1] + 1.0

        data = line_dataset(n=80, seed=8, y_fn=y_fn)
        model = M.build_model(M.ModelConfig(m=1, patch_shape=(3,), x_dim=2,
                                            interference="none", confounder="linear"))
        trace = M.train(model, data, M.TrainConfig(epochs=3000, lr=0.05, momentum=0.0,
                                                   optimizer="sgd", seed=0))
        design = np.column_stack([data.treatments[:, 0], data.confounders,
                                  np.ones(data.n_units)])
        beta, *_ = np.linalg.lstsq(design, data.outcomes, rcond=None)
        alpha = model.alphas.data[0, 0]
        assert abs(alpha - 2.0) < 0.05
        assert abs(alpha - beta[0]) < 1e-3
        gamma = model.confounder_net.params[0].data.reshape(-1)
        npt.assert_allclose(gamma, beta[1:3], atol=1e-3)
        # epoch-mean loss nonincreasing on this convex problem
        losses = [row[1] for row in trace]
        assert all(a >= b - 1e-12 for a, b in zip(losses[:-1], losses[1:]))

    def test_zero_epochs_rejected(self):
        data = line_dataset()
        model = M.build_model(linear_cfg())
        with pytest.raises(ContractError):
            M.train(model, data, M.TrainConfig(epochs=0))

    def test_all_missing_outcomes_rejected(self):
        data = line_dataset()
        data.outcomes[:] = np.nan
        model = M.build_model(linear_cfg())
        with pytest.raises(DataError):
            M.train(model, data, M.TrainConfig(epochs=1))

    def test_missing_outcomes_skipped(self):
        def y_fn(t, patches, x):
            return t[:, 0] * 0.5

        data = line_dataset(n=30, seed=2, y_fn=y_fn)
        data.outcomes[::3] = np.nan
        model = M.build_model(linear_cfg())
        M.train(model, data, M.TrainConfig(epochs=50, lr=0.05, momentum=0.0,
                                           optimizer="sgd"))
        assert np.isfinite(model.alphas.data).all()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_raises_with_epoch(self):
        data = line_dataset(seed=5)
        data.outcomes *= 1e6
        model = M.build_model(linear_cfg())
        with pytest.raises(NumericError) as err:
            M.train(model, data, M.TrainConfig(epochs=200, lr=1e4, optimizer="sgd",
                                               momentum=0.99))
        assert "epoch" in str(err.value)

    def test_auto_optimizer_selection(self):
        data = line_dataset()
        plain = M.build_model(linear_cfg())
        assert isinstance(M._make_optimizer(plain, M.TrainConfig(epochs=1)), type(
            __import__("spatialcausal.engine", fromlist=["SGD"]).SGD([plain.alphas], 0.1)))
        kernel = G.KernelSpec("rbf", 1.0, 0.5, 1e-8)
        gp_model = M.build_model(linear_cfg(gp=True, kernel=kernel, q=5),
                                 coords=data.coords)
        from spatialcausal.engine import Adam
        assert isinstance(M._make_optimizer(gp_model, M.TrainConfig(epochs=1)), Adam)

    def test_deterministic_loss_trace(self):
        def run():
            data = line_dataset(n=24, seed=9)
            model = M.build_model(M.ModelConfig(m=1, patch_shape=(3,), x_dim=2,
                                                interference="mlp", confounder="linear",
                                                mlp_width=6, mlp_depth=2, seed=4))
            return M.train(model, data, M.TrainConfig(epochs=30, lr=0.01, batch_size=8,
                                                      optimizer="sgd", momentum=0.9,
                                                      seed=11))

        assert run() == run()

    def test_early_stopping_restores_best(self):
        def y_fn(t, patches, x):
            return 0.8 * t[:, 0] + 0.1 * x[:, 0]

        train_data = line_dataset(n=40, seed=1, y_fn=y_fn)
        val_data = line_dataset(n=20, seed=12, y_fn=y_fn)
        model = M.build_model(linear_cfg())
        trace = M.train(model, train_data,
                        M.TrainConfig(epochs=500, lr=0.05, momentum=0.0, optimizer="sgd",
                                      patience=10),
                        val_dataset=val_data)
        assert len(trace) <= 500
        assert np.isfinite(trace[-1][2])

    def test_early_stopping_after_exactly_patience_stale_epochs(self):
        # zero targets leave the zeroed model's gradient at zero, so the
        # validation MSE never improves after epoch 0
        train_data = line_dataset(n=20, seed=2, y_fn=lambda t, p, x: 0.0 * t[:, 0])
        val_data = line_dataset(n=10, seed=3)
        model = M.build_model(linear_cfg())
        trace = M.train(model, train_data,
                        M.TrainConfig(epochs=50, lr=0.1, optimizer="sgd", patience=3),
                        val_dataset=val_data)
        assert len(trace) == 1 + 3
        assert len({row[2] for row in trace}) == 1
        with pytest.raises(ContractError):
            M.train(model, train_data, M.TrainConfig(epochs=5, patience=0),
                    val_dataset=val_data)


class TestEvaluate:
    def test_perfect_predictions(self):
        def y_fn(t, patches, x):
            return 1.5 * t[:, 0]

        data = line_dataset(n=30, seed=7, y_fn=y_fn)
        model = M.build_model(M.ModelConfig(m=1, patch_shape=(3,), x_dim=2,
                                            interference="none", confounder="linear"))
        model.alphas.data[0, 0] = 1.5
        out = M.evaluate(model, data)
        for stratum in ("all", "low", "mid", "high"):
            assert out[f"r2_{stratum}"] == pytest.approx(1.0)
            assert out[f"mae_{stratum}"] == pytest.approx(0.0)

    def test_constant_prediction_r2_zero(self):
        data = line_dataset(n=30, seed=3)
        data.outcomes = data.outcomes - data.outcomes.mean()
        model = M.build_model(M.ModelConfig(m=1, patch_shape=(3,), x_dim=2,
                                            interference="none", confounder="linear"))
        out = M.evaluate(model, data)  # all-zero model predicts the mean (0)
        assert out["r2_all"] == pytest.approx(0.0, abs=1e-12)

    def test_hand_built_mae(self):
        coords = np.arange(4.0)[:, None]
        t = np.array([[0.0], [1.0], [2.0], [3.0]])
        patches = np.zeros((4, 1, 3))
        x = np.array([[0.0], [0.0], [0.0], [1.0]])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        data = M.SpatialDataset(coords, t, patches, x, y, d_s=3)
        model = M.build_model(M.ModelConfig(m=1, patch_shape=(3,), x_dim=1,
                                            interference="none", confounder="linear"))
        # yhat = t + x + 1 = [1, 2, 3, 5] against y = [1, 2, 3, 4]
        model.alphas.data[0, 0] = 1.0
        model.confounder_net.params[0].data = np.array([[1.0]])
        model.confounder_net.params[1].data = np.array([1.0])
        out = M.evaluate(model, data)
        assert out["mae_all"] == pytest.approx(0.25)


def patch_dataset(shape, n=24, m=2, seed=0):
    """Random center-zero patches of ``shape``, coordinates of the same rank."""
    rng = np.random.default_rng(seed)
    patches = rng.normal(size=(n, m) + shape)
    patches[(slice(None), slice(None)) + tuple(k // 2 for k in shape)] = 0.0
    coords = rng.uniform(0.0, 1.0, size=(n, len(shape)))
    return M.SpatialDataset(coords, rng.normal(size=(n, m)), patches,
                            rng.normal(size=(n, 2)), rng.normal(size=n), d_s=shape[0])


def random_model(data, interference, gp):
    """Small nets of the given kind, GP off / fixed / trained lengthscale,
    every parameter drawn at random."""
    gp_kw = {}
    if gp != "off":
        gp_kw = dict(gp=True, kernel=G.KernelSpec("rbf", 1.0, 0.4, 1e-8), q=6,
                     train_lengthscale=gp == "trained",
                     inducing_strategy="subsample" if gp == "trained" else "grid")
    model = M.build_model(M.ModelConfig(
        m=data.n_treatments, patch_shape=data.patch_shape, x_dim=2,
        interference=interference, confounder="mlp", mlp_width=5, mlp_depth=2,
        cnn_channels=3, cnn_depth=2, unet_base=2, unet_depth=1,
        seed=3 + len(interference), **gp_kw), coords=data.coords)
    rng = np.random.default_rng(2)
    for p in model.parameters():
        p.data = rng.normal(size=p.data.shape)
    if gp == "trained":
        model.gp_term.lengthscale.data = np.asarray(0.55)
    return model


class TestForwardPath:
    """Unit predictions and their breakdown agree with the batch forward."""

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("gp", ["off", "fixed", "trained"])
    @pytest.mark.parametrize("interference", ["linear", "mlp", "unet"])
    def test_predict_matches_predict_dataset(self, interference, gp, m):
        data = patch_dataset((5, 5) if interference == "unet" else (3,), m=m, seed=17)
        model = random_model(data, interference, gp)
        full = model.predict_dataset(data)
        assert full.shape == (data.n_units,)
        for i in range(data.n_units):
            out = M.predict(model, data, i)
            npt.assert_allclose(out.yhat, full[i], rtol=0, atol=1e-12)
            npt.assert_allclose(out.direct + out.interference + out.confounder
                                + out.spatial, full[i], rtol=0, atol=1e-12)


# per unit on 5 x 5 patches: 3 CNN channels on the 7 x 7 padded patch, and
# 2 U-Net channels on the 6 x 6 patch (padded to a multiple of 2**1) plus its
# convolution's border
CONV_UNIT_SIZES = {"cnn": ("cnn_channels", "CNN activations", 3 * 7 * 7),
                   "unet": ("unet_base", "U-Net first-level activations", 2 * 8 * 8)}


class TestConvActivationSizes:
    """A CNN's or U-Net's unit x channels maps are stated before the forward
    allocates them, with the cap lowered to 10 units' worth."""

    def _capped(self, monkeypatch, interference):
        key, what, per_unit = CONV_UNIT_SIZES[interference]
        model = M.build_model(M.ModelConfig(
            m=1, patch_shape=(5, 5), x_dim=2, interference=interference,
            cnn_channels=3, cnn_depth=2, unet_base=2, unet_depth=1, seed=4))
        monkeypatch.setattr(errors, "MAX_ELEMENTS", 10 * per_unit)
        message = (rf"^{key}: the 11 x {key} x \d+x\d+ {what} would hold "
                   rf"{11 * per_unit} elements")
        return model, message

    @pytest.mark.parametrize("interference", ["cnn", "unet"])
    def test_train(self, monkeypatch, interference):
        model, message = self._capped(monkeypatch, interference)
        cfg = M.TrainConfig(epochs=1)
        assert len(M.train(model, patch_dataset((5, 5), n=10, m=1), cfg)) == 1
        with pytest.raises(DataError, match=message):
            M.train(model, patch_dataset((5, 5), n=11, m=1), cfg)
        with pytest.raises(DataError, match=message):
            M.train(model, patch_dataset((5, 5), n=10, m=1), cfg,
                    val_dataset=patch_dataset((5, 5), n=11, m=1, seed=1))

    @pytest.mark.parametrize("interference", ["cnn", "unet"])
    def test_evaluate(self, monkeypatch, interference):
        model, message = self._capped(monkeypatch, interference)
        assert "r2_all" in M.evaluate(model, patch_dataset((5, 5), n=10, m=1))
        with pytest.raises(DataError, match=message):
            M.evaluate(model, patch_dataset((5, 5), n=11, m=1))


# (ModelConfig change from one treatment, linear nets, (3,) patches, x_dim 2,
# mlp_width 4 and every other size at most 36 elements; the key the error
# names; the array; its element count)
FIRST_WEIGHT_SIZES = [
    ({"m": 40}, "m", "the m x 1 direct coefficients", 40),
    ({"patch_shape": (41,)}, "patch_shape", "the 41 x 1 first interference weight", 41),
    ({"interference": "mlp", "patch_shape": (11,)}, "mlp_width",
     "the 11 x 4 first interference weight", 44),
    ({"x_dim": 42}, "x_dim", "the 42 x 1 first confounder weight", 42),
    ({"confounder": "mlp", "x_dim": 11}, "mlp_width", "the 11 x 4 first confounder weight", 44),
]


class TestInputSizedWeights:
    """The m x 1 coefficients and each net's first weight, whose rows the data
    sets, are stated before they are allocated, with the cap lowered to just
    under the array (the model's other arrays stay under it)."""

    @staticmethod
    def _config(change):
        return M.ModelConfig(**{"m": 1, "patch_shape": (3,), "x_dim": 2, "interference": "linear",
                                "confounder": "linear", "mlp_width": 4, "mlp_depth": 1,
                                "q": 1, "cnn_channels": 1, "cnn_depth": 1, "unet_base": 1,
                                "unet_depth": 1, **change})

    @pytest.mark.parametrize("change,key,array,count", FIRST_WEIGHT_SIZES,
                             ids=[row[2].split(" ", 1)[1] for row in FIRST_WEIGHT_SIZES])
    def test_build_model(self, monkeypatch, change, key, array, count):
        config = self._config(change)
        monkeypatch.setattr(errors, "MAX_ELEMENTS", count)
        M.build_model(config)
        monkeypatch.setattr(errors, "MAX_ELEMENTS", count - 1)
        with pytest.raises(DataError, match=rf"^{key}: {array} would hold {count} elements, "
                                            rf"over the cap of {count - 1}$"):
            M.build_model(config)

    def test_patch_entries_counted_exactly(self):
        """A patch whose entries number 2**64 + 2**32, which int64 arithmetic
        would wrap to 2**32."""
        with pytest.raises(DataError, match=rf"^patch_shape: the {2 ** 64 + 2 ** 32} x 1 first "):
            M.build_model(self._config({"patch_shape": (2 ** 32 + 1, 2 ** 32)}))

    @pytest.mark.parametrize("change,key,array,count", FIRST_WEIGHT_SIZES,
                             ids=[row[2].split(" ", 1)[1] for row in FIRST_WEIGHT_SIZES])
    def test_load_model(self, tmp_path, monkeypatch, change, key, array, count):
        path = str(tmp_path / "model.ckpt")
        M.save_model(M.build_model(self._config(change)), path)
        monkeypatch.setattr(errors, "MAX_ELEMENTS", count - 1)
        with pytest.raises(FormatError, match=rf"^malformed checkpoint header: "
                                              rf"DataError\('{key}: {array} would hold"):
            M.load_model(path)


class TestCheckpoint:
    @pytest.mark.parametrize("gp", ["off", "fixed", "trained"])
    @pytest.mark.parametrize("interference", ["linear", "mlp", "cnn", "unet", "none"])
    def test_roundtrip_preserves_predictions(self, tmp_path, interference, gp):
        data = patch_dataset((5, 5) if interference in ("cnn", "unet") else (3,), seed=13)
        model = random_model(data, interference, gp)
        model.noise_sigma = 0.7
        path = str(tmp_path / "model.ckpt")
        M.save_model(model, path)
        clone = M.load_model(path)
        assert clone.config == model.config
        assert clone.noise_sigma == model.noise_sigma
        npt.assert_array_equal(model.predict_dataset(data), clone.predict_dataset(data))

    def test_trained_lengthscale_factored_once_per_load(self, tmp_path, monkeypatch):
        data = patch_dataset((3,), seed=13)
        model = random_model(data, "linear", "trained")
        path = str(tmp_path / "model.ckpt")
        M.save_model(model, path)
        calls = []
        chol = G.chol_with_jitter
        monkeypatch.setattr(G, "chol_with_jitter", lambda *a: calls.append(1) or chol(*a))
        clone = M.load_model(path)
        assert calls == []
        pred = clone.predict_dataset(data)
        assert len(calls) == 1
        assert clone.gp_term.map.kernel.lengthscale == 0.55
        assert clone.config.kernel.lengthscale == 0.4
        npt.assert_array_equal(pred, model.predict_dataset(data))

    @pytest.mark.parametrize("gp", ["fixed", "trained"])
    def test_truncated_gp_stream_rejected(self, tmp_path, gp):
        model = random_model(patch_dataset((3,), seed=13), "linear", gp)
        path = str(tmp_path / "model.ckpt")
        M.save_model(model, path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-8])
        with pytest.raises(FormatError, match="truncated"):
            M.load_model(path)

    def test_header_without_config_rejected(self, tmp_path):
        head = b'{"version": 2}'
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"SCKP" + struct.pack("<I", len(head)) + head)
        with pytest.raises(FormatError, match="config"):
            M.load_model(str(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError):
            M.load_model(str(path))

    def test_truncated_stream_rejected(self, tmp_path):
        model = M.build_model(M.ModelConfig(m=1, patch_shape=(3,), x_dim=2,
                                            interference="linear", confounder="linear"))
        path = str(tmp_path / "model.ckpt")
        M.save_model(model, path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-8])
        with pytest.raises(FormatError):
            M.load_model(path)


def _fit_bytes(data, gp, batch_size, val=None, epochs=3, interference="mlp"):
    """Loss trace, parameter and noise_sigma bytes of a short fit."""
    model = random_model(data, interference, gp)
    trace = M.train(model, data, M.TrainConfig(epochs=epochs, lr=0.01, batch_size=batch_size,
                                               optimizer="adam"), val_dataset=val)
    return (np.asarray(trace).tobytes(), [p.data.tobytes() for p in model.parameters()],
            struct.pack("<d", model.noise_sigma))


def _train_bytes(monkeypatch, width, data, interference, gp):
    """``_fit_bytes`` of a few epochs at ``width``."""
    monkeypatch.setattr(E, "_WIDTH", width)
    return _fit_bytes(data, gp, 16, data, epochs=4, interference=interference)


class TestConcurrentTerms:
    """The nets run as engine branches; the pool's width changes no byte."""

    @pytest.mark.parametrize("interference,gp,shape", [
        ("mlp", "fixed", (3,)), ("unet", "trained", (5, 5))])
    def test_training_bytes_do_not_depend_on_the_width(self, monkeypatch, interference,
                                                       gp, shape):
        data = patch_dataset(shape, n=48, m=2, seed=4)
        serial = _train_bytes(monkeypatch, 1, data, interference, gp)
        assert _train_bytes(monkeypatch, max(2, E._WIDTH), data, interference, gp) == serial

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_child_forked_after_a_fit_trains_like_its_parent(self, monkeypatch, tmp_path):
        """The child starts a branch pool of its own; the parent's worker
        threads do not exist in it.  A child that hangs is killed."""
        data = patch_dataset((3,), n=48, m=2, seed=4)
        parent = _train_bytes(monkeypatch, 2, data, "mlp", "fixed")
        assert E._POOL is not None
        out = tmp_path / "child.pickle"
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                out.write_bytes(pickle.dumps(_train_bytes(monkeypatch, 2, data, "mlp",
                                                          "fixed")))
                code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's fit did not end within 60 s")
            time.sleep(0.02)
        assert os.waitstatus_to_exitcode(status) == 0
        assert pickle.loads(out.read_bytes()) == parent

    @pytest.mark.parametrize("taped", [True, False])
    def test_nan_in_a_branch_names_the_serial_culprit(self, monkeypatch, taped):
        """A NaN in the linear interference net's and in the confounder net's
        output: the first in the serial order is named, at every width."""
        data = patch_dataset((3,), m=1, seed=4)
        messages = []
        for width in (1, max(2, E._WIDTH)):
            monkeypatch.setattr(E, "_WIDTH", width)
            model = random_model(data, "linear", "off")
            model.interference_nets[0].params[0].data[0] = np.nan
            model.confounder_net.params[-1].data[0] = np.nan
            with pytest.raises(NumericError) as err:
                if taped:
                    M.train(model, data, M.TrainConfig(epochs=1))
                else:
                    model.predict_dataset(data)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].endswith("non-finite values in output of matmul"), messages


def _count_solves(monkeypatch) -> list:
    """The row count of every ``NystromMap.features`` call from now on."""
    calls = []
    features = G.NystromMap.features
    monkeypatch.setattr(G.NystromMap, "features",
                        lambda nmap, coords: calls.append(len(coords)) or features(nmap, coords))
    return calls


class TestFeatureTable:
    """A fixed lengthscale's features are solved once per fit, with the bits of
    solving them per batch."""

    # 41 = 5 * 8 + 1 and 33 = 4 * 8 + 1 units: batches of 8 end in a one-row batch
    @pytest.mark.parametrize("batch_size,val", [(None, False), (8, False), (1, False),
                                                (None, True), (8, True)])
    def test_training_bytes_match_per_batch_solving(self, monkeypatch, batch_size, val):
        data = patch_dataset((3,), n=41, m=2, seed=5)
        train, valid = (data.subset(np.arange(33)), data.subset(np.arange(33, 41))) if val \
            else (data, None)
        table = _fit_bytes(train, "fixed", batch_size, valid)
        values_op = G.GpTerm.values_op
        monkeypatch.setattr(G.GpTerm, "values_op",
                            lambda term, coords, features=None: values_op(term, coords))
        assert _fit_bytes(train, "fixed", batch_size, valid) == table

    def test_gathered_rows_match_a_solve_on_the_rows_alone(self):
        rng = np.random.default_rng(0)
        coords = rng.uniform(0.0, 1.0, size=(300, 2))
        term = G.GpTerm(G.select_inducing(coords, 36), G.KernelSpec("rbf", 1.0, 0.3, 1e-8))
        term.weights.data[:] = rng.normal(size=term.weights.data.shape)
        table = term.features_op(coords).data
        for size in (1, 2, 3, 7, 64, 299, 300):
            for _ in range(3):
                idx = rng.choice(300, size=size, replace=False)
                solved = term.values_op(coords[idx]).data.tobytes()
                assert term.values_op(coords[idx], table[idx]).data.tobytes() == solved, size
        # OpenBLAS solves one row through another kernel, so one row is solved
        assert np.isfinite(term.values_op(coords[:1], np.full((1, 36), np.nan)).data).all()

    @pytest.mark.parametrize("val", [False, True])
    def test_fixed_lengthscale_solves_once_per_set(self, monkeypatch, val):
        data = patch_dataset((3,), n=40, m=1, seed=5)
        calls = _count_solves(monkeypatch)
        _fit_bytes(data, "fixed", None, data.subset(np.arange(7)) if val else None, epochs=4)
        assert calls == ([40, 7] if val else [40])

    def test_one_row_batches_solve_their_own_row(self, monkeypatch):
        data = patch_dataset((3,), n=41, m=1, seed=5)
        calls = _count_solves(monkeypatch)
        _fit_bytes(data, "fixed", 8, epochs=4)
        assert calls == [41] + [1] * 4

    @pytest.mark.parametrize("val", [False, True])
    def test_trained_lengthscale_solves_per_forward(self, monkeypatch, val):
        data = patch_dataset((3,), n=40, m=1, seed=5)
        calls = _count_solves(monkeypatch)
        _fit_bytes(data, "trained", None, data.subset(np.arange(7)) if val else None, epochs=4)
        # four steps, four validation passes when there is a split, the closing prediction
        assert calls == ([40, 7] * 4 if val else [40] * 4) + [40]

    def test_table_is_not_kept_after_the_fit(self):
        data = patch_dataset((3,), n=20, m=1, seed=5)
        model = random_model(data, "linear", "fixed")
        names = [sorted(vars(obj)) for obj in (model, model.gp_term)]
        M.train(model, data, M.TrainConfig(epochs=2, optimizer="adam"), val_dataset=data)
        assert [sorted(vars(obj)) for obj in (model, model.gp_term)] == names
        for obj in (model, model.gp_term):
            assert not any(isinstance(v, np.ndarray) and v.shape == (20, 6)
                           for v in vars(obj).values())

    @pytest.mark.parametrize("batch_size", [None, 8])
    def test_the_map_the_features_were_solved_with_lasts_the_fit(self, monkeypatch,
                                                                  batch_size):
        """The features are solved under the map built before the first step;
        no step, validation pass or restore of the best parameters changes the
        lengthscale leaf or factors another map."""
        data = patch_dataset((3,), n=41, m=1, seed=5)
        model = random_model(data, "linear", "fixed")
        leaf = model.gp_term.lengthscale.data.tobytes()
        assert all(p is not model.gp_term.lengthscale for p in model.parameters())
        factored = []
        chol = G.chol_with_jitter
        monkeypatch.setattr(G, "chol_with_jitter",
                            lambda *a: factored.append(1) or chol(*a))
        before = model.gp_term.map
        trace = M.train(model, data.subset(np.arange(33)),
                        M.TrainConfig(epochs=40, lr=0.5, batch_size=batch_size,
                                      optimizer="adam", patience=2),
                        val_dataset=data.subset(np.arange(33, 41)))
        assert len(trace) < 40      # stopped early, and restored the best parameters
        assert model.gp_term.map is before
        assert model.gp_term.lengthscale.data.tobytes() == leaf
        assert factored == [1]
