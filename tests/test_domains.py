"""Setting domains: every numeric INI key through ``load_config``, and every
numeric field of the configs, net builders and optimizers through the Python API.

Each INI probe puts one of 0, -1, nan, inf and 2.5 into one setting, and each
API probe one of those, True or "1".  It must either run or end as a typed
error whose message starts with the setting's name; a raw ``TypeError``,
``ValueError`` or ``OverflowError`` fails it.
"""

import dataclasses
import functools
import inspect
import math

import numpy as np
import pytest

from spatialcausal import cli
from spatialcausal import engine as E
from spatialcausal import gp as G
from spatialcausal import nets as N
from spatialcausal.effects import dose_draw_indices
from spatialcausal.errors import ConfigError, ContractError, DimensionError, SpatialCausalError
from spatialcausal.gp import KernelSpec
from spatialcausal.model import ModelConfig, TrainConfig, build_model, train
from spatialcausal.raster import GridGeometry
from spatialcausal.synthgen import GridConfig, LineGraphConfig, gen_grid, gen_line_graph

RAW_VALUES = ("0", "-1", "nan", "inf", "2.5")
VALUES = (0, -1, math.nan, math.inf, 2.5, True, "1")

# (section, key) -> the values of RAW_VALUES it accepts; each other value of a
# numeric key must end as a config_error naming the key.  The line generator
# is the default, so every data.sigma_l is rejected.
ACCEPTED = {
    ("data", "noise_sigma"): ("0", "2.5"),
    ("data", "field_lengthscale"): ("2.5",),
    ("data", "beta"): ("0", "-1", "2.5"),
    ("model", "kernel_sigma"): ("2.5",),
    ("model", "kernel_lengthscale"): ("2.5",),
    ("model", "kernel_noise"): ("0", "2.5"),
    ("train", "lr"): ("2.5",),
    ("train", "batch_size"): ("0",),
    ("train", "momentum"): ("0",),
    ("train", "patience"): ("0",),
    ("run", "seeds"): ("0",),
}

NUMERIC_KEYS = [(section, key) for section, schema in cli._SCHEMA.items()
                for key, spec in schema.items()
                if spec[0] in ("int", "float", "intlist", "floatlist")]


class TestIniSweep:
    def test_accepted_keys_are_numeric(self):
        assert set(ACCEPTED) <= set(NUMERIC_KEYS)
        assert len(NUMERIC_KEYS) == 30

    @pytest.mark.parametrize("raw", RAW_VALUES)
    @pytest.mark.parametrize("section,key", NUMERIC_KEYS,
                             ids=[f"{s}.{k}" for s, k in NUMERIC_KEYS])
    def test_value_resolves_or_names_key(self, tmp_path, section, key, raw):
        path = tmp_path / "exp.ini"
        path.write_text(f"[{section}]\n{key} = {raw}\n")
        if raw in ACCEPTED.get((section, key), ()):
            got = cli.load_config(str(path))[section][key]
            want = float(raw) if cli._SCHEMA[section][key][0] == "float" else int(raw)
            assert got == ((want,) if key == "seeds" else want)
        else:
            with pytest.raises(ConfigError) as err:
                cli.load_config(str(path))
            assert str(err.value).startswith(f"{section}.{key}: "), err.value

    def test_every_default_in_domain(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[data]\n")
        defaults = {s: {k: spec[1] for k, spec in schema.items()}
                    for s, schema in cli._SCHEMA.items()}
        assert cli.load_config(str(path)) == defaults


def _line_data():
    dataset, _ = gen_line_graph(LineGraphConfig(n=30, x_dim=2, seed=0))
    return dataset


DATA = _line_data()
KERNEL = dict(family="rbf", lengthscale=0.5, noise=0.5)
MODEL = dict(m=1, patch_shape=(3,), x_dim=2, interference="mlp", confounder="mlp",
             mlp_width=4, mlp_depth=1, gp=True, kernel=KernelSpec(**KERNEL), q=5)
GRID = dict(rows=12, cols=12, d_s=3, n_units=10, x_channels=2, sigma_l=2.0,
            field_lengthscale=3.0)


def _fit(model_fields=(), train_fields=()):
    model = build_model(ModelConfig(**{**MODEL, **dict(model_fields)}), coords=DATA.coords)
    train(model, DATA, TrainConfig(**{"epochs": 1, **dict(train_fields)}))


def _net(build, args, shape):
    build(**args).forward(np.ones(shape))


def _optimizer(cls, base, field, value):
    p = E.Tensor(np.ones(2), requires_grad=True)
    opt = cls([p], **{**base, field: value})
    with E.Tape() as tape:
        loss = E.tsum(E.mul(p, p))
    tape.backward(loss)
    opt.step()


# holder -> (its numeric fields, probe(field, value))
PROBES = {
    "LineGraphConfig": (("n", "x_dim", "noise_sigma", "seed"),
                        lambda f, v: gen_line_graph(LineGraphConfig(**{"n": 30, f: v}))),
    "GridConfig": (("rows", "cols", "beta", "d_s", "sigma_l", "n_units", "x_channels",
                    "field_lengthscale", "seed"),
                   lambda f, v: gen_grid(GridConfig(**{**GRID, f: v}))),
    "ModelConfig": (("m", "x_dim", "mlp_width", "mlp_depth", "cnn_channels", "cnn_depth",
                     "unet_base", "unet_depth", "q", "seed"),
                    lambda f, v: _fit(model_fields={f: v})),
    "TrainConfig": (("epochs", "lr", "batch_size", "momentum", "seed", "patience"),
                    lambda f, v: _fit(train_fields={f: v})),
    "KernelSpec": (("sigma", "lengthscale", "noise"),
                   lambda f, v: _fit(model_fields={"kernel": KernelSpec(**{**KERNEL, f: v})})),
    "GridGeometry": (("rows", "cols", "origin_x", "origin_y", "resolution"),
                     lambda f, v: GridGeometry(**{"rows": 2, "cols": 2, f: v})),
    "build_mlp": (("in_dim", "width", "depth", "seed"),
                  lambda f, v: _net(N.build_mlp, {"in_dim": 3, "width": 4, "depth": 1,
                                                  "seed": 0, f: v}, (2, 3))),
    "build_cnn": (("channels", "depth", "seed"),
                  lambda f, v: _net(N.build_cnn, {"channels": 2, "depth": 1, "seed": 0,
                                                  f: v}, (2, 1, 5, 5))),
    "build_unet": (("base_channels", "depth", "seed"),
                   lambda f, v: _net(N.build_unet, {"base_channels": 2, "depth": 1,
                                                    "seed": 0, f: v}, (2, 1, 5, 5))),
    "build_affine": (("in_dim",), lambda f, v: _net(N.build_affine, {f: v}, (2, 3))),
    "SGD": (("lr", "momentum"), lambda f, v: _optimizer(E.SGD, {"lr": 0.1}, f, v)),
    "Adam": (("lr",), lambda f, v: _optimizer(E.Adam, {"lr": 0.1}, f, v)),
}

CASES = [(holder, f) for holder, (names, _) in PROBES.items() for f in names]


class TestApiSweep:
    @pytest.mark.parametrize("value", VALUES, ids=[str(v) for v in VALUES])
    @pytest.mark.parametrize("holder,field", CASES, ids=[f"{h}.{f}" for h, f in CASES])
    def test_runs_or_typed_error_naming_field(self, holder, field, value):
        try:
            PROBES[holder][1](field, value)
        except SpatialCausalError as exc:
            assert str(exc).startswith(f"{field}: "), exc

    @pytest.mark.parametrize("cls", [LineGraphConfig, GridConfig, ModelConfig, TrainConfig,
                                     KernelSpec, GridGeometry, N.build_mlp, N.build_cnn,
                                     N.build_unet, N.build_affine], ids=lambda c: c.__name__)
    def test_every_numeric_field_probed(self, cls):
        if dataclasses.is_dataclass(cls):
            types = {f.name: f.type for f in dataclasses.fields(cls)}
        else:   # a builder's arguments
            types = {name: p.annotation for name, p in inspect.signature(cls).parameters.items()}
        numeric = {name for name, t in types.items() if t in ("int", "float", "int | None")}
        assert set(PROBES[cls.__name__][0]) == numeric

    @pytest.mark.parametrize("holder,field,value,error", [
        ("TrainConfig", "epochs", 2.5, "epochs: must be a whole number, got 2.5"),
        ("GridConfig", "rows", math.nan, "rows: must be a whole number, got nan"),
        ("TrainConfig", "seed", -1, "seed: must be >= 0, got -1"),
        ("KernelSpec", "noise", math.inf, "noise: must be finite, got inf"),
        ("SGD", "momentum", 2.5, "momentum: must be in [0, 1), got 2.5"),
        ("GridConfig", "d_s", 0, "d_s: must be odd and >= 1, got 0"),
        ("LineGraphConfig", "n", 2.5, "n: must be a whole number, got 2.5"),
        ("TrainConfig", "lr", True, "lr: must be a real number, got True"),
        ("ModelConfig", "q", "1", "q: must be a whole number, got '1'"),
        ("build_mlp", "width", 0, "width: must be >= 1, got 0"),
        ("build_unet", "base_channels", 2.5, "base_channels: must be a whole number, got 2.5"),
    ])
    def test_message(self, holder, field, value, error):
        with pytest.raises(SpatialCausalError) as err:
            PROBES[holder][1](field, value)
        assert str(err.value) == error

    @pytest.mark.parametrize("cls,fields,error", [
        (ModelConfig, {**MODEL, "q": 0}, ConfigError),
        (ModelConfig, {**MODEL, "interference": "cnn"}, ConfigError),
        (TrainConfig, {"epochs": 0}, ContractError),
        (TrainConfig, {"epochs": 1, "optimizer": "lbfgs"}, ConfigError),
        (LineGraphConfig, {"n": 2}, ConfigError),
        (GridConfig, {**GRID, "d_s": 2}, ConfigError),
    ], ids=["model_field", "model_cnn_on_line_patches", "train_field", "train_optimizer",
            "line", "grid"])
    def test_config_checked_when_built(self, cls, fields, error):
        with pytest.raises(error):
            cls(**fields)

    @pytest.mark.parametrize("field,value,error", [
        ("sigma", 10 ** 400, "sigma: must be finite, got " + "1" + "0" * 400),
        ("sigma", 1e200, "sigma: must be in (0, 1e100], got 1e+200"),
        ("lengthscale", 1e308, "lengthscale: must be in (0, 1e100], got 1e+308"),
    ], ids=["sigma_int_past_float", "sigma_squared_overflows", "lengthscale_cubed_overflows"])
    def test_kernel_real_too_large_is_typed(self, field, value, error):
        # the kernel squares sigma and cubes the lengthscale as Python floats
        with pytest.raises(ContractError) as err:
            KernelSpec("rbf", **{field: value})
        assert str(err.value) == error


# (draw count, seed) -> the draws, from each function that takes both
DRAWS = {
    "sample_gp": lambda n_draws, seed=0: G.sample_gp(np.arange(6.0).reshape(3, 2),
                                                     KernelSpec(**KERNEL), seed, n_draws),
    "dose_draw_indices": lambda n_draws, seed=0: dose_draw_indices(10, n_draws, seed),
}
# seed -> a draw, from each function that takes a seed
SEEDED = {name: functools.partial(draw, 2) for name, draw in DRAWS.items()}
SEEDED["sample_gp_grid"] = lambda seed: G.sample_gp_grid(4, 5, KernelSpec(**KERNEL), 1.0, seed)
MAP = np.arange(32.0).reshape(1, 2, 4, 4)


class TestArgumentDomains:
    """Draw counts and the engine's geometry arguments are checked against
    ``DOMAINS`` like settings: a bad value raises ``ContractError`` naming the
    argument, not a raw numpy error and not a silent truncation."""

    @pytest.mark.parametrize("value,error", [
        (2.7, "n_draws: must be a whole number, got 2.7"),
        (3.0, "n_draws: must be a whole number, got 3.0"),
        (math.nan, "n_draws: must be a whole number, got nan"),
        (0, "n_draws: must be >= 1, got 0"),
        (-1, "n_draws: must be >= 1, got -1"),
    ])
    @pytest.mark.parametrize("name", DRAWS)
    def test_bad_draw_count(self, name, value, error):
        with pytest.raises(ContractError) as err:
            DRAWS[name](value)
        assert str(err.value) == error

    @pytest.mark.parametrize("name", DRAWS)
    def test_numpy_draw_count_keeps_the_bytes(self, name):
        want = DRAWS[name](3)
        assert len(want) == 3
        assert want.tobytes() == DRAWS[name](np.int64(3)).tobytes()

    @pytest.mark.parametrize("seed,error", [
        (-1, "seed: must be >= 0, got -1"), (2.5, "seed: must be a whole number, got 2.5")])
    @pytest.mark.parametrize("name", SEEDED)
    def test_bad_draw_seed(self, name, seed, error):
        with pytest.raises(ContractError) as err:
            SEEDED[name](seed)
        assert str(err.value) == error

    @pytest.mark.parametrize("n_units,error", [
        (0, "n_units: must be >= 1, got 0"), (2.5, "n_units: must be a whole number, got 2.5")])
    def test_bad_draw_unit_count(self, n_units, error):
        with pytest.raises(ContractError) as err:
            dose_draw_indices(n_units, 2, 0)
        assert str(err.value) == error

    @pytest.mark.parametrize("value,error", [
        (1.5, "padding: must be a whole number, got 1.5"),
        (-1, "padding: must be >= 0, got -1"),
        ((0, 0, -1, 0), "padding: must be >= 0, got -1"),
        ((1, 2), "padding: must be one width or 4 sides, got (1, 2)")])
    def test_bad_conv_padding(self, value, error):
        with pytest.raises(ContractError) as err:
            E.conv2d(MAP, np.ones((1, 2, 3, 3)), padding=value)
        assert str(err.value) == error

    @pytest.mark.parametrize("value,bound", [(-1, ">= 0"), (0.5, "a whole number")])
    @pytest.mark.parametrize("side", range(4))
    def test_bad_pad_width(self, side, value, bound):
        widths = [0, 0, 0, 0]
        widths[side] = value
        with pytest.raises(ContractError) as err:
            E.pad2d(MAP, *widths)
        name = ("top", "bottom", "left", "right")[side]
        assert str(err.value) == f"{name}: must be {bound}, got {value}"

    @pytest.mark.parametrize("side", range(4))
    def test_bad_crop_bound(self, side):
        bounds = [0, 3, 0, 3]
        bounds[side] += 0.5
        with pytest.raises(ContractError) as err:
            E.crop2d(MAP, *bounds)
        name = ("r0", "r1", "c0", "c1")[side]
        assert str(err.value) == f"{name}: must be a whole number, got {bounds[side]}"

    @pytest.mark.parametrize("bounds", [(-1, 2, 0, 2), (0, 5, 0, 2), (2, 2, 0, 2)])
    def test_crop_out_of_range_stays_dimension_error(self, bounds):
        with pytest.raises(DimensionError, match="outside 4x4"):
            E.crop2d(MAP, *bounds)

    def test_numpy_geometry_accepted(self):
        two = np.int64(2)
        assert E.conv2d(MAP, np.ones((1, 2, 3, 3)), padding=np.int64(1)).data.shape == (1, 1, 4, 4)
        assert E.pad2d(MAP, two, 0, 0, two).data.shape == (1, 2, 6, 6)
        assert E.crop2d(MAP, 0, two, 0, two).data.shape == (1, 2, 2, 2)
