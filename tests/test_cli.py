"""Command-line runner: config schema, subcommands, artifacts, exit codes."""

import configparser
import contextlib
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import operator
import os
import random
import re
import shutil
import struct
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from spatialcausal import cli
from spatialcausal import engine as E
from spatialcausal import gp as G
from spatialcausal.cli import config_hash, load_config
from spatialcausal.errors import MAX_ELEMENTS, ConfigError, NumericError
from spatialcausal.model import (
    ModelConfig,
    SpatialDataset,
    SpatialModel,
    TrainConfig,
    build_model,
    load_model,
    save_model,
)
from spatialcausal.raster import (Grid, Manifest, extract_units, load_grid, load_manifest,
                                  save_grid, save_manifest)
from spatialcausal.synthgen import GridConfig, GroundTruth, LineGraphConfig, gen_line_graph

TINY_INI = textwrap.dedent("""\
    [data]
    generator = line
    n = 60
    x_dim = 2

    [model]
    interference = linear
    confounder = linear

    [train]
    epochs = 12
    lr = 0.05
    optimizer = adam

    [effects]
    grid_size = 5
    b_draws = 8

    [run]
    seeds = 0,1
    """)


# Seed 2 comes from [run] seeds; the route test also runs each config without
# that key and with --seed 2 on every command.  Both configs have a GP term,
# so coordinates reach the loss; the grid config adds the paths that depend
# on unit order (split, batches, both effect modes).
ROUTE_CONFIGS = {
    "line_mlp_gp": textwrap.dedent("""\
        [data]
        generator = line
        n = 40
        x_dim = 2

        [model]
        interference = mlp
        confounder = mlp
        mlp_width = 8
        mlp_depth = 1
        gp = true
        q = 20

        [train]
        epochs = 8
        lr = 0.01
        optimizer = adam

        [effects]
        grid_size = 5
        b_draws = 8

        [run]
        seeds = 2
        """),
    "grid_unet_gp": textwrap.dedent("""\
        [data]
        generator = grid
        rows = 24
        cols = 24
        d_s = 5
        n_units = 60
        x_channels = 2

        [model]
        interference = unet
        unet_base = 2
        unet_depth = 1
        gp = true
        kernel_family = exponential
        kernel_lengthscale = 10.0
        q = 10
        train_lengthscale = true

        [train]
        epochs = 3
        lr = 0.01
        optimizer = adam
        batch_size = 20
        use_split = true

        [effects]
        mode = both
        grid_size = 5
        b_draws = 8
        weighted = both

        [run]
        seeds = 2
        """),
}


def write_ini(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One gen + train pass shared by the artifact tests."""
    root = tmp_path_factory.mktemp("cli")
    ini = write_ini(root, TINY_INI)
    data_dir = str(root / "data")
    run_dir = str(root / "run")
    assert cli.main(["gen", "--config", ini, "--out", data_dir]) == 0
    assert cli.main(["train", "--config", ini, "--data", data_dir,
                     "--out", run_dir]) == 0
    return {"root": root, "ini": ini, "data": data_dir, "run": run_dir,
            "ckpt": os.path.join(run_dir, "model.ckpt")}


class TestConfig:
    def test_defaults_resolved(self, tmp_path):
        config = load_config(write_ini(tmp_path, "[data]\ngenerator = line\n"))
        assert config["data"]["n"] == 500
        assert config["data"]["d_s"] == 25
        assert config["model"]["mlp_width"] == 256
        assert config["train"]["lr"] == 0.001
        assert config["effects"]["weighted"] == "both"
        assert config["run"]["seeds"] == (0,)

    def test_percent_in_value_kept_literally(self, tmp_path):
        config = load_config(write_ini(tmp_path, "[run]\nout = runs%x/%%y\n"))
        assert config["run"]["out"] == "runs%x/%%y"

    def test_unknown_key_rejected_with_path(self, tmp_path):
        with pytest.raises(ConfigError, match="data.bogus"):
            load_config(write_ini(tmp_path, "[data]\nbogus = 1\n"))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="mystery"):
            load_config(write_ini(tmp_path, "[mystery]\na = 1\n"))

    def test_bad_int_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="data.n"):
            load_config(write_ini(tmp_path, "[data]\nn = many\n"))

    def test_bad_choice_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="generator"):
            load_config(write_ini(tmp_path, "[data]\ngenerator = hexmesh\n"))

    def test_manifest_generator_needs_path(self, tmp_path):
        with pytest.raises(ConfigError, match="manifest"):
            load_config(write_ini(tmp_path, "[data]\ngenerator = manifest\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.ini"))

    def test_seed_list_parsed(self, tmp_path):
        config = load_config(write_ini(tmp_path, "[run]\nseeds = 3, 1, 4\n"))
        assert config["run"]["seeds"] == (3, 1, 4)

    def test_bool_spellings(self, tmp_path):
        for raw, want in (("on", True), ("Off", False), ("true", True), ("0", False),
                          ("1", True), ("YES", True), ("no", False), ("False", False)):
            config = load_config(write_ini(tmp_path,
                                           f"[model]\ngp = {raw}\n"))
            assert config["model"]["gp"] is want
        for raw in ("y", "2", "none", ""):
            with pytest.raises(ConfigError, match=f"^model.gp: cannot parse {raw!r} as bool$"):
                load_config(write_ini(tmp_path, f"[model]\ngp = {raw}\n"))


# Every [data], [model] and [train] key that lands in a dataclass field, set to
# a valid value that differs from both the schema and the field default.
LINE_KEYS = {"n": 37, "x_dim": 3, "noise_sigma": 0.25}
GRID_KEYS = {"rows": 40, "cols": 44, "d_s": 7, "n_units": 30, "x_channels": 3,
             "sigma_l": 3.5, "field_lengthscale": 4.5, "beta": 2.5}
MODEL_KEYS = {"interference": "cnn", "confounder": "mlp", "gp": True, "mlp_width": 7,
              "mlp_depth": 2, "cnn_channels": 5, "cnn_depth": 4, "unet_base": 6,
              "unet_depth": 2, "q": 9, "train_lengthscale": True}
KERNEL_KEYS = {"family": "exponential", "sigma": 1.5, "lengthscale": 0.75, "noise": 0.25}
TRAIN_KEYS = {"optimizer": "sgd", "lr": 0.02, "epochs": 17, "batch_size": 11,
              "momentum": 0.5, "patience": 3}
# keys read outside the dataclasses, or under another name
UNFIELDED_KEYS = {("data", "generator"), ("data", "manifest"), ("data", "split_ratios"),
                  ("model", "inducing"), ("train", "use_split")}


def _ini_text(sections: dict) -> str:
    def raw(v):
        return str(v).lower() if isinstance(v, bool) else str(v)
    return "".join(f"[{name}]\n" + "".join(f"{k} = {raw(v)}\n" for k, v in keys.items())
                   for name, keys in sections.items())


class _Captured(Exception):
    pass


def _capture(cfg, *args, **kwargs):
    raise _Captured(cfg)


class TestConfigMapping:
    def test_tables_cover_every_schema_key(self):
        listed = ({("data", k) for k in {**LINE_KEYS, **GRID_KEYS}}
                  | {("model", k) for k in MODEL_KEYS}
                  | {("model", "kernel_" + k) for k in KERNEL_KEYS}
                  | {("train", k) for k in TRAIN_KEYS} | UNFIELDED_KEYS)
        schema = {(section, key) for section in ("data", "model", "train")
                  for key in cli._SCHEMA[section]}
        assert listed == schema

    @pytest.mark.parametrize("generator, keys, target", [
        ("line", LINE_KEYS, "gen_line_graph"), ("grid", GRID_KEYS, "synth_fields")])
    def test_data_keys_reach_generator_config(self, tmp_path, monkeypatch,
                                              generator, keys, target):
        config = load_config(write_ini(tmp_path, _ini_text(
            {"data": {"generator": generator, **keys}})))
        monkeypatch.setattr(cli, target, _capture)
        with pytest.raises(_Captured) as info:
            cli.generate_dataset(config, 5)
        cfg = info.value.args[0]
        assert {k: getattr(cfg, k) for k in keys} == keys
        assert cfg.seed == 5

    def test_model_keys_reach_model_config(self, tmp_path):
        kernel = {"kernel_" + k: v for k, v in KERNEL_KEYS.items()}
        config = load_config(write_ini(tmp_path, _ini_text(
            {"model": {**MODEL_KEYS, **kernel, "inducing": "subsample"}})))
        # cnn interference needs 2-d patches
        ds = SpatialDataset(coords=np.zeros((10, 2)), treatments=np.zeros((10, 1)),
                            patches=np.zeros((10, 1, 3, 3)), confounders=np.zeros((10, 3)),
                            outcomes=np.zeros(10), d_s=3)
        mc = cli.model_config_from(config, ds, 5)
        assert {k: getattr(mc, k) for k in MODEL_KEYS} == MODEL_KEYS
        assert dataclasses.asdict(mc.kernel) == KERNEL_KEYS
        assert mc.inducing_strategy == "subsample"
        assert (mc.m, mc.patch_shape, mc.x_dim, mc.seed) == (1, (3, 3), 3, 5)

    def test_train_keys_reach_train_config(self, tmp_path):
        config = load_config(write_ini(tmp_path, _ini_text({"train": TRAIN_KEYS})))
        tc = cli.train_config_from(config, 5)
        assert {k: getattr(tc, k) for k in TRAIN_KEYS} == TRAIN_KEYS
        assert tc.seed == 5

    def test_zero_batch_size_and_patience_mean_none(self, tmp_path):
        # 0 is full batch and no early stopping, in the INI file and in TrainConfig
        config = load_config(write_ini(tmp_path, "[train]\nbatch_size = 0\npatience = 0\n"))
        tc = cli.train_config_from(config, 0)
        assert (tc.batch_size, tc.patience) == (0, 0)
        assert tc == TrainConfig(epochs=200)

    def test_fielded_keys_take_the_field_type_and_default(self):
        # the INI defaults that differ from the library's on purpose
        overrides = {("data", "d_s"): 25, ("model", "kernel_family"): "rbf",
                     ("model", "kernel_lengthscale"): 0.5, ("model", "kernel_noise"): 0.5,
                     ("train", "epochs"): 200}
        holders = {"data": [("", LineGraphConfig), ("", GridConfig)],
                   "model": [("", ModelConfig), ("kernel_", G.KernelSpec)],
                   "train": [("", TrainConfig)]}
        for section, classes in holders.items():
            for prefix, cls in classes:
                for field in dataclasses.fields(cls):
                    spec = cli._SCHEMA[section].get(prefix + field.name)
                    if spec is None:
                        continue
                    default = overrides.get((section, prefix + field.name), field.default)
                    assert spec[:2] == (field.type, default), (section, field.name)


class TestConfigHash:
    def test_formatting_never_changes_hash(self, tmp_path):
        a = load_config(write_ini(tmp_path, TINY_INI, "a.ini"))
        reordered = textwrap.dedent("""\
            ; a comment
            [run]
            seeds = 0,1

            [train]
            optimizer = adam
            lr = 0.05
            epochs = 12

            [effects]
            b_draws = 8
            grid_size = 5

            [model]
            confounder = linear
            interference = linear

            [data]
            x_dim = 2
            n = 60
            generator = line
            """)
        b = load_config(write_ini(tmp_path, reordered, "b.ini"))
        assert config_hash(a) == config_hash(b)

    def test_writing_out_a_default_changes_nothing(self, tmp_path):
        a = load_config(write_ini(tmp_path, "[data]\nn = 60\n", "a.ini"))
        b = load_config(write_ini(tmp_path, "[data]\nn = 60\nx_dim = 4\n",
                                  "b.ini"))
        assert config_hash(a) == config_hash(b)

    def test_meaningful_key_changes_hash(self, tmp_path):
        a = load_config(write_ini(tmp_path, TINY_INI, "a.ini"))
        b = load_config(write_ini(tmp_path,
                                  TINY_INI.replace("lr = 0.05", "lr = 0.01"),
                                  "b.ini"))
        assert config_hash(a) != config_hash(b)
        assert len(config_hash(a)) == 64

    @pytest.mark.parametrize("name,digest", [
        ("line_mlp_gp", "6d1c44449b7e110c2d9a6ae6dba933d8b155db39f35906817b894baf3ccedae7"),
        ("raster_cli", "72b3106411254dd958289b24bca7e1b5acb9ea63d2dbca6570ee68b7e27c0e88"),
    ])
    def test_benchmark_config_hashes_are_pinned(self, name, digest):
        """A benchmark run's report.json names its config by this hash."""
        path = Path(__file__).parents[1] / "perfbench" / "configs" / f"{name}.ini"
        assert config_hash(load_config(str(path))) == digest


class TestGen:
    def test_line_artifacts(self, workspace):
        names = sorted(os.listdir(workspace["data"]))
        assert names == ["confounder.grd", "outcome.grd", "run.manifest",
                         "treatment_1.grd", "truth.json"]

    def test_line_round_trip_matches_generator(self, workspace):
        ds = extract_units(load_manifest(
            os.path.join(workspace["data"], "run.manifest")))
        direct, _ = gen_line_graph(LineGraphConfig(n=60, x_dim=2))
        assert_array_equal(ds.treatments, direct.treatments)
        assert_array_equal(ds.patches, direct.patches)
        assert_array_equal(ds.outcomes, direct.outcomes)
        assert_array_equal(ds.confounders, direct.confounders)
        assert ds.coords.shape == direct.coords.shape == (60, 1)
        assert_allclose(ds.coords, direct.coords, atol=1e-12)

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        again = str(tmp_path / "again")
        assert cli.main(["gen", "--config", workspace["ini"],
                         "--out", again]) == 0
        for name in os.listdir(workspace["data"]):
            old = open(os.path.join(workspace["data"], name), "rb").read()
            new = open(os.path.join(again, name), "rb").read()
            assert old == new, name

    def test_seed_flag_changes_data(self, workspace, tmp_path):
        other = str(tmp_path / "other")
        assert cli.main(["gen", "--config", workspace["ini"], "--out", other,
                         "--seed", "5"]) == 0
        sidecar = json.load(open(os.path.join(other, "truth.json")))
        assert sidecar["seed"] == 5
        old = open(os.path.join(workspace["data"], "outcome.grd"), "rb").read()
        new = open(os.path.join(other, "outcome.grd"), "rb").read()
        assert old != new

    @pytest.mark.parametrize("name", sorted(ROUTE_CONFIGS))
    def test_truth_indexed_like_dataset(self, tmp_path, name):
        # gen's grids list the units row by row, not in the order they were drawn
        config = load_config(write_ini(tmp_path, ROUTE_CONFIGS[name]))
        ds, truth = cli.generate_dataset(config, 2)
        idx = np.arange(ds.n_units)
        y = truth.beta * ds.treatments[:, 0] + truth.interference(idx, ds.patches[:, 0]) \
            + truth.base[idx]
        assert_allclose(y, ds.outcomes, rtol=0, atol=1e-12)

    def test_grid_outcome_sparse(self, tmp_path):
        ini = write_ini(tmp_path, textwrap.dedent("""\
            [data]
            generator = grid
            rows = 24
            cols = 24
            d_s = 7
            n_units = 10
            x_channels = 2
            field_lengthscale = 4.0
            """))
        out = str(tmp_path / "g")
        assert cli.main(["gen", "--config", ini, "--out", out]) == 0
        ds = extract_units(load_manifest(os.path.join(out, "run.manifest")))
        assert ds.n_units == 10
        assert ds.patch_shape == (7, 7)
        assert ds.confounders.shape == (10, 2)


class TestTrainCmd:
    def test_checkpoint_and_trace(self, workspace):
        model = load_model(workspace["ckpt"])
        assert model.m == 1
        with open(os.path.join(workspace["run"], "loss_trace.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_mse", "val_mse"]
        assert len(rows) == 1 + 12
        assert rows[1][2] == ""
        losses = [float(r[1]) for r in rows[1:]]
        assert losses[-1] < losses[0]

    def test_split_fills_val_column(self, workspace, tmp_path):
        ini = write_ini(tmp_path,
                        TINY_INI.replace("[train]\n",
                                         "[train]\nuse_split = on\n"))
        out = str(tmp_path / "r")
        assert cli.main(["train", "--config", ini, "--data",
                         workspace["data"], "--out", out]) == 0
        with open(os.path.join(out, "loss_trace.csv")) as fh:
            rows = list(csv.reader(fh))
        assert all(r[2] != "" for r in rows[1:])


@pytest.fixture(scope="module")
def eff_dir(workspace):
    out = str(workspace["root"] / "eff")
    assert cli.main(["effects", "--config", workspace["ini"],
                     "--ckpt", workspace["ckpt"],
                     "--data", workspace["data"], "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def proto_dir(workspace):
    out = str(workspace["root"] / "proto")
    assert cli.main(["effects", "--config", workspace["ini"],
                     "--out", out]) == 0
    return out


class TestEffectsCmd:
    def test_variant_files(self, eff_dir):
        names = sorted(os.listdir(eff_dir))
        assert names == ["effects_unweighted.csv", "effects_weighted.csv",
                         "errors_unweighted.csv", "errors_weighted.csv"]

    def test_effects_csv_summary_identity(self, eff_dir):
        for name in ("effects_unweighted.csv", "effects_weighted.csv"):
            with open(os.path.join(eff_dir, name)) as fh:
                rows = list(csv.DictReader(fh))
            summary = {r["effect_type"]: float(r["estimate"])
                       for r in rows if r["t_value"] == ""}
            assert set(summary) == {"DE", "IE", "TE"}
            assert abs(summary["TE"] - summary["DE"] - summary["IE"]) <= 1e-9
            curve = [r for r in rows if r["t_value"] != ""]
            assert len(curve) == 2 * 5

    def test_errors_have_truth_baseline(self, eff_dir):
        with open(os.path.join(eff_dir, "errors_weighted.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["seed", "de_err", "ie_err", "te_err",
                           "de_std", "ie_std", "te_std"]
        assert rows[-1][0] == "mean"
        assert all(np.isfinite(float(v)) for v in rows[1][1:4])

    def test_ckpt_needs_data(self, workspace, capsys):
        code = cli.main(["effects", "--config", workspace["ini"],
                         "--ckpt", workspace["ckpt"],
                         "--out", str(workspace["root"] / "junk")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config_error\t")

    def test_data_needs_ckpt(self, workspace, capsys):
        out = workspace["root"] / "data_without_ckpt"
        code = cli.main(["effects", "--config", workspace["ini"],
                         "--data", str(workspace["root"] / "nonexistent"),
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config_error\t")
        assert not out.exists()

    def test_without_truth_writes_only_effects(self, workspace, eff_dir, tmp_path):
        data = str(tmp_path / "data")
        shutil.copytree(workspace["data"], data)
        os.remove(os.path.join(data, "truth.json"))
        out = str(tmp_path / "eff")
        assert cli.main(["effects", "--config", workspace["ini"], "--ckpt",
                         workspace["ckpt"], "--data", data, "--out", out]) == 0
        names = sorted(os.listdir(out))
        assert names == ["effects_unweighted.csv", "effects_weighted.csv"]
        for name in names:
            with open(os.path.join(out, name), "rb") as a, \
                    open(os.path.join(eff_dir, name), "rb") as b:
                assert a.read() == b.read(), name

    def test_truth_with_full_scale_key_loads(self, workspace, eff_dir, tmp_path):
        """A truth.json that still records data.full_scale gives the same bytes."""
        data = str(tmp_path / "data")
        shutil.copytree(workspace["data"], data)
        sidecar = os.path.join(data, "truth.json")
        with open(sidecar) as fh:
            doc = json.load(fh)
        doc["data"]["full_scale"] = False
        with open(sidecar, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
        out = str(tmp_path / "eff")
        assert cli.main(["effects", "--config", workspace["ini"], "--ckpt",
                         workspace["ckpt"], "--data", data, "--out", out]) == 0
        assert sorted(os.listdir(out)) == sorted(os.listdir(eff_dir))
        for name in os.listdir(out):
            with open(os.path.join(out, name), "rb") as a, \
                    open(os.path.join(eff_dir, name), "rb") as b:
                assert a.read() == b.read(), name

    @pytest.mark.parametrize("shift,code", [("ulps", 0), (1e-6, 2)],
                             ids=["rounding", "real_change"])
    def test_truth_check_tolerates_rounding(self, workspace, tmp_path, capsys,
                                            shift, code):
        """Data written at another BLAS thread count differ from the regenerated
        dataset in the last bits; that is no data error, a real change is."""
        data = str(tmp_path / "data")
        shutil.copytree(workspace["data"], data)
        path = os.path.join(data, "treatment_1.grd")
        grid = load_grid(path)
        values = grid.data.copy()
        if shift == "ulps":
            for _ in range(3):
                values[0, 0, 7] = np.nextafter(values[0, 0, 7], np.inf)
        else:
            values[0, 0, 7] += shift
        save_grid(dataclasses.replace(grid, data=values), path)
        assert cli.main(["effects", "--config", workspace["ini"], "--ckpt",
                         workspace["ckpt"], "--data", data,
                         "--out", str(tmp_path / "eff")]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("data_error\t"), err
            assert "regenerated treatments differ" in err, err

    def test_no_interference_nets_gives_zero_ie(self, tmp_path):
        ini = write_ini(tmp_path, TINY_INI.replace("interference = linear",
                                                   "interference = none"))
        data, fit, out = (str(tmp_path / d) for d in ("data", "fit", "eff"))
        for argv in (["gen", "--out", data], ["train", "--data", data, "--out", fit],
                     ["effects", "--ckpt", os.path.join(fit, "model.ckpt"),
                      "--data", data, "--out", out]):
            assert cli.main([argv[0], "--config", ini] + argv[1:]) == 0
        for variant in ("unweighted", "weighted"):
            with open(os.path.join(out, f"effects_{variant}.csv")) as fh:
                rows = list(csv.DictReader(fh))
            ie = [float(r["estimate"]) for r in rows if r["effect_type"] == "IE"]
            assert len(ie) == 5 + 1 and all(v == 0.0 for v in ie), variant
            summary = {r["effect_type"]: r["estimate"] for r in rows if r["t_value"] == ""}
            assert summary["TE"] == summary["DE"], variant
            assert os.path.exists(os.path.join(out, f"errors_{variant}.csv"))

    @pytest.mark.parametrize("command", ["effects", "eval"])
    @pytest.mark.parametrize("patch_shape,x_dim", [((5,), 2), ((3,), 3)],
                             ids=["patch", "confounders"])
    def test_incompatible_checkpoint(self, workspace, tmp_path, capsys, command,
                                     patch_shape, x_dim):
        model = build_model(ModelConfig(m=1, patch_shape=patch_shape, x_dim=x_dim,
                                        interference="linear",
                                        confounder="linear"))
        ckpt = str(tmp_path / "other.ckpt")
        save_model(model, ckpt)
        code = cli.main([command, "--config", workspace["ini"],
                         "--ckpt", ckpt, "--data", workspace["data"],
                         "--out", str(tmp_path / "junk")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config_error\t")


    def test_variant_files_match_single_variant_runs(self, workspace, tmp_path):
        """``weighted = both`` writes the bytes of separate ``off`` and ``on`` runs."""
        out = {}
        for flag in ("both", "off", "on"):
            ini = write_ini(tmp_path, TINY_INI.replace(
                "b_draws = 8", f"b_draws = 8\nmode = both\nweighted = {flag}"),
                name=f"{flag}.ini")
            out[flag] = str(tmp_path / flag)
            assert cli.main(["effects", "--config", ini, "--ckpt", workspace["ckpt"],
                             "--data", workspace["data"], "--out", out[flag]]) == 0
        for flag, label in (("off", "unweighted"), ("on", "weighted")):
            assert sorted(os.listdir(out[flag])) == [f"effects_{label}.csv",
                                                     f"errors_{label}.csv"]
            for name in os.listdir(out[flag]):
                with open(os.path.join(out["both"], name), "rb") as a, \
                        open(os.path.join(out[flag], name), "rb") as b:
                    assert a.read() == b.read(), name

    def test_gp_checkpoint_factors_only_the_truth(self, grid_run, tmp_path, monkeypatch):
        # the effects never evaluate the GP term, so its q x q Gram is never factored
        ini, paths = grid_run
        sizes = []
        chol = G.chol_with_jitter
        monkeypatch.setattr(G, "chol_with_jitter",
                            lambda mat, eps: sizes.append(mat.shape[0]) or chol(mat, eps))
        assert cli.main(["effects", "--config", ini, "--ckpt", str(paths["model.ckpt"]),
                         "--data", str(paths["run.manifest"].parent),
                         "--out", str(tmp_path / "eff")]) == 0
        # one dense draw of the truth's field over its 60 units
        assert sizes == [60]


def _two_treatment_setup(tmp_path):
    """A 2-treatment line dataset, an MLP model with random parameters, a truth,
    and an effects config with ``mode = both``, ``weighted = both``."""
    rng = np.random.default_rng(5)
    n = 30
    treatments = rng.normal(size=(n, 2))
    patches = np.zeros((n, 2, 3))
    patches[1:, :, 0] = treatments[:-1]
    patches[:-1, :, 2] = treatments[1:]
    dataset = SpatialDataset(np.linspace(0.0, 1.0, n)[:, None], treatments, patches,
                             rng.normal(size=(n, 2)), rng.normal(size=n), d_s=3)
    model = build_model(ModelConfig(m=2, patch_shape=(3,), x_dim=2, interference="mlp",
                                    confounder="mlp", mlp_width=5, mlp_depth=2, seed=4))
    for p in model.parameters():
        p.data = rng.normal(size=p.data.shape)
    truth = GroundTruth(beta=1.5, base=np.zeros(n),
                        interference=lambda idx, pt: np.tanh(pt.sum(axis=-1)) + 0.1 * idx)
    ini = write_ini(tmp_path, TINY_INI.replace(
        "b_draws = 8", "b_draws = 8\nmode = both\nweighted = both"))
    return dataset, model, truth, load_config(ini)


def _bits(value):
    arr = np.asarray(value)
    return None if value is None else (arr.dtype.str, arr.shape, arr.tobytes())


class TestSharedEffectWork:
    """Weighting variants share one set of contrasts, draws and oracle per treatment."""

    def test_variants_equal_separate_single_variant_calls(self, tmp_path):
        dataset, model, truth, config = _two_treatment_setup(tmp_path)
        reports, errors = cli.estimate_variants(model, dataset, config, truth)
        assert list(reports) == ["unweighted", "weighted"]
        for label, weighted in (("unweighted", False), ("weighted", True)):
            alone, alone_errors = cli.compute_effect_reports(model, dataset, config,
                                                             weighted, truth=truth)
            assert len(reports[label]) == len(alone) == 4
            for got, want in zip(reports[label], alone):
                assert got.weighted is weighted
                for field in dataclasses.fields(got):
                    assert (_bits(getattr(got, field.name))
                            == _bits(getattr(want, field.name))), (label, field.name)
            assert sorted(errors[label]) == sorted(alone_errors)
            for key, val in alone_errors.items():
                assert _bits(errors[label][key]) == _bits(val), (label, key)

    def test_model_and_oracle_calls_do_not_grow_with_variants(self, tmp_path,
                                                               monkeypatch):
        dataset, model, truth, config = _two_treatment_setup(tmp_path)
        calls = {"interference": 0, "oracle": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(SpatialModel, "interference_component",
                            counted("interference", SpatialModel.interference_component))
        monkeypatch.setattr(cli, "oracle_effects", counted("oracle", cli.oracle_effects))
        counts = {}
        for flag in ("on", "off", "both"):
            config["effects"]["weighted"] = flag
            calls.update(interference=0, oracle=0)
            cli.estimate_variants(model, dataset, config, truth)
            counts[flag] = dict(calls)
        # per treatment and mode: the patch batch and the zero baseline
        assert counts["both"] == counts["on"] == counts["off"] == {
            "interference": 2 * 2 * 2, "oracle": 1}


def _benchmark_ini(tmp_path, name, extra=""):
    """A perfbench config cut to 3 epochs, plus ``extra`` lines."""
    config = Path(__file__).parents[1] / "perfbench" / "configs" / f"{name}.ini"
    text, cut = re.subn(r"(?m)^epochs = .*$", "epochs = 3", config.read_text())
    assert cut == 1
    return write_ini(tmp_path, text + extra)


def _module_env(**extra):
    """The environment for ``python -m spatialcausal`` from this checkout."""
    env = dict(os.environ, **extra)
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


# the rows of an errors_<variant>.csv that write_error_tables writes
_ERROR_HEADER = ["seed", "de_err", "ie_err", "te_err", "de_std", "ie_std", "te_std"]
_ERROR_SEED_ROW = ["0", "0.1", "0.2", "0.3", "", "", ""]
_ERROR_MEAN_ROW = ["mean", "0.1", "0.2", "0.3", "0", "0", "0"]


class TestProtocol:
    def test_per_seed_artifacts(self, proto_dir):
        names = set(os.listdir(proto_dir))
        for seed in (0, 1):
            assert f"effects_s{seed}_weighted.csv" in names
            assert f"effects_s{seed}_unweighted.csv" in names
            assert f"loss_trace_s{seed}.csv" in names
        assert "report.json" in names

    def test_errors_table_layout(self, proto_dir):
        with open(os.path.join(proto_dir, "errors_weighted.csv")) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2 + 1
        assert [r[0] for r in rows[1:]] == ["0", "1", "mean"]
        assert rows[1][4:] == ["", "", ""]
        per_seed = np.array([[float(v) for v in r[1:4]] for r in rows[1:3]])
        mean_row = [float(v) for v in rows[3][1:4]]
        assert_allclose(mean_row, per_seed.mean(axis=0), rtol=1e-15)
        std_row = [float(v) for v in rows[3][4:]]
        assert_allclose(std_row, per_seed.std(axis=0, ddof=1), rtol=1e-12)

    def test_report_json_schema(self, proto_dir, workspace):
        rep = json.load(open(os.path.join(proto_dir, "report.json")))
        assert rep["seeds"] == [0, 1]
        assert rep["config_hash"] == config_hash(load_config(workspace["ini"]))
        assert len(rep["per_seed"]) == 2
        for rec in rep["per_seed"]:
            assert set(rec["errors"]) == {"unweighted", "weighted"}
            assert rec["errors"]["weighted"].keys() == {"de_err", "ie_err",
                                                        "te_err"}
        for stats in rep["summary"].values():
            assert stats.keys() == {"de_err_mean", "de_err_std", "ie_err_mean",
                                    "ie_err_std", "te_err_mean", "te_err_std"}

    def test_single_seed_matches_ckpt_route(self, tmp_path):
        """The protocol's files for a seed are those that gen, train and
        effects --ckpt write for it, byte for byte, error row label included,
        whether the seed comes from [run] seeds or from --seed."""
        for (name, text), seed_from in itertools.product(ROUTE_CONFIGS.items(),
                                                         ("config", "flag")):
            root = tmp_path / name / seed_from
            root.mkdir(parents=True)
            flag = []
            if seed_from == "flag":
                text, flag = text.replace("[run]\nseeds = 2\n", ""), ["--seed", "2"]
                assert "seeds" not in text
            ini = write_ini(root, text)
            data, fit, eff, proto = (str(root / d) for d in ("data", "fit", "eff", "proto"))
            for argv in (["gen", "--out", data], ["train", "--data", data, "--out", fit],
                         ["effects", "--ckpt", os.path.join(fit, "model.ckpt"),
                          "--data", data, "--out", eff],
                         ["effects", "--out", proto]):
                assert cli.main([argv[0], "--config", ini] + flag + argv[1:]) == 0
            pairs = [(os.path.join(fit, "loss_trace.csv"),
                      os.path.join(proto, "loss_trace_s2.csv"))]
            for variant in ("unweighted", "weighted"):
                pairs.append((os.path.join(eff, f"effects_{variant}.csv"),
                              os.path.join(proto, f"effects_s2_{variant}.csv")))
                pairs.append((os.path.join(eff, f"errors_{variant}.csv"),
                              os.path.join(proto, f"errors_{variant}.csv")))
            for route, protocol in pairs:
                assert open(route, "rb").read() == open(protocol, "rb").read(), \
                    (seed_from, route)
            # one seed has a standard deviation of 0
            for variant in ("unweighted", "weighted"):
                with open(os.path.join(proto, f"errors_{variant}.csv")) as fh:
                    rows = list(csv.reader(fh))
                assert rows[-1][0] == "mean" and rows[-1][4:] == ["0", "0", "0"], rows

    def test_manifest_generator_has_no_errors(self, workspace, tmp_path):
        manifest = os.path.join(workspace["data"], "run.manifest")
        ini = write_ini(tmp_path, TINY_INI.replace(
            "generator = line", f"generator = manifest\nmanifest = {manifest}")
            .replace("seeds = 0,1", "seeds = 0"))
        out = str(tmp_path / "proto")
        assert cli.main(["effects", "--config", ini, "--out", out]) == 0
        assert sorted(os.listdir(out)) == ["effects_s0_unweighted.csv",
                                           "effects_s0_weighted.csv",
                                           "loss_trace_s0.csv", "report.json"]
        rep = json.load(open(os.path.join(out, "report.json")))
        assert rep["per_seed"][0]["errors"] == {"unweighted": None, "weighted": None}
        assert rep["summary"] == {}

    def test_summary_holds_the_errors_csv_mean_row_bits(self, tmp_path):
        # from 8 seeds on, a 1-d and a column-wise reduction can round apart
        ini = write_ini(tmp_path, TINY_INI.replace("seeds = 0,1", "seeds = " + ",".join(
            str(seed) for seed in range(9))))
        out = str(tmp_path / "proto")
        assert cli.main(["effects", "--config", ini, "--out", out]) == 0
        rep = json.load(open(os.path.join(out, "report.json")))
        assert set(rep["summary"]) == {"unweighted", "weighted"}
        for label, stats in rep["summary"].items():
            with open(os.path.join(out, f"errors_{label}.csv")) as fh:
                rows = list(csv.reader(fh))
            assert rows[-1][0] == "mean" and len(rows) == 1 + 9 + 1
            cells = dict(zip(rows[0][1:], rows[-1][1:]))
            for key in ("de", "ie", "te"):
                assert stats[f"{key}_err_mean"] == float(cells[f"{key}_err"]), (label, key)
                assert stats[f"{key}_err_std"] == float(cells[f"{key}_std"]), (label, key)

    def test_line_benchmark_config_reruns_to_the_same_bytes(self, tmp_path):
        """Two protocol runs of the line benchmark config at 3 epochs over
        seeds 0-8 write the same files; report.json differs only in
        ``wall_clock_s``."""
        ini = _benchmark_ini(tmp_path, "line_mlp_gp", "\n[run]\nseeds = 0,1,2,3,4,5,6,7,8\n")

        def contents(out, name):
            if name != "report.json":
                return (out / name).read_bytes()
            report = json.loads((out / name).read_text())
            del report["wall_clock_s"]
            return json.dumps(report, sort_keys=True, indent=1)

        outs = [tmp_path / run for run in "ab"]
        for out in outs:
            assert cli.main(["effects", "--config", ini, "--out", str(out)]) == 0
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1]))
        assert len(names) == 9 * 3 + 2 + 1 and "loss_trace_s8.csv" in names
        for name in names:
            assert contents(outs[0], name) == contents(outs[1], name), name

    def test_failure_at_second_seed_keeps_the_first_seeds_files(self, tmp_path, capsys,
                                                                 monkeypatch):
        """Each seed's files are written as the seed ends; errors_*.csv and
        report.json only after the last seed."""
        fit_model, calls = cli.fit_model, []

        def fail_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise NumericError("second seed diverged")
            return fit_model(*args)

        monkeypatch.setattr(cli, "fit_model", fail_second)
        ini = write_ini(tmp_path, TINY_INI.replace("epochs = 12", "epochs = 2"))
        out = tmp_path / "proto"
        assert cli.main(["effects", "--config", ini, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "numeric_error\tsecond seed diverged\n", err
        assert sorted(os.listdir(out)) == ["effects_s0_unweighted.csv",
                                           "effects_s0_weighted.csv", "loss_trace_s0.csv"]

    def test_wall_clock_spans_the_per_seed_writes(self, tmp_path, monkeypatch):
        """A clock that moves only while a loss trace is written reads one
        unit per seed in ``wall_clock_s``."""
        clock = [0.0]
        write_trace_csv = cli.write_trace_csv

        def slow_write(*args):
            clock[0] += 1.0
            write_trace_csv(*args)

        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        monkeypatch.setattr(cli, "write_trace_csv", slow_write)
        ini = write_ini(tmp_path, TINY_INI.replace("epochs = 12", "epochs = 2"))
        out = tmp_path / "proto"
        assert cli.main(["effects", "--config", ini, "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["wall_clock_s"] == 2.0

    def test_report_command(self, proto_dir, capsys):
        assert cli.main(["report", "--out", proto_dir]) == 0
        text = open(os.path.join(proto_dir, "report.txt")).read()
        assert "config hash:" in text
        assert "weighted:" in text
        out = capsys.readouterr().out
        assert "seeds: [0, 1]" in out

    @pytest.mark.parametrize("rows", [
        [], [_ERROR_HEADER], [_ERROR_HEADER, _ERROR_SEED_ROW], [["x" * 200000]],
        [_ERROR_HEADER, _ERROR_SEED_ROW, _ERROR_MEAN_ROW]],
        ids=["empty", "header_only", "no_mean_row", "field_over_csv_limit", "valid"])
    def test_report_checks_the_error_table_shape(self, tmp_path, capsys, rows):
        text = "".join(",".join(row) + "\n" for row in rows)
        (tmp_path / "errors_weighted.csv").write_text(text)
        status = cli.main(["report", "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        if rows and rows[-1] is _ERROR_MEAN_ROW:
            assert (status, out) == (0, "errors_weighted.csv: 1 seed rows + summary\n")
        else:
            assert status == 2
            assert err.startswith(f"data_error\tmalformed run artifact in {tmp_path}: "), err

    def test_seed_flag_overrides_seed_list(self, workspace, tmp_path):
        out = str(tmp_path / "one")
        assert cli.main(["effects", "--config", workspace["ini"],
                         "--out", out, "--seed", "1"]) == 0
        rep = json.load(open(os.path.join(out, "report.json")))
        assert rep["seeds"] == [1]


class TestLibraryEntryPoints:
    def test_python_dash_m_runs_the_cli(self, tmp_path):
        proc = subprocess.run([sys.executable, "-m", "spatialcausal", "report",
                               "--out", str(tmp_path)],
                              env=_module_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("data_error\t")
        assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr

    def test_train_without_a_thread_variable_writes_the_one_thread_bytes(self, tmp_path):
        """numpy's OpenBLAS is held at one thread unless the user sets a count;
        at two threads the line MLP's GEMMs round differently."""
        ini = _benchmark_ini(tmp_path, "line_mlp_gp")
        data = str(tmp_path / "data")
        assert cli.main(["gen", "--config", ini, "--out", data]) == 0
        fits = []
        for threads in ("1", None):
            env = {k: v for k, v in _module_env().items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            fits.append(tmp_path / f"fit-{threads}")
            proc = subprocess.run([sys.executable, "-m", "spatialcausal", "train", "--config",
                                   ini, "--data", data, "--out", str(fits[-1])],
                                  env=env, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
        for name in ("model.ckpt", "loss_trace.csv"):
            assert (fits[0] / name).read_bytes() == (fits[1] / name).read_bytes(), name

    @pytest.mark.parametrize("name", ["line_mlp_gp", "raster_cli"])
    def test_benchmark_config_commands_rerun_and_load_across_thread_counts(
            self, tmp_path, name):
        """gen, train and effects --ckpt on a benchmark config at seed 1 write
        the same files twice.  Data that gen writes at one BLAS thread load in
        effects --ckpt at two, whose regenerated truth rounds differently."""
        ini = _benchmark_ini(tmp_path, name)
        for run in "ab":
            data, fit, eff = (str(tmp_path / run / d) for d in ("data", "fit", "eff"))
            for argv in (["gen", "--out", data], ["train", "--data", data, "--out", fit],
                         ["effects", "--ckpt", os.path.join(fit, "model.ckpt"),
                          "--data", data, "--out", eff]):
                assert cli.main([argv[0], "--config", ini, "--seed", "1"] + argv[1:]) == 0
        files = [sorted(p.relative_to(tmp_path / run) for p in (tmp_path / run).rglob("*")
                        if p.is_file()) for run in "ab"]
        assert files[0] == files[1] and len(files[0]) == 5 + 2 + 4, files
        for path in files[0]:
            assert (tmp_path / "a" / path).read_bytes() == (tmp_path / "b" / path).read_bytes(), \
                path

        for threads, argv in (("1", ["gen", "--out", str(tmp_path / "data1")]),
                              ("2", ["effects", "--ckpt", str(tmp_path / "a" / "fit" / "model.ckpt"),
                                     "--data", str(tmp_path / "data1"),
                                     "--out", str(tmp_path / "eff2")])):
            proc = subprocess.run([sys.executable, "-m", "spatialcausal", argv[0], "--config",
                                   ini, "--seed", "1"] + argv[1:],
                                  env=_module_env(OPENBLAS_NUM_THREADS=threads),
                                  capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in (tmp_path / "eff2").glob("errors_*.csv")) == [
            "errors_unweighted.csv", "errors_weighted.csv"]


class TestGradcheckCmd:
    def test_covers_every_op_kind(self):
        names = {name for name, _, _ in cli._gradcheck_cases()}
        missing = set(E.op_kinds()) - names
        assert not missing
        assert len(names) >= 10

    def test_covers_both_conv2d_arities(self):
        arities = set()
        for name, fn, _ in cli._gradcheck_cases():
            if name.startswith("conv2d"):
                with E.Tape() as tape:
                    fn()
                arities |= {len(nd.inputs) for nd in tape.nodes if nd.kind == "conv2d"}
        assert arities == {2, 3}

    def test_unet_case_reaches_every_parameter(self):
        # the U-Net returns one pixel; a dead ReLU there would check nothing
        (fn, params), = [(fn, ps) for name, fn, ps in cli._gradcheck_cases()
                         if name == "unet_composite"]
        with E.Tape() as tape:
            loss = fn()
        tape.backward(loss)
        assert all(np.any(p.grad != 0.0) for p in params)

    def test_all_pass(self, capsys):
        assert cli.cmd_gradcheck() == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.strip().endswith("ops pass")

    def test_broken_gradient_fails(self, monkeypatch, capsys):
        p = E.Tensor(np.array([1.0, 2.0]), requires_grad=True)

        def doubled():
            # constant rebuilt from the live values: numeric slope doubles
            return E.add(E.tsum(p), E.Tensor(np.asarray(p.data.sum())))

        monkeypatch.setattr(cli, "_gradcheck_cases",
                            lambda: [("sabotage", doubled, [p])])
        assert cli.cmd_gradcheck() == 1
        assert "sabotage" in capsys.readouterr().out


class TestEvalCmd:
    def test_metrics_json(self, workspace, tmp_path):
        out = str(tmp_path / "m")
        assert cli.main(["eval", "--config", workspace["ini"],
                         "--ckpt", workspace["ckpt"],
                         "--data", workspace["data"], "--out", out]) == 0
        metrics = json.load(open(os.path.join(out, "metrics.json")))
        assert {"r2_all", "mae_all"} <= set(metrics)
        assert all(np.isfinite(v) for v in metrics.values())


class TestMainErrors:
    def test_config_error_line_format(self, tmp_path, capsys):
        ini = write_ini(tmp_path, "[data]\nbogus = 1\n")
        assert cli.main(["gen", "--config", ini, "--out",
                         str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        code, _, message = err.partition("\t")
        assert code == "config_error"
        assert "bogus" in message

    def test_missing_data_maps_to_error_line(self, tmp_path, capsys):
        ini = write_ini(tmp_path, TINY_INI)
        assert cli.main(["train", "--config", ini, "--data",
                         str(tmp_path / "absent"), "--out",
                         str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "\t" in err and err.split("\t")[0].endswith("error")

    def test_gen_refuses_manifest_generator(self, tmp_path, capsys):
        ini = write_ini(tmp_path,
                        "[data]\ngenerator = manifest\nmanifest = m.ini\n")
        assert cli.main(["gen", "--config", ini,
                         "--out", str(tmp_path / "x")]) == 2
        assert "config_error" in capsys.readouterr().err

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit):
            cli.main([])

    @pytest.mark.parametrize("command", ["report", "gen"],
                             ids=["report_out_is_file", "gen_out_is_file"])
    def test_os_error_maps_to_data_error(self, tmp_path, capsys, command):
        out = tmp_path / "a_file"
        out.write_text("x")
        argv = [command, "--out", str(out)]
        if command == "gen":
            argv += ["--config", write_ini(tmp_path, TINY_INI)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.partition("\t")[0] == "data_error", err

    @pytest.mark.parametrize("old,new,command,message", [
        ("seeds = 0,1", "seeds = -1", ["gen"], "run.seeds: must be >= 0"),
        # the draws and the validation split are seeded 0 in every run
        ("b_draws = 8", "b_draws = 8\nseed = 0", ["effects"], "effects.seed: unknown key"),
        ("x_dim = 2", "x_dim = 2\nsplit_seed = 0", ["gen"], "data.split_seed: unknown key"),
        # wide windows are set as d_s = 51
        ("x_dim = 2", "x_dim = 2\nfull_scale = true", ["gen"], "data.full_scale: unknown key"),
        ("grid_size = 5", "grid_size = -1", ["effects"], "effects.grid_size: must be >= 1"),
        ("", "", ["gen", "--seed", "-1"], "--seed: must be >= 0"),
    ], ids=["run_seeds", "effects_seed", "data_split_seed", "data_full_scale",
            "effects_grid_size", "seed_flag"])
    def test_negative_seed_or_size_is_config_error(self, tmp_path, capsys,
                                                   old, new, command, message):
        ini = write_ini(tmp_path, TINY_INI.replace(old, new) if old else TINY_INI)
        argv = command[:1] + ["--config", ini, "--out", str(tmp_path / "x")] + command[1:]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.partition("\t")[0] == "config_error", err
        assert message in err, err

    @pytest.mark.parametrize("old,new,command,code", [
        ("generator = line", "generator = grid\nrows = 32\ncols = 32\nd_s = 3\n"
         "n_units = 20\nx_channels = 0", "gen", "config_error"),
        ("confounder = linear", "confounder = linear\ngp = true\nkernel_sigma = nan",
         "train", "config_error"),
        ("confounder = linear", "confounder = linear\ngp = true\n"
         "kernel_lengthscale = nan", "train", "config_error"),
        ("confounder = linear", "confounder = linear\ngp = true\nkernel_noise = nan",
         "train", "config_error"),
        ("confounder = linear", "confounder = linear\ngp = true\nkernel_sigma = inf",
         "train", "config_error"),
        ("x_dim = 2", "x_dim = 2\nsplit_ratios = 1,0,0", "effects", "config_error"),
        ("generator = line", "generator = grid\nrows = 32\ncols = 32\nd_s = 3\n"
         "n_units = 20\nbeta = nan", "gen", "config_error"),
        ("x_dim = 2", "x_dim = 2\nnoise_sigma = nan", "gen", "config_error"),
        ("x_dim = 2", "x_dim = 2\nsigma_l = nan", "gen", "config_error"),
        ("x_dim = 2", "x_dim = 2\nsigma_l = 2.0", "gen", "config_error"),
        ("lr = 0.05", "lr = nan", "train", "config_error"),
        ("lr = 0.05", "lr = 0.05\nmomentum = nan", "train", "config_error"),
        ("b_draws = 8", "b_draws = 0", "effects", "config_error"),
        ("grid_size = 5", "grid_size = 0", "effects", "config_error"),
        ("confounder = linear", "confounder = linear\ngp = true\ntrain_lengthscale = true\n"
         "kernel_lengthscale = 1e308", "train", "config_error"),
    ], ids=["grid_x_channels_zero", "kernel_sigma_nan", "kernel_lengthscale_nan",
            "kernel_noise_nan", "kernel_sigma_inf", "protocol_split_ratios",
            "grid_beta_nan", "line_noise_sigma_nan", "sigma_l_nan", "line_sigma_l_set",
            "lr_nan", "momentum_nan", "effects_b_draws_zero", "effects_grid_size_zero",
            "kernel_lengthscale_overflow"])
    def test_bad_value_is_typed_error(self, workspace, tmp_path, capsys,
                                      old, new, command, code):
        ini = write_ini(tmp_path, TINY_INI.replace(old, new))
        argv = [command, "--config", ini, "--out", str(tmp_path / "x")]
        if command == "train":
            argv += ["--data", workspace["data"]]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.partition("\t")[0] == code, err
        key = new.rpartition("\n")[2].partition(" =")[0]
        if "nan" in new or "inf" in new:
            assert key in err and "must be finite" in err, err
        elif key == "sigma_l":
            assert "data.sigma_l" in err, err
        elif key in ("b_draws", "grid_size"):
            assert f"effects.{key}: must be >= 1" in err, err
        elif key == "kernel_lengthscale":
            assert "model.kernel_lengthscale: must be in (0, 1e100]" in err, err

    @pytest.mark.parametrize("old,new,command,named", [
        ("confounder = linear", "confounder = linear\ngp = true\nkernel_lengthscale = 1e-200",
         "train", "lengthscale 1e-200"),
        ("generator = line", "generator = grid\nrows = 24\ncols = 24\nn_units = 20\nd_s = 1",
         "gen", "d_s 1"),
        ("generator = line", "generator = grid\nrows = 24\ncols = 24\nn_units = 20\nd_s = 3\n"
         "sigma_l = 1e-5", "gen", "sigma_l 1e-05"),
        ("generator = line", "generator = grid\nrows = 24\ncols = 24\nn_units = 20\nd_s = 3\n"
         "field_lengthscale = 1e-200", "gen", "lengthscale 1e-200"),
    ], ids=["kernel_lengthscale", "d_s_one", "sigma_l", "field_lengthscale"])
    def test_underflowing_setting_is_one_numeric_error_line(
            self, workspace, tmp_path, capsys, old, new, command, named):
        """A setting inside its domain whose arithmetic underflows to a 0/0."""
        ini = write_ini(tmp_path, TINY_INI.replace(old, new))
        argv = [command, "--config", ini, "--out", str(tmp_path / "x")]
        if command == "train":
            argv += ["--data", workspace["data"]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)     # raised before any 0/0
            assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric_error\t") and err.count("\n") == 1, err
        assert named in err and "Traceback" not in err, err

    def test_unfactorable_kernel_is_not_divergence(self, workspace, tmp_path, capsys):
        """The GP map is factored before the first step, so it fails as itself."""
        ini = write_ini(tmp_path, TINY_INI.replace(
            "confounder = linear", "confounder = linear\ngp = true\nkernel_lengthscale = 1e-200"))
        argv = ["train", "--config", ini, "--data", workspace["data"],
                "--out", str(tmp_path / "x")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == ("numeric_error\tkernel lengthscale 1e-200: 2*l*l underflows to 0, "
                       "so the rbf covariance is not finite\n"), err
        assert "diverged" not in err

    @pytest.mark.parametrize("command,section,key,value", [
        ("gen", "model", "mlp_width", "0"),
        ("train", "train", "patience", "-1"),
        ("effects", "model", "kernel_lengthscale", "-1"),
        ("eval", "train", "batch_size", "-1"),
    ])
    def test_out_of_domain_key_ends_command_before_it_writes(
            self, workspace, tmp_path, capsys, command, section, key, value):
        ini = write_ini(tmp_path, TINY_INI.replace(f"[{section}]\n",
                                                   f"[{section}]\n{key} = {value}\n"))
        out_dir = tmp_path / "out"
        argv = [command, "--config", ini, "--out", str(out_dir)]
        if command != "gen":
            argv += ["--data", workspace["data"]]
        if command in ("effects", "eval"):
            argv += ["--ckpt", workspace["ckpt"]]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config_error\t{section}.{key}: "), err
        assert not out_dir.exists()

    @pytest.mark.parametrize("generator,key,value", [
        ("grid", "rows", "100000000000"), ("grid", "x_channels", "1000000000000"),
        ("line", "n", str(10 ** 20)),
        *(("line", key, "100000000000")
          for key in ("q", "mlp_width", "cnn_channels", "unet_base", "unet_depth",
                      "mlp_depth", "cnn_depth", "grid_size", "b_draws"))])
    def test_oversized_setting_ends_gen_before_it_allocates(
            self, tmp_path, capsys, monkeypatch, generator, key, value):
        """Array sizes are checked against one fixed cap as the config loads."""
        def generator_ran(*args, **kwargs):
            raise AssertionError("the generator ran")

        monkeypatch.setattr(cli, "synth_fields", generator_ran)
        monkeypatch.setattr(cli, "gen_line_graph", generator_ran)
        section = next((name for name in ("model", "effects") if key in cli._SCHEMA[name]),
                       "data")
        header = "" if section == "data" else f"[{section}]\n"
        ini = write_ini(tmp_path, f"[data]\ngenerator = {generator}\n{header}{key} = {value}\n")
        out_dir = tmp_path / "out"
        assert cli.main(["gen", "--config", ini, "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config_error\t{section}.{key}: ") and err.count("\n") == 1, err
        assert f"over the cap of {MAX_ELEMENTS}" in err and "Traceback" not in err, err
        assert not out_dir.exists()

    def test_gen_makes_no_out_dir_when_generation_fails(self, tmp_path, capsys):
        ini = write_ini(tmp_path, "[data]\ngenerator = grid\nrows = 8\ncols = 8\nd_s = 9\n")
        out_dir = tmp_path / "out"
        assert cli.main(["gen", "--config", ini, "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith("data_error\t")
        assert not out_dir.exists()

    def test_checked_in_configs_within_size_cap(self):
        configs = sorted((Path(__file__).parents[1] / "perfbench" / "configs").glob("*.ini"))
        assert configs
        for ini in configs:
            load_config(str(ini))


def _drop_key(key, section=None):
    def edit(text):
        doc = json.loads(text)
        del (doc[section] if section else doc)[key]
        return json.dumps(doc)
    return edit


def _set_key(key, value, section=None):
    def edit(text):
        doc = json.loads(text)
        (doc[section] if section else doc)[key] = value
        return json.dumps(doc)
    return edit


def _ckpt(header: bytes) -> bytes:
    return b"SCKP" + struct.pack("<I", len(header)) + header


def _v1_header(blob: bytes) -> bytes:
    """The checkpoint's parameters behind a header without a format version."""
    (hlen,) = struct.unpack("<I", blob[4:8])
    head = {"m": 1, "patch_shape": [3], "x_dim": 2, "interference_kind": "linear",
            "interference": [{"kind": "linear", "spec": {"in_dim": 3, "bias": False}}],
            "confounder": {"kind": "linear", "spec": {"in_dim": 2, "bias": True}},
            "gp": None, "noise_sigma": 1.0,
            "param_order": "alphas, interference nets by treatment, confounder net, "
                           "gp weights, gp lengthscale"}
    return _ckpt(json.dumps(head, sort_keys=True).encode()) + blob[8 + hlen:]


def _gp_header(inducing):
    """The checkpoint with the GP term switched on and the given inducing points."""
    def edit(blob: bytes) -> bytes:
        (hlen,) = struct.unpack("<I", blob[4:8])
        head = json.loads(blob[8:8 + hlen])
        head["config"].update(gp=True, kernel={"family": "rbf"})
        head["inducing"] = inducing
        return _ckpt(json.dumps(head, sort_keys=True).encode()) + blob[8 + hlen:]
    return edit


def _nan_first_value(blob: bytes) -> bytes:
    """The checkpoint with NaN as the first value of its parameter stream."""
    (hlen,) = struct.unpack("<I", blob[4:8])
    return blob[:8 + hlen] + struct.pack("<d", float("nan")) + blob[16 + hlen:]


# (id, file, replacement bytes/text or edit of the good file, error code);
# edits get the checkpoint as bytes and every other file as text
MALFORMED_FILES = [
    ("ckpt_shorter_than_8_bytes", "model.ckpt", b"SCKP\x01", "format_error"),
    ("ckpt_header_not_json", "model.ckpt", _ckpt(b"{oops"), "format_error"),
    ("ckpt_header_not_utf8", "model.ckpt", _ckpt(b"\xff\xfe"), "format_error"),
    ("ckpt_header_missing_key", "model.ckpt", _ckpt(b'{"m": 1}'), "format_error"),
    ("ckpt_payload_not_whole_float64", "model.ckpt", lambda b: b + b"\x00" * 3,
     "format_error"),
    ("ckpt_trailing_values", "model.ckpt", lambda b: b + b"\x00" * 8, "format_error"),
    ("ckpt_v1_header", "model.ckpt", _v1_header, "format_error"),
    ("ckpt_inducing_null", "model.ckpt", _gp_header(None), "format_error"),
    ("ckpt_inducing_repeated", "model.ckpt", _gp_header([[0.0], [0.0]]), "format_error"),
    ("ckpt_nan_parameter", "model.ckpt", _nan_first_value, "format_error"),
    ("config_not_utf8", "exp.ini", b"[data]\nn = \xff\n", "config_error"),
    ("config_duplicate_key", "exp.ini", "[data]\nn = 5\nn = 6\n", "config_error"),
    ("config_no_section_header", "exp.ini", "n = 5\n", "config_error"),
    ("manifest_d_s_not_int", "run.manifest",
     lambda t: t.replace("d_s = 3", "d_s = three"), "config_error"),
    ("manifest_split_seed_not_int", "run.manifest",
     lambda t: t.replace("split.seed = 0", "split.seed = zero"), "config_error"),
    ("manifest_treatment_index_not_int", "run.manifest",
     lambda t: t.replace("treatment.1", "treatment.x"), "config_error"),
    ("manifest_treatment_index_zero_padded", "run.manifest",
     lambda t: t.rstrip() + "\ntreatment.01 = treatment_1.grd\n", "config_error"),
    ("manifest_treatment_index_gap", "run.manifest",
     lambda t: t.rstrip() + "\ntreatment.3 = treatment_1.grd\n", "config_error"),
    ("manifest_treatment_index_from_two", "run.manifest",
     lambda t: t.replace("treatment.1", "treatment.2"), "config_error"),
    ("manifest_split_ratios_not_float", "run.manifest",
     lambda t: t.replace("0.6,0.2,0.2", "0.6,0.2,rest"), "config_error"),
    ("manifest_duplicate_key", "run.manifest",
     lambda t: t.rstrip() + "\nd_s = 5\n", "format_error"),
    ("manifest_not_utf8", "run.manifest", lambda t: t.encode() + b"; \xff\n",
     "format_error"),
    ("manifest_confounder_is_directory", "run.manifest",
     lambda t: t.replace("confounder = confounder.grd", "confounder = ."), "data_error"),
    ("truth_truncated_json", "truth.json", lambda t: t[:len(t) // 2], "data_error"),
    ("truth_missing_seed", "truth.json", _drop_key("seed"), "data_error"),
    ("truth_missing_data", "truth.json", _drop_key("data"), "data_error"),
    ("truth_missing_generator", "truth.json", _drop_key("generator"), "data_error"),
    # the dropped value equals its field default, so only the missing key can fail
    ("truth_missing_data_key", "truth.json", _drop_key("noise_sigma", "data"),
     "data_error"),
    ("truth_unknown_generator", "truth.json", _set_key("generator", "hexmesh"),
     "data_error"),
    ("truth_wrong_generator", "truth.json", _set_key("generator", "grid"), "data_error"),
    ("truth_rejected_data_value", "truth.json", _set_key("x_dim", 0, "data"), "data_error"),
    ("truth_other_seed", "truth.json", _set_key("seed", 1), "data_error"),
    # the dataset's seed is 0, which truncation or parsing would give
    ("truth_fractional_seed", "truth.json", _set_key("seed", 0.7), "data_error"),
    ("truth_string_seed", "truth.json", _set_key("seed", "0"), "data_error"),
    ("truth_negative_seed", "truth.json", _set_key("seed", -1), "data_error"),
    ("truth_bool_seed", "truth.json", _set_key("seed", False), "data_error"),
    ("report_truncated_json", "report.json", b'{"config_hash": "x", "seeds": [0]',
     "data_error"),
    ("report_missing_seeds", "report.json", b'{"config_hash": "x"}', "data_error"),
    ("metrics_truncated_json", "metrics.json", b'{"r2_all": 0.5', "data_error"),
]


# byte offsets of a grid header's float64 fields, after the magic and 3 u32 sizes
_GRID_HEADER_OFFSETS = {"origin_x": 16, "origin_y": 24, "resolution": 32}


def _python_under_a_memory_limit(args):
    """``python args`` in a child that may map only 1.5 GB."""
    resource = pytest.importorskip("resource")
    limit = 1_500_000 * 1024

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run([sys.executable] + args, env=_module_env(), capture_output=True,
                          text=True, timeout=120, preexec_fn=cap)


def _run_under_a_memory_limit(argv):
    """``python -m spatialcausal argv`` in a child that may map only 1.5 GB."""
    return _python_under_a_memory_limit(["-m", "spatialcausal"] + argv)


def _assert_one_error_line_under_a_memory_limit(argv, expected):
    """``argv`` under the memory limit exits 2 with one error line that starts
    with ``expected``."""
    proc = _run_under_a_memory_limit(argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(expected), proc.stderr
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def _tile_line_dataset(src, dst, times):
    """The 60-unit line dataset in ``src`` repeated ``times`` times along its
    row, without its truth, into directory ``dst``."""
    dst.mkdir()
    shutil.copy(os.path.join(src, "run.manifest"), dst)
    for name in ("treatment_1.grd", "confounder.grd", "outcome.grd"):
        grid = load_grid(os.path.join(src, name))
        assert grid.data.shape[1:] == (1, 60)
        save_grid(dataclasses.replace(grid, data=np.tile(grid.data, times)), str(dst / name))


def _write_grid_dataset(dst, side, d_s):
    """A side x side grid dataset in directory ``dst``, every pixel finite:
    one treatment, two confounder channels."""
    dst.mkdir()
    rng = np.random.default_rng(side)
    for name, channels in (("treatment_1.grd", 1), ("confounder.grd", 2), ("outcome.grd", 1)):
        save_grid(Grid(data=rng.normal(size=(channels, side, side))), str(dst / name))
    save_manifest(Manifest(treatments=("treatment_1.grd",), confounder="confounder.grd",
                           outcome="outcome.grd", d_s=d_s), str(dst / "run.manifest"))


class TestMalformedFiles:
    """Every loader ends a malformed file as code<TAB>message, exit 2."""

    @pytest.mark.parametrize("target,content,code",
                             [row[1:] for row in MALFORMED_FILES],
                             ids=[row[0] for row in MALFORMED_FILES])
    def test_error_line_not_traceback(self, workspace, tmp_path, capsys,
                                      target, content, code):
        data = str(tmp_path / "data")
        shutil.copytree(workspace["data"], data)
        ckpt = str(tmp_path / "model.ckpt")
        shutil.copy(workspace["ckpt"], ckpt)
        ini = write_ini(tmp_path, TINY_INI)
        out_dir = str(tmp_path / "out")
        os.makedirs(out_dir)
        path = {"model.ckpt": ckpt, "exp.ini": ini,
                "report.json": os.path.join(out_dir, target),
                "metrics.json": os.path.join(out_dir, target)}.get(
            target, os.path.join(data, target))
        if callable(content):
            with open(path, "rb" if target == "model.ckpt" else "r") as fh:
                content = content(fh.read())
        with open(path, "wb") as fh:
            fh.write(content if isinstance(content, bytes) else content.encode())
        argv = {
            "model.ckpt": ["eval", "--config", ini, "--ckpt", ckpt, "--data", data],
            "exp.ini": ["gen", "--config", ini],
            "run.manifest": ["train", "--config", ini, "--data", data],
            "truth.json": ["effects", "--config", ini, "--ckpt", ckpt,
                           "--data", data],
            "report.json": ["report"],
            "metrics.json": ["report"],
        }[target] + ["--out", out_dir]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.partition("\t")[0] == code, err
        assert "Traceback" not in err

    def test_oversized_d_s_ends_as_a_data_error_under_a_memory_limit(self, workspace,
                                                                        tmp_path):
        """The line windows of a huge odd ``d_s`` are stated before numpy
        allocates them; the child may map only 1.5 GB."""
        data = str(tmp_path / "data")
        shutil.copytree(workspace["data"], data)
        manifest = os.path.join(data, "run.manifest")
        with open(manifest) as fh:
            text = fh.read()
        assert "d_s = 3" in text
        with open(manifest, "w") as fh:
            fh.write(text.replace("d_s = 3", "d_s = 1000000001"))
        _assert_one_error_line_under_a_memory_limit(
            ["train", "--config", write_ini(tmp_path, TINY_INI), "--data", data,
             "--out", str(tmp_path / "out")],
            "data_error\td_s: the 1 x 1000000060 zero-padded ")

    def test_oversized_first_weight_ends_as_a_data_error_under_a_memory_limit(self, tmp_path):
        """The benchmark line config on 10 units, its manifest's ``d_s`` raised
        to 2000001: the MLP's d_s x mlp_width first weight is stated before
        numpy allocates it."""
        ini = write_ini(tmp_path, (Path(__file__).parents[1] / "perfbench" / "configs"
                                   / "line_mlp_gp.ini").read_text().replace("n = 500", "n = 10"))
        data = tmp_path / "data"
        assert cli.main(["gen", "--config", ini, "--out", str(data)]) == 0
        manifest = data / "run.manifest"
        assert "d_s = 3" in manifest.read_text()
        manifest.write_text(manifest.read_text().replace("d_s = 3", "d_s = 2000001"))
        _assert_one_error_line_under_a_memory_limit(
            ["train", "--config", ini, "--data", str(data), "--out", str(tmp_path / "out")],
            "data_error\tmlp_width: the 2000001 x 256 first interference weight would hold "
            f"512000256 elements, over the cap of {MAX_ELEMENTS}\n")

    def test_header_m_past_the_stream_ends_before_the_nets_are_built(self, workspace,
                                                                     tmp_path):
        """The 60-unit linear checkpoint holds 7 values; its header's ``m`` set
        to 2**24 implies 4 more per extra treatment.  The stream is rejected
        before 2**24 nets are built; the child may map only 1.5 GB."""
        blob = Path(workspace["ckpt"]).read_bytes()
        (hlen,) = struct.unpack("<I", blob[4:8])
        assert len(blob) == 8 + hlen + 7 * 8
        head = json.loads(blob[8:8 + hlen])
        assert head["config"]["m"] == 1
        head["config"]["m"] = 2 ** 24
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(_ckpt(json.dumps(head).encode()) + blob[8 + hlen:])
        _assert_one_error_line_under_a_memory_limit(
            ["eval", "--config", workspace["ini"], "--ckpt", str(ckpt), "--data",
             workspace["data"], "--out", str(tmp_path / "out")],
            f"format_error\tparameter stream truncated: need {7 + (2 ** 24 - 1) * 4} values, "
            "have 7\n")

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("model,expected", [
        ("linear\ngp = true\nq = 2000", "data_error\tq: the 150000 x q GP features "),
        ("mlp\nmlp_width = 2048\nmlp_depth = 1",
         "data_error\tmlp_width: the 150000 x mlp_width MLP activations "),
    ], ids=["q", "mlp_width"])
    def test_oversized_unit_arrays_end_as_data_errors_under_a_memory_limit(
            self, workspace, tmp_path, model, expected, command):
        """150000 line units, each array over the cap: the units x q GP features
        and the units x mlp_width activations are stated before numpy allocates
        them.  ``eval`` reads a checkpoint fitted on the 60-unit dataset."""
        ini = write_ini(tmp_path, TINY_INI.replace("interference = linear",
                                                   f"interference = {model}"))
        argv = ["train", "--config", ini]
        if command == "eval":
            small = str(tmp_path / "small")
            assert cli.main(["train", "--config", ini, "--data", workspace["data"],
                             "--out", small]) == 0
            argv = ["eval", "--config", ini, "--ckpt", os.path.join(small, "model.ckpt")]
        data = tmp_path / "data"
        _tile_line_dataset(workspace["data"], data, 2500)
        _assert_one_error_line_under_a_memory_limit(
            argv + ["--data", str(data), "--out", str(tmp_path / "out")], expected)

    def test_out_of_memory_ends_as_one_line_naming_the_command(self, tmp_path):
        """Line ``gen`` at n = 9000 holds 9000 x 9000 arrays, each under the
        cap, that together do not fit in the child's 1.5 GB."""
        out = tmp_path / "out"
        _assert_one_error_line_under_a_memory_limit(
            ["gen", "--config", write_ini(tmp_path, TINY_INI.replace("n = 60", "n = 9000")),
             "--out", str(out)],
            "memory_error\tgen ran out of memory: Unable to allocate ")
        assert not out.exists()

    def test_out_of_memory_on_a_branch_thread_ends_as_one_line(self, workspace, tmp_path):
        """``train`` on 150000 line units with a 1536-wide MLP confounder: its
        first activations (1.8 GB, under the cap) fail to allocate on the
        branch pool's thread, in a child that may map 1.5 GB, runs a pool of
        two branches on any CPU count, and prints the failing thread's name."""
        ini = write_ini(tmp_path, TINY_INI.replace(
            "confounder = linear", "confounder = mlp\nmlp_width = 1536\nmlp_depth = 1"))
        data = tmp_path / "data"
        _tile_line_dataset(workspace["data"], data, 2500)
        child = textwrap.dedent("""\
            import sys, threading
            from spatialcausal import cli, engine, nets
            engine._WIDTH = 2
            mlp = nets._FORWARD["mlp"]

            def forward(net, x):
                try:
                    return mlp(net, x)
                except MemoryError:
                    print("MemoryError on", threading.current_thread().name)
                    raise

            nets._FORWARD["mlp"] = forward
            sys.exit(cli.main(sys.argv[1:]))
            """)
        proc = _python_under_a_memory_limit(
            ["-c", child, "train", "--config", ini, "--data", str(data),
             "--out", str(tmp_path / "out")])
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout.startswith("MemoryError on spatialcausal_"), proc.stdout
        assert proc.stderr.startswith("memory_error\ttrain ran out of memory: Unable to allocate ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_weights_on_many_units_run_under_a_memory_limit(self, workspace, tmp_path):
        """Balancing weights on 16020 line units: the KDE's units x units
        array (2 GB) never exists whole.  The checkpoint is fitted on the
        60-unit dataset."""
        data = tmp_path / "data"
        _tile_line_dataset(workspace["data"], data, 267)
        ini = write_ini(tmp_path, TINY_INI.replace("grid_size = 5\nb_draws = 8",
                                                   "mode = observed\nweighted = on"))
        out = tmp_path / "out"
        proc = _run_under_a_memory_limit(["effects", "--config", ini, "--ckpt",
                                          workspace["ckpt"], "--data", str(data),
                                          "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        with open(out / "effects_weighted.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["mode"], r["effect_type"], r["weighted"]) for r in rows] == [
            ("observed", kind, "1") for kind in ("DE", "IE", "TE")]
        assert all(math.isfinite(float(r["estimate"])) for r in rows)

    @pytest.mark.parametrize("model,expected", [
        ("cnn\ncnn_channels = 64\ncnn_depth = 1",
         "data_error\tcnn_channels: the 30976 x cnn_channels x 27x27 CNN activations "),
        ("unet\nunet_base = 16\nunet_depth = 3",
         "data_error\tunet_base: the 30976 x unet_base x 34x34 U-Net first-level "),
    ], ids=["cnn", "unet"])
    def test_oversized_conv_activations_end_as_data_errors_under_a_memory_limit(
            self, tmp_path, model, expected):
        """``eval`` on every interior unit of a 200 x 200 grid with d_s = 25,
        of a net fitted on a 30 x 30 grid: the units x channels maps on the
        padded patches are stated before numpy allocates them."""
        ini = write_ini(tmp_path, TINY_INI.replace("interference = linear",
                                                   f"interference = {model}")
                        .replace("epochs = 12", "epochs = 1"))
        small, large = tmp_path / "small", tmp_path / "large"
        _write_grid_dataset(small, 30, d_s=25)
        _write_grid_dataset(large, 200, d_s=25)
        fit = str(tmp_path / "fit")
        assert cli.main(["train", "--config", ini, "--data", str(small), "--out", fit]) == 0
        _assert_one_error_line_under_a_memory_limit(
            ["eval", "--config", ini, "--ckpt", os.path.join(fit, "model.ckpt"),
             "--data", str(large), "--out", str(tmp_path / "out")], expected)

    @pytest.mark.parametrize("command", ["train", "train_gp", "eval", "effects"])
    @pytest.mark.parametrize("header,expected", [
        ({"origin_x": math.inf}, "contract_error\torigin_x: must be finite, got inf"),
        # both finite, but the unit coordinates overflow to inf
        ({"origin_x": 1e308, "resolution": 1e308},
         "data_error\tunit coordinates must be finite"),
    ], ids=["origin_x_inf", "coordinates_overflow"])
    def test_nonfinite_unit_coordinates(self, workspace, tmp_path, capsys, header,
                                        expected, command):
        """The same header in all three grids of the dataset."""
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        for name in ("treatment_1.grd", "confounder.grd", "outcome.grd"):
            blob = bytearray((data / name).read_bytes())
            for field, value in header.items():
                struct.pack_into("<d", blob, _GRID_HEADER_OFFSETS[field], value)
            (data / name).write_bytes(bytes(blob))
        ini = workspace["ini"]
        if command == "train_gp":
            ini = write_ini(tmp_path, TINY_INI.replace("confounder = linear",
                                                       "confounder = linear\ngp = true"))
        argv = [command.partition("_")[0], "--config", ini, "--data", str(data),
                "--out", str(tmp_path / "out")]
        if command in ("eval", "effects"):
            argv += ["--ckpt", workspace["ckpt"]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == expected + "\n", err


def _corruptions(count=60):
    """(file, truncate?, position as a fraction of the file) drawn from Random(0)."""
    rng = random.Random(0)
    return [(rng.choice(CORRUPTED_FILES), rng.random() < 0.5, rng.random())
            for _ in range(count)]


CORRUPTED_FILES = ("treatment_1.grd", "confounder.grd", "outcome.grd", "run.manifest",
                   "truth.json", "model.ckpt")


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    """A tiny grid gen + train pass whose files the corruption sweep damages."""
    root = tmp_path_factory.mktemp("grid_run")
    ini = write_ini(root, ROUTE_CONFIGS["grid_unet_gp"])
    data_dir, fit_dir = root / "data", root / "fit"
    assert cli.main(["gen", "--config", ini, "--out", str(data_dir)]) == 0
    assert cli.main(["train", "--config", ini, "--data", str(data_dir),
                     "--out", str(fit_dir)]) == 0
    return ini, {name: (fit_dir if name == "model.ckpt" else data_dir) / name
                 for name in CORRUPTED_FILES}


class TestCorruptionSweep:
    """A truncated or bit-flipped input ends ``effects --ckpt`` as exit 0, or as
    exit 2 with one ``code<TAB>message`` line, never as an uncaught exception.

    Kept beside the structure-aware sweeps, which edit only grid and manifest
    headers and values and JSON values: only these random flips and cuts reach
    a flip inside a grid's float payload or the ``SCKP`` parameter stream, a
    flip that leaves ``truth.json`` invalid UTF-8 or broken JSON, and a cut in
    the middle of a payload."""

    @pytest.mark.parametrize("name,truncate,where", _corruptions(),
                             ids=[f"{k}-{name}-{'cut' if cut else 'flip'}"
                                  for k, (name, cut, _) in enumerate(_corruptions())])
    def test_effects_ckpt_survives(self, grid_run, tmp_path, capsys, name, truncate, where):
        ini, paths = grid_run
        for other, path in paths.items():
            (tmp_path / other).write_bytes(path.read_bytes())
        blob = bytearray(paths[name].read_bytes())
        if truncate:
            blob = blob[:int(where * len(blob))]
        else:
            bit = int(where * 8 * len(blob))
            blob[bit // 8] ^= 1 << (bit % 8)
        (tmp_path / name).write_bytes(bytes(blob))
        status = cli.main(["effects", "--config", ini, "--ckpt", str(tmp_path / "model.ckpt"),
                           "--data", str(tmp_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert status in (0, 2)
        if status == 2:
            assert re.fullmatch(r"[a-z_]+_error\t[^\n]*\n", err), err

    @pytest.mark.parametrize("command,code", [("gen", "config_error"),
                                              ("train", "format_error")],
                             ids=["config_bare_line", "manifest_stray_first_line"])
    def test_parse_error_is_one_line(self, grid_run, tmp_path, capsys, command, code):
        # configparser's messages for these span two and three lines
        ini, paths = grid_run
        argv = [command, "--out", str(tmp_path / "out")]
        if command == "gen":
            argv += ["--config", write_ini(tmp_path, Path(ini).read_text() + "foo\n")]
        else:
            data = tmp_path / "data"
            shutil.copytree(paths["run.manifest"].parent, data)
            manifest = data / "run.manifest"
            manifest.write_text("stray\n" + manifest.read_text())
            argv += ["--config", ini, "--data", str(data)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(rf"{code}\t[^\n]*\n", err), err


# each value of a JSON file is replaced by each of these in turn, then dropped
_JSON_VALUES = {"0": 0, "-1": -1, "2**63": 2 ** 63, "NaN": math.nan, '"a"': "a", "[1]": [1],
                "10**10": 10 ** 10, "deep": "<deep>"}
# nested too deeply for the json module to parse
_DEEP_LIST = "[" * 100000 + "]" * 100000


def _json_paths(node, path=()):
    """The path of every value inside ``node``: each dict value and list item,
    recursively."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _json_paths(value, path + (key,))


def _json_mutations(text):
    """(label, text) of JSON document ``text`` with each value replaced by each
    of ``_JSON_VALUES``, then dropped."""
    for path in _json_paths(json.loads(text)):
        for label in [*_JSON_VALUES, "drop"]:
            doc = json.loads(text)
            parent = functools.reduce(operator.getitem, path[:-1], doc)
            if label == "drop":
                del parent[path[-1]]
            else:
                parent[path[-1]] = _JSON_VALUES[label]
            yield ("/".join(map(str, path)) + "=" + label,
                   json.dumps(doc).replace('"<deep>"', _DEEP_LIST))


def _quiet_main(argv):
    """(exit status or the exception raised, stderr) of ``cli.main(argv)``, with
    RuntimeWarnings raised as errors and other warnings kept off stderr."""
    err = io.StringIO()
    with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True)):
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        try:
            status = cli.main(argv)
        except Exception as exc:
            status = repr(exc)[:200]
    return status, err.getvalue()


def _failed_row(argv):
    """None when ``cli.main(argv)`` exits 0, or exits 2 with one
    ``code<TAB>message`` line; else its status and the start of its stderr."""
    status, err = _quiet_main(argv)
    if status == 0 or status == 2 and re.fullmatch(r"[a-z_]+_error\t[^\n]*\n", err):
        return None
    return f"{status} {err[:200]!r}"


def _json_mutation_sweep(root):
    """Runs every mutation of the JSON files of ``json_run`` workspace ``root``
    through the command that reads it, in this process, and prints the row
    count and the rows that neither exit 0 nor exit 2 with one error line."""
    root = Path(root)
    ini, data, ckpt, runs = (str(root / "exp.ini"), str(root / "data"),
                             root / "fit" / "model.ckpt", root / "runs")
    out = ["--out", str(root / "out")]
    commands = {
        ckpt: ["eval", "--config", ini, "--ckpt", str(ckpt), "--data", data] + out,
        root / "data" / "truth.json": ["effects", "--config", ini, "--ckpt", str(ckpt),
                                       "--data", data] + out,
        runs / "report.json": ["report", "--out", str(runs)],
        runs / "metrics.json": ["report", "--out", str(runs)],
    }
    rows, failed = 0, []
    for path, argv in commands.items():
        good = path.read_bytes()
        if path == ckpt:
            (hlen,) = struct.unpack("<I", good[4:8])
            text, encode = good[8:8 + hlen].decode(), lambda t: _ckpt(t.encode()) + good[8 + hlen:]
        else:
            text, encode = good.decode(), str.encode
        for label, mutated in _json_mutations(text):
            path.write_bytes(encode(mutated))
            failure = _failed_row(argv)
            rows += 1
            if failure:
                failed.append(f"{path.name}:{label}: {failure}")
        path.write_bytes(good)
    print(json.dumps({"rows": rows, "failed": failed}))


@pytest.fixture(scope="module")
def json_run(tmp_path_factory):
    """A 60-unit line dataset, an MLP + GP checkpoint trained for one epoch, and
    a run directory with report.json and metrics.json."""
    root = tmp_path_factory.mktemp("json_run")
    ini = write_ini(root, TINY_INI.replace("interference = linear\nconfounder = linear\n",
                                           "interference = mlp\nconfounder = mlp\n"
                                           "mlp_width = 8\nmlp_depth = 1\ngp = true\nq = 10\n")
                    .replace("epochs = 12", "epochs = 1"))
    data, fit, runs = str(root / "data"), str(root / "fit"), str(root / "runs")
    for argv in (["gen", "--out", data], ["train", "--data", data, "--out", fit],
                 ["effects", "--out", runs],
                 ["eval", "--ckpt", os.path.join(fit, "model.ckpt"), "--data", data,
                  "--out", runs]):
        assert cli.main(argv + ["--config", ini]) == 0
    return root


class TestJsonMutationSweep:
    """Every value of the checkpoint header, truth.json, report.json and
    metrics.json set to each of ``_JSON_VALUES`` or dropped: its command exits
    0, or exits 2 with one ``code<TAB>message`` line.  All rows run in one
    child that may map only 1.5 GB."""

    def test_every_row_exits_0_or_with_one_error_line(self, json_run):
        proc = _python_under_a_memory_limit(
            ["-c", f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
                   f"import test_cli; test_cli._json_mutation_sweep({str(json_run)!r})"])
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["rows"] > 600
        assert result["failed"] == []


# each u32 size of a grid header, and each float64 field, is set to each of these
_GRID_SIZE_OFFSETS = {"rows": 4, "cols": 8, "channels": 12}
_GRID_SIZES = (0, 1, 2 ** 31, 2 ** 32 - 1)
_GRID_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e308, 5e-324)
# each run.manifest value is set to each of these, then its line is dropped
_MANIFEST_VALUES = ("0", "-1", "2.5", "nan", "inf", "1e400", "", "a", "../x.grd", "3,3,3",
                    "0.5,0.5", "99999999999999999999", "1,1,1,")


def _grid_mutations(blob):
    """(label, bytes) of grid file ``blob`` with each header size and each
    float field set to each of its values."""
    for fields, fmt, values in ((_GRID_SIZE_OFFSETS, "<I", _GRID_SIZES),
                                (_GRID_HEADER_OFFSETS, "<d", _GRID_FLOATS)):
        for name, offset in fields.items():
            for value in values:
                packed = struct.pack(fmt, value)
                yield f"{name}={value}", blob[:offset] + packed + blob[offset + len(packed):]


def _manifest_mutations(blob):
    """(label, bytes) of manifest ``blob`` with each key's value set to each of
    ``_MANIFEST_VALUES``, then its line dropped."""
    lines = blob.decode().splitlines(keepends=True)
    for k, line in enumerate(lines):
        key, sep, _ = line.partition(" = ")
        if sep:
            for value in [*_MANIFEST_VALUES, None]:
                edit = [] if value is None else [f"{key} = {value}\n"]
                yield f"{key}={value}", "".join(lines[:k] + edit + lines[k + 1:]).encode()


def _grid_manifest_sweep(*roots):
    """Runs every mutation of the grids and manifest of each workspace in
    ``roots``, laid out as ``json_run``'s, through ``train``, ``eval`` and
    ``effects --ckpt``, in this process, and prints the row count and the rows
    that neither exit 0 nor exit 2 with one error line."""
    rows, failed = 0, []
    for root in map(Path, roots):
        common = ["--config", str(root / "exp.ini"), "--data", str(root / "data"),
                  "--out", str(root / "out")]
        ckpt = ["--ckpt", str(root / "fit" / "model.ckpt")]
        commands = (["train"] + common, ["eval"] + ckpt + common, ["effects"] + ckpt + common)
        for name in ("treatment_1.grd", "confounder.grd", "outcome.grd", "run.manifest"):
            path = root / "data" / name
            good = path.read_bytes()
            mutations = _manifest_mutations if name == "run.manifest" else _grid_mutations
            for label, mutated in mutations(good):
                path.write_bytes(mutated)
                for argv in commands:
                    failure = _failed_row(argv)
                    rows += 1
                    if failure:
                        failed.append(f"{root.name}/{name}:{label}:{argv[0]}: {failure}")
            path.write_bytes(good)
    print(json.dumps({"rows": rows, "failed": failed}))


@pytest.fixture(scope="module")
def grid_gen_run(tmp_path_factory):
    """``json_run``'s layout for the grid generator: a 24 x 24 grid (d_s = 3,
    30 units) and a CNN + trained-lengthscale GP checkpoint trained for one
    epoch."""
    root = tmp_path_factory.mktemp("grid_gen_run")
    text = ROUTE_CONFIGS["grid_unet_gp"]
    for old, new in (("d_s = 5", "d_s = 3"), ("n_units = 60", "n_units = 30"),
                     ("unet\nunet_base = 2\nunet_depth = 1", "cnn\ncnn_channels = 2\n"
                                                              "cnn_depth = 1"),
                     ("epochs = 3", "epochs = 1")):
        assert old in text
        text = text.replace(old, new)
    ini = write_ini(root, text)
    data, fit = str(root / "data"), str(root / "fit")
    assert cli.main(["gen", "--config", ini, "--out", data]) == 0
    assert cli.main(["train", "--config", ini, "--data", data, "--out", fit]) == 0
    return root


class TestGridManifestMutationSweep:
    """Each u32 size and float64 field of the three grids' headers set to each
    of ``_GRID_SIZES`` or ``_GRID_FLOATS``, and each manifest value set to each
    of ``_MANIFEST_VALUES`` or dropped, in ``json_run`` (line generator, MLP +
    GP) and ``grid_gen_run``: ``train``, ``eval`` and ``effects --ckpt`` each
    exit 0, or exit 2 with one ``code<TAB>message`` line.  All rows run in one
    child that may map only 1.5 GB."""

    def test_every_row_exits_0_or_with_one_error_line(self, json_run, grid_gen_run):
        roots = [str(json_run), str(grid_gen_run)]
        proc = _python_under_a_memory_limit(
            ["-c", f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
                   f"import test_cli; test_cli._grid_manifest_sweep(*{roots!r})"])
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["rows"] == 2 * 3 * (3 * (3 * 4 + 3 * 7) + 6 * 14)
        assert result["failed"] == []


# each INI value is set to each of these in turn, written as INI text: the JSON
# sweep's scalars, then inf, an empty value and a list
_INI_VALUES = ("0", "-1", str(2 ** 63), "nan", "a", str(10 ** 10), "inf", "", "1,2")
# rows whose values are valid and only make training long: they run gen alone
_INI_GEN_ONLY = {f"train.epochs={2 ** 63}", f"train.epochs={10 ** 10}"}
# each perfbench config shrunk to a few units, narrow nets and one or two epochs
_INI_SHRINK = {
    "line_mlp_gp": {"n": "20", "mlp_width": "4", "q": "10", "epochs": "2"},
    "raster_cli": {"rows": "24", "cols": "24", "d_s": "5", "n_units": "20", "unet_base": "2",
                   "mlp_width": "4", "q": "10", "epochs": "1"},
}


def _ini_mutations(text):
    """(label, text) of INI ``text`` with each key of ``cli._SCHEMA`` set to each
    of ``_INI_VALUES``, appended to its section when ``text`` lacks it, then, for
    each key ``text`` sets, its line dropped."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text)
    for section, schema in cli._SCHEMA.items():
        for key in schema:
            line = re.search(rf"(?m)^{key} = .*\n", text) if cp.has_option(section, key) else None
            for value in [*_INI_VALUES, None]:
                if line is None and value is None:
                    continue
                edit = "" if value is None else f"{key} = {value}\n"
                if line is not None:
                    mutated = text[:line.start()] + edit + text[line.end():]
                elif cp.has_section(section):
                    head = re.search(rf"(?m)^\[{section}\]\n", text)
                    mutated = text[:head.end()] + edit + text[head.end():]
                else:
                    mutated = text + f"\n[{section}]\n{edit}"
                yield f"{section}.{key}={'drop' if value is None else value}", mutated


def _ini_sweep(root):
    """Runs every mutation of each shrunk config in ``ini_run`` workspace
    ``root`` through ``gen``, and through ``train`` on the config's dataset, in
    this process, and prints the row count and the rows that neither exit 0
    nor exit 2 with one error line."""
    rows, failed = 0, []
    for name in _INI_SHRINK:
        work = Path(root) / name
        ini = work / "row.ini"
        for label, text in _ini_mutations((work / "exp.ini").read_text()):
            ini.write_text(text)
            commands = [["gen", "--out", str(work / "gen")]]
            if label not in _INI_GEN_ONLY:
                commands.append(["train", "--data", str(work / "data"),
                                 "--out", str(work / "fit")])
            for argv in commands:
                failure = _failed_row(argv + ["--config", str(ini)])
                rows += 1
                if failure:
                    failed.append(f"{name}:{label}:{argv[0]}: {failure}")
    print(json.dumps({"rows": rows, "failed": failed}))


@pytest.fixture(scope="module")
def ini_run(tmp_path_factory):
    """Each perfbench config shrunk by ``_INI_SHRINK``, with the dataset that
    ``gen`` writes from it."""
    root = tmp_path_factory.mktemp("ini_run")
    for name, shrink in _INI_SHRINK.items():
        text = (Path(__file__).parents[1] / "perfbench" / "configs" / f"{name}.ini").read_text()
        for key, value in shrink.items():
            text, cut = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
            assert cut == 1, key
        (root / name).mkdir()
        ini = write_ini(root / name, text)
        assert cli.main(["gen", "--config", ini, "--out", str(root / name / "data")]) == 0
    return root


class TestIniMutationSweep:
    """Each key of ``cli._SCHEMA`` set to each of ``_INI_VALUES``, and each key
    of the config dropped, in each perfbench config shrunk by ``_INI_SHRINK``:
    ``gen``, and ``train`` unless the row is in ``_INI_GEN_ONLY``, each exit 0,
    or exit 2 with one ``code<TAB>message`` line.  All rows run in one child
    that may map only 1.5 GB."""

    def test_every_row_exits_0_or_with_one_error_line(self, ini_run):
        proc = _python_under_a_memory_limit(
            ["-c", f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
                   f"import test_cli; test_cli._ini_sweep({str(ini_run)!r})"])
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["rows"] > 1400
        assert result["failed"] == []
