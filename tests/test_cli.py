"""Command-line runner: config schema, subcommands, artifacts, exit codes."""

import csv
import json
import os
import shutil
import struct
import textwrap

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from spatialcausal import cli
from spatialcausal import engine as E
from spatialcausal.cli import (
    ExperimentConfig,
    load_config,
    run_protocol,
    run_single_seed,
)
from spatialcausal.errors import ConfigError
from spatialcausal.model import ModelConfig, build_model, load_model, save_model
from spatialcausal.raster import extract_units, load_manifest
from spatialcausal.synthgen import LineGraphConfig, gen_line_graph

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
        assert config.resolved["data"]["n"] == 500
        assert config.resolved["data"]["d_s"] == 25
        assert config.resolved["model"]["mlp_width"] == 256
        assert config.resolved["train"]["lr"] == 0.001
        assert config.resolved["effects"]["weighted"] == "both"
        assert config.resolved["run"]["seeds"] == (0,)

    def test_full_scale_restores_wide_patches(self, tmp_path):
        config = load_config(write_ini(
            tmp_path, "[data]\ngenerator = grid\nfull_scale = true\n"))
        assert config.resolved["data"]["d_s"] == 51

    def test_explicit_d_s_wins(self, tmp_path):
        config = load_config(write_ini(
            tmp_path, "[data]\nfull_scale = true\nd_s = 11\n"))
        assert config.resolved["data"]["d_s"] == 11

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
        assert config.resolved["run"]["seeds"] == (3, 1, 4)

    def test_bool_spellings(self, tmp_path):
        for raw, want in (("on", True), ("Off", False), ("true", True),
                          ("0", False)):
            config = load_config(write_ini(tmp_path,
                                           f"[model]\ngp = {raw}\n"))
            assert config.resolved["model"]["gp"] is want


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
        assert a.hash() == b.hash()

    def test_writing_out_a_default_changes_nothing(self, tmp_path):
        a = load_config(write_ini(tmp_path, "[data]\nn = 60\n", "a.ini"))
        b = load_config(write_ini(tmp_path, "[data]\nn = 60\nx_dim = 4\n",
                                  "b.ini"))
        assert a.hash() == b.hash()

    def test_meaningful_key_changes_hash(self, tmp_path):
        a = load_config(write_ini(tmp_path, TINY_INI, "a.ini"))
        b = load_config(write_ini(tmp_path,
                                  TINY_INI.replace("lr = 0.05", "lr = 0.01"),
                                  "b.ini"))
        assert a.hash() != b.hash()
        assert len(a.hash()) == 64


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

    def test_incompatible_checkpoint(self, workspace, tmp_path, capsys):
        model = build_model(ModelConfig(m=1, patch_shape=(5,), x_dim=2,
                                        interference="linear",
                                        confounder="linear"))
        ckpt = str(tmp_path / "wide.ckpt")
        save_model(model, ckpt)
        code = cli.main(["effects", "--config", workspace["ini"],
                         "--ckpt", ckpt, "--data", workspace["data"],
                         "--out", str(tmp_path / "junk")])
        assert code == 2
        assert "config_error" in capsys.readouterr().err


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
        assert rep["config_hash"] == load_config(workspace["ini"]).hash()
        assert len(rep["per_seed"]) == 2
        for rec in rep["per_seed"]:
            assert set(rec["errors"]) == {"unweighted", "weighted"}
            assert rec["errors"]["weighted"].keys() == {"de_err", "ie_err",
                                                        "te_err"}
        for stats in rep["summary"].values():
            assert stats.keys() == {"de_err_mean", "de_err_std", "ie_err_mean",
                                    "ie_err_std", "te_err_mean", "te_err_std"}

    def test_single_seed_matches_ckpt_route(self, proto_dir, eff_dir):
        """Protocol seed 0 and the gen/train/effects pipeline agree exactly."""
        with open(os.path.join(eff_dir, "errors_weighted.csv")) as fh:
            pipeline = list(csv.reader(fh))[1][1:4]
        with open(os.path.join(proto_dir, "errors_weighted.csv")) as fh:
            proto = list(csv.reader(fh))[1][1:4]
        assert pipeline == proto

    def test_report_command(self, proto_dir, capsys):
        assert cli.main(["report", "--out", proto_dir]) == 0
        text = open(os.path.join(proto_dir, "report.txt")).read()
        assert "config hash:" in text
        assert "weighted:" in text
        out = capsys.readouterr().out
        assert "seeds: [0, 1]" in out

    def test_seed_flag_overrides_seed_list(self, workspace, tmp_path):
        out = str(tmp_path / "one")
        assert cli.main(["effects", "--config", workspace["ini"],
                         "--out", out, "--seed", "1"]) == 0
        rep = json.load(open(os.path.join(out, "report.json")))
        assert rep["seeds"] == [1]


class TestLibraryEntryPoints:
    def test_run_single_seed_returns_reports(self, workspace):
        config = load_config(workspace["ini"])
        rec = run_single_seed(config, 0)
        assert set(rec["reports"]) == {"unweighted", "weighted"}
        assert rec["errors"]["weighted"] is not None
        assert len(rec["trace"]) == 12

    def test_run_protocol_summary(self, tmp_path):
        ini = write_ini(tmp_path, TINY_INI.replace("seeds = 0,1", "seeds = 0")
                        .replace("epochs = 12", "epochs = 4"))
        result = run_protocol(load_config(ini))
        assert set(result["summary"]) == {"unweighted", "weighted"}
        assert result["summary"]["weighted"]["de_err_std"] == 0.0


class TestGradcheckCmd:
    def test_covers_every_op_kind(self):
        names = {name for name, _, _ in cli._gradcheck_cases()}
        missing = set(E.op_kinds()) - names
        assert not missing
        assert len(names) >= 10

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

    @pytest.mark.parametrize("old,new,command", [
        ("seeds = 0,1", "seeds = -1", ["gen"]),
        ("b_draws = 8", "b_draws = 8\nseed = -1", ["effects"]),
        ("x_dim = 2", "x_dim = 2\nsplit_seed = -1", ["gen"]),
        ("grid_size = 5", "grid_size = -1", ["effects"]),
        ("", "", ["gen", "--seed", "-1"]),
    ], ids=["run_seeds", "effects_seed", "data_split_seed", "effects_grid_size",
            "seed_flag"])
    def test_negative_seed_or_size_is_config_error(self, tmp_path, capsys,
                                                   old, new, command):
        ini = write_ini(tmp_path, TINY_INI.replace(old, new) if old else TINY_INI)
        argv = command[:1] + ["--config", ini, "--out", str(tmp_path / "x")] + command[1:]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.partition("\t")[0] == "config_error", err
        assert "must be >= 0" in err


def _drop_key(key):
    return lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                    if k != key})


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
    ("config_not_utf8", "exp.ini", b"[data]\nn = \xff\n", "config_error"),
    ("config_duplicate_key", "exp.ini", "[data]\nn = 5\nn = 6\n", "config_error"),
    ("config_no_section_header", "exp.ini", "n = 5\n", "config_error"),
    ("manifest_d_s_not_int", "run.manifest",
     lambda t: t.replace("d_s = 3", "d_s = three"), "config_error"),
    ("manifest_split_seed_not_int", "run.manifest",
     lambda t: t.replace("split.seed = 0", "split.seed = zero"), "config_error"),
    ("manifest_treatment_index_not_int", "run.manifest",
     lambda t: t.replace("treatment.1", "treatment.x"), "config_error"),
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
    ("report_truncated_json", "report.json", b'{"config_hash": "x", "seeds": [0]',
     "data_error"),
    ("report_missing_seeds", "report.json", b'{"config_hash": "x"}', "data_error"),
    ("metrics_truncated_json", "metrics.json", b'{"r2_all": 0.5', "data_error"),
]


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
