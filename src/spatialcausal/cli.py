"""Batch experiment runner: generation, training, effects, evaluation.

Subcommands:
    gen        write a synthetic dataset (grids + manifest + truth sidecar)
    train      fit a model on a dataset, write checkpoint + loss trace
    effects    estimate effects from a checkpoint, or run the full per-seed
               gen/train/effects protocol and emit error tables vs truth
    eval       prediction metrics JSON (R^2 / MAE, percentile strata)
    gradcheck  finite-difference sweep over the op catalog
    report     aggregate run artifacts into a plain-text summary

Configuration is an INI file with sections [data], [model], [train],
[effects], [run].  Every key is schema-checked, unknown keys are rejected,
and the config hash is the SHA-256 of the fully resolved key set: comments
and ordering never change it, any meaningful key does.  Failures print
``error_code<TAB>message`` to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import engine as E
from . import nets as N
from .effects import (
    balancing_weights,
    default_t_grid,
    dose_draw_indices,
    effect_error,
    estimate_effects_dose,
    estimate_effects_observed,
    fit_gps,
    marginal_density,
    write_effects_csv,
)
from .errors import ConfigError, DataError, SpatialCausalError
from .gp import KernelSpec, GpTerm, build_nystrom, select_inducing
from .model import (
    ModelConfig,
    SpatialDataset,
    TrainConfig,
    build_model,
    evaluate,
    load_model,
    save_model,
    train,
)
from .raster import (
    Grid,
    Manifest,
    extract_units,
    load_manifest,
    save_grid,
    save_manifest,
    split_dataset,
)
from .synthgen import (
    GridConfig,
    LineGraphConfig,
    gen_grid,
    gen_line_graph,
    oracle_effects,
    synth_fields,
)

# section -> key -> (type, default[, choices]); None defaults are resolved later
_SCHEMA = {
    "data": {
        "generator": ("str", "line", ("line", "grid", "manifest")),
        "manifest": ("str", ""),
        "n": ("int", 500),
        "x_dim": ("int", 4),
        "noise_sigma": ("float", 0.1),
        "rows": ("int", 256),
        "cols": ("int", 256),
        "d_s": ("int", None),
        "n_units": ("int", 500),
        "x_channels": ("int", 4),
        "sigma_l": ("float", 10.0),
        "field_lengthscale": ("float", 10.0),
        "beta": ("float", -4.0),
        "full_scale": ("bool", False),
        "split_ratios": ("floatlist", (0.6, 0.2, 0.2)),
        "split_seed": ("int", 0),
    },
    "model": {
        "interference": ("str", "linear",
                         ("linear", "mlp", "cnn", "unet", "none")),
        "confounder": ("str", "linear", ("linear", "mlp")),
        "gp": ("bool", False),
        "mlp_width": ("int", 256),
        "mlp_depth": ("int", 3),
        "cnn_channels": ("int", 64),
        "cnn_depth": ("int", 9),
        "unet_base": ("int", 16),
        "unet_depth": ("int", 3),
        "kernel_family": ("str", "rbf", ("rbf", "exponential")),
        "kernel_sigma": ("float", 1.0),
        "kernel_lengthscale": ("float", 0.5),
        "kernel_noise": ("float", 0.5),
        "q": ("int", 100),
        "inducing": ("str", "grid", ("grid", "subsample")),
        "train_lengthscale": ("bool", False),
    },
    "train": {
        "optimizer": ("str", "auto", ("auto", "sgd", "adam")),
        "lr": ("float", 0.001),
        "epochs": ("int", 200),
        "batch_size": ("int", 0),
        "momentum": ("float", 0.99),
        "patience": ("int", 0),
        "use_split": ("bool", False),
    },
    "effects": {
        "mode": ("str", "dose", ("dose", "observed", "both")),
        "grid_size": ("int", 21),
        "b_draws": ("int", 32),
        "weighted": ("str", "both", ("on", "off", "both")),
        "seed": ("int", 0),
    },
    "run": {
        "seeds": ("intlist", (0,)),
        "out": ("str", "runs"),
    },
}

# seeds and sizes that numpy would reject with a traceback when negative
_NONNEGATIVE = (("data", "split_seed"), ("effects", "grid_size"), ("effects", "seed"),
                ("run", "seeds"))

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _parse_value(kind: str, raw: str, path: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            low = raw.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(raw)
        if kind == "intlist":
            return tuple(int(x) for x in raw.split(","))
        if kind == "floatlist":
            return tuple(float(x) for x in raw.split(","))
        return raw
    except ValueError:
        raise ConfigError(f"{path}: cannot parse {raw!r} as {kind}") from None


@dataclass
class ExperimentConfig:
    """Schema-validated, fully resolved experiment settings."""

    resolved: dict

    def hash(self) -> str:
        blob = json.dumps(self.resolved, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


def load_config(path: str) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    try:
        found = cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not found:
        raise ConfigError(f"cannot read config file {path}")
    resolved = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
    for section, schema in _SCHEMA.items():
        raw = dict(cp.items(section)) if cp.has_section(section) else {}
        unknown = set(raw) - set(schema)
        if unknown:
            raise ConfigError(f"{section}.{sorted(unknown)[0]}: unknown key")
        values = {}
        for key, spec in schema.items():
            kind, default = spec[0], spec[1]
            if key in raw:
                val = _parse_value(kind, raw[key], f"{section}.{key}")
                if len(spec) > 2 and val not in spec[2]:
                    raise ConfigError(f"{section}.{key}: {val!r} not one of {spec[2]}")
                values[key] = val
            else:
                values[key] = default
        resolved[section] = values
    data = resolved["data"]
    if data["d_s"] is None:
        data["d_s"] = 51 if data["full_scale"] else 25
    if data["generator"] == "manifest" and not data["manifest"]:
        raise ConfigError("data.manifest: required when generator = manifest")
    resolved["data"]["split_ratios"] = tuple(data["split_ratios"])
    resolved["run"]["seeds"] = tuple(resolved["run"]["seeds"])
    for section, key in _NONNEGATIVE:
        val = resolved[section][key]
        if np.min(val) < 0:
            raise ConfigError(f"{section}.{key}: must be >= 0, got {val}")
    return ExperimentConfig(resolved=resolved)


def _line_config(data: dict, seed: int) -> LineGraphConfig:
    return LineGraphConfig(n=data["n"], x_dim=data["x_dim"],
                           noise_sigma=data["noise_sigma"],
                           seed_x=10 * seed, seed_u=10 * seed + 1,
                           seed_nets=10 * seed + 2, seed_noise=10 * seed + 3)


def _grid_config(data: dict, seed: int) -> GridConfig:
    return GridConfig(rows=data["rows"], cols=data["cols"], beta=data["beta"],
                      d_s=data["d_s"], sigma_l=data["sigma_l"],
                      n_units=data["n_units"], x_channels=data["x_channels"],
                      field_lengthscale=data["field_lengthscale"],
                      seed_fields=10 * seed, seed_units=10 * seed + 1,
                      seed_nets=10 * seed + 2, seed_u=10 * seed + 3)


def generate_dataset(config: ExperimentConfig, seed: int):
    """Dataset plus ground truth (None for manifest-backed data)."""
    data = config.resolved["data"]
    if data["generator"] == "line":
        return gen_line_graph(_line_config(data, seed))
    if data["generator"] == "grid":
        return gen_grid(_grid_config(data, seed))
    ds = extract_units(load_manifest(data["manifest"]))
    return ds, None


def regenerate_truth(sidecar: dict):
    """Rebuild (dataset, truth) from a truth.json sidecar."""
    data = dict(sidecar["data"])
    seed = int(sidecar["seed"])
    data["split_ratios"] = tuple(data.get("split_ratios", (0.6, 0.2, 0.2)))
    if sidecar["generator"] == "line":
        return gen_line_graph(_line_config(data, seed))
    return gen_grid(_grid_config(data, seed))


def model_config_from(config: ExperimentConfig, dataset: SpatialDataset,
                      seed: int) -> ModelConfig:
    mm = config.resolved["model"]
    kernel = None
    if mm["gp"]:
        kernel = KernelSpec(family=mm["kernel_family"], sigma=mm["kernel_sigma"],
                            lengthscale=mm["kernel_lengthscale"],
                            noise=mm["kernel_noise"])
    return ModelConfig(m=dataset.n_treatments, patch_shape=dataset.patch_shape,
                       x_dim=dataset.confounders.shape[1],
                       interference=mm["interference"],
                       confounder=mm["confounder"], mlp_width=mm["mlp_width"],
                       mlp_depth=mm["mlp_depth"],
                       cnn_channels=mm["cnn_channels"],
                       cnn_depth=mm["cnn_depth"], unet_base=mm["unet_base"],
                       unet_depth=mm["unet_depth"], gp=mm["gp"], kernel=kernel,
                       q=mm["q"], inducing_strategy=mm["inducing"],
                       train_lengthscale=mm["train_lengthscale"], seed=seed)


def train_config_from(config: ExperimentConfig, seed: int) -> TrainConfig:
    tt = config.resolved["train"]
    return TrainConfig(epochs=tt["epochs"], lr=tt["lr"],
                       batch_size=tt["batch_size"] or None,
                       optimizer=tt["optimizer"], momentum=tt["momentum"],
                       seed=seed, patience=tt["patience"] or None)


def _variants(config: ExperimentConfig):
    flag = config.resolved["effects"]["weighted"]
    if flag == "on":
        return (("weighted", True),)
    if flag == "off":
        return (("unweighted", False),)
    return (("unweighted", False), ("weighted", True))


def _fit_weights(dataset: SpatialDataset, m: int):
    gps = fit_gps(dataset, m)
    marg = marginal_density(dataset, m)
    return balancing_weights(dataset, m, gps, marg)


def compute_effect_reports(model, dataset, config: ExperimentConfig,
                           weighted: bool, truth=None):
    """Per-treatment effect reports plus dose errors vs truth for treatment 0.

    The oracle shares the estimator's t-grid and neighborhood draws so that
    their difference reflects model error, not resampling noise.
    """
    eff = config.resolved["effects"]
    reports = []
    errors = None
    for m in range(dataset.n_treatments):
        weights = _fit_weights(dataset, m) if weighted else None
        modes = ("dose", "observed") if eff["mode"] == "both" else (eff["mode"],)
        for mode in modes:
            if mode == "observed":
                reports.append(estimate_effects_observed(model, dataset, m,
                                                         weights=weights))
                continue
            t_grid = default_t_grid(dataset, m, eff["grid_size"])
            draws = dose_draw_indices(dataset.n_units, eff["b_draws"],
                                      eff["seed"])
            rep = estimate_effects_dose(model, dataset, m, weights=weights,
                                        t_grid=t_grid, draw_indices=draws)
            reports.append(rep)
            if truth is not None and m == 0:
                oracle = oracle_effects(truth, dataset, 0, t_grid=t_grid,
                                        draw_indices=draws)
                errors = effect_error(rep, oracle)
    return reports, errors


def fit_model(config: ExperimentConfig, dataset: SpatialDataset, seed: int):
    """Train stage: optional validation split, build, train -> (model, trace)."""
    train_ds, val_ds = dataset, None
    if config.resolved["train"]["use_split"]:
        data = config.resolved["data"]
        train_ds, val_ds, _ = split_dataset(dataset, data["split_ratios"],
                                            data["split_seed"])
    model = build_model(model_config_from(config, train_ds, seed),
                        coords=train_ds.coords)
    trace = train(model, train_ds, train_config_from(config, seed),
                  val_dataset=val_ds)
    return model, trace


def estimate_variants(model, dataset, config: ExperimentConfig, truth=None):
    """Effects stage: (reports, errors), each keyed by weighting variant."""
    reports, errors = {}, {}
    for label, weighted in _variants(config):
        reports[label], errors[label] = compute_effect_reports(
            model, dataset, config, weighted, truth=truth)
    return reports, errors


def run_single_seed(config: ExperimentConfig, seed: int) -> dict:
    """One gen -> train -> effects pass; the core of the repeat protocol."""
    dataset, truth = generate_dataset(config, seed)
    model, trace = fit_model(config, dataset, seed)
    reports, errors = estimate_variants(model, dataset, config, truth)
    return {"seed": seed, "dataset": dataset, "truth": truth, "model": model,
            "trace": trace, "reports": reports, "errors": errors}


def run_protocol(config: ExperimentConfig) -> dict:
    """All seeds in [run].seeds, with per-variant mean/std error summaries."""
    start = time.perf_counter()
    per_seed = [run_single_seed(config, s) for s in config.resolved["run"]["seeds"]]
    summary = {}
    for label, _ in _variants(config):
        errs = [r["errors"][label] for r in per_seed if r["errors"][label]]
        if not errs:
            continue
        stats = {}
        for key in ("de_err", "ie_err", "te_err"):
            vals = np.array([e[key] for e in errs])
            stats[key + "_mean"] = float(vals.mean())
            stats[key + "_std"] = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        summary[label] = stats
    return {"config_hash": config.hash(), "per_seed": per_seed,
            "summary": summary,
            "wall_clock_s": time.perf_counter() - start}


def _fmt(v: float) -> str:
    return format(v, ".17g")


def write_trace_csv(trace, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "train_mse", "val_mse"])
        for epoch, train_mse, val_mse in trace:
            w.writerow([epoch, _fmt(train_mse),
                        "" if np.isnan(val_mse) else _fmt(val_mse)])


def write_errors_csv(rows, path: str) -> None:
    """Per-seed rows then one mean row with across-seed standard deviations."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["seed", "de_err", "ie_err", "te_err",
                    "de_std", "ie_std", "te_std"])
        for seed, err in rows:
            w.writerow([seed, _fmt(err["de_err"]), _fmt(err["ie_err"]),
                        _fmt(err["te_err"]), "", "", ""])
        arr = np.array([[e["de_err"], e["ie_err"], e["te_err"]]
                        for _, e in rows])
        means = arr.mean(axis=0)
        stds = arr.std(axis=0, ddof=1) if arr.shape[0] > 1 else np.zeros(3)
        w.writerow(["mean"] + [_fmt(v) for v in means] + [_fmt(v) for v in stds])


def write_effect_tables(out_dir: str, reports: dict, prefix: str = "") -> None:
    """One effects_<prefix><variant>.csv per weighting variant."""
    for label, reps in reports.items():
        write_effects_csv(reps, os.path.join(out_dir, f"effects_{prefix}{label}.csv"))


def write_error_tables(out_dir: str, records) -> None:
    """errors_<variant>.csv over the (seed, errors by variant) records with truth."""
    for label in records[0][1]:
        rows = [(seed, errs[label]) for seed, errs in records if errs[label]]
        if rows:
            write_errors_csv(rows, os.path.join(out_dir, f"errors_{label}.csv"))


def _flatten_metrics(metrics: dict) -> dict:
    out = {}
    for stratum, vals in metrics.items():
        out[f"r2_{stratum}"] = vals["r2"]
        out[f"mae_{stratum}"] = vals["mae"]
    return out


def _resolve_dataset_path(data_arg: str) -> str:
    if os.path.isdir(data_arg):
        return os.path.join(data_arg, "run.manifest")
    return data_arg


def _load_dataset(data_arg: str) -> SpatialDataset:
    """Units of the dataset named by a manifest path or its directory."""
    return extract_units(load_manifest(_resolve_dataset_path(data_arg)))


def _load_truth(data_arg: str):
    """Truth regenerated from the truth.json beside the manifest, else None."""
    sidecar = os.path.join(os.path.dirname(_resolve_dataset_path(data_arg)),
                           "truth.json")
    if not os.path.exists(sidecar):
        return None
    try:
        with open(sidecar) as fh:
            return regenerate_truth(json.load(fh))[1]
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{sidecar}: cannot regenerate truth: {exc!r}") from None


def cmd_gen(config: ExperimentConfig, out_dir: str, seed: int | None) -> int:
    data = config.resolved["data"]
    if data["generator"] == "manifest":
        raise ConfigError("data.generator: gen needs a synthetic generator, "
                          "not 'manifest'")
    if seed is None:
        seed = config.resolved["run"]["seeds"][0]
    os.makedirs(out_dir, exist_ok=True)
    if data["generator"] == "line":
        ds, _ = gen_line_graph(_line_config(data, seed))
        n = ds.n_units
        res = 1.0 / (n - 1)
        geom = dict(origin_x=-0.5 * res, origin_y=0.0, resolution=res)
        t_grid = Grid(data=ds.treatments[:, 0].reshape(1, 1, n), **geom)
        x_grid = Grid(data=ds.confounders.T.reshape(-1, 1, n), **geom)
        y_grid = Grid(data=ds.outcomes.reshape(1, 1, n), **geom)
        d_s = 3
    else:
        cfg = _grid_config(data, seed)
        t_field, x_field = synth_fields(cfg)
        ds, _ = gen_grid(cfg, treatment_field=t_field,
                         confounder_field=x_field)
        y_field = np.full((cfg.rows, cfg.cols), np.nan)
        cols = ds.coords[:, 0].astype(np.int64)
        rows_ = ds.coords[:, 1].astype(np.int64)
        y_field[rows_, cols] = ds.outcomes
        t_grid = Grid(data=t_field[None])
        x_grid = Grid(data=np.moveaxis(x_field, -1, 0))
        y_grid = Grid(data=y_field[None])
        d_s = data["d_s"]
    save_grid(t_grid, os.path.join(out_dir, "treatment_1.grd"))
    save_grid(x_grid, os.path.join(out_dir, "confounder.grd"))
    save_grid(y_grid, os.path.join(out_dir, "outcome.grd"))
    save_manifest(Manifest(treatments=("treatment_1.grd",),
                           confounder="confounder.grd", outcome="outcome.grd",
                           d_s=d_s, split_seed=data["split_seed"],
                           split_ratios=data["split_ratios"]),
                  os.path.join(out_dir, "run.manifest"))
    sidecar = {"generator": data["generator"], "seed": seed,
               "data": {k: (list(v) if isinstance(v, tuple) else v)
                        for k, v in data.items()}}
    with open(os.path.join(out_dir, "truth.json"), "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=1)
    print(f"gen\t{ds.n_units} units -> {out_dir}")
    return 0


def cmd_train(config: ExperimentConfig, data_arg: str, out_dir: str,
              seed: int | None) -> int:
    model, trace = fit_model(config, _load_dataset(data_arg),
                             seed if seed is not None else 0)
    os.makedirs(out_dir, exist_ok=True)
    save_model(model, os.path.join(out_dir, "model.ckpt"))
    write_trace_csv(trace, os.path.join(out_dir, "loss_trace.csv"))
    print(f"train\tfinal train mse {trace[-1][1]:.6g} over {len(trace)} epochs")
    return 0


def cmd_effects(config: ExperimentConfig, ckpt: str | None, data_arg: str | None,
                out_dir: str, seed: int | None) -> int:
    os.makedirs(out_dir, exist_ok=True)
    if ckpt is not None:
        if data_arg is None:
            raise ConfigError("effects with --ckpt also needs --data")
        dataset = _load_dataset(data_arg)
        model = load_model(ckpt)
        if model.m != dataset.n_treatments \
                or model.config.patch_shape != dataset.patch_shape:
            raise ConfigError(f"checkpoint expects {model.m} treatments with "
                              f"{model.config.patch_shape} patches, dataset has "
                              f"{dataset.n_treatments} / {dataset.patch_shape}")
        if seed is not None:
            config.resolved["effects"]["seed"] = seed
        reports, errors = estimate_variants(model, dataset, config,
                                            _load_truth(data_arg))
        write_effect_tables(out_dir, reports)
        write_error_tables(out_dir, [(0, errors)])
        print(f"effects\t{len(_variants(config))} variant files -> {out_dir}")
        return 0

    if seed is not None:
        config.resolved["run"]["seeds"] = (seed,)
    result = run_protocol(config)
    report = {"config_hash": result["config_hash"],
              "seeds": list(config.resolved["run"]["seeds"]),
              "wall_clock_s": result["wall_clock_s"], "per_seed": []}
    for rec in result["per_seed"]:
        write_effect_tables(out_dir, rec["reports"], prefix=f"s{rec['seed']}_")
        write_trace_csv(rec["trace"],
                        os.path.join(out_dir, f"loss_trace_s{rec['seed']}.csv"))
        report["per_seed"].append({
            "seed": rec["seed"],
            "final_train_mse": rec["trace"][-1][1],
            "errors": rec["errors"],
        })
    write_error_tables(out_dir, [(rec["seed"], rec["errors"])
                                 for rec in result["per_seed"]])
    report["summary"] = result["summary"]
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
    print(f"effects\t{len(result['per_seed'])} seeds -> {out_dir}")
    return 0


def cmd_eval(config: ExperimentConfig, ckpt: str, data_arg: str,
             out_dir: str) -> int:
    dataset = _load_dataset(data_arg)
    model = load_model(ckpt)
    metrics = _flatten_metrics(evaluate(model, dataset))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "metrics.json")
    with open(path, "w") as fh:
        json.dump(metrics, fh, sort_keys=True, indent=1)
    print(f"eval\tr2_all {metrics['r2_all']:.6g} mae_all {metrics['mae_all']:.6g}")
    return 0


def _gradcheck_cases():
    """Miniature finite-difference case per op kind plus composites."""
    rng = np.random.default_rng(7)

    def param(*shape):
        return E.Tensor(rng.normal(size=shape) * 0.7, requires_grad=True)

    cases = []

    a, b = param(3, 4), param(4, 2)
    cases.append(("matmul", lambda: E.tsum(E.matmul(a, b)), [a, b]))
    c, d = param(5), param(5)
    cases.append(("add", lambda: E.tsum(E.add(c, d)), [c, d]))
    c2, d2 = param(5), param(5)
    cases.append(("sub", lambda: E.tsum(E.sub(c2, d2)), [c2, d2]))
    e, f = param(6), param(6)
    cases.append(("mul", lambda: E.tsum(E.mul(e, f)), [e, f]))
    g, s = param(7), param()
    cases.append(("scale", lambda: E.tsum(E.scale(g, s)), [g, s]))
    h, hb = param(4, 3), param(3)
    cases.append(("bias_add", lambda: E.tsum(E.bias_add(h, hb)), [h, hb]))
    r = param(9)
    r.data += np.where(np.abs(r.data) < 0.05, 0.2, 0.0)
    cases.append(("relu", lambda: E.tsum(E.relu(r)), [r]))
    el = param(9)
    el.data += np.where(np.abs(el.data) < 0.05, 0.2, 0.0)
    cases.append(("elu", lambda: E.tsum(E.elu(el)), [el]))
    ci, ck, cb = param(2, 2, 4, 4), param(2, 2, 3, 3), param(2)
    cases.append(("conv2d", lambda: E.tsum(E.conv2d(ci, ck, cb, padding=1)),
                  [ci, ck, cb]))
    mp = param(1, 2, 4, 4)
    mp.data = np.linspace(-1.0, 1.0, mp.data.size).reshape(mp.data.shape)
    cases.append(("maxpool2", lambda: E.tsum(E.maxpool2(mp)), [mp]))
    up = param(1, 2, 3, 3)
    cases.append(("upsample2", lambda: E.tsum(E.upsample2(up)), [up]))
    cc1, cc2 = param(1, 2, 3, 3), param(1, 1, 3, 3)
    cases.append(("concat", lambda: E.tsum(E.concat_channels([cc1, cc2])),
                  [cc1, cc2]))
    pd = param(1, 1, 3, 4)
    cases.append(("pad2d", lambda: E.tsum(E.pad2d(pd, 1, 0, 2, 1)), [pd]))
    cr = param(1, 2, 4, 4)
    cases.append(("crop2d", lambda: E.tsum(E.crop2d(cr, 1, 3, 0, 2)), [cr]))
    cp = param(2, 2, 3, 3)
    cases.append(("center_pixel", lambda: E.tsum(E.center_pixel(cp)), [cp]))
    gp4 = param(2, 3, 2, 2)
    cases.append(("gap2d", lambda: E.tsum(E.global_avg_pool(gp4)), [gp4]))
    rs = param(3, 4)
    cases.append(("reshape", lambda: E.tsum(E.reshape(rs, (2, 6))), [rs]))
    sm = param(4, 3)
    cases.append(("sum", lambda: E.tsum(E.mul(sm, sm)), [sm]))
    mn = param(4, 3)
    cases.append(("mean", lambda: E.tmean(E.mul(mn, mn)), [mn]))
    ms, mt = param(6, 1), param(6, 1)
    cases.append(("mse", lambda: E.mse(ms, mt), [ms, mt]))

    mlp = N.build_mlp(N.MlpSpec(in_dim=2, width=4, depth=2, out_dim=1), seed=1)
    mlp_in = rng.normal(size=(3, 2))
    cases.append(("mlp_composite",
                  lambda: E.tsum(mlp.forward(E.Tensor(mlp_in))), mlp.params))
    lin = N.build_linear_interference((3,), seed=2)
    lin.params[0].data[:] = rng.normal(size=lin.params[0].data.shape)
    lin_in = rng.normal(size=(2, 3))
    cases.append(("linear_interference",
                  lambda: E.tsum(lin.forward(E.Tensor(lin_in))), lin.params))
    unet = N.build_unet(N.UnetSpec(in_channels=1, base_channels=2,
                                   input_side=8, depth=2), seed=3)
    unet_in = rng.normal(size=(1, 1, 8, 8))
    cases.append(("unet_composite",
                  lambda: E.tsum(unet.forward(E.Tensor(unet_in))), unet.params))

    coords = rng.uniform(0.0, 1.0, (6, 2))
    for family in ("rbf", "exponential"):
        kern = KernelSpec(family=family, sigma=1.0, lengthscale=0.5, noise=1e-6)
        nmap = build_nystrom(select_inducing(coords, 4, "subsample", seed=4), kern)
        term = GpTerm(nmap)
        term.weights.data[:] = rng.normal(size=term.weights.data.shape)
        cases.append((f"gp_weights_{family}",
                      lambda t=term: E.tsum(t.values_op(coords)),
                      term.parameters()))
    kern = KernelSpec(family="rbf", sigma=1.0, lengthscale=0.5, noise=1e-6)
    nmap = build_nystrom(select_inducing(coords, 4, "subsample", seed=5), kern)
    term_l = GpTerm(nmap, train_lengthscale=True)
    term_l.weights.data[:] = rng.normal(size=term_l.weights.data.shape)
    cases.append(("gp_lengthscale",
                  lambda: E.tsum(term_l.values_op(coords)),
                  term_l.parameters()))
    # drawn last so that every case above keeps its inputs
    h4, hb4 = param(2, 3, 2, 2), param(3)
    cases.append(("bias_add_4d", lambda: E.tsum(E.bias_add(h4, hb4)), [h4, hb4]))
    return cases


def cmd_gradcheck() -> int:
    failures = 0
    count = 0
    for name, fn, params in _gradcheck_cases():
        report = E.finite_diff_check(fn, params, tolerance=1e-4, step=1e-5)
        verdict = "pass" if report.passed else "FAIL"
        print(f"{name}\t{report.max_rel_err:.3e}\t{verdict}")
        count += 1
        failures += 0 if report.passed else 1
    print(f"gradcheck\t{count - failures}/{count} ops pass")
    return 1 if failures else 0


def cmd_report(out_dir: str) -> int:
    lines = []
    report_path = os.path.join(out_dir, "report.json")
    metrics_path = os.path.join(out_dir, "metrics.json")
    try:
        if os.path.exists(report_path):
            with open(report_path, encoding="utf-8") as fh:
                rep = json.load(fh)
            lines.append(f"config hash: {rep['config_hash']}")
            lines.append(f"seeds: {rep['seeds']}")
            lines.append(f"wall clock: {rep['wall_clock_s']:.1f}s")
            for label, stats in sorted(rep.get("summary", {}).items()):
                lines.append(f"{label}: "
                             + "  ".join(f"{k} {v:.4g}"
                                         for k, v in sorted(stats.items())))
        for name in sorted(os.listdir(out_dir)):
            if name.startswith("errors_") and name.endswith(".csv"):
                with open(os.path.join(out_dir, name)) as fh:
                    rows = list(csv.reader(fh))
                lines.append(f"{name}: {len(rows) - 2} seed rows + summary")
        if os.path.exists(metrics_path):
            with open(metrics_path, encoding="utf-8") as fh:
                metrics = json.load(fh)
            lines.append("metrics: " + "  ".join(f"{k} {v:.4g}"
                                                 for k, v in sorted(metrics.items())))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"malformed run artifact in {out_dir}: {exc!r}") from None
    if not lines:
        raise DataError(f"no run artifacts found in {out_dir}")
    text = "\n".join(lines) + "\n"
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatialcausal",
        description="spatial causal experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    p = sub.add_parser("gen", help="write a synthetic dataset")
    common(p)
    p = sub.add_parser("train", help="train a model on a dataset")
    common(p)
    p.add_argument("--data", required=True, help="dataset dir or manifest path")
    p = sub.add_parser("effects", help="estimate effects (or run the protocol)")
    common(p)
    p.add_argument("--ckpt", default=None, help="trained checkpoint")
    p.add_argument("--data", default=None, help="dataset dir or manifest path")
    p = sub.add_parser("eval", help="prediction metrics")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    sub.add_parser("gradcheck", help="finite-difference sweep over ops")
    p = sub.add_parser("report", help="summarize run artifacts")
    p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gradcheck":
            return cmd_gradcheck()
        if args.command == "report":
            return cmd_report(args.out)
        config = load_config(args.config)
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
        out_dir = args.out if args.out is not None else config.resolved["run"]["out"]
        if args.command == "gen":
            return cmd_gen(config, out_dir, args.seed)
        if args.command == "train":
            return cmd_train(config, args.data, out_dir, args.seed)
        if args.command == "effects":
            return cmd_effects(config, args.ckpt, args.data, out_dir, args.seed)
        if args.command == "eval":
            return cmd_eval(config, args.ckpt, args.data, out_dir)
        raise ConfigError(f"unknown command {args.command}")
    except SpatialCausalError as exc:
        sys.stderr.write(f"{exc.code}\t{exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"data_error\t{exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
