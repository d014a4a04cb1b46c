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
and ordering never change it, any meaningful key does.  Failures print one
``error_code<TAB>message`` line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import os
import re
import sys
import time
from dataclasses import fields

import numpy as np

from . import engine as E
from . import nets as N
from .effects import (
    balancing_weights,
    csv_float,
    default_t_grid,
    dose_draw_indices,
    effect_error,
    estimate_effects_dose,
    estimate_effects_observed,
    fit_gps,
    marginal_density,
    reweighted,
    write_effects_csv,
)
from .errors import (ConfigError, DataError, OutOfMemoryError, SpatialCausalError, DOMAINS,
                     check, check_sizes, parse_value)
from .gp import KERNEL_FAMILIES, KernelSpec, GpTerm, select_inducing
from .model import (
    CONFOUNDER_KINDS,
    INTERFERENCE_KINDS,
    OPTIMIZERS,
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
    SPLIT_RATIOS,
    Grid,
    Manifest,
    check_split_ratios,
    extract_units,
    load_manifest,
    save_grid,
    save_manifest,
    split_dataset,
    units_from_grids,
)
from .synthgen import (
    GridConfig,
    GroundTruth,
    LineGraphConfig,
    gen_grid,
    gen_line_graph,
    oracle_effects,
    synth_fields,
)

def _keys(cls, prefix: str = "", omit: tuple = (), **choices) -> dict:
    """INI key -> (type, default[, choices]) for each field of dataclass ``cls``
    but ``seed`` and ``omit``: the key is ``prefix`` plus the field's name, its
    type and default are the field's annotation and default, and ``choices``
    gives a field's allowed values by name."""
    return {prefix + f.name: (f.type, f.default, choices[f.name]) if f.name in choices
            else (f.type, f.default)
            for f in fields(cls) if f.name not in ("seed", *omit)}


# section -> key -> (type, default[, choices]).  A key that fills a config
# field takes its type and default from the field; a key given again keeps its
# first position, with the INI default that differs from the library's.
_SCHEMA = {
    "data": {
        "generator": ("str", "line", ("line", "grid", "manifest")),
        "manifest": ("str", ""),
        **_keys(LineGraphConfig),
        **_keys(GridConfig),
        "d_s": ("int", 25),
        "split_ratios": ("floatlist", SPLIT_RATIOS),
    },
    "model": {
        **_keys(ModelConfig, omit=("m", "patch_shape", "x_dim", "kernel", "inducing_strategy"),
                interference=INTERFERENCE_KINDS, confounder=CONFOUNDER_KINDS),
        **_keys(KernelSpec, "kernel_"),
        "kernel_family": ("str", "rbf", KERNEL_FAMILIES),
        "kernel_lengthscale": ("float", 0.5),
        "kernel_noise": ("float", 0.5),
        "inducing": ("str", "grid", ("grid", "subsample")),
    },
    "train": {
        **_keys(TrainConfig, optimizer=OPTIMIZERS),
        "epochs": ("int", 200),
        "use_split": ("bool", False),
    },
    "effects": {
        "mode": ("str", "dose", ("dose", "observed", "both")),
        "grid_size": ("int", 21),
        "b_draws": ("int", 32),
        "weighted": ("str", "both", ("on", "off", "both")),
    },
    "run": {
        "seeds": ("intlist", (0,)),
        "out": ("str", "runs"),
    },
}


def _domain_field(key: str, kind: str) -> str:
    """The ``DOMAINS`` field that each value of INI key ``key`` is checked as:
    the key less its ``kernel_`` prefix, and a list key's singular."""
    return key.removeprefix("kernel_")[:-1 if kind.endswith("list") else None]


def config_hash(config: dict) -> str:
    """SHA-256 of the fully resolved ``{section: {key: value}}`` settings."""
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


def load_config(path: str) -> dict:
    """An INI file's schema-checked settings: a dict of section -> key -> value."""
    cp = configparser.ConfigParser(interpolation=None)
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
                val = parse_value(kind, raw[key], f"{section}.{key}")
                if len(spec) > 2 and val not in spec[2]:
                    raise ConfigError(f"{section}.{key}: {val!r} not one of {spec[2]}")
                values[key] = val
            else:
                values[key] = default
            name = _domain_field(key, kind)
            for item in values[key] if kind.endswith("list") else (values[key],):
                if name in DOMAINS:
                    check(name, item, ConfigError, f"{section}.{key}")
        resolved[section] = values
    data = resolved["data"]
    # like every key, the sizes of the generator the run ignores are checked too
    for generator_config in (LineGraphConfig, GridConfig):
        check_sizes(generator_config.array_sizes(data), ConfigError, "data.")
    check_sizes(ModelConfig.array_sizes(resolved["model"]), ConfigError, "model.")
    eff = resolved["effects"]
    check_sizes((("grid_size", "the grid_size-point treatment grid", eff["grid_size"]),
                 ("b_draws", "the b_draws neighborhood draws", eff["b_draws"])),
                ConfigError, "effects.")
    if data["generator"] == "manifest" and not data["manifest"]:
        raise ConfigError("data.manifest: required when generator = manifest")
    if data["generator"] == "line" and cp.has_option("data", "sigma_l"):
        raise ConfigError("data.sigma_l: the line generator has no sigma_l; remove the key")
    data["split_ratios"] = check_split_ratios(data["split_ratios"], ConfigError,
                                              "data.split_ratios")
    return resolved


def _from_section(cls, section: dict, prefix: str = "", **given):
    """``cls`` from ``given`` plus, for each other field, the entry ``prefix + name``.

    A missing entry raises ``KeyError``, so a sidecar that lacks a key cannot
    fall back to a dataclass default.
    """
    return cls(**given, **{f.name: section[prefix + f.name] for f in fields(cls)
                           if f.name not in given})


def _synthesize(generator: str, data: dict, seed: int):
    """(dataset, truth, grids) from the line or grid generator.

    ``grids`` is the (treatment, confounder, outcome) triple that ``gen`` writes.
    """
    if generator == "line":
        ds, truth = gen_line_graph(_from_section(LineGraphConfig, data, seed=seed))
        n = ds.n_units
        res = 1.0 / (n - 1)
        geom = dict(origin_x=-0.5 * res, origin_y=0.0, resolution=res)
        return ds, truth, (Grid(data=ds.treatments[:, 0].reshape(1, 1, n), **geom),
                           Grid(data=ds.confounders.T.reshape(-1, 1, n), **geom),
                           Grid(data=ds.outcomes.reshape(1, 1, n), **geom))
    if generator == "grid":
        cfg = _from_section(GridConfig, data, seed=seed)
        t_field, x_field = synth_fields(cfg)
        ds, truth = gen_grid(cfg, treatment_field=t_field, confounder_field=x_field)
        y_field = np.full((cfg.rows, cfg.cols), np.nan)
        y_field[ds.coords[:, 1].astype(np.int64),
                ds.coords[:, 0].astype(np.int64)] = ds.outcomes
        return ds, truth, (Grid(data=t_field[None]), Grid(data=np.moveaxis(x_field, -1, 0)),
                           Grid(data=y_field[None]))
    raise DataError(f"no synthetic generator {generator!r}")


def _synthetic_units(generator: str, data: dict, seed: int):
    """(dataset, truth): the units ``extract_units`` reads back from ``gen``'s grids.

    Those units come row by row, so the truth is reindexed to that order.
    """
    ds, gen_truth, (t_grid, x_grid, y_grid) = _synthesize(generator, data, seed)
    order = np.lexsort(ds.coords.T)
    truth = GroundTruth(gen_truth.beta,
                        lambda idx, pat: gen_truth.interference(order[idx], pat),
                        gen_truth.base[order])
    return units_from_grids([t_grid], x_grid, y_grid, ds.d_s), truth


def generate_dataset(config: dict, seed: int):
    """Dataset plus ground truth (None for manifest-backed data)."""
    data = config["data"]
    if data["generator"] == "manifest":
        return extract_units(load_manifest(data["manifest"])), None
    return _synthetic_units(data["generator"], data, seed)


def regenerate_truth(sidecar: dict):
    """Rebuild (dataset, truth) from a truth.json sidecar."""
    return _synthetic_units(sidecar["generator"], sidecar["data"], sidecar["seed"])


def model_config_from(config: dict, dataset: SpatialDataset,
                      seed: int) -> ModelConfig:
    mm = config["model"]
    kernel = _from_section(KernelSpec, mm, "kernel_") if mm["gp"] else None
    return _from_section(ModelConfig, mm, m=dataset.n_treatments,
                         patch_shape=dataset.patch_shape,
                         x_dim=dataset.confounders.shape[1], kernel=kernel,
                         inducing_strategy=mm["inducing"], seed=seed)


def train_config_from(config: dict, seed: int) -> TrainConfig:
    return _from_section(TrainConfig, config["train"], seed=seed)


# [effects] weighted -> the weighting variants it runs, in output order
_VARIANTS = {"off": ("unweighted",), "on": ("weighted",), "both": ("unweighted", "weighted")}
_ERROR_KEYS = ("de_err", "ie_err", "te_err")
_ERROR_HEADER = ["seed", *_ERROR_KEYS, "de_std", "ie_std", "te_std"]


def _estimate(model, dataset, config: dict, labels, truth):
    """The effects stage: (reports, errors), each keyed by the variant ``labels``.

    Per treatment the balancing weights are fit once, for the ``weighted``
    label, and each estimator (and, for treatment 0 in dose mode, the oracle)
    runs once with no weights.  Every variant re-averages that estimate's
    weight-free samples with ``reweighted``, which gives the bits of an
    estimate made under its weights.  The oracle shares the estimator's t-grid
    and neighborhood draws so that their difference reflects model error, not
    resampling noise.
    """
    eff = config["effects"]
    modes = ("dose", "observed") if eff["mode"] == "both" else (eff["mode"],)
    reports = {label: [] for label in labels}
    errors = dict.fromkeys(labels)
    for m in range(dataset.n_treatments):
        weights = {"unweighted": None}
        if "weighted" in labels:
            weights["weighted"] = balancing_weights(dataset, m, fit_gps(dataset, m),
                                                    marginal_density(dataset, m))
        for mode in modes:
            oracle = None
            if mode == "observed":
                base = estimate_effects_observed(model, dataset, m)
            else:
                t_grid = default_t_grid(dataset, m, eff["grid_size"])
                draws = dose_draw_indices(dataset.n_units, eff["b_draws"], 0)
                base = estimate_effects_dose(model, dataset, m, t_grid=t_grid,
                                             draw_indices=draws)
                if truth is not None and m == 0:
                    oracle = oracle_effects(truth, dataset, 0, t_grid=t_grid,
                                            draw_indices=draws)
            for label in labels:
                rep = reweighted(base, dataset, weights[label])
                reports[label].append(rep)
                if oracle is not None:
                    errors[label] = effect_error(rep, oracle)
    return reports, errors


def compute_effect_reports(model, dataset, config: dict,
                           weighted: bool, truth=None):
    """Per-treatment effect reports plus dose errors vs truth for treatment 0.

    Kept only because ``perfbench/workloads.py`` calls it by name.
    """
    label = "weighted" if weighted else "unweighted"
    reports, errors = _estimate(model, dataset, config, (label,), truth)
    return reports[label], errors[label]


def fit_model(config: dict, dataset: SpatialDataset, seed: int):
    """Train stage: optional validation split, build, train -> (model, trace)."""
    train_ds, val_ds = dataset, None
    if config["train"]["use_split"]:
        ratios = config["data"]["split_ratios"]
        train_ds, val_ds, _ = split_dataset(dataset, ratios, 0)
    model = build_model(model_config_from(config, train_ds, seed),
                        coords=train_ds.coords)
    trace = train(model, train_ds, train_config_from(config, seed),
                  val_dataset=val_ds)
    return model, trace


def estimate_variants(model, dataset, config: dict, truth=None):
    """Effects stage: (reports, errors), each keyed by weighting variant."""
    return _estimate(model, dataset, config,
                     _VARIANTS[config["effects"]["weighted"]], truth)


def error_summary(rows) -> dict:
    """Across-seed means and sample standard deviations (0 for one seed) of the
    (de, ie, te) errors in (seed, errors) ``rows``: report.json's ``summary``
    and each errors CSV's mean row."""
    arr = np.array([[errs[k] for k in _ERROR_KEYS] for _, errs in rows])
    stds = arr.std(axis=0, ddof=1) if arr.shape[0] > 1 else np.zeros(3)
    return {f"{k}_{stat}": float(v) for stat, vals in (("mean", arr.mean(axis=0)), ("std", stds))
            for k, v in zip(_ERROR_KEYS, vals)}


def write_trace_csv(trace, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "train_mse", "val_mse"])
        for epoch, train_mse, val_mse in trace:
            w.writerow([epoch, csv_float(train_mse),
                        "" if np.isnan(val_mse) else csv_float(val_mse)])


def write_effect_tables(out_dir: str, reports: dict, prefix: str = "") -> None:
    """One effects_<prefix><variant>.csv per weighting variant."""
    for label, reps in reports.items():
        write_effects_csv(reps, os.path.join(out_dir, f"effects_{prefix}{label}.csv"))


def write_error_tables(out_dir: str, records) -> dict:
    """errors_<variant>.csv from (seed, errors by variant) ``records``: per-seed
    rows, then the ``error_summary`` mean row.  Seeds without truth are left
    out, and so are variants left with no seed.  Returns each written
    variant's ``error_summary``: report.json's ``summary``."""
    summary = {}
    for label in records[0][1]:
        rows = [(seed, errs[label]) for seed, errs in records if errs[label]]
        if not rows:
            continue
        stats = summary[label] = error_summary(rows)
        with open(os.path.join(out_dir, f"errors_{label}.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(_ERROR_HEADER)
            for seed, errs in rows:
                w.writerow([seed] + [csv_float(errs[k]) for k in _ERROR_KEYS] + [""] * 3)
            w.writerow(["mean"] + [csv_float(stats[f"{k}_{stat}"])
                                   for stat in ("mean", "std") for k in _ERROR_KEYS])
    return summary


def _resolve_dataset_path(data_arg: str) -> str:
    if os.path.isdir(data_arg):
        return os.path.join(data_arg, "run.manifest")
    return data_arg


def _load_dataset(data_arg: str) -> SpatialDataset:
    """Units of the dataset named by a manifest path or its directory."""
    return extract_units(load_manifest(_resolve_dataset_path(data_arg)))


def _load_fitted(ckpt: str, data_arg: str):
    """(dataset, model) for a checkpoint whose input shapes match the dataset."""
    dataset = _load_dataset(data_arg)
    model = load_model(ckpt)
    want = (model.m, model.config.patch_shape, model.config.x_dim)
    have = (dataset.n_treatments, dataset.patch_shape, dataset.confounders.shape[1])
    if want != have:
        raise ConfigError(f"checkpoint expects (treatments, patch, confounders) {want}, "
                          f"dataset has {have}")
    return dataset, model


def _load_truth(data_arg: str, dataset: SpatialDataset):
    """(truth, seed) from the truth.json beside the manifest, else (None, None)."""
    sidecar = os.path.join(os.path.dirname(_resolve_dataset_path(data_arg)),
                           "truth.json")
    if not os.path.exists(sidecar):
        return None, None
    try:
        with open(sidecar) as fh:
            record = json.load(fh)
        seed = check("seed", record["seed"], DataError)
        regenerated, truth = regenerate_truth(record)
    except (ValueError, KeyError, TypeError, RecursionError, SpatialCausalError) as exc:
        raise DataError(f"{sidecar}: cannot regenerate truth: {exc!r}") from None
    # the generators' BLAS arithmetic rounds differently at other thread counts
    for field in ("coords", "treatments", "patches", "confounders", "outcomes"):
        want, have = getattr(regenerated, field), getattr(dataset, field)
        if want.shape != have.shape or not np.allclose(want, have, rtol=1e-9, atol=1e-9):
            raise DataError(f"{sidecar}: regenerated {field} differ from the "
                            f"dataset beside it")
    return truth, seed


def cmd_gen(config: dict, out_dir: str) -> int:
    data = config["data"]
    if data["generator"] == "manifest":
        raise ConfigError("data.generator: gen needs a synthetic generator, "
                          "not 'manifest'")
    seed = config["run"]["seeds"][0]
    ds, _, grids = _synthesize(data["generator"], data, seed)
    os.makedirs(out_dir, exist_ok=True)
    for grid, name in zip(grids, ("treatment_1.grd", "confounder.grd", "outcome.grd")):
        save_grid(grid, os.path.join(out_dir, name))
    save_manifest(Manifest(treatments=("treatment_1.grd",),
                           confounder="confounder.grd", outcome="outcome.grd",
                           d_s=ds.d_s, split_ratios=data["split_ratios"]),
                  os.path.join(out_dir, "run.manifest"))
    sidecar = {"generator": data["generator"], "seed": seed,
               "data": {k: (list(v) if isinstance(v, tuple) else v)
                        for k, v in data.items()}}
    with open(os.path.join(out_dir, "truth.json"), "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=1)
    print(f"gen\t{ds.n_units} units -> {out_dir}")
    return 0


def cmd_train(config: dict, data_arg: str, out_dir: str) -> int:
    model, trace = fit_model(config, _load_dataset(data_arg),
                             config["run"]["seeds"][0])
    os.makedirs(out_dir, exist_ok=True)
    save_model(model, os.path.join(out_dir, "model.ckpt"))
    write_trace_csv(trace, os.path.join(out_dir, "loss_trace.csv"))
    print(f"train\tfinal train mse {trace[-1][1]:.6g} over {len(trace)} epochs")
    return 0


def cmd_effects(config: dict, ckpt: str | None, data_arg: str | None,
                out_dir: str) -> int:
    if (ckpt is None) != (data_arg is None):
        raise ConfigError("effects with --ckpt also needs --data" if data_arg is None
                          else "effects with --data also needs --ckpt")
    os.makedirs(out_dir, exist_ok=True)
    if ckpt is not None:
        dataset, model = _load_fitted(ckpt, data_arg)
        truth, seed = _load_truth(data_arg, dataset)
        reports, errors = estimate_variants(model, dataset, config, truth)
        write_effect_tables(out_dir, reports)
        write_error_tables(out_dir, [(seed, errors)])
        print(f"effects\t{len(reports)} variant files -> {out_dir}")
        return 0

    # one seed at a time through the commands' stages; its files are written
    # as it ends, and only its report.json row is kept
    start = time.perf_counter()
    per_seed = []
    for seed in config["run"]["seeds"]:
        dataset, truth = generate_dataset(config, seed)
        model, trace = fit_model(config, dataset, seed)
        reports, errors = estimate_variants(model, dataset, config, truth)
        write_effect_tables(out_dir, reports, prefix=f"s{seed}_")
        write_trace_csv(trace, os.path.join(out_dir, f"loss_trace_s{seed}.csv"))
        per_seed.append({"seed": seed, "final_train_mse": trace[-1][1], "errors": errors})
    report = {"config_hash": config_hash(config), "seeds": list(config["run"]["seeds"]),
              "wall_clock_s": time.perf_counter() - start, "per_seed": per_seed,
              "summary": write_error_tables(out_dir, [(r["seed"], r["errors"])
                                                      for r in per_seed])}
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
    print(f"effects\t{len(per_seed)} seeds -> {out_dir}")
    return 0


def cmd_eval(config: dict, ckpt: str, data_arg: str,
             out_dir: str) -> int:
    dataset, model = _load_fitted(ckpt, data_arg)
    metrics = evaluate(model, dataset)
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

    mlp = N.build_mlp(in_dim=2, width=4, depth=2, seed=1)
    mlp_in = rng.normal(size=(3, 2))
    cases.append(("mlp_composite",
                  lambda: E.tsum(mlp.forward(E.Tensor(mlp_in))), mlp.params))
    lin = N.build_linear_interference((3,))
    lin.params[0].data[:] = rng.normal(size=lin.params[0].data.shape)
    lin_in = rng.normal(size=(2, 3))
    cases.append(("linear_interference",
                  lambda: E.tsum(lin.forward(E.Tensor(lin_in))), lin.params))
    unet = N.build_unet(base_channels=2, depth=2, seed=3)
    # 7x7 of an 8x8 draw, so later cases keep their draws; in this corner no
    # ReLU at the center pixel is dead, so every parameter gets a gradient
    unet_in = rng.normal(size=(1, 1, 8, 8))[:, :, 1:, :7]
    cases.append(("unet_composite",
                  lambda: E.tsum(unet.forward(E.Tensor(unet_in))), unet.params))

    coords = rng.uniform(0.0, 1.0, (6, 2))
    for family in KERNEL_FAMILIES:
        kern = KernelSpec(family=family, sigma=1.0, lengthscale=0.5, noise=1e-6)
        term = GpTerm(select_inducing(coords, 4, "subsample", seed=4), kern)
        term.weights.data[:] = rng.normal(size=term.weights.data.shape)
        cases.append((f"gp_weights_{family}",
                      lambda t=term: E.tsum(t.values_op(coords)),
                      term.parameters()))
    kern = KernelSpec(family="rbf", sigma=1.0, lengthscale=0.5, noise=1e-6)
    term_l = GpTerm(select_inducing(coords, 4, "subsample", seed=5), kern,
                    train_lengthscale=True)
    term_l.weights.data[:] = rng.normal(size=term_l.weights.data.shape)
    cases.append(("gp_lengthscale",
                  lambda: E.tsum(term_l.values_op(coords)),
                  term_l.parameters()))
    # drawn last so that every case above keeps its inputs
    nbi, nbk = param(2, 3, 2, 2), param(3, 3, 2, 2)
    cases.append(("conv2d_no_bias", lambda: E.tsum(E.conv2d(nbi, nbk, padding=1)),
                  [nbi, nbk]))
    dx, dw, db = param(4, 3), param(3, 5), param(5)
    cases.append(("dense", lambda: E.tsum(E.dense(dx, dw, db, relu=True)), [dx, dw, db]))
    lx, lw, lb = E.Tensor(rng.normal(size=(4, 3))), param(3, 2), param(2)
    cases.append(("dense_no_relu", lambda: E.tsum(E.dense(lx, lw, lb)), [lw, lb]))
    return cases


def cmd_gradcheck() -> int:
    failures = 0
    count = 0
    for name, fn, params in _gradcheck_cases():
        report = E.finite_diff_check(fn, params, tolerance=1e-4)
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
                if rows[:1] != [_ERROR_HEADER] or rows[-1][:1] != ["mean"]:
                    raise ValueError(f"{name} lacks its header or its mean row")
                lines.append(f"{name}: {len(rows) - 2} seed rows + summary")
        if os.path.exists(metrics_path):
            with open(metrics_path, encoding="utf-8") as fh:
                metrics = json.load(fh)
            lines.append("metrics: " + "  ".join(f"{k} {v:.4g}"
                                                 for k, v in sorted(metrics.items())))
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError,
            csv.Error) as exc:
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

    def with_config(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="run seed; replaces [run] seeds")
        return p

    with_config("gen", "write a synthetic dataset")
    p = with_config("train", "train a model on a dataset")
    p.add_argument("--data", required=True, help="dataset dir or manifest path")
    p = with_config("effects", "estimate effects (or run the protocol)")
    p.add_argument("--ckpt", default=None, help="trained checkpoint")
    p.add_argument("--data", default=None, help="dataset dir or manifest path")
    p = with_config("eval", "prediction metrics")
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
        if args.seed is not None:
            config["run"]["seeds"] = (check("seed", args.seed, ConfigError, "--seed"),)
        out_dir = args.out if args.out is not None else config["run"]["out"]
        if args.command == "gen":
            return cmd_gen(config, out_dir)
        if args.command == "train":
            return cmd_train(config, args.data, out_dir)
        if args.command == "effects":
            return cmd_effects(config, args.ckpt, args.data, out_dir)
        if args.command == "eval":
            return cmd_eval(config, args.ckpt, args.data, out_dir)
        raise ConfigError(f"unknown command {args.command}")
    except (SpatialCausalError, OSError, MemoryError) as exc:
        if isinstance(exc, MemoryError):
            exc = OutOfMemoryError(f"{args.command} ran out of memory: "
                                   f"{exc or 'an allocation failed'}")
        code = exc.code if isinstance(exc, SpatialCausalError) else "data_error"
        # configparser's messages span lines, and each error must print as one
        sys.stderr.write(code + "\t" + re.sub(r"\s*\n\s*", " ", str(exc)) + "\n")
        return 2

