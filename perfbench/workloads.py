"""The benchmark workloads: one closed-loop pipeline iteration each.

An iteration generates the dataset from the run's seed, builds and trains the
model, then estimates effects and the oracle.  Iterations run back to back,
each starting when the previous one ends, and every iteration of a run uses
the same seed, so repeated outputs must match exactly.

Why these workloads (each exercises a layer the other bypasses):

* ``line_mlp_gp``: dense GEMM (matmul, relu, bias_add) in MLPs dominates, and
  fixed-lengthscale Nystrom features are recomputed from the same coordinates
  on every full-batch step.  No conv2d.
* ``raster_cli``: the CLI route through grid files and the manifest: raster
  I/O, unit extraction, checkpoint save and load, truth regeneration, the
  circulant-FFT field sampler, U-Net convolutions (most of training), a
  validation pass per epoch, and a GP term that refactors its Cholesky on
  every step because the lengthscale is trained, so no feature row repeats.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import shutil
import time

from spatialcausal import cli, model

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")
EFFECTS_HEADER = ["treatment_index", "mode", "effect_type", "t_value",
                  "estimate", "weighted"]
ADDITIVITY_TOL = 1e-9
# Every config sets ``weighted = both``; the CLI writes these two variants.
VARIANTS = (("unweighted", False), ("weighted", True))


class Checks:
    """Correctness checks: each is attempted once and may fail."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def _check_trace(checks: Checks, trace, label: str) -> None:
    train_mse = [row[1] for row in trace]
    if checks.check(all(math.isfinite(v) for v in train_mse),
                    f"{label}: loss trace has a non-finite train MSE"):
        checks.check(train_mse[-1] < train_mse[0],
                     f"{label}: train MSE did not decrease "
                     f"({train_mse[0]:.6g} -> {train_mse[-1]:.6g})")


def _check_effects(checks: Checks, effects, label: str) -> None:
    """``effects``: (de, ie, te) per report; TE must equal DE + IE."""
    for i, (de, ie, te) in enumerate(effects):
        checks.check(abs(te - (de + ie)) <= ADDITIVITY_TOL,
                     f"{label}: report {i} TE {te!r} != DE + IE {de + ie!r}")


def _check_errors(checks: Checks, errors: dict, label: str) -> None:
    checks.check(bool(errors) and all(math.isfinite(v) for v in errors.values()),
                 f"{label}: effect errors missing or non-finite: {errors}")


class ApiWorkload:
    """Library route: gen, build, train and estimate called stage by stage."""

    def __init__(self, name: str, stage_repeats: int):
        self.config = cli.load_config(os.path.join(CONFIG_DIR, f"{name}.ini"))
        self.stage_repeats = stage_repeats

    def _estimate(self, mdl, dataset, truth):
        out = []
        for label, weighted in VARIANTS:
            reports, errors = cli.compute_effect_reports(mdl, dataset, self.config,
                                                         weighted, truth=truth)
            out.append((label, reports, errors))
        return out

    def iterate(self, seed: int, probe, checks: Checks, label: str) -> dict:
        cfg = self.config
        t0 = time.perf_counter()
        dataset, truth = cli.generate_dataset(cfg, seed)
        t1 = time.perf_counter()
        mdl = model.build_model(cli.model_config_from(cfg, dataset, seed),
                                coords=dataset.coords)
        trace = model.train(mdl, dataset, cli.train_config_from(cfg, seed))
        t2 = time.perf_counter()
        estimates = self._estimate(mdl, dataset, truth)
        t3 = time.perf_counter()
        gen_s, estimate_s = [t1 - t0], [t3 - t2]
        for k in range(self.stage_repeats):
            s = time.perf_counter()
            cli.generate_dataset(cfg, seed)
            gen_s.append(time.perf_counter() - s)
            s = time.perf_counter()
            again = self._estimate(mdl, dataset, truth)
            estimate_s.append(time.perf_counter() - s)
            checks.check(_signature(again) == _signature(estimates),
                         f"{label}: estimation rerun {k} gave different effects")

        _check_trace(checks, trace, label)
        for variant, reports, errors in estimates:
            _check_errors(checks, errors, f"{label} {variant}")
        _check_effects(checks, [(r.de, r.ie, r.te) for _, reports, _ in estimates
                                for r in reports], label)
        weighted_errors = dict((v, e) for v, _, e in estimates)["weighted"]
        return {"gen_s": gen_s, "estimate_s": estimate_s,
                "pipeline_s": t3 - t0, "ie_err": weighted_errors["ie_err"],
                "te_err": weighted_errors["te_err"],
                "outputs": _signature(estimates)}


def _signature(estimates) -> str:
    """Exact text of every effect and error value, for equality checks."""
    return repr([(variant, [(r.de, r.ie, r.te) for r in reports], sorted(errors.items()))
                 for variant, reports, errors in estimates])


def _read_csv(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class CliWorkload:
    """Command route: ``gen``, ``train``, ``effects --ckpt`` through files."""

    def __init__(self, work_root: str, stage_repeats: int):
        self.ini = os.path.join(CONFIG_DIR, "raster_cli.ini")
        self.work_root = work_root
        self.stage_repeats = stage_repeats
        self._count = 0

    def _command(self, checks: Checks, label: str, argv: list) -> float:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        seconds = time.perf_counter() - start
        checks.check(rc == 0, f"{label}: `{argv[0]}` exited {rc}")
        return seconds

    def iterate(self, seed: int, probe, checks: Checks, label: str) -> dict:
        work = os.path.join(self.work_root, f"iter{self._count}")
        self._count += 1
        data, fit, est = (os.path.join(work, d) for d in ("data", "fit", "effects"))
        common = ["--config", self.ini, "--seed", str(seed)]
        effects_argv = ["effects", *common, "--ckpt", os.path.join(fit, "model.ckpt"),
                        "--data", data, "--out"]
        n_trains = len(probe.trains)
        gen_s = [self._command(checks, label, ["gen", *common, "--out", data])]
        train_s = self._command(checks, label,
                                ["train", *common, "--data", data, "--out", fit])
        estimate_s = [self._command(checks, label, effects_argv + [est])]
        pipeline_s = gen_s[0] + train_s + estimate_s[0]
        for k in range(self.stage_repeats):
            gen_s.append(self._command(
                checks, label, ["gen", *common, "--out", os.path.join(work, f"data{k}")]))
            again = os.path.join(work, f"effects{k}")
            estimate_s.append(self._command(checks, label, effects_argv + [again]))
            checks.check(_csv_bytes(again) == _csv_bytes(est),
                         f"{label}: effects --ckpt rerun {k} wrote different CSV bytes")

        if checks.check(len(probe.trains) == n_trains + 1,
                        f"{label}: train command did not run one training loop"):
            _check_trace(checks, probe.trains[-1]["trace"], label)
        effects, errors = [], {}
        for variant, _ in VARIANTS:
            eff_path = os.path.join(est, f"effects_{variant}.csv")
            err_path = os.path.join(est, f"errors_{variant}.csv")
            if not checks.check(os.path.exists(eff_path) and os.path.exists(err_path),
                                f"{label}: {variant} effects or errors CSV missing"):
                continue
            rows = _read_csv(eff_path)
            checks.check(rows[0] == EFFECTS_HEADER, f"{label}: {eff_path} header {rows[0]}")
            summary = {}
            for row in rows[1:]:
                if row[3] == "":
                    summary.setdefault((row[0], row[1]), {})[row[2]] = float(row[4])
            effects.extend((s["DE"], s["IE"], s["TE"]) for s in summary.values())
            err_rows = _read_csv(err_path)
            errors[variant] = dict(zip(err_rows[0][1:4], map(float, err_rows[1][1:4])))
            _check_errors(checks, errors[variant], f"{label} {variant}")
        _check_effects(checks, effects, label)
        outputs = {**_csv_bytes(fit), **_csv_bytes(est)}
        shutil.rmtree(work)
        weighted = errors.get("weighted", {})
        return {"gen_s": gen_s, "estimate_s": estimate_s, "pipeline_s": pipeline_s,
                "ie_err": weighted.get("ie_err", math.nan),
                "te_err": weighted.get("te_err", math.nan),
                "outputs": outputs}


def _csv_bytes(directory: str) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".csv"):
            with open(os.path.join(directory, name), "rb") as fh:
                out[name] = fh.read()
    return out


# Iterations per run are fixed by --seconds and these nominal iteration times
# (measured on a 2-CPU x86_64 VM), not by the clock, so that a run does the
# same work however fast the machine is at the moment.  raster_cli compares
# CSV bytes between two iterations, so it always runs at least two.
NOMINAL_ITERATION_S = {"line_mlp_gp": 7.0, "raster_cli": 12.0}
MIN_ITERATIONS = {"line_mlp_gp": 1, "raster_cli": 2}
# Extra runs of the generation and estimation stages per iteration, outside
# pipeline_s, so that gen_s and estimate_s are medians of several samples.
STAGE_REPEATS = {"line_mlp_gp": 20, "raster_cli": 6}


def iterations(name: str, seconds: float) -> int:
    return max(MIN_ITERATIONS[name], round(seconds / NOMINAL_ITERATION_S[name]))


def make_workload(name: str, work_root: str, traced: bool):
    """Traced runs skip the stage repeats: their layer totals cover one pipeline."""
    repeats = 0 if traced else STAGE_REPEATS[name]
    if name == "raster_cli":
        return CliWorkload(work_root, repeats)
    return ApiWorkload(name, repeats)
