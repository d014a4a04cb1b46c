"""Balancing weights and direct/indirect/total effect estimation.

Weights follow the inverse-density recipe for continuous treatments: the
marginal treatment density (Gaussian KDE) divided by a conditional-Gaussian
generalized propensity score fit on observed confounders and coordinates,
self-normalized to mean one so every average is Hajek-style.

Effects come in two modes.  Observed mode contrasts each unit's realized
assignment against the zero baseline (own treatment zeroed for DE, zero
neighborhood for IE, both for TE).  Dose mode sweeps a grid of treatment
values and resamples neighborhoods from the empirical patches; each drawn
neighborhood carries its source unit's weight, so the weighted average
corrects the neighborhood distribution as well as the unit average.  Under
the additive model the per-unit contrasts collapse to component differences;
the estimators compute those directly and the test suite pins them against
brute-force enumeration over units, grid points, and draws.

Only the averages depend on the weights.  An estimator's ``EffectReport``
therefore also carries the weight-free samples it averaged: in observed mode
the per-unit contrasts ``de_samples`` and ``ie_samples``; in dose mode the
per-draw IE contrasts ``ie_samples`` and ``sample_units``, the unit whose
weight each draw carries (the DE curve needs no weights).  ``reweighted``
averages those samples anew under other weights without running the model;
the estimators end in it too, so weighting happens in one place.  Oracle
reports carry no samples.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, DataError, DimensionError, check, check_sizes
from .gp import as_coords
from .model import SpatialDataset, SpatialModel, _check_unit_sizes

_SQRT2PI = math.sqrt(2.0 * math.pi)
# the most elements of the KDE's points x samples array held at once
_KDE_BLOCK = 2 ** 20


@dataclass
class GpsModel:
    """Conditional Gaussian t_m | x, s: linear mean on [x; s; 1], fixed spread."""

    coef: np.ndarray
    sigma_resid: float

    def mean(self, confounders: np.ndarray, coords: np.ndarray) -> np.ndarray:
        design = _gps_design(confounders, coords)
        if design.shape[1] != self.coef.size:
            raise DimensionError(f"design has {design.shape[1]} columns, "
                                 f"fit used {self.coef.size}")
        return design @ self.coef

    def density(self, t_values: np.ndarray, confounders: np.ndarray,
                coords: np.ndarray) -> np.ndarray:
        resid = np.asarray(t_values, dtype=np.float64) - self.mean(confounders, coords)
        s = self.sigma_resid
        return np.exp(-0.5 * (resid / s) ** 2) / (s * _SQRT2PI)


@dataclass
class MarginalDensity:
    """Gaussian kernel density of the observed t_m sample."""

    values: np.ndarray
    bandwidth: float

    def density(self, t) -> np.ndarray:
        """The density at each of ``t``, in blocks of rows of the points x
        samples array; each row's bits do not depend on the block it is in."""
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        rows = max(1, _KDE_BLOCK // self.values.size)
        out = np.empty(len(t))
        for i in range(0, len(t), rows):
            z = (t[i:i + rows, None] - self.values[None, :]) / self.bandwidth
            out[i:i + rows] = np.exp(-0.5 * z * z).mean(axis=1) / (self.bandwidth * _SQRT2PI)
        return out


@dataclass
class BalancingWeights:
    raw: np.ndarray
    normalized: np.ndarray
    min_gps_density: float
    positivity_violations: tuple


def _gps_design(confounders: np.ndarray, coords: np.ndarray) -> np.ndarray:
    x = np.asarray(confounders, dtype=np.float64)
    s = as_coords(coords)
    if x.ndim != 2 or x.shape[0] != s.shape[0]:
        raise DimensionError(f"confounders must be (N, dx) for N = {s.shape[0]} coordinates, "
                             f"got {x.shape} and coordinates {s.shape}")
    return np.column_stack([x, s, np.ones(x.shape[0])])


def fit_gps(dataset: SpatialDataset, m: int) -> GpsModel:
    """Least-squares fit of t_m on [x; s; 1] with a floored residual spread."""
    design = _gps_design(dataset.confounders, dataset.coords)
    n, p = design.shape
    if n < p + 2:
        raise DataError(f"need at least {p + 2} units to fit a {p}-column design, have {n}")
    t = dataset.treatments[:, m]
    coef, _, rank, _ = np.linalg.lstsq(design, t, rcond=None)
    if rank < p:
        warnings.warn(f"rank-deficient propensity design (rank {rank} of {p}); "
                      "refitting with ridge 1e-8")
        gram = design.T @ design + 1e-8 * np.eye(p)
        coef = np.linalg.solve(gram, design.T @ t)
    resid = t - design @ coef
    sigma = max(float(np.std(resid)), 1e-6)
    return GpsModel(coef=coef, sigma_resid=sigma)


def marginal_density(dataset: SpatialDataset, m: int) -> MarginalDensity:
    """KDE of t_m with Silverman bandwidth 1.06 * std * N^(-1/5)."""
    values = dataset.treatments[:, m].copy()
    if np.unique(values).size < 2:
        raise DataError("marginal density needs at least 2 distinct treatment values")
    sigma = float(np.std(values, ddof=1))
    h = 1.06 * sigma * values.size ** (-0.2)
    return MarginalDensity(values, h)


def balancing_weights(dataset: SpatialDataset, m: int, gps: GpsModel,
                      marginal: MarginalDensity) -> BalancingWeights:
    """Per-unit weights marginal/GPS, self-normalized to mean one."""
    t = dataset.treatments[:, m]
    gps_dens = gps.density(t, dataset.confounders, dataset.coords)
    violations = tuple(int(i) for i in np.nonzero(gps_dens < 1e-12)[0])
    if violations:
        warnings.warn(f"positivity violation: GPS density below 1e-12 at "
                      f"unit indices {violations[:10]}"
                      + ("..." if len(violations) > 10 else ""))
    marg_dens = marginal.density(t)
    raw = marg_dens / np.maximum(gps_dens, 1e-300)
    normalized = raw / raw.mean()
    return BalancingWeights(raw=raw, normalized=normalized,
                            min_gps_density=float(gps_dens.min()),
                            positivity_violations=violations)


@dataclass
class EffectReport:
    treatment: int
    mode: str                       # "observed" | "dose"
    de: float = math.nan            # nan until averaged by ``reweighted``
    ie: float = math.nan
    te: float = math.nan
    weighted: bool = False
    t_grid: np.ndarray | None = None
    de_curve: np.ndarray | None = None
    ie_curve: np.ndarray | None = None
    de_samples: np.ndarray | None = None     # observed: per-unit DE contrasts
    ie_samples: np.ndarray | None = None     # per-unit (observed) or per-draw (dose)
    sample_units: np.ndarray | None = None   # dose: unit supplying each draw's weight


def _unit_weights(dataset: SpatialDataset, weights: BalancingWeights | None) -> np.ndarray:
    if weights is None:
        return np.ones(dataset.n_units)
    w = np.asarray(weights.normalized, dtype=np.float64)
    if w.shape != (dataset.n_units,):
        raise DimensionError(f"weights cover {w.shape} units, dataset has {dataset.n_units}")
    return w


def _interference_contrasts(model: SpatialModel, dataset: SpatialDataset, m: int,
                            patches_m: np.ndarray) -> np.ndarray:
    """f_m(patch) - f_m(zero patch) for a batch of patches."""
    zero = np.zeros((1,) + dataset.patch_shape)
    f0 = model.interference_component(m, zero)[0]
    return model.interference_component(m, patches_m) - f0


def estimate_effects_observed(model: SpatialModel, dataset: SpatialDataset, m: int,
                              weights: BalancingWeights | None = None) -> EffectReport:
    """Average contrasts at the realized assignments against the zero baseline.

    All other treatments and their neighborhoods stay at observed values;
    under additivity they cancel from every contrast.
    """
    if not 0 <= m < model.m:
        raise ContractError(f"treatment index {m} outside 0..{model.m - 1}")
    _check_unit_sizes(model.config, dataset.n_units, interference_only=True)
    de_units = model.alphas.data[m, 0] * dataset.treatments[:, m]
    ie_units = _interference_contrasts(model, dataset, m, dataset.patches[:, m])
    return reweighted(EffectReport(treatment=m, mode="observed", de_samples=de_units,
                                   ie_samples=ie_units), dataset, weights)


def default_t_grid(dataset: SpatialDataset, m: int, size: int = 21) -> np.ndarray:
    t = dataset.treatments[:, m]
    return np.linspace(float(t.min()), float(t.max()), size)


def dose_draw_indices(n_units: int, n_draws: int, seed: int) -> np.ndarray:
    """``n_draws`` indices in ``0..n_units-1``, drawn uniformly with
    replacement from ``default_rng(seed)``; they supply the neighborhood
    draws.  ``n_units`` and ``n_draws`` are whole numbers >= 1, ``seed`` one
    >= 0."""
    for name, value in (("n_units", n_units), ("n_draws", n_draws), ("seed", seed)):
        check(name, value, ContractError)
    rng = np.random.default_rng(seed)
    return rng.integers(0, n_units, size=n_draws)


def dose_inputs(dataset: SpatialDataset, m: int, t_grid: np.ndarray | None = None,
                draw_indices: np.ndarray | None = None):
    """(t_grid, draw_indices) of a dose-mode estimate: defaulted when None, checked."""
    if not 0 <= m < dataset.n_treatments:
        raise ContractError(f"treatment index {m} outside 0..{dataset.n_treatments - 1}")
    if t_grid is None:
        t_grid = default_t_grid(dataset, m)
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if t_grid.size == 0:
        raise ContractError("empty treatment grid")
    if draw_indices is None:
        draw_indices = dose_draw_indices(dataset.n_units, 32, 0)
    draw_indices = np.asarray(draw_indices)
    if draw_indices.size < 1:
        raise ContractError("need at least 1 neighborhood draw")
    # the oracle's contrasts hold one value per draw and unit
    check_sizes((("draw_indices", f"the {draw_indices.size} draws x {dataset.n_units} units "
                  "contrasts", draw_indices.size * dataset.n_units),), ContractError)
    if draw_indices.dtype.kind not in "iu":
        draw_indices = draw_indices.astype(np.float64)
        frac = draw_indices[~np.isfinite(draw_indices)
                            | (np.trunc(draw_indices) != draw_indices)]
        if frac.size:
            raise ContractError(f"draw index {float(frac[0])} is not a whole number")
    bad = draw_indices[(draw_indices < 0) | (draw_indices >= dataset.n_units)]
    if bad.size:
        raise ContractError(
            f"draw index {int(bad[0])} outside 0..{dataset.n_units - 1}")
    return t_grid, draw_indices.astype(np.int64, copy=False)


def dose_report(m: int, de_curve: np.ndarray, t_grid: np.ndarray, ie_value: float,
                weighted: bool) -> EffectReport:
    """Dose-mode report: the DE curve, a flat IE(t), and their grid means."""
    ie_curve = np.full(t_grid.size, ie_value)
    return EffectReport(treatment=m, mode="dose", de=float(np.mean(de_curve)),
                        ie=float(np.mean(ie_curve)),
                        te=float(np.mean(de_curve + ie_curve)), weighted=weighted,
                        t_grid=t_grid, de_curve=de_curve, ie_curve=ie_curve)


def reweighted(report: EffectReport, dataset: SpatialDataset,
               weights: BalancingWeights | None = None) -> EffectReport:
    """``report`` averaged anew from its weight-free samples under ``weights``.

    ``None`` means uniform weights.  No model runs, so every weighting
    variant of an estimate shares one set of contrasts.
    """
    if report.ie_samples is None:
        raise ContractError("report carries no samples to reweight")
    w = _unit_weights(dataset, weights)
    flag = weights is not None
    if report.mode == "dose":
        ie_value = float(np.average(report.ie_samples, weights=w[report.sample_units]))
        return replace(dose_report(report.treatment, report.de_curve, report.t_grid,
                                   ie_value, flag),
                       ie_samples=report.ie_samples, sample_units=report.sample_units)
    de_units, ie_units = report.de_samples, report.ie_samples
    return replace(report, de=float(np.average(de_units, weights=w)),
                   ie=float(np.average(ie_units, weights=w)),
                   te=float(np.average(de_units + ie_units, weights=w)), weighted=flag)


def estimate_effects_dose(model: SpatialModel, dataset: SpatialDataset, m: int,
                          weights: BalancingWeights | None = None,
                          t_grid: np.ndarray | None = None,
                          draw_indices: np.ndarray | None = None) -> EffectReport:
    """Dose-response effects over a treatment grid and resampled neighborhoods.

    DE(t) contrasts t against 0 with observed neighborhoods and is averaged
    over the grid.  IE(t) contrasts each drawn neighborhood against the zero
    neighborhood at dose t, averaged over draws (each carrying its source
    unit's weight) and over units.  TE is the double average of the combined
    contrast.  ``draw_indices`` name the units whose neighborhoods are
    drawn; they default to ``dose_draw_indices(n_units, 32, 0)``.
    """
    if not 0 <= m < model.m:
        raise ContractError(f"treatment index {m} outside 0..{model.m - 1}")
    t_grid, draw_indices = dose_inputs(dataset, m, t_grid, draw_indices)
    t_obs = dataset.treatments[:, m]
    lo, hi = float(t_obs.min()), float(t_obs.max())
    if t_grid.min() < lo - 1e-12 or t_grid.max() > hi + 1e-12:
        raise ContractError(f"t_grid [{t_grid.min()}, {t_grid.max()}] outside the "
                            f"observed range [{lo}, {hi}]")
    if not lo <= 0.0 <= hi:
        warnings.warn(f"zero baseline lies outside the observed treatment "
                      f"range [{lo:.4g}, {hi:.4g}]; contrasts extrapolate")
    drawn_contrasts = _interference_contrasts(
        model, dataset, m, dataset.patches[draw_indices, m])
    return reweighted(EffectReport(treatment=m, mode="dose", t_grid=t_grid,
                                   de_curve=model.alphas.data[m, 0] * t_grid,
                                   ie_samples=drawn_contrasts, sample_units=draw_indices),
                     dataset, weights)


def effect_error(report: EffectReport, oracle: EffectReport) -> dict:
    """Mean absolute DE/IE curve gaps and the absolute TE gap of a dose report
    against its dose-mode oracle on the same t-grid.  Any other pair of reports
    raises ``ContractError``: no oracle exists for observed mode."""
    if report.mode != oracle.mode:
        raise ContractError(f"mode mismatch: {report.mode} vs {oracle.mode}")
    if report.mode != "dose":
        raise ContractError(f"effect errors compare dose reports, got {report.mode}")
    if report.t_grid is None or oracle.t_grid is None:
        raise ContractError("a dose report has no t-grid")
    if (report.t_grid.shape != oracle.t_grid.shape
            or not np.allclose(report.t_grid, oracle.t_grid, atol=1e-12)):
        raise ContractError("t-grids differ between report and oracle")
    return {"de_err": float(np.mean(np.abs(report.de_curve - oracle.de_curve))),
            "ie_err": float(np.mean(np.abs(report.ie_curve - oracle.ie_curve))),
            "te_err": abs(report.te - oracle.te)}


def weight_diagnostics(weights: BalancingWeights) -> dict:
    """Effective sample size and positivity summary."""
    w = weights.normalized
    ess = float(w.sum() ** 2 / np.sum(w * w))
    return {
        "n": int(w.size),
        "ess": ess,
        "ess_low": bool(ess < 0.1 * w.size),
        "min_gps_density": weights.min_gps_density,
        "positivity_violations": len(weights.positivity_violations),
    }


def csv_float(v: float) -> str:
    """17 significant digits, so every float64 round-trips; all CSV floats use it."""
    return format(v, ".17g")


def write_effects_csv(reports, path: str) -> None:
    """Long-format CSV: one row per curve point plus grid-averaged summary rows.

    Summary rows carry an empty t_value; their TE equals DE + IE within 1e-9
    by the additive structure.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["treatment_index", "mode", "effect_type", "t_value",
                         "estimate", "weighted"])
        for rep in reports:
            flag = "1" if rep.weighted else "0"
            if rep.t_grid is not None:
                for kind, curve in (("DE", rep.de_curve), ("IE", rep.ie_curve)):
                    for tv, val in zip(rep.t_grid, curve):
                        writer.writerow([rep.treatment, rep.mode, kind,
                                         csv_float(tv), csv_float(val), flag])
            for kind, val in (("DE", rep.de), ("IE", rep.ie), ("TE", rep.te)):
                writer.writerow([rep.treatment, rep.mode, kind, "", csv_float(val), flag])
