"""Release gate for the whole toolkit.

Slower than the unit suites: the two benchmark tests train real models
(a few minutes combined on one CPU).  Every tolerance here is pinned;
loosening one to make a failure pass is never the right fix.
"""

import time
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import spatialcausal.engine as E
import spatialcausal.gp as G
from spatialcausal import cli
from spatialcausal.effects import (
    SpatialDataset,
    balancing_weights,
    default_t_grid,
    dose_draw_indices,
    effect_error,
    estimate_effects_dose,
    estimate_effects_observed,
    fit_gps,
    marginal_density,
)
from spatialcausal.model import ModelConfig, TrainConfig, build_model, predict, train
from spatialcausal.raster import (
    Grid,
    GridGeometry,
    PointSet,
    load_grid,
    ndvi,
    onehot_landcover,
    rasterize_points,
    save_grid,
    split_dataset,
)
from spatialcausal.synthgen import (
    GridConfig,
    LineGraphConfig,
    gen_grid,
    gen_line_graph,
    oracle_effects,
)


class TestGradientCorrectness:
    """Finite differences agree with the tape for every op kind."""

    def test_every_op_kind_within_tolerance(self):
        cases = cli._gradcheck_cases()
        assert set(E.op_kinds()) <= {name for name, _, _ in cases}
        start = time.perf_counter()
        failures = []
        for name, fn, params in cases:
            report = E.finite_diff_check(fn, params, tolerance=1e-4)
            if not report.passed:
                failures.append((name, report.max_rel_err))
        elapsed = time.perf_counter() - start
        assert not failures, f"gradient mismatches: {failures}"
        assert elapsed < 60.0


class TestLowRankExactness:
    """The inducing-point feature map reproduces the Gram matrix it targets."""

    def test_full_rank_recovers_jittered_gram_both_families(self):
        # inducing = data, q = N = 200: Z Z^T must equal K + noise*I
        coords = np.arange(200, dtype=np.float64).reshape(-1, 1)
        for family, ls in (("rbf", 0.3), ("exponential", 1.0)):
            kernel = G.KernelSpec(family, sigma=1.0, lengthscale=ls, noise=1e-9)
            nmap = G.build_nystrom(G.InducingSet(coords.copy()), kernel)
            target = G.gram_matrix(kernel, coords) + kernel.noise * np.eye(200)
            gap = np.max(np.abs(nmap.low_rank_gram(coords) - target))
            assert gap < 1e-8, f"{family}: {gap:.3e}"
            assert nmap.jitter_used == kernel.noise

    def test_partial_rank_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.0, 1.0, size=(40, 2))
        for family in ("rbf", "exponential"):
            kernel = G.KernelSpec(family, sigma=1.2, lengthscale=0.5, noise=1e-8)
            inducing = G.select_inducing(pts, 8, "subsample", seed=0)
            nmap = G.build_nystrom(inducing, kernel)
            kq = G.gram_matrix(kernel, inducing.points) + kernel.noise * np.eye(8)
            knq = G.gram_matrix(kernel, pts, inducing.points)
            oracle = knq @ np.linalg.solve(kq, knq.T)
            gap = np.max(np.abs(nmap.low_rank_gram(pts) - oracle))
            assert gap < 1e-10, f"{family}: {gap:.3e}"


class TestSamplerFidelity:
    """Draws from the prior reproduce the covariance they claim."""

    def test_empirical_covariance_on_ten_points(self):
        # clustered points keep every pairwise covariance large enough that
        # a 10% relative band is meaningful at 5000 draws
        coords = (0.1 * np.arange(10)).reshape(-1, 1)
        start = time.perf_counter()
        for family in ("rbf", "exponential"):
            kernel = G.KernelSpec(family, sigma=1.0, lengthscale=2.0, noise=1e-6)
            draws = G.sample_gp(coords, kernel, seed=0, n_draws=5000)
            assert draws.shape == (5000, 10)
            target = G.gram_matrix(kernel, coords) + kernel.noise * np.eye(10)
            emp = np.cov(draws, rowvar=False)
            rel = np.max(np.abs(emp - target) / np.abs(target))
            assert rel <= 0.10, f"{family}: {rel:.4f}"
        assert time.perf_counter() - start < 60.0


def _line_benchmark_errors(seed: int, kind: str, gp: bool, opt: str) -> dict:
    cfg = LineGraphConfig(seed=seed)
    ds, truth = gen_line_graph(cfg)
    t_grid = default_t_grid(ds, 0, 21)
    draws = dose_draw_indices(ds.n_units, 32, 0)
    oracle = oracle_effects(truth, ds, 0, t_grid=t_grid, draw_indices=draws)
    w = balancing_weights(ds, 0, fit_gps(ds, 0), marginal_density(ds, 0))
    mc = ModelConfig(m=1, patch_shape=(3,), x_dim=4, interference=kind,
                     confounder="mlp" if kind == "mlp" else "linear",
                     mlp_width=256, mlp_depth=3, gp=gp,
                     kernel=G.KernelSpec("rbf", 1.0, 0.5, 0.5), q=100, seed=seed)
    model = build_model(mc, coords=ds.coords)
    train(model, ds, TrainConfig(epochs=250, lr=0.001, optimizer=opt, seed=seed))
    rep = estimate_effects_dose(model, ds, 0, weights=w, t_grid=t_grid,
                                draw_indices=draws)
    return effect_error(rep, oracle)


class TestLineGraphBenchmark:
    """Latent-field models beat the plain linear baseline on confounded data.

    Five seeds at N = 500.  The network with a spatial term must at least
    halve the linear baseline's TE and IE error, and adding the spatial
    term to the linear model alone must cut its TE error by 30%.
    """

    def test_spatial_term_halves_linear_baseline_error(self):
        start = time.perf_counter()
        res = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for label, kind, gp, opt in (("nn_u", "mlp", True, "sgd"),
                                         ("lin", "linear", False, "auto"),
                                         ("lin_u", "linear", True, "auto")):
                errs = [_line_benchmark_errors(s, kind, gp, opt) for s in range(5)]
                res[label] = {k: float(np.mean([e[k] for e in errs]))
                              for k in errs[0]}
        elapsed = time.perf_counter() - start
        te_ratio = res["nn_u"]["te_err"] / res["lin"]["te_err"]
        ie_ratio = res["nn_u"]["ie_err"] / res["lin"]["ie_err"]
        lin_u_cut = 1.0 - res["lin_u"]["te_err"] / res["lin"]["te_err"]
        assert te_ratio <= 0.5, f"TE ratio {te_ratio:.3f}, errors {res}"
        assert ie_ratio <= 0.5, f"IE ratio {ie_ratio:.3f}, errors {res}"
        assert lin_u_cut >= 0.3, f"TE cut {lin_u_cut:.3f}, errors {res}"
        assert elapsed < 900.0


class TestGridWeightingBenchmark:
    """Balancing weights sharpen the interference dose curve at raster scale.

    256x256 grid, 25x25 neighborhoods, three seeds.  The weighted IE error
    must come in strictly below the unweighted one in at least two seeds.
    """

    def test_weighted_interference_error_wins_majority(self):
        start = time.perf_counter()
        wins = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for seed in range(3):
                cfg = GridConfig(rows=256, cols=256, d_s=25, n_units=500,
                                 x_channels=4, seed=seed)
                ds, truth = gen_grid(cfg)
                mc = ModelConfig(m=1, patch_shape=(25, 25), x_dim=4,
                                 interference="cnn", confounder="mlp",
                                 mlp_width=128, mlp_depth=2,
                                 cnn_channels=8, cnn_depth=3, gp=False, seed=seed)
                model = build_model(mc)
                train(model, ds, TrainConfig(epochs=120, lr=0.001,
                                             optimizer="adam", batch_size=100,
                                             seed=seed))
                w = balancing_weights(ds, 0, fit_gps(ds, 0), marginal_density(ds, 0))
                t_grid = default_t_grid(ds, 0, 21)
                draws = dose_draw_indices(ds.n_units, 64, seed)
                oracle = oracle_effects(truth, ds, 0, t_grid=t_grid,
                                        draw_indices=draws)
                unw = estimate_effects_dose(model, ds, 0, weights=None,
                                            t_grid=t_grid, draw_indices=draws)
                wtd = estimate_effects_dose(model, ds, 0, weights=w,
                                            t_grid=t_grid, draw_indices=draws)
                if effect_error(wtd, oracle)["ie_err"] < effect_error(unw, oracle)["ie_err"]:
                    wins += 1
        elapsed = time.perf_counter() - start
        assert wins >= 2, f"weighted IE error won only {wins}/3 seeds"
        assert elapsed < 1800.0


def _noiseless_linear_dataset():
    rng = np.random.default_rng(7)
    n, d_s, x_dim = 80, 3, 2
    alpha, gamma = 1.7, np.array([0.8, -0.5])
    t = rng.uniform(-1.0, 1.0, size=n)
    x = rng.normal(size=(n, x_dim))
    padded = np.zeros(n + 2)
    padded[1:-1] = t
    patches = np.stack([padded[i:i + d_s] for i in range(n)])[:, None, :]
    patches[:, 0, d_s // 2] = 0.0
    neighbor_w = np.array([0.6, 0.0, -0.4])
    y = alpha * t + patches[:, 0] @ neighbor_w + x @ gamma + 0.3
    ds = SpatialDataset(treatments=t[:, None], patches=patches, confounders=x,
                        coords=np.linspace(0.0, 1.0, n).reshape(-1, 1),
                        outcomes=y, d_s=d_s)
    return ds, alpha


class TestLinearRecovery:
    """On clean linear data the linear model is exact."""

    def test_alpha_matches_truth_and_least_squares(self):
        ds, alpha_true = _noiseless_linear_dataset()
        mc = ModelConfig(m=1, patch_shape=(3,), x_dim=2, interference="linear",
                         confounder="linear", gp=False, seed=0)
        model = build_model(mc)
        train(model, ds, TrainConfig(epochs=4000, lr=0.05, optimizer="sgd",
                                     momentum=0.9, seed=0))
        alpha_hat = model.alphas.data.item()
        assert abs(alpha_hat - alpha_true) <= 0.05

        # closed-form fit over the same additive design, own column removed
        design = np.column_stack([ds.treatments[:, 0],
                                  np.delete(ds.patches[:, 0], 1, axis=1),
                                  ds.confounders, np.ones(ds.n_units)])
        beta, *_ = np.linalg.lstsq(design, ds.outcomes, rcond=None)
        assert abs(alpha_hat - beta[0]) <= 1e-3

    def test_dose_direct_curve_is_linear_with_fitted_slope(self):
        ds, _ = _noiseless_linear_dataset()
        mc = ModelConfig(m=1, patch_shape=(3,), x_dim=2, interference="linear",
                         confounder="linear", gp=False, seed=0)
        model = build_model(mc)
        train(model, ds, TrainConfig(epochs=4000, lr=0.05, optimizer="sgd",
                                     momentum=0.9, seed=0))
        alpha_hat = model.alphas.data.item()
        rep = estimate_effects_dose(model, ds, 0,
                                    t_grid=default_t_grid(ds, 0, 21))
        slope = (rep.de_curve[-1] - rep.de_curve[0]) / (rep.t_grid[-1] - rep.t_grid[0])
        assert slope == pytest.approx(alpha_hat, abs=1e-12)
        npt.assert_allclose(rep.de_curve, alpha_hat * rep.t_grid, atol=1e-12)


class _FlatGps:
    """Constant conditional density, matching _FlatMarginal below."""

    def density(self, t, confounders, coords):
        return np.full(np.asarray(t).shape[0], 0.37)


class _FlatMarginal:
    def density(self, t):
        return np.full(np.asarray(t).shape[0], 0.37)


def _small_trained_models():
    ds, _ = gen_line_graph(LineGraphConfig(n=60, x_dim=2))
    out = []
    for kind, gp in (("mlp", True), ("linear", False)):
        mc = ModelConfig(m=1, patch_shape=ds.patch_shape, x_dim=2,
                         interference=kind, confounder=kind,
                         mlp_width=16, mlp_depth=2, gp=gp,
                         kernel=G.KernelSpec("exponential", 1.0, 10.0, 0.1),
                         q=20, seed=0)
        model = build_model(mc, coords=ds.coords)
        train(model, ds, TrainConfig(epochs=30, lr=0.01, optimizer="adam", seed=0))
        out.append(model)
    return ds, out


class TestEstimatorIdentities:
    """Algebraic identities the estimators must satisfy exactly."""

    def test_total_effect_decomposes_in_both_modes(self):
        ds, models = _small_trained_models()
        for model in models:
            for rep in (estimate_effects_observed(model, ds, 0),
                        estimate_effects_dose(model, ds, 0,
                                              draw_indices=dose_draw_indices(ds.n_units, 16, 3))):
                assert abs(rep.te - (rep.de + rep.ie)) <= 1e-9

    def test_flat_density_ratio_reproduces_unweighted(self):
        # GPS identical to the marginal: every weight is exactly one
        ds, models = _small_trained_models()
        w = balancing_weights(ds, 0, _FlatGps(), _FlatMarginal())
        npt.assert_array_equal(w.normalized, np.ones(ds.n_units))
        model = models[0]
        obs_u = estimate_effects_observed(model, ds, 0)
        obs_w = estimate_effects_observed(model, ds, 0, weights=w)
        dose_u = estimate_effects_dose(model, ds, 0,
                                       draw_indices=dose_draw_indices(ds.n_units, 16, 3))
        dose_w = estimate_effects_dose(model, ds, 0, weights=w,
                                       draw_indices=dose_draw_indices(ds.n_units, 16, 3))
        for a, b in ((obs_u, obs_w), (dose_u, dose_w)):
            assert a.de == b.de and a.ie == b.ie and a.te == b.te

    @pytest.mark.filterwarnings("ignore:zero baseline")
    def test_dose_estimates_equal_brute_force_enumeration(self):
        ds, _ = gen_line_graph(LineGraphConfig(n=8, x_dim=2))
        mc = ModelConfig(m=1, patch_shape=ds.patch_shape, x_dim=2,
                         interference="mlp", confounder="linear",
                         mlp_width=8, mlp_depth=2, gp=False, seed=1)
        model = build_model(mc)
        train(model, ds, TrainConfig(epochs=20, lr=0.02, optimizer="adam", seed=1))
        t_grid = default_t_grid(ds, 0, 7)
        draws = np.arange(ds.n_units)
        weights = balancing_weights(ds, 0, fit_gps(ds, 0), marginal_density(ds, 0))
        for w in (None, weights):
            rep = estimate_effects_dose(model, ds, 0, weights=w,
                                        t_grid=t_grid, draw_indices=draws)
            unit_w = np.ones(ds.n_units) if w is None else w.normalized
            de_curve = np.empty_like(t_grid)
            for k, t_val in enumerate(t_grid):
                acc = 0.0
                for b in range(ds.n_units):
                    acc += (predict(model, ds, b, {"t": {0: t_val}}).yhat
                            - predict(model, ds, b, {"t": {0: 0.0}}).yhat)
                de_curve[k] = acc / ds.n_units
            num = den = 0.0
            for b in range(ds.n_units):
                num += unit_w[b] * (predict(model, ds, b).yhat
                                    - predict(model, ds, b, {"patch": {0: 0.0}}).yhat)
                den += unit_w[b]
            ie_bf = num / den
            npt.assert_allclose(rep.de_curve, de_curve, atol=1e-9)
            assert rep.de == pytest.approx(de_curve.mean(), abs=1e-9)
            assert rep.ie == pytest.approx(ie_bf, abs=1e-9)
            assert rep.te == pytest.approx(de_curve.mean() + ie_bf, abs=1e-9)


class TestWeightsHygiene:
    def test_normalized_weights_average_to_one(self):
        ds, _ = gen_line_graph(LineGraphConfig(n=60, x_dim=2))
        w = balancing_weights(ds, 0, fit_gps(ds, 0), marginal_density(ds, 0))
        assert abs(w.normalized.mean() - 1.0) <= 1e-9

    def test_marginal_density_integrates_to_one(self):
        ds, _ = gen_line_graph(LineGraphConfig(n=60, x_dim=2))
        marg = marginal_density(ds, 0)
        t = ds.treatments[:, 0]
        grid = np.linspace(t.min() - 8.0 * marg.bandwidth,
                           t.max() + 8.0 * marg.bandwidth, 4001)
        mass = np.trapezoid(marg.density(grid), grid)
        assert mass == pytest.approx(1.0, abs=0.01)

    def test_positivity_diagnostic_fires_on_zero_overlap(self):
        # one treatment far outside anything the fitted score can explain
        ds, _ = gen_line_graph(LineGraphConfig(n=60, x_dim=2))
        t = ds.treatments.copy()
        t[0, 0] = 30.0
        bad = SpatialDataset(treatments=t, patches=ds.patches,
                             confounders=ds.confounders, coords=ds.coords,
                             outcomes=ds.outcomes, d_s=ds.d_s)
        gps = fit_gps(bad, 0)
        with pytest.warns(UserWarning, match="positivity"):
            w = balancing_weights(bad, 0, gps, marginal_density(bad, 0))
        assert 0 in w.positivity_violations
        assert w.min_gps_density < 1e-12
        assert np.all(np.isfinite(w.raw))


class TestDataPlumbing:
    def test_grid_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(3, 7, 5))
        data[0, 2, 1] = np.nan
        data[1, 0, 0] = -0.0
        grid = Grid(data=data, origin_x=-3.25, origin_y=10.0, resolution=0.125)
        path = str(tmp_path / "roundtrip.grd")
        save_grid(grid, path)
        back = load_grid(path)
        assert back.data.tobytes() == grid.data.tobytes()
        assert (back.origin_x, back.origin_y, back.resolution) == (
            grid.origin_x, grid.origin_y, grid.resolution)

    def test_rasterize_averages_points_per_cell(self):
        points = PointSet(x=np.array([0.2, 0.4, 1.5]),
                          y=np.array([0.5, 0.5, 0.5]),
                          value=np.array([1.0, 3.0, 7.0]))
        grid = rasterize_points(points, GridGeometry(rows=1, cols=3))
        assert grid.data[0, 0, 0] == 2.0
        assert grid.data[0, 0, 1] == 7.0
        assert np.isnan(grid.data[0, 0, 2])

    def test_vegetation_index_exact_values(self):
        nir = Grid(data=np.array([[0.5, 0.3, 0.0]]))
        red = Grid(data=np.array([[0.1, 0.3, 0.0]]))
        out = ndvi(nir, red)
        assert out.data[0, 0, 0] == pytest.approx((0.5 - 0.1) / 0.6, abs=1e-15)
        assert out.data[0, 0, 1] == 0.0
        assert np.isnan(out.data[0, 0, 2])

    def test_landcover_channel_order_is_pinned(self):
        codes = np.array([11, 21, 22, 23, 24, 31, 41, 42, 43, 52, 71, 81, 82, 90, 95])
        class_grid = Grid(data=codes.reshape(1, -1).astype(np.float64))
        out = onehot_landcover(class_grid)
        assert out.data.shape == (15, 1, 15)
        npt.assert_array_equal(out.data[:, 0, :], np.eye(15))

    def test_split_sizes_exact_on_divisible_count(self):
        ds, _ = gen_line_graph(LineGraphConfig(n=10, x_dim=2))
        tr, va, te = split_dataset(ds, ratios=(0.6, 0.2, 0.2), seed=0)
        assert (tr.n_units, va.n_units, te.n_units) == (6, 2, 2)


DETERMINISM_INI = """\
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
mode = dose
grid_size = 5
b_draws = 8

[run]
seeds = 0
"""


class TestPipelineDeterminism:
    def test_two_full_runs_emit_identical_csv_bytes(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(DETERMINISM_INI)
        outputs = []
        for tag in ("first", "second"):
            d = tmp_path / tag
            assert cli.main(["gen", "--config", str(cfg), "--out", str(d)]) == 0
            assert cli.main(["train", "--config", str(cfg),
                             "--data", str(d), "--out", str(d)]) == 0
            assert cli.main(["effects", "--config", str(cfg), "--data", str(d),
                             "--ckpt", str(d / "model.ckpt"),
                             "--out", str(d)]) == 0
            csvs = sorted(p.name for p in d.glob("*.csv"))
            assert csvs, "pipeline produced no CSV output"
            outputs.append({name: (d / name).read_bytes() for name in csvs})
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], f"{name} differs"
