import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from spatialcausal import effects, errors
from spatialcausal.effects import (
    BalancingWeights,
    EffectReport,
    GpsModel,
    MarginalDensity,
    balancing_weights,
    default_t_grid,
    dose_draw_indices,
    dose_inputs,
    effect_error,
    estimate_effects_dose,
    estimate_effects_observed,
    fit_gps,
    marginal_density,
    weight_diagnostics,
    write_effects_csv,
)
from spatialcausal.errors import MAX_ELEMENTS, ContractError, DataError, DimensionError
from spatialcausal.model import ModelConfig, SpatialDataset, build_model, predict


def make_dataset(n=12, m=1, seed=0, x_dim=2, t_values=None):
    """Units on a line with length-3 neighbor patches (center zero)."""
    rng = np.random.default_rng(seed)
    coords = np.linspace(0.0, 1.0, n)[:, None]
    if t_values is not None:
        treatments = np.asarray(t_values, dtype=np.float64).reshape(n, m)
    else:
        treatments = rng.normal(0.0, 1.0, (n, m))
    patches = np.zeros((n, m, 3))
    for j in range(m):
        t = treatments[:, j]
        patches[1:, j, 0] = t[:-1]
        patches[:-1, j, 2] = t[1:]
    confounders = rng.normal(0.0, 1.0, (n, x_dim))
    outcomes = rng.normal(0.0, 1.0, n)
    return SpatialDataset(coords=coords, treatments=treatments, patches=patches,
                          confounders=confounders, outcomes=outcomes, d_s=3)


def grid_dataset(n, seed=0):
    """Units with random 5 x 5 center-zero patches of one treatment."""
    rng = np.random.default_rng(seed)
    patches = rng.normal(size=(n, 1, 5, 5))
    patches[:, :, 2, 2] = 0.0
    return SpatialDataset(coords=rng.uniform(size=(n, 2)), treatments=rng.normal(size=(n, 1)),
                          patches=patches, confounders=rng.normal(size=(n, 2)),
                          outcomes=rng.normal(size=n), d_s=5)


def linear_model(alpha=2.0, iw=(0.5, 0.0, -0.25), x_dim=2, seed=0):
    cfg = ModelConfig(m=1, patch_shape=(3,), x_dim=x_dim, interference="linear",
                      confounder="linear", seed=seed)
    model = build_model(cfg)
    model.alphas.data[0, 0] = alpha
    model.interference_nets[0].params[0].data[:, 0] = np.asarray(iw)
    return model


def mlp_model(x_dim=2, seed=3):
    cfg = ModelConfig(m=1, patch_shape=(3,), x_dim=x_dim, interference="mlp",
                      confounder="linear", mlp_width=8, mlp_depth=2, seed=seed)
    model = build_model(cfg)
    model.alphas.data[0, 0] = 1.5
    return model


def manual_weights(values):
    w = np.asarray(values, dtype=np.float64)
    return BalancingWeights(raw=w, normalized=w, min_gps_density=1.0,
                            positivity_violations=())


class TestGps:
    def test_independent_treatment_recovers_null_slopes(self):
        # t drawn independently of x and s: slopes near 0, sigma near 1
        ds = make_dataset(n=400, seed=1)
        gps = fit_gps(ds, 0)
        assert np.all(np.abs(gps.coef[:-1]) < 0.15)
        assert abs(gps.coef[-1]) < 0.15
        assert 0.85 < gps.sigma_resid < 1.15

    def test_linear_mean_recovered(self):
        ds = make_dataset(n=50, seed=2)
        t = 1.0 + 2.0 * ds.confounders[:, 0] - ds.coords[:, 0]
        ds2 = SpatialDataset(coords=ds.coords, treatments=t[:, None],
                             patches=ds.patches, confounders=ds.confounders,
                             outcomes=ds.outcomes, d_s=3)
        gps = fit_gps(ds2, 0)
        assert_allclose(gps.coef, [2.0, 0.0, -1.0, 1.0], atol=1e-8)
        assert gps.sigma_resid == pytest.approx(1e-6)  # noiseless, floored

    def test_density_is_normal_pdf(self):
        gps = GpsModel(coef=np.zeros(4), sigma_resid=2.0)
        x = np.zeros((1, 2))
        s = np.zeros((1, 1))
        at_mean = gps.density(np.array([0.0]), x, s)[0]
        assert at_mean == pytest.approx(1.0 / (2.0 * math.sqrt(2.0 * math.pi)))
        one_sigma = gps.density(np.array([2.0]), x, s)[0]
        assert one_sigma / at_mean == pytest.approx(math.exp(-0.5))

    def test_one_d_coords_are_points(self):
        ds = make_dataset(n=20, seed=4)
        gps = fit_gps(ds, 0)
        t = ds.treatments[:, 0]
        assert_array_equal(gps.density(t, ds.confounders, ds.coords[:, 0]),
                           gps.density(t, ds.confounders, ds.coords))
        with pytest.raises(DimensionError):
            gps.density(t, ds.confounders, ds.coords[:, :, None])

    @pytest.mark.parametrize("shape", [(5,), (4, 1), (5, 1, 1), ()],
                             ids=["one_d", "too_few_rows", "three_d", "scalar"])
    def test_confounders_not_n_by_dx_are_dimension_error(self, shape):
        gps = GpsModel(coef=np.zeros(3), sigma_resid=1.0)
        with pytest.raises(DimensionError) as info:
            gps.density(np.zeros(5), np.zeros(shape), np.zeros((5, 1)))
        assert f"got {shape} and coordinates (5, 1)" in str(info.value)

    def test_rank_deficient_design_warns(self):
        ds = make_dataset(n=30, seed=3)
        x = np.column_stack([ds.confounders[:, 0], ds.confounders[:, 0]])
        ds2 = SpatialDataset(coords=ds.coords, treatments=ds.treatments,
                             patches=ds.patches, confounders=x,
                             outcomes=ds.outcomes, d_s=3)
        with pytest.warns(UserWarning, match="rank-deficient"):
            fit_gps(ds2, 0)

    def test_too_few_units(self):
        ds = make_dataset(n=5, seed=0)  # design has 5 columns
        with pytest.raises(DataError):
            fit_gps(ds, 0)


class TestMarginal:
    def test_silverman_bandwidth(self):
        ds = make_dataset(n=5, t_values=[0.0, 1.0, 2.0, 3.0, 4.0])
        marg = marginal_density(ds, 0)
        assert marg.bandwidth == pytest.approx(1.06 * math.sqrt(2.5) * 5.0 ** (-0.2))

    def test_forced_bandwidth_single_value(self):
        marg = MarginalDensity(np.zeros(1), 0.5)
        assert marg.density(0.0)[0] == pytest.approx(1.0 / (0.5 * math.sqrt(2.0 * math.pi)))

    def test_identical_values_rejected(self):
        ds = make_dataset(n=8, t_values=[1.5] * 8)
        with pytest.raises(DataError):
            marginal_density(ds, 0)

    def test_density_integrates_to_one(self):
        ds = make_dataset(n=50, seed=4)
        marg = marginal_density(ds, 0)
        t = ds.treatments[:, 0]
        lo = t.min() - 8.0 * marg.bandwidth
        hi = t.max() + 8.0 * marg.bandwidth
        grid = np.linspace(lo, hi, 4001)
        integral = np.trapezoid(marg.density(grid), grid)
        assert 0.99 < integral < 1.01

    @pytest.mark.parametrize("n", [7, 500, 3001])
    @pytest.mark.parametrize("rows", [1, 3, 37, 1024])
    def test_row_blocks_keep_the_bits(self, monkeypatch, n, rows):
        """Blocks of ``rows`` evaluation points give the one-shot
        points x samples expression's bits."""
        marg = marginal_density(make_dataset(n=n, seed=n), 0)
        t = np.concatenate([marg.values, np.linspace(-4.0, 4.0, 11)])
        z = (t[:, None] - marg.values[None, :]) / marg.bandwidth
        oneshot = np.exp(-0.5 * z * z).mean(axis=1) / (marg.bandwidth * math.sqrt(2.0 * math.pi))
        monkeypatch.setattr(effects, "_KDE_BLOCK", rows * n)
        assert marg.density(t).tobytes() == oneshot.tobytes()


class _Flat(GpsModel):
    def __init__(self, value):
        super().__init__(coef=np.zeros(4), sigma_resid=1.0)
        self.value = value

    def density(self, t_values, confounders, coords):
        return np.full(np.atleast_1d(t_values).size, self.value)


class _FlatMarginal(MarginalDensity):
    def __init__(self, value):
        super().__init__(values=np.zeros(1), bandwidth=1.0)
        self.value = value

    def density(self, t):
        return np.full(np.atleast_1d(t).size, self.value)


class TestWeights:
    def test_raw_ratio_and_normalization(self):
        ds = make_dataset(n=8)
        bw = balancing_weights(ds, 0, _Flat(0.4), _FlatMarginal(0.2))
        assert_allclose(bw.raw, 0.5)
        assert_allclose(bw.normalized, 1.0)
        assert bw.min_gps_density == pytest.approx(0.4)

    def test_normalized_mean_is_one(self):
        ds = make_dataset(n=60, seed=5)
        bw = balancing_weights(ds, 0, fit_gps(ds, 0), marginal_density(ds, 0))
        assert abs(bw.normalized.mean() - 1.0) <= 1e-9
        assert np.all(bw.raw > 0)

    def test_positivity_violation_warns(self):
        ds = make_dataset(n=8, t_values=[1.0] * 4 + [1.1] * 4)
        gps = GpsModel(coef=np.zeros(4), sigma_resid=1e-6)
        with pytest.warns(UserWarning, match="positivity"):
            bw = balancing_weights(ds, 0, gps, _FlatMarginal(0.2))
        assert len(bw.positivity_violations) == 8
        assert np.all(np.isfinite(bw.raw))

    def test_ess_arithmetic(self):
        bw = manual_weights([1.0, 1.0, 2.0])
        diag = weight_diagnostics(bw)
        assert diag["ess"] == pytest.approx(16.0 / 6.0)
        assert diag["n"] == 3
        assert not diag["ess_low"]

    def test_ess_flag_on_concentration(self):
        w = np.full(100, 1e-9)
        w[0] = 1.0
        bw = manual_weights(w / w.mean())
        diag = weight_diagnostics(bw)
        assert diag["ess"] < 10.0
        assert diag["ess_low"]

    def test_weight_length_mismatch(self):
        ds = make_dataset(n=10)
        bw = manual_weights(np.ones(7))
        model = linear_model()
        with pytest.raises(DimensionError):
            estimate_effects_observed(model, ds, 0, weights=bw)


class TestObservedMode:
    def test_direct_effect_is_alpha_times_mean_treatment(self):
        ds = make_dataset(n=2, t_values=[1.0, 2.0])
        model = linear_model(alpha=2.0, iw=(0.0, 0.0, 0.0))
        rep = estimate_effects_observed(model, ds, 0)
        assert rep.de == pytest.approx(3.0)  # 2 * mean([1, 2])
        assert rep.ie == pytest.approx(0.0)
        assert rep.te == pytest.approx(3.0)
        assert rep.mode == "observed"
        assert not rep.weighted

    def test_weighted_mean_arithmetic(self):
        ds = make_dataset(n=3, t_values=[1.0, 2.0, 3.0])
        model = linear_model(alpha=1.0, iw=(0.0, 0.0, 0.0))
        bw = manual_weights([1.0, 1.0, 2.0])
        rep = estimate_effects_observed(model, ds, 0, weights=bw)
        assert rep.de == pytest.approx((1.0 + 2.0 + 6.0) / 4.0)
        assert rep.weighted

    def test_te_equals_de_plus_ie(self):
        ds = make_dataset(n=20, seed=6)
        model = mlp_model()
        rep = estimate_effects_observed(model, ds, 0)
        assert abs(rep.te - (rep.de + rep.ie)) <= 1e-9
        assert rep.ie != pytest.approx(0.0)

    def test_uniform_weights_match_unweighted_exactly(self):
        # equal marginal and GPS densities normalize to all-ones weights
        ds = make_dataset(n=15, seed=7)
        bw = balancing_weights(ds, 0, _Flat(0.3), _FlatMarginal(0.3))
        assert_array_equal(bw.normalized, np.ones(15))
        model = mlp_model()
        plain = estimate_effects_observed(model, ds, 0)
        weighted = estimate_effects_observed(model, ds, 0, weights=bw)
        assert weighted.de == plain.de
        assert weighted.ie == plain.ie
        assert weighted.te == plain.te

    def test_bad_treatment_index(self):
        ds = make_dataset()
        with pytest.raises(ContractError):
            estimate_effects_observed(linear_model(), ds, 1)

    def test_oversized_mlp_activations_are_a_data_error(self, monkeypatch):
        """The units x mlp_width activations of the interference net, with the
        cap lowered to 20 units' worth; the linear confounder net never runs."""
        model = mlp_model()
        monkeypatch.setattr(errors, "MAX_ELEMENTS", 160)
        assert estimate_effects_observed(model, make_dataset(n=20), 0).ie != 0.0
        with pytest.raises(DataError, match=r"^mlp_width: the 21 x mlp_width MLP activations "
                                            r"would hold 168 elements"):
            estimate_effects_observed(model, make_dataset(n=21), 0)

    @pytest.mark.parametrize("interference,key,what,per_unit", [
        ("cnn", "cnn_channels", "CNN activations", 3 * 7 * 7),
        ("unet", "unet_base", "U-Net first-level activations", 2 * 8 * 8),
    ], ids=["cnn", "unet"])
    def test_oversized_conv_activations_are_a_data_error(self, monkeypatch, interference,
                                                         key, what, per_unit):
        """The units x channels maps of a CNN (5 x 5 patches padded to 7 x 7)
        or a U-Net (padded to 6 x 6, then by its convolution's border), with
        the cap lowered to 20 units' worth."""
        model = build_model(ModelConfig(m=1, patch_shape=(5, 5), x_dim=2,
                                        interference=interference, cnn_channels=3,
                                        cnn_depth=1, unet_base=2, unet_depth=1, seed=2))
        monkeypatch.setattr(errors, "MAX_ELEMENTS", 20 * per_unit)
        assert np.isfinite(estimate_effects_observed(model, grid_dataset(20), 0).ie)
        with pytest.raises(DataError, match=rf"^{key}: the 21 x {key} x \d+x\d+ {what} "
                                            rf"would hold {21 * per_unit} elements"):
            estimate_effects_observed(model, grid_dataset(21), 0)


class TestDoseMode:
    def test_draws_times_units_over_the_cap_rejected(self):
        """The oracle holds one contrast per draw and unit; the inputs are
        checked before any estimator allocates for them."""
        ds = make_dataset(n=1000, seed=8)
        draws = np.zeros(MAX_ELEMENTS // 1000, dtype=np.int64)
        assert dose_inputs(ds, 0, draw_indices=draws)[1].size == draws.size
        with pytest.raises(ContractError, match=r"^draw_indices: the 268436 draws x 1000 "
                                                r"units contrasts would hold 268436000 "):
            dose_inputs(ds, 0, draw_indices=np.zeros(draws.size + 1, dtype=np.int64))

    def test_default_grid_spans_observed_range(self):
        ds = make_dataset(n=30, seed=8)
        grid = default_t_grid(ds, 0)
        assert grid.size == 21
        assert grid[0] == ds.treatments[:, 0].min()
        assert grid[-1] == ds.treatments[:, 0].max()

    def test_linear_direct_curve_exact(self):
        ds = make_dataset(n=10, seed=9)
        model = linear_model(alpha=2.0)
        rep = estimate_effects_dose(model, ds, 0)
        assert_array_equal(rep.de_curve, 2.0 * rep.t_grid)
        assert rep.de == pytest.approx(np.mean(2.0 * rep.t_grid))
        assert_array_equal(rep.sample_units, dose_draw_indices(10, 32, 0))

    def test_indirect_curve_constant_under_additivity(self):
        ds = make_dataset(n=10, seed=10)
        rep = estimate_effects_dose(mlp_model(), ds, 0,
                                    draw_indices=dose_draw_indices(10, 32, 1))
        assert np.all(rep.ie_curve == rep.ie_curve[0])

    def test_collapse_to_observed_mode(self):
        # draws equal to the observed patches reproduce the observed-mode IE
        ds = make_dataset(n=12, seed=11)
        model = mlp_model()
        rep = estimate_effects_dose(model, ds, 0,
                                    draw_indices=np.arange(ds.n_units))
        obs = estimate_effects_observed(model, ds, 0)
        assert rep.ie_curve[0] == pytest.approx(obs.ie, abs=1e-12)

    def test_te_identity(self):
        ds = make_dataset(n=16, seed=12)
        rep = estimate_effects_dose(mlp_model(), ds, 0,
                                    draw_indices=dose_draw_indices(16, 32, 5))
        assert abs(rep.te - (rep.de + rep.ie)) <= 1e-9

    def test_grid_outside_observed_range(self):
        ds = make_dataset(n=10, seed=13)
        hi = ds.treatments[:, 0].max()
        with pytest.raises(ContractError):
            estimate_effects_dose(linear_model(), ds, 0,
                                  t_grid=np.array([0.0, hi + 1.0]))

    def test_empty_grid(self):
        ds = make_dataset(n=10, seed=13)
        with pytest.raises(ContractError):
            estimate_effects_dose(linear_model(), ds, 0, t_grid=np.array([]))

    @pytest.mark.parametrize("bad", [-1, 10**6])
    def test_draw_index_out_of_range(self, bad):
        ds = make_dataset(n=30, seed=14)
        with pytest.raises(ContractError, match=rf"draw index {bad} outside 0\.\.29"):
            estimate_effects_dose(linear_model(), ds, 0, draw_indices=[3, bad])

    @pytest.mark.parametrize("bad", [2.7, -0.5, np.nan, np.inf])
    def test_draw_index_not_whole_rejected(self, bad):
        ds = make_dataset(n=30, seed=14)
        with pytest.raises(ContractError, match=rf"draw index {bad} is not a whole number"):
            estimate_effects_dose(linear_model(), ds, 0, draw_indices=[3, bad])

    def test_whole_valued_draw_indices_of_any_dtype(self):
        ds = make_dataset(n=30, seed=14)
        want = estimate_effects_dose(linear_model(), ds, 0, draw_indices=[3, 7, 29])
        for idx in (np.array([3.0, 7.0, 29.0]), np.array([3, 7, 29], dtype=np.uint8),
                    np.array([3, 7, 29], dtype=np.int32)):
            got = estimate_effects_dose(linear_model(), ds, 0, draw_indices=idx)
            assert (got.de, got.ie, got.te) == (want.de, want.ie, want.te)

    def test_zero_outside_support_warns(self):
        ds = make_dataset(n=10, t_values=np.linspace(1.0, 2.0, 10))
        with pytest.warns(UserWarning, match="zero baseline"):
            estimate_effects_dose(linear_model(), ds, 0,
                                  t_grid=np.array([1.0, 1.5]))

    def test_draw_determinism(self):
        assert_array_equal(dose_draw_indices(50, 32, 9), dose_draw_indices(50, 32, 9))
        assert not np.array_equal(dose_draw_indices(50, 32, 9),
                                  dose_draw_indices(50, 32, 10))
        with pytest.raises(ContractError):
            dose_draw_indices(50, 0, 1)

    def test_same_seed_same_report(self):
        ds = make_dataset(n=14, seed=14)
        model = mlp_model()
        a = estimate_effects_dose(model, ds, 0)
        b = estimate_effects_dose(model, ds, 0)
        assert_array_equal(a.ie_curve, b.ie_curve)
        assert a.te == b.te


def brute_dose(model, ds, m, t_grid, draw_idx, w):
    """Full enumeration of the dose estimands from whole-model predictions."""
    n = ds.n_units
    wd = w[draw_idx]
    zero_patch = np.zeros(ds.patch_shape)
    de_c = np.zeros(t_grid.size)
    ie_c = np.zeros(t_grid.size)
    te_c = np.zeros(t_grid.size)
    for g, tg in enumerate(t_grid):
        de_vals = [
            predict(model, ds, i, overrides={"t": {m: tg}}).yhat
            - predict(model, ds, i, overrides={"t": {m: 0.0}}).yhat
            for i in range(n)
        ]
        de_c[g] = np.average(de_vals, weights=w)
        acc_ie = 0.0
        acc_te = 0.0
        for b, j in enumerate(draw_idx):
            pj = ds.patches[j, m]
            ie_vals = []
            te_vals = []
            for i in range(n):
                at_drawn = predict(model, ds, i,
                                   overrides={"t": {m: tg}, "patch": {m: pj}}).yhat
                at_zero_nbhd = predict(model, ds, i,
                                       overrides={"t": {m: tg},
                                                  "patch": {m: zero_patch}}).yhat
                baseline = predict(model, ds, i,
                                   overrides={"t": {m: 0.0},
                                              "patch": {m: zero_patch}}).yhat
                ie_vals.append(at_drawn - at_zero_nbhd)
                te_vals.append(at_drawn - baseline)
            acc_ie += wd[b] * np.average(ie_vals, weights=w)
            acc_te += wd[b] * np.average(te_vals, weights=w)
        ie_c[g] = acc_ie / wd.sum()
        te_c[g] = acc_te / wd.sum()
    return de_c, ie_c, te_c


class TestBruteForce:
    def test_matches_full_enumeration(self):
        ds = make_dataset(n=6, seed=15)
        model = mlp_model(seed=8)
        rng = np.random.default_rng(16)
        raw = rng.uniform(0.5, 2.0, 6)
        bw = manual_weights(raw / raw.mean())
        t_grid = np.linspace(ds.treatments[:, 0].min(),
                             ds.treatments[:, 0].max(), 4)
        draw_idx = dose_draw_indices(6, 5, 17)
        rep = estimate_effects_dose(model, ds, 0, weights=bw, t_grid=t_grid,
                                    draw_indices=draw_idx)
        de_c, ie_c, te_c = brute_dose(model, ds, 0, t_grid, draw_idx, bw.normalized)
        assert_allclose(rep.de_curve, de_c, atol=1e-9)
        assert_allclose(rep.ie_curve, ie_c, atol=1e-9)
        assert rep.te == pytest.approx(np.mean(te_c), abs=1e-9)
        assert_allclose(te_c, de_c + ie_c, atol=1e-9)

    def test_observed_mode_against_predictions(self):
        ds = make_dataset(n=8, seed=18)
        model = mlp_model(seed=9)
        rep = estimate_effects_observed(model, ds, 0)
        zero_patch = np.zeros(ds.patch_shape)
        de_vals, ie_vals, te_vals = [], [], []
        for i in range(8):
            obs = predict(model, ds, i).yhat
            no_own = predict(model, ds, i, overrides={"t": {0: 0.0}}).yhat
            no_nbhd = predict(model, ds, i, overrides={"patch": {0: zero_patch}}).yhat
            neither = predict(model, ds, i,
                              overrides={"t": {0: 0.0}, "patch": {0: zero_patch}}).yhat
            de_vals.append(obs - no_own)
            ie_vals.append(obs - no_nbhd)
            te_vals.append(obs - neither)
        assert rep.de == pytest.approx(np.mean(de_vals), abs=1e-9)
        assert rep.ie == pytest.approx(np.mean(ie_vals), abs=1e-9)
        assert rep.te == pytest.approx(np.mean(te_vals), abs=1e-9)

    def test_scale_equivariance(self):
        ds = make_dataset(n=10, seed=19)
        base = linear_model(alpha=1.3, iw=(0.4, 0.0, -0.2))
        doubled = linear_model(alpha=2.6, iw=(0.8, 0.0, -0.4))
        draws = dose_draw_indices(10, 32, 2)
        a = estimate_effects_dose(base, ds, 0, draw_indices=draws)
        b = estimate_effects_dose(doubled, ds, 0, draw_indices=draws)
        assert_allclose(b.de_curve, 2.0 * a.de_curve, atol=1e-12)
        assert_allclose(b.ie_curve, 2.0 * a.ie_curve, atol=1e-12)
        assert b.te == pytest.approx(2.0 * a.te, abs=1e-12)


class TestErrorsAndCsv:
    def _dose_pair(self):
        ds = make_dataset(n=10, seed=20)
        grid = default_t_grid(ds, 0, size=5)
        idx = dose_draw_indices(10, 8, 4)
        a = estimate_effects_dose(linear_model(alpha=2.0), ds, 0,
                                  t_grid=grid, draw_indices=idx)
        b = estimate_effects_dose(linear_model(alpha=2.5), ds, 0,
                                  t_grid=grid, draw_indices=idx)
        return a, b, grid

    def test_effect_error_values(self):
        a, b, grid = self._dose_pair()
        err = effect_error(a, b)
        assert err["de_err"] == pytest.approx(np.mean(np.abs(0.5 * grid)))
        assert err["te_err"] == pytest.approx(abs(a.te - b.te))

    def test_effect_error_grid_mismatch(self):
        a, b, grid = self._dose_pair()
        b.t_grid = grid + 0.01
        with pytest.raises(ContractError):
            effect_error(a, b)

    def test_effect_error_mode_mismatch(self):
        a, _, _ = self._dose_pair()
        ds = make_dataset(n=10, seed=20)
        obs = estimate_effects_observed(linear_model(), ds, 0)
        with pytest.raises(ContractError):
            effect_error(a, obs)

    def test_observed_error_absolute(self):
        obs_a = EffectReport(treatment=0, mode="observed", de=1.0, ie=0.5,
                             te=1.5, weighted=False)
        obs_b = EffectReport(treatment=0, mode="observed", de=1.2, ie=0.1,
                             te=1.3, weighted=False)
        err = effect_error(obs_a, obs_b)
        assert err["de_err"] == pytest.approx(0.2)
        assert err["ie_err"] == pytest.approx(0.4)
        assert err["te_err"] == pytest.approx(0.2)

    def test_csv_layout(self, tmp_path):
        ds = make_dataset(n=10, seed=21)
        model = mlp_model()
        dose = estimate_effects_dose(model, ds, 0, t_grid=np.linspace(
            ds.treatments[:, 0].min(), ds.treatments[:, 0].max(), 5),
            draw_indices=dose_draw_indices(10, 32, 1))
        obs = estimate_effects_observed(model, ds, 0)
        path = tmp_path / "effects.csv"
        write_effects_csv([dose, obs], str(path))
        rows = path.read_text().strip().split("\n")
        header = rows[0].split(",")
        assert header == ["treatment_index", "mode", "effect_type", "t_value",
                          "estimate", "weighted"]
        # 5 DE + 5 IE curve rows + 3 summary rows, then 3 observed rows
        assert len(rows) == 1 + 13 + 3
        summary = {}
        for line in rows[1:]:
            fields = line.split(",")
            assert fields[5] in {"0", "1"}
            if fields[3] == "":
                summary[(fields[1], fields[2])] = float(fields[4])
        assert abs(summary[("dose", "TE")]
                   - (summary[("dose", "DE")] + summary[("dose", "IE")])) <= 1e-9
        assert abs(summary[("observed", "TE")]
                   - (summary[("observed", "DE")] + summary[("observed", "IE")])) <= 1e-9
        # float round-trip survives the %.17g formatting
        assert summary[("dose", "TE")] == dose.te
