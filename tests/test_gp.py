"""Tests for kernels, low-rank features, and GP samplers."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from spatialcausal import engine as E
from spatialcausal import gp as G
from spatialcausal.errors import ContractError, DimensionError, NumericError

RBF = G.KernelSpec("rbf", sigma=1.0, lengthscale=0.5, noise=1e-10)
EXP = G.KernelSpec("exponential", sigma=1.0, lengthscale=0.005, noise=0.0)


class TestKernels:
    def test_zero_distance_is_sigma_squared(self):
        for k in (RBF, EXP, G.KernelSpec("rbf", sigma=2.0)):
            s = np.array([0.3, -0.7])
            npt.assert_allclose(G.gram_matrix(k, s[None], s[None]), [[k.sigma ** 2]])

    def test_rbf_closed_form(self):
        val = G.gram_matrix(RBF, np.zeros((1, 2)), np.array([[0.5, 0.0]]))[0, 0]
        npt.assert_allclose(val, np.exp(-0.5), rtol=1e-12)
        npt.assert_allclose(val, 0.606531, atol=1e-6)

    def test_exponential_closed_form(self):
        val = G.gram_matrix(EXP, np.array([[0.0]]), np.array([[0.005]]))[0, 0]
        npt.assert_allclose(val, np.exp(-1.0), rtol=1e-12)
        npt.assert_allclose(val, 0.367879, atol=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            G.gram_matrix(RBF, np.zeros((1, 2)), np.zeros((1, 3)))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ContractError):
            G.KernelSpec("rbf", sigma=0.0)
        with pytest.raises(ContractError):
            G.KernelSpec("matern")

    def test_gram_symmetric_psd(self):
        rng = np.random.default_rng(4)
        for family in ("rbf", "exponential"):
            kernel = G.KernelSpec(family, sigma=1.3, lengthscale=0.4)
            coords = rng.uniform(size=(40, 2))
            gram = G.gram_matrix(kernel, coords)
            npt.assert_array_equal(gram, gram.T)
            eigs = np.linalg.eigvalsh(gram)
            assert eigs.min() > -1e-10


class TestDistance:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4])
    def test_matches_cdist_bitwise(self, d, scale):
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(100 * d + int(np.log10(scale)) + 3)
        a = rng.normal(size=(23, d)) * scale
        b = rng.normal(size=(9, d)) * scale
        a[5:8] = a[4]                       # duplicate points: exact zero distances
        b[2] = a[4]
        for x, y in ((a, b), (b, a), (a, a)):
            assert G._dist(x, y).tobytes() == cdist(x, y).tobytes()


class TestInducing:
    def test_subsample_full_set(self):
        coords = np.random.default_rng(0).uniform(size=(12, 2))
        ind = G.select_inducing(coords, q=12, strategy="subsample", seed=1)
        npt.assert_array_equal(np.unique(ind.points, axis=0), np.unique(coords, axis=0))

    def test_1d_grid_even_spacing(self):
        coords = np.linspace(0.0, 1.0, 50)
        ind = G.select_inducing(coords, q=3, strategy="grid")
        npt.assert_allclose(ind.points.reshape(-1), [0.0, 0.5, 1.0])

    def test_2d_grid_rounds_to_square(self):
        coords = np.random.default_rng(1).uniform(size=(30, 2))
        ind = G.select_inducing(coords, q=5, strategy="grid")
        assert ind.q == 9  # ceil(sqrt(5)) squared

    def test_duplicates_deduplicated(self):
        coords = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
        ind = G.select_inducing(coords, q=3, strategy="subsample", seed=0)
        assert ind.q == 3
        assert np.unique(ind.points, axis=0).shape[0] == 3

    def test_q_below_one_rejected(self):
        with pytest.raises(ContractError):
            G.select_inducing(np.zeros((4, 2)), q=0)

    def test_distinctness_invariant(self):
        with pytest.raises(ContractError):
            G.InducingSet(np.array([[1.0, 2.0], [1.0, 2.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_point_rejected(self, bad):
        with pytest.raises(ContractError, match="^inducing points must be finite$"):
            G.InducingSet(np.array([[0.0], [bad]]))


class TestNystrom:
    def test_full_rank_exactness(self):
        rng = np.random.default_rng(7)
        coords = rng.uniform(size=(8, 2))
        kernel = G.KernelSpec("rbf", sigma=1.0, lengthscale=0.6, noise=1e-10)
        nmap = G.build_nystrom(G.InducingSet(coords), kernel)
        khat = nmap.low_rank_gram(coords)
        target = G.gram_matrix(kernel, coords) + kernel.noise * np.eye(8)
        assert np.max(np.abs(khat - target)) < 1e-8

    def test_rank_one_at_single_inducing_point(self):
        coords = np.random.default_rng(3).uniform(size=(6, 2))
        nmap = G.build_nystrom(G.InducingSet(np.array([[0.5, 0.5]])),
                               G.KernelSpec("rbf", lengthscale=0.4, noise=1e-12))
        khat = nmap.low_rank_gram(coords)
        assert np.linalg.matrix_rank(khat, tol=1e-10) == 1

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(11)
        coords = rng.uniform(size=(5, 2))
        inducing = G.InducingSet(coords[:3])
        kernel = G.KernelSpec("rbf", sigma=1.2, lengthscale=0.5, noise=1e-8)
        nmap = G.build_nystrom(inducing, kernel)
        z = nmap.features(coords)
        kq = G.gram_matrix(kernel, inducing.points) + kernel.noise * np.eye(3)
        knq = G.gram_matrix(kernel, coords, inducing.points)
        oracle = knq @ np.linalg.inv(kq) @ knq.T
        assert np.max(np.abs(z @ z.T - oracle)) < 1e-10

    def test_trace_gap_monotone_in_nested_inducing_sets(self):
        rng = np.random.default_rng(5)
        coords = rng.uniform(size=(40, 2))
        kernel = G.KernelSpec("rbf", sigma=1.0, lengthscale=0.5, noise=1e-9)
        full_trace = np.trace(G.gram_matrix(kernel, coords))
        pool = rng.uniform(size=(16, 2))
        gaps = []
        for q in (2, 4, 8, 16):
            nmap = G.build_nystrom(G.InducingSet(pool[:q]), kernel)
            gaps.append(full_trace - np.trace(nmap.low_rank_gram(coords)))
        assert all(a >= b - 1e-9 for a, b in zip(gaps[:-1], gaps[1:]))

    def test_jitter_escalation_reported(self):
        # Perfectly singular with zero jitter at every escalation step.
        mat = np.ones((3, 3))
        with pytest.raises(NumericError) as err:
            G.chol_with_jitter(mat, 0.0)
        assert "jitter" in str(err.value)


class TestGpTerm:
    def test_zero_weights_vanish(self):
        term = G.GpTerm(G.InducingSet(np.linspace(0, 1, 5)), RBF)
        coords = np.random.default_rng(0).uniform(size=(7, 1))
        npt.assert_array_equal(term.values_op(coords).data, 0.0)

    def test_unit_weight_at_inducing_point_gives_chol_diagonal(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(size=(4, 2))
        kernel = G.KernelSpec("rbf", sigma=1.0, lengthscale=0.7, noise=0.0)
        dense_l = np.linalg.cholesky(G.gram_matrix(kernel, pts))
        for j in range(4):
            term = G.GpTerm(G.InducingSet(pts), kernel)
            term.weights.data[j, 0] = 1.0
            val = term.values_op(pts[j][None]).item()
            npt.assert_allclose(val, dense_l[j, j], atol=1e-12)

    def test_gradient_wrt_weights_is_features(self):
        inducing = G.InducingSet(np.linspace(0, 1, 6))
        nmap = G.build_nystrom(inducing, RBF)
        term = G.GpTerm(inducing, RBF)
        coords = np.random.default_rng(2).uniform(size=(5, 1))
        with E.Tape() as tape:
            loss = E.tsum(term.values_op(coords))
        tape.backward(loss)
        npt.assert_allclose(term.weights.grad.reshape(-1), nmap.features(coords).sum(axis=0))

    def test_linearity_in_weights(self):
        inducing = G.InducingSet(np.linspace(0, 1, 5))
        coords = np.random.default_rng(3).uniform(size=(6, 1))
        rng = np.random.default_rng(4)
        w1, w2 = rng.normal(size=(5, 1)), rng.normal(size=(5, 1))
        a, b = 1.7, -0.4

        def value(w):
            term = G.GpTerm(inducing, RBF)
            term.weights.data = w.copy()
            return term.values_op(coords).data

        npt.assert_allclose(value(a * w1 + b * w2), a * value(w1) + b * value(w2),
                            rtol=0, atol=1e-12)

    def test_trainable_lengthscale_gradient(self):
        rng = np.random.default_rng(13)
        pts = rng.uniform(size=(5, 2))
        kernel = G.KernelSpec("rbf", sigma=1.1, lengthscale=0.6, noise=1e-6)
        coords = rng.uniform(size=(8, 2))
        target = rng.normal(size=(8, 1))
        for family in ("rbf", "exponential"):
            k = G.KernelSpec(family, kernel.sigma, kernel.lengthscale, kernel.noise)
            term = G.GpTerm(G.InducingSet(pts), k, train_lengthscale=True)
            term.weights.data = rng.normal(size=(5, 1))

            def fn():
                return E.mse(term.values_op(coords), E.Tensor(target))

            report = E.finite_diff_check(fn, [term.weights, term.lengthscale])
            assert report.passed, (family, report)


    @pytest.mark.parametrize("family", ["rbf", "exponential"])
    def test_trainable_lengthscale_features_match_fixed(self, family):
        # at its initial lengthscale the trainable term runs the fixed forward
        rng = np.random.default_rng(14)
        kernel = G.KernelSpec(family, sigma=1.1, lengthscale=0.6, noise=1e-6)
        inducing = G.InducingSet(rng.uniform(size=(6, 2)))
        coords = rng.uniform(size=(9, 2))
        fixed = G.GpTerm(inducing, kernel).features_op(coords).data
        trained = G.GpTerm(inducing, kernel, train_lengthscale=True).features_op(coords).data
        assert trained.shape == fixed.shape
        assert trained.tobytes() == fixed.tobytes()
        assert fixed.flags.c_contiguous and trained.flags.c_contiguous


    def test_fixed_lengthscale_records_no_node(self):
        inducing = G.InducingSet(np.linspace(0, 1, 5))
        term = G.GpTerm(inducing, RBF)
        coords = np.linspace(0, 1, 7)
        with E.Tape() as tape:
            feats = term.features_op(coords)
        assert tape.nodes == [] and not feats.requires_grad
        assert not term.train_lengthscale and term.parameters() == [term.weights]
        fresh = G.build_nystrom(inducing, RBF).features(coords)
        assert term.map.features(coords).tobytes() == fresh.tobytes()
        assert feats.data.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("family", ["rbf", "exponential"])
    def test_map_follows_trained_lengthscale(self, family):
        rng = np.random.default_rng(15)
        kernel = G.KernelSpec(family, sigma=1.0, lengthscale=0.6, noise=1e-6)
        inducing = G.InducingSet(rng.uniform(size=(6, 2)))
        coords = rng.uniform(size=(9, 2))
        term = G.GpTerm(inducing, kernel, train_lengthscale=True)
        term.weights.data = rng.normal(size=(6, 1))
        assert term.parameters() == [term.weights, term.lengthscale]
        opt = E.Adam(term.parameters(), lr=0.05)
        with E.Tape() as tape:
            loss = E.mse(term.values_op(coords), E.Tensor(rng.normal(size=(9, 1))))
        tape.backward(loss)
        opt.step()
        ls = float(term.lengthscale.data)
        assert ls != kernel.lengthscale
        term.values_op(coords)
        assert term.map.kernel.lengthscale == ls
        fresh = G.build_nystrom(inducing, replace(kernel, lengthscale=ls))
        assert term.map.features(coords).tobytes() == fresh.features(coords).tobytes()
        assert term.map.jitter_used == fresh.jitter_used

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_trained_lengthscale_outside_domain_is_numeric_error(self, value):
        term = G.GpTerm(G.InducingSet(np.linspace(0, 1, 4)), RBF, train_lengthscale=True)
        term.lengthscale.data[...] = value
        with pytest.raises(NumericError, match="lengthscale left"):
            term.features_op(np.linspace(0, 1, 5))

    @pytest.mark.parametrize("trainable,message", [
        (True, "lengthscale left (0, inf) during training: 0.0"),
        (False, "lengthscale outside (0, inf): 0.0"),
    ])
    def test_lengthscale_domain_message_names_the_cause(self, trainable, message):
        # only a trainable leaf can have been moved out of the domain by training
        term = G.GpTerm(G.InducingSet(np.linspace(0, 1, 4)), RBF,
                        train_lengthscale=trainable)
        term.lengthscale.data[...] = 0.0
        with pytest.raises(NumericError) as err:
            term.features_op(np.linspace(0, 1, 5))
        assert str(err.value) == message


class TestSampling:
    def test_mean_and_covariance_oracle(self):
        rng = np.random.default_rng(21)
        coords = rng.uniform(size=(10, 2))
        kernel = G.KernelSpec("rbf", sigma=1.0, lengthscale=0.5, noise=1e-8)
        draws = G.sample_gp(coords, kernel, seed=77, n_draws=5000)
        assert draws.shape == (5000, 10)
        se = kernel.sigma / np.sqrt(5000)
        assert np.all(np.abs(draws.mean(axis=0)) < 3.0 * se)
        target = G.gram_matrix(kernel, coords) + kernel.noise * np.eye(10)
        emp = (draws.T @ draws) / 5000
        rel = np.abs(emp - target) / np.abs(target)
        assert np.max(rel) < 0.10

    def test_zero_jitter_duplicate_coords_fail(self):
        coords = np.array([[0.1, 0.1], [0.1, 0.1], [0.5, 0.5]])
        with pytest.raises(NumericError):
            G.sample_gp(coords, G.KernelSpec("rbf", noise=0.0), seed=0)

    def test_dense_size_limit(self):
        with pytest.raises(ContractError):
            G.sample_gp(np.zeros((10001, 2)), RBF, seed=0)

    def test_determinism(self):
        coords = np.random.default_rng(1).uniform(size=(20, 2))
        a = G.sample_gp(coords, RBF, seed=5)
        b = G.sample_gp(coords, RBF, seed=5)
        npt.assert_array_equal(a, b)
        assert not np.array_equal(a, G.sample_gp(coords, RBF, seed=6))

    @pytest.mark.parametrize("rows,cols,res,message", [
        (2.5, 4, 1.0, "rows: must be a whole number"), (4, 0, 1.0, "cols: must be >= 1"),
        (4, 4, np.nan, "resolution: must be finite")])
    def test_grid_sampler_geometry_rejected(self, rows, cols, res, message):
        with pytest.raises(ContractError, match=message):
            G.sample_gp_grid(rows, cols, RBF, res, seed=0)

    def test_grid_sampler_covariance_oracle(self):
        kernel = G.KernelSpec("exponential", sigma=1.0, lengthscale=4.0)
        n_draws = 6000
        root, rng = G.circulant_root(8, 8, kernel, 1.0), np.random.default_rng(3)
        flat = np.array([G.grid_draw(root, rng).reshape(-1) for _ in range(n_draws)])
        # covariance against the dense Gram over the same pixel centers
        ii, jj = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        coords = np.column_stack([ii.reshape(-1), jj.reshape(-1)]).astype(float)
        target = G.gram_matrix(kernel, coords)
        emp = (flat.T @ flat) / n_draws
        err = np.abs(emp - target)
        # relative agreement where the signal is strong, absolute bound overall
        strong = target >= 0.3
        assert np.max(err[strong] / target[strong]) < 0.12
        assert np.max(err) < 4.5 / np.sqrt(n_draws)
        assert np.all(np.abs(flat.mean(axis=0)) < 3.5 / np.sqrt(n_draws))

    @staticmethod
    def _full_fft2_draw(rows, cols, kernel, res, seed):
        """The sampler as a full 2 rows x 2 cols ``fft2``, cut to one quarter."""
        p, q = 2 * rows, 2 * cols
        di = np.minimum(np.arange(p), p - np.arange(p)) * res
        dj = np.minimum(np.arange(q), q - np.arange(q)) * res
        cov = G.kernel_matrix_from_dist(kernel, np.sqrt(di[:, None] ** 2 + dj[None, :] ** 2))
        root = np.sqrt(np.maximum(np.fft.fft2(cov).real, 0.0) / (p * q))
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
        return np.fft.fft2(root * noise).real[:rows, :cols]

    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 9), (9, 1), (16, 12), (40, 40),
                                           (128, 128)])
    def test_grid_sampler_bits_of_full_fft2(self, rows, cols):
        kernel = G.KernelSpec("rbf", sigma=1.3, lengthscale=4.0)
        want = self._full_fft2_draw(rows, cols, kernel, 0.7, 11)
        one = G.sample_gp_grid(rows, cols, kernel, 0.7, seed=11)
        assert one.shape == (rows, cols)
        npt.assert_array_equal(one.view(np.uint64), want.view(np.uint64))

    def test_grid_sampler_determinism(self):
        kernel = G.KernelSpec("rbf", sigma=1.0, lengthscale=3.0)
        a = G.sample_gp_grid(16, 12, kernel, 1.0, seed=9)
        b = G.sample_gp_grid(16, 12, kernel, 1.0, seed=9)
        npt.assert_array_equal(a, b)
        assert a.shape == (16, 12)
