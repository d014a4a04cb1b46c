"""Covariance kernels, low-rank inducing-point features, and GP samplers.

The low-rank construction follows the Nystrom recipe: with inducing points
s_1..s_q, Gram matrix K_q and cross-covariances k_q(s), the factor L from
``K_q + eps*I = L L^T`` defines features ``z(s) = L^{-1} k_q(s)`` so that
``z(s_i)^T z(s_j)`` reproduces the low-rank covariance
``K_nq (K_q + eps I)^{-1} K_nq^T``.  A spatial adjustment term is then the
linear form ``w^T z(s)`` with trainable ``w``.  With a fixed lengthscale the
features of fixed coordinates are constants, so ``model.train`` solves them
once per fit.

Exact sampling uses a dense Cholesky factor and is limited to modest N; large
regular grids are sampled spectrally through circulant embedding.

``scipy.linalg`` is imported (``engine.scipy_linalg``) inside the functions
that factor or solve, so importing this module loads no scipy.  Distances
are computed in numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import engine as E
from .engine import Tensor
from .errors import ContractError, DimensionError, NumericError, check, check_fields

KERNEL_FAMILIES = ("rbf", "exponential")


@dataclass(frozen=True)
class KernelSpec:
    family: str
    sigma: float = 1.0
    lengthscale: float = 1.0
    noise: float = 0.0        # diagonal jitter added to Gram matrices

    def __post_init__(self) -> None:
        if self.family not in KERNEL_FAMILIES:
            raise ContractError(
                f"kernel family must be one of {KERNEL_FAMILIES}, got {self.family!r}")
        check_fields(self, ContractError)


def as_coords(arr) -> np.ndarray:
    """(n, d) float coordinates; an (n,) array is n one-dimensional points."""
    out = np.asarray(arr, dtype=np.float64)
    if out.ndim == 1:
        out = out[:, None]
    if out.ndim != 2:
        raise DimensionError(f"coordinates must be (n, d), got shape {out.shape}")
    return out


def kernel_matrix_from_dist(kernel: KernelSpec, dist: np.ndarray) -> np.ndarray:
    ls = kernel.lengthscale
    s2 = kernel.sigma ** 2
    if kernel.family == "rbf":
        two_l2 = 2.0 * ls * ls
        if two_l2 == 0.0:       # the diagonal would be 0/0
            raise NumericError(f"kernel lengthscale {ls}: 2*l*l underflows to 0, so the "
                               "rbf covariance is not finite")
        return s2 * np.exp(-(dist * dist) / two_l2)
    return s2 * np.exp(-dist / ls)


def _dkernel_dl_from_dist(kernel: KernelSpec, dist: np.ndarray) -> np.ndarray:
    """Derivative of ``kernel_matrix_from_dist`` in the lengthscale."""
    ls = kernel.lengthscale
    kmat = kernel_matrix_from_dist(kernel, dist)
    if kernel.family == "rbf":
        return kmat * (dist * dist) / (ls ** 3)
    return kmat * dist / (ls * ls)


def _dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of a and b, the same bits as ``cdist``."""
    d = np.subtract.outer(a[:, 0], b[:, 0]) ** 2
    for k in range(1, a.shape[1]):
        d += np.subtract.outer(a[:, k], b[:, k]) ** 2
    return np.sqrt(d, out=d)


def gram_matrix(kernel: KernelSpec, coords_a, coords_b=None) -> np.ndarray:
    """Cross-covariance matrix; symmetric Gram when coords_b is omitted."""
    a = as_coords(coords_a)
    if coords_b is None:
        d = _dist(a, a)
        k = kernel_matrix_from_dist(kernel, d)
        return 0.5 * (k + k.T)
    b = as_coords(coords_b)
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"coordinate dims differ: {a.shape[1]} vs {b.shape[1]}")
    return kernel_matrix_from_dist(kernel, _dist(a, b))


def chol_with_jitter(mat: np.ndarray, eps: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky of mat + jitter*I, escalating jitter as eps, 10 eps, 100 eps."""
    linalg = E.scipy_linalg()
    attempts = [eps, 10.0 * eps, 100.0 * eps]
    eye = np.eye(mat.shape[0])
    for jit in attempts:
        try:
            return linalg.cholesky(mat + jit * eye, lower=True), jit
        except linalg.LinAlgError:
            continue
    raise NumericError(
        f"Cholesky failed for {mat.shape[0]}x{mat.shape[0]} matrix after jitters {attempts}")


@dataclass(frozen=True)
class InducingSet:
    points: np.ndarray        # (q, d), pairwise distinct

    def __post_init__(self):
        pts = as_coords(self.points)
        object.__setattr__(self, "points", pts)
        if pts.shape[0] < 1:
            raise ContractError("inducing set needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise ContractError("inducing points must be finite")
        if np.unique(pts, axis=0).shape[0] != pts.shape[0]:
            raise ContractError("inducing points must be pairwise distinct")

    @property
    def q(self) -> int:
        return self.points.shape[0]


def select_inducing(coords, q: int, strategy: str = "grid", seed: int = 0) -> InducingSet:
    """Choose inducing points from data coordinates.

    ``grid`` lays an even lattice over the bounding box: q points in 1-d,
    a ceil(sqrt(q)) x ceil(sqrt(q)) lattice in 2-d (so q rounds up to a
    square).  ``subsample`` draws q distinct data coordinates uniformly.
    """
    check("q", q, ContractError)
    pts = as_coords(coords)
    if strategy == "grid":
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        if pts.shape[1] == 1:
            axis = np.linspace(lo[0], hi[0], q)
            return InducingSet(axis[:, None])
        if pts.shape[1] == 2:
            m = math.ceil(math.sqrt(q))
            ax0 = np.linspace(lo[0], hi[0], m) if m > 1 else np.array([(lo[0] + hi[0]) / 2.0])
            ax1 = np.linspace(lo[1], hi[1], m) if m > 1 else np.array([(lo[1] + hi[1]) / 2.0])
            g0, g1 = np.meshgrid(ax0, ax1, indexing="ij")
            return InducingSet(np.column_stack([g0.reshape(-1), g1.reshape(-1)]))
        raise ContractError(f"grid strategy supports 1-d or 2-d coordinates, got d={pts.shape[1]}")
    if strategy == "subsample":
        unique = np.unique(pts, axis=0)
        if q > unique.shape[0]:
            raise ContractError(f"q={q} exceeds {unique.shape[0]} distinct coordinates")
        rng = np.random.default_rng(seed)
        idx = rng.choice(unique.shape[0], size=q, replace=False)
        return InducingSet(unique[np.sort(idx)])
    raise ContractError(f"unknown inducing strategy {strategy!r}")


class NystromMap:
    """Immutable low-rank feature map built from an inducing set and kernel."""

    def __init__(self, inducing: InducingSet, kernel: KernelSpec,
                 chol_factor: np.ndarray, jitter_used: float):
        self.inducing = inducing
        self.kernel = kernel
        self.chol_factor = chol_factor
        self.jitter_used = jitter_used

    def features(self, coords) -> np.ndarray:
        """Rows z(s_i)^T of the feature matrix, by forward triangular solve."""
        knq = gram_matrix(self.kernel, coords, self.inducing.points)
        return E.scipy_linalg().solve_triangular(self.chol_factor, knq.T, lower=True).T

    def low_rank_gram(self, coords) -> np.ndarray:
        z = self.features(coords)
        return z @ z.T


def build_nystrom(inducing: InducingSet, kernel: KernelSpec) -> NystromMap:
    kq = gram_matrix(kernel, inducing.points)
    factor, jit = chol_with_jitter(kq, kernel.noise)
    return NystromMap(inducing, kernel, factor, jit)


class GpTerm:
    """Spatial adjustment U(s) = w^T z(s) with trainable w.

    The kernel lengthscale l is a leaf tensor, trainable when
    ``train_lengthscale`` is set; ``map`` is the Nystrom map at its value.
    """

    def __init__(self, inducing: InducingSet, kernel: KernelSpec,
                 train_lengthscale: bool = False):
        self.inducing = inducing
        self._kernel = kernel
        self.weights = Tensor(np.zeros((inducing.q, 1)), requires_grad=True)
        self.lengthscale = Tensor(np.asarray(kernel.lengthscale),
                                  requires_grad=train_lengthscale)
        self._map: NystromMap | None = None

    @property
    def map(self) -> NystromMap:
        """The Nystrom map at the lengthscale leaf's value.

        Factored on first use and again only when the leaf's value has
        changed, so a fixed lengthscale factors once and ``map.jitter_used``
        is the jitter of the map in use.
        """
        ls = float(self.lengthscale.data.reshape(()))
        if not 0 < ls < math.inf:
            cause = ("left (0, inf) during training" if self.train_lengthscale
                     else "outside (0, inf)")
            raise NumericError(f"lengthscale {cause}: {ls}")
        if self._map is None or ls != self._map.kernel.lengthscale:
            self._map = build_nystrom(self.inducing, replace(self._kernel, lengthscale=ls))
        return self._map

    @property
    def train_lengthscale(self) -> bool:
        return self.lengthscale.requires_grad

    def parameters(self) -> list[Tensor]:
        return [self.weights, self.lengthscale] if self.train_lengthscale else [self.weights]

    def features_op(self, coords) -> Tensor:
        """Feature matrix as an engine tensor; differentiable in l if trainable."""
        return _features_with_lengthscale_grad(self, coords)

    def values_op(self, coords, features: np.ndarray | None = None) -> Tensor:
        """(n, 1) adjustment values; differentiable in w (and l if trainable).

        ``features``, when given, are rows of features solved earlier under
        the current map, which have the bits of a solve on ``coords`` alone
        unless there is one row: OpenBLAS solves a single right-hand side
        through another kernel, so one row is solved here.
        """
        feats = (self.features_op(coords) if features is None or len(features) == 1
                 else Tensor(features))
        return E.matmul(feats, self.weights)

    def features_np(self, coords) -> np.ndarray:
        """Features at the current parameter values as a plain array.

        Kept only because ``perfbench/tracing.py`` wraps it by name.
        """
        return self.features_op(coords).data


def _features_with_lengthscale_grad(term: GpTerm, coords) -> Tensor:
    """Features at the lengthscale leaf's value, with a hand-built vjp.

    A leaf that needs no gradient records no tape node.  l is scalar, so the
    full Jacobian dZ/dl is a single directional derivative; the vjp computes
    it, so a forward outside a tape skips it.  Using dL = L*Phi(L^{-1} dKq
    L^{-T}) with Phi = lower triangle and halved diagonal, the feature
    differential is dZ^T = L^{-1} (dKnq^T - dL Z^T).
    """
    l_param = term.lengthscale
    nmap = term.map
    pts = nmap.inducing.points
    z = nmap.features(coords)

    def vjp(g):
        solve_triangular = E.scipy_linalg().solve_triangular
        factor = nmap.chol_factor
        dkq = _dkernel_dl_from_dist(nmap.kernel, _dist(pts, pts))
        dknq = _dkernel_dl_from_dist(nmap.kernel, _dist(as_coords(coords), pts))
        inner = solve_triangular(factor, dkq, lower=True)
        inner = solve_triangular(factor, inner.T, lower=True)      # L^{-1} dKq L^{-T}
        phi = np.tril(inner)
        np.fill_diagonal(phi, 0.5 * np.diag(inner))
        dfactor = factor @ phi
        dz = solve_triangular(factor, dknq.T - dfactor @ z.T, lower=True).T
        return (np.asarray(np.sum(g * dz)).reshape(l_param.data.shape),)

    return E._record("gp_features", (l_param,), z, vjp)


def sample_gp(coords, kernel: KernelSpec, seed: int, n_draws: int | None = None) -> np.ndarray:
    """Exact zero-mean draws via dense Cholesky of the jittered Gram matrix.

    Returns shape (N,) by default, or (n_draws, N) when n_draws, a whole
    number >= 1, is given.  ``seed`` is a whole number >= 0.
    """
    check("seed", seed, ContractError)
    if n_draws is not None:
        check("n_draws", n_draws, ContractError)
    pts = as_coords(coords)
    n = pts.shape[0]
    if n > 10_000:
        raise ContractError(f"dense sampling limited to 10000 points, got {n}")
    gram = gram_matrix(kernel, pts)
    factor, _ = chol_with_jitter(gram, kernel.noise)
    rng = np.random.default_rng(seed)
    if n_draws is None:
        return factor @ rng.standard_normal(n)
    return (factor @ rng.standard_normal((n, n_draws))).T


def circulant_root(rows: int, cols: int, kernel: KernelSpec,
                   resolution: float) -> np.ndarray:
    """Spectral root of a stationary kernel's circulant embedding.

    The kernel is wrapped onto a torus twice the grid size and diagonalized
    by FFT; the root is ``sqrt(max(eigenvalues, 0) / (2 rows * 2 cols))``.
    Slightly negative embedding eigenvalues are clipped to zero; for the
    kernels used here the clipped mass is negligible.
    """
    for name, value in (("rows", rows), ("cols", cols), ("resolution", resolution)):
        check(name, value, ContractError)
    p, q = 2 * rows, 2 * cols
    di = np.minimum(np.arange(p), p - np.arange(p)) * resolution
    dj = np.minimum(np.arange(q), q - np.arange(q)) * resolution
    dist = np.sqrt(di[:, None] ** 2 + dj[None, :] ** 2)
    lam = np.maximum(np.fft.fft2(kernel_matrix_from_dist(kernel, dist)).real, 0.0)
    return np.sqrt(lam / (p * q))


def grid_draw(root: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One (rows, cols) field from ``circulant_root``'s (2 rows, 2 cols) root.

    Only the torus field's first quarter is kept, so the axis-0 FFT runs on
    the first ``cols`` columns alone.  Each 1-d transform is one that
    ``fft2`` runs, so the field has ``fft2(...).real[:rows, :cols]``'s bits.
    """
    p, q = root.shape
    noise = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
    half = np.fft.fft(root * noise, axis=1)[:, :q // 2]
    return np.fft.fft(half, axis=0)[:p // 2].real


def sample_gp_grid(rows: int, cols: int, kernel: KernelSpec, resolution: float,
                   seed: int) -> np.ndarray:
    """One zero-mean stationary (rows, cols) field via circulant embedding:
    ``grid_draw(circulant_root(...), default_rng(seed))``, ``seed`` a whole
    number >= 0.  To draw many fields, factor the root once and call
    ``grid_draw`` with one generator.
    """
    check("seed", seed, ContractError)
    return grid_draw(circulant_root(rows, cols, kernel, resolution),
                     np.random.default_rng(seed))
