"""Covariance kernels, low-rank inducing-point features, and GP samplers.

The low-rank construction follows the Nystrom recipe: with inducing points
s_1..s_q, Gram matrix K_q and cross-covariances k_q(s), the factor L from
``K_q + eps*I = L L^T`` defines features ``z(s) = L^{-1} k_q(s)`` so that
``z(s_i)^T z(s_j)`` reproduces the low-rank covariance
``K_nq (K_q + eps I)^{-1} K_nq^T``.  A spatial adjustment term is then the
linear form ``w^T z(s)`` with trainable ``w``.

Exact sampling uses a dense Cholesky factor and is limited to modest N; large
regular grids are sampled spectrally through circulant embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import LinAlgError, cholesky, solve_triangular
from scipy.spatial.distance import cdist

from . import engine as E
from .engine import Tensor
from .errors import ContractError, DimensionError, NumericError

_FAMILIES = ("rbf", "exponential")


@dataclass(frozen=True)
class KernelSpec:
    family: str
    sigma: float = 1.0
    lengthscale: float = 1.0
    noise: float = 0.0        # diagonal jitter added to Gram matrices

    def validate(self) -> None:
        if self.family not in _FAMILIES:
            raise ContractError(f"kernel family must be one of {_FAMILIES}, got {self.family!r}")
        if self.sigma <= 0 or self.lengthscale <= 0 or self.noise < 0:
            raise ContractError(f"invalid kernel parameters {self}")


def _as_coords(arr) -> np.ndarray:
    out = np.asarray(arr, dtype=np.float64)
    if out.ndim == 1:
        out = out[:, None]
    if out.ndim != 2:
        raise DimensionError(f"coordinates must be (n, d), got shape {out.shape}")
    return out


def kernel_matrix_from_dist(kernel: KernelSpec, dist: np.ndarray,
                            lengthscale: float | None = None) -> np.ndarray:
    ls = kernel.lengthscale if lengthscale is None else lengthscale
    s2 = kernel.sigma ** 2
    if kernel.family == "rbf":
        return s2 * np.exp(-(dist * dist) / (2.0 * ls * ls))
    return s2 * np.exp(-dist / ls)


def _dkernel_dl_from_dist(kernel: KernelSpec, kmat: np.ndarray, dist: np.ndarray,
                          ls: float) -> np.ndarray:
    if kernel.family == "rbf":
        return kmat * (dist * dist) / (ls ** 3)
    return kmat * dist / (ls * ls)


def kernel_eval(kernel: KernelSpec, s_a, s_b) -> float:
    """Covariance between two coordinates; jitter is never applied here."""
    kernel.validate()
    a = np.atleast_1d(np.asarray(s_a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(s_b, dtype=np.float64))
    if a.shape != b.shape:
        raise DimensionError(f"coordinate shapes differ: {a.shape} vs {b.shape}")
    d = float(np.linalg.norm(a - b))
    return float(kernel_matrix_from_dist(kernel, np.asarray(d)))


def gram_matrix(kernel: KernelSpec, coords_a, coords_b=None) -> np.ndarray:
    """Cross-covariance matrix; symmetric Gram when coords_b is omitted."""
    kernel.validate()
    a = _as_coords(coords_a)
    if coords_b is None:
        d = cdist(a, a)
        k = kernel_matrix_from_dist(kernel, d)
        return 0.5 * (k + k.T)
    b = _as_coords(coords_b)
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"coordinate dims differ: {a.shape[1]} vs {b.shape[1]}")
    return kernel_matrix_from_dist(kernel, cdist(a, b))


def chol_with_jitter(mat: np.ndarray, eps: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky of mat + jitter*I, escalating jitter as eps, 10 eps, 100 eps."""
    attempts = [eps, 10.0 * eps, 100.0 * eps]
    eye = np.eye(mat.shape[0])
    for jit in attempts:
        try:
            return cholesky(mat + jit * eye, lower=True), jit
        except LinAlgError:
            continue
    raise NumericError(
        f"Cholesky failed for {mat.shape[0]}x{mat.shape[0]} matrix after jitters {attempts}")


@dataclass(frozen=True)
class InducingSet:
    points: np.ndarray        # (q, d), pairwise distinct

    def __post_init__(self):
        pts = _as_coords(self.points)
        object.__setattr__(self, "points", pts)
        if pts.shape[0] < 1:
            raise ContractError("inducing set needs at least one point")
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
    if q < 1:
        raise ContractError(f"q must be at least 1, got {q}")
    pts = _as_coords(coords)
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

    @property
    def q(self) -> int:
        return self.inducing.q

    def cross_covariance(self, coords) -> np.ndarray:
        return gram_matrix(self.kernel, coords, self.inducing.points)

    def features(self, coords) -> np.ndarray:
        """Rows z(s_i)^T of the feature matrix, by forward triangular solve."""
        knq = self.cross_covariance(coords)
        return solve_triangular(self.chol_factor, knq.T, lower=True).T

    def low_rank_gram(self, coords) -> np.ndarray:
        z = self.features(coords)
        return z @ z.T


def build_nystrom(inducing: InducingSet, kernel: KernelSpec) -> NystromMap:
    kernel.validate()
    kq = gram_matrix(kernel, inducing.points)
    factor, jit = chol_with_jitter(kq, kernel.noise)
    return NystromMap(inducing, kernel, factor, jit)


class GpTerm:
    """Spatial adjustment U(s) = w^T z(s) with trainable w.

    When ``train_lengthscale`` is set the kernel lengthscale becomes a second
    trainable parameter and features are recomputed from it on every forward
    pass; otherwise features are constants of the coordinates.
    """

    def __init__(self, nmap: NystromMap, train_lengthscale: bool = False):
        self.map = nmap
        self.weights = Tensor(np.zeros((nmap.q, 1)), requires_grad=True)
        self.train_lengthscale = bool(train_lengthscale)
        self.lengthscale = (Tensor(np.asarray(nmap.kernel.lengthscale), requires_grad=True)
                            if train_lengthscale else None)

    def parameters(self) -> list[Tensor]:
        params = [self.weights]
        if self.lengthscale is not None:
            params.append(self.lengthscale)
        return params

    def features_op(self, coords) -> Tensor:
        """Feature matrix as an engine tensor; differentiable in l if trainable."""
        if not self.train_lengthscale:
            return Tensor(self.map.features(coords))
        return _features_with_lengthscale_grad(self, coords)

    def values_op(self, coords) -> Tensor:
        """(n, 1) adjustment values; differentiable in w (and l if trainable)."""
        return E.matmul(self.features_op(coords), self.weights)

    def features_np(self, coords) -> np.ndarray:
        """Features at the current parameter values as a plain array.

        Kept only because ``perfbench/tracing.py`` wraps it by name.
        """
        return self.features_op(coords).data


def _features_with_lengthscale_grad(term: GpTerm, coords) -> Tensor:
    """Features at the current lengthscale with a hand-built vjp.

    l is scalar, so the full Jacobian dZ/dl is a single directional
    derivative; the vjp computes it, so a forward outside a tape skips it.
    Using dL = L*Phi(L^{-1} dKq L^{-T}) with Phi = lower triangle and halved
    diagonal, the feature differential is dZ^T = L^{-1} (dKnq^T - dL Z^T).
    """
    l_param = term.lengthscale
    ls = float(l_param.data.reshape(()))
    if ls <= 0:
        raise NumericError(f"lengthscale became nonpositive during training: {ls}")
    kernel = term.map.kernel
    pts = term.map.inducing.points
    d_qq = cdist(pts, pts)
    d_nq = cdist(_as_coords(coords), pts)
    kq = kernel_matrix_from_dist(kernel, d_qq, ls)
    kq = 0.5 * (kq + kq.T)
    knq = kernel_matrix_from_dist(kernel, d_nq, ls)
    factor, _ = chol_with_jitter(kq, kernel.noise)
    zt = solve_triangular(factor, knq.T, lower=True)

    def vjp(g):
        dkq = _dkernel_dl_from_dist(kernel, kq, d_qq, ls)
        dknq = _dkernel_dl_from_dist(kernel, knq, d_nq, ls)
        inner = solve_triangular(factor, dkq, lower=True)
        inner = solve_triangular(factor, inner.T, lower=True)      # L^{-1} dKq L^{-T}
        phi = np.tril(inner)
        np.fill_diagonal(phi, 0.5 * np.diag(inner))
        dfactor = factor @ phi
        dz = solve_triangular(factor, dknq.T - dfactor @ zt, lower=True).T
        return (np.asarray(np.sum(g * dz)).reshape(l_param.data.shape),)

    return E._record("gp_features", (l_param,), zt.T.copy(), vjp)


def gp_value(term: GpTerm, s) -> Tensor:
    """Scalar adjustment at one coordinate, as a differentiable engine value."""
    coords = np.atleast_1d(np.asarray(s, dtype=np.float64))[None, :]
    return E.reshape(term.values_op(coords), ())


def sample_gp(coords, kernel: KernelSpec, seed: int, n_draws: int | None = None) -> np.ndarray:
    """Exact zero-mean draws via dense Cholesky of the jittered Gram matrix.

    Returns shape (N,) by default, or (n_draws, N) when n_draws is given.
    """
    kernel.validate()
    pts = _as_coords(coords)
    n = pts.shape[0]
    if n > 10_000:
        raise ContractError(f"dense sampling limited to 10000 points, got {n}")
    gram = gram_matrix(kernel, pts)
    factor, _ = chol_with_jitter(gram, kernel.noise)
    rng = np.random.default_rng(seed)
    if n_draws is None:
        return factor @ rng.standard_normal(n)
    return (factor @ rng.standard_normal((n, int(n_draws)))).T


def sample_gp_grid(rows: int, cols: int, kernel: KernelSpec, resolution: float,
                   seed: int, n_draws: int | None = None) -> np.ndarray:
    """Zero-mean stationary field on a regular grid via circulant embedding.

    The kernel is wrapped onto a torus twice the grid size, diagonalized by
    FFT, and sampled spectrally.  Slightly negative embedding eigenvalues are
    clipped to zero; for the kernels used here the clipped mass is negligible.
    Returns (rows, cols) or (n_draws, rows, cols).
    """
    kernel.validate()
    if rows < 1 or cols < 1 or resolution <= 0:
        raise ContractError(f"bad grid geometry rows={rows} cols={cols} res={resolution}")
    p, q = 2 * rows, 2 * cols
    di = np.minimum(np.arange(p), p - np.arange(p)) * resolution
    dj = np.minimum(np.arange(q), q - np.arange(q)) * resolution
    dist = np.sqrt(di[:, None] ** 2 + dj[None, :] ** 2)
    cov = kernel_matrix_from_dist(kernel, dist)
    lam = np.fft.fft2(cov).real
    lam = np.maximum(lam, 0.0)
    rng = np.random.default_rng(seed)
    count = 1 if n_draws is None else int(n_draws)
    out = np.empty((count, rows, cols))
    root = np.sqrt(lam / (p * q))
    for k in range(count):
        noise = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
        field = np.fft.fft2(root * noise)
        out[k] = field.real[:rows, :cols]
    if n_draws is None:
        return out[0]
    return out
