"""Anomalous change detectors for co-registered multiband image pairs.

A fitted detector scores each pixel pair (x_i, y_i) by how anomalous the
joint observation z_i = [x_i, y_i] is under the background model, minus
optional marginal penalties:

    score = xi(z_i) - beta_x * xi(x_i) - beta_y * xi(y_i)

where xi is a squared Mahalanobis distance, evaluated either in input
space (linear mode) or implicitly in a reproducing-kernel Hilbert space
(kernel mode). The beta flags pick the family member:

    beta_x  beta_y  name
      0       0     rx      joint anomalousness only
      0       1     yx      discount pixels whose y is itself anomalous
      1       0     xy      discount pixels whose x is itself anomalous
      1       1     hacd    discount both marginals (hyperbolic boundaries)

Two score combinations are available. The Gaussian combination uses the
xi values directly. The elliptically-contoured (EC) combination wraps
each xi in a Student-t flavored rescaling (dim + nu) * log1p(xi / nu);
as nu grows it reproduces the Gaussian ordering.

Every term computes xi as one whitened quadratic form, with a basis U and
positive weights w: xi(v) = sum_j p_j^2 w_j for p = (phi(v) - c) U. A term
stores U and its spectrum s; the detector derives w, so lambda is the
config's alone. Linear terms take phi(v) = v, c the training mean,
C = U diag(s) U^T the training covariance and w = 1 / (s + eps),
eps = 1e-8 trace(C)/d. Kernel terms evaluate the regularized dual form

    xi_H(v) = k_v (K K + lambda I)^-1 k_v^T

with phi(v) = k_v the probe-to-training kernel row, c = 0, the Gram matrix
K = U diag(s) U^T and w = 1 / (s^2 + lambda), without forming K K.

With a linear kernel, negligible lambda, and more samples than features
this reduces to the uncentered input-space quadratic form v (X^T X)^-1 v.

The kernel on z = [x, y] has one rule, for the training Gram matrix K_z
and the probe kernel alike: where the kernel splits over x and y
(kernels.joint_kernel), k_z is built from k_x and k_y, not evaluated
again: k_x * k_y for rbf (one sigma) and k_x + k_y for the linear kernel.
The sam kernel is evaluated on the stacked rows themselves. So term_z's
training rows are always [term_x.train | term_y.train], and not saved.

Inputs are z-score standardized per band with statistics fit on the
training pixels; Gram matrices are not centered in feature space. One
chunk loop scores both term kinds, which differ only in phi and c.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .kernels import _F64_MAX, KernelSpec, cross_gram, gram, joint_kernel
from .linalg import SpdEigen, covariance, inverse_weights, mahalanobis_batch, spd_factorize
from .raster import (
    BandStats,
    _pixel_pair,
    _readonly,
    stack_pair,
    standardize_apply,
    standardize_fit,
)

__all__ = [
    "DETECTOR_BETAS",
    "DetectorConfig",
    "LinearTerm",
    "KernelTerm",
    "FittedDetector",
    "standardized_training",
    "fit",
    "fit_kernel_term",
    "xi_pixels",
    "combine_xi",
    "score_pixels",
    "with_params",
]

# Table of beta flags per detector name.
DETECTOR_BETAS = {"rx": (0, 0), "yx": (0, 1), "xy": (1, 0), "hacd": (1, 1)}

# Default kernel regularizer is AUTO_LAMBDA_NUM / n_train.
AUTO_LAMBDA_NUM = 1e-5

# Pixels are scored in chunks of this many rows. A kernel model's chunk
# reuses three (_SCORE_CHUNK, n_train) float64 blocks, for k_x, k_y -> k_z
# and the GEMM output: 8 MiB each at 1000 training rows, so the elementwise
# passes over them stay close to the cache. tune scores the detectors of a
# whole lambda axis in one pass of this loop, so each trace AUC is that of
# a refit at its point, bit for bit.
_SCORE_CHUNK = 1024


@dataclass(frozen=True)
class DetectorConfig:
    """Which family member to build and how.

    nu: EC shape; only the ec distribution takes one.
    kernel, lam: kernel spec and regularizer; only kernel mode takes them,
    and lam None means auto (1e-5 / n_train).
    """

    beta_x: int = 1
    beta_y: int = 1
    distribution: str = "gaussian"
    nu: float | None = None
    mode: str = "linear"
    kernel: KernelSpec | None = None
    lam: float | None = None

    def __post_init__(self):
        if self.beta_x not in (0, 1) or self.beta_y not in (0, 1):
            raise ValueError("beta flags must be 0 or 1")
        if self.distribution not in ("gaussian", "ec"):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.distribution == "ec":
            if self.nu is None or not 0 < self.nu <= _F64_MAX:  # False for NaN
                raise ValueError("ec distribution requires a finite nu > 0")
        elif self.nu is not None:
            raise ValueError("nu applies to the ec distribution only")
        if self.mode not in ("linear", "kernel"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "kernel":
            if self.kernel is None:
                raise ValueError("kernel mode requires a kernel spec")
            if self.lam is not None and not 0 < self.lam <= _F64_MAX:
                raise ValueError("lam must be finite and positive (or None for auto)")
        elif self.kernel is not None:
            raise ValueError("a kernel spec applies to kernel mode only")
        elif self.lam is not None:
            raise ValueError("lam applies to kernel mode only")


def _freeze(term, k: int, **arrays) -> None:
    """Store read-only float64 arrays on a term, then check its basis (k x k) and spectrum (k)."""
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(term, name, arr)
    if term.basis.shape != (k, k) or term.values.shape != (k,):
        raise ValueError(f"basis and values must have shapes ({k}, {k}) and ({k},)")


@dataclass(frozen=True)
class LinearTerm:
    """One term (x, y, or z) in input space: the training mean, and the
    eigendecomposition C = U diag(s) U^T of the training covariance (basis =
    U, values = s) with the ridge its weights 1 / (s + ridge) add."""

    mean: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    ridge: float

    def __post_init__(self):
        _freeze(self, np.size(self.mean), mean=self.mean, basis=self.basis, values=self.values)

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class KernelTerm:
    """One term in feature space: finite 2-d float64 training rows, and the
    eigendecomposition K = U diag(s) U^T of their Gram matrix (basis = U,
    values = s)."""

    train: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        _freeze(self, np.shape(self.train)[0], train=self.train, basis=self.basis,
                values=self.values)

    @property
    def dim(self) -> int:
        return self.train.shape[1]


@dataclass(frozen=True)
class FittedDetector:
    """Band stats and terms of a fit; weights (z, x, y) are derived here from the spectra."""

    config: DetectorConfig
    band_stats_x: BandStats
    band_stats_y: BandStats
    term_x: LinearTerm | KernelTerm
    term_y: LinearTerm | KernelTerm
    term_z: LinearTerm | KernelTerm
    weights: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        terms = (self.term_z, self.term_x, self.term_y)
        if tuple(term.dim for term in terms) != (self.d_x + self.d_y, self.d_x, self.d_y):
            raise ValueError("terms must have the band stats' d_x + d_y, d_x and d_y dims")
        kind = LinearTerm if self.config.mode == "linear" else KernelTerm
        if not all(isinstance(term, kind) for term in terms):
            raise ValueError(f"config mode {self.config.mode!r} needs {self.config.mode} terms")
        if kind is KernelTerm and len({term.train.shape[0] for term in terms}) != 1:
            raise ValueError("kernel terms must share one training row count")
        object.__setattr__(self, "weights",
                           tuple(_readonly(_term_weights(term, self.config)) for term in terms))

    @property
    def d_x(self) -> int:
        return self.band_stats_x.d

    @property
    def d_y(self) -> int:
        return self.band_stats_y.d


def _term_weights(term, config: DetectorConfig) -> np.ndarray:
    """w = 1 / (s + ridge) for a linear term, 1 / (s^2 + lambda) for a kernel term, with
    lambda the config's, or auto: AUTO_LAMBDA_NUM / n_train for lam None."""
    if isinstance(term, LinearTerm):
        return inverse_weights(term.values, term.ridge)
    lam = config.lam if config.lam is not None else AUTO_LAMBDA_NUM / term.train.shape[0]
    return inverse_weights(term.values * term.values, lam)


def _fit_linear_term(rows: np.ndarray) -> LinearTerm:
    mean = rows.mean(axis=0)
    eig = spd_factorize(covariance(rows, mean))
    return LinearTerm(mean=mean, basis=eig.basis, values=eig.values, ridge=eig.ridge)


def fit_kernel_term(train: np.ndarray, eig: SpdEigen) -> KernelTerm:
    """Kernel term on finite 2-d float64 rows and the eigh of their Gram matrix."""
    return KernelTerm(train=train, basis=eig.basis, values=eig.values)


def standardized_training(x_train: np.ndarray, y_train: np.ndarray):
    """Band stats fit on a training pair, and its standardized x, y and stacked z rows.

    Expects finite 2-d float64 rows; returns (stats_x, stats_y, xs, ys, zs).
    """
    stats_x = standardize_fit(x_train)
    stats_y = standardize_fit(y_train)
    xs = standardize_apply(x_train, stats_x)
    ys = standardize_apply(y_train, stats_y)
    return stats_x, stats_y, xs, ys, stack_pair(xs, ys)


def fit(x_train: np.ndarray, y_train: np.ndarray, config: DetectorConfig) -> FittedDetector:
    """Fit per-term statistics on a training pair.

    Band standardization is fit on the training pixels and baked into the
    detector. Linear mode stores, for x, y and the stacked z, the mean and
    the covariance's eigendecomposition; kernel mode stores the standardized
    training rows and their Gram matrix's eigendecomposition per term.
    x_train and y_train are validated here, as a pixel pair, and float32
    rows are converted to float64 here; standardize_fit rejects fewer than
    two rows.
    """
    x_train, y_train = (np.asarray(m, dtype=np.float64) for m in _pixel_pair(x_train, y_train))
    return _fit_lambdas(standardized_training(x_train, y_train), config, [None])[0]


def _fit_lambdas(training: tuple, config: DetectorConfig, lams: list) -> list:
    """The detectors of config at each lambda of lams, on standardized_training's output.

    A None in lams keeps config's own lam, so linear mode takes [None]. The
    terms are fit once for every lambda, and the detectors differ only in
    the weights they derive. Kernel mode eigendecomposes each term's Gram
    matrix; K_z follows the joint rule and is built in place of K_x once
    K_x and K_y are factorized, so no more than two n x n Gram matrices are
    held.
    """
    stats_x, stats_y, xs, ys, zs = training
    if config.mode == "linear":
        terms = [_fit_linear_term(rows) for rows in (zs, xs, ys)]
    else:
        spec = config.kernel
        k_x, k_y = gram(xs, spec), gram(ys, spec)
        eig_x = spd_factorize(k_x, ridge_scale=0.0)
        eig_y = spd_factorize(k_y, ridge_scale=0.0)
        k_z = joint_kernel(k_x, k_y, spec, out=k_x) if spec.joint_splits else None
        del k_x, k_y
        if k_z is None:
            k_z = gram(zs, spec)
        eigens = (spd_factorize(k_z, ridge_scale=0.0), eig_x, eig_y)
        del k_z
        terms = [fit_kernel_term(rows, eig) for rows, eig in zip((zs, xs, ys), eigens)]
    term_z, term_x, term_y = terms
    return [FittedDetector(config=with_params(config, lam=lam), band_stats_x=stats_x,
                           band_stats_y=stats_y, term_x=term_x, term_y=term_y, term_z=term_z)
            for lam in lams]


def combine_xi(
    xi_z: np.ndarray,
    xi_x: np.ndarray,
    xi_y: np.ndarray,
    config: DetectorConfig,
    d_x: int,
    d_y: int,
    nu: np.ndarray | None = None,
) -> np.ndarray:
    """Combine per-term xi values into final scores per the config.

    Gaussian: xi_z - beta_x * xi_x - beta_y * xi_y. EC with Student-t
    shape nu: each xi becomes (dim + nu) * log1p(xi / nu), with dim that
    term's own input dimensionality, so unequal band counts d_x != d_y are
    handled consistently. Where xi / nu overflows (a tiny nu), log1p(xi / nu)
    is taken as log(nu + xi) - log(nu), so finite xi give finite scores.

    nu, for an ec config only, is a (k, 1) column of shapes that replaces
    config.nu: the scores of n pixels come back as (k, n), and row j equals
    the call at config.nu = nu[j] bit for bit. A call without nu is row 0
    of the call with the column [[config.nu]]. The fallback is taken per
    row, for the rows with a non-finite score.
    """
    beta_x, beta_y = config.beta_x, config.beta_y
    if config.distribution == "gaussian":
        if nu is not None:
            raise ValueError("nu applies to the ec distribution only")
        return xi_z - beta_x * xi_x - beta_y * xi_y

    def ec(nu, log1p_ratio):
        score = log1p_ratio(xi_z, nu)
        score *= d_x + d_y + nu
        for beta, d, xi in ((beta_x, d_x, xi_x), (beta_y, d_y, xi_y)):
            if beta:
                term = log1p_ratio(xi, nu)
                term *= d + nu
                score -= term
        return score

    def direct(xi, nu):
        return np.log1p(xi / nu)

    def fallback(xi, nu):
        return np.log(nu + xi) - np.log(nu)

    column = np.array([[config.nu]]) if nu is None else nu
    with np.errstate(over="ignore", invalid="ignore"):  # the check below sees an overflow
        score = ec(column, direct)
        # min and max propagate NaN, and an infinity is one of them, so no (k, n) bool
        # temporary is made; initial=0.0 passes a row of no pixels
        bad = ~(np.isfinite(score.min(axis=1, initial=0.0))
                & np.isfinite(score.max(axis=1, initial=0.0)))
        if bad.any():
            score[bad] = ec(column[bad], fallback)
    return score if nu is not None else score[0]


def xi_pixels(det: FittedDetector, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-pixel xi as a (3, n) array whose rows are xi_z, xi_x and xi_y.

    x and y are validated here, as a pixel pair with the detector's band
    counts. The one chunk loop converts each _SCORE_CHUNK rows to float64,
    standardizes them and projects them for each term in turn, so no
    full-scene copy is made (float32 pixels stay float32) and a kernel model
    keeps three _SCORE_CHUNK x n_train blocks.
    """
    x, y = _pixel_pair(x, y)
    if x.shape[1] != det.d_x or y.shape[1] != det.d_y:
        raise ValueError(
            f"band-count mismatch: expected ({det.d_x}, {det.d_y}), "
            f"got ({x.shape[1]}, {y.shape[1]})"
        )
    return _xi_rows([det], x, y)[0]


def _xi_rows(dets: list, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """xi_pixels of each of dets, detectors that differ only in lambda, as a (len(dets), 3, n)
    array, on a checked pixel pair with their band counts. Per chunk, x and y are standardized
    once and each term's projection p is made once, then weighted by each detector.

    Every block a chunk fills is allocated once per call. For linear terms,
    whose chunks are mostly elementwise work, the band stats and each term's
    mean are tiled to chunk height once, so no ufunc broadcasts a row across
    a chunk; a kernel chunk's GEMMs dwarf that broadcast, so its stats stay
    one row and its memory stays its three blocks. No arithmetic is
    reordered: each value keeps the bits of the broadcast form.
    """
    det = dets[0]
    n, height = x.shape[0], min(x.shape[0], _SCORE_CHUNK)
    weights = [[d.weights[i] for d in dets] for i in range(3)]
    if det.config.mode == "kernel":
        tile_height, project = 1, _kernel_projections
        blocks = np.empty((3, height, det.term_z.train.shape[0]))
    else:  # per term: its tiled mean, and its centered rows and their projection
        tile_height, project = height, _linear_projections
        blocks = [(np.tile(term.mean, (height, 1)), np.empty((height, term.dim)),
                   np.empty((height, term.dim))) for term in (det.term_z, det.term_x, det.term_y)]
    stats = (det.band_stats_x, det.band_stats_y)
    tiles = [(np.tile(s.mean, (tile_height, 1)), np.tile(s.std, (tile_height, 1))) for s in stats]
    xs, ys = (np.empty((height, s.d)) for s in stats)
    xi = np.empty((len(dets), 3, n))
    for start in range(0, n, _SCORE_CHUNK):
        stop = min(start + _SCORE_CHUNK, n)
        m = stop - start
        for rows, out, (mean, std) in zip((x[start:stop], y[start:stop]), (xs, ys), tiles):
            out = out[:m]
            np.copyto(out, rows)  # float32 -> float64 is exact, and float64 ufuncs run faster
            np.subtract(out, mean[:m], out=out)
            np.divide(out, std[:m], out=out)
        for i, p in project(det, xs[:m], ys[:m], blocks):
            mahalanobis_batch(p, weights[i], out=xi[:, i, start:stop])
    return xi


def _linear_projections(det: FittedDetector, xs: np.ndarray, ys: np.ndarray, blocks):
    """(term index, (v - mean) U) of a linear detector's z, x and y terms on one standardized
    chunk, each centered into its term's blocks. z's rows [xs | ys] are copied into its block
    and centered there: a ufunc writing half of each row loops over one row at a time."""
    m = xs.shape[0]
    z = np.concatenate((xs, ys), axis=1, out=blocks[0][1][:m])
    terms = (det.term_z, det.term_x, det.term_y)
    for i, (term, rows, (mean, c, p)) in enumerate(zip(terms, (z, xs, ys), blocks)):
        c = np.subtract(rows, mean[:m], out=c[:m])
        yield i, np.matmul(c, term.basis, out=p[:m])


def _kernel_projections(det: FittedDetector, xs: np.ndarray, ys: np.ndarray, blocks):
    """(term index, k_v U) of a kernel detector's x, y and z terms on one standardized chunk.
    k_x and k_y fill two blocks and each p the third, so each p must be used before the
    next; k_z is built in place of k_x (or evaluated on z, for sam)."""
    spec = det.config.kernel
    k_x, k_y, proj = blocks[:, : xs.shape[0]]
    k_x = cross_gram(det.term_x.train, xs, spec, out=k_x, work=proj)
    k_y = cross_gram(det.term_y.train, ys, spec, out=k_y, work=proj)
    yield 1, np.matmul(k_x, det.term_x.basis, out=proj)
    yield 2, np.matmul(k_y, det.term_y.basis, out=proj)
    if spec.joint_splits:
        k_z = joint_kernel(k_x, k_y, spec, out=k_x)
    else:
        k_z = cross_gram(det.term_z.train, stack_pair(xs, ys), spec, out=k_x, work=proj)
    yield 0, np.matmul(k_z, det.term_z.basis, out=proj)


def score_pixels(
    det: FittedDetector, x: np.ndarray, y: np.ndarray, threads: int = 1
) -> np.ndarray:
    """Per-pixel anomalousness scores, in input pixel order.

    threads is accepted and ignored: scoring runs in one loop (plus BLAS's
    own threads). It remains only for bench/child.py's threads1 probe.
    """
    xi_z, xi_x, xi_y = xi_pixels(det, x, y)
    return combine_xi(xi_z, xi_x, xi_y, det.config, det.d_x, det.d_y)


def with_params(
    config: DetectorConfig,
    nu: float | None = None,
    sigma: float | None = None,
    lam: float | None = None,
) -> DetectorConfig:
    """Copy a config with tuning parameters swapped in (None leaves as-is)."""
    out = config
    if nu is not None:
        out = replace(out, nu=nu)
    if sigma is not None:
        if out.kernel is None:
            raise ValueError("sigma given but config has no kernel")
        out = replace(out, kernel=replace(out.kernel, sigma=sigma))
    if lam is not None:
        out = replace(out, lam=lam)
    return out
