"""Grid-search hyperparameter tuning by validation AUC.

The search space covers up to three axes depending on the detector
config: the EC shape nu, the kernel lengthscale sigma, and the kernel
regularizer lambda. Default grids:

    nu      100 points, log-spaced over [1e-5, 1e10]
    sigma   60 points, log-spaced multipliers over [1e-3, 1e3] applied to
            a pairwise-distance heuristic anchor
    lambda  30 points, log-spaced over [1e-10, 10^2.5]

Training pixels are drawn from non-anomalous positions only; validation
pixels are drawn from the remainder and keep both classes. Neither the
fit nor the validation xi depends on nu, so nu is swept over cached xi
values. In kernel mode neither the Gram matrix nor the validation
cross-kernel depends on lambda either: per sigma and term the search
eigendecomposes the Gram matrix once and gets the validation xi of every
lambda from one projection (detectors.xi_kernel_path), instead of
refitting per (sigma, lambda). Linear mode fits once. Each AUC is
counted by metrics.auc_score without building a ROC curve, so either way
each trace AUC equals, bit for bit, roc_curve's validation AUC of a refit
at its point.

`default_grid` fills exactly the axes a config exposes, and `grid_search`
rejects a grid that fills any other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detectors import (
    DetectorConfig,
    _fit_rows,
    _xi_rows,
    combine_xi,
    kernel_lambda,
    standardized_training,
    with_params,
    xi_kernel_path,
)
from .kernels import sigma_heuristic
from .metrics import DegenerateLabelsError, auc_score
from .raster import as_pixel_matrix, sample_pixels, stack_pair, standardize_apply

__all__ = [
    "TuneGrid",
    "GridPoint",
    "TuneResult",
    "anchor_sigma",
    "default_grid",
    "training_draw",
    "split_train_val",
    "grid_search",
]

NU_RANGE = (1e-5, 1e10, 100)
SIGMA_MULTIPLIER_RANGE = (1e-3, 1e3, 60)
LAMBDA_RANGE = (1e-10, 10.0**2.5, 30)


def _log_grid(lo: float, hi: float, num: int) -> np.ndarray:
    grid = np.logspace(np.log10(lo), np.log10(hi), num)
    grid[0], grid[-1] = lo, hi  # pin endpoints exactly
    return grid


def _check_grid_axis(values: np.ndarray, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"{name} grid must be 1-d")
    if values.size:
        if not np.all(values > 0):
            raise ValueError(f"{name} grid entries must be strictly positive")
        if not np.all(np.diff(values) >= 0):
            raise ValueError(f"{name} grid must be sorted ascending")
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class TuneGrid:
    """Candidate values per axis; an empty axis is not tuned."""

    nu_grid: np.ndarray = field(default_factory=lambda: np.array([]))
    sigma_grid: np.ndarray = field(default_factory=lambda: np.array([]))
    lambda_grid: np.ndarray = field(default_factory=lambda: np.array([]))

    def __post_init__(self):
        object.__setattr__(self, "nu_grid", _check_grid_axis(self.nu_grid, "nu"))
        object.__setattr__(self, "sigma_grid", _check_grid_axis(self.sigma_grid, "sigma"))
        object.__setattr__(self, "lambda_grid", _check_grid_axis(self.lambda_grid, "lambda"))


@dataclass(frozen=True)
class GridPoint:
    """One parameter combination; None marks an axis that was not tuned."""

    nu: float | None = None
    sigma: float | None = None
    lam: float | None = None


@dataclass(frozen=True)
class TuneResult:
    best_params: GridPoint
    best_val_auc: float
    trace: tuple  # of (GridPoint, auc), in canonical grid order


def anchor_sigma(x_train: np.ndarray, y_train: np.ndarray) -> float:
    """Bandwidth anchor: pairwise-distance heuristic on standardized stacked rows.

    x_train and y_train are validated here.
    """
    x_train = as_pixel_matrix(x_train)
    y_train = as_pixel_matrix(y_train)
    return sigma_heuristic(standardized_training(x_train, y_train)[4])


def _exposed_axes(config: DetectorConfig) -> tuple[bool, bool, bool]:
    """Whether the config has a (nu, sigma, lambda) to tune; the linear kernel has no sigma."""
    kernel = config.mode == "kernel"
    return config.distribution == "ec", kernel and config.kernel.kind != "linear", kernel


def default_grid(config: DetectorConfig, heuristic_sigma: float | None = None) -> TuneGrid:
    """Default grids for the axes the config exposes; the others stay empty."""
    has_nu, has_sigma, has_lambda = _exposed_axes(config)
    if has_sigma and (heuristic_sigma is None or not heuristic_sigma > 0):
        raise ValueError("a sigma axis requires a positive heuristic sigma")
    empty = np.array([])
    return TuneGrid(
        nu_grid=_log_grid(*NU_RANGE) if has_nu else empty,
        sigma_grid=heuristic_sigma * _log_grid(*SIGMA_MULTIPLIER_RANGE) if has_sigma else empty,
        lambda_grid=_log_grid(*LAMBDA_RANGE) if has_lambda else empty,
    )


def training_draw(
    n_total: int, n_train: int, seed: int, labels: np.ndarray | None = None
) -> np.ndarray:
    """Seeded draw of n_train distinct indices among the non-anomalous pixels.

    Pixels whose label is 0 are background; without labels every pixel is.
    """
    if labels is None:
        background = np.arange(n_total)
    else:
        background = np.nonzero(labels == 0)[0]
    if n_train > background.size:
        raise ValueError(
            f"not enough non-anomalous pixels: need {n_train}, have {background.size}"
        )
    return background[sample_pixels(background.size, n_train, seed)]


def split_train_val(
    labels: np.ndarray, n_train: int, n_val: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded train/validation index split.

    Training indices come from non-anomalous pixels only; validation
    indices come from the remaining pixels and must contain both classes.
    Draw order: training draw with `seed`, validation draw with `seed + 1`.
    """
    labels = (np.asarray(labels).ravel() > 0).astype(np.int64)
    n_total = labels.size
    train_idx = training_draw(n_total, n_train, seed, labels)
    if n_train + n_val > n_total:
        raise ValueError("n_train + n_val exceeds available pixels")
    mask = np.ones(n_total, dtype=bool)
    mask[train_idx] = False
    rest = np.nonzero(mask)[0]
    val_idx = rest[sample_pixels(rest.size, n_val, seed + 1)]
    val_labels = labels[val_idx]
    if val_labels.min() == val_labels.max():
        raise DegenerateLabelsError("validation draw has a single class")
    return train_idx, val_idx


def grid_search(
    x: np.ndarray,
    y: np.ndarray,
    labels: np.ndarray,
    config: DetectorConfig,
    grid: TuneGrid | None,
    n_train: int,
    n_val: int,
    seed: int,
) -> TuneResult:
    """Exhaustive search maximizing validation AUC.

    Ties break toward the smallest parameters, nu first, then sigma, then
    lambda. The trace lists every grid point in canonical (nu, sigma,
    lambda) nested order. Passing grid=None builds the default grid; a
    sigma axis, if the config has one, is anchored at the mean
    pairwise-distance heuristic of the training draw. x and y are
    validated here, once, and a grid that fills an axis the config does
    not expose is rejected before any draw.
    """
    x = as_pixel_matrix(x)
    y = as_pixel_matrix(y)
    if grid is not None:
        axes = (("nu", grid.nu_grid), ("sigma", grid.sigma_grid), ("lambda", grid.lambda_grid))
        for (name, values), exposed in zip(axes, _exposed_axes(config)):
            if values.size and not exposed:
                raise ValueError(f"{name} grid given, but the config has no {name} to tune")
    train_idx, val_idx = split_train_val(labels, n_train, n_val, seed)
    x_tr, y_tr = x[train_idx], y[train_idx]
    x_val, y_val = x[val_idx], y[val_idx]
    val_labels = (np.asarray(labels).ravel() > 0).astype(np.int64)[val_idx]

    if config.mode == "kernel":
        stats_x, stats_y, xs, ys, zs = standardized_training(x_tr, y_tr)
        xvs = standardize_apply(x_val, stats_x)
        yvs = standardize_apply(y_val, stats_y)
        term_rows = ((zs, stack_pair(xvs, yvs)), (xs, xvs), (ys, yvs))
    if grid is None:
        has_sigma = _exposed_axes(config)[1]  # only in kernel mode, where zs exists
        grid = default_grid(config, sigma_heuristic(zs) if has_sigma else None)

    nu_values = list(grid.nu_grid) if grid.nu_grid.size else [None]
    sigma_values = list(grid.sigma_grid) if grid.sigma_grid.size else [None]
    lambda_values = list(grid.lambda_grid) if grid.lambda_grid.size else [None]

    def xi_per_lambda(sigma):
        """Validation (xi_z, xi_x, xi_y) for each lambda value, at one sigma."""
        if config.mode == "linear":  # no sigma or lambda axis
            return [_xi_rows(_fit_rows(x_tr, y_tr, config), x_val, y_val)]
        sigma_config = with_params(config, sigma=sigma)
        lams = [kernel_lambda(with_params(sigma_config, lam=lam), n_train)
                for lam in lambda_values]
        xi_z, xi_x, xi_y = (xi_kernel_path(train, val, sigma_config.kernel, lams)
                            for train, val in term_rows)
        return list(zip(xi_z, xi_x, xi_y))

    # nu only affects the score combination, so it is swept over the cached
    # xi triplets of each (sigma, lambda). Gaussian scores take no nu at all.
    d_x, d_y = x.shape[1], y.shape[1]
    nu_configs = [with_params(config, nu=nu) if config.distribution == "ec" else config
                  for nu in nu_values]
    entries = {}
    for i_s, sigma in enumerate(sigma_values):
        for i_l, (lam, xi) in enumerate(zip(lambda_values, xi_per_lambda(sigma))):
            for i_n, (nu, nu_config) in enumerate(zip(nu_values, nu_configs)):
                scores = combine_xi(*xi, nu_config, d_x, d_y)
                auc = auc_score(scores, val_labels)
                entries[(i_n, i_s, i_l)] = (GridPoint(nu=nu, sigma=sigma, lam=lam), auc)

    trace = tuple(entries[key] for key in sorted(entries))
    best_params, best_auc = trace[0]
    for point, auc in trace[1:]:
        if auc > best_auc:
            best_params, best_auc = point, auc
    return TuneResult(best_params=best_params, best_val_auc=best_auc, trace=trace)
