"""Grid-search hyperparameter tuning by validation AUC.

The search space covers up to three axes depending on the detector
config: the EC shape nu, the kernel lengthscale sigma, and the kernel
regularizer lambda. Default grids:

    nu      100 points, log-spaced over [1e-5, 1e10]
    sigma   60 points, log-spaced multipliers over [1e-3, 1e3] applied to
            a pairwise-distance heuristic anchor
    lambda  30 points, log-spaced over [1e-10, 10^2.5]

Training pixels are drawn from non-anomalous positions only; validation
pixels are drawn from the remainder and keep both classes. For each
sigma the search builds the detectors of the whole lambda axis with the
builder that `detectors.fit` uses at its one lambda: the terms are fit
once, each Gram matrix eigendecomposed once, and the detectors over them
differ only in the weights they derive from the config's lambda (linear
mode fits once). It scores them on the validation rows
in one pass of the scoring chunk loop, projecting each probe block once
for every lambda. Neither the fit nor the validation xi depends on nu,
so nu is swept over the cached xi, in blocks of k values sized so that
one (k, n_val) float64 block of scores is 256 KiB: one combine_xi call
scores a block, row for row as it scores one nu, and one
metrics.auc_score call counts its k AUCs without building a ROC curve.
So each trace AUC equals, bit for bit, roc_curve's validation AUC of a
refit at its point. The search returns the detector it scored at the
best point, with the best nu put in its config, so no refit is needed
to save it.

A TuneResult keeps one record of the search: the TuneGrid it searched
and the read-only (n_nu, n_sigma, n_lambda) array of validation AUCs.
The best point and its AUC are read off one argmax of that array, and
points() streams the trace from it, one (GridPoint, auc) pair at a time.
The `trace` property, a tuple of all the pairs, is kept only for the
benchmark harness under bench/, which reads it; it goes when the
harness streams points() too.

`default_grid` fills exactly the axes a config exposes, and `grid_search`
rejects a grid that fills any other.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .detectors import (
    DetectorConfig,
    FittedDetector,
    _fit_lambdas,
    _xi_rows,
    combine_xi,
    standardized_training,
    with_params,
)
from .kernels import sigma_heuristic
from .metrics import DegenerateLabelsError, auc_score
from .raster import as_pixel_matrix, sample_pixels

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

# tune sweeps nu in blocks of k = _NU_BLOCK // n_val values, so that one
# float64 (k, n_val) block of scores is 256 KiB and its passes stay in cache.
_NU_BLOCK = 32768


def _log_grid(lo: float, hi: float, num: int) -> np.ndarray:
    grid = np.logspace(np.log10(lo), np.log10(hi), num)
    grid[0], grid[-1] = lo, hi  # pin endpoints exactly
    return grid


def _check_grid_axis(values: np.ndarray, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"{name} grid must be 1-d")
    if values.size:
        if not np.all((values > 0) & np.isfinite(values)):
            raise ValueError(f"{name} grid entries must be finite and strictly positive")
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


def _axis_values(grid: TuneGrid) -> tuple[list, list, list]:
    """The (nu, sigma, lambda) axes' values, [None] for an axis that is not tuned."""
    return tuple(list(values) if values.size else [None]
                 for values in (grid.nu_grid, grid.sigma_grid, grid.lambda_grid))


def _first_max(aucs: np.ndarray) -> tuple[int, ...]:
    """Index of the first maximum in C order, which is the canonical (nu, sigma,
    lambda) order: ties break toward the smallest nu, then sigma, then lambda."""
    return np.unravel_index(int(np.argmax(aucs)), aucs.shape)


@dataclass(frozen=True, eq=False)
class TuneResult:
    """The searched grid, the validation AUC of each of its points, and the best detector.

    aucs is read-only, (n_nu, n_sigma, n_lambda), with size 1 on each axis the
    grid leaves empty; it is the only record of the search. best_detector is
    the detector the search scored at the best point, with the best nu in its
    config; it equals, array for array, a fit on the search's training draw at
    that point. Results hold arrays, so they compare by identity; compare
    aucs.tobytes(), the grid axes and best_params instead.
    """

    grid: TuneGrid
    aucs: np.ndarray
    best_detector: FittedDetector = field(repr=False)

    @property
    def best_params(self) -> GridPoint:
        best = _first_max(self.aucs)
        return GridPoint(*(axis[i] for axis, i in zip(_axis_values(self.grid), best)))

    @property
    def best_val_auc(self) -> float:
        return float(self.aucs[_first_max(self.aucs)])

    def points(self) -> Iterator[tuple[GridPoint, float]]:
        """Yield (GridPoint, auc) for every grid point, in canonical (nu, sigma,
        lambda) nested order, without holding the pairs."""
        for params, auc in zip(product(*_axis_values(self.grid)), self.aucs.flat):
            yield GridPoint(*params), float(auc)

    @property
    def trace(self) -> tuple:
        """tuple(self.points()), for the benchmark harness: bench/child.py writes it
        and bench/tracer.py counts it. It goes once they read points(), as all other
        code does."""
        return tuple(self.points())


def anchor_sigma(x_train: np.ndarray, y_train: np.ndarray) -> float:
    """Bandwidth anchor: pairwise-distance heuristic on standardized stacked rows.

    x_train and y_train are validated here, and float32 rows are converted to float64 here.
    """
    x_train, y_train = (np.asarray(as_pixel_matrix(m), dtype=np.float64)
                        for m in (x_train, y_train))
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
    lambda. The result's points() lists every grid point in canonical (nu,
    sigma, lambda) nested order. Passing grid=None builds the default grid; a
    sigma axis, if the config has one, is anchored at the mean
    pairwise-distance heuristic of the training draw. x and y are
    validated here, once, and a grid that fills an axis the config does
    not expose is rejected before any draw. The drawn training and
    validation rows are converted to float64 after they are gathered, so
    float32 x and y are not copied whole.
    """
    x = as_pixel_matrix(x)
    y = as_pixel_matrix(y)
    if grid is not None:
        axes = (("nu", grid.nu_grid), ("sigma", grid.sigma_grid), ("lambda", grid.lambda_grid))
        for (name, values), exposed in zip(axes, _exposed_axes(config)):
            if values.size and not exposed:
                raise ValueError(f"{name} grid given, but the config has no {name} to tune")
    train_idx, val_idx = split_train_val(labels, n_train, n_val, seed)
    x_tr, y_tr, x_val, y_val = (np.asarray(m[idx], dtype=np.float64)
                                for idx in (train_idx, val_idx) for m in (x, y))
    val_labels = (np.asarray(labels).ravel()[val_idx] > 0).astype(np.int64)
    training = standardized_training(x_tr, y_tr)

    if grid is None:
        has_sigma = _exposed_axes(config)[1]
        grid = default_grid(config, sigma_heuristic(training[4]) if has_sigma else None)

    # Per sigma, the terms come from one eigendecomposition per Gram matrix,
    # and the detectors of the whole lambda axis, which differ only in the
    # weights they derive, are scored in one pass over them. nu only
    # affects the score combination, so it is swept over their cached xi in
    # blocks of k values: one (k, n_val) combination and one auc_score call
    # per block. Without a nu axis (Gaussian scores take no nu at all) that
    # is one call per lambda. A sigma's detector is kept while the first
    # maximum of the slabs searched so far lies in its slab, so only the best
    # point's detector outlives its sigma.
    d_x, d_y = x.shape[1], y.shape[1]
    k = max(1, _NU_BLOCK // n_val)
    nu_blocks = ([(slice(i, i + k), grid.nu_grid[i:i + k, None])
                  for i in range(0, grid.nu_grid.size, k)] or [(slice(None), None)])
    nu_values, sigma_values, lambda_values = _axis_values(grid)
    aucs = np.empty((len(nu_values), len(sigma_values), len(lambda_values)))
    best_detector = None
    for i_s, sigma in enumerate(sigma_values):
        dets = _fit_lambdas(training, with_params(config, sigma=sigma), lambda_values)
        for i_l, xi in enumerate(_xi_rows(dets, x_val, y_val)):
            for rows, nu in nu_blocks:
                aucs[rows, i_s, i_l] = auc_score(combine_xi(*xi, config, d_x, d_y, nu=nu),
                                                 val_labels)
        _, i_best, i_l = _first_max(aucs[:, :i_s + 1])
        if i_best == i_s:
            best_detector = dets[i_l]
        del dets, xi  # so they do not coexist with the next sigma's

    aucs.flags.writeable = False
    best_nu = nu_values[_first_max(aucs)[0]]
    best_detector = replace(best_detector, config=with_params(best_detector.config, nu=best_nu))
    return TuneResult(grid=grid, aucs=aucs, best_detector=best_detector)
