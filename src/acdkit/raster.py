"""Raster data model: cubes, pixel matrices, band standardization, sampling.

An image cube is the type of a raster file: one H x W x d array of
real-valued bands stored band-interleaved-by-pixel (row-major pixel order,
bands fastest), and nothing else; its dimensions are the array's shape.
The library computes on pixel matrices, numpy arrays of shape (n, d), one
spectrum per row. `flatten` views a cube's array as its rows without a
copy, and `ImageCube(rows.reshape(h, w, -1))` wraps rows back. A cube
keeps float32 values as float32, so a raster read from disk stays its
float32 payload, and stores any other values as float64.
Arithmetic runs in float64, on rows converted where it needs them (one
chunk, or the gathered training rows); float32 -> float64 is exact. The
containers here are immutable after construction; every operation here is
pure. A pixel pair enters the library once, through `_pixel_pair`: each
matrix through `as_pixel_matrix` (finite and 2-d), and the two with one
row count. The row helpers expect rows an entry has checked so, and
re-check none of it; `standardize_fit` still needs two rows, which a
caller's draw may not give.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ImageCube",
    "BandStats",
    "as_pixel_matrix",
    "flatten",
    "stack_pair",
    "standardize_fit",
    "standardize_apply",
    "sample_pixels",
]

# Relative threshold below which a band counts as constant.
DEGENERATE_STD_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.flags.writeable = False
    return a


def _real(a) -> np.ndarray:
    """a as an array: float32 as it is, anything else as float64."""
    a = np.asarray(a)
    return a if a.dtype == np.float32 else a.astype(np.float64, copy=False)


def _all_finite(a: np.ndarray) -> bool:
    """Whether every value of a float array is finite, with no elementwise temporary.

    min and max propagate NaN, and an infinity is the min or the max.
    """
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


@dataclass(frozen=True)
class ImageCube:
    """H x W x d raster of finite real values, bands interleaved by pixel.

    The one field is the (H, W, d) array, made read-only. float32 data is
    kept as float32, without a copy; other data is stored as float64.
    """

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        data = _real(self.data)
        if data.ndim != 3 or 0 in data.shape:
            raise ValueError("expected a 3-d (H, W, d) array with no zero dimension")
        if not _all_finite(data):
            raise ValueError("cube contains non-finite values")
        object.__setattr__(self, "data", _readonly(data))


@dataclass(frozen=True)
class BandStats:
    """Per-band mean and population standard deviation.

    Constant bands get std 1 so that standardization is always defined.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        if mean.ndim != 1 or std.shape != mean.shape:
            raise ValueError("mean and std must be 1-d vectors of equal length")
        if not np.all(std > 0):
            raise ValueError("std entries must be strictly positive")
        object.__setattr__(self, "mean", _readonly(mean))
        object.__setattr__(self, "std", _readonly(std))

    @property
    def d(self) -> int:
        return self.mean.shape[0]


def as_pixel_matrix(m: np.ndarray) -> np.ndarray:
    """Validate and return an (n, d) pixel matrix: float32 as given, anything else as float64."""
    m = _real(m)
    if m.ndim != 2:
        raise ValueError("pixel matrix must be 2-d (n, d)")
    if not _all_finite(m):
        raise ValueError("pixel matrix contains non-finite values")
    return m


def _pixel_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    """x and y as pixel matrices (as_pixel_matrix), rejected unless aligned row for row."""
    x, y = as_pixel_matrix(x), as_pixel_matrix(y)
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"unaligned pair: x has {x.shape[0]} rows, y has {y.shape[0]}")
    return x, y


def flatten(cube: ImageCube) -> np.ndarray:
    """Flatten a cube to an (H*W, d) matrix in row-major pixel order."""
    return cube.data.reshape(-1, cube.data.shape[2])


def stack_pair(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Concatenate finite 2-d float64 rows pairwise: row i becomes [x_i, y_i].

    Unaligned rows raise: a loaded kernel model's x and y training rows reach here unchecked.
    """
    if x.shape[0] != y.shape[0]:
        raise ValueError("unaligned pair: row counts differ "
                         f"({x.shape[0]} vs {y.shape[0]})")
    return np.hstack([x, y])


def standardize_fit(m: np.ndarray) -> BandStats:
    """Per-column mean and population std of finite 2-d float32 or float64 rows.

    Constant columns get std 1. Both accumulate in float64 (numpy sums
    axis 0 row by row), so float32 rows give the bits of their float64 copy
    without making one.
    """
    if m.shape[0] < 2:
        raise ValueError("need at least 2 rows to fit band statistics")
    mean = m.mean(axis=0, dtype=np.float64)
    std = m.std(axis=0, dtype=np.float64)  # population (1/n), consistent with covariance
    degenerate = std < DEGENERATE_STD_TOL * (np.abs(mean) + 1.0)
    std = np.where(degenerate, 1.0, std)
    return BandStats(mean=mean, std=std)


def standardize_apply(m: np.ndarray, s: BandStats) -> np.ndarray:
    """Apply (v - mean) / std per column of finite 2-d rows with s.d columns; the result
    is float64.

    float32 rows are converted by the subtraction itself, which gives the
    same bits as subtracting from their float64 copy.
    """
    out = m - s.mean
    out /= s.std
    return out


def sample_pixels(n_total: int, k: int, seed: int) -> np.ndarray:
    """Draw k distinct indices from [0, n_total), uniform without replacement.

    Deterministic for a fixed seed.
    """
    if k > n_total:
        raise ValueError(f"cannot sample {k} from {n_total} pixels")
    if k < 0:
        raise ValueError("sample size must be nonnegative")
    rng = np.random.default_rng(seed)
    return rng.choice(n_total, size=k, replace=False)
