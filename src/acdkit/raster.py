"""Raster data model: cubes, pixel matrices, band standardization, sampling.

An image cube is an H x W x d stack of real-valued bands stored
band-interleaved-by-pixel (row-major pixel order, bands fastest). Pixel
matrices are plain float64 numpy arrays of shape (n, d), one spectrum per
row. All containers are immutable after construction; every operation here
is pure.
`as_pixel_matrix` validates a matrix once, where it enters the library;
the row helpers expect finite 2-d float64 rows and check only shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ImageCube",
    "BandStats",
    "as_pixel_matrix",
    "flatten",
    "unflatten",
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


@dataclass(frozen=True)
class ImageCube:
    """H x W x d raster of finite real values, bands interleaved by pixel."""

    height: int
    width: int
    bands: int
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.height < 1 or self.width < 1 or self.bands < 1:
            raise ValueError("cube dimensions must be positive")
        data = np.asarray(self.data, dtype=np.float64)
        if data.shape != (self.height, self.width, self.bands):
            raise ValueError(
                f"data shape {data.shape} does not match "
                f"({self.height}, {self.width}, {self.bands})"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("cube contains non-finite values")
        object.__setattr__(self, "data", _readonly(data))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "ImageCube":
        """Build a cube from an (H, W, d) array."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError("expected a 3-d (H, W, d) array")
        h, w, d = arr.shape
        return cls(height=h, width=w, bands=d, data=arr)

    @property
    def n_pixels(self) -> int:
        return self.height * self.width


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
    """Validate and return an (n, d) float64 pixel matrix."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("pixel matrix must be 2-d (n, d)")
    if not np.all(np.isfinite(m)):
        raise ValueError("pixel matrix contains non-finite values")
    return m


def flatten(cube: ImageCube) -> np.ndarray:
    """Flatten a cube to an (H*W, d) matrix in row-major pixel order."""
    return cube.data.reshape(cube.n_pixels, cube.bands)


def unflatten(m: np.ndarray, height: int, width: int) -> ImageCube:
    """Inverse of :func:`flatten` for finite 2-d float64 rows; bit-exact round trip."""
    if m.shape[0] != height * width:
        raise ValueError("row count does not match height*width")
    return ImageCube.from_array(m.reshape(height, width, m.shape[1]))


def stack_pair(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Concatenate finite 2-d float64 rows pairwise: row i becomes [x_i, y_i]."""
    if x.shape[0] != y.shape[0]:
        raise ValueError("unaligned pair: row counts differ "
                         f"({x.shape[0]} vs {y.shape[0]})")
    return np.hstack([x, y])


def standardize_fit(m: np.ndarray) -> BandStats:
    """Per-column mean and population std of finite 2-d float64 rows; constant ones get std 1."""
    if m.shape[0] < 2:
        raise ValueError("need at least 2 rows to fit band statistics")
    mean = m.mean(axis=0)
    std = m.std(axis=0)  # population (1/n), consistent with covariance
    degenerate = std < DEGENERATE_STD_TOL * (np.abs(mean) + 1.0)
    std = np.where(degenerate, 1.0, std)
    return BandStats(mean=mean, std=std)


def standardize_apply(m: np.ndarray, s: BandStats) -> np.ndarray:
    """Apply (v - mean) / std per column. Expects finite 2-d float64 rows."""
    if m.shape[1] != s.d:
        raise ValueError(f"dimension mismatch: matrix has {m.shape[1]} columns, "
                         f"stats have {s.d}")
    return (m - s.mean) / s.std


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
