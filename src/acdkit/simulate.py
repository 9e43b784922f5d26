"""Synthetic change generator: pervasive noise plus anomalous pixel scrambling.

The second image of a pair is simulated from the (n, d) pixel rows of the
first in two steps: pervasive (global, uninteresting) change is Gaussian
noise added to every band of every pixel; anomalous change is a seeded
derangement of a small fraction of pixel spectra. Scrambling only moves
spectra between positions, so per-band global distributions are unchanged
and the anomalies are invisible to single-image statistics.

`pervasive_noise` returns new, writable rows, and `scramble_anomalies`
permutes the rows it is given in place, so the whole simulation holds one
scene next to its input.
"""

from __future__ import annotations

import numpy as np

from .raster import as_pixel_matrix, standardize_fit

__all__ = ["pervasive_noise", "scramble_anomalies"]

# Rejection sampling for a derangement accepts with probability ~ 1/e.
_MAX_DERANGE_TRIES = 10_000

# pervasive_noise maps pixels back from standardized units this many at a
# time, so its float64 temporaries stay small (512 KiB at 8 bands).
_NOISE_CHUNK = 8192

_F64_MAX = np.finfo(np.float64).max


def pervasive_noise(pixels: np.ndarray, std: float, seed: int) -> np.ndarray:
    """New (n, d) rows: the pixels plus independent N(0, std^2) noise in standardized band units.

    Each band is divided by its own population standard deviation before
    the draw is added, then mapped back, so `std` means the same thing for
    bands of any dynamic range. std = 0 returns a copy of the input, bit
    for bit.

    The band std is taken from float32 pixels as they are, accumulated in
    float64 (raster.standardize_fit), so no float64 copy of the scene is
    made. The result, (x / band_std + noise) * band_std, is then computed
    chunk by chunk inside the float64 noise array, which is returned. A
    value that overflows float64 saturates at its largest magnitude, so it
    stays a finite value beyond float32's range, which write_raster reports
    like any other.
    """
    if not 0 <= std < np.inf:
        raise ValueError("noise std must be finite and nonnegative")
    pixels = as_pixel_matrix(pixels)
    if std == 0.0:
        return pixels.copy()
    band_std = standardize_fit(pixels).std
    rng = np.random.default_rng(seed)
    noisy = rng.normal(0.0, std, size=pixels.shape)
    with np.errstate(over="ignore"):
        for start in range(0, noisy.shape[0], _NOISE_CHUNK):
            rows = noisy[start : start + _NOISE_CHUNK]
            np.add(pixels[start : start + _NOISE_CHUNK] / band_std, rows, out=rows)
            rows *= band_std
            np.clip(rows, -_F64_MAX, _F64_MAX, out=rows)
    return noisy


def _derangement(rng: np.random.Generator, k: int) -> np.ndarray:
    for _ in range(_MAX_DERANGE_TRIES):
        perm = rng.permutation(k)
        if not np.any(perm == np.arange(k)):
            return perm
    raise RuntimeError("failed to draw a derangement")  # pragma: no cover


def scramble_anomalies(pixels: np.ndarray, frac: float, seed: int) -> np.ndarray:
    """Derange the spectra of a random fraction of rows, in place; return uint8 labels.

    pixels must be a writable 2-d ndarray, one spectrum per row; it is
    never copied. k = round(frac * n) rows are drawn uniformly without
    replacement, then their spectra are permuted by a derangement so no
    selected row keeps its own spectrum. The labels mark them with 1.
    Draw order: positions first, then derangement attempts.
    """
    if not 0.0 < frac <= 1.0:
        raise ValueError("scramble fraction must be in (0, 1]")
    if not (isinstance(pixels, np.ndarray) and pixels.ndim == 2 and pixels.flags.writeable):
        raise ValueError("scramble_anomalies needs a writable 2-d array of pixel rows")
    n = pixels.shape[0]
    k = int(np.rint(frac * n))
    if k < 2:
        raise ValueError("cannot derange fewer than 2 pixels")
    rng = np.random.default_rng(seed)
    positions = rng.choice(n, size=k, replace=False)
    perm = _derangement(rng, k)

    pixels[positions] = pixels[positions[perm]]
    labels = np.zeros(n, dtype=np.uint8)
    labels[positions] = 1
    return labels
