"""Synthetic change generator: pervasive noise plus anomalous pixel scrambling.

The second image of a pair is simulated from the first in two steps:
pervasive (global, uninteresting) change is Gaussian noise added to every
band of every pixel; anomalous change is a seeded derangement of a small
fraction of pixel spectra. Scrambling only moves spectra between
positions, so per-band global distributions are unchanged and the
anomalies are invisible to single-image statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .raster import ImageCube, flatten, standardize_fit, unflatten

__all__ = ["SimulationResult", "pervasive_noise", "scramble_anomalies"]

# Rejection sampling for a derangement accepts with probability ~ 1/e.
_MAX_DERANGE_TRIES = 10_000

# pervasive_noise maps pixels back from standardized units this many at a
# time, so its float64 temporaries stay small (512 KiB at 8 bands).
_NOISE_CHUNK = 8192


@dataclass(frozen=True)
class SimulationResult:
    """Scrambled image plus per-pixel ground-truth labels (1 = anomalous)."""

    second_image: ImageCube
    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.uint8)
        if labels.shape != (self.second_image.n_pixels,):
            raise ValueError("labels length must equal pixel count")
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)


def pervasive_noise(cube: ImageCube, std: float, seed: int) -> ImageCube:
    """Add independent N(0, std^2) noise, drawn in standardized band units.

    Each band is divided by its own population standard deviation before
    the draw is added, then mapped back, so `std` means the same thing for
    bands of any dynamic range. std = 0 returns the input bit-exactly.

    The band std is taken from the float32 pixels as they are, accumulated
    in float64 (raster.standardize_fit), so no float64 copy of the scene is
    made. The result, (x / band_std + noise) * band_std, is then computed
    chunk by chunk inside the float64 noise array, which becomes the new
    cube's data.
    """
    if not 0 <= std < np.inf:
        raise ValueError("noise std must be finite and nonnegative")
    if std == 0.0:
        return cube
    pixels = flatten(cube)
    band_std = standardize_fit(pixels).std
    rng = np.random.default_rng(seed)
    noisy = rng.normal(0.0, std, size=pixels.shape)
    with np.errstate(over="ignore"):  # ImageCube rejects a pixel that overflows
        for start in range(0, noisy.shape[0], _NOISE_CHUNK):
            rows = noisy[start : start + _NOISE_CHUNK]
            np.add(pixels[start : start + _NOISE_CHUNK] / band_std, rows, out=rows)
            rows *= band_std
    return unflatten(noisy, cube.height, cube.width)


def _derangement(rng: np.random.Generator, k: int) -> np.ndarray:
    for _ in range(_MAX_DERANGE_TRIES):
        perm = rng.permutation(k)
        if not np.any(perm == np.arange(k)):
            return perm
    raise RuntimeError("failed to draw a derangement")  # pragma: no cover


def scramble_anomalies(cube: ImageCube, frac: float, seed: int) -> SimulationResult:
    """Derange the spectra of a random fraction of pixels and label them.

    k = round(frac * H * W) positions are drawn uniformly without
    replacement, then their spectra are permuted by a derangement so no
    selected pixel keeps its own spectrum. Draw order: positions first,
    then derangement attempts.
    """
    if not 0.0 < frac <= 1.0:
        raise ValueError("scramble fraction must be in (0, 1]")
    n = cube.n_pixels
    k = int(np.rint(frac * n))
    if k < 2:
        raise ValueError("cannot derange fewer than 2 pixels")
    rng = np.random.default_rng(seed)
    positions = rng.choice(n, size=k, replace=False)
    perm = _derangement(rng, k)

    flat = flatten(cube).copy()
    flat[positions] = flat[positions[perm]]
    labels = np.zeros(n, dtype=np.uint8)
    labels[positions] = 1
    return SimulationResult(
        second_image=unflatten(flat, cube.height, cube.width), labels=labels
    )
