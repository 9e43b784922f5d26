"""Seeded input scenes and a minimal raster reader/writer for the benchmark.

The generators are the benchmark's own copies of the test-suite scene
styles (`mixture_cube` in tests/conftest.py and `sheet_mixture_cube` in
tests/test_acceptance.py), so a refactor of the tests cannot shift a
workload. The raster format (raw little-endian float32, band-interleaved
by pixel, JSON sidecar at `<path>.json`) is written and read here with
numpy only, so the program under test only ever sees bytes on disk.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def mixture_cube(height, width, bands, seed, n_components=3, separation=4.0):
    """(H, W, d) array whose pixel spectra come from a Gaussian mixture."""
    rng = np.random.default_rng(seed)
    n = height * width
    means = separation * rng.normal(size=(n_components, bands))
    chols = []
    for _ in range(n_components):
        a = rng.normal(size=(bands, bands)) / np.sqrt(bands)
        chols.append(np.linalg.cholesky(a @ a.T + 0.3 * np.eye(bands)))
    comp = rng.integers(0, n_components, size=n)
    eps = rng.normal(size=(n, bands))
    flat = np.empty((n, bands))
    for c in range(n_components):
        mask = comp == c
        flat[mask] = means[c] + eps[mask] @ chols[c].T
    return flat.reshape(height, width, bands)


def sheet_mixture_cube(height, width, bands, seed, separation=18.0,
                       sheet=1.5, rank=2, jitter=0.05):
    """(H, W, d) 3-component mixture with thin (low-rank + jitter) covariances.

    A locally dense, low-dimensional background that a kernel detector can
    model and a single global Gaussian cannot.
    """
    rng = np.random.default_rng(seed)
    n = height * width
    means = rng.normal(size=(3, bands))
    means -= means.mean(axis=0)
    means /= means.std(axis=0)
    means *= separation
    comp = rng.integers(0, 3, size=n)
    flat = np.empty((n, bands))
    for c in range(3):
        m = comp == c
        basis = np.linalg.qr(rng.normal(size=(bands, rank)))[0] * sheet
        coords = rng.normal(size=(m.sum(), rank))
        flat[m] = means[c] + coords @ basis.T + jitter * rng.normal(size=(m.sum(), bands))
    return flat.reshape(height, width, bands)


def write_raster(data: np.ndarray, path) -> None:
    """Write an (H, W, d) array as a float32 BIP raster plus sidecar."""
    h, w, d = data.shape
    Path(path).write_bytes(np.asarray(data).astype("<f4").tobytes(order="C"))
    sidecar = {"bands": d, "dtype": "f32", "height": h, "interleave": "bip", "width": w}
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True) + "\n")


def read_raster(path) -> np.ndarray:
    """Read a raster back as an (H, W, d) float32 array.

    Raises ValueError when the payload size disagrees with the sidecar.
    """
    meta = json.loads(Path(str(path) + ".json").read_text())
    h, w, d = int(meta["height"]), int(meta["width"]), int(meta["bands"])
    if meta.get("dtype") != "f32" or meta.get("interleave") != "bip":
        raise ValueError(f"{path}: unexpected dtype or interleave in sidecar")
    payload = Path(path).read_bytes()
    if len(payload) != h * w * d * 4:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, sidecar says {h * w * d * 4}")
    return np.frombuffer(payload, dtype="<f4").reshape(h, w, d)
