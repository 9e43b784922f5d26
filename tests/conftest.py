import math
import zlib

import numpy as np
import pytest

from acdkit.detectors import DetectorConfig, _fit_lambdas, _xi_rows
from acdkit.io_formats import _layout, save_model
from acdkit.raster import BandStats, ImageCube, stack_pair


def correlated_pair(n, d_x, d_y=None, seed=0, noise=0.1):
    """Gaussian pair where y is a mixed, noisy copy of x."""
    if d_y is None:
        d_y = d_x
    rng = np.random.default_rng(seed)
    mix_x = rng.normal(size=(d_x, d_x))
    x = rng.normal(size=(n, d_x)) @ mix_x.T
    mix_xy = rng.normal(size=(d_y, d_x)) / np.sqrt(d_x)
    y = x @ mix_xy.T + noise * rng.normal(size=(n, d_y))
    return x, y


def raw_kernel_xi_path(x_train, y_train, x, y, spec, lams):
    """(len(lams), 3, m) kernel xi of the probe pairs under detectors fit on the rows as given.

    The detectors take identity band stats, so the training rows may be
    uncentered, or a single row.
    """
    def identity(d):
        return BandStats(mean=np.zeros(d), std=np.ones(d))

    training = (identity(x_train.shape[1]), identity(y_train.shape[1]), x_train, y_train,
                stack_pair(x_train, y_train))
    dets = _fit_lambdas(training, DetectorConfig(mode="kernel", kernel=spec), lams)
    return _xi_rows(dets, x, y)


def model_bytes(det, directory):
    """Save a detector under directory and return {file name: bytes} of what was written."""
    save_model(det, directory)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def payload_spans(manifest):
    """The byte span (start, stop) of each array in model.bin, keyed (section, name, key)."""
    spans, start = {}, 0
    for section, name, key, _ in _layout(manifest["config"]["mode"]):
        stop = start + 8 * math.prod(manifest[section][name][key])
        spans[section, name, key] = (start, stop)
        start = stop
    return spans


def rewrite_payload(manifest, model, payload):
    """Replace model.bin's bytes and give the manifest their CRC32."""
    (model / "model.bin").write_bytes(payload)
    manifest["payload_crc32"] = zlib.crc32(payload)


def mixture_cube(height, width, bands, seed, n_components=3, separation=4.0):
    """Cube whose pixel spectra come from a Gaussian mixture."""
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
    return ImageCube(flat.reshape(height, width, bands))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
