"""Pixel matrices are validated once, where they enter the library."""

import sys
import tracemalloc

import numpy as np
import pytest

from acdkit import raster
from acdkit.detectors import _SCORE_CHUNK, DetectorConfig, fit, score_pixels
from acdkit.kernels import KernelSpec
from acdkit.tune import TuneGrid, anchor_sigma, grid_search

from conftest import correlated_pair


def _labels(n):
    labels = np.zeros(n, dtype=int)
    labels[::10] = 1
    return labels


ENTRY_POINTS = {
    "fit": lambda x, y: fit(x, y, DetectorConfig()),
    "score_pixels": lambda x, y: score_pixels(
        fit(*correlated_pair(50, 2, seed=1), DetectorConfig()), x, y),
    "grid_search": lambda x, y: grid_search(
        x, y, _labels(x.shape[0]), DetectorConfig(distribution="ec", nu=1.0),
        TuneGrid(nu_grid=np.array([1.0])), 40, 40, seed=0),
    "anchor_sigma": anchor_sigma,
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_non_finite_pixels(entry, side, bad):
    x, y = correlated_pair(100, 2, seed=0)
    (x if side == "x" else y)[17, 1] = bad
    with pytest.raises(ValueError, match="pixel matrix contains non-finite values"):
        ENTRY_POINTS[entry](x, y)


def _count_validations(monkeypatch):
    """Wrap as_pixel_matrix in every acdkit namespace; return the list of calls."""
    real, calls = raster.as_pixel_matrix, []

    def counted(m):
        calls.append(np.shape(m))
        return real(m)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "acdkit" and getattr(module, "as_pixel_matrix", None) is real:
            monkeypatch.setattr(module, "as_pixel_matrix", counted)
    return calls


@pytest.mark.parametrize("config", [
    DetectorConfig(),
    DetectorConfig(mode="kernel", kernel=KernelSpec("rbf", 2.0)),
], ids=["linear", "kernel"])
def test_each_pixel_matrix_is_validated_once(monkeypatch, config):
    x, y = correlated_pair(2 * _SCORE_CHUNK + 100, 2, seed=3)
    calls = _count_validations(monkeypatch)
    det = fit(x[:40], y[:40], config)
    assert calls == [(40, 2), (40, 2)]
    calls.clear()
    score_pixels(det, x, y, threads=2)
    assert calls == [x.shape, y.shape]


@pytest.mark.parametrize("config, grid", [
    (DetectorConfig(distribution="ec", nu=1.0), TuneGrid(nu_grid=np.array([0.5, 5.0]))),
    (DetectorConfig(mode="kernel", kernel=KernelSpec("rbf", 2.0)),
     TuneGrid(sigma_grid=np.array([2.0]), lambda_grid=np.array([1e-6, 1e-3]))),
], ids=["linear", "kernel"])
def test_grid_search_validates_x_and_y_once(monkeypatch, config, grid):
    x, y = correlated_pair(1000, 3, seed=5)
    calls = _count_validations(monkeypatch)
    grid_search(x, y, _labels(1000), config, grid, 200, 400, seed=6)
    assert calls == [x.shape, y.shape]


def test_linear_scoring_makes_no_full_scene_copy():
    x, y = correlated_pair(200_000, 8, seed=4)
    det = fit(x[:1000], y[:1000], DetectorConfig())
    tracemalloc.start()
    try:
        score_pixels(det, x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes
