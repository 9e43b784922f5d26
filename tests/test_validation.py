"""Pixel matrices are validated once, where they enter the library, and
float32 pixels are converted to float64 only where arithmetic needs them."""

import sys
import tracemalloc

import numpy as np
import pytest

from acdkit import raster
from acdkit.cli import main
from acdkit.detectors import _SCORE_CHUNK, DetectorConfig, fit, score_pixels, xi_pixels
from acdkit.io_formats import write_raster
from acdkit.kernels import KernelSpec
from acdkit.simulate import _NOISE_CHUNK
from acdkit.tune import _NU_BLOCK, TuneGrid, anchor_sigma, grid_search

from conftest import correlated_pair, mixture_cube, model_bytes


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
    score_pixels(det, x, y)
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


# (pixels, training rows, config, peak bound in bytes for 8 + 8 bands)
SCORING_MEMORY_CASES = {
    # no copy of the (200000, 8) float64 x
    "linear": (200_000, 1000, DetectorConfig(), 200_000 * 8 * 8),
    # four chunks; three reused (_SCORE_CHUNK, n_train) float64 blocks, the (3, n) xi and
    # one chunk's standardized x and y rows, plus 1% of the blocks for numpy's own
    # buffers (its ufuncs and einsum take about 75 KB)
    "kernel": (4 * _SCORE_CHUNK, 1000, DetectorConfig(mode="kernel", kernel=KernelSpec("rbf", 2.0)),
               int(1.01 * 3 * _SCORE_CHUNK * 1000 * 8) + 3 * 4 * _SCORE_CHUNK * 8
               + 2 * _SCORE_CHUNK * 8 * 8),
}


@pytest.mark.parametrize("case", sorted(SCORING_MEMORY_CASES))
def test_scoring_makes_no_full_scene_copy(case):
    n, n_train, config, bound = SCORING_MEMORY_CASES[case]
    x, y = correlated_pair(n, 8, seed=4)
    det = fit(x[:n_train], y[:n_train], config)
    tracemalloc.start()
    try:
        score_pixels(det, x, y, threads=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# CLI steps on one 512 x 512 x 8 scene, each run in process after the steps
# before it. _P is one raster's float32 payload; (argv, peak bound in bytes).
_N = 512 * 512
_P = _N * 8 * 4
_SLACK = 2**19  # chunk-sized temporaries and numpy's own buffers
CLI_MEMORY_CASES = {
    # the noise pass: the input, the float64 noise array and one chunk's float64
    # quotient. The band std pass (the input plus numpy's float64 deviations)
    # holds less; the input goes before the noise array is scrambled in place,
    # and writing it adds one float32 payload to the two.
    "simulate": (["simulate", "--input", "x", "--out", "y", "--labels", "labels"],
                 _P + 2 * _P + _NOISE_CHUNK * 8 * 8 + _SLACK),
    # both payloads and training_draw's index of the background pixels
    "fit": (["fit", "--x", "x", "--y", "y", "--model-out", "model"],
            2 * _P + 8 * _N + _SLACK),
    # both payloads, the (3, n) float64 xi, and combine_xi's scores plus one temporary
    "score": (["score", "--model", "model", "--x", "x", "--y", "y", "--out", "scores"],
              2 * _P + 5 * 8 * _N + _SLACK),
}


@pytest.fixture(scope="module")
def cli_scene(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_memory")
    write_raster(mixture_cube(512, 512, 8, seed=0), d / "x")
    for step in ("simulate", "fit"):
        argv = CLI_MEMORY_CASES[step][0]
        assert main([str(d / a) if a in ("x", "y", "labels", "model") else a for a in argv]) == 0
    return d


@pytest.mark.parametrize("step", sorted(CLI_MEMORY_CASES))
def test_cli_step_memory_follows_its_buffers(cli_scene, monkeypatch, step):
    argv, bound = CLI_MEMORY_CASES[step]
    monkeypatch.chdir(cli_scene)
    assert _traced_peak(main, argv) < bound


# The CLI's default EC rbf grid: 100 nu x 60 sigma x 30 lambda points.
_TUNE_POINTS = 180_000


def test_cli_tune_memory_follows_its_auc_array(tmp_path, monkeypatch):
    # A small scene, so that what the step holds is the search's record: the
    # (nu, sigma, lambda) float64 AUC array, plus eight 256 KiB nu-block buffers
    # (combine_xi's and auc_score's temporaries, the lambda axis's validation xi and
    # the chunk loop's blocks) and the usual slack. --trace-out streams the 180,000
    # rows from that array; an eager tuple of (GridPoint, auc) pairs and a list of
    # CSV lines made this case peak at ~82 MiB.
    monkeypatch.chdir(tmp_path)
    write_raster(mixture_cube(32, 32, 8, seed=0), "x")
    assert main(["simulate", "--input", "x", "--out", "y", "--labels", "labels",
                 "--scramble-frac", "0.1"]) == 0
    argv = ["tune", "--x", "x", "--y", "y", "--labels", "labels", "--dist", "ec",
            "--mode", "kernel", "--kernel", "rbf", "--n-train", "30", "--n-val", "200",
            "--trace-out", "trace.csv"]
    peak = _traced_peak(main, argv)
    assert peak < 8 * _TUNE_POINTS + 8 * 8 * _NU_BLOCK + _SLACK
    assert len((tmp_path / "trace.csv").read_text().splitlines()) == 1 + _TUNE_POINTS


DTYPE_CONFIGS = {
    "linear-gaussian": (DetectorConfig(), TuneGrid()),
    "linear-ec": (DetectorConfig(distribution="ec", nu=2.0),
                  TuneGrid(nu_grid=np.array([0.5, 2.0, 50.0]))),
    "rbf-gaussian": (DetectorConfig(mode="kernel", kernel=KernelSpec("rbf", 2.0)),
                     TuneGrid(sigma_grid=np.array([1.0, 4.0]), lambda_grid=np.array([1e-6, 1e-2]))),
    "rbf-ec": (DetectorConfig(distribution="ec", nu=2.0, mode="kernel",
                              kernel=KernelSpec("rbf", 2.0)),
               TuneGrid(nu_grid=np.array([0.5, 50.0]), sigma_grid=np.array([1.0, 4.0]),
                        lambda_grid=np.array([1e-6, 1e-2]))),
}


@pytest.mark.parametrize("name", sorted(DTYPE_CONFIGS))
def test_float32_pixels_give_the_bits_of_their_float64_copy(tmp_path, name):
    config, grid = DTYPE_CONFIGS[name]
    x32, y32 = (m.astype(np.float32) for m in correlated_pair(_SCORE_CHUNK + 300, 4, seed=8))
    pairs = {"32": (x32, y32), "64": (x32.astype(np.float64), y32.astype(np.float64))}
    n_train, labels = 150, _labels(x32.shape[0])
    results = {}
    for tag, (x, y) in pairs.items():
        det = fit(x[:n_train], y[:n_train], config)
        search = grid_search(x, y, labels, config, grid, n_train, 400, seed=9)
        results[tag] = (
            model_bytes(det, tmp_path / f"fit{tag}"),
            xi_pixels(det, x, y).tobytes(),
            score_pixels(det, x, y).tobytes(),
            np.float64(anchor_sigma(x[:n_train], y[:n_train])).tobytes(),
            [(point, np.float64(auc).tobytes()) for point, auc in search.points()],
            search.best_params,
            model_bytes(search.best_detector, tmp_path / f"best{tag}"),
        )
    assert results["32"] == results["64"]
