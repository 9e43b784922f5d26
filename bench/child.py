"""Child processes started by bench/run.py.

    python bench/child.py [--spans FILE] cli ARGS...
        acdkit's command line, in process; traced when --spans is given.
    python bench/child.py [--spans FILE] tune --x X --y Y --labels L ...
        EC-HACD rbf grid search on a reduced grid, then a refit of the best
        point, as `acdkit tune --trace-out --model-out` does on its full grid.
    python bench/child.py threads1 --model M --x X --y Y --scores S
        untraced single-threaded `score_pixels`; prints its time as JSON and
        whether its scores match the score raster byte for byte.

The spans file is written when the command returns, whatever its exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

# Three sigma multipliers around the heuristic anchor; the lambda and nu axes
# keep the default 30- and 100-point grids.
SIGMA_MULTIPLIERS = (0.5, 1.0, 2.0)


def run_cli(argv) -> int:
    from acdkit.cli import main

    return main(argv)


def run_tune(argv) -> int:
    p = argparse.ArgumentParser(prog="child.py tune")
    for name in ("--x", "--y", "--labels", "--trace-out", "--model-out"):
        p.add_argument(name, required=True)
    p.add_argument("--n-train", type=int, required=True)
    p.add_argument("--n-val", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    a = p.parse_args(argv)

    import numpy as np

    from acdkit import io_formats
    from acdkit.detectors import DetectorConfig, fit, with_params
    from acdkit.kernels import KernelSpec
    from acdkit.raster import flatten
    from acdkit.tune import TuneGrid, anchor_sigma, default_grid, grid_search, split_train_val

    cube_x = io_formats.read_raster(a.x)
    cube_y = io_formats.read_raster(a.y)
    x, y = flatten(cube_x), flatten(cube_y)
    labels = io_formats.cube_to_labels(io_formats.read_raster(a.labels))
    train_idx, _ = split_train_val(labels, a.n_train, a.n_val, a.seed)
    anchor = anchor_sigma(x[train_idx], y[train_idx])
    config = DetectorConfig(beta_x=1, beta_y=1, distribution="ec", nu=1.0,
                            mode="kernel", kernel=KernelSpec("rbf", anchor))
    full = default_grid(config, anchor)
    grid = TuneGrid(nu_grid=full.nu_grid, sigma_grid=anchor * np.array(SIGMA_MULTIPLIERS),
                    lambda_grid=full.lambda_grid)
    result = grid_search(x, y, labels, config, grid, a.n_train, a.n_val, a.seed)
    best = result.best_params
    print(f"best nu={best.nu!r} sigma={best.sigma!r} lambda={best.lam!r} "
          f"val_auc={result.best_val_auc:.17g}")
    io_formats.write_trace_csv(result.trace, a.trace_out)
    det = fit(x[train_idx], y[train_idx],
              with_params(config, nu=best.nu, sigma=best.sigma, lam=best.lam))
    io_formats.save_model(det, a.model_out)
    return 0


def run_threads1(argv) -> int:
    p = argparse.ArgumentParser(prog="child.py threads1")
    for name in ("--model", "--x", "--y", "--scores"):
        p.add_argument(name, required=True)
    a = p.parse_args(argv)

    from acdkit import io_formats
    from acdkit.detectors import score_pixels
    from acdkit.raster import flatten

    det = io_formats.load_model(a.model)
    x = flatten(io_formats.read_raster(a.x))
    y = flatten(io_formats.read_raster(a.y))
    t0 = time.perf_counter()
    scores = score_pixels(det, x, y, threads=1)
    elapsed = time.perf_counter() - t0
    identical = scores.astype("<f4").tobytes() == Path(a.scores).read_bytes()
    print(json.dumps({"threads1_s": elapsed, "identical": identical}))
    return 0


COMMANDS = {"cli": run_cli, "tune": run_tune, "threads1": run_threads1}


def main(argv) -> int:
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    command, rest = argv[0], argv[1:]
    if spans is None:
        return COMMANDS[command](rest)
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    try:
        return COMMANDS[command](rest)
    finally:
        tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
