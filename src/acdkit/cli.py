"""Command-line front end wiring the library into reproducible pipelines.

Subcommands: simulate, fit, score, roc, map, tune. Every subcommand takes
--seed (default 42, any integer >= 0) and is deterministic given it.
Every subcommand also accepts --threads, a positive integer that is
checked and ignored: scoring runs in one loop, and only BLAS uses more
threads. Randomness per subcommand is drawn in a fixed documented order:

    simulate   pervasive noise with seed, scrambling with seed + 1
    fit        training-pixel draw with seed
    tune       training draw with seed, validation draw with seed + 1

Rasters stay float32 as read (io_formats.read_raster). Each subcommand
works on pixel rows and the scene's (H, W): it flattens what it reads and
reshapes what it writes, and the library converts the rows it computes
on to float64. score reads its pair in chunks (io_formats.RasterChunks),
checking both sidecars and the pair's (H, W) before it reads any pixel;
it scores each chunk pair into one float32 vector of the scene's scores
and writes that after the last read, so --out may name an input.
simulate adds the noise into new rows, drops its input and scrambles
those rows in place, which become the output: it never holds more than
the input and one float64 scene. fit drops both scenes once it has drawn
its training rows. tune --model-out saves the detector the search built
at its best point, and --trace-out streams the trace from the search's
array of AUCs.

Exit codes: 0 success, 1 I/O failure (including a raster write holding a
value beyond float32's range, which writes nothing), 2 usage error,
3 numerical failure (np.linalg.LinAlgError), 4 degenerate labels. Every
numeric flag is range-checked by its argparse type, so a value out of
range exits 2 with one line naming the flag, before any file is read:
fit --nu must be finite and > 0, and fit --sigma passes KernelSpec's own
range check. map --labels without --tpr-rate exits 2 before any file is
read too; a flag that needs another (--nu without --dist ec, --sigma
outside an rbf or sam kernel) is reported when the config is built.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io_formats
from .detectors import DETECTOR_BETAS, DetectorConfig, fit, score_pixels
from .kernels import KernelSpec, _valid_sigma
from .metrics import (
    DegenerateLabelsError,
    apply_threshold,
    roc_curve,
    threshold_at_quantile,
    threshold_at_tpr,
)
from .raster import ImageCube, _all_finite, flatten
from .simulate import pervasive_noise, scramble_anomalies
from .tune import anchor_sigma, grid_search, training_draw

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_DEGENERATE = 4


def _ranged(convert, ok, message: str):
    """An argparse type: convert the text, then reject a value for which ok is false.
    Text that does not convert is argparse's `invalid int value` (or float)."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(message)
        return value

    parse.__name__ = convert.__name__
    return parse


_finite = _ranged(float, np.isfinite, "must be a finite number")
_positive_finite = _ranged(_finite, lambda v: v > 0, "must be a finite number > 0")
_nonnegative_finite = _ranged(float, lambda v: 0 <= v < np.inf, "must be a finite number >= 0")
_not_nan = _ranged(float, lambda v: not np.isnan(v), "must be a number, not nan")
_positive_int = _ranged(int, lambda v: v >= 1, "must be a positive integer")
_seed = _ranged(int, lambda v: v >= 0, "must be an integer >= 0")
_sample_count = _ranged(int, lambda v: v >= 2, "must be an integer >= 2")
_rate = _ranged(float, lambda v: 0 < v <= 1, "must be in (0, 1]")
_open_fraction = _ranged(float, lambda v: 0 < v < 1, "must be in (0, 1)")


def _positive_or_auto(text: str):
    if text == "auto":
        return None
    value = float(text)
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError("must be finite and positive, or 'auto'")
    return value


_positive_or_auto.__name__ = "float"  # argparse's `invalid float value`, as _ranged names types


# KernelSpec's own sigma range, so that the flag is named before any file is read
_sigma_or_auto = _ranged(_positive_or_auto, lambda v: v is None or _valid_sigma(v),
                         "must be a sigma whose square is a normal float64 "
                         "(about 1.5e-154 to 1.3e154)")


def _pair_shape(shape_x, shape_y):
    """The (H, W) of a raster pair of shapes (H, W, d); ValueError unless they share it."""
    if shape_x[:2] != shape_y[:2]:
        raise ValueError("unaligned pair: rasters differ in height/width")
    return shape_x[:2]


def _read_pair(x_path, y_path):
    """The x rows, the y rows and the (H, W) of a raster pair."""
    cube_x = io_formats.read_raster(x_path)
    cube_y = io_formats.read_raster(y_path)
    shape = _pair_shape(cube_x.data.shape, cube_y.data.shape)
    return flatten(cube_x), flatten(cube_y), shape


def _read_labels(path, shape) -> np.ndarray:
    cube = io_formats.read_raster(path)
    if cube.data.shape[:2] != shape:
        raise ValueError("label raster does not match image dimensions")
    return io_formats.cube_to_labels(cube)


def _read_scores(path):
    """The scores of a one-band raster as a flat vector, and its (H, W)."""
    data = io_formats.read_raster(path).data
    if data.shape[2] != 1:
        raise ValueError("scores raster must have exactly one band")
    return data.ravel(), data.shape[:2]


def _write_rows(rows: np.ndarray, shape, path) -> None:
    """Write pixel rows, or one value per pixel, as an (H, W, d) raster."""
    io_formats.write_raster(ImageCube(rows.reshape(*shape, -1)), path)


def _takes_sigma(args) -> bool:
    """Whether the family flags name a kernel with a lengthscale (rbf or sam)."""
    return args.mode == "kernel" and args.kernel != "linear"


def _build_config(args, nu, sigma, lam) -> DetectorConfig:
    """The config of the family flags, with the given nu, sigma and lambda.

    A sigma outside kernel mode, or for the linear kernel, is a usage error.
    """
    beta_x, beta_y = DETECTOR_BETAS[args.detector]
    kernel = None
    if args.mode == "kernel":
        kernel = KernelSpec(args.kernel, sigma)
    elif sigma is not None:
        raise ValueError("sigma applies to kernel mode only")
    return DetectorConfig(
        beta_x=beta_x,
        beta_y=beta_y,
        distribution=args.dist,
        nu=nu,
        mode=args.mode,
        kernel=kernel,
        lam=lam,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cube = io_formats.read_raster(args.input)
    shape = cube.data.shape[:2]
    pixels = pervasive_noise(flatten(cube), args.noise_std, args.seed)
    del cube  # the input need not coexist with the scrambled rows
    labels = scramble_anomalies(pixels, args.scramble_frac, args.seed + 1)
    _write_rows(pixels, shape, args.out)
    _write_rows(labels.astype(np.float32), shape, args.labels)
    return EXIT_OK


def cmd_fit(args) -> int:
    x, y, shape = _read_pair(args.x, args.y)
    labels = None
    if args.train_labels:
        labels = _read_labels(args.train_labels, shape)
    idx = training_draw(x.shape[0], args.train_samples, args.seed, labels)
    x_tr, y_tr = x[idx], y[idx]
    del x, y  # fit reads only the drawn rows

    sigma = args.sigma
    if _takes_sigma(args) and sigma is None:
        sigma = anchor_sigma(x_tr, y_tr)
        print(f"sigma auto -> {sigma:.17g}")
    det = fit(x_tr, y_tr, _build_config(args, args.nu, sigma, args.lam))
    io_formats.save_model(det, args.model_out)
    print(f"model written to {args.model_out}")
    return EXIT_OK


def cmd_score(args) -> int:
    det = io_formats.load_model(args.model)
    with io_formats.RasterChunks(args.x) as x, io_formats.RasterChunks(args.y) as y:
        shape = _pair_shape(x.shape, y.shape)
        scores = np.empty(shape[0] * shape[1], dtype=np.float32)
        start = 0
        for x_rows, y_rows in zip(x, y):
            stop = start + x_rows.shape[0]
            with np.errstate(over="ignore"):  # reported below, once every chunk is read
                scores[start:stop] = score_pixels(det, x_rows, y_rows)
            start = stop
    if not _all_finite(scores):
        raise io_formats._beyond_float32(args.out)
    _write_rows(scores, shape, args.out)  # after the last read, so --out may name an input
    return EXIT_OK


def cmd_roc(args) -> int:
    scores, shape = _read_scores(args.scores)
    curve = roc_curve(scores, _read_labels(args.labels, shape))
    io_formats.write_roc_csv(curve, args.out)
    print(f"AUC {curve.auc:.17g}")
    return EXIT_OK


def cmd_map(args) -> int:
    if args.labels and args.tpr_rate is None:
        raise ValueError("--labels applies to --tpr-rate only")
    scores, shape = _read_scores(args.scores)
    if args.threshold is not None:
        t = args.threshold
    elif args.tpr_rate is not None:
        if not args.labels:
            raise ValueError("--tpr-rate requires --labels")
        t = threshold_at_tpr(scores, _read_labels(args.labels, shape), args.tpr_rate)
    else:
        t = threshold_at_quantile(scores, args.quantile)
    io_formats.write_pgm(apply_threshold(scores, t).reshape(shape), args.out)
    print(f"threshold {t:.17g}")
    return EXIT_OK


def cmd_tune(args) -> int:
    x, y, shape = _read_pair(args.x, args.y)
    labels = _read_labels(args.labels, shape)
    # grid_search replaces nu (ec) and sigma (rbf, sam); 1.0 keeps the config valid until then.
    config = _build_config(args, 1.0 if args.dist == "ec" else None,
                           1.0 if _takes_sigma(args) else None, None)

    result = grid_search(
        x, y, labels, config, None, args.n_train, args.n_val, args.seed
    )
    best = result.best_params
    print(
        f"best nu={best.nu} sigma={best.sigma} lambda={best.lam} "
        f"val_auc={result.best_val_auc:.17g}"
    )
    if args.trace_out:
        io_formats.write_trace_csv(result.points(), args.trace_out)
    if args.model_out:
        io_formats.save_model(result.best_detector, args.model_out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed, default=42,
                        help="random seed, an integer >= 0 (default 42)")
    common.add_argument(
        "--threads", type=_positive_int, default=1,
        help="accepted and ignored: scoring runs in one thread plus BLAS's own",
    )

    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--detector", choices=sorted(DETECTOR_BETAS), default="hacd")
    family.add_argument("--dist", choices=["gaussian", "ec"], default="gaussian")
    family.add_argument("--mode", choices=["linear", "kernel"], default="linear")
    family.add_argument("--kernel", choices=["linear", "rbf", "sam"], default="rbf")

    # fit only: tune searches these
    hyperparameters = argparse.ArgumentParser(add_help=False)
    hyperparameters.add_argument("--nu", type=_positive_finite, default=None,
                                 help="EC shape parameter")
    hyperparameters.add_argument(
        "--sigma", type=_sigma_or_auto, default="auto", dest="sigma",
        help="kernel lengthscale, or 'auto' for the mean-distance heuristic",
    )
    hyperparameters.add_argument(
        "--lambda", type=_positive_or_auto, default="auto", dest="lam",
        help="kernel regularizer, or 'auto' for 1e-5/n",
    )

    parser = argparse.ArgumentParser(
        prog="acdkit",
        description="Anomalous change detection on co-registered raster pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="simulate a second image with pervasive noise and scrambled anomalies")
    p.add_argument("--input", required=True)
    p.add_argument("--noise-std", type=_nonnegative_finite, default=0.1)
    p.add_argument("--scramble-frac", type=_rate, default=0.01)
    p.add_argument("--out", required=True)
    p.add_argument("--labels", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", parents=[common, family, hyperparameters],
                       help="fit a detector on a raster pair")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--train-samples", type=_sample_count, default=1000)
    p.add_argument("--train-labels", default=None,
                   help="optional label raster; training draws from non-anomalous pixels")
    p.add_argument("--model-out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("score", parents=[common], help="score a raster pair with a model")
    p.add_argument("--model", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("roc", parents=[common], help="ROC curve and AUC from scores + labels")
    p.add_argument("--scores", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_roc)

    p = sub.add_parser("map", parents=[common], help="binary detection map from scores")
    p.add_argument("--scores", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--threshold", type=_not_nan, default=None)
    group.add_argument("--tpr-rate", type=_rate, default=None,
                       help="pick the threshold detecting this fraction of labeled changes")
    group.add_argument("--quantile", type=_open_fraction, default=None,
                       help="flag roughly this fraction of pixels")
    p.add_argument("--labels", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("tune", parents=[common, family],
                       help="grid-search nu, sigma and lambda by validation AUC")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--n-train", type=_sample_count, default=1000)
    p.add_argument("--n-val", type=_sample_count, default=4000,
                   help="validation pixels, which must hold both classes")
    p.add_argument("--trace-out", default=None)
    p.add_argument("--model-out", default=None)
    p.set_defaults(func=cmd_tune)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as e:  # a ValueError too, so caught first
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DegenerateLabelsError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (
        OSError,
        io_formats.RasterFormatError,
        io_formats.CorruptModelError,
        io_formats.UnsupportedVersionError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
