"""Command-line front end wiring the library into reproducible pipelines.

Subcommands: simulate, fit, score, roc, map, tune. Every subcommand takes
--seed (default 42) and is deterministic given it. Every subcommand also
accepts --threads, a positive integer that is checked and ignored: scoring
runs in one loop, and only BLAS uses more threads. Randomness per
subcommand is drawn in a fixed documented order:

    simulate   pervasive noise with seed, scrambling with seed + 1
    fit        training-pixel draw with seed
    tune       training draw with seed, validation draw with seed + 1

Rasters stay float32 as read (io_formats.read_raster); the library
converts the rows it computes on to float64. simulate adds the noise
into new rows, drops its input and scrambles those rows in place, which
become the output: it never holds more than the input and one float64
scene. fit drops both scenes once it has drawn its training rows. tune
--model-out saves the detector the search built at its best point.

Exit codes: 0 success, 1 I/O failure (including a raster write holding a
value beyond float32's range, which writes nothing), 2 usage error,
3 numerical failure (np.linalg.LinAlgError), 4 degenerate labels.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io_formats
from .detectors import DETECTOR_BETAS, DetectorConfig, fit, score_pixels
from .kernels import KernelSpec
from .metrics import (
    DegenerateLabelsError,
    apply_threshold,
    roc_curve,
    threshold_at_quantile,
    threshold_at_tpr,
)
from .raster import flatten, unflatten
from .simulate import pervasive_noise, scramble_anomalies
from .tune import anchor_sigma, grid_search, training_draw

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_DEGENERATE = 4


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError("must be a finite number")
    return value


def _not_nan(text: str) -> float:
    value = float(text)
    if np.isnan(value):
        raise argparse.ArgumentTypeError("must be a number, not nan")
    return value


def _positive_or_auto(text: str):
    if text == "auto":
        return None
    value = float(text)
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError("must be finite and positive, or 'auto'")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _sample_count(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("must be an integer >= 2")
    return value


def _rate(text: str) -> float:
    value = float(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError("must be in (0, 1]")
    return value


def _open_fraction(text: str) -> float:
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError("must be in (0, 1)")
    return value


def _read_pair(x_path, y_path):
    cube_x = io_formats.read_raster(x_path)
    cube_y = io_formats.read_raster(y_path)
    if (cube_x.height, cube_x.width) != (cube_y.height, cube_y.width):
        raise ValueError("unaligned pair: rasters differ in height/width")
    return cube_x, cube_y


def _read_labels(path, height, width) -> np.ndarray:
    cube = io_formats.read_raster(path)
    if (cube.height, cube.width) != (height, width):
        raise ValueError("label raster does not match image dimensions")
    return io_formats.cube_to_labels(cube)


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
    if not 0.0 < args.scramble_frac <= 1.0:
        raise ValueError("--scramble-frac must be in (0, 1]")
    cube = io_formats.read_raster(args.input)
    height, width = cube.height, cube.width
    pixels = pervasive_noise(flatten(cube), args.noise_std, args.seed)
    del cube  # the input need not coexist with the scrambled rows
    labels = scramble_anomalies(pixels, args.scramble_frac, args.seed + 1)
    io_formats.write_raster(unflatten(pixels, height, width), args.out)
    io_formats.write_raster(io_formats.labels_to_cube(labels, height, width), args.labels)
    return EXIT_OK


def cmd_fit(args) -> int:
    cube_x, cube_y = _read_pair(args.x, args.y)
    labels = None
    if args.train_labels:
        labels = _read_labels(args.train_labels, cube_x.height, cube_x.width)
    idx = training_draw(cube_x.n_pixels, args.train_samples, args.seed, labels)
    x_tr, y_tr = flatten(cube_x)[idx], flatten(cube_y)[idx]
    del cube_x, cube_y  # fit reads only the drawn rows

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
    cube_x, cube_y = _read_pair(args.x, args.y)
    scores = score_pixels(det, flatten(cube_x), flatten(cube_y))
    cube = unflatten(scores[:, None], cube_x.height, cube_x.width)
    io_formats.write_raster(cube, args.out)
    return EXIT_OK


def cmd_roc(args) -> int:
    scores_cube = io_formats.read_raster(args.scores)
    if scores_cube.bands != 1:
        raise ValueError("scores raster must have exactly one band")
    labels = _read_labels(args.labels, scores_cube.height, scores_cube.width)
    curve = roc_curve(scores_cube.data.ravel(), labels)
    io_formats.write_roc_csv(curve, args.out)
    print(f"AUC {curve.auc:.17g}")
    return EXIT_OK


def cmd_map(args) -> int:
    scores_cube = io_formats.read_raster(args.scores)
    if scores_cube.bands != 1:
        raise ValueError("scores raster must have exactly one band")
    scores = scores_cube.data.ravel()
    if args.threshold is not None:
        t = args.threshold
    elif args.tpr_rate is not None:
        if not args.labels:
            raise ValueError("--tpr-rate requires --labels")
        labels = _read_labels(args.labels, scores_cube.height, scores_cube.width)
        t = threshold_at_tpr(scores, labels, args.tpr_rate)
    else:
        t = threshold_at_quantile(scores, args.quantile)
    binary = apply_threshold(scores, t)
    io_formats.write_pgm(
        binary.reshape(scores_cube.height, scores_cube.width), args.out
    )
    print(f"threshold {t:.17g}")
    return EXIT_OK


def cmd_tune(args) -> int:
    cube_x, cube_y = _read_pair(args.x, args.y)
    x, y = flatten(cube_x), flatten(cube_y)
    labels = _read_labels(args.labels, cube_x.height, cube_x.width)
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
        io_formats.write_trace_csv(result.trace, args.trace_out)
    if args.model_out:
        io_formats.save_model(result.best_detector, args.model_out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42, help="random seed (default 42)")
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
    hyperparameters.add_argument("--nu", type=_finite, default=None, help="EC shape parameter")
    hyperparameters.add_argument(
        "--sigma", type=_positive_or_auto, default="auto", dest="sigma",
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
    p.add_argument("--noise-std", type=float, default=0.1)
    p.add_argument("--scramble-frac", type=float, default=0.01)
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
    p.add_argument("--n-train", type=int, default=1000)
    p.add_argument("--n-val", type=int, default=4000)
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
