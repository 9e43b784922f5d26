"""Serialization: raster binary + JSON sidecar, PGM maps, CSV tables, models.

Rasters are raw little-endian float32 payloads in band-interleaved-by-pixel
order with a JSON sidecar at `<path>.json` describing the shape.
`read_raster` returns a float32 cube over the payload it read, with no
copy, and checks its values once, there. `write_raster` writes a float32
cube's buffer as it is; a float64 cube is converted once, and a value
beyond float32's range fails the write before any file is made. Models are
a directory holding `manifest.json` and `model.bin`, every float64 array
little-endian in one fixed order (`_layout`). Each term stores its basis
U and spectrum s; a linear term adds its mean and ridge, and the x and y
kernel terms their training rows. Term z's rows are rebuilt as [x | y],
and the weights are derived from the spectra and the config's lambda when
the detector is built. The manifest holds the config, the arrays' shapes
and model.bin's CRC32, and its own CRC32 covers them all. All writers are
deterministic byte-for-byte for identical inputs.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .detectors import DetectorConfig, FittedDetector, KernelTerm, LinearTerm
from .kernels import KernelSpec
from .metrics import RocCurve
from .raster import BandStats, ImageCube, _all_finite, stack_pair

__all__ = [
    "RasterFormatError",
    "CorruptModelError",
    "UnsupportedVersionError",
    "write_raster",
    "read_raster",
    "labels_to_cube",
    "cube_to_labels",
    "write_pgm",
    "write_roc_csv",
    "write_trace_csv",
    "save_model",
    "load_model",
]

FORMAT_VERSION = 5

# The manifest fields load_model reads; the manifest's own "crc32" covers them.
_MANIFEST_FIELDS = ("format_version", "config", "band_stats", "terms", "payload_crc32")


class RasterFormatError(Exception):
    """Raster payload or sidecar is malformed."""


class CorruptModelError(Exception):
    """The model manifest is malformed, or model.bin disagrees with it or fails its checksum."""


class UnsupportedVersionError(Exception):
    """The model manifest declares another format version; the model must be refit."""


# ---------------------------------------------------------------------------
# rasters
# ---------------------------------------------------------------------------

def write_raster(cube: ImageCube, path) -> None:
    """Write the payload, then the sidecar.

    Raises RasterFormatError, and writes neither file, if a float64 value
    rounds beyond float32's range.
    """
    path = Path(path)
    with np.errstate(over="ignore"):  # the check below reports an overflow
        payload = np.ascontiguousarray(cube.data, dtype="<f4")
    if not _all_finite(payload):
        raise RasterFormatError(f"cannot write raster {path}: a value is beyond float32's range")
    sidecar = {
        "height": cube.height,
        "width": cube.width,
        "bands": cube.bands,
        "dtype": "f32",
        "interleave": "bip",
    }
    path.write_bytes(payload)
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True) + "\n")


def read_raster(path) -> ImageCube:
    """A read-only float32 cube over the payload's bytes, with no copy.

    ImageCube checks its values once, here: NaN or infinity raises RasterFormatError.
    """
    path = Path(path)
    sidecar_path = Path(str(path) + ".json")
    if not path.exists() or not sidecar_path.exists():
        raise FileNotFoundError(f"raster {path} or its sidecar is missing")
    try:
        meta = json.loads(sidecar_path.read_text())
    except ValueError as e:  # not UTF-8 or not JSON
        raise RasterFormatError(f"bad sidecar {sidecar_path}: {e}") from e
    if not isinstance(meta, dict):
        raise RasterFormatError(f"bad sidecar {sidecar_path}: not a JSON object")
    for key in ("height", "width", "bands", "dtype", "interleave"):
        if key not in meta:
            raise RasterFormatError(f"sidecar missing {key!r}")
    if meta["dtype"] != "f32" or meta["interleave"] != "bip":
        raise RasterFormatError("unsupported raster dtype or interleave")
    h, w, d = meta["height"], meta["width"], meta["bands"]
    if not all(type(v) is int and v > 0 for v in (h, w, d)):
        raise RasterFormatError("sidecar height, width and bands must be positive integers")
    payload = path.read_bytes()
    if len(payload) != h * w * d * 4:
        raise RasterFormatError(
            f"payload is {len(payload)} bytes, expected {h * w * d * 4}"
        )
    data = np.frombuffer(payload, dtype="<f4").reshape(h, w, d)
    try:
        return ImageCube(data)
    except ValueError as e:  # NaN or inf in the payload; ImageCube's own scan finds it
        raise RasterFormatError(f"bad raster {path}: {e}") from e


def labels_to_cube(labels: np.ndarray, height: int, width: int) -> ImageCube:
    """Pack a flat binary label vector as a 1-band cube."""
    labels = np.asarray(labels).ravel()
    if labels.size != height * width:
        raise ValueError("label count does not match height*width")
    return ImageCube((labels > 0).astype(np.float32).reshape(height, width, 1))


def cube_to_labels(cube: ImageCube) -> np.ndarray:
    """Flatten a 1-band cube back to a binary label vector; ValueError for another band count."""
    if cube.bands != 1:
        raise ValueError("label raster must have exactly one band")
    return (cube.data.ravel() > 0.5).astype(np.uint8)


# ---------------------------------------------------------------------------
# PGM
# ---------------------------------------------------------------------------

def write_pgm(values: np.ndarray, path) -> None:
    """Render an (H, W) binary map as an 8-bit P5 PGM: positive values 255, others 0."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("expected an (H, W) map")
    pixels = np.where(values > 0, 255, 0).astype(np.uint8)
    h, w = values.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes(order="C"))


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    return "" if v is None else format(float(v), ".17g")


def write_roc_csv(curve: RocCurve, path) -> None:
    lines = ["fpr,tpr,threshold"]
    for f, t, thr in zip(curve.fpr, curve.tpr, curve.thresholds):
        lines.append(f"{_fmt(f)},{_fmt(t)},{_fmt(thr)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_trace_csv(trace, path) -> None:
    """One row per (GridPoint, auc) pair of an iterable such as TuneResult.points(),
    each written as it is read, into one open file. Each distinct nu, sigma and lambda
    is formatted once: grid entries are positive, so equal values have equal text."""
    formatted = {}

    def fmt(v) -> str:
        if v not in formatted:
            formatted[v] = _fmt(v)
        return formatted[v]

    with Path(path).open("w") as f:
        f.write("nu,sigma,lambda,val_auc\n")
        f.writelines(f"{fmt(point.nu)},{fmt(point.sigma)},{fmt(point.lam)},{_fmt(auc)}\n"
                     for point, auc in trace)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

_NUMBER = (int, float)
_OPTIONAL_NUMBER = (int, float, type(None))

# FittedDetector's attribute for each manifest section: band_stats_x, term_z, ...
_OWNER_PREFIX = {"band_stats": "band_stats_", "terms": "term_"}


def _layout(mode: str):
    """(section, name, key, ndim) of each array in model.bin, in payload order; the
    manifest holds its shape at [section][name][key]. Term z's kernel rows are [x | y]."""
    for name in ("x", "y"):
        yield "band_stats", name, "mean", 1
        yield "band_stats", name, "std", 1
    for name in ("x", "y", "z"):
        yield "terms", name, "basis", 2
        yield "terms", name, "values", 1
        if mode == "linear":
            yield "terms", name, "mean", 1
        elif name != "z":
            yield "terms", name, "train", 2


def _get(d: dict, key: str, types, where: str):
    """d[key], which must be an instance of types; no manifest field is a bool."""
    if key not in d:
        raise CorruptModelError(f"corrupt model: {where} has no {key!r}")
    value = d[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise CorruptModelError(f"corrupt model: {where}.{key} has the wrong type")
    return value


def _optional_float(d: dict, key: str, where: str) -> float | None:
    """d[key], a number or None, as a float; a JSON integer beyond float64's range is corrupt."""
    value = _get(d, key, _OPTIONAL_NUMBER, where)
    try:
        return None if value is None else float(value)
    except OverflowError:
        raise CorruptModelError(
            f"corrupt model: {where}.{key} is beyond float64's range") from None


def _config_from(d: dict) -> DetectorConfig:
    kernel = _get(d, "kernel", (dict, type(None)), "config")
    if kernel is not None:
        kernel = KernelSpec(kind=_get(kernel, "kind", str, "config.kernel"),
                            sigma=_optional_float(kernel, "sigma", "config.kernel"))
    return DetectorConfig(
        beta_x=_get(d, "beta_x", int, "config"),
        beta_y=_get(d, "beta_y", int, "config"),
        distribution=_get(d, "distribution", str, "config"),
        nu=_optional_float(d, "nu", "config"),
        mode=_get(d, "mode", str, "config"),
        kernel=kernel,
        lam=_optional_float(d, "lam", "config"),
    )


def _manifest_crc(manifest: dict) -> int:
    """CRC32 of the canonical JSON of the fields load_model reads."""
    fields = {key: manifest.get(key) for key in _MANIFEST_FIELDS}
    return zlib.crc32(json.dumps(fields, sort_keys=True).encode()) & 0xFFFFFFFF


def save_model(det: FittedDetector, directory) -> None:
    """Write manifest.json and model.bin; load_model restores bit-exactly.

    Each array is written to model.bin as it is (float64 arrays are not
    copied) and its CRC32 accumulated, so no joined payload is made.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    manifest = {
        "format_version": FORMAT_VERSION,
        "config": asdict(det.config),  # its seven fields, and the kernel's kind and sigma
        "band_stats": {"x": {}, "y": {}},
        "terms": {"x": {}, "y": {}, "z": {}},
    }
    crc = 0
    with open(directory / "model.bin", "wb") as f:
        for section, name, key, _ in _layout(det.config.mode):
            owner = getattr(det, _OWNER_PREFIX[section] + name)
            arr = np.ascontiguousarray(getattr(owner, key), dtype="<f8")
            f.write(arr)
            crc = zlib.crc32(arr, crc)
            manifest[section][name][key] = list(arr.shape)
    if det.config.mode == "linear":
        for name, entry in manifest["terms"].items():
            entry["ridge"] = getattr(det, "term_" + name).ridge
    manifest["payload_crc32"] = crc
    manifest["crc32"] = _manifest_crc(manifest)
    (directory / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )


def _read_payload(directory: Path, manifest: dict, mode: str) -> dict:
    """model.bin's arrays as read-only views, as arrays[section][name][key].

    Each is checked against its manifest shape and for finite values; then
    the payload's length, and its CRC32 against payload_crc32.
    """
    sections = {section: _get(manifest, section, dict, "manifest") for section in _OWNER_PREFIX}
    payload = (directory / "model.bin").read_bytes()
    arrays, offset = {}, 0
    for section, name, key, ndim in _layout(mode):
        where = f"{section}.{name}"
        shape = _get(_get(sections[section], name, dict, section), key, list, where)
        if len(shape) != ndim or not all(type(n) is int and n >= 0 for n in shape):
            raise CorruptModelError(f"corrupt model: bad shape {shape!r} for {where}.{key}")
        nbytes = 8 * math.prod(shape)
        if offset + nbytes > len(payload):
            raise CorruptModelError("corrupt model: model.bin is shorter than its shapes")
        values = np.frombuffer(payload, "<f8", nbytes // 8, offset).reshape(shape)
        if not _all_finite(values):
            raise CorruptModelError(f"corrupt model: non-finite value in {where}.{key}")
        arrays.setdefault(section, {}).setdefault(name, {})[key] = values
        offset += nbytes
    if offset != len(payload):
        raise CorruptModelError("corrupt model: model.bin is longer than its shapes")
    if zlib.crc32(payload) != _get(manifest, "payload_crc32", int, "manifest"):
        raise CorruptModelError("corrupt model: checksum mismatch in model.bin")
    return arrays


def load_model(directory) -> FittedDetector:
    """Restore a detector written by save_model; other top-level manifest keys are ignored.

    A manifest of another format version raises UnsupportedVersionError; any
    other malformed manifest, a model.bin that disagrees with the manifest's
    shapes or fails its checksum, or a manifest whose fields fail their
    checksum raises CorruptModelError. The config is read first, and its
    mode decides which arrays each term reads. The manifest's checksum is
    checked last, so a type or constructor check reports an edit it catches.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest.json under {directory}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as e:  # not UTF-8 or not JSON
        raise CorruptModelError(f"corrupt model: bad manifest.json: {e}") from e
    if not isinstance(manifest, dict):
        raise CorruptModelError("corrupt model: manifest.json is not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"unsupported version {version!r} of the model format "
            f"(this acdkit reads version {FORMAT_VERSION}); refit the model"
        )
    try:  # the constructors reject values that are well-typed but inconsistent
        config = _config_from(_get(manifest, "config", dict, "manifest"))
        arrays = _read_payload(directory, manifest, config.mode)
        terms = arrays["terms"]
        if config.mode == "linear":
            make = LinearTerm
            for name, fields in terms.items():
                fields["ridge"] = _get(manifest["terms"][name], "ridge", _NUMBER, f"terms.{name}")
        else:
            make = KernelTerm
            terms["z"]["train"] = stack_pair(terms["x"]["train"], terms["y"]["train"])
        det = FittedDetector(
            config=config,
            band_stats_x=BandStats(**arrays["band_stats"]["x"]),
            band_stats_y=BandStats(**arrays["band_stats"]["y"]),
            term_x=make(**terms["x"]),
            term_y=make(**terms["y"]),
            term_z=make(**terms["z"]),
        )
    except ValueError as e:
        raise CorruptModelError(f"corrupt model: {e}") from e
    if _get(manifest, "crc32", int, "manifest") != _manifest_crc(manifest):
        raise CorruptModelError("corrupt model: checksum mismatch in manifest.json")
    return det
