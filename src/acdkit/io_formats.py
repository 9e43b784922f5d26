"""Serialization: raster binary + JSON sidecar, PGM maps, CSV tables, models.

Rasters are raw little-endian float32 payloads in band-interleaved-by-pixel
order with a JSON sidecar at `<path>.json` describing the shape.
`read_raster` returns a float32 cube over the payload it read, with no
copy, and checks its values once, there. `write_raster` writes a float32
cube's buffer as it is; a float64 cube is converted once, and a value
beyond float32's range fails the write before any file is made. Models are
a directory holding `manifest.json` plus little-endian float64 blobs. Each
term stores its basis U and spectrum s; a linear term adds its mean and
ridge, and the x and y kernel terms their training rows. Term z's rows are
rebuilt as [x | y], and the weights are derived from the spectra and the
config's lambda when the detector is built. Every blob, and the manifest
fields load_model reads, are CRC32-checked on load. All writers are
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

FORMAT_VERSION = 4

# The manifest fields load_model reads; the manifest's own "crc32" covers them.
_MANIFEST_FIELDS = ("format_version", "config", "band_stats", "terms")


class RasterFormatError(Exception):
    """Raster payload or sidecar is malformed."""


class CorruptModelError(Exception):
    """The model manifest is malformed or a blob is missing or fails its checksum."""


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
    lines = ["nu,sigma,lambda,val_auc"]
    for point, auc in trace:
        lines.append(f"{_fmt(point.nu)},{_fmt(point.sigma)},{_fmt(point.lam)},{_fmt(auc)}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

def _write_blob(directory: Path, name: str, arr: np.ndarray) -> dict:
    payload = np.ascontiguousarray(arr, dtype="<f8").tobytes(order="C")
    (directory / name).write_bytes(payload)
    return {
        "path": name,
        "count": int(arr.size),
        "shape": list(arr.shape),
        "crc32": zlib.crc32(payload) & 0xFFFFFFFF,
    }


_NUMBER = (int, float)
_OPTIONAL_NUMBER = (int, float, type(None))


def _get(d: dict, key: str, types, where: str):
    """d[key], which must be an instance of types; no manifest field is a bool."""
    if key not in d:
        raise CorruptModelError(f"corrupt model: {where} has no {key!r}")
    value = d[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise CorruptModelError(f"corrupt model: {where}.{key} has the wrong type")
    return value


def _read_blob(directory: Path, entry: dict, key: str, where: str, ndim: int) -> np.ndarray:
    ref, where = _get(entry, key, dict, where), f"{where}.{key}"
    name = _get(ref, "path", str, where)
    count = _get(ref, "count", int, where)
    shape = _get(ref, "shape", list, where)
    if Path(name).name != name or name == "..":
        raise CorruptModelError(f"corrupt model: blob path {name!r} is not a file name")
    if (len(shape) != ndim or not all(type(n) is int and n >= 0 for n in shape)
            or math.prod(shape) != count):
        raise CorruptModelError(f"corrupt model: bad shape {shape!r} for {name}")
    blob_path = directory / name
    if not blob_path.is_file():
        raise CorruptModelError(f"missing blob {name}")
    payload = blob_path.read_bytes()
    if (zlib.crc32(payload) & 0xFFFFFFFF) != _get(ref, "crc32", int, where):
        raise CorruptModelError(f"corrupt model: checksum mismatch in {name}")
    if len(payload) != 8 * count:
        raise CorruptModelError(f"corrupt model: wrong element count in {name}")
    values = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
    if not np.isfinite(values).all():
        raise CorruptModelError(f"corrupt model: non-finite value in {name}")
    return values


def _config_from(d: dict) -> DetectorConfig:
    kernel = _get(d, "kernel", (dict, type(None)), "config")
    if kernel is not None:
        kernel = KernelSpec(kind=_get(kernel, "kind", str, "config.kernel"),
                            sigma=_get(kernel, "sigma", _OPTIONAL_NUMBER, "config.kernel"))
    return DetectorConfig(
        beta_x=_get(d, "beta_x", int, "config"),
        beta_y=_get(d, "beta_y", int, "config"),
        distribution=_get(d, "distribution", str, "config"),
        nu=_get(d, "nu", _OPTIONAL_NUMBER, "config"),
        mode=_get(d, "mode", str, "config"),
        kernel=kernel,
        lam=_get(d, "lam", _OPTIONAL_NUMBER, "config"),
    )


def _manifest_crc(manifest: dict) -> int:
    """CRC32 of the canonical JSON of the fields load_model reads."""
    fields = {key: manifest.get(key) for key in _MANIFEST_FIELDS}
    return zlib.crc32(json.dumps(fields, sort_keys=True).encode()) & 0xFFFFFFFF


def save_model(det: FittedDetector, directory) -> None:
    """Write manifest.json plus float64 blobs; load_model restores bit-exactly."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    manifest = {
        "format_version": FORMAT_VERSION,
        "config": asdict(det.config),  # its seven fields, and the kernel's kind and sigma
        "band_stats": {},
        "terms": {},
    }
    for axis, stats in (("x", det.band_stats_x), ("y", det.band_stats_y)):
        manifest["band_stats"][axis] = {
            "mean": _write_blob(directory, f"band_stats_{axis}_mean.bin", stats.mean),
            "std": _write_blob(directory, f"band_stats_{axis}_std.bin", stats.std),
        }
    for name, term in (("x", det.term_x), ("y", det.term_y), ("z", det.term_z)):
        entry = {
            "basis": _write_blob(directory, f"term_{name}_basis.bin", term.basis),
            "values": _write_blob(directory, f"term_{name}_values.bin", term.values),
        }
        if isinstance(term, LinearTerm):
            entry.update(type="linear", ridge=term.ridge,
                         mean=_write_blob(directory, f"term_{name}_mean.bin", term.mean))
        else:
            entry["type"] = "kernel"
            if name != "z":  # term z's rows are [x | y]
                entry["train"] = _write_blob(directory, f"term_{name}_train.bin", term.train)
        manifest["terms"][name] = entry
    manifest["crc32"] = _manifest_crc(manifest)
    (directory / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )


def _term_from(directory: Path, entry: dict, where: str, train: np.ndarray | None = None):
    """The term of a manifest entry; a kernel term reads its rows unless given them."""
    eig = {
        "basis": _read_blob(directory, entry, "basis", where, 2),
        "values": _read_blob(directory, entry, "values", where, 1),
    }
    kind = _get(entry, "type", str, where)
    if kind == "linear":
        return LinearTerm(mean=_read_blob(directory, entry, "mean", where, 1),
                          ridge=_get(entry, "ridge", _NUMBER, where), **eig)
    if kind == "kernel":
        if train is None:
            train = _read_blob(directory, entry, "train", where, 2)
        return KernelTerm(train=train, **eig)
    raise CorruptModelError(f"unknown term type {kind!r}")


def load_model(directory) -> FittedDetector:
    """Restore a detector written by save_model; other top-level manifest keys are ignored.

    A manifest of another format version raises UnsupportedVersionError; any
    other malformed manifest, missing or corrupt blob, or a manifest whose
    fields fail their checksum raises CorruptModelError. The checksum is
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
    band_stats = _get(manifest, "band_stats", dict, "manifest")
    terms = _get(manifest, "terms", dict, "manifest")
    try:  # the constructors reject values that are well-typed but inconsistent
        stats = {}
        for axis in ("x", "y"):
            entry, where = _get(band_stats, axis, dict, "band_stats"), f"band_stats.{axis}"
            stats[axis] = BandStats(
                mean=_read_blob(directory, entry, "mean", where, 1),
                std=_read_blob(directory, entry, "std", where, 1),
            )
        term_x, term_y = (_term_from(directory, _get(terms, name, dict, "terms"), f"terms.{name}")
                          for name in ("x", "y"))
        z_train = None
        if isinstance(term_x, KernelTerm) and isinstance(term_y, KernelTerm):
            z_train = stack_pair(term_x.train, term_y.train)
        det = FittedDetector(
            config=_config_from(_get(manifest, "config", dict, "manifest")),
            band_stats_x=stats["x"],
            band_stats_y=stats["y"],
            term_x=term_x,
            term_y=term_y,
            term_z=_term_from(directory, _get(terms, "z", dict, "terms"), "terms.z", z_train),
        )
    except ValueError as e:
        raise CorruptModelError(f"corrupt model: {e}") from e
    if _get(manifest, "crc32", int, "manifest") != _manifest_crc(manifest):
        raise CorruptModelError("corrupt model: checksum mismatch in manifest.json")
    return det
