import json
import math
import zlib
from pathlib import Path

import numpy as np
import pytest

from acdkit.cli import main
from acdkit.detectors import DetectorConfig, fit, score_pixels
from acdkit.io_formats import (
    READ_CHUNK,
    CorruptModelError,
    RasterChunks,
    RasterFormatError,
    UnsupportedVersionError,
    _layout,
    cube_to_labels,
    load_model,
    read_raster,
    save_model,
    write_pgm,
    write_raster,
    write_roc_csv,
    write_trace_csv,
)
from acdkit.kernels import KernelSpec
from acdkit.metrics import roc_curve
from acdkit.raster import ImageCube
from acdkit.tune import GridPoint

from conftest import correlated_pair, payload_spans, rewrite_payload


def f32_cube(h, w, d, seed=0):
    rng = np.random.default_rng(seed)
    return ImageCube(
        rng.normal(size=(h, w, d)).astype(np.float32).astype(np.float64)
    )


def test_raster_round_trip_exact(tmp_path):
    cube = f32_cube(5, 7, 3)
    path = tmp_path / "img.bin"
    write_raster(cube, path)
    back = read_raster(path)
    assert np.array_equal(back.data, cube.data)
    meta = json.loads((tmp_path / "img.bin.json").read_text())
    assert meta == {"height": 5, "width": 7, "bands": 3, "dtype": "f32",
                    "interleave": "bip"}


def test_raster_payload_byte_layout(tmp_path):
    cube = ImageCube(np.arange(8.0).reshape(2, 2, 2))
    path = tmp_path / "img.bin"
    write_raster(cube, path)
    payload = np.frombuffer(path.read_bytes(), dtype="<f4")
    assert np.array_equal(payload, np.arange(8.0, dtype=np.float32))


def test_read_raster_keeps_the_float32_payload(tmp_path):
    path = tmp_path / "img.bin"
    write_raster(f32_cube(5, 7, 3), path)
    data = read_raster(path).data
    assert data.dtype == np.float32 and not data.flags.writeable
    owner = data
    while isinstance(owner, np.ndarray):
        owner = owner.base
    assert isinstance(owner, bytes) and owner == path.read_bytes()
    assert np.shares_memory(data, np.frombuffer(owner, dtype="<f4"))


@pytest.mark.parametrize("value", [1e39, -np.finfo(np.float64).max])
def test_write_raster_rejects_values_beyond_float32(tmp_path, value):
    data = np.zeros((2, 3, 2))
    data[1, 2, 0] = value
    path = tmp_path / "img.bin"
    with pytest.raises(RasterFormatError, match="beyond float32's range"):
        write_raster(ImageCube(data), path)
    assert not path.exists() and not Path(str(path) + ".json").exists()


def test_write_raster_keeps_float32_max(tmp_path):
    top = float(np.finfo(np.float32).max)
    path = tmp_path / "img.bin"
    write_raster(ImageCube(np.array([[[top, -top]]])), path)
    assert np.array_equal(read_raster(path).data.ravel(), [top, -top])


def test_raster_size_mismatch_rejected(tmp_path):
    cube = f32_cube(3, 3, 2)
    path = tmp_path / "img.bin"
    write_raster(cube, path)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(RasterFormatError, match="payload"):
        read_raster(path)


def test_raster_chunks_read_the_payload_a_read_chunk_at_a_time(tmp_path):
    cube = f32_cube(257, 256, 2)  # one pixel row more than one read chunk
    path = tmp_path / "img.bin"
    write_raster(cube, path)
    with RasterChunks(path) as chunks:
        assert chunks.shape == (257, 256, 2)
        first, last = [(chunk.copy(), chunk) for chunk in chunks]
    assert first[0].shape == (READ_CHUNK, 2) and last[0].shape == (256, 2)
    assert first[0].dtype == np.float32 and np.shares_memory(first[1], last[1])
    rows = np.concatenate([first[0], last[0]])
    assert rows.tobytes() == read_raster(path).data.tobytes()


def test_raster_chunks_check_the_size_when_opened(tmp_path):
    # opening reads no payload, so a short one fails before any chunk is read
    path = tmp_path / "img.bin"
    write_raster(f32_cube(3, 3, 2), path)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(RasterFormatError, match="^payload is 68 bytes, expected 72$"):
        RasterChunks(path)


def test_raster_missing_sidecar(tmp_path):
    path = tmp_path / "img.bin"
    path.write_bytes(b"\x00" * 16)
    with pytest.raises(FileNotFoundError):
        read_raster(path)


@pytest.mark.parametrize("change,payload", [
    pytest.param("42", None, id="not-an-object"),
    pytest.param({"height": -1, "width": -4}, None, id="negative"),
    pytest.param({"height": "a"}, None, id="string"),
    pytest.param({"height": 0}, b"", id="zero"),
    pytest.param({"bands": True}, None, id="bool"),
    pytest.param({}, np.array([np.nan, 0, 0, 0], "<f4").tobytes(), id="nan-payload"),
    pytest.param({}, np.array([0, 0, -np.inf, 0], "<f4").tobytes(), id="inf-payload"),
])
def test_malformed_sidecar_rejected(tmp_path, capsys, change, payload):
    path = tmp_path / "img.bin"
    write_raster(f32_cube(2, 2, 1), path)
    if payload is not None:
        path.write_bytes(payload)
    sidecar = Path(str(path) + ".json")
    if isinstance(change, dict):
        change = json.dumps({**json.loads(sidecar.read_text()), **change})
    sidecar.write_text(change)
    with pytest.raises(RasterFormatError) as whole:
        read_raster(path)
    with pytest.raises(RasterFormatError) as chunked:
        with RasterChunks(path) as chunks:
            list(chunks)
    assert str(chunked.value) == str(whole.value)
    rc = main(["map", "--scores", str(path), "--threshold", "0", "--out",
               str(tmp_path / "map.pgm")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def test_labels_cube_round_trip(tmp_path):
    # labels are written as a one-band float32 cube of 0 and 1, as `acdkit simulate` does
    labels = np.array([0, 1, 1, 0, 1, 0], dtype=np.uint8)
    write_raster(ImageCube(labels.astype(np.float32).reshape(2, 3, 1)), tmp_path / "l.bin")
    assert (tmp_path / "l.bin").read_bytes() == labels.astype("<f4").tobytes()
    back = cube_to_labels(read_raster(tmp_path / "l.bin"))
    assert back.dtype == np.uint8 and np.array_equal(back, labels)
    with pytest.raises(ValueError, match="exactly one band"):
        cube_to_labels(ImageCube(np.ones((2, 3, 2))))


def test_pgm_binary_bytes(tmp_path):
    path = tmp_path / "map.pgm"
    write_pgm(np.array([[0.0, 1.0]]), path)
    assert path.read_bytes() == b"P5\n2 1\n255\n\x00\xff"


def test_roc_csv_format(tmp_path):
    scores = np.array([3.0, 2.0, 1.0, 0.0])
    labels = np.array([1, 0, 1, 0])
    curve = roc_curve(scores, labels)
    path = tmp_path / "roc.csv"
    write_roc_csv(curve, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "fpr,tpr,threshold"
    assert len(lines) == 1 + len(curve.fpr)
    fpr0 = float(lines[1].split(",")[0])
    assert fpr0 == 0.0
    assert lines[1].split(",")[2] == "inf"


def test_trace_csv_format(tmp_path):
    trace = [(GridPoint(nu=1.0, sigma=None, lam=None), 0.75),
             (GridPoint(nu=10.0, sigma=None, lam=None), 0.8)]
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "nu,sigma,lambda,val_auc"
    assert lines[1] == "1,,,0.75"


def test_trace_csv_equals_a_per_row_format(tmp_path):
    # repeated grid values, numpy and Python floats of one value, and untuned (None) axes
    nus, sigmas = [np.float64(1e-5), 0.1, np.float64(0.1), 1 / 3], [None, np.float64(2.5), 2.5]
    trace = [(GridPoint(nu=nu, sigma=sigma, lam=lam), auc)
             for nu in nus for sigma in sigmas for lam, auc in ((None, 0.5), (1e-10, 2 / 3))]

    def fmt(v):
        return "" if v is None else format(float(v), ".17g")

    expected = "nu,sigma,lambda,val_auc\n" + "".join(
        f"{fmt(p.nu)},{fmt(p.sigma)},{fmt(p.lam)},{fmt(auc)}\n" for p, auc in trace)
    write_trace_csv(trace, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == expected.encode()


@pytest.mark.parametrize("mode", ["linear", "kernel"])
def test_model_round_trip_scores_bit_exact(tmp_path, mode):
    x, y = correlated_pair(120, 3, seed=3)
    kw = {"mode": mode}
    if mode == "kernel":
        kw["kernel"] = KernelSpec("rbf", 2.0)
    det = fit(x[:80], y[:80], DetectorConfig(beta_x=1, beta_y=1, **kw))
    save_model(det, tmp_path / "model")
    loaded = load_model(tmp_path / "model")
    a = score_pixels(det, x[80:], y[80:])
    b = score_pixels(loaded, x[80:], y[80:])
    assert np.array_equal(a, b)
    assert loaded.config == det.config


@pytest.mark.parametrize("kernel", [None, KernelSpec("rbf", 2.0)], ids=["linear", "kernel"])
def test_model_stores_spectra_and_one_copy_of_each_quantity(tmp_path, kernel):
    x, y = correlated_pair(60, 2, seed=4)
    mode = "linear" if kernel is None else "kernel"
    det = fit(x, y, DetectorConfig(mode=mode, kernel=kernel))
    save_model(det, tmp_path / "model")
    assert sorted(p.name for p in (tmp_path / "model").iterdir()) == ["manifest.json", "model.bin"]
    manifest = json.loads((tmp_path / "model" / "manifest.json").read_text())
    assert set(manifest) == {"format_version", "config", "band_stats", "terms", "payload_crc32",
                             "crc32"}
    assert manifest["band_stats"] == {axis: {"mean": [2], "std": [2]} for axis in "xy"}
    n = 60
    for name, entry in manifest["terms"].items():
        k = 4 if name == "z" else 2
        if kernel is None:
            expected = {"basis": [k, k], "values": [k], "mean": [k],
                        "ridge": getattr(det, "term_" + name).ridge}
        else:
            expected = {"basis": [n, n], "values": [n]}
            if name != "z":  # term z's rows are [x | y]
                expected["train"] = [n, k]
        assert entry == expected
    # the payload holds the arrays in _layout's order, and nothing else
    payload = (tmp_path / "model" / "model.bin").read_bytes()
    arrays = [getattr(getattr(det, ("band_stats_" if section == "band_stats" else "term_") + name),
                      key) for section, name, key, _ in _layout(mode)]
    assert payload == b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays)
    assert manifest["payload_crc32"] == zlib.crc32(payload)


def test_model_tamper_detected(tmp_path):
    x, y = correlated_pair(60, 2, seed=4)
    det = fit(x, y, DetectorConfig())
    save_model(det, tmp_path / "model")
    payload = tmp_path / "model" / "model.bin"
    raw = bytearray(payload.read_bytes())
    raw[3] ^= 0xFF
    payload.write_bytes(bytes(raw))
    with pytest.raises(CorruptModelError, match="corrupt model: checksum mismatch in model.bin"):
        load_model(tmp_path / "model")


def test_model_unsupported_version(tmp_path):
    x, y = correlated_pair(60, 2, seed=5)
    det = fit(x, y, DetectorConfig())
    save_model(det, tmp_path / "model")
    manifest_path = tmp_path / "model" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = 999
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(UnsupportedVersionError, match="unsupported version"):
        load_model(tmp_path / "model")


def _edited(edit):
    def apply(text, directory):
        manifest = json.loads(text)
        edit(manifest)
        return json.dumps(manifest)
    return apply


def _blob_holding(value, *keys):
    """Put value first in the model.bin array at manifest[keys], with a matching payload CRC."""
    def apply(text, directory):
        manifest = json.loads(text)
        start = payload_spans(manifest)[keys][0]
        payload = bytearray((directory / "model.bin").read_bytes())
        payload[start:start + 8] = np.float64(value).tobytes()
        rewrite_payload(manifest, directory, bytes(payload))
        return json.dumps(manifest)
    return apply


def _payload_resized(change):
    """Append to or truncate model.bin by change bytes, with a matching payload CRC."""
    def apply(text, directory):
        manifest = json.loads(text)
        payload = (directory / "model.bin").read_bytes()
        rewrite_payload(manifest, directory,
                        payload + bytes(change) if change > 0 else payload[:change])
        return json.dumps(manifest)
    return apply


def _as_format_1(manifest):
    manifest["format_version"] = 1
    manifest["config"].update(kernel_x=None, kernel_y=None, kernel_z=None, ridge_scale=1e-8)


def _as_format_3(manifest):
    """Version 3 stored weights instead of spectra, and d_x and d_y."""
    manifest.update(format_version=3, d_x=2, d_y=2)
    for entry in manifest["terms"].values():
        entry["weights"] = entry.pop("values")


def _as_format_4(manifest):
    """Version 4 stored one blob file per array, named in the manifest with a type per term."""
    manifest["format_version"] = 4
    for name, entry in manifest["terms"].items():
        for key in ("basis", "values", "mean"):
            entry[key] = {"path": f"term_{name}_{key}.bin", "count": math.prod(entry[key]),
                          "shape": entry[key], "crc32": 0}
        entry["type"] = "linear"


@pytest.mark.parametrize("mutate,error", [
    pytest.param(lambda text, directory: text[:-10], CorruptModelError, id="not-json"),
    pytest.param(_edited(lambda m: m.pop("band_stats")), CorruptModelError, id="no-band-stats"),
    pytest.param(_edited(lambda m: m.update(config="hacd")), CorruptModelError,
                 id="config-string"),
    pytest.param(_edited(lambda m: m["terms"]["z"].update(basis=[3, 3])),
                 CorruptModelError, id="shape-disagrees-with-payload"),
    pytest.param(_edited(lambda m: m["terms"]["z"].update(basis=[16])),
                 CorruptModelError, id="shape-of-wrong-rank"),
    pytest.param(lambda text, directory: (directory / "model.bin").unlink() or text,
                 FileNotFoundError, id="payload-missing"),
    pytest.param(_payload_resized(-8), CorruptModelError, id="payload-too-short"),
    pytest.param(_payload_resized(8), CorruptModelError, id="payload-too-long"),
    pytest.param(_edited(_as_format_1), UnsupportedVersionError, id="format-1"),
    pytest.param(_edited(lambda m: m.update(format_version=2)), UnsupportedVersionError,
                 id="format-2"),
    pytest.param(_edited(_as_format_3), UnsupportedVersionError, id="format-3"),
    pytest.param(_edited(_as_format_4), UnsupportedVersionError, id="format-4"),
    pytest.param(_blob_holding(np.nan, "band_stats", "x", "mean"), CorruptModelError,
                 id="nan-blob"),
    pytest.param(_blob_holding(np.inf, "terms", "z", "mean"), CorruptModelError,
                 id="inf-blob"),
])
def test_malformed_manifest_rejected(tmp_path, capsys, mutate, error):
    x, y = correlated_pair(60, 2, seed=9)
    save_model(fit(x, y, DetectorConfig()), tmp_path / "model")
    manifest_path = tmp_path / "model" / "manifest.json"
    manifest_path.write_text(mutate(manifest_path.read_text(), tmp_path / "model"))
    with pytest.raises(error):
        load_model(tmp_path / "model")
    for name, m in (("x", x), ("y", y)):
        write_raster(ImageCube(m.reshape(6, 10, 2)), tmp_path / f"{name}.bin")
    rc = main(["score", "--model", str(tmp_path / "model"), "--x", str(tmp_path / "x.bin"),
               "--y", str(tmp_path / "y.bin"), "--out", str(tmp_path / "scores.bin")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "scores.bin").exists()
    if error is UnsupportedVersionError:
        assert "refit" in err
    if error is CorruptModelError:
        assert err.startswith("error: corrupt model: ")


def test_writers_deterministic(tmp_path):
    x, y = correlated_pair(60, 2, seed=6)
    det = fit(x, y, DetectorConfig(mode="kernel", kernel=KernelSpec("sam", 1.2)))
    save_model(det, tmp_path / "m1")
    save_model(det, tmp_path / "m2")
    files1 = sorted(p.name for p in (tmp_path / "m1").iterdir())
    files2 = sorted(p.name for p in (tmp_path / "m2").iterdir())
    assert files1 == files2
    for name in files1:
        assert (tmp_path / "m1" / name).read_bytes() == (tmp_path / "m2" / name).read_bytes()

    cube = f32_cube(4, 4, 2, seed=7)
    write_raster(cube, tmp_path / "r1.bin")
    write_raster(cube, tmp_path / "r2.bin")
    assert (tmp_path / "r1.bin").read_bytes() == (tmp_path / "r2.bin").read_bytes()


def test_load_model_ignores_unknown_manifest_keys(tmp_path):
    x, y = correlated_pair(60, 2, seed=8)
    det = fit(x, y, DetectorConfig())
    save_model(det, tmp_path / "model")
    manifest_path = tmp_path / "model" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["metadata"] = {"note": "run 1"}
    manifest_path.write_text(json.dumps(manifest))
    loaded = load_model(tmp_path / "model")
    assert np.array_equal(score_pixels(loaded, x, y), score_pixels(det, x, y))
