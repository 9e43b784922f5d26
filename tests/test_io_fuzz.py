"""Fuzz the two JSON boundaries: raster sidecars and model manifests.

Whatever a sidecar or manifest holds, read_raster and load_model either
succeed or raise one of the documented format errors, which the CLI maps
to exit 1; whatever a sidecar or payload holds, RasterChunks reads what
read_raster reads, or raises its error. Whatever a raster or fitted model
holds, writing and reading it back restores every value bit for bit.
Examples are derandomized so the suite cannot flake.
"""

import dataclasses
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from acdkit.detectors import DetectorConfig, fit
from acdkit.io_formats import (
    CorruptModelError,
    RasterChunks,
    RasterFormatError,
    UnsupportedVersionError,
    load_model,
    read_raster,
    save_model,
    write_raster,
)
from acdkit.kernels import KernelSpec
from acdkit.raster import ImageCube

from conftest import correlated_pair

DOCUMENTED = (RasterFormatError, CorruptModelError, UnsupportedVersionError, FileNotFoundError)

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


def node_paths(value, prefix=()):
    """Key paths to every node below the root of a parsed JSON document."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        out.extend(node_paths(child, prefix + (key,)))
    return out


def mutate(data, document):
    """Replace or delete one node of a parsed JSON document, in place."""
    path = data.draw(st.sampled_from(node_paths(document)))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        parent[path[-1]] = data.draw(json_values)
    else:
        del parent[path[-1]]


def loads_or_documented_error(load, path):
    try:
        load(path)
    except DOCUMENTED:
        pass


def read_chunked(path) -> np.ndarray:
    """A raster's payload as RasterChunks reads it, as an (H, W, d) float32 array."""
    with RasterChunks(path) as chunks:
        rows = [chunk.copy() for chunk in chunks]
        return np.concatenate(rows).reshape(chunks.shape)


def same_outcome(path):
    """read_raster and RasterChunks give the same array, or the same documented error."""
    outcomes = []
    for read in (lambda p: read_raster(p).data, read_chunked):
        try:
            outcomes.append(read(path))
        except DOCUMENTED as e:
            outcomes.append((type(e), str(e)))
    whole, chunked = outcomes
    assert type(whole) is type(chunked)
    if isinstance(whole, np.ndarray):
        assert same_bits(whole, chunked)
    else:
        assert whole == chunked


@pytest.fixture(scope="module")
def raster(tmp_path_factory):
    path = tmp_path_factory.mktemp("raster") / "img.bin"
    rng = np.random.default_rng(0)
    write_raster(ImageCube(rng.normal(size=(4, 3, 2))), path)
    return path


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    x, y = correlated_pair(30, 2, seed=11)
    out = {}
    for mode, kernel in (("linear", None), ("kernel", KernelSpec("rbf", 1.5))):
        out[mode] = tmp_path_factory.mktemp(mode) / "model"
        save_model(fit(x, y, DetectorConfig(mode=mode, kernel=kernel)), out[mode])
    return out


def with_sidecar(raster, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / raster.name
        shutil.copyfile(raster, path)
        Path(str(path) + ".json").write_bytes(text)
        same_outcome(path)


def with_manifest(model, text):
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "model"
        shutil.copytree(model, copy)
        (copy / "manifest.json").write_bytes(text)
        loads_or_documented_error(load_model, copy)


@FUZZ
@given(data=st.data())
def test_mutated_sidecar(raster, data):
    meta = json.loads(Path(str(raster) + ".json").read_text())
    mutate(data, meta)
    with_sidecar(raster, json.dumps(meta).encode())


@FUZZ
@given(content=json_values.map(lambda v: json.dumps(v).encode()) | st.binary(max_size=64))
def test_arbitrary_sidecar(raster, content):
    with_sidecar(raster, content)


@FUZZ
@given(mode=st.sampled_from(["linear", "kernel"]), data=st.data())
def test_mutated_manifest(models, mode, data):
    manifest = json.loads((models[mode] / "manifest.json").read_text())
    mutate(data, manifest)
    with_manifest(models[mode], json.dumps(manifest).encode())


@FUZZ
@given(content=json_values.map(lambda v: json.dumps(v).encode()) | st.binary(max_size=64))
def test_arbitrary_manifest(models, content):
    with_manifest(models["linear"], content)


def same_bits(a, b):
    """Equal values, with arrays compared by dtype, shape and bytes, also inside tuples."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, tuple):  # a detector's derived weights
        return (type(a) is type(b) and len(a) == len(b)
                and all(same_bits(u, v) for u, v in zip(a, b)))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same_bits(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (float, np.floating)):
        return isinstance(b, (float, np.floating)) and np.float64(a).tobytes() == \
            np.float64(b).tobytes()
    return type(a) is type(b) and a == b


@FUZZ
@given(data=arrays(np.float32, st.tuples(st.integers(1, 5), st.integers(1, 5),
                                         st.integers(1, 4)),
                   elements=st.floats(width=32, allow_nan=False, allow_infinity=False)))
def test_raster_round_trip_bit_exact(data):
    cube = ImageCube(data)
    with tempfile.TemporaryDirectory() as tmp:
        write_raster(cube, Path(tmp) / "img.bin")
        assert same_bits(read_raster(Path(tmp) / "img.bin"), cube)
        assert same_bits(read_chunked(Path(tmp) / "img.bin"), cube.data)


@FUZZ
@given(content=st.binary(min_size=88, max_size=104)
       | arrays(np.float32, 24, elements=st.floats(width=32)).map(lambda a: a.astype("<f4").tobytes()))
def test_arbitrary_payload(raster, content):
    # bytes around the 96 that the fixture's 4 x 3 x 2 sidecar names, NaN and infinity
    # among them
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / raster.name
        path.write_bytes(content)
        shutil.copyfile(str(raster) + ".json", str(path) + ".json")
        same_outcome(path)


@FUZZ
@given(
    data=st.data(),
    mode=st.sampled_from(["linear", "rbf", "sam", "linear-kernel"]),
    betas=st.tuples(st.integers(0, 1), st.integers(0, 1)),
    nu=st.none() | st.floats(1e-3, 1e6),
    sigma=st.floats(0.1, 10.0),
    lam=st.none() | st.floats(1e-10, 1e2),
)
def test_model_round_trip_bit_exact(data, mode, betas, nu, sigma, lam):
    n = data.draw(st.integers(3, 12))
    d_x, d_y = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    rows = [data.draw(arrays(np.float64, (n, d), elements=st.floats(-1e3, 1e3)))
            for d in (d_x, d_y)]
    kernel = None
    if mode != "linear":
        kernel = KernelSpec("linear") if mode == "linear-kernel" else KernelSpec(mode, sigma)
    config = DetectorConfig(beta_x=betas[0], beta_y=betas[1],
                            distribution="gaussian" if nu is None else "ec", nu=nu,
                            mode="linear" if kernel is None else "kernel", kernel=kernel,
                            lam=lam if kernel is not None else None)
    det = fit(*rows, config)
    with tempfile.TemporaryDirectory() as tmp:
        save_model(det, Path(tmp) / "model")
        assert same_bits(load_model(Path(tmp) / "model"), det)
