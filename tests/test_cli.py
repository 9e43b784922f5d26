import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from acdkit.cli import main
from acdkit.io_formats import read_raster, write_raster
from acdkit.metrics import roc_curve
from acdkit.raster import ImageCube

from conftest import mixture_cube


@pytest.fixture
def scene(tmp_path):
    """Simulated pair plus labels on disk, ready for fit/score/roc."""
    cube = mixture_cube(48, 48, 3, seed=0)
    x_path = tmp_path / "x.bin"
    write_raster(cube, x_path)
    y_path = tmp_path / "y.bin"
    labels_path = tmp_path / "labels.bin"
    rc = main([
        "simulate", "--input", str(x_path), "--out", str(y_path),
        "--labels", str(labels_path), "--seed", "7",
    ])
    assert rc == 0
    return {"x": x_path, "y": y_path, "labels": labels_path, "dir": tmp_path}


def test_full_pipeline_smoke(scene):
    d = scene["dir"]
    rc = main([
        "fit", "--x", str(scene["x"]), "--y", str(scene["y"]),
        "--detector", "hacd", "--dist", "gaussian", "--mode", "linear",
        "--train-samples", "400", "--train-labels", str(scene["labels"]),
        "--model-out", str(d / "model"), "--seed", "7",
    ])
    assert rc == 0
    rc = main([
        "score", "--model", str(d / "model"), "--x", str(scene["x"]),
        "--y", str(scene["y"]), "--out", str(d / "scores.bin"),
    ])
    assert rc == 0
    rc = main([
        "roc", "--scores", str(d / "scores.bin"), "--labels", str(scene["labels"]),
        "--out", str(d / "roc.csv"),
    ])
    assert rc == 0
    rc = main([
        "map", "--scores", str(d / "scores.bin"), "--quantile", "0.05",
        "--out", str(d / "map.pgm"),
    ])
    assert rc == 0
    assert (d / "map.pgm").read_bytes().startswith(b"P5\n48 48\n255\n")


def test_simulate_rejects_zero_frac(scene):
    rc = main([
        "simulate", "--input", str(scene["x"]), "--out", "/tmp/nope.bin",
        "--labels", "/tmp/nope_labels.bin", "--scramble-frac", "0",
    ])
    assert rc == 2


def test_simulate_deterministic(scene, tmp_path):
    out2 = tmp_path / "y2.bin"
    lab2 = tmp_path / "labels2.bin"
    rc = main([
        "simulate", "--input", str(scene["x"]), "--out", str(out2),
        "--labels", str(lab2), "--seed", "7",
    ])
    assert rc == 0
    assert out2.read_bytes() == scene["y"].read_bytes()
    assert lab2.read_bytes() == scene["labels"].read_bytes()


def test_simulate_default_label_fraction(scene):
    labels = read_raster(scene["labels"]).data.ravel()
    assert int(labels.sum()) == round(0.01 * 48 * 48)


def test_missing_input_is_io_error(tmp_path):
    rc = main([
        "score", "--model", str(tmp_path / "nomodel"), "--x", "/nonexistent.bin",
        "--y", "/nonexistent2.bin", "--out", str(tmp_path / "s.bin"),
    ])
    assert rc == 1


def test_fit_ec_requires_nu(scene):
    rc = main([
        "fit", "--x", str(scene["x"]), "--y", str(scene["y"]),
        "--dist", "ec", "--mode", "linear", "--train-samples", "100",
        "--model-out", str(scene["dir"] / "m"),
    ])
    assert rc == 2


def test_fit_gaussian_rejects_nu(scene, capsys):
    model = scene["dir"] / "m"
    rc = main([
        "fit", "--x", str(scene["x"]), "--y", str(scene["y"]),
        "--dist", "gaussian", "--nu", "-3", "--train-samples", "100",
        "--model-out", str(model),
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "error: nu applies to the ec distribution only\n"
    assert not model.exists()


def test_import_leaves_scipy_unloaded():
    import acdkit

    src = str(Path(acdkit.__file__).resolve().parent.parent)
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import acdkit; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe, src],
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("name,betas", [("rx", (0, 0)), ("yx", (0, 1)),
                                        ("xy", (1, 0)), ("hacd", (1, 1))])
def test_fit_detector_names_map_to_betas(scene, name, betas):
    out = scene["dir"] / f"model_{name}"
    rc = main([
        "fit", "--x", str(scene["x"]), "--y", str(scene["y"]),
        "--detector", name, "--train-samples", "200",
        "--model-out", str(out), "--seed", "1",
    ])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["config"]["beta_x"], manifest["config"]["beta_y"]) == betas


def test_fit_auto_sigma_and_lambda(scene, capsys):
    out = scene["dir"] / "model_k"
    rc = main([
        "fit", "--x", str(scene["x"]), "--y", str(scene["y"]),
        "--mode", "kernel", "--kernel", "rbf", "--train-samples", "150",
        "--model-out", str(out), "--seed", "3",
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "sigma auto ->" in printed
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["kernel"]["sigma"] > 0
    assert manifest["config"]["lam"] is None  # auto
    assert manifest["terms"]["x"]["lam"] == pytest.approx(1e-5 / 150)


def test_roc_prints_library_auc(scene, capsys, tmp_path):
    d = scene["dir"]
    main([
        "fit", "--x", str(scene["x"]), "--y", str(scene["y"]),
        "--train-samples", "300", "--model-out", str(d / "m2"), "--seed", "2",
    ])
    main([
        "score", "--model", str(d / "m2"), "--x", str(scene["x"]),
        "--y", str(scene["y"]), "--out", str(d / "s2.bin"),
    ])
    capsys.readouterr()
    rc = main([
        "roc", "--scores", str(d / "s2.bin"), "--labels", str(scene["labels"]),
        "--out", str(d / "roc2.csv"),
    ])
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    scores = read_raster(d / "s2.bin").data.ravel()
    labels = (read_raster(scene["labels"]).data.ravel() > 0.5).astype(int)
    expected = roc_curve(scores, labels).auc
    assert printed == f"AUC {expected:.17g}"


def test_roc_degenerate_labels_exit4(scene, tmp_path):
    bad = tmp_path / "allzero.bin"
    write_raster(ImageCube.from_array(np.zeros((48, 48, 1))), bad)
    rc = main([
        "roc", "--scores", str(scene["y"]), "--labels", str(bad),
        "--out", str(tmp_path / "r.csv"),
    ])
    # scores raster here has 3 bands -> usage error comes first; build a real one
    assert rc == 2
    d = scene["dir"]
    main([
        "fit", "--x", str(scene["x"]), "--y", str(scene["y"]),
        "--train-samples", "200", "--model-out", str(d / "m3"), "--seed", "4",
    ])
    main([
        "score", "--model", str(d / "m3"), "--x", str(scene["x"]),
        "--y", str(scene["y"]), "--out", str(d / "s3.bin"),
    ])
    rc = main([
        "roc", "--scores", str(d / "s3.bin"), "--labels", str(bad),
        "--out", str(tmp_path / "r.csv"),
    ])
    assert rc == 4


def test_map_tpr_rate_protocol(scene):
    d = scene["dir"]
    main([
        "fit", "--x", str(scene["x"]), "--y", str(scene["y"]),
        "--train-samples", "300", "--train-labels", str(scene["labels"]),
        "--model-out", str(d / "m4"), "--seed", "5",
    ])
    main([
        "score", "--model", str(d / "m4"), "--x", str(scene["x"]),
        "--y", str(scene["y"]), "--out", str(d / "s4.bin"),
    ])
    rc = main([
        "map", "--scores", str(d / "s4.bin"), "--tpr-rate", "0.82",
        "--labels", str(scene["labels"]), "--out", str(d / "map82.pgm"),
    ])
    assert rc == 0
    body = (d / "map82.pgm").read_bytes().split(b"255\n", 1)[1]
    flagged = np.frombuffer(body, dtype=np.uint8) > 0
    labels = (read_raster(scene["labels"]).data.ravel() > 0.5)
    tpr = flagged[labels].mean()
    assert tpr >= 0.82


def test_roc_csv_and_tpr_map_follow_the_full_vertex_list(scene, capsys):
    # roc.csv keeps, in order, a subset of the rows the full vertex list (one
    # per distinct score) gives, and map --tpr-rate still picks the first
    # vertex of the full list whose tpr reaches the rate.
    d = scene["dir"]
    main([
        "fit", "--x", str(scene["x"]), "--y", str(scene["y"]),
        "--train-samples", "300", "--train-labels", str(scene["labels"]),
        "--model-out", str(d / "m5"), "--seed", "5",
    ])
    main([
        "score", "--model", str(d / "m5"), "--x", str(scene["x"]),
        "--y", str(scene["y"]), "--out", str(d / "s5.bin"),
    ])
    capsys.readouterr()
    assert main(["roc", "--scores", str(d / "s5.bin"), "--labels", str(scene["labels"]),
                 "--out", str(d / "roc5.csv")]) == 0
    assert main(["map", "--scores", str(d / "s5.bin"), "--tpr-rate", "0.82",
                 "--labels", str(scene["labels"]), "--out", str(d / "map5.pgm")]) == 0
    printed = capsys.readouterr().out.splitlines()

    scores = read_raster(d / "s5.bin").data.ravel().astype(np.float64)
    positive = read_raster(scene["labels"]).data.ravel() > 0.5
    thresholds = np.concatenate([[np.inf], np.unique(scores)[::-1]])
    tp = np.array([np.sum(positive & (scores >= t)) for t in thresholds])
    fp = np.array([np.sum(~positive & (scores >= t)) for t in thresholds])
    full_rows = [f"{f:.17g},{t:.17g},{thr:.17g}"
                 for f, t, thr in zip(fp / fp[-1], tp / tp[-1], thresholds)]
    rows = (d / "roc5.csv").read_text().splitlines()
    assert rows[0] == "fpr,tpr,threshold"
    it = iter(full_rows)
    assert all(row in it for row in rows[1:])  # an ordered subsequence
    assert rows[1] == full_rows[0] and rows[-1] == full_rows[-1]
    assert len(rows) - 1 < len(full_rows)

    t = float(thresholds[np.nonzero(tp / tp[-1] >= 0.82)[0][0]])
    assert printed[-1] == f"threshold {t:.17g}"
    pixels = np.where(scores >= t, 255, 0).astype(np.uint8)
    assert (d / "map5.pgm").read_bytes() == b"P5\n48 48\n255\n" + pixels.tobytes()


def test_tune_linear_ec(scene):
    d = scene["dir"]
    rc = main([
        "tune", "--x", str(scene["x"]), "--y", str(scene["y"]),
        "--labels", str(scene["labels"]), "--detector", "hacd", "--dist", "ec",
        "--mode", "linear", "--n-train", "200", "--n-val", "800",
        "--trace-out", str(d / "trace.csv"), "--model-out", str(d / "tuned"),
        "--seed", "6",
    ])
    assert rc == 0
    lines = (d / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == "nu,sigma,lambda,val_auc"
    assert len(lines) == 1 + 100  # default nu grid
    manifest = json.loads((d / "tuned" / "manifest.json").read_text())
    assert manifest["config"]["distribution"] == "ec"
    assert manifest["config"]["nu"] > 0


def test_simulate_parser_defaults():
    from acdkit.cli import build_parser

    args = build_parser().parse_args(
        ["simulate", "--input", "a", "--out", "b", "--labels", "c"]
    )
    assert args.noise_std == 0.1
    assert args.scramble_frac == 0.01
    assert args.seed == 42


def test_fit_auto_sigma_matches_heuristic(scene):
    from acdkit.raster import flatten, sample_pixels
    from acdkit.tune import anchor_sigma

    out = scene["dir"] / "model_sigma"
    rc = main([
        "fit", "--x", str(scene["x"]), "--y", str(scene["y"]),
        "--mode", "kernel", "--kernel", "rbf", "--train-samples", "120",
        "--model-out", str(out), "--seed", "11",
    ])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # replicate the training draw and the documented heuristic
    x = flatten(read_raster(scene["x"]))
    y = flatten(read_raster(scene["y"]))
    idx = sample_pixels(x.shape[0], 120, seed=11)
    expected = anchor_sigma(x[idx], y[idx])
    assert manifest["config"]["kernel"]["sigma"] == expected


def test_singular_covariance_exit3(scene, monkeypatch, capsys):
    from acdkit import cli

    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("matrix is not positive definite after its ridge")

    monkeypatch.setattr(cli, "fit", boom)
    rc = main([
        "fit", "--x", str(scene["x"]), "--y", str(scene["y"]),
        "--train-samples", "100", "--model-out", str(scene["dir"] / "m_err"),
    ])
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: matrix is not positive definite after its ridge\n")


@pytest.mark.parametrize("flag,value", [("--nu", "7"), ("--sigma", "0.3"),
                                        ("--lambda", "0.5")])
def test_tune_rejects_hyperparameter_flags(scene, capsys, flag, value):
    # tune searches nu, sigma and lambda, so it takes none of them
    rc = main([
        "tune", "--x", str(scene["x"]), "--y", str(scene["y"]),
        "--labels", str(scene["labels"]), "--dist", "ec", "--mode", "kernel",
        flag, value,
    ])
    assert rc == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_threads_must_be_positive(scene, capsys):
    rc = main([
        "score", "--model", str(scene["dir"] / "m"), "--x", str(scene["x"]),
        "--y", str(scene["y"]), "--out", str(scene["dir"] / "s.bin"), "--threads", "0",
    ])
    assert rc == 2
    assert "argument --threads: must be a positive integer" in capsys.readouterr().err


def test_help_exits_zero():
    assert main(["--help"]) == 0
    assert main(["fit", "--help"]) == 0


def test_unknown_flag_exits_two():
    assert main(["simulate", "--bogus"]) == 2
