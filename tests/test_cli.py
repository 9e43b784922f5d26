import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from acdkit.cli import build_parser, main
from acdkit.io_formats import _manifest_crc, load_model, read_raster, write_raster
from acdkit.metrics import roc_curve
from acdkit.raster import ImageCube

from conftest import mixture_cube, payload_spans, rewrite_payload


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


def test_fit_linear_rejects_lambda(scene, capsys):
    model = scene["dir"] / "m"
    rc = main([
        "fit", "--x", str(scene["x"]), "--y", str(scene["y"]),
        "--mode", "linear", "--lambda", "5", "--train-samples", "100",
        "--model-out", str(model),
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "error: lam applies to kernel mode only\n"
    assert not model.exists()


@pytest.mark.parametrize("flags, message", [
    (["--mode", "linear"], "sigma applies to kernel mode only"),
    (["--mode", "kernel", "--kernel", "linear"], "the linear kernel takes no sigma"),
], ids=["linear mode", "linear kernel"])
def test_fit_rejects_a_sigma_nothing_reads(scene, capsys, flags, message):
    model = scene["dir"] / "m"
    argv = ["fit", "--x", str(scene["x"]), "--y", str(scene["y"]), *flags,
            "--train-samples", "100", "--model-out", str(model)]
    assert main([*argv, "--sigma", "3"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not model.exists()
    assert main([*argv, "--sigma", "auto"]) == 0


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
    det = load_model(out)  # its weights use the auto lambda 1e-5 / n_train
    values = det.term_x.values
    np.testing.assert_array_equal(det.weights[1], 1.0 / (values * values + 1e-5 / 150))


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
    write_raster(ImageCube(np.zeros((48, 48, 1))), bad)
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


@pytest.mark.parametrize("flags", [
    ["--dist", "ec", "--nu", "inf"],
    ["--dist", "ec", "--nu", "nan"],
    ["--mode", "kernel", "--sigma", "inf"],
    ["--mode", "kernel", "--sigma", "nan"],
    ["--mode", "kernel", "--lambda", "inf"],
    ["--mode", "kernel", "--lambda", "nan"],
], ids=" ".join)
def test_fit_rejects_non_finite_hyperparameters(scene, capsys, flags):
    out = scene["dir"] / "m_bad"
    rc = main(["fit", "--x", str(scene["x"]), "--y", str(scene["y"]),
               "--train-samples", "100", "--model-out", str(out), *flags])
    assert rc == 2
    assert f"argument {flags[2]}: must be" in capsys.readouterr().err
    assert not out.exists()


def _copy_kernel_term_x(manifest, model):
    """Swap in term x (shapes and arrays) of a model fit on fewer training rows."""
    other = model.parent / "m_fewer"
    other_manifest = json.loads((other / "manifest.json").read_text())
    ours, theirs = (model / "model.bin").read_bytes(), (other / "model.bin").read_bytes()
    their_spans = payload_spans(other_manifest)
    payload = b"".join(theirs[slice(*their_spans[k])] if k[:2] == ("terms", "x")
                       else ours[slice(*span)] for k, span in payload_spans(manifest).items())
    manifest["terms"]["x"] = other_manifest["terms"]["x"]
    rewrite_payload(manifest, model, payload)


@pytest.mark.parametrize("edit, message", [
    (lambda m, d: m["config"].update(mode="linear"), "a kernel spec applies to kernel mode only"),
    (lambda m, d: m["config"].update(mode="linear", kernel=None),
     "lam applies to kernel mode only"),
    (lambda m, d: m["config"].update(mode="linear", kernel=None, lam=None),
     "terms.x has no 'mean'"),
    (_copy_kernel_term_x, "row counts differ"),
], ids=["config mode", "config mode and lambda", "linear config", "training rows"])
def test_score_rejects_model_whose_config_and_terms_disagree(scene, capsys, edit, message):
    d = scene["dir"]
    for name, n in (("m_edit", "120"), ("m_fewer", "80")):
        assert main(["fit", "--x", str(scene["x"]), "--y", str(scene["y"]), "--mode", "kernel",
                     "--sigma", "0.7", "--lambda", "0.001", "--train-samples", n,
                     "--model-out", str(d / name)]) == 0
    model = d / "m_edit"
    manifest = json.loads((model / "manifest.json").read_text())
    edit(manifest, model)
    (model / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    rc = main(["score", "--model", str(model), "--x", str(scene["x"]), "--y", str(scene["y"]),
               "--out", str(d / "s.bin")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: corrupt model: ") and message in err and err.count("\n") == 1
    assert not (d / "s.bin").exists()


@pytest.mark.parametrize("mode, edit", [
    ("kernel", lambda m: m["config"]["kernel"].update(sigma=0.8)),
    ("kernel", lambda m: m["config"].update(lam=0.5)),
    ("kernel", lambda m: m["config"].update(nu=7.0)),
    ("kernel", lambda m: m["config"].update(beta_x=0)),
    ("kernel", lambda m: m["config"].update(beta_y=0)),
    ("linear", lambda m: m["terms"]["x"].update(ridge=2 * m["terms"]["x"]["ridge"])),
], ids=["config sigma", "config lambda", "config nu", "config beta_x", "config beta_y",
        "term ridge"])
def test_score_rejects_edited_manifest(scene, capsys, mode, edit):
    # each edit leaves a valid model, which would score; the manifest's checksum rejects it
    d = scene["dir"]
    model = d / "m"
    assert main(["fit", "--x", str(scene["x"]), "--y", str(scene["y"]), "--mode", mode,
                 "--dist", "ec", "--nu", "2", "--train-samples", "80",
                 *(["--sigma", "0.7", "--lambda", "0.001"] if mode == "kernel" else []),
                 "--model-out", str(model)]) == 0
    manifest = json.loads((model / "manifest.json").read_text())
    edit(manifest)
    (model / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    rc = main(["score", "--model", str(model), "--x", str(scene["x"]), "--y", str(scene["y"]),
               "--out", str(d / "s.bin")])
    assert rc == 1
    assert capsys.readouterr().err == "error: corrupt model: checksum mismatch in manifest.json\n"
    assert not (d / "s.bin").exists()


@pytest.mark.parametrize("where", ["config"])
def test_score_rejects_linear_kernel_model_with_a_sigma(scene, capsys, where):
    d = scene["dir"]
    model = d / "m"
    assert main(["fit", "--x", str(scene["x"]), "--y", str(scene["y"]), "--mode", "kernel",
                 "--kernel", "linear", "--train-samples", "80",
                 "--model-out", str(model)]) == 0
    manifest = json.loads((model / "manifest.json").read_text())
    spec = manifest[where]["kernel"]
    assert spec == {"kind": "linear", "sigma": None}
    spec["sigma"] = 2.0
    (model / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    rc = main(["score", "--model", str(model), "--x", str(scene["x"]), "--y", str(scene["y"]),
               "--out", str(d / "s.bin")])
    assert rc == 1
    assert capsys.readouterr().err == "error: corrupt model: the linear kernel takes no sigma\n"
    assert not (d / "s.bin").exists()


@pytest.mark.parametrize("kernel", ["rbf", "sam"])
@pytest.mark.parametrize("sigma", ["1.4e154", "1e-170", "1e-300"])
def test_sigma_whose_square_is_not_normal_is_rejected(scene, capsys, kernel, sigma):
    # 1.4e154 squared overflows float64, 1e-170 squared is subnormal, 1e-300 squared is 0
    d = scene["dir"]
    message = f"{kernel} kernel requires a finite sigma > 0 whose square is a normal float64\n"
    fit = ["fit", "--x", str(scene["x"]), "--y", str(scene["y"]), "--mode", "kernel",
           "--kernel", kernel, "--train-samples", "80"]
    assert main([*fit, "--sigma", sigma, "--model-out", str(d / "m_bad")]) == 2
    assert capsys.readouterr().err == f"error: {message}"
    assert not (d / "m_bad").exists()
    # a model holding such a sigma does not load
    assert main([*fit, "--sigma", "0.7", "--model-out", str(d / "m")]) == 0
    manifest = json.loads((d / "m" / "manifest.json").read_text())
    manifest["config"]["kernel"]["sigma"] = float(sigma)
    (d / "m" / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    rc = main(["score", "--model", str(d / "m"), "--x", str(scene["x"]), "--y", str(scene["y"]),
               "--out", str(d / "s.bin")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: corrupt model: {message}"
    assert not (d / "s.bin").exists()


@pytest.mark.parametrize("kernel", ["rbf", "sam"])
@pytest.mark.parametrize("sigma", ["1.5e-154", "1e-150", "1.3e154"])
def test_sigma_at_the_ends_of_its_range_fits_and_scores(scene, kernel, sigma):
    # sigma^2 is normal; the kernel's -d^2 / (2 sigma^2) may overflow to -inf, and exp gives 0
    d = scene["dir"]
    assert main(["fit", "--x", str(scene["x"]), "--y", str(scene["y"]), "--mode", "kernel",
                 "--kernel", kernel, "--sigma", sigma, "--train-samples", "80",
                 "--model-out", str(d / "m")]) == 0
    assert main(["score", "--model", str(d / "m"), "--x", str(scene["x"]),
                 "--y", str(scene["y"]), "--out", str(d / "s.bin")]) == 0


@pytest.mark.parametrize("value, code", [("nan", 2), ("inf", 0), ("-inf", 0)])
def test_map_threshold_must_be_a_number(scene, tmp_path, value, code):
    scores = tmp_path / "scores.bin"
    write_raster(ImageCube(np.arange(12.0).reshape(3, 4, 1)), scores)
    rc = main(["map", "--scores", str(scores), f"--threshold={value}",
               "--out", str(tmp_path / "map.pgm")])
    assert rc == code
    assert (tmp_path / "map.pgm").exists() == (code == 0)


@pytest.mark.parametrize("std", ["nan", "inf"])
def test_simulate_rejects_non_finite_noise_std(scene, capsys, std):
    out = scene["dir"] / "y_bad.bin"
    rc = main(["simulate", "--input", str(scene["x"]), "--out", str(out),
               "--labels", str(scene["dir"] / "labels_bad.bin"), "--noise-std", std])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert err.endswith("\nacdkit simulate: error: argument --noise-std: "
                        "must be a finite number >= 0\n")
    assert not out.exists()


def _assert_one_line_exit(rc, capsys, code, *unwritten):
    assert rc == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    for path in unwritten:
        assert not path.exists() and not Path(str(path) + ".json").exists()


@pytest.mark.parametrize("std", ["1e38", "1e308", "1.7976931348623157e308"])
def test_simulate_beyond_float32_writes_nothing(tmp_path, capsys, std):
    # 1e38 stays finite in float64; the larger two overflow it, and are reported alike
    x_path = tmp_path / "x.bin"
    write_raster(mixture_cube(16, 16, 3, seed=0), x_path)
    y_path, labels_path = tmp_path / "y.bin", tmp_path / "labels.bin"
    rc = main(["simulate", "--input", str(x_path), "--out", str(y_path),
               "--labels", str(labels_path), "--noise-std", std])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: cannot write raster {y_path}: a value is beyond float32's range\n")
    for path in (y_path, labels_path):
        assert not path.exists() and not Path(str(path) + ".json").exists()


def test_score_beyond_float32_writes_nothing(scene, capsys):
    d = scene["dir"]
    assert main(["fit", "--x", str(scene["x"]), "--y", str(scene["y"]),
                 "--train-samples", "400", "--model-out", str(d / "model")]) == 0
    y = read_raster(scene["y"]).data.copy()
    y[5, 7] = 1e30  # its xi is far beyond float32's range
    write_raster(ImageCube(y), d / "y_far.bin")
    capsys.readouterr()
    out = d / "scores.bin"
    rc = main(["score", "--model", str(d / "model"), "--x", str(scene["x"]),
               "--y", str(d / "y_far.bin"), "--out", str(out)])
    _assert_one_line_exit(rc, capsys, 1, out)


@pytest.mark.parametrize("mode", [["--mode", "linear"], ["--mode", "kernel", "--kernel", "rbf"]],
                         ids=["linear", "rbf"])
@pytest.mark.parametrize("nu", ["5e-324", "1e-320", "1e-310", "1e-300", "1e300",
                                "1.7976931348623157e308"])
def test_every_finite_nu_scores_finite(scene, capsys, mode, nu):
    # at the small end xi / nu overflows float64, and score once printed warnings and failed
    d = scene["dir"]
    assert main(["fit", "--x", str(scene["x"]), "--y", str(scene["y"]), *mode, "--dist", "ec",
                 "--nu", nu, "--train-samples", "200", "--model-out", str(d / "m")]) == 0
    assert main(["score", "--model", str(d / "m"), "--x", str(scene["x"]),
                 "--y", str(scene["y"]), "--out", str(d / "s.bin")]) == 0
    assert capsys.readouterr().err == ""
    assert np.all(np.isfinite(read_raster(d / "s.bin").data))


def _raster(path, height, width, bands):
    write_raster(ImageCube(np.ones((height, width, bands))), path)
    return str(path)


def _fit_then_score(edit, *fit_flags):
    """Argv scoring a fresh model (linear, unless fit_flags say otherwise) after
    edit(model directory, manifest) has changed it."""
    def case(scene):
        d = scene["dir"]
        model = d / "m"
        assert main(["fit", "--x", str(scene["x"]), "--y", str(scene["y"]), *fit_flags,
                     "--train-samples", "80", "--model-out", str(model)]) == 0
        manifest = json.loads((model / "manifest.json").read_text())
        edit(model, manifest)
        manifest["crc32"] = _manifest_crc(manifest)
        (model / "manifest.json").write_text(json.dumps(manifest))
        return ["score", "--model", str(model), "--x", str(scene["x"]), "--y", str(scene["y"]),
                "--out", str(d / "s.bin")]
    return case


def _zero_std_x(model, manifest):
    """Set the x band stats' std to zero in model.bin."""
    payload = bytearray((model / "model.bin").read_bytes())
    start, stop = payload_spans(manifest)["band_stats", "x", "std"]
    payload[start:stop] = bytes(stop - start)
    rewrite_payload(manifest, model, bytes(payload))


def _map(*flags, labels=False):
    return lambda s: ["map", "--scores", _raster(s["dir"] / "s.bin", 48, 48, 1), *flags,
                      *(["--labels", str(s["labels"])] if labels else []),
                      "--out", str(s["dir"] / "map.pgm")]


def _fit(*flags):
    return lambda s: ["fit", "--x", str(s["x"]), "--y", str(s["y"]), *flags,
                      "--model-out", str(s["dir"] / "m")]


def _set_config(**fields):
    return lambda model, manifest: manifest["config"].update(fields)


def _tune(*flags):
    return lambda s: ["tune", "--x", str(s["x"]), "--y", str(s["y"]), "--labels", str(s["labels"]),
                      *flags]


# CLI branches reached only by a misplaced or malformed input: (argv of the
# scene, exit code, the one stderr line). A flag out of its range is
# argparse's to reject, before any file is read: it prints its usage, then
# one error line naming the flag.
MISUSE_CASES = {
    "pair height/width": (
        lambda s: ["fit", "--x", str(s["x"]), "--y", _raster(s["dir"] / "y2.bin", 40, 48, 3),
                   "--model-out", str(s["dir"] / "m")],
        2, "error: unaligned pair: rasters differ in height/width\n"),
    "label raster size": (
        lambda s: ["roc", "--scores", _raster(s["dir"] / "s.bin", 48, 48, 1),
                   "--labels", _raster(s["dir"] / "l.bin", 48, 40, 1),
                   "--out", str(s["dir"] / "roc.csv")],
        2, "error: label raster does not match image dimensions\n"),
    "label raster bands": (
        lambda s: ["roc", "--scores", _raster(s["dir"] / "s.bin", 48, 48, 1),
                   "--labels", _raster(s["dir"] / "l.bin", 48, 48, 2),
                   "--out", str(s["dir"] / "roc.csv")],
        2, "error: label raster must have exactly one band\n"),
    "map scores bands": (
        lambda s: ["map", "--scores", _raster(s["dir"] / "s.bin", 48, 48, 2),
                   "--quantile", "0.5", "--out", str(s["dir"] / "map.pgm")],
        2, "error: scores raster must have exactly one band\n"),
    "map tpr without labels": (_map("--tpr-rate", "0.5"), 2,
                               "error: --tpr-rate requires --labels\n"),
    "map tpr 0": (_map("--tpr-rate", "0", labels=True), 2,
                  "acdkit map: error: argument --tpr-rate: must be in (0, 1]\n"),
    "map tpr 1.5": (_map("--tpr-rate", "1.5", labels=True), 2,
                    "acdkit map: error: argument --tpr-rate: must be in (0, 1]\n"),
    "map quantile 0": (_map("--quantile", "0"), 2,
                       "acdkit map: error: argument --quantile: must be in (0, 1)\n"),
    "map quantile 1": (_map("--quantile", "1"), 2,
                       "acdkit map: error: argument --quantile: must be in (0, 1)\n"),
    "fit 1 sample": (_fit("--train-samples", "1"), 2,
                     "acdkit fit: error: argument --train-samples: must be an integer >= 2\n"),
    "fit -1 samples": (_fit("--train-samples", "-1"), 2,
                       "acdkit fit: error: argument --train-samples: must be an integer >= 2\n"),
    "tune 1 training sample": (
        _tune("--n-train", "1"), 2,
        "acdkit tune: error: argument --n-train: must be an integer >= 2\n"),
    "tune 0 validation samples": (
        _tune("--n-val", "0"), 2,
        "acdkit tune: error: argument --n-val: must be an integer >= 2\n"),
    "seed -1": (_fit("--seed", "-1"), 2,
                "acdkit fit: error: argument --seed: must be an integer >= 0\n"),
    "simulate noise std -1": (
        lambda s: ["simulate", "--input", str(s["x"]), "--out", str(s["dir"] / "y2.bin"),
                   "--labels", str(s["dir"] / "l2.bin"), "--noise-std", "-1"],
        2, "acdkit simulate: error: argument --noise-std: must be a finite number >= 0\n"),
    "model truncated blob": (
        _fit_then_score(lambda m, man: rewrite_payload(
            man, m, (m / "model.bin").read_bytes()[:-8])),
        1, "error: corrupt model: model.bin is shorter than its shapes\n"),
    "model zero std": (
        _fit_then_score(_zero_std_x),
        1, "error: corrupt model: std entries must be strictly positive\n"),
    "model huge lambda": (  # a JSON integer that float64 cannot hold
        _fit_then_score(_set_config(lam=10**400), "--mode", "kernel"),
        1, "error: corrupt model: config.lam is beyond float64's range\n"),
    "model huge nu": (
        _fit_then_score(_set_config(nu=10**400), "--dist", "ec", "--nu", "2"),
        1, "error: corrupt model: config.nu is beyond float64's range\n"),
}


@pytest.mark.parametrize("case", sorted(MISUSE_CASES))
def test_misuse_exits_with_its_code_and_one_line(scene, capsys, case):
    argv, code, message = MISUSE_CASES[case]
    argv = argv(scene)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    if message.startswith("acdkit "):  # argparse's: its usage, then the one error line
        assert err.startswith("usage: ")
        err = err[err.index("\nacdkit ") + 1:]
    assert err == message


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


def test_seed_of_any_size_runs(scene):
    # default_rng takes any integer >= 0; simulate and tune add 1 to it
    d, seed = scene["dir"], str(2**64)
    assert main(["simulate", "--input", str(scene["x"]), "--out", str(d / "y2.bin"),
                 "--labels", str(d / "l2.bin"), "--seed", seed]) == 0
    assert main(["fit", "--x", str(scene["x"]), "--y", str(scene["y"]), "--seed", seed,
                 "--train-samples", "100", "--model-out", str(d / "m")]) == 0


BOUNDARY_VALUES = ["-1", "0", "1", "2", "0.5", "nan", "inf", "-inf", "1e400", "5e-324",
                   "18446744073709551616"]


def test_every_numeric_flag_parses_or_names_itself(capsys):
    # Walks the parser, so a new numeric flag is covered with no new row. Each value
    # either parses to a number (never nan), or argparse exits 2 with its usage and one
    # error line naming the flag. Only parsing runs; no command does.
    parser = build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    checked = 0
    for name, sub in commands.choices.items():
        groups = [g for g in sub._mutually_exclusive_groups if g.required]
        for action in sub._actions:
            if action.type is None or not action.option_strings:
                continue
            flag = "/".join(action.option_strings)
            base = [name]
            for other in sub._actions:  # dummy values for the required flags
                if other.required and other is not action:
                    base += [other.option_strings[0], "x"]
            for group in groups:
                if action not in group._group_actions:
                    base += [group._group_actions[0].option_strings[0], "0.5"]
            if not any(action in group._group_actions for group in groups):
                parser.parse_args(base)  # the dummies alone parse
            for value in BOUNDARY_VALUES:
                argv = [*base, f"{action.option_strings[0]}={value}"]
                capsys.readouterr()
                try:
                    parsed = getattr(parser.parse_args(argv), action.dest)
                except SystemExit as e:
                    assert e.code == 2, argv
                    err = capsys.readouterr().err
                    assert err.startswith("usage: "), argv
                    assert err.count("error:") == 1, argv
                    assert err.endswith("\n") and err.splitlines()[-1].startswith(
                        f"acdkit {name}: error: argument {flag}: "), (argv, err)
                else:
                    assert parsed is None or parsed == parsed, argv  # nan != nan
                checked += 1
    assert checked >= 23 * len(BOUNDARY_VALUES)  # --seed and --threads on six commands, 11 more
