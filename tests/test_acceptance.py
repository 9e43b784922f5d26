"""End-to-end acceptance gate.

Each test prints one PASS line when its criterion holds (run with -s to
see them). The suite covers rank equivalences, the dual-form reduction,
limiting behavior, metric oracles, the synthetic kernel-advantage
experiment, simulator conservation laws, CLI byte determinism, and model
persistence across all sixteen detector configurations.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.stats import rankdata, spearmanr

import acdkit
from acdkit.detectors import (
    DETECTOR_BETAS,
    DetectorConfig,
    combine_xi,
    fit,
    score_pixels,
    xi_pixels,
)
from acdkit.io_formats import load_model, save_model, write_raster
from acdkit.kernels import KernelSpec
from acdkit.metrics import roc_curve
from acdkit.raster import ImageCube, flatten, sample_pixels
from acdkit.simulate import pervasive_noise, scramble_anomalies
from acdkit.tune import NU_RANGE, _log_grid, anchor_sigma, default_grid

from conftest import correlated_pair, raw_kernel_xi_path


def report(num, text):
    print(f"ACCEPTANCE [{num}] PASS: {text}")


def scrambled_labels(y, frac, seed):
    """Re-pair a fraction of rows, returning modified y and labels."""
    rng = np.random.default_rng(seed)
    n = y.shape[0]
    k = max(2, int(round(frac * n)))
    pos = rng.choice(n, size=k, replace=False)
    y = y.copy()
    y[pos] = y[np.roll(pos, 1)]
    labels = np.zeros(n, dtype=int)
    labels[pos] = 1
    return y, labels


def test_1_rx_rank_equivalence():
    t0 = time.time()
    dims = [2, 4, 8, 2, 4]
    for i, d in enumerate(dims):
        x, y = correlated_pair(2000, d, seed=100 + i)
        y, labels = scrambled_labels(y, 0.05, seed=200 + i)
        for mode in ("linear", "kernel"):
            kw = {"mode": mode}
            if mode == "kernel":
                kw["kernel"] = KernelSpec("rbf", anchor_sigma(x[:300], y[:300]))
            det = fit(x[:300], y[:300], DetectorConfig(beta_x=0, beta_y=0, **kw))
            xi = xi_pixels(det, x, y)
            s_gauss = combine_xi(*xi, det.config, d, d)
            auc_gauss = roc_curve(s_gauss, labels).auc
            for nu in (0.1, 1.0, 100.0):
                cfg = DetectorConfig(beta_x=0, beta_y=0, distribution="ec",
                                     nu=nu, **kw)
                s_ec = combine_xi(*xi, cfg, d, d)
                assert np.array_equal(rankdata(s_gauss), rankdata(s_ec))
                auc_ec = roc_curve(s_ec, labels).auc
                assert abs(auc_gauss - auc_ec) < 1e-12
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(1, f"RX gaussian/EC orderings and AUCs identical ({elapsed:.1f}s)")


def test_2_linear_kernel_reduction():
    t0 = time.time()
    rng = np.random.default_rng(300)
    train = rng.normal(size=(200, 5)) + 0.5  # uncentered, full rank
    gram_inv = np.linalg.inv(train.T @ train)
    probes = rng.normal(size=(100, 5))
    # the x term of a linear-kernel model fit on the rows as given
    got = raw_kernel_xi_path(train, rng.normal(size=(200, 2)), probes,
                             rng.normal(size=(100, 2)), KernelSpec("linear"), [1e-10])[0, 1]
    for v, xi in zip(probes, got):
        expected = v @ gram_inv @ v
        assert abs(xi - expected) / abs(expected) < 1e-4
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(2, f"dual form matches v(X^T X)^-1 v on 100 probes ({elapsed:.1f}s)")


def test_3_high_nu_gaussian_limit():
    x, y = correlated_pair(1400, 3, seed=400)
    x_tr, y_tr, x_te, y_te = x[:400], y[:400], x[400:], y[400:]
    assert x_te.shape[0] == 1000
    for mode in ("linear", "kernel"):
        kw = {"mode": mode}
        if mode == "kernel":
            kw["kernel"] = KernelSpec("rbf", anchor_sigma(x_tr, y_tr))
        for bx, by in DETECTOR_BETAS.values():
            det = fit(x_tr, y_tr, DetectorConfig(beta_x=bx, beta_y=by, **kw))
            xi = xi_pixels(det, x_te, y_te)
            s_gauss = combine_xi(*xi, det.config, 3, 3)
            cfg_ec = DetectorConfig(beta_x=bx, beta_y=by, distribution="ec",
                                    nu=1e10, **kw)
            s_ec = combine_xi(*xi, cfg_ec, 3, 3)
            rho = spearmanr(s_gauss, s_ec).statistic
            assert rho >= 1 - 1e-9
    report(3, "EC at nu=1e10 rank-matches gaussian for all 8 detectors")


def test_4_auc_oracle_equivalence():
    t0 = time.time()
    for seed in range(50):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(50, 400))
        scores = rng.normal(size=n)
        tie_frac = rng.uniform(0, 0.5)
        k = int(tie_frac * n)
        scores[:k] = np.round(scores[:k] * 2) / 2  # heavy ties
        labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(int)
        if labels.sum() == 0:
            labels[0] = 1
        if labels.sum() == n:
            labels[0] = 0
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        oracle = ((pos[:, None] > neg[None, :]).sum()
                  + 0.5 * (pos[:, None] == neg[None, :]).sum()) / (pos.size * neg.size)
        assert abs(roc_curve(scores, labels).auc - oracle) < 1e-9
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(4, f"trapezoid AUC == pair-counting AUC on 50 tied sets ({elapsed:.1f}s)")


def sheet_mixture_cube(height, width, bands, seed, separation=18.0,
                       sheet=1.5, rank=2, jitter=0.05):
    """3-component Gaussian mixture with thin (low-rank + jitter) covariances.

    Per-band spread of the component means is normalized so every band
    separates the components equally; the low intrinsic dimension gives a
    locally dense manifold that a kernel detector can model and a single
    global Gaussian cannot.
    """
    rng = np.random.default_rng(seed)
    n = height * width
    means = rng.normal(size=(3, bands))
    means -= means.mean(axis=0)
    means /= means.std(axis=0)
    means *= separation
    comp = rng.integers(0, 3, size=n)
    flat = np.empty((n, bands))
    for c in range(3):
        m = comp == c
        basis = np.linalg.qr(rng.normal(size=(bands, rank)))[0] * sheet
        coords = rng.normal(size=(m.sum(), rank))
        flat[m] = means[c] + coords @ basis.T + jitter * rng.normal(size=(m.sum(), bands))
    return ImageCube(flat.reshape(height, width, bands))


def _experiment_splits(labels, seed):
    n = labels.size
    background = np.nonzero(labels == 0)[0]
    train = background[sample_pixels(background.size, 500, seed=10 * seed + 3)]
    mask = np.ones(n, dtype=bool)
    mask[train] = False
    rest = np.nonzero(mask)[0]
    test = rest[sample_pixels(rest.size, 3000, seed=10 * seed + 4)]
    mask[test] = False
    rest = np.nonzero(mask)[0]
    rest_bg = rest[labels[rest] == 0]
    rest_anom = rest[labels[rest] == 1]
    # stratified tuning draw: 1000 background plus every leftover anomaly,
    # disjoint from both train and test
    val = np.concatenate(
        [rest_bg[sample_pixels(rest_bg.size, 1000, seed=10 * seed + 5)], rest_anom]
    )
    return train, val, test


def _kernel_advantage_seed(seed):
    cube = sheet_mixture_cube(128, 128, 8, seed)
    x = flatten(cube)
    y = pervasive_noise(x, 0.1, seed=10 * seed + 1)
    labels = scramble_anomalies(y, 0.01, seed=10 * seed + 2).astype(int)
    train, val, test = _experiment_splits(labels, seed)
    lab_val, lab_test = labels[val], labels[test]
    nu_grid = _log_grid(*NU_RANGE)

    def auc(scores, labs):
        return roc_curve(scores, labs).auc

    # linear pair: HACD, and EC-HACD with nu tuned on the validation draw
    det = fit(x[train], y[train], DetectorConfig(beta_x=1, beta_y=1))
    xi_val = xi_pixels(det, x[val], y[val])
    xi_test = xi_pixels(det, x[test], y[test])
    auc_hacd = auc(combine_xi(*xi_test, det.config, 8, 8), lab_test)
    best_nu, best_a = None, -1.0
    for nu in nu_grid:
        cfg = DetectorConfig(beta_x=1, beta_y=1, distribution="ec", nu=float(nu))
        a = auc(combine_xi(*xi_val, cfg, 8, 8), lab_val)
        if a > best_a:
            best_a, best_nu = a, float(nu)
    cfg_ec = DetectorConfig(beta_x=1, beta_y=1, distribution="ec", nu=best_nu)
    auc_ec_hacd = auc(combine_xi(*xi_test, cfg_ec, 8, 8), lab_test)

    # kernel pair: one fit per sigma of the default grid serves both the
    # gaussian tuning and the (sigma, nu) EC tuning, since nu only affects
    # the score combination
    anchor = anchor_sigma(x[train], y[train])
    sigma_grid = default_grid(
        DetectorConfig(mode="kernel", kernel=KernelSpec("rbf", 1.0)), anchor
    ).sigma_grid
    best_g = (-1.0, None)
    best_e = (-1.0, None, None)
    for sigma in sigma_grid:
        cfg_k = DetectorConfig(beta_x=1, beta_y=1, mode="kernel",
                               kernel=KernelSpec("rbf", float(sigma)))
        det_k = fit(x[train], y[train], cfg_k)
        xi_v = xi_pixels(det_k, x[val], y[val])
        a = auc(combine_xi(*xi_v, cfg_k, 8, 8), lab_val)
        if a > best_g[0]:
            best_g = (a, float(sigma))
        for nu in nu_grid:
            cfg_e = DetectorConfig(beta_x=1, beta_y=1, distribution="ec",
                                   nu=float(nu), mode="kernel",
                                   kernel=KernelSpec("rbf", float(sigma)))
            a_e = auc(combine_xi(*xi_v, cfg_e, 8, 8), lab_val)
            if a_e > best_e[0]:
                best_e = (a_e, float(sigma), float(nu))

    cfg_k = DetectorConfig(beta_x=1, beta_y=1, mode="kernel",
                           kernel=KernelSpec("rbf", best_g[1]))
    det_k = fit(x[train], y[train], cfg_k)
    auc_k_hacd = auc(
        combine_xi(*xi_pixels(det_k, x[test], y[test]), cfg_k, 8, 8), lab_test
    )
    cfg_ke = DetectorConfig(beta_x=1, beta_y=1, distribution="ec", nu=best_e[2],
                            mode="kernel", kernel=KernelSpec("rbf", best_e[1]))
    det_ke = fit(x[train], y[train], cfg_ke)
    auc_ke_hacd = auc(
        combine_xi(*xi_pixels(det_ke, x[test], y[test]), cfg_ke, 8, 8), lab_test
    )
    return auc_hacd, auc_ec_hacd, auc_k_hacd, auc_ke_hacd


def test_5_kernel_advantage_experiment():
    t0 = time.time()
    results = np.array([_kernel_advantage_seed(seed) for seed in range(10)])
    med_hacd, med_ec, med_k, med_ke = np.median(results, axis=0)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    assert med_k >= med_hacd, (med_k, med_hacd)
    assert med_ke >= med_ec, (med_ke, med_ec)
    report(5, f"median AUC K-HACD {med_k:.4f} >= HACD {med_hacd:.4f}, "
              f"K-EC-HACD {med_ke:.4f} >= EC-HACD {med_ec:.4f} ({elapsed:.0f}s)")


def test_6_mahalanobis_expectation():
    x, y = correlated_pair(10000, 3, seed=600)
    det = fit(x[:5000], y[:5000], DetectorConfig(beta_x=0, beta_y=0))
    mean_score = score_pixels(det, x[5000:], y[5000:]).mean()
    expected = 6.0  # d_x + d_y
    assert abs(mean_score - expected) / expected < 0.10
    report(6, f"held-out RX mean {mean_score:.3f} within 10% of {expected}")


def test_7_scramble_conservation():
    rng = np.random.default_rng(700)
    pixels = rng.normal(size=(100 * 100, 6)) * 37.0
    before = np.sort(pixels, axis=0)
    labels = scramble_anomalies(pixels, 0.01, seed=701)
    after = np.sort(pixels, axis=0)
    assert np.array_equal(before, after)
    assert int(labels.sum()) == round(0.01 * 100 * 100)
    report(7, "per-band multisets conserved; label count = round(0.01*H*W)")


# Directory holding the acdkit package this test process imported. CLI
# children get it first on an absolute PYTHONPATH: an inherited relative
# entry such as PYTHONPATH=src resolves against the child's cwd, and an
# installed copy elsewhere would otherwise shadow the code under test.
ACDKIT_ROOT = Path(acdkit.__file__).resolve().parent.parent


def _cli_env(blas_threads=None):
    """The test's environment for a CLI child; blas_threads pins BLAS, None leaves it unset."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ACDKIT_ROOT), *filter(None, [env.get("PYTHONPATH")])])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(var, None)
        if blas_threads is not None:
            env[var] = str(blas_threads)
    return env


def _run_cli(args, cwd, env):
    proc = subprocess.run(
        [sys.executable, "-m", "acdkit", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


# Test 8's chain: every output file but the input, by path, and roc's printed AUC.
_KERNEL_ARTIFACTS = ("model/", "scores.bin", "roc.csv", "map.pgm")


def _pipeline_artifacts(workdir, blas_threads):
    workdir = Path(workdir)
    workdir.mkdir()
    env = _cli_env(blas_threads)
    rng = np.random.default_rng(800)
    cube = ImageCube(rng.normal(size=(96, 128, 4)) * 5.0 + 20.0)
    write_raster(cube, workdir / "x.bin")
    for args in (
        ["simulate", "--input", "x.bin", "--out", "y.bin", "--labels", "labels.bin"],
        ["fit", "--x", "x.bin", "--y", "y.bin", "--detector", "hacd", "--mode", "kernel",
         "--kernel", "rbf", "--train-samples", "300", "--train-labels", "labels.bin",
         "--model-out", "model"],
        ["score", "--model", "model", "--x", "x.bin", "--y", "y.bin", "--out", "scores.bin"],
        ["fit", "--x", "x.bin", "--y", "y.bin", "--detector", "hacd", "--dist", "ec",
         "--nu", "5", "--train-samples", "200", "--train-labels", "labels.bin",
         "--model-out", "linear_model"],
        ["score", "--model", "linear_model", "--x", "x.bin", "--y", "y.bin",
         "--out", "linear_scores.bin"],
        ["map", "--scores", "scores.bin", "--tpr-rate", "0.82", "--labels", "labels.bin",
         "--out", "map.pgm"],
    ):
        _run_cli([*args, "--seed", "9"], workdir, env)
    auc = _run_cli(["roc", "--scores", "scores.bin", "--labels", "labels.bin",
                    "--out", "roc.csv", "--seed", "9"], workdir, env).stdout
    files = {}
    for path in sorted(workdir.rglob("*")):
        if path.is_file() and path.name != "x.bin":
            files[path.relative_to(workdir).as_posix()] = path.read_bytes()
    return files, auc


def test_8_cli_pipeline_byte_determinism(tmp_path):
    probe = subprocess.run(
        [sys.executable, "-c", "import acdkit; print(acdkit.__file__)"],
        cwd=tmp_path, env=_cli_env(), capture_output=True, text=True,
    )
    assert probe.returncode == 0, probe.stderr
    child_file = Path(probe.stdout.strip()).resolve()
    assert child_file == Path(acdkit.__file__).resolve(), child_file
    # BLAS pinned to one thread, and left to its own default
    runs = {(threads, rerun): _pipeline_artifacts(tmp_path / f"{threads}_{rerun}", threads)
            for threads in (1, None) for rerun in "ab"}
    for threads in (1, None):
        assert runs[threads, "a"] == runs[threads, "b"], f"rerun at BLAS threads {threads}"
    (pinned, auc), (free, free_auc) = runs[1, "a"], runs[None, "a"]
    assert len(pinned) > 10 and pinned.keys() == free.keys()
    # linear mode's arithmetic has no BLAS-thread-dependent sum, so its bytes
    # match across settings; the kernel GEMMs and eigh split their sums by thread
    linear = [rel for rel in pinned if not rel.startswith(_KERNEL_ARTIFACTS)]
    for rel in linear:
        assert pinned[rel] == free[rel], f"{rel} differs across BLAS thread counts"
    assert auc == free_auc
    # The kernel weights agree to ~1e-11 relative across thread counts, far
    # below float32's relative half-ulp 2**-24, so each written score rounds
    # to the same float32 or to a neighbour: at most one float32 ulp apart.
    a, b = (np.frombuffer(files["scores.bin"], dtype="<f4") for files in (pinned, free))
    assert np.all(np.abs(a - b) <= np.spacing(np.maximum(np.abs(a), np.abs(b))))
    report(8, f"reruns byte-identical at BLAS threads 1 and default ({len(pinned)} files); "
              f"{len(linear)} simulate and linear files identical across them; rbf scores "
              f"at most one float32 ulp apart ({int(np.count_nonzero(a != b))} differ), same AUC")


def test_9_model_round_trip_all_sixteen(tmp_path):
    x, y = correlated_pair(180, 3, d_y=2, seed=900)
    probes_x, probes_y = x[80:], y[80:]
    assert probes_x.shape[0] == 100
    count = 0
    for name, (bx, by) in DETECTOR_BETAS.items():
        for dist in ("gaussian", "ec"):
            for mode in ("linear", "kernel"):
                cfg = DetectorConfig(
                    beta_x=bx, beta_y=by, distribution=dist,
                    nu=4.0 if dist == "ec" else None, mode=mode,
                    kernel=KernelSpec("rbf", 2.5) if mode == "kernel" else None,
                )
                det = fit(x[:80], y[:80], cfg)
                direct = score_pixels(det, probes_x, probes_y)
                model_dir = tmp_path / f"{name}_{dist}_{mode}"
                save_model(det, model_dir)
                loaded = load_model(model_dir)
                restored = score_pixels(loaded, probes_x, probes_y)
                assert np.array_equal(direct, restored), (name, dist, mode)
                count += 1
    assert count == 16
    report(9, "save/load/score bit-exact for all 16 detector configurations")
