import numpy as np
import pytest

from acdkit.detectors import DetectorConfig, fit, score_pixels, with_params
from acdkit.io_formats import write_trace_csv
from acdkit.kernels import KernelSpec
from acdkit.metrics import DegenerateLabelsError, roc_curve
from acdkit.tune import (
    GridPoint,
    TuneGrid,
    anchor_sigma,
    default_grid,
    grid_search,
    split_train_val,
)

from conftest import correlated_pair, model_bytes


def labeled_pair(n=800, d=3, seed=0, anomaly_frac=0.05):
    """Correlated pair with a fraction of rows re-paired to break coupling."""
    x, y = correlated_pair(n, d, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    k = int(anomaly_frac * n)
    pos = rng.choice(n, size=k, replace=False)
    y = y.copy()
    y[pos] = y[np.roll(pos, 1)]
    labels = np.zeros(n, dtype=int)
    labels[pos] = 1
    return x, y, labels


def test_default_grid_gaussian_linear_empty():
    g = default_grid(DetectorConfig(distribution="gaussian", mode="linear"))
    assert g.nu_grid.size == 0
    assert g.sigma_grid.size == 0
    assert g.lambda_grid.size == 0


def test_default_grid_ec_linear_nu_axis():
    g = default_grid(DetectorConfig(distribution="ec", nu=1.0, mode="linear"))
    assert g.nu_grid.size == 100
    assert g.nu_grid[0] == 1e-5
    assert g.nu_grid[-1] == 1e10
    assert g.sigma_grid.size == 0 and g.lambda_grid.size == 0


def test_default_grid_kernel_axes():
    cfg = DetectorConfig(mode="kernel", kernel=KernelSpec("rbf", 1.0))
    g = default_grid(cfg, heuristic_sigma=2.0)
    assert g.sigma_grid.size == 60
    assert g.sigma_grid[0] == 2.0 * 1e-3
    assert g.sigma_grid[-1] == 2.0 * 1e3
    assert g.lambda_grid.size == 30
    assert g.lambda_grid[0] == 1e-10
    assert g.lambda_grid[-1] == 10.0**2.5
    with pytest.raises(ValueError):
        default_grid(cfg)  # heuristic required in kernel mode


def test_default_grid_linear_kernel_skips_sigma():
    cfg = DetectorConfig(mode="kernel", kernel=KernelSpec("linear"))
    g = default_grid(cfg, heuristic_sigma=1.5)
    assert g.sigma_grid.size == 0
    assert g.lambda_grid.size == 30
    assert np.array_equal(default_grid(cfg).lambda_grid, g.lambda_grid)  # no sigma, no heuristic


@pytest.mark.parametrize("kind, calls", [("linear", 0), ("rbf", 1)])
def test_grid_search_computes_the_sigma_heuristic_only_for_a_sigma_axis(monkeypatch, kind, calls):
    from acdkit import tune

    real, seen = tune.sigma_heuristic, []

    def counted(rows, **kwargs):
        seen.append(rows.shape)
        return real(rows, **kwargs)

    monkeypatch.setattr(tune, "sigma_heuristic", counted)
    x, y, labels = labeled_pair(n=300, seed=25)
    cfg = DetectorConfig(mode="kernel", kernel=KernelSpec(kind, None if kind == "linear" else 1.0))
    result = grid_search(x, y, labels, cfg, None, 40, 100, seed=26)
    assert len(seen) == calls
    assert result.aucs.shape == (1, 60 if kind == "rbf" else 1, 30)


def test_tune_grid_validation():
    with pytest.raises(ValueError):
        TuneGrid(nu_grid=np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        TuneGrid(sigma_grid=np.array([3.0, 1.0]))


@pytest.mark.parametrize("axis", ["nu_grid", "sigma_grid", "lambda_grid"])
def test_tune_grid_rejects_an_infinite_entry(axis):
    # rejected as the grid is built, before any draw or fit
    with pytest.raises(ValueError, match="grid entries must be finite and strictly positive"):
        TuneGrid(**{axis: np.array([1.0, 2.0, np.inf])})


def test_split_train_val_background_only():
    labels = np.zeros(500, dtype=int)
    labels[::10] = 1
    train, val = split_train_val(labels, 100, 200, seed=3)
    assert np.all(labels[train] == 0)
    assert len(np.intersect1d(train, val)) == 0
    assert set(np.unique(labels[val])) == {0, 1}


def test_split_train_val_errors():
    labels = np.zeros(100, dtype=int)
    labels[:5] = 1
    with pytest.raises(ValueError):
        split_train_val(labels, 96, 2, seed=0)  # not enough background
    with pytest.raises(ValueError):
        split_train_val(labels, 50, 60, seed=0)  # exceeds total
    with pytest.raises(DegenerateLabelsError):
        split_train_val(np.zeros(100, dtype=int), 10, 10, seed=0)


def test_grid_search_single_point():
    x, y, labels = labeled_pair(seed=4)
    cfg = DetectorConfig(distribution="ec", nu=1.0, mode="linear", beta_x=1, beta_y=1)
    grid = TuneGrid(nu_grid=np.array([2.5]))
    result = grid_search(x, y, labels, cfg, grid, 150, 300, seed=5)
    [(point, auc)] = result.points()
    assert result.best_params == point == GridPoint(nu=2.5, sigma=None, lam=None)
    assert result.best_val_auc == auc


def test_grid_search_dominated_duplicate_keeps_best():
    x, y, labels = labeled_pair(seed=6)
    cfg = DetectorConfig(distribution="ec", nu=1.0, mode="linear", beta_x=1, beta_y=1)
    base = TuneGrid(nu_grid=np.array([0.5, 5.0]))
    r1 = grid_search(x, y, labels, cfg, base, 150, 300, seed=7)
    worst_nu = min((auc, p.nu) for p, auc in r1.points())[1]
    padded = TuneGrid(nu_grid=np.sort(np.append(base.nu_grid, worst_nu)))
    r2 = grid_search(x, y, labels, cfg, padded, 150, 300, seed=7)
    assert r2.best_val_auc == r1.best_val_auc
    assert r2.aucs.shape == (3, 1, 1)


def test_grid_search_best_is_trace_max():
    x, y, labels = labeled_pair(seed=8)
    cfg = DetectorConfig(distribution="ec", nu=1.0, mode="linear", beta_x=1, beta_y=1)
    grid = TuneGrid(nu_grid=np.logspace(-2, 2, 7))
    result = grid_search(x, y, labels, cfg, grid, 150, 300, seed=9)
    assert result.best_val_auc == max(a for _, a in result.points())


def test_grid_search_trace_canonical_order():
    x, y, labels = labeled_pair(n=400, seed=10)
    cfg = DetectorConfig(
        distribution="ec", nu=1.0, mode="kernel",
        kernel=KernelSpec("rbf", 1.0), beta_x=1, beta_y=1,
    )
    grid = TuneGrid(
        nu_grid=np.array([0.5, 5.0]),
        sigma_grid=np.array([1.0, 3.0]),
        lambda_grid=np.array([1e-6, 1e-3]),
    )
    result = grid_search(x, y, labels, cfg, grid, 100, 200, seed=11)
    seen = [(p.nu, p.sigma, p.lam) for p, _ in result.points()]
    expected = [
        (nu, s, l)
        for nu in grid.nu_grid
        for s in grid.sigma_grid
        for l in grid.lambda_grid
    ]
    assert seen == expected


def test_grid_search_deterministic():
    x, y, labels = labeled_pair(n=400, seed=12)
    cfg = DetectorConfig(mode="kernel", kernel=KernelSpec("rbf", 1.0))
    grid = TuneGrid(sigma_grid=np.array([0.5, 2.0, 8.0]))
    r1 = grid_search(x, y, labels, cfg, grid, 100, 200, seed=13)
    r2 = grid_search(x, y, labels, cfg, grid, 100, 200, seed=13)
    assert r1.aucs.tobytes() == r2.aucs.tobytes()
    for axis in ("nu_grid", "sigma_grid", "lambda_grid"):
        assert getattr(r1.grid, axis).tobytes() == getattr(r2.grid, axis).tobytes()
    assert r1.best_params == r2.best_params


def test_grid_search_tie_break_smallest():
    x, y, labels = labeled_pair(seed=14)
    # EC-RX scores are increasing in xi_z at every nu, so every nu ties; smallest wins
    cfg = DetectorConfig(distribution="ec", nu=1.0, mode="linear", beta_x=0, beta_y=0)
    grid = TuneGrid(nu_grid=np.array([1.0, 10.0, 100.0]))
    result = grid_search(x, y, labels, cfg, grid, 150, 300, seed=15)
    assert len({auc for _, auc in result.points()}) == 1
    assert result.best_params.nu == 1.0


@pytest.mark.parametrize("cfg, grid", [
    (DetectorConfig(distribution="gaussian"), TuneGrid(nu_grid=np.array([1.0, 10.0]))),
    (DetectorConfig(), TuneGrid(lambda_grid=np.array([1e-6, 1e-3]))),
    (DetectorConfig(), TuneGrid(sigma_grid=np.array([0.5, 2.0]))),
    (DetectorConfig(mode="kernel", kernel=KernelSpec("linear")),
     TuneGrid(sigma_grid=np.array([0.5, 2.0]))),
], ids=["gaussian-nu", "linear-lambda", "linear-sigma", "linear-kernel-sigma"])
def test_grid_search_rejects_axes_the_config_lacks(monkeypatch, cfg, grid):
    from acdkit import tune

    def no_split(*args, **kwargs):
        raise AssertionError("the grid is checked before the train/validation split")

    monkeypatch.setattr(tune, "split_train_val", no_split)
    x, y, labels = labeled_pair(n=300, seed=23)
    with pytest.raises(ValueError, match="grid given, but the config has no"):
        grid_search(x, y, labels, cfg, grid, 100, 100, seed=24)


def test_grid_search_selects_near_optimal_sigma():
    x, y, labels = labeled_pair(n=700, d=2, seed=16, anomaly_frac=0.08)
    cfg = DetectorConfig(
        mode="kernel", kernel=KernelSpec("rbf", 1.0), beta_x=1, beta_y=1
    )
    sigma_grid = np.array([0.03, 0.1, 0.5, 2.0, 8.0, 40.0])
    grid = TuneGrid(sigma_grid=sigma_grid)
    n_train, n_val, seed = 150, 400, 17
    result = grid_search(x, y, labels, cfg, grid, n_train, n_val, seed)

    # independent exhaustive re-evaluation of the same protocol
    train_idx, val_idx = split_train_val(labels, n_train, n_val, seed)
    aucs = {}
    for sigma in sigma_grid:
        det = fit(x[train_idx], y[train_idx], with_params(cfg, sigma=sigma))
        scores = score_pixels(det, x[val_idx], y[val_idx])
        aucs[sigma] = roc_curve(scores, labels[val_idx]).auc
    exhaustive_max = max(aucs.values())
    assert aucs[result.best_params.sigma] >= exhaustive_max - 0.02
    assert result.best_val_auc == pytest.approx(exhaustive_max, abs=1e-12)


def test_grid_search_matches_brute_force_refits():
    x, y, labels = labeled_pair(n=500, d=2, seed=19, anomaly_frac=0.08)
    cfg = DetectorConfig(distribution="ec", nu=1.0, mode="kernel",
                         kernel=KernelSpec("rbf", 1.0), beta_x=1, beta_y=1)
    grid = TuneGrid(nu_grid=np.array([0.5, 5.0, 50.0]), sigma_grid=np.array([0.5, 2.0]),
                    lambda_grid=np.array([1e-6, 1e-3, 1.0]))
    n_train, n_val, seed = 120, 300, 20
    result = grid_search(x, y, labels, cfg, grid, n_train, n_val, seed)

    # one fit + score_pixels + roc_curve per point, in canonical order
    train_idx, val_idx = split_train_val(labels, n_train, n_val, seed)
    brute = []
    for nu in grid.nu_grid:
        for sigma in grid.sigma_grid:
            for lam in grid.lambda_grid:
                point_cfg = with_params(cfg, nu=nu, sigma=sigma, lam=lam)
                det = fit(x[train_idx], y[train_idx], point_cfg)
                scores = score_pixels(det, x[val_idx], y[val_idx])
                brute.append((GridPoint(nu=nu, sigma=sigma, lam=lam),
                              roc_curve(scores, labels[val_idx]).auc))
    assert [p for p, _ in result.points()] == [p for p, _ in brute]
    for (_, got), (_, expected) in zip(result.points(), brute):
        assert got == pytest.approx(expected, abs=1e-12)
    best_point, best_auc = brute[int(np.argmax([a for _, a in brute]))]
    assert result.best_params == best_point
    assert result.best_val_auc == pytest.approx(best_auc, abs=1e-12)


def test_anchor_sigma_positive():
    x, y = correlated_pair(100, 3, seed=18)
    assert anchor_sigma(x, y) > 0


@pytest.mark.parametrize("mode", ["kernel", "linear"])
def test_grid_search_best_auc_equals_refit_auc(mode):
    # EC-HACD: each trace point and its refit share fit, xi and score code, so
    # their AUCs agree exactly, small lambdas included.
    x, y, labels = labeled_pair(n=600, d=3, seed=21, anomaly_frac=0.08)
    kernel = KernelSpec("rbf", 1.0) if mode == "kernel" else None
    cfg = DetectorConfig(distribution="ec", nu=1.0, mode=mode, kernel=kernel,
                         beta_x=1, beta_y=1)
    grid = TuneGrid(nu_grid=np.logspace(-2, 3, 6))
    if mode == "kernel":
        grid = TuneGrid(nu_grid=grid.nu_grid, sigma_grid=np.array([0.5, 2.0]),
                        lambda_grid=np.array([1e-10, 1e-9, 1e-8, 1e-3]))
    n_train, n_val, seed = 150, 300, 22
    result = grid_search(x, y, labels, cfg, grid, n_train, n_val, seed)

    train_idx, val_idx = split_train_val(labels, n_train, n_val, seed)

    def refit_auc(point):
        point_cfg = with_params(cfg, nu=point.nu, sigma=point.sigma, lam=point.lam)
        det = fit(x[train_idx], y[train_idx], point_cfg)
        return roc_curve(score_pixels(det, x[val_idx], y[val_idx]), labels[val_idx]).auc

    assert result.best_val_auc == refit_auc(result.best_params)
    assert [auc for _, auc in result.points()] == [refit_auc(p) for p, _ in result.points()]


@pytest.mark.parametrize("mode", ["kernel", "linear"])
def test_best_detector_is_the_refit_at_the_best_point(tmp_path, mode):
    # The search builds the best point's detector from its own fit (linear)
    # or eigendecompositions (kernel); it must save the bytes of a refit.
    x, y, labels = labeled_pair(n=600, d=3, seed=21, anomaly_frac=0.08)
    kernel = KernelSpec("rbf", 1.0) if mode == "kernel" else None
    cfg = DetectorConfig(distribution="ec", nu=1.0, mode=mode, kernel=kernel)
    grid = TuneGrid(nu_grid=np.logspace(-2, 3, 6))
    if mode == "kernel":
        grid = TuneGrid(nu_grid=grid.nu_grid, sigma_grid=np.array([1.0, 20.0, 1000.0]),
                        lambda_grid=np.array([1e-8, 1e-3]))
    n_train, n_val, seed = 150, 300, 22
    result = grid_search(x, y, labels, cfg, grid, n_train, n_val, seed)
    best = result.best_params
    if mode == "kernel":  # kept from an earlier sigma, not just the last one searched
        assert best.sigma != grid.sigma_grid[-1]

    train_idx, _ = split_train_val(labels, n_train, n_val, seed)
    refit = fit(x[train_idx], y[train_idx],
                with_params(cfg, nu=best.nu, sigma=best.sigma, lam=best.lam))
    assert (model_bytes(result.best_detector, tmp_path / "search")
            == model_bytes(refit, tmp_path / "refit"))


def test_grid_search_nu_blocks_match_per_point_refits(monkeypatch):
    # 40 nu in blocks of 15, 15 and 10: every trace AUC is the refit's, exactly
    from acdkit import tune

    n_train, n_val, seed = 60, 150, 27
    monkeypatch.setattr(tune, "_NU_BLOCK", 15 * n_val)
    real, calls = tune.combine_xi, []

    def counted(*args, nu=None):
        calls.append(None if nu is None else nu.shape)
        return real(*args, nu=nu)

    monkeypatch.setattr(tune, "combine_xi", counted)
    x, y, labels = labeled_pair(n=400, d=2, seed=26, anomaly_frac=0.08)
    cfg = DetectorConfig(distribution="ec", nu=1.0, mode="kernel",
                         kernel=KernelSpec("rbf", 1.0), beta_x=1, beta_y=1)
    grid = TuneGrid(nu_grid=np.logspace(-4, 8, 40), sigma_grid=np.array([0.7, 3.0]),
                    lambda_grid=np.array([1e-7, 1e-2]))
    result = grid_search(x, y, labels, cfg, grid, n_train, n_val, seed)
    assert calls == [(15, 1), (15, 1), (10, 1)] * 4

    train_idx, val_idx = split_train_val(labels, n_train, n_val, seed)
    brute = []
    for nu in grid.nu_grid:
        for sigma in grid.sigma_grid:
            for lam in grid.lambda_grid:
                det = fit(x[train_idx], y[train_idx],
                          with_params(cfg, nu=nu, sigma=sigma, lam=lam))
                brute.append((GridPoint(nu=nu, sigma=sigma, lam=lam),
                              roc_curve(score_pixels(det, x[val_idx], y[val_idx]),
                                        labels[val_idx]).auc))
    assert list(result.points()) == brute
    best_point, best_auc = brute[int(np.argmax([auc for _, auc in brute]))]
    assert (result.best_params, result.best_val_auc) == (best_point, best_auc)


def test_grid_search_tie_across_sigma_keeps_the_canonical_first_maximum(monkeypatch):
    # Planted AUCs tie at four points. Each sigma's first maximum in (nu, lambda)
    # order is (3, 0, 0), (2, 1, 1) and (2, 2, 0); the first in (nu, sigma,
    # lambda) order is (2, 1, 1), though sigma 2 is searched later with a smaller lambda.
    from acdkit import tune

    n_val = 100
    aucs = np.full((7, 3, 2), 0.5)
    for point in [(4, 0, 1), (3, 0, 0), (5, 1, 0), (2, 1, 1), (2, 2, 0)]:
        aucs[point] = 0.75
    planted = iter([aucs[i:i + 3, i_s, i_l] for i_s in range(3) for i_l in range(2)
                    for i in range(0, 7, 3)])
    monkeypatch.setattr(tune, "_NU_BLOCK", 3 * n_val)
    monkeypatch.setattr(tune, "auc_score", lambda scores, labels: next(planted).copy())
    x, y, labels = labeled_pair(n=300, seed=28)
    cfg = DetectorConfig(distribution="ec", nu=1.0, mode="kernel", kernel=KernelSpec("rbf", 1.0))
    grid = TuneGrid(nu_grid=np.logspace(-1, 2, 7), sigma_grid=np.array([0.5, 1.0, 2.0]),
                    lambda_grid=np.array([1e-6, 1e-3]))
    result = grid_search(x, y, labels, cfg, grid, 40, n_val, seed=29)
    assert [auc for _, auc in result.points()] == aucs.ravel().tolist()
    nu, sigma, lam = grid.nu_grid[2], grid.sigma_grid[1], grid.lambda_grid[1]
    assert result.best_params == GridPoint(nu=nu, sigma=sigma, lam=lam)
    assert result.best_val_auc == 0.75
    assert result.best_detector.config == with_params(cfg, nu=nu, sigma=sigma, lam=lam)


def test_grid_search_ec_without_a_nu_axis_scores_the_config_nu():
    x, y, labels = labeled_pair(n=400, seed=30)
    cfg = DetectorConfig(distribution="ec", nu=3.0, mode="kernel", kernel=KernelSpec("rbf", 1.0))
    grid = TuneGrid(sigma_grid=np.array([0.5, 2.0]))
    result = grid_search(x, y, labels, cfg, grid, 80, 200, seed=31)
    train_idx, val_idx = split_train_val(labels, 80, 200, 31)
    for point, auc in result.points():
        assert point.nu is None
        det = fit(x[train_idx], y[train_idx], with_params(cfg, sigma=point.sigma))
        assert auc == roc_curve(score_pixels(det, x[val_idx], y[val_idx]), labels[val_idx]).auc
    assert result.best_detector.config.nu == 3.0


def test_trace_csv_streamed_from_points_equals_the_trace_tuple(tmp_path):
    # points() streams what the trace tuple holds, so both write the same bytes
    x, y, labels = labeled_pair(n=400, seed=32)
    cfg = DetectorConfig(distribution="ec", nu=1.0, mode="kernel", kernel=KernelSpec("rbf", 1.0))
    grid = TuneGrid(nu_grid=np.logspace(-1, 2, 5), sigma_grid=np.array([0.5, 2.0]),
                    lambda_grid=np.array([1e-6, 1e-3, 1.0]))
    result = grid_search(x, y, labels, cfg, grid, 80, 200, seed=33)
    assert result.aucs.shape == (5, 2, 3) and not result.aucs.flags.writeable
    assert result.trace == tuple(result.points())
    write_trace_csv(result.points(), tmp_path / "points.csv")
    write_trace_csv(result.trace, tmp_path / "trace.csv")
    assert (tmp_path / "points.csv").read_bytes() == (tmp_path / "trace.csv").read_bytes()
