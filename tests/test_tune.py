import numpy as np
import pytest

from acdkit.detectors import DetectorConfig, fit, score_pixels, with_params
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

from conftest import correlated_pair


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
    cfg = DetectorConfig(mode="kernel", kernel=KernelSpec(kind, 1.0))
    result = grid_search(x, y, labels, cfg, None, 40, 100, seed=26)
    assert len(seen) == calls
    assert len(result.trace) == 30 * (60 if kind == "rbf" else 1)


def test_tune_grid_validation():
    with pytest.raises(ValueError):
        TuneGrid(nu_grid=np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        TuneGrid(sigma_grid=np.array([3.0, 1.0]))


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
    assert len(result.trace) == 1
    assert result.best_params == GridPoint(nu=2.5, sigma=None, lam=None)
    assert result.best_val_auc == result.trace[0][1]


def test_grid_search_dominated_duplicate_keeps_best():
    x, y, labels = labeled_pair(seed=6)
    cfg = DetectorConfig(distribution="ec", nu=1.0, mode="linear", beta_x=1, beta_y=1)
    base = TuneGrid(nu_grid=np.array([0.5, 5.0]))
    r1 = grid_search(x, y, labels, cfg, base, 150, 300, seed=7)
    worst_nu = min((auc, p.nu) for p, auc in r1.trace)[1]
    padded = TuneGrid(nu_grid=np.sort(np.append(base.nu_grid, worst_nu)))
    r2 = grid_search(x, y, labels, cfg, padded, 150, 300, seed=7)
    assert r2.best_val_auc == r1.best_val_auc
    assert len(r2.trace) == 3


def test_grid_search_best_is_trace_max():
    x, y, labels = labeled_pair(seed=8)
    cfg = DetectorConfig(distribution="ec", nu=1.0, mode="linear", beta_x=1, beta_y=1)
    grid = TuneGrid(nu_grid=np.logspace(-2, 2, 7))
    result = grid_search(x, y, labels, cfg, grid, 150, 300, seed=9)
    assert result.best_val_auc == max(a for _, a in result.trace)


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
    seen = [(p.nu, p.sigma, p.lam) for p, _ in result.trace]
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
    assert r1 == r2


def test_grid_search_tie_break_smallest():
    x, y, labels = labeled_pair(seed=14)
    # EC-RX scores are increasing in xi_z at every nu, so every nu ties; smallest wins
    cfg = DetectorConfig(distribution="ec", nu=1.0, mode="linear", beta_x=0, beta_y=0)
    grid = TuneGrid(nu_grid=np.array([1.0, 10.0, 100.0]))
    result = grid_search(x, y, labels, cfg, grid, 150, 300, seed=15)
    assert len({auc for _, auc in result.trace}) == 1
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
    assert [p for p, _ in result.trace] == [p for p, _ in brute]
    for (_, got), (_, expected) in zip(result.trace, brute):
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
    assert [auc for _, auc in result.trace] == [refit_auc(p) for p, _ in result.trace]
