import dataclasses

import numpy as np
import pytest

from acdkit.raster import (
    BandStats,
    ImageCube,
    flatten,
    sample_pixels,
    stack_pair,
    standardize_apply,
    standardize_fit,
)


def test_flatten_single_pixel():
    cube = ImageCube(np.array([[[1.0, 2.0, 3.0]]]))
    m = flatten(cube)
    assert m.shape == (1, 3)
    assert np.array_equal(m[0], [1.0, 2.0, 3.0])


def test_flatten_row_major_order():
    data = np.arange(4.0).reshape(2, 2, 1)
    m = flatten(ImageCube(data))
    assert np.array_equal(m.ravel(), [0.0, 1.0, 2.0, 3.0])


def test_flatten_unflatten_round_trip_bit_exact():
    # rows are wrapped back as a cube by reshaping them to (H, W, d), as the CLI writes them
    rng = np.random.default_rng(7)
    for data in (rng.normal(size=(7, 5, 4)), rng.normal(size=(7, 5, 1)).astype(np.float32)):
        cube = ImageCube(data)
        rows = flatten(cube)
        assert rows.shape == (35, data.shape[2]) and np.shares_memory(rows, cube.data)
        back = ImageCube(rows.reshape(7, 5, -1))
        assert back.data.dtype == data.dtype and back.data.tobytes() == data.tobytes()


def test_cube_rejects_non_finite():
    data = np.ones((2, 2, 1))
    data[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        ImageCube(data)


def test_cube_dimensions_are_its_array_shape():
    cube = ImageCube(np.arange(24.0).reshape(2, 3, 4))
    # the one field is the array, and nothing restates its shape
    assert [f.name for f in dataclasses.fields(ImageCube)] == ["data"]
    assert not [name for name, v in vars(ImageCube).items() if isinstance(v, property)]
    assert cube.data.shape == (2, 3, 4) and flatten(cube).shape == (6, 4)
    assert cube.data.dtype == np.float64 and not cube.data.flags.writeable
    for shape in [(6, 4), (0, 3, 4), (2, 3, 0)]:
        with pytest.raises(ValueError, match="3-d"):
            ImageCube(np.zeros(shape))


def test_stack_pair_concatenates_rows():
    z = stack_pair(np.array([[1.0, 2.0]]), np.array([[3.0]]))
    assert np.array_equal(z, [[1.0, 2.0, 3.0]])


def test_stack_pair_rejects_unaligned():
    x = np.zeros((10, 2))
    y = np.zeros((9, 2))
    with pytest.raises(ValueError, match="unaligned pair"):
        stack_pair(x, y)


def test_stack_then_slice_recovers_inputs():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(20, 3))
    y = rng.normal(size=(20, 5))
    z = stack_pair(x, y)
    assert np.array_equal(z[:, :3], x)
    assert np.array_equal(z[:, 3:], y)


def test_standardize_fit_degenerate_column():
    s = standardize_fit(np.array([[1.0], [1.0], [1.0]]))
    assert s.mean[0] == 1.0
    assert s.std[0] == 1.0


def test_standardize_fit_hand_case():
    s = standardize_fit(np.array([[0.0], [2.0]]))
    assert s.mean[0] == pytest.approx(1.0)
    assert s.std[0] == pytest.approx(1.0)


def test_standardize_fit_requires_two_rows():
    with pytest.raises(ValueError):
        standardize_fit(np.ones((1, 2)))


def test_standardize_fit_sampling():
    rng = np.random.default_rng(11)
    s = standardize_fit(rng.standard_normal((1000, 1)))
    assert abs(s.mean[0]) < 0.15
    assert abs(s.std[0] - 1.0) < 0.15


def test_standardize_apply_centers_columns():
    rng = np.random.default_rng(5)
    m = rng.normal(loc=3.0, scale=2.5, size=(200, 4))
    out = standardize_apply(m, standardize_fit(m))
    assert np.all(np.abs(out.mean(axis=0)) < 1e-10)
    assert np.all(np.abs(out.std(axis=0) - 1.0) < 1e-10)


def test_standardize_apply_identity_stats():
    m = np.arange(6.0).reshape(3, 2)
    ident = BandStats(mean=np.zeros(2), std=np.ones(2))
    assert np.array_equal(standardize_apply(m, ident), m)


def test_standardize_round_trip():
    rng = np.random.default_rng(9)
    m = rng.normal(loc=-7.0, scale=0.3, size=(50, 3))
    s = standardize_fit(m)
    back = standardize_apply(m, s) * s.std + s.mean
    assert np.allclose(back, m, rtol=1e-12, atol=0.0)


def test_standardize_apply_dimension_mismatch():
    s = standardize_fit(np.random.default_rng(0).normal(size=(10, 2)))
    with pytest.raises(ValueError):
        standardize_apply(np.zeros((5, 3)), s)


def test_sample_pixels_full_draw_is_permutation():
    idx = sample_pixels(8, 8, seed=2)
    assert sorted(idx) == list(range(8))


def test_sample_pixels_deterministic():
    assert np.array_equal(sample_pixels(100, 10, seed=5), sample_pixels(100, 10, seed=5))


def test_sample_pixels_rejects_oversample():
    with pytest.raises(ValueError):
        sample_pixels(5, 6, seed=0)


def test_sample_pixels_uniform_frequency():
    counts = np.zeros(10)
    for trial in range(10000):
        counts[sample_pixels(10, 1, seed=trial)[0]] += 1
    freqs = counts / 10000
    assert np.all(np.abs(freqs - 0.1) <= 0.02)


def test_sample_pixels_distinct_and_in_range():
    for seed in range(20):
        idx = sample_pixels(50, 30, seed=seed)
        assert len(np.unique(idx)) == 30
        assert idx.min() >= 0 and idx.max() < 50


@pytest.mark.parametrize("shape", [(65536, 8), (1000, 3), (7, 5), (5000, 1)])
def test_standardize_fit_float32_rows_give_the_bits_of_their_float64_copy(shape):
    # mean and std accumulate in float64. This rests on numpy summing axis 0
    # row by row whether or not it casts each block of rows first.
    rows = (np.random.default_rng(11).normal(size=shape) * 50.0 + 20.0).astype(np.float32)
    got, want = standardize_fit(rows), standardize_fit(rows.astype(np.float64))
    for a, b in ((got.mean, want.mean), (got.std, want.std)):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
