import numpy as np
import pytest

from acdkit.raster import ImageCube, flatten, standardize_fit
from acdkit.simulate import pervasive_noise, scramble_anomalies


def make_cube(h, w, d, seed=0, scale=100.0):
    rng = np.random.default_rng(seed)
    return ImageCube.from_array(scale * rng.normal(size=(h, w, d)) + 50.0)


def test_zero_std_is_bit_exact():
    cube = make_cube(6, 7, 3)
    out = pervasive_noise(cube, 0.0, seed=1)
    assert np.array_equal(out.data, cube.data)


def test_noise_mean_close_to_zero():
    cube = make_cube(100, 100, 100, seed=2, scale=1.0)
    out = pervasive_noise(cube, 0.1, seed=3)
    band_std = standardize_fit(flatten(cube)).std
    delta = (out.data - cube.data) / band_std
    assert abs(delta.mean()) < 0.001


def test_noise_std_in_standardized_units():
    cube = make_cube(100, 100, 100, seed=4, scale=250.0)
    out = pervasive_noise(cube, 0.1, seed=5)
    band_std = standardize_fit(flatten(cube)).std
    delta = (out.data - cube.data) / band_std
    assert abs(delta.std() - 0.1) < 0.005


def test_noise_deterministic():
    cube = make_cube(10, 10, 4)
    a = pervasive_noise(cube, 0.1, seed=9)
    b = pervasive_noise(cube, 0.1, seed=9)
    assert np.array_equal(a.data, b.data)


def test_noise_rejects_negative_std():
    with pytest.raises(ValueError):
        pervasive_noise(make_cube(3, 3, 1), -0.1, seed=0)


@pytest.mark.parametrize("std", [np.nan, np.inf])
def test_noise_rejects_non_finite_std(std):
    with pytest.raises(ValueError, match="noise std must be finite and nonnegative"):
        pervasive_noise(make_cube(3, 3, 1), std, seed=0)


def test_scramble_two_pixels_swap():
    cube = make_cube(10, 10, 2, seed=6)
    result = scramble_anomalies(cube, 2 / 100, seed=7)
    pos = np.nonzero(result.labels)[0]
    assert pos.size == 2
    before = flatten(cube)
    after = flatten(result.second_image)
    assert np.array_equal(after[pos[0]], before[pos[1]])
    assert np.array_equal(after[pos[1]], before[pos[0]])


def test_scramble_preserves_multiset_per_band():
    cube = make_cube(30, 20, 5, seed=8)
    result = scramble_anomalies(cube, 0.05, seed=9)
    before = np.sort(flatten(cube), axis=0)
    after = np.sort(flatten(result.second_image), axis=0)
    assert np.array_equal(before, after)


def test_scramble_one_percent_label_count():
    cube = make_cube(100, 100, 2, seed=10)
    result = scramble_anomalies(cube, 0.01, seed=11)
    assert int(result.labels.sum()) == 100


def test_scramble_is_derangement():
    cube = make_cube(25, 25, 3, seed=12)
    result = scramble_anomalies(cube, 0.1, seed=13)
    pos = np.nonzero(result.labels)[0]
    before = flatten(cube)
    after = flatten(result.second_image)
    # every labeled pixel got some other pixel's spectrum (values are
    # continuous draws, so spectral equality implies identity here)
    assert not np.any(np.all(after[pos] == before[pos], axis=1))
    untouched = np.nonzero(result.labels == 0)[0]
    assert np.array_equal(after[untouched], before[untouched])


def test_scramble_deterministic():
    cube = make_cube(12, 12, 2, seed=14)
    a = scramble_anomalies(cube, 0.1, seed=15)
    b = scramble_anomalies(cube, 0.1, seed=15)
    assert np.array_equal(a.second_image.data, b.second_image.data)
    assert np.array_equal(a.labels, b.labels)


def test_scramble_label_sum_matches_rounding():
    cube = make_cube(13, 11, 1, seed=16)
    frac = 0.037
    result = scramble_anomalies(cube, frac, seed=17)
    assert int(result.labels.sum()) == int(np.rint(frac * 13 * 11))


def test_scramble_rejects_tiny_selection():
    cube = make_cube(10, 10, 1, seed=18)
    with pytest.raises(ValueError, match="derange"):
        scramble_anomalies(cube, 0.005, seed=19)  # k = round(0.5) < 2
    with pytest.raises(ValueError):
        scramble_anomalies(cube, 0.0, seed=20)


def test_noise_matches_the_whole_array_expression():
    # chunked and in place, in float64, for float32 and float64 cubes alike
    data32 = make_cube(130, 70, 3, seed=11).data.astype(np.float32)  # more than one chunk
    for data in (data32, data32.astype(np.float64)):
        out = pervasive_noise(ImageCube.from_array(data), 0.3, seed=12)
        x = data.astype(np.float64)
        band_std = x.reshape(-1, 3).std(axis=0)
        noise = np.random.default_rng(12).normal(0.0, 0.3, size=x.shape)
        assert out.data.dtype == np.float64
        assert out.data.tobytes() == ((x / band_std + noise) * band_std).tobytes()
