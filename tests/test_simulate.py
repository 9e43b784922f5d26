import numpy as np
import pytest

from acdkit.raster import ImageCube, flatten, standardize_fit
from acdkit.simulate import pervasive_noise, scramble_anomalies


def make_pixels(h, w, d, seed=0, scale=100.0):
    rng = np.random.default_rng(seed)
    return (scale * rng.normal(size=(h, w, d)) + 50.0).reshape(h * w, d)


def test_zero_std_is_bit_exact():
    pixels = make_pixels(6, 7, 3)
    out = pervasive_noise(pixels, 0.0, seed=1)
    assert np.array_equal(out, pixels)


def test_noise_mean_close_to_zero():
    pixels = make_pixels(100, 100, 100, seed=2, scale=1.0)
    out = pervasive_noise(pixels, 0.1, seed=3)
    band_std = standardize_fit(pixels).std
    delta = (out - pixels) / band_std
    assert abs(delta.mean()) < 0.001


def test_noise_std_in_standardized_units():
    pixels = make_pixels(100, 100, 100, seed=4, scale=250.0)
    out = pervasive_noise(pixels, 0.1, seed=5)
    band_std = standardize_fit(pixels).std
    delta = (out - pixels) / band_std
    assert abs(delta.std() - 0.1) < 0.005


def test_noise_deterministic():
    pixels = make_pixels(10, 10, 4)
    a = pervasive_noise(pixels, 0.1, seed=9)
    b = pervasive_noise(pixels, 0.1, seed=9)
    assert np.array_equal(a, b)


def test_noise_rejects_negative_std():
    with pytest.raises(ValueError):
        pervasive_noise(make_pixels(3, 3, 1), -0.1, seed=0)


@pytest.mark.parametrize("std", [np.nan, np.inf])
def test_noise_rejects_non_finite_std(std):
    with pytest.raises(ValueError, match="noise std must be finite and nonnegative"):
        pervasive_noise(make_pixels(3, 3, 1), std, seed=0)


@pytest.mark.parametrize("std", [0.0, 0.1])
def test_noise_returns_new_writable_rows(std):
    # scramble_anomalies permutes the result in place, so it must not be the input
    for pixels in (make_pixels(9, 8, 3), flatten(ImageCube(make_pixels(9, 8, 3).reshape(9, 8, 3)))):
        before = pixels.copy()
        out = pervasive_noise(pixels, std, seed=2)
        assert out.flags.writeable and not np.shares_memory(out, pixels)
        out[:] = 0.0
        assert np.array_equal(pixels, before)


def test_scramble_two_pixels_swap():
    before = make_pixels(10, 10, 2, seed=6)
    after = before.copy()
    labels = scramble_anomalies(after, 2 / 100, seed=7)
    pos = np.nonzero(labels)[0]
    assert pos.size == 2
    assert np.array_equal(after[pos[0]], before[pos[1]])
    assert np.array_equal(after[pos[1]], before[pos[0]])


def test_scramble_preserves_multiset_per_band():
    before = make_pixels(30, 20, 5, seed=8)
    after = before.copy()
    scramble_anomalies(after, 0.05, seed=9)
    assert np.array_equal(np.sort(before, axis=0), np.sort(after, axis=0))


def test_scramble_one_percent_label_count():
    labels = scramble_anomalies(make_pixels(100, 100, 2, seed=10), 0.01, seed=11)
    assert labels.dtype == np.uint8 and labels.shape == (100 * 100,)
    assert int(labels.sum()) == 100


def test_scramble_is_derangement():
    before = make_pixels(25, 25, 3, seed=12)
    after = before.copy()
    labels = scramble_anomalies(after, 0.1, seed=13)
    pos = np.nonzero(labels)[0]
    # every labeled pixel got some other pixel's spectrum (values are
    # continuous draws, so spectral equality implies identity here)
    assert not np.any(np.all(after[pos] == before[pos], axis=1))
    untouched = np.nonzero(labels == 0)[0]
    assert np.array_equal(after[untouched], before[untouched])


def test_scramble_deterministic():
    a = make_pixels(12, 12, 2, seed=14)
    b = a.copy()
    labels_a = scramble_anomalies(a, 0.1, seed=15)
    labels_b = scramble_anomalies(b, 0.1, seed=15)
    assert np.array_equal(a, b)
    assert np.array_equal(labels_a, labels_b)


def test_scramble_label_sum_matches_rounding():
    frac = 0.037
    labels = scramble_anomalies(make_pixels(13, 11, 1, seed=16), frac, seed=17)
    assert int(labels.sum()) == int(np.rint(frac * 13 * 11))


def test_scramble_rejects_tiny_selection():
    pixels = make_pixels(10, 10, 1, seed=18)
    with pytest.raises(ValueError, match="derange"):
        scramble_anomalies(pixels, 0.005, seed=19)  # k = round(0.5) < 2
    with pytest.raises(ValueError):
        scramble_anomalies(pixels, 0.0, seed=20)


def test_scramble_permutes_the_array_it_is_given():
    pixels = make_pixels(20, 10, 3, seed=21)
    before = pixels.copy()
    labels = scramble_anomalies(pixels, 0.1, seed=22)
    pos = np.nonzero(labels)[0]
    assert not np.array_equal(pixels, before)
    assert np.array_equal(np.sort(pixels[pos], axis=0), np.sort(before[pos], axis=0))


@pytest.mark.parametrize("make", [
    lambda p: flatten(ImageCube(p.reshape(20, 10, 3))),  # a read-only view
    lambda p: p[:, 0],  # 1-d
    lambda p: p.reshape(20, 10, 3),  # 3-d
    lambda p: p.tolist(),  # not an ndarray
], ids=["read-only", "1-d", "3-d", "list"])
def test_scramble_rejects_what_it_cannot_permute_in_place(make):
    pixels = make(make_pixels(20, 10, 3, seed=23))
    before = np.array(pixels, copy=True)
    with pytest.raises(ValueError, match="writable 2-d array"):
        scramble_anomalies(pixels, 0.1, seed=24)
    assert np.array_equal(np.asarray(pixels), before)


def test_noise_matches_the_whole_array_expression():
    # chunked and in place, in float64, for float32 and float64 rows alike
    data32 = make_pixels(130, 70, 3, seed=11).astype(np.float32)  # more than one chunk
    for data in (data32, data32.astype(np.float64)):
        out = pervasive_noise(data, 0.3, seed=12)
        x = data.astype(np.float64)
        band_std = x.std(axis=0)
        noise = np.random.default_rng(12).normal(0.0, 0.3, size=x.shape)
        assert out.dtype == np.float64
        assert out.tobytes() == ((x / band_std + noise) * band_std).tobytes()
