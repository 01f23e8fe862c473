"""Feature extractors: downsampling, gradients, equivariance."""

import numpy as np
import pytest
from oracles import box_downsample_ref

from sweepdepth.errors import UnknownExtractor
from sweepdepth.features import (
    _box_downsample,
    _central_diff_x,
    _central_diff_y,
    channel_mean,
    extract_features,
)
from sweepdepth.geometry import _channel_major


def test_constant_image_has_zero_gradients():
    img = np.full((8, 8, 3), 0.5)
    fmap = extract_features(img, "gradient", 1)
    assert np.allclose(fmap.data[:, :, 0], 0.5)
    assert np.allclose(fmap.data[:, :, 1:], 0.0)


def test_rgb_scale_one_is_identity(rng):
    img = rng.random((6, 7, 3))
    fmap = extract_features(img, "rgb", 1)
    assert np.array_equal(fmap.data, img)


def test_checkerboard_box_average():
    img = np.indices((4, 4)).sum(axis=0) % 2.0
    fmap = extract_features(img, "intensity", 2)
    assert fmap.data.shape == (2, 2, 1)
    assert np.allclose(fmap.data, 0.5)


def test_ceil_shapes_for_non_divisible_sizes(rng):
    fmap = extract_features(rng.random((5, 7)), "intensity", 2)
    assert fmap.data.shape == (3, 4, 1)
    # the 1x1 corner block is just the corner pixel


def test_shift_equivariance_at_scale_one(rng):
    img = rng.random((10, 12))
    a = extract_features(img, "gradient", 1).data
    b = extract_features(np.roll(img, 2, axis=1), "gradient", 1).data
    # compare away from the wrapped/replicated borders
    assert np.allclose(a[:, 3:-3], np.roll(b, -2, axis=1)[:, 3:-3])


def test_gradient_locality_3x3(rng):
    img = rng.random((9, 9))
    poked = img.copy()
    poked[4, 4] += 1.0
    a = extract_features(img, "gradient", 1).data
    b = extract_features(poked, "gradient", 1).data
    changed = np.argwhere(np.any(a != b, axis=2))
    assert (np.abs(changed - [4, 4]).max(axis=1) <= 1).all()


@pytest.mark.parametrize("scale", [1, 2, 4])
def test_gradient_features_are_channel_major(rng, scale):
    # The sweep reads (C, H'W') rows: gradient features are a view over that
    # memory, so it takes them without a copy, with the values of a channel-last stack.
    img = rng.random((13, 17, 3))
    fmap = extract_features(img, "gradient", scale)
    assert np.shares_memory(_channel_major(fmap.data), fmap.data)
    gray = _box_downsample(img.mean(axis=2), scale)
    want = np.stack([gray, _central_diff_x(gray), _central_diff_y(gray)], axis=-1)
    assert fmap.shape == want.shape
    assert np.array_equal(fmap.data, want)


def test_finite_output(rng):
    for kind in ("intensity", "rgb", "gradient"):
        for scale in (1, 2, 4):
            fmap = extract_features(rng.random((13, 17, 3)), kind, scale)
            assert np.isfinite(fmap.data).all()


def test_unknown_kind_and_scale_rejected():
    img = np.zeros((4, 4, 3))
    with pytest.raises(UnknownExtractor):
        extract_features(img, "sift", 1)
    with pytest.raises(UnknownExtractor):
        extract_features(img, "rgb", 3)


@pytest.mark.parametrize("scale", [2, 4])
@pytest.mark.parametrize("channels", [(), (3,)])
def test_box_downsample_matches_oracle(rng, scale, channels):
    for _ in range(40):
        h, w = rng.integers(1, 30, 2)
        img = rng.random((h, w, *channels))
        got, want = _box_downsample(img, scale), box_downsample_ref(img, scale)
        assert got.shape == want.shape
        if h % scale == 0 and w % scale == 0:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-15


def channel_mean_inputs(rng, channels):
    """Noise with +-inf, NaN and -0.0 entries and one pixel of all -0.0, whose mean's sign
    is set by the value numpy starts its sums from, as a contiguous array and as four
    strided views."""
    x = rng.standard_normal((9, 14, channels)) * rng.choice([1.0, 1e8, 1e-300], (9, 14, channels))
    flat = x.reshape(-1)
    for value, at in zip((np.inf, -np.inf, np.nan, -0.0), np.array_split(rng.permutation(flat.size)[:24], 4)):
        flat[at] = value
    x[0, 0] = -0.0
    wide = np.repeat(x, 2, axis=-1)
    return x, x[::2, ::3], x[:, ::-1], np.asfortranarray(x), wide[..., ::2]


@pytest.mark.parametrize("channels", range(1, 10))
def test_channel_mean_has_the_bits_of_mean(rng, channels):
    for x in channel_mean_inputs(rng, channels):
        with np.errstate(invalid="ignore"):  # inf - inf
            want = x.mean(axis=-1)
            assert channel_mean(x).tobytes() == want.tobytes()
            out = np.empty(x.shape[:-1])
            assert channel_mean(x, out=out) is out and out.tobytes() == want.tobytes()
