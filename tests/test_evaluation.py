"""Depth metrics, median scaling, crops, and the error heatmap."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import depth_metrics_ref
from sweepdepth.errors import (
    EmptyValidSet,
    NonFiniteDepth,
    NonPositiveDepth,
    ShapeMismatch,
    TooSmall,
)
from sweepdepth.evaluation import (
    abs_rel_error_map,
    crop,
    depth_metrics,
    error_heatmap,
    median_scale,
)


class TestMedianScale:
    def test_double_prediction_recovers_gt(self, rng):
        gt = rng.uniform(1, 50, (6, 6))
        valid = np.ones((6, 6), dtype=bool)
        assert np.allclose(median_scale(2.0 * gt, gt, valid), gt, rtol=1e-12)

    def test_identity(self, rng):
        gt = rng.uniform(1, 50, (6, 6))
        valid = np.ones((6, 6), dtype=bool)
        assert np.allclose(median_scale(gt.copy(), gt, valid), gt, rtol=1e-12)

    def test_invalid_pixels_ignored(self, rng):
        gt = rng.uniform(1, 50, (6, 6))
        pred = gt.copy()
        valid = np.ones((6, 6), dtype=bool)
        valid[0] = False
        pred[0] = 1e6  # outliers confined to invalid pixels
        scaled = median_scale(pred, gt, valid)
        assert np.allclose(scaled[valid], gt[valid], rtol=1e-12)

    def test_empty_valid_set(self, rng):
        gt = rng.uniform(1, 50, (3, 3))
        with pytest.raises(EmptyValidSet):
            median_scale(gt, gt, np.zeros((3, 3), dtype=bool))
        with pytest.raises(ShapeMismatch):
            median_scale(gt, gt, np.ones((3, 4), dtype=bool))

    @pytest.mark.parametrize("median", [0.0, -2.0, np.nan])
    def test_prediction_median_must_be_positive(self, rng, median):
        gt = rng.uniform(1, 50, (3, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPositiveDepth, match="median"):
                median_scale(np.full((3, 3), median), gt, np.ones((3, 3), dtype=bool))


class TestDepthMetrics:
    def test_perfect_prediction(self, rng):
        gt = rng.uniform(1, 70, (8, 8))
        m = depth_metrics(gt.copy(), gt)
        assert (m.abs_rel, m.sq_rel, m.rmse, m.rmse_log) == (0, 0, 0, 0)
        assert (m.delta1, m.delta2, m.delta3) == (1, 1, 1)

    def test_ratio_boundary_is_strict(self):
        gt = np.full((4, 4), 8.0)
        m = depth_metrics(1.25 * gt, gt)
        assert m.delta1 == 0.0
        assert m.delta2 == 1.0
        assert m.delta3 == 1.0

    def test_matches_scalar_oracle(self, rng):
        gt = rng.uniform(0.5, 100.0, (8, 8))  # includes pixels beyond the cap
        pred = gt * rng.uniform(0.5, 2.0, (8, 8))
        m = depth_metrics(pred, gt)
        ref = depth_metrics_ref(pred, gt)
        for key, val in ref.items():
            assert getattr(m, key) == pytest.approx(val, abs=1e-9), key

    def test_prediction_clamped_to_floor_and_cap(self):
        gt = np.full((2, 2), 40.0)
        pred = np.array([[0.0, -5.0], [500.0, 40.0]])
        m = depth_metrics(pred, gt)
        ref = depth_metrics_ref(pred, gt)
        assert m.abs_rel == pytest.approx(ref["abs_rel"], abs=1e-12)

    def test_cap_excludes_far_gt(self):
        gt = np.array([[10.0, 90.0]])
        pred = np.array([[10.0, 1.0]])
        m = depth_metrics(pred, gt)
        assert m.abs_rel == 0.0  # the 90 m pixel is outside the valid set

    def test_empty_valid_set(self):
        with pytest.raises(EmptyValidSet):
            depth_metrics(np.ones((2, 2)), np.full((2, 2), 100.0))
        with pytest.raises(ShapeMismatch):
            depth_metrics(np.ones((2, 3)), np.ones((2, 2)))

    @given(st.integers(0, 100_000))
    @settings(max_examples=40)
    def test_delta_monotonicity(self, seed):
        r = np.random.default_rng(seed)
        gt = r.uniform(0.5, 79.0, (6, 6))
        pred = gt * r.uniform(0.3, 3.0, (6, 6))
        m = depth_metrics(pred, gt)
        assert m.delta1 <= m.delta2 <= m.delta3
        assert 0 <= m.delta1 and m.delta3 <= 1

    def test_scale_invariance_after_median_scaling(self, rng):
        gt = rng.uniform(1, 70, (8, 8))
        valid = (gt > 0) & (gt < 80)
        for k in (0.1, 1.0, 7.0):
            m = depth_metrics(median_scale(k * gt, gt, valid), gt)
            assert m.abs_rel < 1e-9
            assert (m.delta1, m.delta2, m.delta3) == (1, 1, 1)


class TestAbsRelErrorMap:
    def test_perfect(self, rng):
        gt = rng.uniform(1, 50, (5, 5))
        err, valid = abs_rel_error_map(gt.copy(), gt)
        assert (err == 0).all() and valid.all()

    def test_twenty_percent(self, rng):
        gt = rng.uniform(1, 50, (5, 5))
        err, _ = abs_rel_error_map(1.2 * gt, gt)
        assert np.allclose(err, 0.2, atol=1e-12)

    def test_mean_matches_abs_rel(self, rng):
        # predictions kept inside [1e-3, cap] so the metric's clamp is a no-op
        gt = rng.uniform(1, 70, (8, 8))
        pred = gt * rng.uniform(0.5, 1.1, (8, 8))
        err, valid = abs_rel_error_map(pred, gt)
        m = depth_metrics(pred, gt)
        assert err[valid].mean() == pytest.approx(m.abs_rel, abs=1e-9)

    def test_invalid_gt_flagged(self):
        gt = np.array([[1.0, 0.0]])
        err, valid = abs_rel_error_map(np.ones((1, 2)), gt)
        assert valid[0, 0] and not valid[0, 1]
        with pytest.raises(ShapeMismatch):
            abs_rel_error_map(np.ones((2, 1)), gt)
        assert err[0, 1] == 0.0

    def test_non_finite_gt_flagged(self):
        gt = np.array([[2.0, np.inf, np.nan, -np.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            err, valid = abs_rel_error_map(np.ones((1, 4)), gt)
        assert valid.tolist() == [[True, False, False, False]]
        assert err.tolist() == [[0.5, 0.0, 0.0, 0.0]]


class TestNonFinitePrediction:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("score", [depth_metrics, abs_rel_error_map])
    def test_rejected(self, rng, score, bad):
        gt = rng.uniform(1, 50, (4, 5))
        pred = gt.copy()
        pred[2, 3] = bad
        with pytest.raises(NonFiniteDepth):
            score(pred, gt)

    def test_zero_and_negative_stay_legal(self, rng):
        # The protocol clamps predictions to [1e-3, cap]; only finiteness is required.
        gt = rng.uniform(1, 50, (4, 5))
        pred = gt.copy()
        pred[0, 0], pred[1, 1] = 0.0, -3.0
        assert np.isfinite(depth_metrics(pred, gt).abs_rel)
        assert np.isfinite(abs_rel_error_map(pred, gt)[0]).all()


class TestCrop:
    def test_cityscapes_a_native(self):
        img = np.zeros((1024, 2048))
        assert crop(img, "cityscapes_A").shape == (512, 1664)

    def test_cityscapes_b_native(self):
        img = np.zeros((1024, 2048))
        assert crop(img, "cityscapes_B").shape == (768, 2048)

    def test_none_identity(self, rng):
        img = rng.random((10, 20))
        assert crop(img, "none") is img

    def test_proportional_small(self):
        img = np.zeros((64, 64, 3))
        a = crop(img, "cityscapes_A")
        assert a.shape == (32, 64 - 2 * 6, 3)  # rows 16:48, 3*64//32 = 6 per side
        b = crop(img, "cityscapes_B")
        assert b.shape == (48, 64, 3)

    def test_region_location(self):
        img = np.arange(1024 * 2048, dtype=float).reshape(1024, 2048)
        a = crop(img, "cityscapes_A")
        assert a[0, 0] == img[256, 192]
        b = crop(img, "cityscapes_B")
        assert b[-1, -1] == img[767, -1]

    def test_too_small(self):
        with pytest.raises(TooSmall):
            crop(np.zeros((1, 4)), "cityscapes_A")
        with pytest.raises(TooSmall):  # 3/4 of one row keeps none
            crop(np.zeros((1, 4)), "cityscapes_B")

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            crop(np.zeros((10, 10)), "garg")


class TestErrorHeatmap:
    def test_endpoints_blue_to_red(self):
        err = np.array([[0.0, 0.2, 0.5]])
        rgb = error_heatmap(err)
        assert np.allclose(rgb[0, 0], [0, 0, 1])  # zero error: blue
        assert np.allclose(rgb[0, 1], [1, 0, 0])  # saturation: red
        assert np.allclose(rgb[0, 2], [1, 0, 0])  # beyond saturation stays red

    def test_midpoint_white(self):
        rgb = error_heatmap(np.array([[0.1]]))
        assert np.allclose(rgb[0, 0], [1, 1, 1])

    def test_in_unit_range(self, rng):
        rgb = error_heatmap(rng.uniform(0, 1, (8, 8)))
        assert rgb.min() >= 0 and rgb.max() <= 1
