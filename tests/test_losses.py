"""Loss terms against hand arithmetic and the scalar-loop references."""

import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    consistency_loss_ref,
    consistency_mask_ref,
    min_reprojection_ref,
    photometric_error_ref,
    smoothness_ref,
    ssim_ref,
)
from sweepdepth import losses
from sweepdepth.errors import EmptySources, NonPositiveDepth, ShapeMismatch
from sweepdepth.losses import (
    ALPHA,
    SMOOTHNESS_WEIGHT,
    consistency_loss,
    consistency_mask,
    min_reprojection_loss,
    photometric_error,
    smoothness_loss,
    ssim,
    total_loss,
)

# Constant images 0 and 1 have window means 0 and 1 and zero variances, so
# SSIM = (2*0*1 + C1)(0 + C2) / ((0 + 1 + C1)(0 + 0 + C2)) = C1 / (1 + C1).
CONST_0_1_SSIM = 1e-4 / (1 + 1e-4)


class TestSsim:
    def test_identical_images(self, rng):
        img = rng.random((6, 6, 3))
        assert np.allclose(ssim(img, img), 1.0, atol=1e-12)

    def test_constant_zero_vs_one(self):
        val = ssim(np.zeros((5, 5)), np.ones((5, 5)))
        assert np.allclose(val, CONST_0_1_SSIM, atol=1e-15)
        assert np.allclose(ssim_ref(np.zeros((5, 5)), np.ones((5, 5))), CONST_0_1_SSIM)

    def test_continuity_under_small_noise(self, rng):
        img = rng.random((6, 6))
        noisy = img + 1e-9 * rng.standard_normal((6, 6))
        assert ssim(img, noisy).min() > 1.0 - 1e-6

    def test_range(self, rng):
        a, b = rng.random((8, 8)), rng.random((8, 8))
        val = ssim(a, b)
        assert (val >= -1.0 - 1e-12).all() and (val <= 1.0 + 1e-12).all()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ssim(np.zeros((4, 4)), np.zeros((4, 5)))
        with pytest.raises(ShapeMismatch):
            photometric_error(np.zeros((4, 4, 3)), np.zeros((4, 4)))


    @pytest.mark.parametrize("shape", [(4, 0), (0, 4), (0, 0), (3, 0, 3)])
    def test_empty_image(self, shape):
        # no pixels, no bands: an empty result, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ssim(np.zeros(shape), np.zeros(shape))
            pe = photometric_error(np.zeros(shape), np.zeros(shape))
        assert got.shape == (*shape[:2], 3 if len(shape) == 3 else 1)
        assert pe.shape == shape[:2]


def whole_image_ssim(a, b):
    """``ssim`` as one whole-image expression over an ``np.pad`` of each image."""
    a, b = (np.pad(x[..., None] if x.ndim == 2 else x, ((1, 1), (1, 1), (0, 0)), mode="edge")
            for x in (a, b))

    def window_mean(x):
        rows = x[:-2] + x[1:-1] + x[2:]
        return (rows[:, :-2] + rows[:, 1:-1] + rows[:, 2:]) / 9.0

    mu_a, mu_b = window_mean(a), window_mean(b)
    var_a = window_mean(a * a) - mu_a**2
    var_b = window_mean(b * b) - mu_b**2
    cov = window_mean(a * b) - mu_a * mu_b
    num = (2 * mu_a * mu_b + losses.SSIM_C1) * (2 * cov + losses.SSIM_C2)
    den = (mu_a**2 + mu_b**2 + losses.SSIM_C1) * (var_a + var_b + losses.SSIM_C2)
    return num / den


def whole_image_photometric_error(pred, target):
    """``photometric_error`` as one whole-image expression, averaged by ``mean(axis=2)``."""
    pred, target = (x[..., None] if x.ndim == 2 else x for x in (pred, target))
    dissim = ALPHA / 2.0 * (1.0 - whole_image_ssim(pred, target))
    return (dissim + (1.0 - ALPHA) * np.abs(pred - target)).mean(axis=2)


class TestWholeImageBits:
    # bands of max(1, tile // W) rows: (13, 5) at 15 pixels is 4 bands of 3 rows and a last
    # band of one, (9, 1) at 4 pixels two of 4 rows and one of one, (7, 2) at 6 pixels two of
    # 3 and one of one; the default budget makes each image one band
    @pytest.mark.parametrize("shape, tile", [((5, 1), None), ((6, 2), None), ((13, 5), 15),
                                             ((9, 1), 4), ((7, 2), 6), ((40, 33), 99)])
    @pytest.mark.parametrize("channels", [None, 3])
    def test_bands_equal_the_padded_formula(self, rng, monkeypatch, shape, tile, channels):
        if tile is not None:
            monkeypatch.setattr(losses, "_TILE_PIXELS", tile)
            assert shape[0] % losses._band_rows(shape[1]) == 1  # the last band is one row
        full = shape if channels is None else (*shape, channels)
        a, b = rng.random(full), rng.random(full)
        assert ssim(a, b).tobytes() == whole_image_ssim(a, b).tobytes()
        assert photometric_error(a, b).tobytes() == whole_image_photometric_error(a, b).tobytes()


class TestPhotometricError:
    def test_identical_is_zero(self, rng):
        img = rng.random((6, 6, 3))
        assert np.allclose(photometric_error(img, img), 0.0, atol=1e-12)

    def test_constant_zero_vs_one(self):
        pe = photometric_error(np.zeros((5, 5)), np.ones((5, 5)))
        expected = 0.85 / 2 * (1 - CONST_0_1_SSIM) + 0.15 * 1.0
        assert np.allclose(pe, expected, atol=1e-12)


class TestMinReprojection:
    def test_perfect_source(self, rng):
        img = rng.random((6, 6, 3))
        ones = np.ones((6, 6), dtype=bool)
        scalar, per_pixel = min_reprojection_loss(img, [(img.copy(), ones)])
        assert scalar == 0.0
        assert (per_pixel == 0).all()

    def test_min_ignores_garbage_source(self, rng):
        img = rng.random((6, 6, 3))
        ones = np.ones((6, 6), dtype=bool)
        garbage = rng.random((6, 6, 3))
        scalar, _ = min_reprojection_loss(img, [(img.copy(), ones), (garbage, ones)])
        assert scalar == 0.0

    def test_complementary_halves(self, rng):
        # Each source is perfect one pixel past the midline so no 3x3 window
        # of a competing-at-that-pixel source straddles its garbage half.
        img = rng.random((6, 8, 3))
        left = img.copy()
        left[:, 5:] = rng.random((6, 3, 3))  # garbage right of column 4
        right = img.copy()
        right[:, :3] = rng.random((6, 3, 3))  # garbage left of column 3
        lv = np.zeros((6, 8), dtype=bool)
        lv[:, :4] = True
        rv = ~lv
        scalar, per_pixel = min_reprojection_loss(img, [(left, lv), (right, rv)])
        assert scalar < 1e-12
        assert (per_pixel < 1e-12).all()

    def test_uncovered_pixels_excluded(self, rng):
        img = rng.random((4, 4))
        valid = np.zeros((4, 4), dtype=bool)
        valid[0, 0] = True
        bad = img + 0.5
        scalar, per_pixel = min_reprojection_loss(img, [(bad, valid)])
        ref_scalar, ref_map = min_reprojection_ref(img, [(bad, valid)])
        assert scalar == pytest.approx(ref_scalar, abs=1e-12)
        assert (per_pixel[~valid] == 0).all()
        assert np.allclose(per_pixel, ref_map, atol=1e-12)

    def test_empty_sources(self, rng):
        with pytest.raises(EmptySources):
            min_reprojection_loss(rng.random((4, 4)), [])
        img = rng.random((4, 4))
        with pytest.raises(ShapeMismatch):  # a valid mask of another shape
            min_reprojection_loss(img, [(img, np.ones((4, 5), dtype=bool))])

    @pytest.mark.parametrize("bad", ["image", "mask"])
    def test_bad_entry_is_refused_before_it_is_scored(self, rng, monkeypatch, bad):
        scored = []
        monkeypatch.setattr(losses, "photometric_error",
                            lambda *args: scored.append(args) or photometric_error(*args))
        img, ones = rng.random((4, 4, 3)), np.ones((4, 4), dtype=bool)
        entry = (rng.random((4, 5, 3)), ones) if bad == "image" else (img, np.ones((5, 4), dtype=bool))
        with pytest.raises(ShapeMismatch, match="synthesized view shape does not match target"):
            min_reprojection_loss(img, [(img, ones), entry])
        assert len(scored) == 1  # the good first entry only

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0)])
    def test_empty_image(self, shape):
        img = np.zeros((*shape, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar, per_pixel = min_reprojection_loss(img, [(img, np.ones(shape, dtype=bool))])
        assert (scalar, per_pixel.shape) == (0.0, shape)

    def test_memory_stays_in_row_bands(self, rng):
        # numpy reports its buffers to tracemalloc. At 640x192x3 one full-image
        # float64 temporary is 2.9 MB; the whole-image SSIM held about 26 MB.
        target = rng.random((192, 640, 3))
        synthesized = [(rng.random((192, 640, 3)), rng.random((192, 640)) > 0.1) for _ in range(2)]
        tracemalloc.start()
        try:
            min_reprojection_loss(target, synthesized)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    def test_adding_sources_never_increases(self, rng):
        img = rng.random((5, 5))
        ones = np.ones((5, 5), dtype=bool)
        srcs = [(rng.random((5, 5)), ones) for _ in range(4)]
        prev = np.inf
        for n in range(1, 5):
            scalar, _ = min_reprojection_loss(img, srcs[:n])
            assert scalar <= prev + 1e-15
            prev = scalar


class TestConsistencyMask:
    def test_agreement_unmasked(self, rng):
        d = rng.random((4, 4)) + 0.5
        assert not consistency_mask(d, d.copy()).any()

    def test_double_is_boundary_exclusive(self, rng):
        d = rng.random((4, 4)) + 0.5
        assert not consistency_mask(2.0 * d, d).any()
        assert not consistency_mask(d, 2.0 * d).any()

    def test_factor_2p5_masked(self, rng):
        d = rng.random((4, 4)) + 0.5
        assert consistency_mask(2.5 * d, d).all()
        assert consistency_mask(d, 2.5 * d).all()

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveDepth):
            consistency_mask(np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(ShapeMismatch):
            consistency_mask(np.ones((2, 2)), np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonPositiveDepth):
            consistency_mask(np.ones((2, 2)), np.array([[1.0, bad], [1.0, 1.0]]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_matches_scalar_loop(self, seed):
        r = np.random.default_rng(seed)
        d_cv = r.uniform(0.1, 10.0, (5, 5))
        d_hat = r.uniform(0.1, 10.0, (5, 5))
        assert (consistency_mask(d_cv, d_hat) == consistency_mask_ref(d_cv, d_hat)).all()

    @given(st.floats(1e-3, 1e3), st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_invariant_to_common_rescaling(self, k, seed):
        r = np.random.default_rng(seed)
        d_cv = r.uniform(0.5, 5.0, (4, 4))
        d_hat = r.uniform(0.5, 5.0, (4, 4))
        assert (consistency_mask(k * d_cv, k * d_hat) == consistency_mask(d_cv, d_hat)).all()


class TestConsistencyLoss:
    def test_zero_mask(self, rng):
        d = rng.random((4, 4)) + 1
        assert consistency_loss(d, d + 3, np.zeros((4, 4), dtype=bool)) == 0.0
        with pytest.raises(ShapeMismatch):
            consistency_loss(d, d + 3, np.zeros((4, 5), dtype=bool))

    def test_full_mask_constant_offset(self, rng):
        d = rng.random((4, 4)) + 1
        loss = consistency_loss(d + 0.5, d, np.ones((4, 4), dtype=bool))
        assert loss == pytest.approx(0.5, abs=1e-12)

    def test_half_mask_hand_mean(self):
        d_hat = np.ones((2, 2))
        d_t = np.array([[2.0, 2.0], [8.0, 8.0]])  # diffs 1 on masked, 7 unmasked
        mask = np.array([[True, True], [False, False]])
        assert consistency_loss(d_t, d_hat, mask) == pytest.approx(0.5)


class TestSmoothness:
    def test_constant_depth_is_zero(self, rng):
        assert smoothness_loss(np.full((5, 5), 3.0), rng.random((5, 5, 3))) == 0.0

    def test_depth_scale_invariance(self, rng):
        depth = rng.random((6, 6)) + 0.5
        img = rng.random((6, 6, 3))
        base = smoothness_loss(depth, img)
        scaled = smoothness_loss(7.3 * depth, img)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_linear_disparity_ramp_closed_form(self):
        # disparity ramp a*j + b on a constant image: normalized slope is
        # a / mean(disp), x-term mean is that slope, y-term is 0.
        h, w, a, b = 5, 7, 0.1, 1.0
        jj = np.tile(np.arange(w, dtype=float), (h, 1))
        disp = a * jj + b
        depth = 1.0 / disp
        expected = a / disp.mean()
        assert smoothness_loss(depth, np.full((h, w), 0.5)) == pytest.approx(expected, rel=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveDepth):
            smoothness_loss(np.zeros((3, 3)), np.zeros((3, 3)))
        with pytest.raises(ShapeMismatch):
            smoothness_loss(np.ones((3, 3)), np.zeros((3, 4, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonPositiveDepth):
            smoothness_loss(np.array([[1.0, bad], [1.0, 1.0]]), np.zeros((2, 2)))

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (1, 1)])
    def test_one_row_or_column_has_no_pairs_in_one_direction(self, rng, shape):
        # no neighbour pairs across the missing direction: its term is 0, not a NaN mean
        depth, img = rng.uniform(1, 4, shape), rng.random((*shape, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = smoothness_loss(depth, img)
        assert got == pytest.approx(smoothness_ref(depth, img), abs=1e-12)
        assert got == whole_image_smoothness(depth, img)
        assert (got == 0.0) == (shape == (1, 1))

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0)])
    @pytest.mark.parametrize("channels", [None, 3])
    def test_empty_image_scores_zero(self, shape, channels):
        img = np.zeros(shape if channels is None else (*shape, channels))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert smoothness_loss(np.ones(shape), img) == 0.0

    @pytest.mark.parametrize("tile", [7, 64, 1000])
    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (25, 13), (48, 64)])
    @pytest.mark.parametrize("channels", [None, 3])
    def test_bands_keep_the_bits(self, rng, monkeypatch, tile, shape, channels):
        # bands of max(1, tile // W) rows split these images mid-image, with a last band
        # of one row for some; the result is the whole-image formula's, bit for bit
        monkeypatch.setattr(losses, "_TILE_PIXELS", tile)
        depth = rng.uniform(0.5, 9.0, shape)
        img = rng.random(shape if channels is None else (*shape, channels))
        assert smoothness_loss(depth, img) == whole_image_smoothness(depth, img)

    def test_full_size_peak(self, rng):
        # at 640x192 the per-pixel terms take about 3.8 MB of tracemalloc in row bands,
        # and 9.8 MB as whole-image temporaries
        depth, img = rng.uniform(1, 4, (192, 640)), rng.random((192, 640, 3))
        tracemalloc.start()
        try:
            smoothness_loss(depth, img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.5e6, peak


def whole_image_smoothness(depth, img):
    """``smoothness_loss`` as one whole-image expression, with an empty grid's term 0."""
    img = img[..., None] if img.ndim == 2 else img
    disp = 1.0 / depth
    disp = disp / disp.mean()
    dx = np.abs(disp[:, 1:] - disp[:, :-1])
    dy = np.abs(disp[1:, :] - disp[:-1, :])
    ix = np.abs(img[:, 1:] - img[:, :-1]).mean(axis=2)
    iy = np.abs(img[1:, :] - img[:-1, :]).mean(axis=2)
    x_terms, y_terms = dx * np.exp(-ix), dy * np.exp(-iy)
    return float((x_terms.mean() if x_terms.size else 0.0) + (y_terms.mean() if y_terms.size else 0.0))


class TestTotalLoss:
    def test_all_zero_composition(self, rng):
        img = rng.random((5, 5, 3))
        depth = np.full((5, 5), 2.0)
        ones = np.ones((5, 5), dtype=bool)
        report = total_loss(img, [(img.copy(), ones)], depth, depth, depth)
        assert report.total == 0.0
        assert report.lp == 0.0 and report.lc == 0.0 and report.ls == 0.0
        assert report.mask_fraction == 0.0

    def test_json_dict_holds_the_scalar_terms_in_order(self, rng):
        img = rng.random((5, 5, 3))
        depth = np.full((5, 5), 2.0)
        ones = np.ones((5, 5), dtype=bool)
        report = total_loss(img, [(img.copy(), ones)], depth, depth, depth)
        assert list(report.to_json_dict()) == ["lp", "lc", "ls", "total", "mask_fraction"]

    def test_full_mask_suppresses_reprojection(self, rng):
        img = rng.random((5, 5, 3))
        garbage = rng.random((5, 5, 3))
        ones = np.ones((5, 5), dtype=bool)
        d_t = np.full((5, 5), 2.0)
        d_hat = np.full((5, 5), 2.0)
        d_cv = np.full((5, 5), 5.0)  # 2.5x teacher: masked everywhere
        report = total_loss(img, [(garbage, ones)], d_t, d_hat, d_cv)
        assert report.mask_fraction == 1.0
        assert report.lp > 0
        assert report.total == report.lc + SMOOTHNESS_WEIGHT * report.ls

    def test_report_invariant(self, rng):
        img = rng.random((6, 6, 3))
        src = rng.random((6, 6, 3))
        ones = np.ones((6, 6), dtype=bool)
        d_t = rng.random((6, 6)) + 1
        d_hat = rng.random((6, 6)) + 1
        d_cv = rng.random((6, 6)) + 1
        report = total_loss(img, [(src, ones)], d_t, d_hat, d_cv)
        mask = consistency_mask(d_cv, d_hat)
        expected = ((1 - mask) * report.per_pixel_lp).mean() + report.lc + 1e-3 * report.ls
        assert report.total == pytest.approx(expected, abs=1e-12)
        assert report.mask_fraction == pytest.approx(mask.mean())

    def test_golden_report(self):
        r = np.random.default_rng(1)
        target, src = r.random((6, 8, 3)), r.random((6, 8, 3))
        valid = r.random((6, 8)) > 0.2
        d_t, d_hat, d_cv = (r.uniform(1, 4, (6, 8)) for _ in range(3))
        report = total_loss(target, [(src, valid), (target[::-1], ~valid)], d_t, d_hat, d_cv)
        assert report.to_json_dict() == {
            "lp": 0.4693076319787084,
            "lc": 0.2428523644644585,
            "ls": 0.6151323099418692,
            "total": 0.6149965947244462,
            "mask_fraction": 0.20833333333333334,
        }

    def test_deferred_cost_volume_depth(self, monkeypatch):
        # `loss` passes the cost-volume depth as a callable that joins the sweep: it is
        # asked for only after the photometric terms, and the report is the array's
        r = np.random.default_rng(1)
        target, src = r.random((6, 8, 3)), r.random((6, 8, 3))
        valid = r.random((6, 8)) > 0.2
        d_t, d_hat, d_cv = (r.uniform(1, 4, (6, 8)) for _ in range(3))
        synthesized = [(src, valid), (target[::-1], ~valid)]
        want = total_loss(target, synthesized, d_t, d_hat, d_cv)
        calls = []
        scored = losses.photometric_error
        monkeypatch.setattr(losses, "photometric_error",
                            lambda *args: calls.append("photometric_error") or scored(*args))

        def deferred():
            calls.append("d_cv")
            return d_cv

        got = total_loss(target, synthesized, d_t, d_hat, deferred)
        assert calls == ["photometric_error", "photometric_error", "d_cv"]
        assert got.to_json_dict() == want.to_json_dict()
        assert got.per_pixel_lp.tobytes() == want.per_pixel_lp.tobytes()

        # the smoothness term may come deferred too, and is asked for after the depth
        calls.clear()
        got = total_loss(target, synthesized, d_t, d_hat, deferred,
                         lambda: calls.append("ls") or smoothness_loss(d_t, target))
        assert calls == ["photometric_error", "photometric_error", "d_cv", "ls"]
        assert got.to_json_dict() == want.to_json_dict()


# The photometric error is computed in row bands of up to 16384 pixels
# (geometry._TILE_PIXELS), B = 8 rows at this width. The heights are 1, 2,
# B - 1, B, B + 1 and 2B + 1 rows: one short band, one exact band, a band
# and one row, and an interior band with halo rows on both sides.
BAND_WIDTH = 2048
BAND_HEIGHTS = (1, 2, 7, 8, 9, 17)

# sha256 over the shapes and float64 bytes of each function's outputs at
# BAND_HEIGHTS, recorded with the whole-image window mean.
GOLDEN_BAND_SHA256 = {
    ("ssim", 1): "474d7b1600811e0e72dda86cad1491782addf9f8090b78f3327822d848a3cb86",
    ("ssim", 3): "fd7a5443cc8478d7f43a67764b11b6031cac823ff4d307558e38d143367bfad0",
    ("photometric_error", 1): "905de51c669ab24dcf33865b20c5e15eb04288350d1b6e013dffa3373cfe0274",
    ("photometric_error", 3): "92c2d0e201c10154be01b74c18d02d39e59b4907164d6a2820dd13546f95ffb1",
    ("min_reprojection_loss", 1): "58730fa55f6d00c851146c77065c92a583a600f6351610d5c1159dfee455c21c",
    ("min_reprojection_loss", 3): "d9c7015115dc1e362b9b2ea0f9f63428b54c3da459c580a364fd4a532bdaaee2",
}


def band_outputs(name, channels, height):
    """The outputs of one loss function on seeded noise of ``height`` rows."""
    r = np.random.default_rng([channels, height])
    shape = (height, BAND_WIDTH) if channels == 1 else (height, BAND_WIDTH, channels)
    target, first, second = (r.random(shape) for _ in range(3))
    if name == "ssim":
        return (ssim(first, target),)
    if name == "photometric_error":
        return (photometric_error(first, target),)
    covers = [r.random((height, BAND_WIDTH)) > 0.3 for _ in range(2)]
    scalar, per_pixel = min_reprojection_loss(target, list(zip((first, second), covers)))
    return np.float64(scalar), per_pixel


class TestBandGolden:
    @pytest.mark.parametrize("name, channels", sorted(GOLDEN_BAND_SHA256))
    def test_outputs_pinned(self, name, channels):
        digest = hashlib.sha256()
        for height in BAND_HEIGHTS:
            for out in band_outputs(name, channels, height):
                digest.update(repr(out.shape).encode())
                digest.update(out.tobytes())
        assert digest.hexdigest() == GOLDEN_BAND_SHA256[name, channels]


NUM_ORACLE_FIXTURES = 50


class TestOracleEquivalence:
    """Every loss scalar against its double-loop reference on random 8x8 inputs."""

    def test_all_terms_match_references(self):
        root = np.random.default_rng(20240811)
        for trial in range(NUM_ORACLE_FIXTURES):
            r = np.random.default_rng(root.integers(2**63))
            a = r.random((8, 8, 3))
            b = r.random((8, 8, 3))
            assert np.allclose(ssim(a, b), ssim_ref(a, b), atol=1e-6)
            assert np.allclose(photometric_error(a, b), photometric_error_ref(a, b), atol=1e-6)

            valid1 = r.random((8, 8)) > 0.2
            valid2 = r.random((8, 8)) > 0.2
            srcs = [(b, valid1), (r.random((8, 8, 3)), valid2)]
            scalar, per_pixel = min_reprojection_loss(a, srcs)
            ref_scalar, ref_map = min_reprojection_ref(a, srcs)
            assert scalar == pytest.approx(ref_scalar, abs=1e-6)
            assert np.allclose(per_pixel, ref_map, atol=1e-6)

            d_t = r.uniform(0.5, 9.0, (8, 8))
            d_hat = r.uniform(0.5, 9.0, (8, 8))
            mask = consistency_mask(d_t, d_hat)
            assert consistency_loss(d_t, d_hat, mask) == pytest.approx(
                consistency_loss_ref(d_t, d_hat, mask), abs=1e-6
            )
            assert smoothness_loss(d_t, a) == pytest.approx(smoothness_ref(d_t, a), abs=1e-6)
