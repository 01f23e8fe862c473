"""Loss terms against hand arithmetic and the scalar-loop references."""

import hashlib
import tracemalloc

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
from sweepdepth.errors import EmptySources, NonPositiveDepth, ShapeMismatch
from sweepdepth.losses import (
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
