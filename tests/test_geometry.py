"""Camera model, warping grids, and bilinear sampling."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepdepth.errors import InvalidParameter, NonPositiveDepth, ShapeMismatch
from sweepdepth.geometry import (
    Intrinsics,
    PixelGrid,
    Pose,
    backproject,
    bilinear_sample,
    plane_warp_grid,
    project,
    reproject_grid,
)

K = Intrinsics(fx=200.0, fy=200.0, cx=96.0, cy=48.0, width=200, height=100)


def rotation_about(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    kx, ky, kz = axis
    Kx = np.array([[0, -kz, ky], [kz, 0, -kx], [-ky, kx, 0]])
    return np.eye(3) + np.sin(angle) * Kx + (1 - np.cos(angle)) * Kx @ Kx


class TestBackproject:
    def test_principal_point_on_optical_axis(self):
        assert np.allclose(backproject(K.cx, K.cy, 5.0, K), [0.0, 0.0, 5.0])

    def test_unit_focal_offset_at_unit_depth(self):
        assert np.allclose(backproject(K.cx + K.fx, K.cy, 1.0, K), [1.0, 0.0, 1.0])

    def test_hand_computed_point(self):
        # (100-96)*2/200 = 0.04, (50-48)*2/200 = 0.02
        assert np.allclose(backproject(100.0, 50.0, 2.0, K), [0.04, 0.02, 2.0])

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(NonPositiveDepth):
            backproject(10.0, 10.0, 0.0, K)
        with pytest.raises(NonPositiveDepth):
            backproject(10.0, 10.0, -1.0, K)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_depth(self, bad):
        with pytest.raises(NonPositiveDepth):
            backproject(10.0, 10.0, bad, K)

    @pytest.mark.parametrize("z", [np.nan, np.inf])
    def test_project_rejects_non_finite_depth(self, z):
        with pytest.raises(NonPositiveDepth):
            project(np.array([0.0, 0.0, z]), K)

    @given(
        u=st.floats(0, 199),
        v=st.floats(0, 99),
        d=st.floats(0.01, 1000),
    )
    def test_project_round_trip(self, u, v, d):
        uu, vv = project(backproject(u, v, d, K), K)
        assert abs(uu - u) < 1e-9
        assert abs(vv - v) < 1e-9


class TestIntrinsics:
    @pytest.mark.parametrize("name", ["fx", "fy"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_focal_length(self, name, bad):
        with pytest.raises(InvalidParameter):
            dataclasses.replace(K, **{name: bad})

    @pytest.mark.parametrize("cx, cy", [(-1.0, 48.0), (200.0, 48.0), (96.0, 100.0)])
    def test_rejects_principal_point_outside_image(self, cx, cy):
        with pytest.raises(InvalidParameter, match="principal point"):
            dataclasses.replace(K, cx=cx, cy=cy)


class TestPose:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_translation(self, bad):
        with pytest.raises(InvalidParameter):
            Pose(np.eye(3), np.array([bad, 0.0, 0.0]))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 2.0, np.zeros(3))
        with pytest.raises(InvalidParameter, match="3x3"):
            Pose(np.eye(2), np.zeros(3))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_orthonormal_within_the_tolerance(self, sign):
        # R = I + e E01 gives (R^T R)[0, 1] = e exactly and [1, 1] = 1 + e^2, which rounds to 1:
        # an error of exactly the 1e-9 tolerance passes, the next double above it fails
        def shear(e):
            R = np.eye(3)
            R[0, 1] = sign * e
            return R

        assert np.array_equal(Pose(shear(1e-9), np.zeros(3)).rotation, shear(1e-9))
        with pytest.raises(InvalidParameter, match="not orthonormal"):
            Pose(shear(np.nextafter(1e-9, 1.0)), np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_rejects_non_finite_rotation(self, bad):
        R = np.eye(3)
        R[2, 0] = bad  # 1e200 squares to inf in R^T R
        with pytest.raises(InvalidParameter, match="not orthonormal"):
            Pose(R, np.zeros(3))

    def test_rejects_reflection(self):
        R = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Pose(R, np.zeros(3))

    def test_inverse_compose_is_identity(self):
        R = rotation_about([0.2, 1.0, 0.5], 0.7)
        pose = Pose(R, np.array([1.0, -2.0, 3.0]))
        ident = pose.compose(pose.inverse())
        assert np.allclose(ident.rotation, np.eye(3), atol=1e-12)
        assert np.allclose(ident.translation, 0.0, atol=1e-12)


class TestReprojectGrid:
    def test_identity_warp(self):
        depth = np.full((K.height, K.width), 3.0)
        grid = reproject_grid(depth, Pose.identity(), K)
        uu, vv = np.meshgrid(np.arange(K.width, dtype=float), np.arange(K.height, dtype=float))
        assert np.allclose(grid.coords[..., 0], uu, atol=1e-9)
        assert np.allclose(grid.coords[..., 1], vv, atol=1e-9)
        assert grid.valid.all()

    def test_forward_step_scales_about_center(self):
        # Source camera 1 unit closer to a wall at depth 2: offsets from the
        # principal point double (similar triangles, 2/(2-1)).
        depth = np.full((K.height, K.width), 2.0)
        grid = reproject_grid(depth, Pose.from_translation(0, 0, -1.0), K)
        uu, vv = np.meshgrid(np.arange(K.width, dtype=float), np.arange(K.height, dtype=float))
        assert np.allclose(grid.coords[..., 0] - K.cx, 2.0 * (uu - K.cx), atol=1e-9)
        assert np.allclose(grid.coords[..., 1] - K.cy, 2.0 * (vv - K.cy), atol=1e-9)

    def test_behind_camera_is_invalid(self):
        depth = np.full((K.height, K.width), 1.0)
        grid = reproject_grid(depth, Pose.from_translation(0, 0, -2.0), K)
        assert not grid.valid.any()

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatch):
            reproject_grid(np.ones((4, 4)), Pose.identity(), K)

    def test_nonpositive_depth_rejected(self):
        depth = np.full((K.height, K.width), 1.0)
        depth[3, 3] = 0.0
        with pytest.raises(NonPositiveDepth):
            reproject_grid(depth, Pose.identity(), K)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_depth_rejected(self, bad):
        depth = np.full((K.height, K.width), 1.0)
        depth[3, 3] = bad
        with pytest.raises(NonPositiveDepth):
            reproject_grid(depth, Pose.identity(), K)

    def test_composition_matches_chained_warp(self):
        # Warping with T2 o T1 must equal backprojecting, applying T1, then
        # treating the intermediate point as the input to the T2 leg.
        small = Intrinsics(fx=50.0, fy=55.0, cx=15.5, cy=11.5, width=32, height=24)
        T1 = Pose(rotation_about([0, 1, 0], 0.05), np.array([0.1, 0.0, -0.2]))
        T2 = Pose(rotation_about([1, 0, 0], -0.04), np.array([0.0, 0.05, 0.1]))
        depth = np.full((small.height, small.width), 4.0)
        direct = reproject_grid(depth, T2.compose(T1), small)

        for (u, v) in [(0, 0), (13, 7), (31, 23), (16, 5)]:
            p1 = T1.apply(backproject(u, v, 4.0, small))
            p2 = T2.apply(p1)
            uu, vv = project(p2, small)
            assert abs(direct.coords[v, u, 0] - uu) < 1e-6
            assert abs(direct.coords[v, u, 1] - vv) < 1e-6


class TestPlaneWarpGrid:
    def test_identity_grid(self):
        grid = plane_warp_grid(2.5, Pose.identity(), K)
        uu, vv = np.meshgrid(np.arange(K.width, dtype=float), np.arange(K.height, dtype=float))
        assert np.allclose(grid.coords[..., 0], uu, atol=1e-9)
        assert grid.valid.all()

    def test_matches_per_pixel_reprojection(self):
        R = rotation_about([0.3, 0.8, 0.1], 0.08)
        T = Pose(R, np.array([0.2, -0.1, 0.15]))
        for d in (0.5, 2.0, 7.3):
            homog = plane_warp_grid(d, T, K)
            perpix = reproject_grid(np.full((K.height, K.width), d), T, K)
            assert np.allclose(homog.coords, perpix.coords, atol=1e-6)
            assert (homog.valid == perpix.valid).all()

    @pytest.mark.parametrize("d", [0.5, 2.0, 7.3])
    @pytest.mark.parametrize("pose", [
        Pose(rotation_about([0.3, 0.8, 0.1], 0.08), np.zeros(3)),
        Pose.from_translation(0.2, -0.1, 0.15),
        Pose(rotation_about([1.0, -0.2, 0.4], -0.05), np.array([-0.3, 0.05, -0.2])),
    ], ids=["rotated", "translated", "rotated_and_translated"])
    def test_reprojecting_constant_depth_is_bit_identical(self, pose, d):
        # One homography serves both: a constant depth map reprojects to the
        # plane's grid exactly, not just within rounding.
        homog = plane_warp_grid(d, pose, K)
        perpix = reproject_grid(np.full((K.height, K.width), d), pose, K)
        assert np.array_equal(homog.coords, perpix.coords)
        assert np.array_equal(homog.valid, perpix.valid)

    def test_lateral_shift_is_stereo_disparity(self):
        tx, d = 0.3, 2.0
        grid = plane_warp_grid(d, Pose.from_translation(tx, 0, 0), K)
        uu = np.meshgrid(np.arange(K.width, dtype=float), np.arange(K.height, dtype=float))[0]
        assert np.allclose(grid.coords[..., 0] - uu, K.fx * tx / d, atol=1e-9)

    def test_rejects_nonpositive_plane(self):
        with pytest.raises(NonPositiveDepth):
            plane_warp_grid(0.0, Pose.identity(), K)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_plane(self, bad):
        with pytest.raises(NonPositiveDepth):
            plane_warp_grid(bad, Pose.identity(), K)


def full_grid(h, w, coords):
    return PixelGrid(coords=coords, valid=np.ones((h, w), dtype=bool))


class TestBilinearSample:
    def test_integer_coords_pick_source_pixels(self, rng):
        img = rng.random((6, 8, 3))
        uu, vv = np.meshgrid(np.arange(8, dtype=float), np.arange(6, dtype=float))
        out, valid = bilinear_sample(img, full_grid(6, 8, np.stack([uu, vv], axis=-1)))
        assert np.array_equal(out, img)
        assert valid.all()

    def test_half_pixel_on_ramp_is_midpoint(self):
        img = np.tile(np.arange(8, dtype=float), (4, 1))
        coords = np.zeros((1, 1, 2))
        coords[0, 0] = (2.5, 1.0)
        out, valid = bilinear_sample(img, full_grid(1, 1, coords))
        assert valid[0, 0]
        assert abs(out[0, 0] - 2.5) < 1e-12

    def test_out_of_bounds_is_zero_and_invalid(self):
        img = np.ones((4, 4))
        coords = np.full((4, 4, 2), 99.0)
        out, valid = bilinear_sample(img, full_grid(4, 4, coords))
        assert not valid.any()
        assert (out == 0).all()

    def test_invalid_grid_pixels_masked(self):
        img = np.ones((4, 4))
        coords = np.zeros((2, 2, 2)) + 1.0
        valid_in = np.array([[True, False], [False, True]])
        out, valid = bilinear_sample(img, PixelGrid(coords=coords, valid=valid_in))
        assert (valid == valid_in).all()
        assert out[0, 1] == 0.0 and out[1, 1] == 1.0
        with pytest.raises(ShapeMismatch):  # coords for 3x2 pixels, a valid mask for 2x2
            bilinear_sample(img, PixelGrid(coords=np.ones((3, 2, 2)), valid=valid_in))

    def test_nan_coords_at_invalid_entries_sample_zero(self):
        img = np.ones((4, 4, 2))
        coords = np.full((2, 2, 2), 1.5)
        coords[0, 1] = (np.nan, 1.0)
        coords[1, 0] = (2.0, np.nan)
        valid_in = np.array([[True, False], [True, True]])  # NaN at an entry flagged valid too
        out, valid = bilinear_sample(img, PixelGrid(coords=coords, valid=valid_in))
        assert (valid == np.array([[True, False], [False, True]])).all()
        assert (out[~valid] == 0.0).all() and (out[valid] == 1.0).all()

    def test_memory_stays_in_tiles(self, rng):
        # numpy reports its buffers to tracemalloc. At 640x192x3 the output and the
        # channel-major copy of the image are 2.9 MB each; whole-grid work arrays
        # held about 21 MB more.
        img = rng.random((192, 640, 3))
        coords = np.stack([rng.uniform(-1, 640, (192, 640)), rng.uniform(-1, 192, (192, 640))], axis=-1)
        grid = full_grid(192, 640, coords)
        tracemalloc.start()
        try:
            bilinear_sample(img, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    @given(
        a=st.floats(-2, 2),
        b=st.floats(-2, 2),
        c=st.floats(-2, 2),
        u=st.floats(0, 7),
        v=st.floats(0, 5),
    )
    @settings(max_examples=60)
    def test_exact_on_affine_images(self, a, b, c, u, v):
        uu, vv = np.meshgrid(np.arange(8, dtype=float), np.arange(6, dtype=float))
        img = a * uu + b * vv + c
        coords = np.zeros((1, 1, 2))
        coords[0, 0] = (u, v)
        out, valid = bilinear_sample(img, full_grid(1, 1, coords))
        assert valid[0, 0]
        assert abs(out[0, 0] - (a * u + b * v + c)) < 1e-9


# bilinear_sample samples in tiles of 16384 pixels (geometry._TILE_PIXELS):
# grids of one pixel fewer, exactly one tile and one pixel more.
TILE_GRIDS = ((127, 129), (128, 128), (5, 3277))

# sha256 over the shapes and bytes of (sampled, valid) for a 9x13 image of
# 1 and of 3 channels, recorded with the whole-grid sampler.
GOLDEN_TILE_SHA256 = {
    (127, 129): "2f5ad512ee2823a8292d655e7efdad78548ddddd0aad749662bb92e33218b13f",
    (128, 128): "ddbe30e570069f9604f148ea3984d1b0b502f61f309d3ddff1c8f8706c9b3cba",
    (5, 3277): "4e9b49eb7a9ebbe3ca78f223867fab7baaf309732133aea2583fc34faf930d05",
}


def tile_case(gh, gw):
    """A 9x13x3 image and a grid of coordinates inside it, outside it and on its edges.

    A sixth of the entries are drawn in [-2, 14] x [-2, 10], a sixth are whole
    pixels, and one sixth each lie exactly on the left, right, top and bottom
    edge. One in ten entries is flagged invalid, and a third of those hold NaN.
    """
    h, w = 9, 13
    r = np.random.default_rng([gh, gw])
    img = r.random((h, w, 3))
    n = gh * gw
    u, v = r.uniform(-2, w + 1, n), r.uniform(-2, h + 1, n)
    kind = r.integers(0, 6, n)
    whole = kind == 1
    u[whole], v[whole] = r.integers(0, w, whole.sum()), r.integers(0, h, whole.sum())
    for k, axis, edge in ((2, u, 0.0), (3, u, w - 1.0), (4, v, 0.0), (5, v, h - 1.0)):
        axis[kind == k] = edge
    valid = r.random(n) > 0.1
    u[~valid & (r.random(n) < 1 / 3)] = np.nan
    coords = np.stack([u, v], axis=-1).reshape(gh, gw, 2)
    return img, PixelGrid(coords=coords, valid=valid.reshape(gh, gw))


class TestBilinearTileGolden:
    @pytest.mark.parametrize("shape", TILE_GRIDS)
    def test_outputs_pinned(self, shape):
        img, grid = tile_case(*shape)
        digest = hashlib.sha256()
        for image in (img[..., 0], img):
            for out in bilinear_sample(image, grid):
                digest.update(repr(out.shape).encode())
                digest.update(out.tobytes())
        assert digest.hexdigest() == GOLDEN_TILE_SHA256[shape]
