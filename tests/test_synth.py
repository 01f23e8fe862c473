"""Renderer correctness: analytic depths, correspondence, self-consistency."""

import json

import numpy as np
import pytest

from sweepdepth.errors import DegenerateRay, InvalidParameter
from sweepdepth.geometry import Intrinsics, Pose, bilinear_sample, reproject_grid
from sweepdepth.losses import photometric_error
from sweepdepth.synth import (
    Mover,
    PlaneElement,
    Scene,
    Texture,
    load_scene_setup,
    make_sequence,
    mover_mask,
    mover_rect,
    preset_scene,
    relative_pose,
    render,
)

K = Intrinsics(fx=64.0, fy=64.0, cx=31.5, cy=23.5, width=64, height=48)


def wall_scene(depth=5.0, mover=None):
    return Scene(
        planes=(
            PlaneElement(
                normal=(0, 0, 1.0),
                offset=depth,
                texture=Texture(kind="grating", period_x=1.3, period_y=1.7),
            ),
        ),
        mover=mover,
    )


def erode3(mask):
    p = np.pad(mask, 1, mode="edge")
    out = np.ones_like(mask)
    for dy in range(3):
        for dx in range(3):
            out &= p[dy : dy + mask.shape[0], dx : dx + mask.shape[1]]
    return out


class TestRender:
    def test_fronto_parallel_constant_depth(self):
        frame = render(wall_scene(5.0), Pose.identity(), K)
        assert np.allclose(frame.depth_gt, 5.0, atol=1e-12)

    def test_mover_occludes_wall(self):
        mover = Mover(
            center=(0.0, 0.0, 2.0),
            half_size=(0.4, 0.3),
            velocity=(0.0, 0.0, 0.0),
            texture=Texture(kind="grating", period_x=0.3, period_y=0.3),
        )
        frame = render(wall_scene(5.0, mover), Pose.identity(), K)
        box = mover_mask(wall_scene(5.0, mover), Pose.identity(), K, 0)
        assert box.any()
        assert np.allclose(frame.depth_gt[box], 2.0)
        assert np.allclose(frame.depth_gt[~box], 5.0)

    def test_integer_disparity_correspondence(self):
        # fx * tx / d = 64 * 0.5 / 4 = 8 px exactly: the two renderings are
        # shifted copies of each other on the overlap.
        scene = wall_scene(4.0)
        a = render(scene, Pose.identity(), K)
        b = render(scene, Pose.from_translation(0.5, 0, 0), K)
        # camera moved +x by 0.5: the same surface point appears 8 px to the left
        assert np.allclose(b.image[:, :-8], a.image[:, 8:], atol=1e-6)

    def test_deterministic_bit_identical(self):
        scene = Scene(
            planes=(
                PlaneElement(
                    normal=(0, 0.3, 1.0), offset=4.0, texture=Texture(kind="noise", cell=0.7)
                ),
                PlaneElement(normal=(0, 0, 1.0), offset=9.0, texture=Texture(kind="checker", cell=1.1)),
            ),
            seed=11,
        )
        a = render(scene, Pose.from_translation(0.1, 0, 0), K, t=1)
        b = render(scene, Pose.from_translation(0.1, 0, 0), K, t=1)
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.depth_gt, b.depth_gt)

    def test_degenerate_ray(self):
        # a wall behind the camera leaves every ray unmatched
        with pytest.raises(DegenerateRay):
            render(wall_scene(-1.0), Pose.identity(), K)


class TestMakeSequence:
    def test_static_world_static_camera_identical_frames(self):
        frames = make_sequence(wall_scene(5.0), [Pose.identity()] * 3, K)
        assert np.array_equal(frames[0].image, frames[1].image)
        assert np.array_equal(frames[1].image, frames[2].image)

    def test_moving_box_changes_only_box_union(self):
        mover = Mover(
            center=(0.0, 0.0, 2.0),
            half_size=(0.4, 0.3),
            velocity=(0.1, 0.0, 0.0),
            texture=Texture(kind="grating", period_x=0.3, period_y=0.3),
        )
        scene = wall_scene(5.0, mover)
        frames = make_sequence(scene, [Pose.identity()] * 2, K)
        union = mover_mask(scene, Pose.identity(), K, 0) | mover_mask(
            scene, Pose.identity(), K, 1
        )
        diff = np.any(frames[0].image != frames[1].image, axis=2)
        assert diff.any()
        assert not (diff & ~union).any()

    def test_requires_two_poses(self):
        with pytest.raises(ValueError):
            make_sequence(wall_scene(5.0), [Pose.identity()], K)


class TestSelfConsistency:
    def test_gt_warp_reproduces_target(self, rendered_presets):
        setup, frames = rendered_presets["static_lateral"]
        T = relative_pose(frames[1].pose, frames[2].pose)
        grid = reproject_grid(frames[1].depth_gt, T, setup.K)
        warped, valid = bilinear_sample(frames[2].image, grid)
        pe = photometric_error(warped, frames[1].image)
        ok = erode3(valid)
        assert pe[ok].mean() < 1e-3

    def test_mover_violates_consistency(self, rendered_presets):
        setup, frames = rendered_presets["moving_box"]
        scene = setup.scene
        T = relative_pose(frames[1].pose, frames[2].pose)
        grid = reproject_grid(frames[1].depth_gt, T, setup.K)
        warped, valid = bilinear_sample(frames[2].image, grid)
        pe = photometric_error(warped, frames[1].image)
        box_t = mover_mask(scene, frames[1].pose, setup.K, 1)
        box_s = mover_mask(scene, frames[2].pose, setup.K, 2)
        static = erode3(valid & ~box_t & ~box_s)
        assert pe[box_t & valid].mean() > 10 * pe[static].mean()


class TestMoverHelpers:
    def test_rect_matches_mask_bounds(self, rendered_presets):
        setup, frames = rendered_presets["moving_box"]
        rect = mover_rect(setup.scene, frames[1].pose, setup.K, 1)
        mask = mover_mask(setup.scene, frames[1].pose, setup.K, 1)
        vs, us = np.nonzero(mask)
        # integer pixels inside the projected rectangle
        assert us.min() == int(np.ceil(rect[0])) and us.max() == int(np.floor(rect[2]))
        assert vs.min() == int(np.ceil(rect[1])) and vs.max() == int(np.floor(rect[3]))

    def test_footprint_inside_image_at_all_times(self, rendered_presets):
        setup, frames = rendered_presets["moving_box"]
        for frame in frames:
            rect = mover_rect(setup.scene, frame.pose, setup.K, frame.time)
            assert 0 <= rect[0] < rect[2] <= setup.K.width - 1
            assert 0 <= rect[1] < rect[3] <= setup.K.height - 1


    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("angle", [-0.15, 0.15])
    def test_rect_bounds_mask_on_rotated_pose(self, axis, angle):
        # tilt (x), yaw (y) and roll (z) leave the box edges off the pixel axes.
        # The rect holds every mask pixel; where an edge is slanted, the pixel
        # row or column nearest a corner can miss the box, so the mask may stop
        # slightly more than 1 px short of the rect (at most 1.07 px over
        # +-0.2 rad on this scene).
        setup = preset_scene("moving_box")
        angles = [0.0, 0.0, 0.0]
        angles[axis] = angle
        pose = Pose(_rotation(*angles), np.array([0.05, 0.0, 0.0]))
        u0, v0, u1, v1 = mover_rect(setup.scene, pose, setup.K, 1)
        vs, us = np.nonzero(mover_mask(setup.scene, pose, setup.K, 1))
        assert 0 <= u0 and u1 <= setup.K.width - 1 and 0 <= v0 and v1 <= setup.K.height - 1
        assert u0 <= us.min() <= u0 + 1.5 and u1 - 1.5 <= us.max() <= u1
        assert v0 <= vs.min() <= v0 + 1.5 and v1 - 1.5 <= vs.max() <= v1

    def test_rect_of_box_behind_camera_is_none(self):
        mover = Mover(
            center=(0.0, 0.0, -2.0),
            half_size=(0.4, 0.3),
            velocity=(0.0, 0.0, 0.0),
            texture=Texture(kind="grating"),
        )
        scene = wall_scene(5.0, mover)
        assert mover_rect(scene, Pose.identity(), K, 0) is None
        assert not mover_mask(scene, Pose.identity(), K, 0).any()

    def test_rect_of_overflowing_corners_raises(self):
        # every number is finite, but the box's right edge, 1e308 + 1e308, is not
        mover = Mover(center=(1e308, 0.0, 3.0), half_size=(1e308, 0.3),
                      velocity=(0.0, 0.0, 0.0), texture=Texture(kind="grating"))
        with pytest.raises(InvalidParameter, match="frame 0: the mover's corners are not finite"):
            mover_rect(wall_scene(5.0, mover), Pose.identity(), K, 0)


def _rotation(rx, ry, rz):
    cx, sx, cy, sy, cz, sz = np.cos(rx), np.sin(rx), np.cos(ry), np.sin(ry), np.cos(rz), np.sin(rz)
    Rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    Ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    Rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return Rz @ Ry @ Rx


class TestPresetsAndJson:
    def test_all_presets_render(self):
        for name in ("static_lateral", "static_forward", "moving_box", "static_camera", "textureless_band"):
            setup = preset_scene(name)
            frames = make_sequence(setup.scene, setup.poses, setup.K)
            assert len(frames) == 3
            for f in frames:
                assert np.isfinite(f.image).all()
                assert (f.image >= 0).all() and (f.image <= 1).all()
                assert (f.depth_gt > 0).all()

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_scene("kitchen_sink")

    def test_unknown_preset_is_typed(self):
        with pytest.raises(InvalidParameter, match="kitchen_sink"):
            preset_scene("kitchen_sink")

    def test_scene_json_round_trip(self, tmp_path):
        description = {
            "width": 32,
            "height": 24,
            "seed": 3,
            "target_index": 1,
            "planes": [
                {
                    "normal": [0, 0, 1],
                    "offset": 4.0,
                    "texture": {"kind": "noise", "cell": 0.5},
                    "albedo": [0.9, 0.8, 0.7],
                }
            ],
            "mover": {
                "center": [0, 0, 2.0],
                "half_size": [0.3, 0.2],
                "velocity": [0.05, 0, 0],
                "texture": {"kind": "grating", "period_x": 0.2, "period_y": 0.2},
            },
            "camera_motion": [[0, 0, 0], [0.1, 0, 0], [0.2, 0, 0]],
        }
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(description))
        setup = load_scene_setup(path)
        assert setup.K.width == 32 and setup.K.height == 24
        assert setup.scene.mover is not None
        frames = make_sequence(setup.scene, setup.poses, setup.K)
        assert frames[2].pose.translation[0] == 0.2


class TestSceneElementChecks:
    @pytest.mark.parametrize("field", ["period_x", "period_y", "cell"])
    @pytest.mark.parametrize("value", [0, -1.0, float("inf"), float("nan")])
    def test_texture_rejects_bad_period_or_cell(self, field, value):
        with pytest.raises(InvalidParameter, match=field):
            Texture(**{field: value})

    def test_texture_coerces_numbers_to_float(self):
        tex = Texture(kind="checker", cell=2)
        assert tex.cell == 2.0 and isinstance(tex.cell, float)
        with pytest.raises(InvalidParameter, match="texture amp_x must be a finite number"):
            Texture(kind="checker", amp_x="0.5")  # text is not a number

    @pytest.mark.parametrize("field, value", [
        ("normal", (0.0, 1.0)),
        ("normal", (0.0, 0.0, 1.0, 0.0)),
        ("normal", (0.0, float("nan"), 1.0)),
        ("albedo", (1.0, 1.0)),
        ("albedo", "xyz"),
        ("offset", None),
        ("offset", float("inf")),
    ])
    def test_plane_checks_vectors(self, field, value):
        desc = {"normal": (0, 0, 1), "offset": 4, "texture": Texture(), field: value}
        with pytest.raises(InvalidParameter, match=f"plane {field}"):
            PlaneElement(**desc)

    @pytest.mark.parametrize("field, value", [
        ("center", (0.0, 2.0)),
        ("half_size", (0.3,)),
        ("half_size", (0.3, 0.2, 0.1)),
        ("velocity", 0.05),
        ("albedo", (1.0, 1.0, 1.0, 1.0)),
    ])
    def test_mover_checks_vectors(self, field, value):
        desc = {"center": (0, 0, 2), "half_size": (0.3, 0.2), "velocity": (0.05, 0, 0),
                "texture": Texture(), field: value}
        with pytest.raises(InvalidParameter, match=f"mover {field}"):
            Mover(**desc)

    def test_unknown_scene_key_names_the_file(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({
            "planes": [{"normal": [0, 0, 1], "offset": 4.0}],
            "camera_motion": [[0, 0, 0], [0.1, 0, 0]],
            "seeds": 3,
        }))
        with pytest.raises(InvalidParameter, match=r"scene\.json.*seeds"):
            load_scene_setup(path)

    def test_elements_hold_float_tuples(self):
        plane = PlaneElement(normal=[0, 0, 1], offset=4, texture=Texture())
        assert plane.normal == (0.0, 0.0, 1.0) and plane.offset == 4.0
        assert all(isinstance(v, float) for v in (*plane.normal, plane.offset, *plane.albedo))
