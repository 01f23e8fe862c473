"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines
and the measured values.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import (
    consistency_loss_ref,
    cost_volume_ref,
    depth_metrics_ref,
    min_reprojection_ref,
    photometric_error_ref,
    smoothness_ref,
    ssim_ref,
)
from sweepdepth.augment import Augmentation, AugmentConfig, draw_augmentation
from sweepdepth.cli import main as cli_main
from sweepdepth.costvolume import (
    AdaptiveRangeState,
    adaptive_range_update,
    argmin_depth,
    build_cost_volume,
    linear_planes,
    upsample_nearest,
)
from sweepdepth.errors import SweepDepthError
from sweepdepth.features import FeatureMap, extract_features
from sweepdepth.geometry import Intrinsics, Pose, bilinear_sample, reproject_grid
from sweepdepth.io import (
    read_pfm,
    read_pgm,
    read_ppm,
    write_pfm,
    write_pgm,
    write_ppm,
)
from sweepdepth.losses import (
    consistency_loss,
    consistency_mask,
    min_reprojection_loss,
    photometric_error,
    smoothness_loss,
    ssim,
)
from sweepdepth.evaluation import depth_metrics, median_scale
from sweepdepth.synth import (
    make_sequence,
    mover_mask,
    preset_scene,
    relative_pose,
    texture_contrast_mask,
)


@contextmanager
def criterion(number, description):
    try:
        detail = {}
        yield detail
    except Exception:
        print(f"[criterion {number:02d}] FAIL {description}")
        raise
    extra = "  ".join(f"{k}={v}" for k, v in detail.items())
    print(f"[criterion {number:02d}] PASS {description}" + (f"  ({extra})" if extra else ""))


def _erode3(mask):
    p = np.pad(mask, 1, mode="edge")
    out = np.ones_like(mask)
    for dy in range(3):
        for dx in range(3):
            out &= p[dy : dy + mask.shape[0], dx : dx + mask.shape[1]]
    return out


def _argmin_pipeline(setup, frames, target, source_idxs, planes, scale=1):
    """features -> cost volume -> argmin -> image-resolution depth."""
    K_f = setup.K.scaled(scale)
    f_t = extract_features(frames[target].image, "gradient", scale)
    sources = [
        (
            extract_features(frames[i].image, "gradient", scale),
            relative_pose(frames[target].pose, frames[i].pose),
        )
        for i in source_idxs
    ]
    cv = build_cost_volume(f_t, sources, K_f, planes)
    depth_f, _ = argmin_depth(cv, planes)
    d_img = upsample_nearest(depth_f, scale, setup.K.height, setup.K.width)
    tex = texture_contrast_mask(f_t.data[:, :, 0])
    tex_img = upsample_nearest(tex.astype(float), scale, setup.K.height, setup.K.width) > 0.5
    return d_img, tex_img


def test_criterion_01_cost_volume_recovery():
    with criterion(1, "static_lateral argmin recovery within quantization floor") as detail:
        setup = preset_scene("static_lateral")
        frames = make_sequence(setup.scene, setup.poses, setup.K)
        planes = linear_planes(1.0, 10.0, 32)
        floor = planes.quantization_floor
        assert floor == pytest.approx(0.145, abs=5e-4)

        start = time.perf_counter()
        d_img, tex = _argmin_pipeline(setup, frames, 1, [0, 2], planes, scale=1)
        elapsed = time.perf_counter() - start

        gt = frames[1].depth_gt
        median_err = float(np.median(np.abs(d_img - gt)[tex]))
        scaled = median_scale(d_img, gt, tex)
        abs_rel = float((np.abs(scaled - gt) / gt)[tex].mean())

        detail.update(
            median_err=f"{median_err:.4f}", floor=f"{floor:.4f}",
            abs_rel=f"{abs_rel:.4f}", runtime=f"{elapsed:.2f}s",
        )
        assert median_err <= floor
        assert abs_rel <= 0.05
        assert elapsed < 2.0


def test_criterion_02_moving_object_failure_mode():
    with criterion(2, "moving_box corrupts argmin depth; mask flags the mover") as detail:
        setup = preset_scene("moving_box")
        frames = make_sequence(setup.scene, setup.poses, setup.K)
        planes = linear_planes(1.0, 10.0, 32)
        d_img, _ = _argmin_pipeline(setup, frames, 1, [0, 2], planes, scale=1)

        gt = frames[1].depth_gt
        box = mover_mask(setup.scene, frames[1].pose, setup.K, 1)
        rel = np.abs(d_img - gt) / gt
        med_box = float(np.median(rel[box]))
        med_static = float(np.median(rel[~box]))

        mask = consistency_mask(d_img, gt)
        iou = float((mask & box).sum() / (mask | box).sum())

        detail.update(
            mover_med=f"{med_box:.3f}", static_med=f"{med_static:.4f}", iou=f"{iou:.3f}"
        )
        assert med_box >= 3 * med_static
        assert iou >= 0.5


def test_criterion_03_mask_golden_boundary(rng):
    with criterion(3, "factor-2 ratio boundary of the consistency mask is exclusive"):
        d_hat = rng.uniform(0.5, 9.0, (16, 16))
        assert not consistency_mask(2.0 * d_hat, d_hat).any()
        assert consistency_mask(2.5 * d_hat, d_hat).all()
        assert not consistency_mask(d_hat.copy(), d_hat).any()


def test_criterion_04_ema_contraction():
    with criterion(4, "adaptive range EMA update matches hand arithmetic") as detail:
        state = AdaptiveRangeState(d_min=1.0, d_max=10.0, momentum=0.99)
        batch = [np.array([[2.0, 10.0]])]
        new = adaptive_range_update(state, batch)
        detail.update(d_min=f"{new.d_min:.12f}", d_max=f"{new.d_max:.12f}")
        assert abs(new.d_min - 1.01) < 1e-12
        assert abs(new.d_max - 10.0) < 1e-12


def test_criterion_05_augmentation_frequencies():
    with criterion(5, "seeded draw rates within 0.01 of p = q = 0.25") as detail:
        cfg = AugmentConfig(p=0.25, q=0.25, rng_seed=2024)
        n = 100_000
        counts = {kind: 0 for kind in Augmentation}
        for i in range(n):
            counts[draw_augmentation(cfg, i)] += 1
        zv = counts[Augmentation.ZERO_VOLUME] / n
        ss = counts[Augmentation.STATIC_SUBSTITUTE] / n
        detail.update(zero_volume=f"{zv:.4f}", static_substitute=f"{ss:.4f}")
        assert abs(zv - 0.25) < 0.01
        assert abs(ss - 0.25) < 0.01


def test_criterion_06_loss_oracle_equivalence():
    with criterion(6, "loss terms match scalar-loop references on 50 random 8x8 fixtures"):
        root = np.random.default_rng(611)
        for _ in range(50):
            r = np.random.default_rng(root.integers(2**63))
            a, b = r.random((8, 8, 3)), r.random((8, 8, 3))
            assert np.abs(ssim(a, b) - ssim_ref(a, b)).max() < 1e-6
            assert np.abs(photometric_error(a, b) - photometric_error_ref(a, b)).max() < 1e-6

            valid = r.random((8, 8)) > 0.25
            srcs = [(b, valid), (r.random((8, 8, 3)), ~valid | valid[::-1])]
            lp, _ = min_reprojection_loss(a, srcs)
            lp_ref, _ = min_reprojection_ref(a, srcs)
            assert abs(lp - lp_ref) < 1e-6

            d_t = r.uniform(0.5, 9.0, (8, 8))
            d_hat = r.uniform(0.5, 9.0, (8, 8))
            mask = consistency_mask(d_t, d_hat)
            assert abs(consistency_loss(d_t, d_hat, mask) - consistency_loss_ref(d_t, d_hat, mask)) < 1e-6
            assert abs(smoothness_loss(d_t, a) - smoothness_ref(d_t, a)) < 1e-6


def test_criterion_07_metrics_oracle_and_scale_invariance():
    with criterion(7, "depth metrics match brute force; median scaling removes any k"):
        root = np.random.default_rng(77)
        for _ in range(50):
            r = np.random.default_rng(root.integers(2**63))
            gt = r.uniform(0.5, 100.0, (8, 8))
            pred = gt * r.uniform(0.3, 3.0, (8, 8))
            m = depth_metrics(pred, gt)
            ref = depth_metrics_ref(pred, gt)
            for key, val in ref.items():
                assert abs(getattr(m, key) - val) < 1e-9, key

        gt = np.random.default_rng(7).uniform(1.0, 70.0, (8, 8))
        valid = (gt > 0) & (gt < 80.0)
        for k in (0.1, 1.0, 7.0):
            m = depth_metrics(median_scale(k * gt, gt, valid), gt)
            assert m.abs_rel < 1e-9 and m.rmse < 1e-9
            assert (m.delta1, m.delta2, m.delta3) == (1.0, 1.0, 1.0)


def test_criterion_08_renderer_self_consistency():
    with criterion(8, "ground-truth warp of t+1 reproduces frame t") as detail:
        setup = preset_scene("static_lateral")
        frames = make_sequence(setup.scene, setup.poses, setup.K)
        T = relative_pose(frames[1].pose, frames[2].pose)
        grid = reproject_grid(frames[1].depth_gt, T, setup.K)
        warped, valid = bilinear_sample(frames[2].image, grid)
        pe = photometric_error(warped, frames[1].image)
        mean_pe = float(pe[_erode3(valid)].mean())
        detail.update(mean_pe=f"{mean_pe:.2e}")
        assert mean_pe < 1e-3


def test_criterion_09_degenerate_camera(tmp_path, capsys):
    with criterion(9, "static_camera completes; --zero-cv yields the tie-rule map"):
        root = tmp_path / "static"
        assert cli_main(["synth", "--scene", "static_camera", "--out", str(root)]) == 0
        out = tmp_path / "d.pfm"
        code = cli_main([
            "depth", "--data", str(root), "--out", str(out),
            "--d-min", "1", "--d-max", "10", "--planes", "32",
        ])
        assert code == 0
        assert np.isfinite(read_pfm(out)).all()

        zv = tmp_path / "zv.pfm"
        code = cli_main([
            "depth", "--data", str(root), "--out", str(zv),
            "--d-min", "1", "--d-max", "10", "--planes", "32", "--zero-cv",
        ])
        assert code == 0
        assert (read_pfm(zv) == 1.0).all()
        capsys.readouterr()  # swallow the subcommand JSON lines


def test_criterion_10_codec_round_trips(tmp_path):
    with criterion(10, "PFM/PPM/PGM round trips bit-identical; fuzzing yields typed errors"):
        root = np.random.default_rng(1010)
        for i in range(100):
            r = np.random.default_rng(root.integers(2**63))
            h, w = int(r.integers(1, 12)), int(r.integers(1, 12))
            kind = i % 4
            if kind == 0:
                data = r.standard_normal((h, w)).astype(np.float32).astype(np.float64)
                path = tmp_path / "x.pfm"
                write_pfm(path, data)
                assert np.array_equal(read_pfm(path), data)
            elif kind == 1:
                data = r.standard_normal((h, w, 3)).astype(np.float32).astype(np.float64)
                path = tmp_path / "x.pfm"
                write_pfm(path, data)
                assert np.array_equal(read_pfm(path), data)
            elif kind == 2:
                img = r.integers(0, 256, (h, w, 3)).astype(np.float64) / 255.0
                path = tmp_path / "x.ppm"
                write_ppm(path, img)
                assert np.array_equal(read_ppm(path), img)
            else:
                img = r.integers(0, 256, (h, w)).astype(np.float64) / 255.0
                path = tmp_path / "x.pgm"
                write_pgm(path, img)
                assert np.array_equal(read_pgm(path), img)

        readers = {".pfm": read_pfm, ".ppm": read_ppm, ".pgm": read_pgm}
        seeds = {".pfm": b"Pf\n4 3\n-1.0\n" + bytes(48), ".ppm": b"P6\n4 3\n255\n" + bytes(36),
                 ".pgm": b"P5\n4 3\n255\n" + bytes(12)}
        fuzz = np.random.default_rng(4242)
        for ext, reader in readers.items():
            for _ in range(100):
                buf = bytearray(seeds[ext])
                op = fuzz.integers(0, 3)
                if op == 0:
                    for _ in range(int(fuzz.integers(1, 5))):
                        buf[int(fuzz.integers(0, 10))] = int(fuzz.integers(0, 256))
                elif op == 1:
                    buf = buf[: int(fuzz.integers(0, len(buf)))]
                else:
                    buf = bytearray(fuzz.integers(0, 256, int(fuzz.integers(1, 30)), dtype=np.uint8).tobytes())
                path = tmp_path / f"fuzz{ext}"
                path.write_bytes(bytes(buf))
                try:
                    reader(path)
                except SweepDepthError:
                    pass


def test_criterion_11_brute_force_cost_volume(rng):
    with criterion(11, "vectorized homography sweep matches the per-pixel loop oracle"):
        w, h = 16, 16
        K = Intrinsics(fx=20.0, fy=19.0, cx=7.5, cy=7.5, width=w, height=h)
        target = FeatureMap(data=rng.random((h, w, 3)), scale=1)

        def rot(axis, angle):
            axis = np.asarray(axis, float) / np.linalg.norm(axis)
            kx, ky, kz = axis
            km = np.array([[0, -kz, ky], [kz, 0, -kx], [-ky, kx, 0]])
            return np.eye(3) + np.sin(angle) * km + (1 - np.cos(angle)) * km @ km

        poses = [
            Pose.from_translation(0.25, -0.05, 0.02),
            Pose(rot([0.1, 1.0, 0.0], 0.05), np.array([-0.15, 0.0, 0.08])),
        ]
        sources = [(FeatureMap(data=rng.random((h, w, 3)), scale=1), p) for p in poses]
        planes = linear_planes(1.0, 8.0, 8)

        cv = build_cost_volume(target, sources, K, planes)
        ref_costs, ref_counts = cost_volume_ref(
            target.data,
            [(f.data, p.rotation, p.translation) for f, p in sources],
            K.fx, K.fy, K.cx, K.cy,
            list(planes.depths),
        )
        finite = np.isfinite(ref_costs)
        assert (np.isfinite(cv.costs) == finite).all()
        assert np.abs(cv.costs[finite] - ref_costs[finite]).max() < 1e-6
        assert (cv.valid_count == ref_counts).all()
