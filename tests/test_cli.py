"""End-to-end CLI behavior on the bundled scenes."""

import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import sweepdepth
from sweepdepth import cli, costvolume, losses
from sweepdepth.augment import Augmentation, AugmentConfig, draw_augmentation
from sweepdepth.cli import main
from sweepdepth.errors import SweepDepthError
from sweepdepth.costvolume import inverse_depth_planes
from sweepdepth.io import read_cost_volume, read_pfm, read_ppm, write_pfm, write_ppm
from sweepdepth.synth import PRESETS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def lateral_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("lateral")
    assert main(["synth", "--scene", "static_lateral", "--out", str(root)]) == 0
    return root


@pytest.fixture(scope="module")
def box_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("box")
    assert main(["synth", "--scene", "moving_box", "--out", str(root)]) == 0
    return root


@pytest.fixture(scope="module")
def static_camera_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("static_camera")
    assert main(["synth", "--scene", "static_camera", "--out", str(root)]) == 0
    return root


def _loss_report(lp, lc, ls, total, mask_fraction):
    return {"lp": lp, "lc": lc, "ls": ls, "total": total, "mask_fraction": mask_fraction}


_BOX_LP_LS = {"lp": 0.012580872445838899, "ls": 0.027062833634897934}
_STATIC_CAMERA_REPORT = _loss_report(0.0, 1.1554676443338394, 0.015446309154591267,
                                     1.155483090642994, 1.0)

# `loss --out` of target 1 with the teacher its true depth and the student 1.25 times it, over
# [1, 10] m in 32 planes, keyed by (scene, --feature-scale, the augmentation the sample draws
# or None for no --augment-sample, --cv-sources). Recorded before the sweep ran beside the
# photometric terms. The static camera has no baseline, so every sweep there is invalid and
# gives the range midpoint.
LOSS_REPORTS = {
    ("moving_box", "4", "NONE", None): _loss_report(
        _BOX_LP_LS["lp"], 0.08980550368626912, _BOX_LP_LS["ls"], 0.09837429135993372,
        0.10611979166666667),
    ("moving_box", "4", "ZERO_VOLUME", None): _loss_report(
        _BOX_LP_LS["lp"], 1.0722281880055864, _BOX_LP_LS["ls"], 1.0722552508392214, 1.0),
    ("moving_box", "4", "STATIC_SUBSTITUTE", None): _loss_report(
        _BOX_LP_LS["lp"], 0.38478749835242826, _BOX_LP_LS["ls"], 0.3880819870337118,
        0.4690755208333333),
    ("moving_box", "1", "NONE", None): _loss_report(
        _BOX_LP_LS["lp"], 0.085940150776878, _BOX_LP_LS["ls"], 0.09126480467946291,
        0.13704427083333334),
    ("moving_box", "1", "ZERO_VOLUME", None): _loss_report(
        _BOX_LP_LS["lp"], 1.0722281880055864, _BOX_LP_LS["ls"], 1.0722552508392214, 1.0),
    ("moving_box", "1", "STATIC_SUBSTITUTE", None): _loss_report(
        _BOX_LP_LS["lp"], 0.3946545202440272, _BOX_LP_LS["ls"], 0.3971549313704429,
        0.4820963541666667),
    ("moving_box", "1", None, ("0", "2")): _loss_report(
        _BOX_LP_LS["lp"], 0.084228515625, _BOX_LP_LS["ls"], 0.08957858848132133, 0.134765625),
    **{("static_camera", scale, decision, None): _STATIC_CAMERA_REPORT
       for scale in ("4", "1") for decision in ("NONE", "ZERO_VOLUME", "STATIC_SUBSTITUTE")},
}


class TestSynth:
    def test_writes_expected_layout(self, lateral_dataset):
        names = {p.name for p in lateral_dataset.iterdir()}
        expected = {"intrinsics.json"}
        for t in range(3):
            expected |= {f"frame_{t:04d}.ppm", f"depth_{t:04d}.pfm", f"pose_{t:04d}.json"}
        assert expected <= names

    def test_mover_sidecar(self, box_dataset):
        obj = json.loads((box_dataset / "mover.json").read_text())
        assert len(obj["frames"]) == 3
        rect = obj["frames"][1]["rect"]
        assert rect[0] < rect[2] and rect[1] < rect[3]

    def test_seed_repeat_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "synth", "--scene", "static_lateral", "--out", str(a), "--seed", "3")
        run(capsys, "synth", "--scene", "static_lateral", "--out", str(b), "--seed", "3")
        for p in sorted(a.iterdir()):
            assert p.read_bytes() == (b / p.name).read_bytes()

    def test_unknown_scene_fails_cleanly(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--scene", "nope", "--out", str(tmp_path / "x"))
        assert code == 1
        assert "error:" in err

    def test_rewrite_removes_the_frames_of_a_longer_scene(self, tmp_path, capsys):
        # five frames, then static_lateral's three: frames 3 and 4 must not reach `loss`
        scene = tmp_path / "five.json"
        motion = [[0.1 * t, 0.0, 0.0] for t in range(5)]
        scene.write_text(json.dumps({**PRESETS["static_lateral"], "camera_motion": motion}))
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert run(capsys, "synth", "--scene", str(scene), "--out", str(reused))[0] == 0
        (reused / "dcv.pfm").write_bytes(b"not a dataset file")
        for out in (reused, fresh):
            assert run(capsys, "synth", "--scene", "static_lateral", "--out", str(out))[0] == 0
        assert {p.name for p in reused.iterdir()} == {p.name for p in fresh.iterdir()} | {"dcv.pfm"}
        assert (reused / "dcv.pfm").read_bytes() == b"not a dataset file"

        def loss(root):
            depth = str(root / "depth_0002.pfm")
            code, stdout, _ = run(capsys, "loss", "--data", str(root), "--target", "2",
                                  "--student", depth, "--teacher", depth,
                                  "--d-min", "1", "--d-max", "10", "--planes", "8")
            assert code == 0
            return json.loads(stdout)

        assert loss(reused) == loss(fresh)

    def test_rewrite_removes_the_mover_sidecar(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run(capsys, "synth", "--scene", "moving_box", "--out", str(out))[0] == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        refused = tmp_path / "one_pose.json"  # fails its checks: the directory stays as it was
        refused.write_text(json.dumps({**PRESETS["static_lateral"], "camera_motion": [[0, 0, 0]]}))
        assert run(capsys, "synth", "--scene", str(refused), "--out", str(out))[0] == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert run(capsys, "synth", "--scene", "static_lateral", "--out", str(out))[0] == 0
        assert not (out / "mover.json").exists()

    def test_load_dataset_reads_the_files_synth_writes(self, tmp_path, capsys, monkeypatch):
        # one function spells the file names: renamed, synth and load_dataset still agree
        monkeypatch.setattr(cli, "_frame_files", lambda root, t: (
            root / f"img{t}.ppm", root / f"gt{t}.pfm", root / f"cam{t}.json"))
        assert run(capsys, "synth", "--scene", "static_lateral", "--out", str(tmp_path))[0] == 0
        assert not list(tmp_path.glob("frame_*"))
        data = cli.load_dataset(tmp_path)
        assert len(data.images) == len(data.poses) == 3
        assert np.array_equal(data.images[2], read_ppm(tmp_path / "img2.ppm"))

    def test_load_dataset_decodes_a_frame_when_it_is_read(self, tmp_path):
        # numpy reports its buffers to tracemalloc. Five 640x192 frames hold 1.8 MB
        # of 8-bit samples, and 14.7 MB once decoded to float64; one decoded frame is 2.9 MB.
        write_noise_dataset(tmp_path, frames=5, width=640, height=192)
        tracemalloc.start()
        try:
            data = cli.load_dataset(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
            assert len(data.images) == 5
            for t in (4, 0, 4):
                assert np.array_equal(data.images[t], read_ppm(tmp_path / f"frame_{t:04d}.ppm"))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert peak < 3e6
        assert held < 3e6  # a dropped frame's floats are freed: no decoded copy is kept

    def test_load_dataset_holds_only_the_frames_read(self, tmp_path):
        # numpy reports its buffers to tracemalloc. A 640x192 frame's 8-bit samples are
        # 0.37 MB: twelve frames held after load are 4.4 MB, the three read here 1.1 MB.
        write_noise_dataset(tmp_path, frames=12, width=640, height=192)
        tracemalloc.start()
        try:
            data = cli.load_dataset(tmp_path)
            for t in (0, 1, 2):
                data.images[t]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(data.images) == 12
        assert held < 2e6

    def test_synth_holds_each_frame_as_its_file_data(self, tmp_path, capsys):
        # numpy reports its buffers to tracemalloc. At 160x120 a rendered frame is 0.61 MB
        # of float64 image and depth, and 0.13 MB as the 8-bit samples and float32 depth
        # its files store: 24 frames held as rendered peak at 16.5 MB, as file data at 5.5 MB,
        # most of it one frame's render temporaries.
        scene = tmp_path / "long.json"
        scene.write_text(json.dumps({**PRESETS["moving_box"], "width": 160, "height": 120,
                                     "camera_motion": [[0.02 * t, 0.0, 0.0] for t in range(24)]}))
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "synth", "--scene", str(scene), "--out", str(tmp_path / "d"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert len(list((tmp_path / "d").glob("frame_*.ppm"))) == 24
        assert peak < 9e6


class TestDepth:
    def test_full_resolution_sweep_holds_each_image_once(self, tmp_path, capsys, monkeypatch):
        # numpy reports its buffers to tracemalloc. At 640x192 a decoded frame and a
        # gradient feature map are 2.9 MB each. The sweep reads its features without a
        # channel-major copy, and no decoded frame outlives its features: the peak is
        # 29.2 MB, and 45.8 MB with both copies held. Each slab adds about 6 MB of work
        # arrays (23.1 MB at width 1, 41.1 MB at width 4), so the width is pinned.
        monkeypatch.setenv("SWEEPDEPTH_THREADS", "2")
        write_noise_dataset(tmp_path, width=640, height=192)
        tracemalloc.start()
        try:
            code, _, err = run(
                capsys,
                "depth", "--data", str(tmp_path), "--out", str(tmp_path / "dcv.pfm"),
                "--d-min", "1", "--d-max", "10", "--planes", "8",
                "--feature-scale", "1", "--sources", "0", "2",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak < 37e6

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("dump", [False, True])
    def test_a_sweep_error_exits_cleanly(self, box_dataset, tmp_path, capsys, monkeypatch,
                                         threads, dump):
        # 64x48 pixels with 32 planes sweep in 12 runs: one slab at width 1, two at width 2
        monkeypatch.setenv("SWEEPDEPTH_THREADS", threads)

        def fail(*args):
            raise SweepDepthError("the sweep failed")

        monkeypatch.setattr(costvolume, "_gather", fail)  # in the slabs, not the set-up
        argv = ["depth", "--data", str(box_dataset), "--out", str(tmp_path / "d.pfm"),
                "--d-min", "1", "--d-max", "10", "--planes", "32", "--feature-scale", "1",
                "--sources", "0", "2"]
        if dump:
            argv += ["--dump-cv", str(tmp_path / "v.swpcv")]
        before = threading.active_count()
        assert run(capsys, *argv) == (1, "", "error: the sweep failed\n")
        assert threading.active_count() == before
        assert list(tmp_path.iterdir()) == []

    def test_recovers_static_scene(self, lateral_dataset, tmp_path, capsys):
        out = tmp_path / "dcv.pfm"
        code, stdout, _ = run(
            capsys,
            "depth", "--data", str(lateral_dataset), "--out", str(out),
            "--d-min", "1", "--d-max", "10", "--planes", "32",
            "--feature-scale", "1", "--sources", "0", "2",
        )
        assert code == 0
        pred = read_pfm(out)
        gt = read_pfm(lateral_dataset / "depth_0001.pfm")
        assert np.median(np.abs(pred - gt)) <= (10 - 1) / (2 * 31)

    def test_zero_cv_gives_tie_rule_constant(self, lateral_dataset, tmp_path, capsys):
        out = tmp_path / "z.pfm"
        code, _, _ = run(
            capsys,
            "depth", "--data", str(lateral_dataset), "--out", str(out),
            "--d-min", "2", "--d-max", "8", "--zero-cv",
        )
        assert code == 0
        assert (read_pfm(out) == 2.0).all()

    def test_zero_cv_at_the_first_frame(self, lateral_dataset, tmp_path, capsys):
        # the zero volume is the start-of-sequence substitute: frame 0 needs no preceding frame
        out = tmp_path / "z.pfm"
        args = ["depth", "--data", str(lateral_dataset), "--out", str(out),
                "--d-min", "2", "--d-max", "8", "--target", "0", "--zero-cv"]
        code, stdout, _ = run(capsys, *args)
        assert code == 0
        assert (read_pfm(out) == 2.0).all()
        assert json.loads(stdout)["argmin_valid_fraction"] == 1.0
        code, _, err = run(capsys, *args, "--sources", "7")  # named sources are still checked
        assert code == 1 and err.startswith("error: bad or repeated source index 7"), err

    def test_sweep_at_the_first_frame_names_the_missing_frame(self, lateral_dataset, tmp_path,
                                                              capsys):
        code, _, err = run(capsys, "depth", "--data", str(lateral_dataset),
                           "--out", str(tmp_path / "d.pfm"), "--d-min", "1", "--d-max", "10",
                           "--target", "0")
        assert code == 1 and "no preceding frame" in err, err
        assert not (tmp_path / "d.pfm").exists()

    def test_out_over_teacher_scores_the_teacher(self, box_dataset, tmp_path, capsys):
        # the teacher is read before --out replaces it: the mask is the one a separate out gives
        args = ["depth", "--data", str(box_dataset), "--d-min", "1", "--d-max", "10",
                "--planes", "32", "--feature-scale", "1", "--sources", "0", "2"]
        teacher = tmp_path / "t.pfm"
        shutil.copyfile(box_dataset / "depth_0001.pfm", teacher)
        code, stdout, _ = run(capsys, *args, "--teacher", str(teacher),
                              "--out", str(tmp_path / "d.pfm"))
        assert code == 0
        separate = json.loads(stdout)["mask_fraction"]
        code, stdout, _ = run(capsys, *args, "--teacher", str(teacher), "--out", str(teacher))
        assert code == 0
        assert separate > 0.05 and json.loads(stdout)["mask_fraction"] == separate
        assert (tmp_path / "t.mask.pfm").read_bytes() == (tmp_path / "d.mask.pfm").read_bytes()

    @pytest.mark.parametrize("dump", ["d.pfm", "d.mask.pfm"])
    def test_outputs_on_one_file_are_refused(self, lateral_dataset, tmp_path, capsys, dump):
        # the volume dump over the depth, or over the default mask path next to it
        code, _, err = run(capsys, "depth", "--data", str(lateral_dataset),
                           "--out", str(tmp_path / "d.pfm"),
                           "--teacher", str(lateral_dataset / "depth_0001.pfm"),
                           "--dump-cv", str(tmp_path / dump), "--d-min", "1", "--d-max", "10")
        assert code == 1 and err.startswith("error: the ") and dump in err, err
        assert list(tmp_path.iterdir()) == []

    def test_mask_out_without_teacher_is_refused(self, lateral_dataset, tmp_path, capsys):
        # the mask is scored against --teacher: without one there is no mask to write
        code, _, err = run(capsys, "depth", "--data", str(lateral_dataset),
                           "--out", str(tmp_path / "d.pfm"), "--mask-out", str(tmp_path / "m.pfm"),
                           "--d-min", "1", "--d-max", "10")
        assert code == 1 and err == "error: --mask-out needs --teacher\n", err
        assert list(tmp_path.iterdir()) == []

    def test_teacher_writes_mask(self, box_dataset, tmp_path, capsys):
        out = tmp_path / "d.pfm"
        mask_out = tmp_path / "m.pfm"
        code, stdout, _ = run(
            capsys,
            "depth", "--data", str(box_dataset), "--out", str(out),
            "--teacher", str(box_dataset / "depth_0001.pfm"),
            "--mask-out", str(mask_out),
            "--d-min", "1", "--d-max", "10", "--planes", "32", "--feature-scale", "1",
            "--sources", "0", "2",
        )
        assert code == 0
        mask = read_pfm(mask_out) > 0.5
        assert mask.mean() > 0.05  # the box is flagged
        assert json.loads(stdout)["mask_fraction"] > 0.05

        # the flagged region matches the sidecar's footprint rectangle
        rect = json.loads((box_dataset / "mover.json").read_text())["frames"][1]["rect"]
        vv, uu = np.indices(mask.shape)
        box = (uu >= rect[0]) & (uu <= rect[2]) & (vv >= rect[1]) & (vv <= rect[3])
        iou = (mask & box).sum() / (mask | box).sum()
        assert iou >= 0.5

    def test_dump_cv_flag(self, lateral_dataset, tmp_path, capsys):
        out = tmp_path / "d.pfm"
        dump = tmp_path / "v.swpcv"
        code, _, _ = run(
            capsys,
            "depth", "--data", str(lateral_dataset), "--out", str(out),
            "--d-min", "1", "--d-max", "10", "--planes", "8",
            "--dump-cv", str(dump),
        )
        assert code == 0
        assert dump.read_bytes().startswith(b"SWPCV1 12 16 8 1.0 10.0\n")

    def test_bounds_xor_adaptive_state(self, lateral_dataset, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "depth", "--data", str(lateral_dataset), "--out", str(tmp_path / "d.pfm"),
        )
        assert code == 1 and "error:" in err

    def test_adaptive_state_file(self, lateral_dataset, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"d_min": 2.0, "d_max": 8.0, "momentum": 0.99}))
        code, _, _ = run(
            capsys,
            "depth", "--data", str(lateral_dataset), "--out", str(tmp_path / "d.pfm"),
            "--adaptive-state", str(state), "--zero-cv",
        )
        assert code == 0
        assert (read_pfm(tmp_path / "d.pfm") == 2.0).all()

    def test_augment_sample_is_deterministic(self, lateral_dataset, tmp_path, capsys):
        args = [
            "depth", "--data", str(lateral_dataset),
            "--d-min", "1", "--d-max", "10", "--planes", "8",
            "--seed", "11", "--augment-sample", "4",
        ]
        run(capsys, *args, "--out", str(tmp_path / "a.pfm"))
        run(capsys, *args, "--out", str(tmp_path / "b.pfm"))
        assert (tmp_path / "a.pfm").read_bytes() == (tmp_path / "b.pfm").read_bytes()

    def test_options_do_not_leak_into_the_next_call(self, lateral_dataset, tmp_path, capsys,
                                                     monkeypatch):
        # The parser is built once per process; each call still parses from the defaults.
        seen = []
        sweep_for = cli._sweep_for
        monkeypatch.setattr(cli, "_sweep_for",
                            lambda args, data, idxs: seen.append(idxs) or sweep_for(args, data, idxs))
        args = ["depth", "--data", str(lateral_dataset), "--out", str(tmp_path / "d.pfm"),
                "--d-min", "1", "--d-max", "10", "--planes", "4"]
        assert run(capsys, *args, "--sources", "0", "2")[0] == 0
        assert run(capsys, *args)[0] == 0
        assert seen == [[0, 2], None]
        assert cli.build_parser() is cli.build_parser()


class TestLoss:
    def test_perfect_static_inputs_near_zero(self, lateral_dataset, tmp_path, capsys):
        gt = str(lateral_dataset / "depth_0001.pfm")
        code, stdout, _ = run(
            capsys,
            "loss", "--data", str(lateral_dataset),
            "--student", gt, "--teacher", gt,
            "--d-min", "1", "--d-max", "10", "--planes", "32", "--feature-scale", "1",
            "--cv-sources", "0",
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["total"] < 1e-3
        assert report["lc"] == 0.0  # student equals teacher
        assert set(report) == {"lp", "lc", "ls", "total", "mask_fraction"}

    def test_moving_box_reports_mask_fraction(self, box_dataset, tmp_path, capsys):
        gt = str(box_dataset / "depth_0001.pfm")
        code, stdout, _ = run(
            capsys,
            "loss", "--data", str(box_dataset),
            "--student", gt, "--teacher", gt,
            "--d-min", "1", "--d-max", "10", "--planes", "32", "--feature-scale", "1",
            "--cv-sources", "0", "2",
        )
        assert code == 0
        assert json.loads(stdout)["mask_fraction"] > 0.05

    def test_truncated_student_names_its_file(self, lateral_dataset, tmp_path, capsys):
        gt = lateral_dataset / "depth_0001.pfm"
        student = tmp_path / "student.pfm"
        student.write_bytes(gt.read_bytes()[:100])
        code, _, err = run(capsys, "loss", "--data", str(lateral_dataset), "--student",
                           str(student), "--teacher", str(gt), "--d-min", "1", "--d-max", "10",
                           "--planes", "4")
        assert code == 1 and err.startswith(f"error: {student}: "), err

    @pytest.mark.parametrize("case", list(LOSS_REPORTS),
                             ids=lambda case: "-".join(map(str, case[:3])) + (case[3] and "-cv02" or ""))
    def test_golden_report(self, box_dataset, static_camera_dataset, tmp_path, capsys, case):
        scene, scale, decision, cv_sources = case
        data = box_dataset if scene == "moving_box" else static_camera_dataset
        student = tmp_path / "student.pfm"
        write_pfm(student, read_pfm(data / "depth_0001.pfm") * 1.25)
        argv = ["loss", "--data", str(data), "--student", str(student),
                "--teacher", str(data / "depth_0001.pfm"), "--d-min", "1", "--d-max", "10",
                "--planes", "32", "--feature-scale", scale, "--out", str(tmp_path / "r.json")]
        if decision is not None:
            argv += ["--augment-sample", str(sample_drawing(Augmentation[decision]))]
        if cv_sources:
            argv += ["--cv-sources", *cv_sources]
        code, stdout, err = run(capsys, *argv)
        assert code == 0, err
        assert stdout == (tmp_path / "r.json").read_text() == json.dumps(LOSS_REPORTS[case], indent=2) + "\n"

    @pytest.mark.parametrize("threads", [None, "2"])
    def test_no_thread_outlives_the_command(self, box_dataset, tmp_path, capsys, monkeypatch,
                                            threads):
        # the sweep runs on a pool thread beside the photometric terms; on success, on a bad
        # student while the sweep runs, and on an error inside the sweep, the pool is gone
        # before `loss` returns
        if threads:
            monkeypatch.setenv("SWEEPDEPTH_THREADS", threads)
        gt = box_dataset / "depth_0001.pfm"
        negative = tmp_path / "negative.pfm"
        write_pfm(negative, -read_pfm(gt))
        argv = ["loss", "--data", str(box_dataset), "--teacher", str(gt), "--d-min", "1",
                "--d-max", "10", "--planes", "32", "--feature-scale", "1"]
        before = threading.active_count()
        assert run(capsys, *argv, "--student", str(gt))[0] == 0
        assert threading.active_count() == before
        code, _, err = run(capsys, *argv, "--student", str(negative))
        assert code == 1 and err.startswith("error: reprojection needs finite positive depths")
        assert threading.active_count() == before

        def fail(*args):
            raise SweepDepthError("the sweep failed")

        argmin_rows = costvolume._argmin_rows
        monkeypatch.setattr(costvolume, "_argmin_rows", fail)
        code, _, err = run(capsys, *argv, "--student", str(gt))
        assert (code, err) == (1, "error: the sweep failed\n")
        assert threading.active_count() == before

        # the smoothness term runs on the sweep's thread once its slabs have ended
        monkeypatch.setattr(costvolume, "_argmin_rows", argmin_rows)
        threads = []

        def fail_smoothness(*args):
            threads.append(threading.current_thread())
            raise SweepDepthError("the smoothness term failed")

        monkeypatch.setattr(losses, "_edge_aware", fail_smoothness)
        code, _, err = run(capsys, *argv, "--student", str(gt))
        assert (code, err) == (1, "error: the smoothness term failed\n")
        assert threads and threading.main_thread() not in threads
        assert threading.active_count() == before

    def test_sweep_options_are_checked_before_the_student(self, box_dataset, tmp_path, capsys):
        gt = box_dataset / "depth_0001.pfm"
        negative = tmp_path / "negative.pfm"
        write_pfm(negative, -read_pfm(gt))
        code, _, err = run(capsys, "loss", "--data", str(box_dataset), "--student", str(negative),
                           "--teacher", str(gt), "--d-min", "5", "--d-max", "1")
        assert code == 1 and err.startswith("error: need ") and "got (5.0, 1.0)" in err, err

    @pytest.mark.parametrize("zero_cv", [False, True], ids=["sweep", "zero_cv"])
    @pytest.mark.parametrize("width, height", [(32, 1), (1, 24)], ids=["one_row", "one_column"])
    def test_one_row_or_column_scores_finite_terms(self, tmp_path, capsys, width, height, zero_cv):
        # a one-row image has no vertical neighbour pairs and a one-column image no horizontal
        # ones: that smoothness term is 0, not the NaN mean of an empty grid
        write_noise_dataset(tmp_path, width=width, height=height)
        if width == 1:  # sideways steps move every pixel out of one column: step down instead
            for t in range(3):
                (tmp_path / f"pose_{t:04d}.json").write_text(json.dumps(
                    {"R": [1, 0, 0, 0, 1, 0, 0, 0, 1], "t": [0, 0.25 * t, 0]}))
        gt = str(tmp_path / "depth_0001.pfm")
        argv = ["loss", "--data", str(tmp_path), "--student", gt, "--teacher", gt, *_SWEEP]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, stdout, err = run(capsys, *argv, *(["--zero-cv"] if zero_cv else []))
        assert (code, err) == (0, "")

        def refuse(constant):
            raise AssertionError(f"{constant} is not strict JSON")

        report = json.loads(stdout, parse_constant=refuse)
        assert all(math.isfinite(value) for value in report.values()), report

    @pytest.mark.parametrize("zero_cv", [False, True], ids=["sweep", "zero_cv"])
    def test_a_loss_that_covers_no_pixel_is_refused(self, tmp_path, capsys, zero_cv):
        # a sideways step of 4 px at the student's depth moves every pixel of a one-column
        # image out of both sources: lp would be 0 with nothing scored
        write_noise_dataset(tmp_path / "data", width=1, height=24)
        gt = str(tmp_path / "data" / "depth_0001.pfm")
        code, stdout, err = run(capsys, "loss", "--data", str(tmp_path / "data"), "--student", gt,
                                "--teacher", gt, *_SWEEP, *(["--zero-cv"] if zero_cv else []),
                                "--out", str(tmp_path / "loss.json"))
        assert (code, stdout) == (1, "")
        data = tmp_path / "data"
        files = [data / name for name in ("intrinsics.json", "pose_0001.json", "pose_0000.json",
                                          "pose_0002.json")]
        assert err == (f"error: {', '.join(map(str, files))}: "
                       "no pixel of the target reprojects inside a source image\n")
        assert not (tmp_path / "loss.json").exists()

    def test_zero_cv_at_the_first_frame(self, lateral_dataset, capsys):
        gt = str(lateral_dataset / "depth_0000.pfm")
        code, stdout, err = run(capsys, "loss", "--data", str(lateral_dataset), "--target", "0",
                                "--student", gt, "--teacher", gt, "--d-min", "1", "--d-max", "10",
                                "--zero-cv")
        assert code == 0, err
        assert json.loads(stdout)["mask_fraction"] > 0  # the near-plane constant is far off


class TestEval:
    def test_perfect_report(self, lateral_dataset, tmp_path, capsys):
        gt = str(lateral_dataset / "depth_0001.pfm")
        code, stdout, _ = run(capsys, "eval", "--pred", gt, "--gt", gt)
        assert code == 0
        report = json.loads(stdout)
        assert report["abs_rel"] == 0.0 and report["delta1"] == 1.0

    def test_median_scale_flag(self, lateral_dataset, tmp_path, capsys):
        gt_path = lateral_dataset / "depth_0001.pfm"
        from sweepdepth.io import write_pfm

        doubled = tmp_path / "double.pfm"
        write_pfm(doubled, 2.0 * read_pfm(gt_path))
        code, stdout, _ = run(
            capsys, "eval", "--pred", str(doubled), "--gt", str(gt_path), "--median-scale"
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["abs_rel"] < 1e-9 and report["delta1"] == 1.0

    def test_error_map_outputs(self, lateral_dataset, tmp_path, capsys):
        gt = str(lateral_dataset / "depth_0001.pfm")
        ppm = tmp_path / "err.ppm"
        pfm = tmp_path / "err.pfm"
        run(capsys, "eval", "--pred", gt, "--gt", gt, "--error-map", str(ppm))
        run(capsys, "eval", "--pred", gt, "--gt", gt, "--error-map", str(pfm))
        from sweepdepth.io import read_ppm

        heat = read_ppm(ppm)
        assert np.allclose(heat, [0, 0, 1])  # zero error: all blue
        assert (read_pfm(pfm) == 0).all()

    def test_error_map_skips_infinite_gt(self, lateral_dataset, tmp_path, capsys):
        # an infinite ground-truth pixel is not scored: the map is 0 there, not NaN
        pred = lateral_dataset / "depth_0001.pfm"
        gt = read_pfm(pred)
        gt[5, 7] = np.inf
        write_pfm(tmp_path / "gt.pfm", gt)
        for name in ("err.pfm", "err.ppm"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code, _, err = run(capsys, "eval", "--pred", str(pred), "--gt",
                                   str(tmp_path / "gt.pfm"), "--error-map", str(tmp_path / name))
            assert code == 0 and err == ""
        assert (read_pfm(tmp_path / "err.pfm") == 0).all()  # finite, and zero error elsewhere
        assert np.allclose(read_ppm(tmp_path / "err.ppm"), [0, 0, 1])

    def test_error_map_over_out_is_refused(self, lateral_dataset, tmp_path, capsys):
        gt = str(lateral_dataset / "depth_0001.pfm")
        both = tmp_path / "e.pfm"
        code, _, err = run(capsys, "eval", "--pred", gt, "--gt", gt,
                           "--error-map", str(both), "--out", str(both))
        assert code == 1 and err.startswith("error: the error map and the report"), err
        assert not both.exists()

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        code, _, err = run(capsys, "eval", "--pred", "/nope.pfm", "--gt", "/nope.pfm")
        assert code == 1 and "error:" in err

    def test_truncated_pred_names_its_file(self, lateral_dataset, tmp_path, capsys):
        gt = lateral_dataset / "depth_0001.pfm"
        pred = tmp_path / "pred.pfm"
        pred.write_bytes(gt.read_bytes()[:5])  # the header ends before the height
        code, _, err = run(capsys, "eval", "--pred", str(pred), "--gt", str(gt))
        assert code == 1 and err.startswith(f"error: {pred}: header ended"), err


class TestDumpCv:
    def test_dump_round_trip(self, lateral_dataset, tmp_path, capsys):
        out = tmp_path / "v.swpcv"
        code, stdout, _ = run(
            capsys,
            "depth", "--data", str(lateral_dataset), "--out", str(tmp_path / "d.pfm"),
            "--dump-cv", str(out), "--d-min", "1", "--d-max", "10", "--planes", "4",
        )
        assert code == 0
        assert json.loads(stdout)["cost_volume"] == str(out)
        cv, planes = read_cost_volume(out)
        assert cv.costs.shape == (12, 16, 4)
        assert len(planes) == 4

    def test_pooled_dump_keeps_its_bytes(self, box_dataset, tmp_path, capsys, monkeypatch):
        # 64x48 pixels with 32 planes sweep in 12 runs: one slab at width 1, two at width 2
        outputs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("SWEEPDEPTH_THREADS", threads)
            depth, dump = tmp_path / f"d{threads}.pfm", tmp_path / f"v{threads}.swpcv"
            code, _, err = run(capsys, "depth", "--data", str(box_dataset), "--out", str(depth),
                               "--dump-cv", str(dump), "--d-min", "1", "--d-max", "10",
                               "--planes", "32", "--feature-scale", "1", "--sources", "0", "2")
            assert code == 0, err
            outputs[threads] = depth.read_bytes(), dump.read_bytes()
        assert outputs["1"] == outputs["2"]

    def test_dump_holds_its_payload_not_the_volume(self, tmp_path, capsys, monkeypatch):
        # numpy reports its buffers to tracemalloc. A 640x192, 96-plane dump's float32
        # payload is 47.2 MB, filled run by run as the sweep goes; with one slab the peak
        # is about 71 MB. A float64 volume with its counts, read back by argmin_depth and
        # copied to float32 for the file, peaked at 165 MB.
        monkeypatch.setenv("SWEEPDEPTH_THREADS", "1")
        write_noise_dataset(tmp_path, width=640, height=192)
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "depth", "--data", str(tmp_path), "--out", str(tmp_path / "d.pfm"),
                               "--dump-cv", str(tmp_path / "v.swpcv"), "--d-min", "1", "--d-max", "10",
                               "--planes", "96", "--feature-scale", "1", "--sources", "0", "2")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak < 90e6

    def test_inverse_planes_round_trip(self, lateral_dataset, tmp_path, capsys):
        out = tmp_path / "v.swpcv"
        code, _, _ = run(
            capsys,
            "depth", "--data", str(lateral_dataset), "--out", str(tmp_path / "d.pfm"),
            "--dump-cv", str(out), "--d-min", "1", "--d-max", "10", "--planes", "8",
            "--inverse-depth-planes",
        )
        assert code == 0
        assert out.read_bytes().startswith(b"SWPCV2 12 16 8 1.0 10.0 inverse\n")
        _, planes = read_cost_volume(out)
        assert np.array_equal(planes.depths, inverse_depth_planes(1.0, 10.0, 8).depths)


def write_noise_dataset(root: Path, frames: int = 3, width: int = 32, height: int = 24) -> None:
    """Three 32x24 frames of seeded noise, seen from x = 0, 0.25 and 0.5 m with no
    rotation and power-of-two intrinsics: every homography term is exact, and the
    sweep takes no transcendental function and no reduction longer than three
    entries, so its bits should not depend on the machine's libm, BLAS or SIMD.
    Other frame counts and sizes keep the focal length and the camera steps."""
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(7)
    (root / "intrinsics.json").write_text(json.dumps(
        {"fx": 32.0, "fy": 32.0, "cx": width / 2, "cy": height / 2, "width": width, "height": height}))
    for t in range(frames):
        write_ppm(root / f"frame_{t:04d}.ppm", rng.random((height, width, 3)))
        (root / f"pose_{t:04d}.json").write_text(json.dumps(
            {"R": [1, 0, 0, 0, 1, 0, 0, 0, 1], "t": [0.25 * t, 0, 0]}))
    write_pfm(root / "depth_0001.pfm", np.full((height, width), 2.0))


@pytest.fixture(scope="module")
def noise_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("noise")
    write_noise_dataset(root)
    return root


def sample_drawing(decision: Augmentation) -> int:
    """The first augmentation sample index whose draw at the CLI's defaults is ``decision``."""
    cfg = AugmentConfig()
    return next(i for i in range(1000) if draw_augmentation(cfg, i) is decision)


_SWEEP = ["--d-min", "1", "--d-max", "10", "--planes", "8", "--feature-scale", "1"]

# The files each command writes over noise_dataset, as sha256 of their bytes, recorded
# before `depth` and `loss` stopped building the volume: the volume path keeps them.
VOLUME_BYTES = {
    "depth_dump_cv": (
        ["depth", "--sources", "0", "2", "--dump-cv", "{tmp}/v.swpcv", "--out", "{tmp}/d.pfm"],
        {"v.swpcv": "e99032c5c2e060b619ce6b7f79b612df3047612f888b0774200cebed73451e1f",
         "d.pfm": "ba7c1e5d2bddd78ed46090dbf9733b085aaff87eaaef45cbef116ad21813ac08"},
    ),
    "depth_dump_cv_static_substitute": (
        ["depth", "--augment-sample", str(sample_drawing(Augmentation.STATIC_SUBSTITUTE)),
         "--dump-cv", "{tmp}/v.swpcv", "--out", "{tmp}/d.pfm"],
        {"v.swpcv": "8da9b9d9b37bf137358a8dbc9747909b5ad99ebad9267730dde8cc772fd2216d",
         "d.pfm": "3052f313bc70ba708d143fb8bdc6f27c384702b19c2f6d8c9587bf5db1bb525c"},
    ),
    "dump_cv_inverse": (
        ["depth", "--sources", "0", "2", "--inverse-depth-planes", "--dump-cv", "{tmp}/v.swpcv",
         "--out", "{tmp}/d.pfm"],
        {"v.swpcv": "04d920934be16d54ff9ff550fa033521cc52fb513572e3f3703bd0616b553841"},
    ),
    "dump_cv_zero": (
        ["depth", "--zero-cv", "--dump-cv", "{tmp}/v.swpcv", "--out", "{tmp}/d.pfm"],
        {"v.swpcv": "eb379116811fbf06c2f1f414c741080376fc0c380eaf0a4d5e3003085d46d63e"},
    ),
    "dump_cv_zero_volume_draw": (
        ["depth", "--augment-sample", str(sample_drawing(Augmentation.ZERO_VOLUME)),
         "--dump-cv", "{tmp}/v.swpcv", "--out", "{tmp}/d.pfm"],
        {"v.swpcv": "eb379116811fbf06c2f1f414c741080376fc0c380eaf0a4d5e3003085d46d63e"},
    ),
}


class TestVolumeBytes:
    @pytest.mark.parametrize("case", list(VOLUME_BYTES))
    def test_dumps_keep_their_bytes(self, noise_dataset, tmp_path, capsys, case):
        argv, files = VOLUME_BYTES[case]
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert run(capsys, *argv, "--data", str(noise_dataset), *_SWEEP)[0] == 0
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in files}
        assert got == files


class TestNoVolume:
    """`depth`, with or without a dump, and `loss` reduce the sweep as it runs: no volume
    is built or read back. A dump is filled run by run; VOLUME_BYTES pins its bytes."""

    @pytest.fixture
    def refuse_volumes(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built or read a cost volume")

        # raising=False: cli binds none of these, and one it bound again would be refused too
        for module in (costvolume, cli):
            for name in ("build_cost_volume", "zero_volume", "argmin_depth"):
                monkeypatch.setattr(module, name, refuse, raising=False)

    @pytest.mark.parametrize("extra", [[], ["--zero-cv"], ["--inverse-depth-planes"],
                                       ["--augment-sample", str(sample_drawing(Augmentation.ZERO_VOLUME))]])
    def test_depth(self, noise_dataset, tmp_path, capsys, refuse_volumes, extra):
        argv = ["depth", "--data", str(noise_dataset), "--sources", "0", "2", *_SWEEP, *extra]
        assert run(capsys, *argv, "--out", str(tmp_path / "a.pfm"),
                   "--dump-cv", str(tmp_path / "v.swpcv"))[0] == 0
        assert run(capsys, *argv, "--out", str(tmp_path / "b.pfm"))[0] == 0
        assert (tmp_path / "b.pfm").read_bytes() == (tmp_path / "a.pfm").read_bytes()

    @pytest.mark.parametrize("decision", list(Augmentation))
    def test_loss(self, noise_dataset, tmp_path, capsys, refuse_volumes, decision):
        gt = str(noise_dataset / "depth_0001.pfm")
        code, stdout, err = run(capsys, "loss", "--data", str(noise_dataset), *_SWEEP,
                                "--student", gt, "--teacher", gt, "--cv-sources", "0", "2",
                                "--augment-sample", str(sample_drawing(decision)))
        assert code == 0, err
        assert set(json.loads(stdout)) == {"lp", "lc", "ls", "total", "mask_fraction"}


class TestStaticCamera:
    def test_degenerate_baseline_completes(self, tmp_path, capsys):
        root = tmp_path / "static"
        run(capsys, "synth", "--scene", "static_camera", "--out", str(root))
        out = tmp_path / "d.pfm"
        code, _, _ = run(
            capsys,
            "depth", "--data", str(root), "--out", str(out),
            "--d-min", "1", "--d-max", "10", "--planes", "16",
        )
        assert code == 0
        assert np.isfinite(read_pfm(out)).all()


# Each subcommand's report keys, in order; depth's with --teacher and --dump-cv.
REPORT_KEYS = {
    "synth": ["out", "frames", "target_index"],
    "depth": ["depth", "mask", "mask_fraction", "cost_volume", "argmin_valid_fraction"],
    "loss": ["lp", "lc", "ls", "total", "mask_fraction"],
    "eval": ["abs_rel", "sq_rel", "rmse", "rmse_log", "delta1", "delta2", "delta3"],
}


class TestMain:
    def _argv(self, command, data, tmp):
        volume = ["--data", str(data), "--d-min", "1", "--d-max", "10", "--planes", "4"]
        gt = str(data / "depth_0001.pfm")
        return {
            "synth": ["synth", "--scene", "moving_box", "--out", str(tmp / "synth")],
            "depth": ["depth", *volume, "--out", str(tmp / "d.pfm"), "--teacher", gt,
                      "--dump-cv", str(tmp / "v.swpcv")],
            "loss": ["loss", *volume, "--student", gt, "--teacher", gt, "--out", str(tmp / "r.json")],
            "eval": ["eval", "--pred", gt, "--gt", gt, "--out", str(tmp / "r.json")],
        }[command]

    @pytest.mark.parametrize("command", list(REPORT_KEYS))
    def test_prints_one_indented_report(self, command, box_dataset, tmp_path, capsys):
        code, stdout, err = run(capsys, *self._argv(command, box_dataset, tmp_path))
        assert code == 0 and err == ""
        report = json.loads(stdout)  # one object and nothing after it
        assert list(report) == REPORT_KEYS[command]
        assert stdout == json.dumps(report, indent=2) + "\n"
        if command in ("loss", "eval"):
            assert stdout == (tmp_path / "r.json").read_text()

    def test_looks_the_command_up_at_call_time(self, lateral_dataset, tmp_path, capsys,
                                               monkeypatch):
        argv = self._argv("depth", lateral_dataset, tmp_path)
        assert run(capsys, *argv)[0] == 0  # builds and caches the parser
        seen = []
        monkeypatch.setattr(cli, "cmd_depth", lambda args: seen.append(args.out) or {"ok": 1})
        code, stdout, _ = run(capsys, *argv)
        assert code == 0 and json.loads(stdout) == {"ok": 1}
        assert seen == [str(tmp_path / "d.pfm")]

    def test_closed_stdout_is_an_error(self, lateral_dataset, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        gt = str(lateral_dataset / "depth_0001.pfm")
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["eval", "--pred", gt, "--gt", gt])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and "Broken pipe" in err


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


class TestHeapPolicy:
    """`main` asks glibc to keep the heap pages a command frees."""

    @pytest.fixture
    def libc(self, monkeypatch):
        calls = []

        class Libc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36", raising=False)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Libc())
        return calls

    def test_main_sets_the_top_pad(self, libc, lateral_dataset, capsys):
        gt = str(lateral_dataset / "depth_0001.pfm")
        assert run(capsys, "eval", "--pred", gt, "--gt", gt)[0] == 0
        assert libc == [(-3, 32 << 20), (-2, 64 << 20)]  # M_MMAP_THRESHOLD, then M_TOP_PAD

    @pytest.mark.parametrize("libc_name", ["musl", None, ValueError, AttributeError])
    def test_other_libcs_are_left_alone(self, libc, monkeypatch, libc_name):
        def confstr(name):
            if isinstance(libc_name, type):
                raise libc_name(name)
            return libc_name

        monkeypatch.setattr(os, "confstr", confstr)
        assert cli._keep_freed_heap() is False
        assert libc == []

    class _Refusing:
        def __init__(self):
            self.calls = []

        def mallopt(self, param, value):
            self.calls.append(param)
            return 0

    @pytest.mark.parametrize("lib", [object(), _Refusing()], ids=["no_mallopt", "refused"])
    def test_returns_quietly_without_mallopt(self, monkeypatch, lib):
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36", raising=False)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: lib)
        assert cli._keep_freed_heap() is False

    def test_a_refused_threshold_leaves_the_pad_unset(self, monkeypatch):
        lib = self._Refusing()
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36", raising=False)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: lib)
        assert cli._keep_freed_heap() is False
        assert lib.calls == [-3]  # the pad alone would freeze glibc's threshold where it stands

    @pytest.mark.skipif(not _glibc(), reason="the mmap threshold is a glibc malloc setting")
    def test_a_fresh_process_keeps_large_blocks_on_the_heap(self):
        # the pad alone would freeze glibc's mmap threshold at 128 KiB in a fresh process, and
        # each 4 MiB block would be a fresh mapping: about 1,000 minor faults a block
        probe = (
            "import resource, numpy as np\n"
            "from sweepdepth import cli\n"
            "assert cli._keep_freed_heap()\n"
            "np.ones(1 << 19)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(20):\n"
            "    np.ones(1 << 19)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = str(Path(sweepdepth.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                             capture_output=True, text=True, check=True, timeout=120).stdout
        assert int(out) < 1000, out

    @pytest.mark.skipif(not _glibc(), reason="the top pad is a glibc malloc setting")
    def test_a_repeated_loss_reuses_its_pages(self, tmp_path, capsys):
        # without the pad glibc trims and unmaps what each `loss` frees, and every further
        # `loss` at 640x192 faults its working set in again: about 9,000 to 14,000 minor faults
        resource = pytest.importorskip("resource")
        write_noise_dataset(tmp_path, width=640, height=192)
        gt = str(tmp_path / "depth_0001.pfm")
        argv = ["loss", "--data", str(tmp_path), "--student", gt, "--teacher", gt, *_SWEEP]
        for _ in range(2):  # the first commands grow the heap to the working set
            assert run(capsys, *argv)[0] == 0
        faults = []
        for _ in range(3):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert run(capsys, *argv)[0] == 0
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert max(faults) < 1000, faults


def _copy_with(data, tmp, name, edit):
    """Copy of the dataset whose JSON file ``name`` holds ``edit(parsed original)``
    (text, or raw bytes)."""
    bad = tmp / "data"
    shutil.copytree(data, bad)
    content = edit(json.loads((bad / name).read_text()))
    (bad / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    return bad


_NOT_UTF8 = b"\xff\xfe\x00"


_SCENE = {
    "planes": [{"normal": [0, 0, 1], "offset": 4.0, "texture": {"kind": "checker"}}],
    "camera_motion": [[0, 0, 0], [0.1, 0, 0]],
}


def _bad_input_argv(case, data, tmp):
    """argv for one malformed input; files it needs are written under ``tmp``."""
    volume = ["--data", str(data), "--d-min", "1", "--d-max", "10", "--planes", "4"]
    states = {
        "state_without_d_max": '{"d_min": 1.0}',
        "state_not_json": "d_min = 1",
        "state_d_max_infinity": '{"d_min": 1, "d_max": Infinity}',
        "state_with_unknown_key": '{"d_min": 1, "d_max": 10, "d_mid": 5}',
        "state_momentum_one": '{"d_min": 1, "d_max": 10, "momentum": 1.0}',
        # JSON true and false are not the numbers 1 and 0, nor is 0 a boolean
        "state_d_min_true": '{"d_min": true, "d_max": 10, "momentum": false}',
        "state_momentum_false": '{"d_min": 1, "d_max": 10, "momentum": false}',
        "state_frozen_zero": '{"d_min": 1, "d_max": 10, "frozen": 0}',
        "state_d_max_as_text": '{"d_min": 1.0, "d_max": "10"}',  # text is not a number
    }
    if case in states:
        state = tmp / "state.json"
        state.write_text(states[case])
        return ["depth", "--data", str(data), "--out", str(tmp / "d.pfm"),
                "--adaptive-state", str(state)]
    if case.startswith("aug_p_plus_q_above_one"):
        zero_cv = ["--zero-cv"] if case.endswith("zero_cv") else []
        return ["depth", *volume, "--out", str(tmp / "d.pfm"), *zero_cv,
                "--augment-sample", "0", "--aug-p", "0.9", "--aug-q", "0.9"]
    if case in ("augment_sample_negative", "augment_sample_over_64_bits"):
        index = "-5" if case == "augment_sample_negative" else "99999999999999999999999"
        return ["depth", *volume, "--out", str(tmp / "d.pfm"), "--augment-sample", index]
    if case == "d_max_inf":  # the last --d-max wins
        return ["depth", *volume, "--d-max", "inf", "--out", str(tmp / "d.pfm")]
    if case == "d_min_float32_zero":  # 1e-300 is 0 in a float32 depth map
        return ["depth", *volume, "--d-min", "1e-300", "--out", str(tmp / "d.pfm"), "--zero-cv"]
    if case == "d_max_float32_inf":  # 1e300 is inf in a float32 depth map
        return ["depth", *volume, "--d-max", "1e300", "--out", str(tmp / "d.pfm"),
                "--feature-scale", "1", "--teacher", str(data / "depth_0001.pfm")]
    if case == "repeated_source":
        return ["depth", *volume, "--out", str(tmp / "d.pfm"), "--sources", "0", "0"]
    if case.startswith("frame_size_mismatch"):  # a 640x192 frame in a 64x48 dataset
        bad = tmp / "data"
        shutil.copytree(data, bad)
        write_ppm(bad / "frame_0002.ppm", np.zeros((192, 640, 3)))
        if case == "frame_size_mismatch_loss":
            return ["loss", *volume, "--data", str(bad), "--feature-scale", "1",
                    "--student", str(bad / "depth_0001.pfm"),
                    "--teacher", str(bad / "depth_0001.pfm")]
        return ["depth", *volume, "--data", str(bad), "--out", str(tmp / "d.pfm"),
                "--sources", "0", "2"]
    if case == "student_with_nan_pixel":
        student = read_pfm(data / "depth_0001.pfm")
        student[5, 7] = np.nan
        write_pfm(tmp / "student.pfm", student)
        return ["loss", *volume, "--student", str(tmp / "student.pfm"),
                "--teacher", str(data / "depth_0001.pfm")]
    if case == "too_many_planes":  # 16x12 features x 1e8 planes: refused before any allocation
        return ["depth", "--data", str(data), "--d-min", "1", "--d-max", "10",
                "--planes", "100000000", "--out", str(tmp / "d.pfm")]
    if case == "pred_with_nan_pixel":
        pred = read_pfm(data / "depth_0001.pfm")
        pred[5, 7] = np.nan
        write_pfm(tmp / "pred.pfm", pred)
        return ["eval", "--pred", str(tmp / "pred.pfm"), "--gt", str(data / "depth_0001.pfm"),
                "--error-map", str(tmp / "err.ppm")]
    if case == "pred_all_zero_median_scale":  # stderr holds the error alone, no RuntimeWarning
        write_pfm(tmp / "pred.pfm", np.zeros_like(read_pfm(data / "depth_0001.pfm")))
        return ["eval", "--pred", str(tmp / "pred.pfm"), "--gt", str(data / "depth_0001.pfm"),
                "--median-scale"]
    if case.startswith("pose_far"):  # pose_0000.json moves every pixel out of view, or K t overflows
        x = 1e300 if case.startswith("pose_far_out_of_view") else 1e308
        bad = _copy_with(data, tmp, "pose_0000.json", lambda p: json.dumps({**p, "t": [x, 0, 0]}))
        frames = ["--data", str(bad), "--d-min", "1", "--d-max", "10", "--target", "1", "--sources", "0"]
        if case.endswith("_depth"):
            return ["depth", *frames, "--out", str(tmp / "d.pfm")]
        gt = str(bad / "depth_0001.pfm")
        sweep = ["--cv-sources", "2"] if case.startswith("pose_far_out_of_view") else ["--zero-cv"]
        return ["loss", *frames, "--student", gt, "--teacher", gt, *sweep]
    dataset_edits = {
        "negative_focal_length": ("intrinsics.json",
                                  lambda k: json.dumps({**k, "fx": -k["fx"]})),
        "intrinsics_without_fy": ("intrinsics.json",
                                  lambda k: json.dumps({n: v for n, v in k.items() if n != "fy"})),
        "intrinsics_not_utf8": ("intrinsics.json", lambda _: _NOT_UTF8),
        "intrinsics_fx_nan": ("intrinsics.json", lambda k: json.dumps({**k, "fx": math.nan})),
        "intrinsics_fx_infinity": ("intrinsics.json", lambda k: json.dumps({**k, "fx": math.inf})),
        "intrinsics_width_fraction": ("intrinsics.json", lambda k: json.dumps({**k, "width": 64.9})),
        "intrinsics_height_boolean": ("intrinsics.json", lambda k: json.dumps({**k, "height": True})),
        "intrinsics_width_string": ("intrinsics.json", lambda k: json.dumps({**k, "width": "64"})),
        "intrinsics_fx_true": ("intrinsics.json", lambda k: json.dumps({**k, "fx": True})),
        "intrinsics_fx_as_text": ("intrinsics.json", lambda k: json.dumps({**k, "fx": str(k["fx"])})),
        "pose_rotation_all_booleans": ("pose_0001.json", lambda p: json.dumps(
            {**p, "R": [bool(r) for r in p["R"]]})),
        "pose_translation_entries_as_text": ("pose_0001.json", lambda p: json.dumps(
            {**p, "t": ["0", "0", "1"]})),
        "pose_translation_nan": ("pose_0000.json",
                                 lambda p: json.dumps({**p, "t": [math.nan, 0, 0]})),
        "pose_not_json": ("pose_0001.json", lambda _: "R = identity"),
        "pose_with_8_rotation_entries": ("pose_0001.json",
                                         lambda p: json.dumps({**p, "R": p["R"][:8]})),
    }
    if case in dataset_edits:
        bad = _copy_with(data, tmp, *dataset_edits[case])
        return ["depth", *volume, "--data", str(bad), "--out", str(tmp / "d.pfm")]
    plane = _SCENE["planes"][0]
    scene_edits = {
        "plane_without_normal": {"planes": [{"offset": 4.0}]},
        "texture_unknown_key": {"planes": [{**plane, "texture": {"kind": "checker", "size": 2}}]},
        "texture_unknown_kind": {"planes": [{**plane, "texture": {"kind": "marble"}}]},
        "scene_with_one_pose": {"camera_motion": [[0, 0, 0]]},
        "plane_normal_with_2_entries": {"planes": [{**plane, "normal": [0, 1]}]},
        "plane_albedo_with_2_entries": {"planes": [{**plane, "albedo": [1.0, 1.0]}]},
        "mover_half_size_with_1_entry": {"mover": {"center": [0, 0, 2.0], "half_size": [0.3],
                                                   "velocity": [0.05, 0, 0]}},
        "texture_zero_period": {"planes": [{**plane, "texture": {"period_x": 0}}]},
        "target_index_out_of_range": {"target_index": 9},
        "target_index_fraction": {"target_index": 1.5},
        "scene_height_boolean": {"height": True},
        "scene_width_string": {"width": "64"},
        "scene_seed_fraction": {"seed": 2.5},
        "plane_normal_as_text": {"planes": [{**plane, "normal": "001"}]},
        "plane_offset_true": {"planes": [{**plane, "offset": True}]},
        "camera_motion_entry_as_text": {"camera_motion": [[0, 0, 0], "100"]},
        "camera_motion_entries_as_text": {"camera_motion": [[0, 0, 0], ["0.1", "0", "0"]]},
        "plane_normal_entries_as_text": {"planes": [{**plane, "normal": ["0", "0", "1"]}]},
        "texture_amp_x_as_text": {"planes": [{**plane, "texture": {"kind": "checker", "amp_x": "0.5"}}]},
        # 10^7 x 10^7 pixels, past any machine's memory: without the check it fails at once
        # in numpy rather than rendering for minutes
        "scene_too_large": {"width": 10**7, "height": 10**7},
        "scene_too_large_intrinsics": {"intrinsics": {"fx": 1e7, "fy": 1e7, "cx": 5e6, "cy": 5e6,
                                                      "width": 10**7, "height": 10**7}},
        "mover_half_size_not_positive": {"mover": {"center": [0, 0, 2.0],
                                                   "half_size": [-0.3, -0.2],
                                                   "velocity": [0.05, 0, 0]}},
    }
    # finite numbers that overflow while rendering a 16x12 frame
    grating = {"kind": "grating", "period_x": 1.0, "period_y": 1.0}
    mover = {"center": [0, 0, 2.0], "half_size": [0.3, 0.2], "velocity": [0.05, 0, 0]}
    render_edits = {
        "render_phase_overflow": {"planes": [{**plane, "texture": {**grating, "phase_x": 1e308}}]},
        "render_amplitude_overflow": {"planes": [{**plane, "texture": {
            **grating, "amp_x": 1e308, "amp_y": 1e308, "phase_x": 0.125, "phase_y": 0.125}}]},
        "render_noise_cell_underflow": {"planes": [{**plane, "texture": {"kind": "noise",
                                                                         "cell": 1e-308}}]},
        "render_camera_far": {"planes": [{**plane, "texture": grating}],
                              "camera_motion": [[0, 0, 0], [1e308, 0, 0]]},
        "render_wall_past_float32": {"planes": [{**plane, "offset": 1e39}]},  # inf as float32
        "render_mover_at_zero_depth": {"mover": {**mover, "center": [0, 0, 1e-300]}},
        "render_mover_bounds_overflow": {"mover": {**mover, "half_size": [1e308, 1e308]}},
    }
    scene_edits.update({case: {"width": 16, "height": 12, **edit}
                        for case, edit in render_edits.items()})
    if case in scene_edits or case == "scene_not_utf8":
        scene = tmp / "scene.json"
        scene.write_bytes(_NOT_UTF8 if case == "scene_not_utf8"
                          else json.dumps({**_SCENE, **scene_edits[case]}).encode())
        return ["synth", "--scene", str(scene), "--out", str(tmp / "out")]
    assert case == "target_out_of_range"
    return ["depth", *volume, "--out", str(tmp / "d.pfm"), "--dump-cv", str(tmp / "v.swpcv"),
            "--target", "9"]


@pytest.mark.parametrize("case", [
    "state_without_d_max",
    "state_not_json",
    "aug_p_plus_q_above_one",
    "negative_focal_length",
    "target_out_of_range",
    "intrinsics_without_fy",
    "pose_not_json",
    "pose_with_8_rotation_entries",
    "plane_without_normal",
    "texture_unknown_key",
    "texture_unknown_kind",
    "scene_with_one_pose",
    "plane_normal_with_2_entries",
    "plane_albedo_with_2_entries",
    "mover_half_size_with_1_entry",
    "texture_zero_period",
    "target_index_out_of_range",
    "mover_half_size_not_positive",
    "intrinsics_not_utf8",
    "scene_not_utf8",
    "d_max_inf",
    "state_d_max_infinity",
    "student_with_nan_pixel",
    "too_many_planes",
    "pred_with_nan_pixel",
    "intrinsics_fx_nan",
    "intrinsics_fx_infinity",
    "pose_translation_nan",
    "state_with_unknown_key",
    "state_momentum_one",
    "state_d_min_true",
    "state_momentum_false",
    "state_frozen_zero",
    "augment_sample_negative",
    "augment_sample_over_64_bits",
    "pred_all_zero_median_scale",
    "frame_size_mismatch_loss",
    "frame_size_mismatch_depth",
    "repeated_source",
    "d_min_float32_zero",
    "d_max_float32_inf",
    "scene_too_large",
    "scene_too_large_intrinsics",
    "render_phase_overflow",
    "render_amplitude_overflow",
    "render_noise_cell_underflow",
    "render_camera_far",
    "render_wall_past_float32",
    "render_mover_at_zero_depth",
    "render_mover_bounds_overflow",
    "intrinsics_width_fraction",
    "intrinsics_height_boolean",
    "intrinsics_width_string",
    "target_index_fraction",
    "scene_height_boolean",
    "scene_width_string",
    "scene_seed_fraction",
    "plane_normal_as_text",
    "plane_offset_true",
    "camera_motion_entry_as_text",
    "plane_normal_entries_as_text",
    "pose_translation_entries_as_text",
    "camera_motion_entries_as_text",
    "intrinsics_fx_true",
    "pose_rotation_all_booleans",
    "aug_p_plus_q_above_one_zero_cv",
    "intrinsics_fx_as_text",
    "state_d_max_as_text",
    "texture_amp_x_as_text",
    "pose_far_out_of_view_depth",
    "pose_far_out_of_view_loss",
    "pose_far_overflow_depth",
    "pose_far_overflow_loss_zero_cv",
])
def test_bad_input_is_a_typed_error(case, lateral_dataset, tmp_path):
    argv = _bad_input_argv(case, lateral_dataset, tmp_path)
    src = str(Path(sweepdepth.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-m", "sweepdepth", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:"), proc.stderr
    assert "Traceback" not in proc.stderr
    if case == "target_out_of_range":
        assert "target 9 out of range" in proc.stderr
    if case.startswith(("too_many_planes", "scene_too_large")):
        assert "budget" in proc.stderr
    if case.startswith("frame_size_mismatch"):
        assert "frame_0002.ppm" in proc.stderr
    if case == "repeated_source":
        assert "repeated source index 0" in proc.stderr
    if case.startswith(("d_min_float32", "d_max_float32")):
        assert "<= 3.4028235e+38" in proc.stderr and "Warning" not in proc.stderr
    if case == "pred_all_zero_median_scale":
        assert "median" in proc.stderr and "Warning" not in proc.stderr
    if case.startswith("render_"):
        assert "error: frame " in proc.stderr and "Warning" not in proc.stderr
    if case == "pred_with_nan_pixel":
        assert proc.stdout == "" and not (tmp_path / "err.ppm").exists()
    if case.endswith(("_fraction", "_boolean", "_string")):
        assert "must be a whole number" in proc.stderr
    # JSON true is not 1, nor 0 a boolean, and "001" is no vector
    if case.endswith(("_as_text", "_true", "_false", "_all_booleans", "frozen_zero")):
        assert "must be" in proc.stderr
    if case.startswith("aug_p_plus_q_above_one"):
        assert "p + q <= 1" in proc.stderr
    if case.startswith("pose_far"):  # the camera and the warped poses share the blame
        assert "pose_0000.json" in proc.stderr and "intrinsics.json" in proc.stderr
        assert ("overflows" in proc.stderr) == case.startswith("pose_far_overflow"), proc.stderr
    if argv[0] == "synth":
        assert not (tmp_path / "out").exists()
    if case.startswith(("intrinsics", "pose", "plane", "texture_unknown_key", "mover",
                        "texture_zero_period", "target_index", "scene_not_utf8", "scene_too_large",
                        "state_d_max_infinity", "state_with_unknown_key", "state_momentum",
                        "state_d_min", "state_frozen", "state_d_max_as_text", "texture_amp_x",
                        "scene_height", "scene_width", "scene_seed", "camera_motion")):
        assert ".json" in proc.stderr
