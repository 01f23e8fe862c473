"""Damaged dataset files and hostile option values are typed errors or valid output."""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sweepdepth.cli import main
from sweepdepth.io import write_ppm

# A small static scene: 16x12, one textured wall, three frames.
_SCENE = {
    "width": 16,
    "height": 12,
    "planes": [{"normal": [0.0, 0.0, 1.0], "offset": 4.0,
                "texture": {"kind": "grating", "period_x": 1.4, "period_y": 0.9}}],
    "camera_motion": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.2, 0.0, 0.0]],
}
_STATE = {"d_min": 1.0, "d_max": 10.0}
_VOLUME = ["--d-min", "1", "--d-max", "10", "--planes", "4", "--augment-sample", "0"]


def _argv(command, data, tmp):
    """argv of one command on the dataset ``data``; outputs go under ``tmp``."""
    if command == "depth":
        return ["depth", "--data", str(data), *_VOLUME, "--out", str(tmp / "d.pfm"),
                "--teacher", str(data / "depth_0001.pfm")]
    if command == "depth_adaptive":
        return ["depth", "--data", str(data), "--planes", "4", "--out", str(tmp / "d.pfm"),
                "--adaptive-state", str(data / "state.json")]
    if command == "loss":
        return ["loss", "--data", str(data), *_VOLUME, "--student", str(data / "depth_0001.pfm"),
                "--teacher", str(data / "depth_0001.pfm"), "--out", str(tmp / "loss.json")]
    if command == "eval":
        return ["eval", "--pred", str(data / "depth_0001.pfm"), "--gt", str(data / "depth_0002.pfm"),
                "--median-scale", "--error-map", str(tmp / "err.ppm"), "--out", str(tmp / "eval.json")]
    assert command == "dump-cv"
    return ["dump-cv", "--data", str(data), *_VOLUME, "--out", str(tmp / "v.swpcv")]


_FILES = ["intrinsics.json", "state.json"] + [
    f"{stem}_{t:04d}.{ext}" for t in range(3)
    for stem, ext in (("frame", "ppm"), ("depth", "pfm"), ("pose", "json"))
]
_DAMAGE = ("drop", "truncate", "corrupt")
_FLOAT_OPTIONS = {
    "depth": ("--d-min", "--d-max", "--aug-p", "--aug-q"),
    "loss": ("--d-min", "--d-max", "--aug-p", "--aug-q", "--smooth-weight"),
    "eval": ("--cap",),
    "dump-cv": ("--d-min", "--d-max", "--aug-p", "--aug-q"),
}
_INT_OPTIONS = {
    "depth": ("--planes", "--seed", "--augment-sample", "--target", "--sources"),
    "loss": ("--planes", "--seed", "--augment-sample", "--target", "--sources", "--cv-sources"),
    "dump-cv": ("--planes", "--seed", "--augment-sample", "--target", "--sources"),
}
_HOSTILE = ("nan", "inf", "-1", "0", "1e308")

# Every (command, kind, what, how). Integer options only take the hostile
# values that parse as integers: argparse itself rejects the rest. A "resize"d
# frame is whole but not the size intrinsics.json gives.
CASES = (
    [(command, "file", name, how) for command in ("depth", "depth_adaptive", "loss", "eval", "dump-cv")
     for name in _FILES for how in _DAMAGE]
    + [(command, "file", f"frame_{t:04d}.ppm", "resize")
       for command in ("depth", "depth_adaptive", "loss", "dump-cv") for t in range(3)]
    + [(command, "option", option, value) for command, options in _FLOAT_OPTIONS.items()
       for option in options for value in _HOSTILE]
    + [(command, "option", option, value) for command, options in _INT_OPTIONS.items()
       for option in options for value in ("-1", "0")]
)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile")
    scene = root / "scene.json"
    scene.write_text(json.dumps(_SCENE))
    data = root / "data"
    assert main(["synth", "--scene", str(scene), "--out", str(data)]) == 0
    (data / "state.json").write_text(json.dumps(_STATE))
    return data


def _damage(path, how):
    if how == "drop":
        path.unlink()
        return
    if how == "resize":
        write_ppm(path, np.zeros((7, 9, 3)))
        return
    content = path.read_bytes()
    if how == "truncate":
        path.write_bytes(content[: len(content) // 2])
    else:  # every bit of the middle byte flipped
        mid = len(content) // 2
        path.write_bytes(content[:mid] + bytes([content[mid] ^ 0xFF]) + content[mid + 1 :])


def _strict_json(text):
    """Parse ``text`` as JSON, refusing the NaN and Infinity that Python writes but JSON lacks."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def _run(case, data, tmp):
    """Exit code, stdout and stderr of in-process ``main`` on one damaged input."""
    command, kind, what, how = case
    shutil.copytree(data, tmp / "data")
    argv = _argv(command, tmp / "data", tmp)
    if kind == "file":
        _damage(tmp / "data" / what, how)
    else:
        argv += [what, how]  # the last occurrence of an option wins
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(CASES))
@example(("loss", "option", "--smooth-weight", "nan"))
@example(("loss", "option", "--smooth-weight", "inf"))
@example(("loss", "file", "frame_0002.ppm", "resize"))
def test_hostile_input_exits_cleanly(dataset, case):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        code, out, err = _run(case, dataset, tmp)
        assert code == 0 or (code == 1 and err.startswith("error:")), (code, err)
        if case[3] == "resize":
            assert code == 1 and case[2] in err, (code, err)
        if code == 0:
            # Every JSON report, printed or written, is valid JSON.
            reports = [out] + [p.read_text() for p in tmp.glob("*.json")]
            for report in reports:
                _strict_json(report)


@pytest.mark.parametrize("how", ["resize", "truncate"])
def test_unread_frame_is_checked_at_load(dataset, tmp_path, capsys, how):
    # `depth --target 1 --sources 0` never reads frame 2, and still refuses it
    shutil.copytree(dataset, tmp_path / "data")
    _damage(tmp_path / "data" / "frame_0002.ppm", how)
    code = main(["depth", "--data", str(tmp_path / "data"), "--target", "1", "--sources", "0",
                 "--d-min", "1", "--d-max", "10", "--planes", "4", "--out", str(tmp_path / "d.pfm")])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error:") and "frame_0002.ppm" in err, err
    assert not (tmp_path / "d.pfm").exists()
