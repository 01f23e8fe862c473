"""Damaged dataset files and hostile option values are typed errors or valid output."""

import contextlib
import io
import json
import math
import shutil
import tempfile
import warnings
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
# Sample 2 draws STATIC_SUBSTITUTE at the default --aug-p, --aug-q and --seed, so every
# `depth` and `loss` sweeps, and a dump is filled by the sweep; sample 0 draws the zero volume.
_VOLUME = ["--d-min", "1", "--d-max", "10", "--planes", "4", "--augment-sample", "2"]


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
    assert command == "depth_dump_cv"
    return ["depth", "--data", str(data), *_VOLUME, "--out", str(tmp / "d.pfm"),
            "--dump-cv", str(tmp / "v.swpcv")]


_FILES = ["intrinsics.json", "state.json"] + [
    f"{stem}_{t:04d}.{ext}" for t in range(3)
    for stem, ext in (("frame", "ppm"), ("depth", "pfm"), ("pose", "json"))
]
_DAMAGE = ("drop", "truncate", "corrupt")
_FLOAT_OPTIONS = {
    "depth": ("--d-min", "--d-max", "--aug-p", "--aug-q"),
    "loss": ("--d-min", "--d-max", "--aug-p", "--aug-q"),
    "depth_dump_cv": ("--d-min", "--d-max", "--aug-p", "--aug-q"),
}
_INT_OPTIONS = {
    "depth": ("--planes", "--seed", "--augment-sample", "--target", "--sources"),
    "loss": ("--planes", "--seed", "--augment-sample", "--target", "--sources", "--cv-sources"),
    "depth_dump_cv": ("--planes", "--seed", "--augment-sample", "--target", "--sources"),
}
_HOSTILE = ("nan", "inf", "-1", "0", "1e308")

# Every (command, kind, what, how). Integer options only take the hostile
# values that parse as integers: argparse itself rejects the rest. A "resize"d
# frame is whole but not the size intrinsics.json gives.
CASES = (
    [(command, "file", name, how)
     for command in ("depth", "depth_adaptive", "loss", "eval", "depth_dump_cv")
     for name in _FILES for how in _DAMAGE]
    + [(command, "file", f"frame_{t:04d}.ppm", "resize")
       for command in ("depth", "depth_adaptive", "loss", "depth_dump_cv") for t in range(3)]
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


@pytest.mark.parametrize("case", CASES, ids=["-".join(case) for case in CASES])
def test_hostile_input_exits_cleanly(dataset, tmp_path, case):
    code, out, err = _run(case, dataset, tmp_path)
    assert code == 0 or (code == 1 and err.startswith("error:")), (code, err)
    if case[3] == "resize":
        assert code == 1 and case[2] in err, (code, err)
    if code == 0:
        # Every JSON report, printed or written, is valid JSON.
        reports = [out] + [p.read_text() for p in tmp_path.glob("*.json")]
        for report in reports:
            _strict_json(report)


@pytest.mark.parametrize("command", ["depth", "depth_dump_cv", "loss"])
@pytest.mark.parametrize("name", ["fx", "fy"])
@pytest.mark.parametrize("value", [5e-324, 1e-308, 1e308, 0.0, -1.0, math.nan, math.inf])
def test_hostile_focal_length(dataset, tmp_path, command, name, value):
    # a well-formed intrinsics.json whose K^-1 may not be finite: 1 / 5e-324 and
    # 7.5 / 1e-308 overflow to inf, and a float division gives inf without a warning
    shutil.copytree(dataset, tmp_path / "data")
    _run_edited(_argv(command, tmp_path / "data", tmp_path), tmp_path, "intrinsics.json", {name: value})


@pytest.mark.parametrize("command", ["depth", "depth_dump_cv", "loss"])
def test_camera_that_sees_nothing_is_refused(dataset, tmp_path, command):
    # fx 1e308 and fy 1e-300 pass Intrinsics, and K R K^-1 is exactly I, but K t / d moves
    # every pixel out of every source image: the argmin is valid nowhere, and the student's
    # reprojections cover no pixel, so a depth map, mask or loss report would say nothing
    shutil.copytree(dataset, tmp_path / "data")
    argv = _argv(command, tmp_path / "data", tmp_path)
    assert _run_edited(argv, tmp_path, "intrinsics.json", {"fx": 1e308, "fy": 1e-300}) == 1


# Values a well-formed JSON file may hold where a number belongs: floats with subnormals,
# +-1e308, NaN, +-inf, 0 and negatives; integers around the 16x12 image size; booleans;
# numeric text; and null.
_FLOATS = st.one_of(st.sampled_from([5e-324, -5e-324, 1e308, -1e308, math.nan, math.inf,
                                     -math.inf, 0.0, -0.0, -1.0]),
                    st.floats(allow_subnormal=True))
_VALUES = st.one_of(_FLOATS, st.integers(-2, 34), st.booleans(),
                    st.one_of(_FLOATS, st.integers(-2, 34)).map(str), st.none())


def _drawn_fields(data, names):
    """Some of ``names``, at least one, each with a drawn hostile value."""
    return data.draw(st.dictionaries(st.sampled_from(names), _VALUES, min_size=1), label="fields")


@settings(max_examples=25, deadline=None)
@given(data=st.data(), command=st.sampled_from(["depth", "depth_dump_cv", "loss"]))
def test_drawn_intrinsics_exit_cleanly(dataset, data, command):
    camera = _drawn_fields(data, ["fx", "fy", "cx", "cy", "width", "height"])
    with tempfile.TemporaryDirectory() as tmp:  # hypothesis refuses function-scoped tmp_path
        tmp = Path(tmp)
        shutil.copytree(dataset, tmp / "data")
        _run_edited(_argv(command, tmp / "data", tmp), tmp, "intrinsics.json", camera)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_drawn_adaptive_state_exits_cleanly(dataset, data):
    state = _drawn_fields(data, ["d_min", "d_max", "momentum", "frozen"])
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copytree(dataset, tmp / "data")
        _run_edited(_argv("depth_adaptive", tmp / "data", tmp), tmp, "state.json", state)


# Entries of a pose file, ("R", 0..8) row-major or ("t", 0..2), with the floats above,
# numeric text or null.
_POSE_ENTRIES = st.dictionaries(
    st.sampled_from([("R", i) for i in range(9)] + [("t", i) for i in range(3)]),
    st.one_of(_FLOATS, _FLOATS.map(str), st.none()), min_size=1)


@settings(max_examples=25, deadline=None)
@given(command=st.sampled_from(["depth", "depth_dump_cv", "loss"]), t=st.integers(0, 2),
       entries=_POSE_ENTRIES)
# a source 1e300 m away sees nothing of the target, and at 1e308 m K t overflows
@example(command="depth", t=0, entries={("t", 0): 1e300})
@example(command="loss", t=0, entries={("t", 0): 1e308})
def test_drawn_pose_exits_cleanly(dataset, command, t, entries):
    name = f"pose_{t:04d}.json"
    pose = json.loads((dataset / name).read_text())
    for (key, i), value in entries.items():
        pose[key][i] = value
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copytree(dataset, tmp / "data")
        _run_edited(_argv(command, tmp / "data", tmp), tmp, name, pose)


def _run_edited(argv, tmp_path, name, fields):
    """Exit code of ``argv`` on the dataset under ``tmp_path / "data"`` with ``fields`` set in
    its JSON file ``name``, after asserting that it warned nowhere, and printed a strict-JSON
    report or failed naming that file with no output file."""
    path = tmp_path / "data" / name
    path.write_text(json.dumps({**json.loads(path.read_text()), **fields}))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    if code == 0:
        _strict_json(out.getvalue())
    else:
        assert code == 1 and err.getvalue().startswith("error:"), (code, err.getvalue())
        assert name in err.getvalue(), err.getvalue()
        assert [p.name for p in tmp_path.iterdir()] == ["data"]
    return code


@pytest.fixture(scope="module")
def rolled_dataset(tmp_path_factory):
    """static_lateral with frame 0's camera rolled 0.05 rad about its optical axis."""
    data = tmp_path_factory.mktemp("rolled") / "data"
    assert main(["synth", "--scene", "static_lateral", "--out", str(data)]) == 0
    c, s = math.cos(0.05), math.sin(0.05)
    (data / "pose_0000.json").write_text(json.dumps({"R": [c, -s, 0, s, c, 0, 0, 0, 1],
                                                     "t": [0, 0, 0]}))
    return data


@pytest.mark.parametrize("command", ["depth", "depth_dump_cv", "loss"])
@pytest.mark.parametrize("fx, fy", [(1e308, 1.0), (1.0, 1e308), (1e300, 1e-300)])
def test_hostile_focal_length_under_rotation(rolled_dataset, tmp_path, command, fx, fy):
    # each camera passes Intrinsics, but under the rolled pose K R K^-1 holds fx / fy
    # and fy / fx times the roll's sine, and its pixel terms up to 63 times that: one
    # of them overflows, at feature scale 1, for every command
    shutil.copytree(rolled_dataset, tmp_path / "data")
    data = str(tmp_path / "data")
    sweep = ["--target", "1", "--feature-scale", "1", "--planes", "4", "--d-min", "1", "--d-max", "10"]
    argv = {
        "depth": ["depth", "--data", data, *sweep, "--sources", "0", "--out", str(tmp_path / "d.pfm")],
        "depth_dump_cv": ["depth", "--data", data, *sweep, "--sources", "0",
                          "--out", str(tmp_path / "d.pfm"), "--dump-cv", str(tmp_path / "v.swpcv")],
        "loss": ["loss", "--data", data, *sweep, "--cv-sources", "0", "--sources", "0",
                 "--student", data + "/depth_0001.pfm", "--teacher", data + "/depth_0001.pfm",
                 "--out", str(tmp_path / "loss.json")],
    }[command]
    assert _run_edited(argv, tmp_path, "intrinsics.json", {"fx": fx, "fy": fy}) == 1


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
