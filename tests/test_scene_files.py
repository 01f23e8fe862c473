"""Scene files and presets share one loader; malformed scene files are typed errors."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepdepth.cli import main
from sweepdepth.io import read_pfm
from sweepdepth.synth import PRESET_NAMES, PRESETS


def _quiet_main(argv):
    """``main(argv)`` with stdout and stderr captured: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_preset_names_are_the_table():
    assert PRESET_NAMES == tuple(PRESETS)


@pytest.mark.parametrize("name", list(PRESETS))
def test_preset_file_matches_preset(name, tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({**PRESETS[name], "seed": 3}))
    from_file, from_name = tmp_path / "file", tmp_path / "name"
    assert _quiet_main(["synth", "--scene", str(scene), "--out", str(from_file)])[0] == 0
    assert _quiet_main(["synth", "--scene", name, "--seed", "3", "--out", str(from_name)])[0] == 0
    names = sorted(p.name for p in from_name.iterdir())
    assert names == sorted(p.name for p in from_file.iterdir())
    for n in names:
        assert (from_file / n).read_bytes() == (from_name / n).read_bytes(), n


# A small valid scene with every kind of field: 16x12, two planes, a mover.
_SMALL = {
    "width": 16,
    "height": 12,
    "seed": 1,
    "target_index": 1,
    "planes": [
        {"normal": [0.0, 0.0, 1.0], "offset": 5.0, "albedo": [0.9, 0.8, 0.7],
         "texture": {"kind": "grating", "period_x": 1.4, "amp_x": 0.2, "phase_y": 0.3}},
        {"normal": [0.0, 1.0, 0.4], "offset": 2.0, "texture": {"kind": "noise", "cell": 0.5}},
    ],
    "mover": {"center": [0.0, 0.0, 2.5], "half_size": [0.4, 0.3], "velocity": [0.05, 0.0, 0.0],
              "albedo": [0.9, 0.3, 0.3], "texture": {"kind": "checker", "cell": 0.2}},
    "camera_motion": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], {"R": [1, 0, 0, 0, 1, 0, 0, 0, 1],
                                                         "t": [0.2, 0.0, 0.0]}],
}


def _paths(node, prefix=()):
    """Every key path and list index under ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


_DROP = object()
# Every (field, value) change; dropping width or height would enlarge the image
# to the 64x48 default, so those two are only ever replaced.
MUTATIONS = [
    (path, value)
    for path in _paths(_SMALL)
    for value in (_DROP, 0, -1, 0.5, 2.5, True, 1e308, 1e-308, "x", None, [], [1.0, 2.0],
                  [1.0, 2.0, 3.0, 4.0])
    if not (value is _DROP and path in (("width",), ("height",)))
]


def mutated_scene(path, value):
    scene = copy.deepcopy(_SMALL)
    parent = scene
    for key in path[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return scene


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(MUTATIONS))
def test_mutated_scene_file_exits_cleanly(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        file, out = Path(tmp) / "scene.json", Path(tmp) / "out"
        file.write_text(json.dumps(mutated_scene(*mutation)))
        code, err = _quiet_main(["synth", "--scene", str(file), "--out", str(out)])
        assert code == 0 or (code == 1 and err.startswith("error:")), (code, err)
        if code == 0:  # what synth writes, the rest of the pipeline can read
            for path in out.glob("depth_*.pfm"):
                depth = read_pfm(path)
                assert (np.isfinite(depth) & (depth > 0)).all(), path
            if (out / "mover.json").exists():
                json.loads((out / "mover.json").read_text(), parse_constant=_reject_constant)


def test_whole_number_floats_are_the_integers(tmp_path):
    as_float = {**_SMALL, "width": 16.0, "height": 12.0, "seed": 1.0, "target_index": 1.0}
    outs = []
    for name, scene in (("int", _SMALL), ("float", as_float)):
        file, out = tmp_path / f"{name}.json", tmp_path / name
        file.write_text(json.dumps(scene))
        assert _quiet_main(["synth", "--scene", str(file), "--out", str(out)])[0] == 0
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outs[0] == outs[1]
