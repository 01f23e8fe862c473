"""Seeded generator for the KITTI-sized benchmark scene.

The scene is the library's desk geometry (a far wall at z = 5.4 and a
slanted floor) with the default moving box, seen by a 640x192 camera with
KITTI's normalised focal lengths (fx = 0.58 W, fy = 1.92 H) over 5 frames
of 0.1 lateral baseline. The seed only shifts the phases of the two
background gratings: every seed gives the same geometry, depth range and
mover, so seeds differ in texture but not in difficulty or work.

    python3 perfbench/kitti_scene.py --seed 0 --out scene.json
    python3 perfbench/kitti_scene.py --check   # committed JSON == generator
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

WIDTH, HEIGHT = 640, 192
FRAMES = 5
BASELINE = 0.1
DEFAULT_SEED = 0
COMMITTED = Path(__file__).resolve().parent / "scenes" / f"kitti_{WIDTH}x{HEIGHT}_seed{DEFAULT_SEED}.json"


def make_scene(seed: int) -> dict:
    """Scene description in the schema read by ``sweepdepth.synth.load_scene_setup``."""
    rng = random.Random(seed)

    def phase() -> float:
        return round(rng.random(), 6)

    wall_texture = {
        "kind": "grating", "period_x": 1.4, "period_y": 1.9, "amp_x": 0.24, "amp_y": 0.18,
        "phase_x": phase(), "phase_y": phase(),
    }
    floor_texture = {
        "kind": "grating", "period_x": 1.0, "period_y": 1.3, "amp_x": 0.22, "amp_y": 0.2,
        "phase_x": phase(), "phase_y": phase(),
    }
    return {
        "intrinsics": {
            "fx": 0.58 * WIDTH, "fy": 1.92 * HEIGHT,
            "cx": (WIDTH - 1) / 2.0, "cy": (HEIGHT - 1) / 2.0,
            "width": WIDTH, "height": HEIGHT,
        },
        "planes": [
            {"normal": [0.0, 0.0, 1.0], "offset": 5.4, "texture": wall_texture,
             "albedo": [0.95, 0.8, 0.65]},
            {"normal": [0.0, 1.0, 0.38], "offset": 2.1, "texture": floor_texture,
             "albedo": [0.65, 0.85, 0.95]},
        ],
        "mover": {
            "center": [0.1, 0.05, 2.5], "half_size": [0.45, 0.35], "velocity": [0.06, 0.0, 0.0],
            "texture": {"kind": "grating", "period_x": 0.35, "period_y": 0.3, "amp_x": 0.25,
                        "amp_y": 0.22, "phase_x": 0.52, "phase_y": 0.9},
            "albedo": [0.9, 0.35, 0.3],
        },
        "camera_motion": [[round(BASELINE * t, 10), 0.0, 0.0] for t in range(FRAMES)],
        "seed": seed,
        "target_index": 2,
    }


def scene_text(seed: int) -> str:
    return json.dumps(make_scene(seed), indent=2) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", default=None, help="write here instead of stdout")
    parser.add_argument("--check", action="store_true",
                        help="verify the committed default-seed JSON matches the generator")
    args = parser.parse_args(argv)
    if args.check:
        if COMMITTED.read_text() != scene_text(DEFAULT_SEED):
            print(f"error: {COMMITTED.name} differs from make_scene({DEFAULT_SEED})", file=sys.stderr)
            return 1
        print(f"ok: {COMMITTED.name} matches make_scene({DEFAULT_SEED})")
        return 0
    if args.out:
        Path(args.out).write_text(scene_text(args.seed))
    else:
        sys.stdout.write(scene_text(args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
