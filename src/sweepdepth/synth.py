"""Deterministic synthetic scenes: analytic ground truth for the pipeline.

Scenes are built from infinite textured planes (fronto-parallel or slanted,
nearest intersection wins) plus an optional moving textured box. Rendering
is point-sampled with exact per-pixel intersection depths, so warps,
cost-volume recovery, and mask behavior can be checked against closed-form
geometry instead of trained models.

World frame conventions match the camera at identity pose: +z into the
scene, +y down. Textures are functions of the world (x, y) of the hit
point, anchored to the moving box for mover pixels so the box carries its
texture with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .costvolume import MAX_VOLUME_CELLS
from .errors import DegenerateRay, InvalidParameter
from .features import _central_diff_x, _central_diff_y
from .geometry import Intrinsics, Pose, _pixel_rays, project
from .io import intrinsics_from_json, pose_from_json, read_json, whole_number

TEXTURE_KINDS = ("grating", "checker", "noise")


@dataclass(frozen=True)
class Texture:
    """Procedural surface intensity in [0, 1].

    grating: 0.5 + amp_x sin(2 pi (x / period_x + phase_x)) + same in y
    checker: 0.25 / 0.75 cells of size ``cell``
    noise:   smoothstep-interpolated value noise on a ``cell`` lattice,
             keyed by the scene seed

    Every number must be finite; periods and cells must be positive.
    """

    kind: str = "grating"
    period_x: float = 1.0
    period_y: float = 1.0
    amp_x: float = 0.25
    amp_y: float = 0.25
    phase_x: float = 0.0
    phase_y: float = 0.0
    cell: float = 1.0

    def __post_init__(self):
        if self.kind not in TEXTURE_KINDS:
            raise InvalidParameter(f"texture kind {self.kind!r} is not one of {TEXTURE_KINDS}")
        _coerce(self, "texture", **{f.name: None for f in fields(self) if f.name != "kind"})
        for name in ("period_x", "period_y", "cell"):
            if getattr(self, name) <= 0:
                raise InvalidParameter(f"texture {name} must be positive, got {getattr(self, name)}")


def _coerce(obj, label: str, **counts: int | None) -> None:
    """Set each named field of a frozen dataclass to finite floats: a tuple of
    ``count`` entries, or one float where the count is None. Anything else
    raises InvalidParameter."""
    for name, count in counts.items():
        value = getattr(obj, name)
        try:
            out = tuple(float(v) for v in ([value] if count is None else value))
        except (TypeError, ValueError):
            out = ()
        if len(out) != (count or 1) or not all(map(math.isfinite, out)):
            expected = "a finite number" if count is None else f"{count} finite numbers"
            raise InvalidParameter(f"{label} {name} must be {expected}, got {value!r}")
        object.__setattr__(obj, name, out[0] if count is None else out)


@dataclass(frozen=True)
class PlaneElement:
    """Infinite plane normal . X = offset with a texture and an RGB albedo."""

    normal: tuple[float, float, float]
    offset: float
    texture: Texture
    albedo: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        _coerce(self, "plane", normal=3, offset=None, albedo=3)


@dataclass(frozen=True)
class Mover:
    """Fronto-parallel textured box translating rigidly between frames.

    ``center`` is the box center at time 0; at time t it sits at
    center + t * velocity. ``half_size`` is the (x, y) half extent.
    """

    center: tuple[float, float, float]
    half_size: tuple[float, float]
    velocity: tuple[float, float, float]
    texture: Texture
    albedo: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        _coerce(self, "mover", center=3, half_size=2, velocity=3, albedo=3)
        if min(self.half_size) <= 0:
            raise InvalidParameter(f"mover half_size must be positive, got {self.half_size}")

    def position(self, t: float) -> np.ndarray:
        return np.array(self.center) + t * np.array(self.velocity)


@dataclass(frozen=True)
class Scene:
    planes: tuple[PlaneElement, ...]
    mover: Mover | None = None
    seed: int = 0


@dataclass(frozen=True)
class Frame:
    image: np.ndarray
    depth_gt: np.ndarray
    pose: Pose  # camera to world
    time: int


def _value_noise(x: np.ndarray, y: np.ndarray, cell: float, seed: int) -> np.ndarray:
    """Classic lattice value noise with smoothstep blending."""

    def lattice(ix, iy):
        h = np.sin(ix * 12.9898 + iy * 78.233 + seed * 0.5417) * 43758.5453
        return h - np.floor(h)

    gx, gy = x / cell, y / cell
    ix, iy = np.floor(gx), np.floor(gy)
    fx, fy = gx - ix, gy - iy
    wx = fx * fx * (3 - 2 * fx)
    wy = fy * fy * (3 - 2 * fy)
    v00 = lattice(ix, iy)
    v10 = lattice(ix + 1, iy)
    v01 = lattice(ix, iy + 1)
    v11 = lattice(ix + 1, iy + 1)
    return (v00 * (1 - wx) + v10 * wx) * (1 - wy) + (v01 * (1 - wx) + v11 * wx) * wy


def texture_value(tex: Texture, x: np.ndarray, y: np.ndarray, seed: int = 0) -> np.ndarray:
    """Evaluate a texture at surface coordinates (x, y)."""
    if tex.kind == "grating":
        return (
            0.5
            + tex.amp_x * np.sin(2 * np.pi * (x / tex.period_x + tex.phase_x))
            + tex.amp_y * np.sin(2 * np.pi * (y / tex.period_y + tex.phase_y))
        )
    if tex.kind == "checker":
        parity = (np.floor(x / tex.cell) + np.floor(y / tex.cell)) % 2
        return 0.25 + 0.5 * parity
    return 0.1 + 0.8 * _value_noise(x, y, tex.cell, seed)  # "noise"


def _plane_hits(
    normal: tuple[float, float, float], offset: float, origin: np.ndarray, dirs: np.ndarray
) -> np.ndarray:
    """Ray parameter (= camera depth) of the hit on normal . X = offset; inf where missed."""
    n = np.asarray(normal, dtype=float)
    denom = dirs @ n
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (offset - origin @ n) / denom
    s = np.where(np.isfinite(s) & (s > 0), s, np.inf)
    return s


def _nearest_hits(
    scene: Scene, origin: np.ndarray, dirs_w: np.ndarray, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest positive hit depth per ray and the index of that element: the planes
    in order, then the mover. Ties go to the lower index; misses keep (inf, -1)."""
    hits = [_plane_hits(p.normal, p.offset, origin, dirs_w) for p in scene.planes]
    if scene.mover is not None:
        hits.append(_mover_hits(scene.mover, origin, dirs_w, t))
    depth = np.full(dirs_w.shape[:2], np.inf)
    winner = np.full(dirs_w.shape[:2], -1, dtype=int)
    for i, s in enumerate(hits):
        closer = s < depth
        depth = np.where(closer, s, depth)
        winner = np.where(closer, i, winner)
    return depth, winner


def render(scene: Scene, pose: Pose, K: Intrinsics, t: int = 0) -> Frame:
    """Render one frame: nearest-intersection image and exact depth map.

    Extreme but finite scene numbers can overflow on the way; a frame with a
    non-finite pixel, or a depth outside the positive normal float32 range
    that depth maps store, raises InvalidParameter naming frame ``t``.
    """
    with np.errstate(all="ignore"):  # an overflow shows in the frame, checked below
        dirs_w = _pixel_rays(K) @ pose.rotation.T  # camera z component is 1: ray parameter == depth
        origin = pose.translation
        depth, winner = _nearest_hits(scene, origin, dirs_w, t)
        if np.any(np.isinf(depth)):
            raise DegenerateRay(f"frame {t}: some rays hit no scene element at positive depth")

        # (texture, albedo, texture anchor, noise seed), indexed like winner
        surfaces = [(p.texture, p.albedo, (0.0, 0.0), scene.seed) for p in scene.planes]
        if scene.mover is not None:
            m = scene.mover
            surfaces.append((m.texture, m.albedo, m.position(t)[:2], scene.seed + 1))
        points = origin + dirs_w * depth[..., None]
        image = np.zeros((K.height, K.width, 3))
        for i, (texture, albedo, anchor, seed) in enumerate(surfaces):
            sel = winner == i
            if sel.any():
                val = texture_value(
                    texture, points[sel, 0] - anchor[0], points[sel, 1] - anchor[1], seed
                )
                image[sel] = val[:, None] * np.asarray(albedo)
    if not np.isfinite(image).all():
        raise InvalidParameter(f"frame {t}: the scene renders non-finite pixels")
    f32 = np.finfo(np.float32)
    if not (float(f32.tiny) <= depth.min() and depth.max() <= float(f32.max)):
        raise InvalidParameter(
            f"frame {t}: depths {depth.min():.8g} to {depth.max():.8g} leave the float32 "
            f"range [{f32.tiny:.8g}, {f32.max:.8g}]"
        )
    return Frame(image=image, depth_gt=depth, pose=pose, time=t)


def _mover_hits(mover: Mover, origin: np.ndarray, dirs: np.ndarray, t: float) -> np.ndarray:
    """Ray parameter of the hit on the box face at time t; inf outside the box."""
    pos = mover.position(t)
    s = _plane_hits((0.0, 0.0, 1.0), pos[2], origin, dirs)
    px = origin[0] + dirs[..., 0] * s
    py = origin[1] + dirs[..., 1] * s
    hx, hy = mover.half_size
    inside = (
        np.isfinite(s)
        & (np.abs(px - pos[0]) <= hx)
        & (np.abs(py - pos[1]) <= hy)
    )
    return np.where(inside, s, np.inf)


def make_sequence(scene: Scene, camera_motion: list[Pose], K: Intrinsics) -> list[Frame]:
    """Render one frame per pose, advancing the mover by its per-frame velocity."""
    if len(camera_motion) < 2:
        raise InvalidParameter(f"a sequence needs at least 2 poses, got {len(camera_motion)}")
    return [render(scene, pose, K, t) for t, pose in enumerate(camera_motion)]


def relative_pose(target: Pose, source: Pose) -> Pose:
    """Transform mapping target-camera coordinates into the source camera.

    Both arguments are camera-to-world poses.
    """
    return source.inverse().compose(target)


def mover_mask(scene: Scene, pose: Pose, K: Intrinsics, t: int) -> np.ndarray:
    """Boolean image mask of pixels where the mover is the nearest hit."""
    _, winner = _nearest_hits(scene, pose.translation, _pixel_rays(K) @ pose.rotation.T, t)
    return winner == len(scene.planes)


def mover_rect(scene: Scene, pose: Pose, K: Intrinsics, t: int) -> tuple[float, float, float, float] | None:
    """Pixel bounds (u0, v0, u1, v1) of the box's four projected corners; None
    without a mover or when a corner is at or behind the camera plane. Corners
    or bounds that overflow raise InvalidParameter naming frame ``t``."""
    if scene.mover is None:
        return None
    hx, hy = scene.mover.half_size
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite corner or bound
        pos = scene.mover.position(t)
        corners = [[pos[0] + sx * hx, pos[1] + sy * hy, pos[2]] for sx in (-1, 1) for sy in (-1, 1)]
        cam = (np.array(corners) - pose.translation) @ pose.rotation
        if not np.isfinite(cam).all():
            raise InvalidParameter(f"frame {t}: the mover's corners are not finite")
        if np.any(cam[:, 2] <= 0):
            return None
        u, v = np.array([project(c, K) for c in cam]).T
    rect = (float(u.min()), float(v.min()), float(u.max()), float(v.max()))
    if not all(map(math.isfinite, rect)):
        raise InvalidParameter(f"frame {t}: the mover's pixel bounds {rect} are not finite")
    return rect


def texture_contrast_mask(gray: np.ndarray, threshold: float = 0.01) -> np.ndarray:
    """Pixels with local intensity gradient above ``threshold`` per pixel."""
    return np.hypot(_central_diff_x(gray), _central_diff_y(gray)) > threshold


@dataclass(frozen=True)
class SceneSetup:
    """A scene with its camera trajectory, intrinsics and target frame."""

    scene: Scene
    poses: list[Pose]
    K: Intrinsics
    target_index: int = 1


# The desk scene: a far wall, a slanted floor filling the lower half, and a
# laterally drifting box, seen by the default 64x48 camera.
_WALL = {
    "normal": [0.0, 0.0, 1.0], "offset": 5.4, "albedo": [0.95, 0.8, 0.65],
    "texture": {"kind": "grating", "period_x": 1.4, "period_y": 1.9, "amp_x": 0.24,
                "amp_y": 0.18, "phase_x": 0.13, "phase_y": 0.41},
}
_FLOOR = {
    "normal": [0.0, 1.0, 0.38], "offset": 2.1, "albedo": [0.65, 0.85, 0.95],
    "texture": {"kind": "grating", "period_x": 1.0, "period_y": 1.3, "amp_x": 0.22,
                "amp_y": 0.2, "phase_x": 0.71, "phase_y": 0.07},
}
_MOVER = {
    "center": [0.1, 0.05, 2.5], "half_size": [0.45, 0.35], "velocity": [0.06, 0.0, 0.0],
    "albedo": [0.9, 0.35, 0.3],
    "texture": {"kind": "grating", "period_x": 0.35, "period_y": 0.3, "amp_x": 0.25,
                "amp_y": 0.22, "phase_x": 0.52, "phase_y": 0.9},
}
_LATERAL = [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.2, 0.0, 0.0]]

# Bundled verification scenes, in the schema of ``load_scene_setup``.
PRESETS = {
    # rigid scene, camera translating along +x
    "static_lateral": {"planes": [_WALL, _FLOOR], "camera_motion": _LATERAL},
    # rigid scene, camera translating along +z
    "static_forward": {
        "planes": [_WALL, _FLOOR],
        "camera_motion": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.1], [0.0, 0.0, 0.2]],
    },
    # static_lateral plus the drifting box
    "moving_box": {"planes": [_WALL, _FLOOR], "mover": _MOVER, "camera_motion": _LATERAL},
    # rigid scene, three identical poses (zero baseline)
    "static_camera": {"planes": [_WALL, _FLOOR], "camera_motion": [[0.0, 0.0, 0.0]] * 3},
    # static_lateral with a contrast-free far wall
    "textureless_band": {
        "planes": [{**_WALL, "texture": {"kind": "grating", "amp_x": 0.0, "amp_y": 0.0}}, _FLOOR],
        "camera_motion": _LATERAL,
    },
}
PRESET_NAMES = tuple(PRESETS)


def preset_scene(name: str, seed: int = 0) -> SceneSetup:
    """The bundled scene ``PRESETS[name]`` with noise seed ``seed``."""
    if name not in PRESETS:
        raise InvalidParameter(f"unknown scene preset {name!r}; presets are {PRESET_NAMES}")
    return _scene_setup_from_json({**PRESETS[name], "seed": seed})


def load_scene_setup(path) -> SceneSetup:
    """Parse a scene description JSON file, in the schema of ``PRESETS`` (listed in
    the README). Unknown keys, wrong vector lengths, non-finite numbers and
    non-positive texture periods or cells raise a SweepDepthError naming the file."""
    return read_json(path, _scene_setup_from_json)


_SCENE_KEYS = {"planes", "mover", "camera_motion", "intrinsics", "width", "height", "seed",
               "target_index"}


def _scene_setup_from_json(obj: dict) -> SceneSetup:
    def element(cls, desc: dict):
        return cls(**{**desc, "texture": Texture(**desc.get("texture", {}))})

    unknown = set(obj) - _SCENE_KEYS
    if unknown:
        raise InvalidParameter(f"unknown scene keys {sorted(unknown)}")
    planes = tuple(element(PlaneElement, p) for p in obj["planes"])
    mover = element(Mover, obj["mover"]) if obj.get("mover") else None
    if "intrinsics" in obj:
        K = intrinsics_from_json(obj["intrinsics"])
    else:
        w = whole_number(obj.get("width", 64), "width")
        h = whole_number(obj.get("height", 48), "height")
        K = Intrinsics(fx=float(w), fy=float(w), cx=(w - 1) / 2.0, cy=(h - 1) / 2.0,
                       width=w, height=h)
    if K.width * K.height > MAX_VOLUME_CELLS:
        raise InvalidParameter(f"{K.width}x{K.height} pixels exceed the budget of {MAX_VOLUME_CELLS}")
    poses = [
        pose_from_json(p) if isinstance(p, dict) else Pose.from_translation(*p)
        for p in obj["camera_motion"]
    ]
    target_index = whole_number(obj.get("target_index", 1), "target_index")
    if not 0 <= target_index < len(poses):
        raise InvalidParameter(f"target_index {target_index} out of range for {len(poses)} poses")
    return SceneSetup(
        scene=Scene(planes=planes, mover=mover, seed=whole_number(obj.get("seed", 0), "seed")),
        poses=poses,
        K=K,
        target_index=target_index,
    )
