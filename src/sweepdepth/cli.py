"""Command-line driver for the full pipeline.

Subcommands:
  synth  render a bundled or JSON-described scene to a dataset directory
  depth  estimate depth from a dataset via the cost-volume argmin; --dump-cv FILE
         also writes the raw volume (SWPCV1, or SWPCV2 for non-linear planes)
  loss   compute the full loss report for a student/teacher depth pair
  eval   score a predicted depth map against ground truth

Datasets are directories of frame_%04d.ppm, depth_%04d.pfm, pose_%04d.json
(camera-to-world), and intrinsics.json, as written by `synth`. `synth --out D`
also removes the frame, depth and pose files D holds past the new last frame,
up to the first missing index, and D's mover.json when the scene has no mover;
it leaves every other file in D alone. Width, height, seed and target index
in a JSON input must be whole numbers: 64 or 64.0, not 64.9, true or "64", and
every other number a JSON number: 0.5, not "0.5".

Every subcommand prints one JSON object, indented by 2, on stdout; for `loss`
and `eval` with --out it is byte-identical to that file. Dense output is PFM.
Exit code is 0 iff the requested outputs were written; malformed inputs
produce a typed message on stderr and exit code 1, and so do two outputs of
one command that name the same file, before anything is written.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import itertools
import json
import os
import sys
from collections.abc import Callable, Iterator, Sequence
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as sdio
from .augment import Augmentation, AugmentConfig, apply_augmentation, draw_augmentation
from .costvolume import (
    DEFAULT_PLANE_COUNT,
    AdaptiveRangeState,
    DepthPlaneSet,
    check_volume_size,
    started_sweep_argmin,
    upsample_nearest,
)
from .errors import HomographyOverflow, InvalidParameter, NothingInView, ShapeMismatch, SweepDepthError
from .evaluation import (
    CROP_SCHEMES,
    DEPTH_CAP,
    PRED_FLOOR,
    abs_rel_error_map,
    crop,
    depth_metrics,
    error_heatmap,
    median_scale,
)
from .features import EXTRACTOR_KINDS, VALID_SCALES, FeatureMap, extract_features
from .geometry import Intrinsics, Pose, bilinear_sample, reproject_grid
from .losses import _smoothness_out, consistency_mask, smoothness_loss, total_loss
from .synth import (
    PRESET_NAMES,
    Frame,
    SceneSetup,
    load_scene_setup,
    mover_rect,
    preset_scene,
    relative_pose,
    render_sequence,
)


class _Frames(Sequence):
    """A dataset's images, indexed by frame. A frame's file is read, with every check of
    ``load_dataset``, when the frame is first read, and from then on held as its uint8
    samples: a command holds the samples of only the frames it reads. Each read decodes
    them to floats in [0, 1] by ``io.unit_floats``; no decoded copy is kept, so a frame's
    floats live only as long as its reader holds them."""

    def __init__(self, paths: list[Path], K: Intrinsics):
        self._paths = paths
        self._K = K
        self._samples: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._paths)

    def __getitem__(self, t: int) -> np.ndarray:
        t = range(len(self._paths))[t]  # -1 is the last frame; past the end is an IndexError
        if t not in self._samples:
            self._samples[t] = _frame_samples(self._paths[t], self._K)
        return sdio.unit_floats(self._samples[t])


@dataclass
class Dataset:
    K: Intrinsics
    images: Sequence[np.ndarray]
    poses: list[Pose]


def _frame_files(root: Path, t: int) -> tuple[Path, Path, Path]:
    """Frame ``t``'s image, ground-truth depth and pose files in a dataset directory."""
    return root / f"frame_{t:04d}.ppm", root / f"depth_{t:04d}.pfm", root / f"pose_{t:04d}.json"


def _frame_samples(path: Path, K: Intrinsics) -> np.ndarray:
    """The uint8 samples of the frame file ``path``; a bad header or payload, or a size
    other than intrinsics.json's, raises naming the file."""
    samples = sdio.read_ppm_samples(path)
    if samples.shape[:2] != (K.height, K.width):
        raise ShapeMismatch(f"{path} is not the {K.width}x{K.height} of intrinsics.json")
    return samples


def load_dataset(root: str | Path) -> Dataset:
    """The dataset under ``root``. Every frame's header, payload length and size against
    intrinsics.json are checked here, and a bad one raises naming its file. No frame's
    samples are kept: ``images`` reads a frame's file again, with the same checks, when a
    command first reads that frame."""
    root = Path(root)
    K = sdio.read_intrinsics(root / "intrinsics.json")
    paths, poses = [], []
    for t in itertools.count():
        frame, _depth, pose = _frame_files(root, t)
        if not frame.exists():
            break
        _frame_samples(frame, K)
        paths.append(frame)
        poses.append(sdio.read_pose(pose))
    if not paths:
        raise SweepDepthError(f"no frames under {root}: {frame} is missing")
    return Dataset(K=K, images=_Frames(paths, K), poses=poses)


def _resolve_planes(args) -> DepthPlaneSet:
    """Planes over --d-min to --d-max, or over the range of the --adaptive-state record."""
    from_flags = not args.adaptive_state
    if (args.d_min is not None, args.d_max is not None) != (from_flags, from_flags):
        raise SweepDepthError("give --d-min with --d-max, or --adaptive-state alone")
    if from_flags:
        d_min, d_max = args.d_min, args.d_max
    else:
        state = sdio.read_json(args.adaptive_state, _state_from_json)
        d_min, d_max = state.d_min, state.d_max
    spacing = "inverse" if args.inverse_depth_planes else "linear"
    return DepthPlaneSet(d_min, d_max, args.planes, spacing)


def _state_from_json(obj: dict) -> AdaptiveRangeState:
    """An --adaptive-state record: numbers ``d_min``, ``d_max`` and ``momentum`` (by
    ``io.number``) and the boolean ``frozen``; any other key fails."""
    if not isinstance(obj.get("frozen", False), bool):
        raise InvalidParameter(f"frozen must be true or false, got {obj['frozen']!r}")
    numbers = {name: sdio.number(obj[name], name) for name in ("d_min", "d_max", "momentum") if name in obj}
    return AdaptiveRangeState(**{**obj, **numbers})


def _check_frames(target: int, source_idxs: list[int], count: int) -> None:
    if not (0 <= target < count):
        raise SweepDepthError(f"target {target} out of range for {count}-frame dataset")
    for i in source_idxs:
        if not (0 <= i < count) or i == target or source_idxs.count(i) > 1:
            raise SweepDepthError(f"bad or repeated source index {i} for {count}-frame dataset")


@dataclass(frozen=True)
class _Sweep:
    """The plane sweep a command line asks for: its planes, its (H', W', P)
    volume shape, and the features, sources and intrinsics to sweep, or None
    when the all-zeros volume stands in for it (--zero-cv or a ZERO_VOLUME draw)."""

    planes: DepthPlaneSet
    shape: tuple[int, int, int]
    inputs: tuple[FeatureMap, list[tuple[FeatureMap, Pose]], Intrinsics] | None

    def started(self, task: Callable[[], None] | None, out: np.ndarray | None) -> AbstractContextManager:
        """``costvolume.started_sweep_argmin`` of this sweep, with ``task`` and ``out``. With no
        sweep, the callable the block gets runs ``task`` on the calling thread and leaves ``out``
        as it is; every cost ties at 0, so its depth is the first plane's, valid everywhere."""
        if self.inputs is not None:
            return started_sweep_argmin(*self.inputs, self.planes, task, out=out)

        def join() -> tuple[np.ndarray, np.ndarray]:
            if task is not None:
                task()
            return np.full(self.shape[:2], self.planes.depths[0]), np.ones(self.shape[:2], bool)

        return nullcontext(join)


def _sweep_for(args, data: Dataset, source_idxs: list[int] | None) -> _Sweep:
    """The plane sweep for ``args.target``, honoring --zero-cv and augmentation. The
    default source, the frame before the target, is needed only when a sweep runs: the
    zero volume stands in at the first frame too. Each frame is decoded at most once and
    dropped once its features exist: only the features outlive this call."""
    target = args.target
    _check_frames(target, source_idxs or [], len(data.images))
    K_f = data.K.scaled(args.feature_scale)
    shape = (K_f.height, K_f.width, args.planes)
    check_volume_size(*shape)  # before the plane set allocates its depths
    planes = _resolve_planes(args)
    decision = Augmentation.NONE
    if args.augment_sample is not None:  # drawn first: bad flags are an error under --zero-cv too
        cfg = AugmentConfig(p=args.aug_p, q=args.aug_q, rng_seed=args.seed)
        decision = draw_augmentation(cfg, args.augment_sample)

    if args.zero_cv or decision is Augmentation.ZERO_VOLUME:
        return _Sweep(planes, shape, None)
    if source_idxs is None:
        if target == 0:
            raise SweepDepthError("target 0 has no preceding frame to sweep against: "
                                  "name its sources, or use --zero-cv")
        source_idxs = [target - 1]

    def features(image: np.ndarray) -> FeatureMap:
        return extract_features(image, args.features, args.feature_scale)

    # The target is held past its features only for an augmentation draw, which may
    # substitute it, jittered, for the first source.
    target_image = data.images[target]
    f_target = features(target_image)
    fmaps = {}
    if args.augment_sample is not None:
        first = source_idxs[0]
        fmaps[first] = features(apply_augmentation(
            decision, target_image, data.images[first], cfg, args.augment_sample))
    del target_image
    sources = [(fmaps[i] if i in fmaps else features(data.images[i]),
                relative_pose(data.poses[target], data.poses[i])) for i in source_idxs]
    return _Sweep(planes, shape, (f_target, sources, K_f))


@contextmanager
def _camera_at_fault(root: str, frames: list[int]) -> Iterator[None]:
    """Name intrinsics.json and the pose files of ``frames`` in front of a HomographyOverflow
    or NothingInView raised inside: the camera and the poses of the frames a command warps
    together overflow a homography or move every pixel out of view, and either may be at fault."""
    try:
        yield
    except (HomographyOverflow, NothingInView) as exc:
        root = Path(root)
        files = [root / "intrinsics.json", *(_frame_files(root, t)[2] for t in dict.fromkeys(frames))]
        raise type(exc)(f"{', '.join(map(str, files))}: {exc}") from exc


def _check_outputs(outputs: dict[str, str | None]) -> None:
    """Refuse two outputs (keyed by what they hold) that resolve to the same file."""
    seen: dict[str, str] = {}
    for what, path in outputs.items():
        if path is None:
            continue
        where = os.path.realpath(path)
        if where in seen:
            raise SweepDepthError(
                f"the {seen[where]} and the {what} would both be written to {path}"
            )
        seen[where] = what


def _report(report, out: str | None) -> dict:
    """A report's JSON object, also written to ``out`` when given."""
    obj = report.to_json_dict()
    if out:
        sdio.write_json(out, obj)
    return obj


def cmd_synth(args) -> dict:
    if args.scene in PRESET_NAMES:
        setup: SceneSetup = preset_scene(args.scene, seed=args.seed)
    elif Path(args.scene).exists():
        setup = load_scene_setup(args.scene)
    else:
        raise SweepDepthError(
            f"scene {args.scene!r} is neither a preset {PRESET_NAMES} nor a file"
        )
    # each frame is held as what its files store, 8-bit samples and float32 depth, so only
    # the frame being rendered is held as float64 (map keeps no frame alive while the next
    # renders, as a comprehension's loop variable would); every frame renders before any write
    stored = list(map(_stored, render_sequence(setup.scene, setup.poses, setup.K)))
    rects = [
        {"time": t, "rect": mover_rect(setup.scene, pose, setup.K, t)}
        for t, pose in enumerate(setup.poses)
    ]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # the extra frames of a longer scene written here before must go: load_dataset reads
    # frames up to the first missing index
    t = len(stored)
    while stale := [path for path in _frame_files(out, t) if path.exists()]:
        for path in stale:
            path.unlink()
        t += 1
    sdio.write_intrinsics(out / "intrinsics.json", setup.K)
    for t, (samples, depth_gt, pose) in enumerate(stored):
        image, depth, pose_file = _frame_files(out, t)
        sdio.write_ppm_samples(image, samples)
        sdio.write_pfm(depth, depth_gt)
        sdio.write_pose(pose_file, pose)
    if setup.scene.mover is not None:
        sdio.write_json(out / "mover.json", {"frames": rects})
    else:
        (out / "mover.json").unlink(missing_ok=True)
    return {"out": str(out), "frames": len(stored), "target_index": setup.target_index}


def _stored(frame: Frame) -> tuple[np.ndarray, np.ndarray, Pose]:
    """A rendered frame as its files store it: 8-bit RGB samples, float32 depth and pose."""
    return sdio.unit_samples(frame.image), frame.depth_gt.astype(np.float32), frame.pose


def cmd_depth(args) -> dict:
    if args.mask_out and not args.teacher:
        raise SweepDepthError("--mask-out needs --teacher")
    mask_path = (args.mask_out or str(Path(args.out).with_suffix(".mask.pfm"))) if args.teacher else None
    _check_outputs({"depth": args.out, "mask": mask_path, "cost volume": args.dump_cv})
    data = load_dataset(args.data)
    sweep = _sweep_for(args, data, args.sources)
    h, w, p = sweep.shape
    # a dump's plane-major float32 payload, filled run by run; zeros are the zero volume's
    payload = np.zeros((p, h * w), np.float32) if args.dump_cv else None
    with _camera_at_fault(args.data, [args.target, *(args.sources or [args.target - 1])]):
        with sweep.started(None, out=payload) as join:
            depth_f, valid = join()
        if not valid.any():
            raise NothingInView("no pixel of the target lands inside a source image at any plane")
    depth_img = upsample_nearest(depth_f, args.feature_scale, data.K.height, data.K.width)
    # scored before --out, which may name the teacher's file, is written
    mask = consistency_mask(depth_img, sdio.read_pfm(args.teacher)) if args.teacher else None
    sdio.write_pfm(args.out, depth_img)
    written = {"depth": str(args.out)}

    if mask is not None:
        sdio.write_pfm(mask_path, mask.astype(float))
        written["mask"] = mask_path
        written["mask_fraction"] = float(mask.mean())
    if args.dump_cv:
        sdio.write_cost_volume(args.dump_cv, payload.reshape(p, h, w), sweep.planes)
        written["cost_volume"] = str(args.dump_cv)
    written["argmin_valid_fraction"] = float(valid.mean())
    return written


def cmd_loss(args) -> dict:
    data = load_dataset(args.data)
    target = args.target
    loss_sources = args.sources or [i for i in (target - 1, target + 1) if 0 <= i < len(data.images)]
    _check_frames(target, loss_sources, len(data.images))

    student = sdio.read_pfm(args.student)
    teacher = sdio.read_pfm(args.teacher)
    sweep = _sweep_for(args, data, args.cv_sources)
    target_image = data.images[target]
    # Allocated here, not on the sweep's thread, where they would land in its own malloc
    # arena and raise the peak RSS (ROADMAP "Settled").
    smoothness_out = _smoothness_out(student, target_image)
    ls = []  # the smoothness term, handed over once the sweep is joined

    def smoothness() -> None:
        ls.append(smoothness_loss(student, target_image, out=smoothness_out))

    # Only the mask reads the sweep's depth: the sweep's thread scores the smoothness term
    # after its slab while this thread warps the sources and scores the photometric term,
    # and joins both for the mask.
    cv_sources = [] if sweep.inputs is None else args.cv_sources or [target - 1]
    with _camera_at_fault(args.data, [target, *loss_sources, *cv_sources]), \
            sweep.started(smoothness, out=None) as join:
        synthesized = []
        for i in loss_sources:
            grid = reproject_grid(student, relative_pose(data.poses[target], data.poses[i]), data.K)
            synthesized.append(bilinear_sample(data.images[i], grid))
        if not any(valid.any() for _image, valid in synthesized):
            raise NothingInView("no pixel of the target reprojects inside a source image")

        def d_cv() -> np.ndarray:
            depth_f, _valid = join()
            return upsample_nearest(depth_f, args.feature_scale, data.K.height, data.K.width)

        report = total_loss(target_image, synthesized, student, teacher, d_cv, ls.pop)
    return _report(report, args.out)


def cmd_eval(args) -> dict:
    _check_outputs({"error map": args.error_map, "report": args.out})
    pred = crop(sdio.read_pfm(args.pred), args.crop)
    gt = crop(sdio.read_pfm(args.gt), args.crop)
    if args.median_scale:
        valid = (gt > 0) & (gt < DEPTH_CAP)
        pred = median_scale(pred, gt, valid)
    report = depth_metrics(pred, gt)
    if args.error_map:
        err, _valid = abs_rel_error_map(np.clip(pred, PRED_FLOOR, DEPTH_CAP), gt)
        path = Path(args.error_map)
        if path.suffix.lower() == ".ppm":
            sdio.write_ppm(path, error_heatmap(err))
        else:
            sdio.write_pfm(path, err)
    return _report(report, args.out)


def _add_volume_options(
    p: argparse.ArgumentParser,
    sources_help: str = "source frame indices (default: the preceding frame)",
) -> None:
    p.add_argument("--features", choices=EXTRACTOR_KINDS, default="gradient")
    p.add_argument("--feature-scale", type=int, choices=VALID_SCALES, default=4,
                   help="feature downsample factor (default quarter resolution)")
    p.add_argument("--planes", type=int, default=DEFAULT_PLANE_COUNT, help="number of depth planes")
    p.add_argument("--d-min", type=float, default=None)
    p.add_argument("--d-max", type=float, default=None)
    p.add_argument("--adaptive-state", default=None,
                   help="JSON file with running d_min/d_max estimates")
    p.add_argument("--zero-cv", action="store_true",
                   help="substitute the all-zeros cost volume (no-source path)")
    p.add_argument("--inverse-depth-planes", action="store_true",
                   help="experimental: space planes uniformly in 1/depth")
    p.add_argument("--aug-p", type=float, default=AugmentConfig.p)
    p.add_argument("--aug-q", type=float, default=AugmentConfig.q)
    p.add_argument("--seed", type=int, default=AugmentConfig.rng_seed)
    p.add_argument("--augment-sample", type=int, default=None,
                   help="apply the seeded augmentation draw for this sample index")
    p.add_argument("--target", type=int, default=1)
    p.add_argument("--sources", type=int, nargs="+", default=None, help=sources_help)


@functools.cache  # built once per process; parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sweepdepth", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a synthetic dataset")
    p.add_argument("--scene", required=True,
                   help=f"preset name {PRESET_NAMES} or scene JSON path")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("depth", help="cost-volume argmin depth")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output depth PFM")
    p.add_argument("--teacher", default=None, help="teacher depth PFM; writes the consistency mask")
    p.add_argument("--mask-out", default=None)
    p.add_argument("--dump-cv", default=None, help="also write the raw cost volume here")
    _add_volume_options(p)

    p = sub.add_parser("loss", help="full loss report")
    p.add_argument("--data", required=True)
    p.add_argument("--student", required=True, help="student depth PFM")
    p.add_argument("--teacher", required=True, help="teacher depth PFM")
    p.add_argument("--cv-sources", type=int, nargs="+", default=None,
                   help="source indices for the cost volume (default: the preceding frame)")
    p.add_argument("--out", default=None)
    _add_volume_options(p, "reprojection source indices for the photometric loss "
                           "(default: both neighbours of --target)")

    p = sub.add_parser("eval", help="depth metrics")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--crop", choices=CROP_SCHEMES, default="none")
    p.add_argument("--median-scale", action="store_true")
    p.add_argument("--error-map", default=None,
                   help="write the abs-rel error map (.pfm raw or .ppm heatmap)")
    p.add_argument("--out", default=None)

    return parser


# glibc's mallopt parameters and their values: blocks under 32 MiB, the largest mmap threshold
# glibc's own dynamic rule reaches on 64-bit, come from the heap, which trims in 64 MiB steps
_M_TOP_PAD, _M_MMAP_THRESHOLD = -2, -3
_HEAP_PAD, _MMAP_THRESHOLD = 64 << 20, 32 << 20


def _keep_freed_heap() -> bool:
    """Make glibc keep the heap pages a command frees, and say whether it took. glibc gives
    freed multi-MB numpy buffers back to the kernel, so each command in a process faults its
    working set in again; with a 64 MiB top pad the next command reuses the freed pages.
    Setting any of glibc's pad or thresholds freezes its dynamic mmap threshold where it
    stands, at 128 KiB in a fresh process, and every larger array is then a fresh mmap, so the
    threshold is set first, to the 32 MiB that rule would reach. Called from `main`, not at
    import, since a library must not change its importer's allocator."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name here
        return False
    if not (libc or "").startswith("glibc"):
        return False
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    return (mallopt is not None and mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) != 0
            and mallopt(_M_TOP_PAD, _HEAP_PAD) != 0)


def main(argv: list[str] | None = None) -> int:
    _keep_freed_heap()
    args = build_parser().parse_args(argv)
    # looked up at call time: a cmd_* re-bound after the parser was built is the one that runs
    command = globals()["cmd_" + args.command]
    try:
        print(json.dumps(command(args), indent=2))
    except (SweepDepthError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
