"""The three benchmark workloads.

Each workload makes its inputs from the seed (``prepare``), runs one unit of
work through ``sweepdepth.cli.main`` in-process (``unit``), checks that
unit's outputs cheaply between units (``check``), and after the timed loop
runs the costly checks and returns the quality metrics (``finish``).

A check that fails marks its unit failed; it never aborts the run.
Tolerances, quality floors and the values recorded for the default seed
live in ``expected.json`` beside this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from sweepdepth import cli, costvolume, evaluation, geometry, losses, synth
from sweepdepth import io as sdio
from sweepdepth.augment import Augmentation, AugmentConfig, draw_augmentation
from sweepdepth.features import extract_features

import kitti_scene

EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())
DEFAULT_SEED = kitti_scene.DEFAULT_SEED


class UnitFailed(Exception):
    """A unit raised, exited non-zero, or failed an output check."""


def run_cli(argv: list[str]) -> str:
    """Run one CLI command in-process; return its stdout, raise on non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code
    if rc != 0:
        raise UnitFailed(f"`sweepdepth {argv[0]}` exited {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def require(cond: bool, message: str) -> None:
    if not cond:
        raise UnitFailed(message)


def close(a: float, b: float, tol: dict) -> bool:
    return math.isclose(a, b, rel_tol=tol.get("rel", 0.0), abs_tol=tol.get("abs", 0.0))


def quality(pred: np.ndarray, gt: np.ndarray) -> dict[str, float]:
    """abs_rel and delta1 of a depth map against ground truth, no median scaling."""
    report = evaluation.depth_metrics(pred, gt)
    return {"abs_rel": report.abs_rel, "delta1": report.delta1}


def mean_quality(per_key, names=("abs_rel", "delta1", "mask_iou")) -> dict[str, float]:
    """Mean of each quality metric over targets or presets (0 if every unit failed)."""
    per_key = list(per_key)
    return {k: float(np.mean([m[k] for m in per_key])) if per_key else 0.0 for k in names}


def iou(a: np.ndarray, b: np.ndarray) -> float:
    union = np.count_nonzero(a | b)
    return np.count_nonzero(a & b) / union if union else 1.0


def check_depth_map(path: Path, shape: tuple[int, int]) -> np.ndarray:
    depth = sdio.read_pfm(path)
    require(depth.shape == shape, f"{path.name}: shape {depth.shape}, expected {shape}")
    require(bool(np.all(np.isfinite(depth)) and np.all(depth > 0)),
            f"{path.name}: depth must be finite and positive")
    return depth


def check_mask(path: Path, shape: tuple[int, int]) -> np.ndarray:
    mask = sdio.read_pfm(path)
    require(mask.shape == shape, f"{path.name}: shape {mask.shape}, expected {shape}")
    require(bool(np.all((mask == 0) | (mask == 1))), f"{path.name}: mask is not 0/1")
    return mask > 0.5


class Workload:
    """Interface the runner drives; see the module docstring."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.expected = EXPECTED[self.name]
        self.tol = EXPECTED["tolerance"]
        self.first: dict = {}  # per target/preset: the first unit's deterministic outputs
        self.recording: dict | None = None  # set to record default-seed values instead of checking

    def prepare(self, root: Path) -> None:
        raise NotImplementedError

    def unit(self, i: int) -> dict:
        raise NotImplementedError

    def check(self, rec: dict) -> None:
        raise NotImplementedError

    def finish(self, recs: list[dict]) -> dict[str, float]:
        raise NotImplementedError

    def working_set(self) -> dict[str, float]:
        raise NotImplementedError

    def same_as_first(self, key, values: dict) -> None:
        """Outputs of a key (target or preset) must repeat exactly across units."""
        seen = self.first.setdefault(key, values)
        for k, v in values.items():
            require(seen[k] == v, f"{key}: {k} changed between units ({seen[k]!r} -> {v!r})")

    def check_floors(self, metrics: dict[str, float], floors: dict, what: str) -> None:
        for k, v in metrics.items():
            if f"{k}_max" in floors:
                require(v <= floors[f"{k}_max"], f"{what}: {k} {v:.6f} above {floors[f'{k}_max']}")
            if f"{k}_min" in floors:
                require(v >= floors[f"{k}_min"], f"{what}: {k} {v:.6f} below {floors[f'{k}_min']}")

    def verify(self, recs: list[dict], field: str, key, check) -> None:
        """Run a post-loop ``check``; if it fails, fail every unit of that target or preset."""
        try:
            check()
        except UnitFailed as exc:
            for rec in recs:
                if rec["ok"] and rec[field] == key:
                    rec["ok"], rec["error"] = False, str(exc)

    def check_recorded(self, key: str, metrics: dict[str, float]) -> None:
        """With the default seed, outputs must match the values recorded for it."""
        if self.seed != DEFAULT_SEED:
            return
        if self.recording is not None:
            self.recording.setdefault(key, {}).update(metrics)
            return
        recorded = self.expected["recorded"][key]
        for k, v in metrics.items():
            tol = self.tol[k] if k in self.tol else self.tol["default"]
            require(close(v, recorded[k], tol),
                    f"{key}: {k} = {v!r}, recorded {recorded[k]!r} for seed {DEFAULT_SEED}")


class KittiWorkload(Workload):
    """Shared set-up of the two workloads on the 640x192 moving-box scene."""

    targets = (1, 2, 3)

    @property
    def keys(self) -> tuple:
        return self.targets

    def prepare(self, root: Path) -> None:
        root.mkdir(parents=True)
        if self.seed == DEFAULT_SEED:
            scene = kitti_scene.COMMITTED
        else:
            scene = root / "scene.json"
            scene.write_text(kitti_scene.scene_text(self.seed))
        run_cli(["synth", "--scene", scene, "--out", root / "data"])
        self.root, self.scene, self.data = root, scene, root / "data"

    def load_references(self) -> None:
        """Ground truth and mover masks for the checks (not part of set-up)."""
        setup = synth.load_scene_setup(self.scene)
        self.shape = (setup.K.height, setup.K.width)
        self.gt = {t: sdio.read_pfm(self.gt_path(t)) for t in self.targets}
        self.mover = {t: synth.mover_mask(setup.scene, setup.poses[t], setup.K, t)
                      for t in self.targets}

    def gt_path(self, t: int) -> Path:
        return self.data / f"depth_{t:04d}.pfm"

    def target(self, i: int) -> int:
        return self.targets[i % len(self.targets)]

    def depth_quality(self, t: int, pred_path: Path, mask_fraction: float) -> dict[str, float]:
        pred = check_depth_map(pred_path, self.shape)
        mask = check_mask(pred_path.with_suffix(".mask.pfm"), self.shape)
        require(close(mask_fraction, float(mask.mean()), {"abs": 1e-12}),
                "reported mask_fraction disagrees with the mask file")
        return {**quality(pred, self.gt[t]), "mask_iou": iou(mask, self.mover[t])}

    def working_set(self) -> dict[str, float]:
        h, w = self.shape
        scale, planes, sources = self.sweep_shape
        cells = -(-h // scale) * -(-w // scale) * planes
        return {
            "volume_mb_computed": 2 * cells * 8 / 1e6,  # float64 costs + int64 valid counts
            "sweep_cells_per_unit": cells * sources,
            "dataset_mb_on_disk": sum(p.stat().st_size for p in self.data.iterdir()) / 1e6,
        }


class KittiFine(KittiWorkload):
    """Full-resolution 96-plane sweep against both neighbours, target cycling 1..3."""

    name = "kitti_fine"
    sweep_shape = (1, 96, 2)  # feature scale, planes, sources

    def unit(self, i: int) -> dict:
        t = self.target(i)
        out = self.root / f"pred_{t}.pfm"
        stdout = run_cli([
            "depth", "--data", self.data, "--out", out, "--teacher", self.gt_path(t),
            "--target", t, "--sources", t - 1, t + 1, "--feature-scale", 1, "--planes", 96,
            "--d-min", 1.0, "--d-max", 10.0,
        ])
        return {"target": t, "out": out, "stdout": stdout}

    def check(self, rec: dict) -> None:
        t = rec["target"]
        report = json.loads(rec["stdout"])
        metrics = self.depth_quality(t, rec["out"], report["mask_fraction"])
        self.same_as_first(t, metrics)
        self.check_floors(metrics, self.expected["floors"], f"target {t}")
        self.check_recorded(f"target_{t}", metrics)
        rec["quality"] = metrics

    def finish(self, recs: list[dict]) -> dict[str, float]:
        by_target = {r["target"]: r["quality"] for r in recs if r["ok"]}
        return mean_quality(by_target.values())


class KittiTrain(KittiWorkload):
    """The training step: `loss` at feature scale 4 with augmentation and the adaptive range."""

    name = "kitti_train"
    sweep_shape = (4, 96, 1)
    initial_state = {"d_min": 1.0, "d_max": 10.0, "momentum": 0.99, "frozen": False}
    # One block of four samples holds the mix p = q = 0.25 draws on average.
    block = (Augmentation.NONE, Augmentation.ZERO_VOLUME, Augmentation.NONE,
             Augmentation.STATIC_SUBSTITUTE)

    def prepare(self, root: Path) -> None:
        super().prepare(root)
        for t in self.targets:
            gt = sdio.read_pfm(self.gt_path(t))
            sdio.write_pfm(self.student_path(t), gt * self.student_factor(gt.shape))
        self.state_path = root / "adaptive_state.json"
        self.state_path.write_text(json.dumps(self.initial_state))
        self.state = costvolume.AdaptiveRangeState(**self.initial_state)
        self.cfg = AugmentConfig(p=0.25, q=0.25, rng_seed=self.seed)
        self.schedule = self.stratified_samples()

    def student_factor(self, shape: tuple[int, int]) -> np.ndarray:
        """Smooth +-5% multiplicative error standing in for the student network."""
        rng = np.random.default_rng(self.seed)
        px, py = rng.random(2)
        v, u = np.mgrid[: shape[0], : shape[1]]
        return 1.0 + 0.05 * np.sin(2 * np.pi * (u / 97.0 + px)) * np.cos(2 * np.pi * (v / 41.0 + py))

    def student_path(self, t: int) -> Path:
        return self.data / f"student_{t:04d}.pfm"

    def stratified_samples(self, blocks: int = 512) -> list[int]:
        """Sample indices whose seeded draws repeat ``block``.

        The decisions still come from the seeded ``draw_augmentation``; picking
        which indices to feed keeps the share of sweep-free units at exactly one
        in four in every run, so units_per_s measures speed and not the luck of
        the draw.
        """
        queues: dict[Augmentation, list[int]] = {a: [] for a in Augmentation}
        need = {a: blocks * self.block.count(a) for a in Augmentation}
        index = 0
        while any(len(queues[a]) < need[a] for a in Augmentation):
            queues[draw_augmentation(self.cfg, index)].append(index)
            index += 1
        taken = {a: iter(queues[a]) for a in Augmentation}
        return [next(taken[a]) for _ in range(blocks) for a in self.block]

    def unit(self, i: int) -> dict:
        t = self.target(i)
        sample = self.schedule[i % len(self.schedule)]
        stdout = run_cli([
            "loss", "--data", self.data, "--target", t, "--student", self.student_path(t),
            "--teacher", self.gt_path(t), "--cv-sources", t - 1, "--planes", 96,
            "--adaptive-state", self.state_path, "--augment-sample", sample,
            "--aug-p", 0.25, "--aug-q", 0.25, "--seed", self.seed,
        ])
        before = self.state
        teacher = sdio.read_pfm(self.gt_path(t))
        self.state = costvolume.adaptive_range_update(before, [teacher])
        self.state_path.write_text(json.dumps({
            "d_min": self.state.d_min, "d_max": self.state.d_max,
            "momentum": self.state.momentum, "frozen": self.state.frozen,
        }))
        return {"target": t, "sample": sample, "stdout": stdout, "before": before,
                "after": self.state}

    def check(self, rec: dict) -> None:
        t = rec["target"]
        report = json.loads(rec["stdout"])
        terms = {k: report[k] for k in ("lp", "lc", "ls", "total", "mask_fraction")}
        require(all(math.isfinite(v) and v >= 0 for v in terms.values()),
                f"loss terms must be finite and non-negative: {terms}")
        require(terms["mask_fraction"] <= 1.0, "mask_fraction above 1")
        fixed = terms["lc"] + 1e-3 * terms["ls"]
        eps = 1e-12
        require(fixed - eps <= terms["total"] <= terms["lp"] + fixed + eps,
                f"total {terms['total']} outside [lc + w ls, lp + lc + w ls]")
        m = rec["before"].momentum
        teacher = self.gt[t]
        for bound, extreme in (("d_min", teacher.min()), ("d_max", teacher.max())):
            want = m * getattr(rec["before"], bound) + (1 - m) * float(extreme)
            require(close(getattr(rec["after"], bound), want, {"rel": 1e-12}),
                    f"adaptive {bound} update is not the 0.99-momentum average")
        # lp and ls use neither the cost volume nor the augmentation.
        self.same_as_first(t, {"lp": terms["lp"], "ls": terms["ls"]})
        rec["terms"] = terms

    def finish(self, recs: list[dict]) -> dict[str, float]:
        data = cli.load_dataset(self.data)
        # Quality of the scale-4 cost-volume depth the step consumes, at the
        # initial adaptive range so that it does not depend on run length.
        state = self.root / "initial_state.json"
        state.write_text(json.dumps(self.initial_state))
        per_target = {}

        def check_target(t: int) -> None:
            student = sdio.read_pfm(self.student_path(t))
            synthesized = []
            for s in (t - 1, t + 1):
                grid = geometry.reproject_grid(
                    student, synth.relative_pose(data.poses[t], data.poses[s]), data.K)
                synthesized.append(geometry.bilinear_sample(data.images[s], grid))
            lp, _ = losses.min_reprojection_loss(data.images[t], synthesized)
            ls = losses.smoothness_loss(student, data.images[t])
            seen = self.first.get(t)
            require(seen is None or (close(seen["lp"], lp, self.tol["loss"])
                                     and close(seen["ls"], ls, self.tol["loss"])),
                    f"target {t}: CLI lp/ls {seen} differ from the library's ({lp}, {ls})")
            out = self.root / f"check_{t}.pfm"
            report = json.loads(run_cli([
                "depth", "--data", self.data, "--out", out, "--teacher", self.gt_path(t),
                "--target", t, "--sources", t - 1, "--planes", 96, "--adaptive-state", state]))
            metrics = self.depth_quality(t, out, report["mask_fraction"])
            per_target[t] = metrics
            self.check_floors(metrics, self.expected["floors"], f"target {t}")
            self.check_recorded(f"target_{t}", {**metrics, "lp": lp, "ls": ls})

        for t in self.targets:
            self.verify(recs, "target", t, lambda: check_target(t))
        return mean_quality(per_target.values())


class DeskCli(Workload):
    """The four CLI commands on each 64x48 preset in turn."""

    name = "desk_cli"
    shape = (48, 64)
    planes = 32
    sweep_shape = (1, planes, 2)

    def prepare(self, root: Path) -> None:
        root.mkdir(parents=True)
        self.root = root
        shift = self.seed % len(synth.PRESET_NAMES)
        self.order = synth.PRESET_NAMES[shift:] + synth.PRESET_NAMES[:shift]
        for preset in self.order:
            run_cli(["synth", "--scene", preset, "--out", root / preset, "--seed", self.seed])

    @property
    def keys(self) -> tuple:
        return self.order

    def load_references(self) -> None:
        setup = synth.preset_scene("moving_box", seed=self.seed)
        self.mover = synth.mover_mask(setup.scene, setup.poses[1], setup.K, 1)

    def unit(self, i: int) -> dict:
        preset = self.order[i % len(self.order)]
        d = self.root / preset
        gt, pred = d / "depth_0001.pfm", d / "dcv.pfm"
        volume = ["--d-min", 1.0, "--d-max", 10.0, "--planes", self.planes, "--feature-scale", 1]
        outs = {
            "synth": run_cli(["synth", "--scene", preset, "--out", d, "--seed", self.seed]),
            "depth": run_cli(["depth", "--data", d, "--out", pred, "--teacher", gt,
                              "--sources", 0, 2, "--dump-cv", d / "cv.swpcv", *volume]),
            "loss": run_cli(["loss", "--data", d, "--student", pred, "--teacher", gt, *volume]),
            "eval": run_cli(["eval", "--pred", pred, "--gt", gt, "--median-scale",
                             "--error-map", d / "err.ppm"]),
        }
        return {"preset": preset, "dir": d, "stdout": outs}

    def check(self, rec: dict) -> None:
        d, preset = rec["dir"], rec["preset"]
        out = {k: json.loads(v) for k, v in rec["stdout"].items()}
        require(out["synth"]["frames"] == 3, "synth must write 3 frames")
        pred = check_depth_map(d / "dcv.pfm", self.shape)
        gt = sdio.read_pfm(d / "depth_0001.pfm")
        mask = check_mask(d / "dcv.mask.pfm", self.shape)
        cv, planes = sdio.read_cost_volume(d / "cv.swpcv")
        require(cv.shape == (*self.shape, self.planes), f"dump shape {cv.shape}")
        require((planes.d_min, planes.d_max, len(planes)) == (1.0, 10.0, self.planes),
                "dump header does not round-trip the plane set")
        decoded, _ = costvolume.argmin_depth(cv, planes)
        agree = float(np.mean(np.isclose(decoded, pred, rtol=1e-6)))
        require(agree >= self.tol["dump_argmin_agreement"],
                f"argmin of the dumped volume matches the depth map on {agree:.3f} of pixels")
        terms = out["loss"]
        require(all(math.isfinite(terms[k]) for k in ("lp", "lc", "ls", "total")),
                f"non-finite loss terms {terms}")
        valid = (gt > 0) & (gt < 80.0)
        want = evaluation.depth_metrics(evaluation.median_scale(pred, gt, valid), gt).to_json_dict()
        require(all(close(out["eval"][k], want[k], {"rel": 1e-12, "abs": 1e-15}) for k in want),
                "eval report differs from the library's metrics")
        err = sdio.read_ppm(d / "err.ppm")
        require(err.shape == (*self.shape, 3), f"error map shape {err.shape}")
        metrics = quality(pred, gt)
        if preset == "moving_box":
            metrics["mask_iou"] = iou(mask, self.mover)
        self.same_as_first(preset, {
            **metrics, "lp": terms["lp"], "ls": terms["ls"], "lc": terms["lc"],
            "dump": hashlib.sha256((d / "cv.swpcv").read_bytes()).hexdigest(),
        })
        self.check_floors(metrics, self.expected["floors"][preset], preset)
        rec["quality"] = metrics

    def finish(self, recs: list[dict]) -> dict[str, float]:
        for preset in self.order:
            if preset in self.first:
                self.verify(recs, "preset", preset, lambda: self.check_preset(preset))
        by_preset = {r["preset"]: r["quality"] for r in recs if r["ok"]}
        return {
            **mean_quality(by_preset.values(), ("abs_rel", "delta1")),
            "mask_iou": by_preset.get("moving_box", {}).get("mask_iou", 0.0),
        }

    def check_preset(self, preset: str) -> None:
        """The dumped volume equals, in float32, the one the library builds in-process."""
        d = self.root / preset
        data = cli.load_dataset(d)
        target = extract_features(data.images[1], "gradient", 1)
        sources = [(extract_features(data.images[s], "gradient", 1),
                    synth.relative_pose(data.poses[1], data.poses[s])) for s in (0, 2)]
        planes = costvolume.linear_planes(1.0, 10.0, self.planes)
        want = costvolume.build_cost_volume(target, sources, data.K, planes).costs
        cv, _ = sdio.read_cost_volume(d / "cv.swpcv")
        require(np.array_equal(cv.costs, want.astype("<f4").astype(np.float64)),
                f"{preset}: dumped volume differs from the library's")
        first = self.first[preset]
        self.check_recorded(preset, {k: v for k, v in first.items() if k != "dump"})

    def working_set(self) -> dict[str, float]:
        cells = self.shape[0] * self.shape[1] * self.planes
        return {"volume_mb_computed": 2 * cells * 8 / 1e6, "sweep_cells_per_unit": cells * 2}


WORKLOADS = {w.name: w for w in (KittiFine, KittiTrain, DeskCli)}
