"""Plane-sweep cost volume construction and depth extraction.

The volume scores, for every feature-map pixel and every hypothesis plane,
the photometric agreement between the target features and each source's
features warped to the target viewpoint under that plane. Cells that no
source can explain (all samples out of bounds) carry an infinite sentinel
cost and are excluded from the argmin.
"""

from __future__ import annotations

import functools
import os
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    EmptyBatch,
    EmptySources,
    FrozenState,
    InvalidRange,
    ShapeMismatch,
    VolumeTooLarge,
)
from .features import FeatureMap
from .geometry import (
    Intrinsics,
    Pose,
    _bilinear_gather,
    _channel_major,
    _PlaneProjection,
    _WorkArrays,
    _to_pixels,
    require_positive_depth,
)

DEFAULT_PLANE_COUNT = 96
DEFAULT_MOMENTUM = 0.99

# The most cells (H' * W' * P) one volume may hold: 2**26 cells are 604 MB of
# float64 costs and uint8 counts, 5.7 times the 640x192, 96-plane volume. A
# plane set may not have more planes than this either.
MAX_VOLUME_CELLS = 2**26

# Cells (pixels x planes) per tile of the sweep kernel; each pool thread gets
# work arrays for one tile, about 6 MB with 3 channels. Smaller tiles spend
# more of the sweep holding the GIL between numpy calls (at 4096 a pool of two
# is no faster than one thread); larger ones cost memory and gain nothing.
_TILE = 32768

# The widest sweep pool, whatever SWEEPDEPTH_THREADS asks for: each slab gets
# its own work arrays up front, about 6 MB at a full tile, so 16 slabs lend
# about 95 MB, four times the widest default pool.
MAX_SWEEP_THREADS = 16


def check_volume_size(height: int, width: int, plane_count: int) -> None:
    """Raise VolumeTooLarge if an (height, width, plane_count) volume exceeds MAX_VOLUME_CELLS."""
    cells = int(height) * int(width) * int(plane_count)
    if cells > MAX_VOLUME_CELLS:
        raise VolumeTooLarge(
            f"a {height}x{width}x{plane_count} cost volume has {cells} cells, "
            f"over the budget of {MAX_VOLUME_CELLS}"
        )


def _check_range(d_min: float, d_max: float) -> None:
    f32 = np.finfo(np.float32)  # depth maps and dumps store float32; compare uncast, as floats
    if not (float(f32.tiny) <= d_min < d_max <= float(f32.max)):
        raise InvalidRange(f"need {f32.tiny:.8g} <= d_min < d_max <= {f32.max:.8g}, got ({d_min}, {d_max})")


@dataclass(frozen=True)
class DepthPlaneSet:
    """``count`` fronto-parallel hypothesis depths from d_min to d_max inclusive,
    uniform in depth (spacing "linear") or in 1/depth ("inverse")."""

    d_min: float
    d_max: float
    count: int = DEFAULT_PLANE_COUNT
    spacing: str = "linear"
    depths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "d_min", float(self.d_min))
        object.__setattr__(self, "d_max", float(self.d_max))
        _check_range(self.d_min, self.d_max)
        if self.count < 2:
            raise InvalidRange(f"need at least 2 planes, got {self.count}")
        check_volume_size(1, 1, self.count)
        if self.spacing == "linear":
            depths = np.linspace(self.d_min, self.d_max, self.count)
        elif self.spacing == "inverse":
            depths = 1.0 / np.linspace(1.0 / self.d_min, 1.0 / self.d_max, self.count)
            depths[0], depths[-1] = self.d_min, self.d_max
        else:
            raise InvalidRange(f"unknown plane spacing {self.spacing!r}")
        object.__setattr__(self, "depths", depths)

    def __len__(self) -> int:
        return self.count

    @property
    def quantization_floor(self) -> float:
        """Half the widest plane gap: the best achievable argmin accuracy."""
        return float(np.max(np.diff(self.depths))) / 2


@dataclass(frozen=True)
class CostVolume:
    """Matching costs (H', W', P) and the per-cell count of contributing sources.

    A dump (``io.write_cost_volume``) keeps the costs only: after
    ``io.read_cost_volume``, ``valid_count`` is 1 where the cost is finite and 0
    where it is +inf, not the number of sources.
    """

    costs: np.ndarray
    valid_count: np.ndarray

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.costs.shape


@dataclass(frozen=True)
class AdaptiveRangeState:
    """Exponential-moving-average estimates of the usable depth range."""

    d_min: float
    d_max: float
    momentum: float = DEFAULT_MOMENTUM
    frozen: bool = False

    def __post_init__(self):
        _check_range(self.d_min, self.d_max)
        if not (0 <= self.momentum < 1):
            raise InvalidRange(f"momentum must be in [0, 1), got {self.momentum}")


def linear_planes(d_min: float, d_max: float, count: int = DEFAULT_PLANE_COUNT) -> DepthPlaneSet:
    """``count`` depths linearly spaced from d_min to d_max inclusive."""
    return DepthPlaneSet(d_min, d_max, count, "linear")


def inverse_depth_planes(d_min: float, d_max: float, count: int = DEFAULT_PLANE_COUNT) -> DepthPlaneSet:
    """Experimental alternative: planes uniform in 1/depth. Not the default."""
    return DepthPlaneSet(d_min, d_max, count, "inverse")


def _thread_count(run_count: int, run_cells: int = _TILE) -> int:
    """Sweep pool width for ``run_count`` whole runs of ``run_cells`` cells each:
    SWEEPDEPTH_THREADS, or when it is 0, unset or not an integer, one thread for
    runs of fewer than _TILE // 2 cells, where a pool gains little, and
    min(cores, 4) for larger ones; at most MAX_SWEEP_THREADS, and at most one
    thread per run."""
    raw = os.environ.get("SWEEPDEPTH_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        n = 1 if run_cells < _TILE // 2 else min(os.cpu_count() or 1, 4)
    return max(1, min(n, MAX_SWEEP_THREADS, run_count))


def build_cost_volume(
    target: FeatureMap,
    sources: list[tuple[FeatureMap, Pose]],
    K: Intrinsics,
    planes: DepthPlaneSet,
) -> CostVolume:
    """Sweep the hypothesis planes and score each against every source.

    ``K`` must already be rescaled to the feature resolution. Each source
    pose maps target-camera points into that source's camera. For plane p
    and source s the contribution at pixel (i, j) is the channel-mean
    absolute difference between the warped source features and the target
    features; contributions average over the sources whose warped sample
    was in bounds. Cells with no valid source get cost +inf.

    The pixels are split into contiguous slabs, one per thread of a pool,
    and each slab is swept in runs of whole pixels with all their planes. A
    run holds up to min(_TILE, max(H'W', _TILE // 4)) cells, and at least one
    pixel with all its planes. SWEEPDEPTH_THREADS sets the pool's width; when
    it is 0 or unset, a sweep whose runs hold fewer than _TILE // 2 cells is
    one slab and any other takes min(cores, 4). The width is at most
    MAX_SWEEP_THREADS and the number of runs, so every slab holds at least
    one whole run; the calling thread waits for the pool. A run scores into a
    run-sized block of its slab, with that slab's work arrays, both
    allocated once per sweep on the calling thread, and is then copied into
    its own rows of ``costs`` and ``valid_count``. A slab's last run
    ends at the slab's last pixel and may overlap the run before it, on the
    same thread, so no two threads write one cell. Every cell takes the same
    arithmetic in any run, so the result is bit-identical whatever the pool
    width, the tile size or the execution order. A volume over
    MAX_VOLUME_CELLS raises VolumeTooLarge before anything is allocated.
    """
    _check_sweep(target, sources, K, planes)
    shape = (*target.shape[:2], len(planes))
    costs = np.empty(shape)
    counts = np.empty(shape, np.min_scalar_type(len(sources)))

    def reduce(run: slice, run_costs: np.ndarray, run_counts: np.ndarray) -> None:
        costs.reshape(-1, shape[2])[run] = run_costs  # the run's rows of the volume
        counts.reshape(-1, shape[2])[run] = run_counts

    with _started(_sweep(target, sources, K, planes, reduce)) as join:
        join()
    return CostVolume(costs=costs, valid_count=counts)


def sweep_argmin(
    target: FeatureMap,
    sources: list[tuple[FeatureMap, Pose]],
    K: Intrinsics,
    planes: DepthPlaneSet,
) -> tuple[np.ndarray, np.ndarray]:
    """``argmin_depth(build_cost_volume(target, sources, K, planes), planes)``,
    bit for bit, without holding the volume.

    The sweep, its checks (VolumeTooLarge included), slabs, runs and blocks
    are ``build_cost_volume``'s, but each run is reduced to its pixels'
    cheapest plane and validity instead of copied into a volume.
    """
    with started_sweep_argmin(target, sources, K, planes) as join:
        return join()


@contextmanager
def started_sweep_argmin(
    target: FeatureMap,
    sources: list[tuple[FeatureMap, Pose]],
    K: Intrinsics,
    planes: DepthPlaneSet,
    task: Callable[[], None] | None = None,
) -> Iterator[Callable[[], tuple[np.ndarray, np.ndarray]]]:
    """``sweep_argmin`` on threads of its own while the caller works on.

    The checks and every allocation of the sweep happen here, on the calling
    thread; only the slabs' run loops go to the pool, one thread each, as wide
    as ``build_cost_volume`` describes. ``task``, when given, runs once on a
    thread of that pool after every slab has ended, also when a slab raises.
    Yields ``join``, which waits for the sweep and the task, raises the first
    error (a slab's before the task's), and returns ``sweep_argmin``'s
    (depth, valid). Leaving the block waits for every pool thread, also when
    the block raises.
    """
    _check_sweep(target, sources, K, planes)
    h, w, _ = target.shape
    best, valid = np.empty(h * w, np.intp), np.empty(h * w, bool)

    def reduce(run: slice, costs: np.ndarray, _counts: np.ndarray) -> None:
        _argmin_rows(costs, best[run], valid[run])

    with _started(_sweep(target, sources, K, planes, reduce), task) as join_slabs:

        def join() -> tuple[np.ndarray, np.ndarray]:
            join_slabs()
            return _plane_depths(best, valid, planes).reshape(h, w), valid.reshape(h, w)

        yield join


def _check_sweep(
    target: FeatureMap,
    sources: list[tuple[FeatureMap, Pose]],
    K: Intrinsics,
    planes: DepthPlaneSet,
) -> None:
    """Raise unless every feature map and K agree in shape and the volume fits MAX_VOLUME_CELLS."""
    if not sources:
        raise EmptySources("cost volume needs at least one source view")
    h, w, _ = target.shape
    if (K.height, K.width) != (h, w):
        raise ShapeMismatch(
            f"intrinsics {K.height}x{K.width} do not match features {h}x{w}; "
            "rescale K to the feature resolution"
        )
    for fmap, _pose in sources:
        if fmap.shape != target.shape or fmap.scale != target.scale:
            raise ShapeMismatch("all feature maps must share the target's shape and scale")
    check_volume_size(h, w, len(planes))


def _sweep(
    target: FeatureMap,
    sources: list[tuple[FeatureMap, Pose]],
    K: Intrinsics,
    planes: DepthPlaneSet,
    reduce: Callable[[slice, np.ndarray, np.ndarray], None],
) -> list[Callable[[], None]]:
    """The slabs of a sweep that passed ``_check_sweep``, as ``build_cost_volume``
    describes: each, when called, scores its runs in turn into one run-sized
    block of its own, the (pixels, P) costs and source counts of the run's
    pixels ``run`` of the flattened target. ``reduce(run, costs, counts)``,
    called on the slab's thread, takes what it needs from the block before the
    slab's next run reuses it.
    """
    h, w, channels = target.shape
    n_planes = len(planes)
    n = h * w
    target_cm = _channel_major(target.data)
    views = []
    for fmap, pose in sources:
        proj = _PlaneProjection.of(pose, K)
        views.append((_channel_major(fmap.data), proj.uv, proj.column(planes.depths)[:, None, :]))
    count_dtype = np.min_scalar_type(len(sources))
    per_run = min(n, max(1, min(_TILE, max(n, _TILE // 4)) // n_planes))
    cells = per_run * n_planes
    workers = _thread_count(n // per_run, cells)
    bounds = [n * k // workers for k in range(workers + 1)]  # each slab holds a whole run

    # Each slab's work arrays, count row and run block are allocated here:
    # allocated in the pool threads, they would sit in per-thread malloc
    # arenas and raise the peak RSS of small sweeps.
    per_slab = [(_WorkArrays(channels, cells), np.empty(cells, count_dtype),
                 np.empty((per_run, n_planes)), np.empty((per_run, n_planes), count_dtype))
                for _ in range(workers)]

    def sweep_slab(lo: int, hi: int,
                   arrays: tuple[_WorkArrays, np.ndarray, np.ndarray, np.ndarray]) -> None:
        work, denom, costs, counts = arrays
        total, count = costs.reshape(-1), counts.reshape(-1)
        diff = work.tmp[0]  # free once _bilinear_gather has returned
        for start in range(lo, hi, per_run):
            first = min(start, hi - per_run)  # the slab's last run ends at its last pixel
            run = slice(first, first + per_run)
            total.fill(0.0)
            count.fill(0)
            for src, uv, column in views:
                np.add(uv[:, run, None], column, out=work.q.reshape(3, per_run, n_planes))
                _to_pixels(work.q, K, work.valid, work.tmp, work.mask)
                warped = _bilinear_gather(src, h, w, work.q[:2], work)
                cube = warped.reshape(channels, per_run, n_planes)  # a view: the cell axis is contiguous
                cube -= target_cm[:, run, None]
                np.abs(warped, out=warped)
                np.add.reduce(warped, axis=0, out=diff)  # the channel mean, as np.mean sums it
                diff /= channels
                np.add(total, diff, out=total, where=work.valid)
                count += work.valid
            np.maximum(count, 1, out=denom)
            np.divide(total, denom, out=total)
            np.copyto(total, np.inf, where=count == 0)
            reduce(run, costs, counts)

    return [functools.partial(sweep_slab, lo, hi, arrays)
            for lo, hi, arrays in zip(bounds[:-1], bounds[1:], per_slab)]


@contextmanager
def _started(slabs: list[Callable[[], None]],
             task: Callable[[], None] | None = None) -> Iterator[Callable[[], None]]:
    """Start each of a sweep's slabs on a thread of its own, and take them out of
    ``slabs``, so that a slab's work arrays go when it ends. ``task``, when given, is
    queued behind the slabs: the first thread to finish its slab takes it, waits for
    the other slabs to end, failed or not, and runs it. Yields ``join``, which waits
    for the slabs and the task and raises the first error, in that order; leaving the
    block waits for every thread, also when the block raises."""
    with ThreadPoolExecutor(max_workers=len(slabs)) as pool:
        futures = [pool.submit(slab) for slab in slabs]
        slabs.clear()
        if task is not None:
            slab_futures = futures[:]

            def after_slabs() -> None:
                wait(slab_futures)
                task()

            futures.append(pool.submit(after_slabs))

        def join() -> None:
            for future in futures:
                future.result()

        yield join


def argmin_depth(cv: CostVolume, planes: DepthPlaneSet) -> tuple[np.ndarray, np.ndarray]:
    """Depth of the cheapest plane per pixel.

    Ties resolve to the smallest plane index. Returns (depth, valid);
    pixels whose every cell is the invalid sentinel get the range midpoint
    and valid=False.
    """
    if cv.costs.shape[2] != len(planes):
        raise ShapeMismatch(f"volume has {cv.costs.shape[2]} planes but plane set has {len(planes)}")
    best, valid = np.empty(cv.costs.shape[:2], np.intp), np.empty(cv.costs.shape[:2], bool)
    for row, costs in enumerate(cv.costs):  # a row at a time: a read dump's volume is not copied
        _argmin_rows(costs, best[row], valid[row])
    return _plane_depths(best, valid, planes), valid


def _argmin_rows(costs: np.ndarray, best: np.ndarray, valid: np.ndarray) -> None:
    """Into ``best`` each row's cheapest plane (ties: the first), into ``valid`` whether it is finite."""
    np.argmin(costs, axis=1, out=best)
    np.isfinite(costs[np.arange(len(best)), best], out=valid)


def _plane_depths(best: np.ndarray, valid: np.ndarray, planes: DepthPlaneSet) -> np.ndarray:
    """The depth of plane ``best``, or the range midpoint where ``valid`` is False."""
    return np.where(valid, planes.depths[best], (planes.d_min + planes.d_max) / 2.0)


def zero_volume(height: int, width: int, plane_count: int) -> CostVolume:
    """The all-zeros substitute volume used when no usable source exists.

    Every cost is equal, so the argmin tie rule yields the first plane; every
    cost is finite, so ``argmin_depth`` marks every pixel valid (validity comes
    from the costs, not from ``valid_count``).
    """
    if height <= 0 or width <= 0 or plane_count <= 0:
        raise InvalidRange("zero volume dimensions must be positive")
    check_volume_size(height, width, plane_count)
    return CostVolume(
        costs=np.zeros((height, width, plane_count)),
        valid_count=np.ones((height, width, plane_count), dtype=np.uint8),
    )


def adaptive_range_update(
    state: AdaptiveRangeState, batch: list[np.ndarray]
) -> AdaptiveRangeState:
    """Blend the batch's average depth extrema into the running estimates.

    b_min is the mean over the batch of each map's minimum (b_max likewise);
    the new bound is m * old + (1 - m) * batch value.
    """
    if state.frozen:
        raise FrozenState("adaptive range state is frozen")
    if not batch:
        raise EmptyBatch("adaptive range update needs a non-empty batch")
    mins, maxes = [], []
    for depth in batch:
        depth = np.asarray(depth, dtype=float)
        if depth.size == 0:
            raise InvalidRange("batch depth maps must be non-empty")
        require_positive_depth(depth, "adaptive range update")
        mins.append(depth.min())
        maxes.append(depth.max())
    b_min = float(np.mean(mins))
    b_max = float(np.mean(maxes))
    m = state.momentum
    return replace(
        state,
        d_min=m * state.d_min + (1 - m) * b_min,
        d_max=m * state.d_max + (1 - m) * b_max,
    )


def upsample_nearest(depth: np.ndarray, scale: int, height: int, width: int) -> np.ndarray:
    """Expand a feature-resolution map back to image resolution.

    Each image pixel takes the value of the feature cell that covers it
    (the inverse of the box downsample used by the extractors).
    """
    if scale == 1:
        return depth[:height, :width]
    return np.repeat(np.repeat(depth, scale, axis=0), scale, axis=1)[:height, :width]
