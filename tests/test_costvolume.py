"""Plane sets, cost volume construction, argmin extraction, adaptive range."""

import os
import sys
import threading
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cost_volume_ref
from sweepdepth import cli, costvolume, geometry
from sweepdepth.costvolume import (
    MAX_VOLUME_CELLS,
    AdaptiveRangeState,
    CostVolume,
    DepthPlaneSet,
    adaptive_range_update,
    argmin_depth,
    build_cost_volume,
    inverse_depth_planes,
    linear_planes,
    sweep_argmin,
    zero_volume,
)
from sweepdepth.errors import (
    EmptyBatch,
    EmptySources,
    FrozenState,
    InvalidRange,
    NonPositiveDepth,
    ShapeMismatch,
    SweepDepthError,
    VolumeTooLarge,
)
from sweepdepth.features import FeatureMap, extract_features
from sweepdepth.geometry import Intrinsics, Pose, bilinear_sample, plane_warp_grid
from sweepdepth.io import read_cost_volume, write_cost_volume
from sweepdepth.synth import relative_pose


class TestLinearPlanes:
    def test_96_bins_endpoints_and_step(self):
        planes = linear_planes(0.1, 10.0, 96)
        assert planes.depths[0] == 0.1
        assert planes.depths[95] == 10.0
        step = (10.0 - 0.1) / 95
        assert np.allclose(np.diff(planes.depths), step, atol=1e-12)

    def test_two_planes(self):
        assert np.array_equal(linear_planes(1, 2, 2).depths, [1.0, 2.0])

    def test_midpoint(self):
        assert np.array_equal(linear_planes(1, 3, 3).depths, [1.0, 2.0, 3.0])

    def test_invalid_ranges(self):
        for args in [(2, 1, 4), (0, 1, 4), (-1, 1, 4), (1, 2, 1)]:
            with pytest.raises(InvalidRange):
                linear_planes(*args)

    @pytest.mark.parametrize("d_min, d_max", [(1, np.inf), (np.nan, 2), (1, np.nan)])
    def test_non_finite_ranges(self, d_min, d_max):
        with pytest.raises(InvalidRange):
            linear_planes(d_min, d_max, 4)
        with pytest.raises(InvalidRange):
            AdaptiveRangeState(d_min, d_max)

    @pytest.mark.parametrize("d_min, d_max", [(1e-300, 10.0), (1.0, 1e300)])
    def test_ranges_float32_cannot_hold(self, d_min, d_max):
        # Depth maps and dumps are float32, where these bounds become 0 or inf.
        # They are refused without being cast, so no overflow warning either.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidRange):
                linear_planes(d_min, d_max, 4)
            with pytest.raises(InvalidRange):
                inverse_depth_planes(d_min, d_max, 4)
            with pytest.raises(InvalidRange):
                AdaptiveRangeState(d_min, d_max)
        f32 = np.finfo(np.float32)
        assert linear_planes(float(f32.tiny), float(f32.max), 4).depths[-1] == f32.max
        AdaptiveRangeState(float(f32.tiny), float(f32.max))


def small_K(w=8, h=6):
    return Intrinsics(fx=10.0, fy=10.0, cx=(w - 1) / 2, cy=(h - 1) / 2, width=w, height=h)


class TestBuildCostVolume:
    def test_self_match_is_zero_cost(self, rng):
        K = small_K()
        fmap = FeatureMap(data=rng.random((6, 8, 2)), scale=1)
        planes = linear_planes(1.0, 5.0, 4)
        cv = build_cost_volume(fmap, [(fmap, Pose.identity())], K, planes)
        assert cv.shape == (6, 8, 4)
        assert np.allclose(cv.costs, 0.0, atol=1e-12)
        assert (cv.valid_count == 1).all()

    def test_two_sources_average(self, rng):
        # One perfect source and one offset by a constant 0.4 on every
        # channel: averaged cell cost is 0.2.
        K = small_K()
        fmap = FeatureMap(data=rng.random((6, 8, 2)), scale=1)
        shifted = FeatureMap(data=fmap.data + 0.4, scale=1)
        planes = linear_planes(1.0, 5.0, 3)
        cv = build_cost_volume(
            fmap, [(fmap, Pose.identity()), (shifted, Pose.identity())], K, planes
        )
        assert np.allclose(cv.costs, 0.2, atol=1e-12)
        assert (cv.valid_count == 2).all()
        assert cv.valid_count.dtype == np.uint8

    def test_out_of_bounds_cells_are_sentinel(self, rng):
        # A huge lateral translation pushes every warped sample out of the
        # source image at every plane.
        K = small_K()
        fmap = FeatureMap(data=rng.random((6, 8, 1)), scale=1)
        far = Pose.from_translation(1e6, 0, 0)
        cv = build_cost_volume(fmap, [(fmap, far)], K, linear_planes(1, 2, 2))
        assert np.isinf(cv.costs).all()
        assert (cv.valid_count == 0).all()

    def test_empty_sources_rejected(self, rng):
        K = small_K()
        fmap = FeatureMap(data=rng.random((6, 8, 1)), scale=1)
        for sweep in (build_cost_volume, sweep_argmin):
            with pytest.raises(EmptySources):
                sweep(fmap, [], K, linear_planes(1, 2, 2))

    def test_shape_mismatch_rejected(self, rng):
        K = small_K()
        fmap = FeatureMap(data=rng.random((6, 8, 1)), scale=1)
        other = FeatureMap(data=rng.random((6, 9, 1)), scale=1)
        with pytest.raises(ShapeMismatch):
            build_cost_volume(fmap, [(other, Pose.identity())], K, linear_planes(1, 2, 2))
        with pytest.raises(ShapeMismatch, match="rescale K"):  # K at image, not feature, size
            build_cost_volume(fmap, [(fmap, Pose.identity())], small_K(16, 12),
                              linear_planes(1, 2, 2))

    def test_matches_per_pixel_loop_oracle(self, rng, monkeypatch):
        # Vectorized homography path against the scalar reference, pose with
        # rotation and translation, two sources, 12x10 image, 6 planes. A
        # _TILE of 32 gives 30 runs of 4 pixels with their 6 planes, three
        # segments a row; 7 gives 120 runs of one pixel.
        w, h = 12, 10
        K = Intrinsics(fx=15.0, fy=14.0, cx=5.5, cy=4.5, width=w, height=h)
        target = FeatureMap(data=rng.random((h, w, 2)), scale=1)

        def rot_y(a):
            return np.array(
                [[np.cos(a), 0, np.sin(a)], [0, 1, 0], [-np.sin(a), 0, np.cos(a)]]
            )

        poses = [
            Pose.from_translation(0.3, 0.05, 0.0),
            Pose(rot_y(0.06), np.array([-0.2, 0.0, 0.1])),
        ]
        sources = [(FeatureMap(data=rng.random((h, w, 2)), scale=1), p) for p in poses]
        planes = linear_planes(1.5, 6.0, 6)

        ref_costs, ref_counts = cost_volume_ref(
            target.data,
            [(f.data, p.rotation, p.translation) for f, p in sources],
            K.fx, K.fy, K.cx, K.cy,
            list(planes.depths),
        )
        finite = np.isfinite(ref_costs)
        for tile in (32, 7):
            monkeypatch.setattr(costvolume, "_TILE", tile)
            cv = build_cost_volume(target, sources, K, planes)
            assert (np.isfinite(cv.costs) == finite).all()
            assert np.allclose(cv.costs[finite], ref_costs[finite], atol=1e-6)
            assert (cv.valid_count == ref_counts).all()

    @pytest.mark.parametrize("tile", [16384, 1000, 700])
    @pytest.mark.parametrize("kind", ["intensity", "gradient"])
    def test_equals_per_plane_warp_and_sample(self, rendered_presets, monkeypatch, kind, tile):
        # The tiled kernel returns the same bits as composing the public
        # plane_warp_grid and bilinear_sample plane by plane, for 1 and 3
        # channels. The 64x48 pixels with their 12 planes go in runs of 5
        # rows (_TILE 16384, a tile of _TILE // 4 cells), one row (_TILE 1000)
        # or half a row (_TILE 700): 10, 48 or 96 runs, the last of 5 rows
        # overlapping the one before by 2 rows.
        # The second source's pose is yawed by 0.02 rad so the homography
        # has rotation terms: it takes the per-cell path and the first source
        # the tables, in the same runs.
        monkeypatch.setattr(costvolume, "_TILE", tile)
        setup, frames = rendered_presets["moving_box"]
        f_t = extract_features(frames[1].image, kind, 1)
        c, s = np.cos(0.02), np.sin(0.02)
        yaw = np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])
        sources = []
        for i, rot in ((0, np.eye(3)), (2, yaw)):
            pose = relative_pose(frames[1].pose, frames[i].pose)
            sources.append((extract_features(frames[i].image, kind, 1),
                            Pose(rot @ pose.rotation, pose.translation)))
        planes = linear_planes(1.0, 10.0, 12)
        cv = build_cost_volume(f_t, sources, setup.K, planes)
        want_costs, want_counts = _per_plane_composition(f_t, sources, setup.K, planes)
        assert np.array_equal(cv.costs, want_costs)
        assert np.array_equal(cv.valid_count, want_counts)

    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_more_planes_than_tile_cells(self, rendered_presets, monkeypatch, threads):
        # 12 planes and a _TILE of 8 cells: every run is one pixel with all
        # its planes, 3072 runs over the 64x48 pixels.
        monkeypatch.setattr(costvolume, "_TILE", 8)
        monkeypatch.setenv("SWEEPDEPTH_THREADS", threads)
        setup, frames = rendered_presets["moving_box"]
        f_t = extract_features(frames[1].image, "gradient", 1)
        sources = [(extract_features(frames[i].image, "gradient", 1),
                    relative_pose(frames[1].pose, frames[i].pose)) for i in (0, 2)]
        planes = linear_planes(1.0, 10.0, 12)
        cv = build_cost_volume(f_t, sources, setup.K, planes)
        want_costs, want_counts = _per_plane_composition(f_t, sources, setup.K, planes)
        assert np.array_equal(cv.costs, want_costs)
        assert np.array_equal(cv.valid_count, want_counts)

    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_prime_pixel_count(self, rng, monkeypatch, threads):
        # A 1x127 strip with 8 planes and a _TILE of 64: 16 runs of 8 pixels,
        # the last over pixels 119-126, sharing pixel 119 with the run before,
        # which alone reduces it. At width 4 the slabs hold four runs each,
        # pixels 0-31, 32-63, 64-95 and 96-126.
        monkeypatch.setattr(costvolume, "_TILE", 64)
        monkeypatch.setenv("SWEEPDEPTH_THREADS", threads)
        K = Intrinsics(fx=60.0, fy=60.0, cx=63.0, cy=0.0, width=127, height=1)
        target = FeatureMap(data=rng.random((1, 127, 2)), scale=1)
        sources = [(FeatureMap(data=rng.random((1, 127, 2)), scale=1), pose)
                   for pose in (Pose.from_translation(0.2, 0, 0.05),
                                Pose.from_translation(-0.3, 0, 0))]
        planes = linear_planes(1.0, 10.0, 8)
        want_costs, want_counts = _per_plane_composition(target, sources, K, planes)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: slabs sharing a cell would show
        try:
            for _ in range(5):  # a race need not show in every sweep
                cv = build_cost_volume(target, sources, K, planes)
                assert np.array_equal(cv.costs, want_costs)
                assert np.array_equal(cv.valid_count, want_counts)
        finally:
            sys.setswitchinterval(interval)
        assert (want_counts > 0).mean() > 0.5

    @pytest.mark.parametrize("threads", ["2", "3", "4"])
    def test_slab_boundaries(self, rng, monkeypatch, threads):
        # 8 planes and a _TILE of 256: at most 8 pixels a run, in equal
        # segments of the strip. Strips of 9 and 15 pixels are two runs of 5
        # or 8, which share a pixel, and 25 pixels are four runs of 7, the
        # last sharing 3 pixels with the one before; slabs hold whole runs,
        # so at widths 2 to 4 a shared pixel may sit in two slabs, and only
        # the earlier run reduces it.
        monkeypatch.setattr(costvolume, "_TILE", 256)
        planes = linear_planes(1.0, 10.0, 8)
        interval = sys.getswitchinterval()
        for n in (9, 15, 25):
            K = Intrinsics(fx=10.0, fy=10.0, cx=(n - 1) / 2, cy=0.0, width=n, height=1)
            target = FeatureMap(data=rng.random((1, n, 2)), scale=1)
            sources = [(FeatureMap(data=rng.random((1, n, 2)), scale=1), pose)
                       for pose in (Pose.from_translation(0.2, 0, 0.05),
                                    Pose.from_translation(-0.3, 0, 0))]
            monkeypatch.setenv("SWEEPDEPTH_THREADS", "1")
            want = build_cost_volume(target, sources, K, planes)
            assert (want.valid_count > 0).mean() > 0.5
            monkeypatch.setenv("SWEEPDEPTH_THREADS", threads)
            sys.setswitchinterval(1e-6)  # switch threads often: slabs sharing a cell would show
            try:
                for _ in range(5):  # a race need not show in every sweep
                    cv = build_cost_volume(target, sources, K, planes)
                    assert np.array_equal(cv.costs, want.costs), n
                    assert np.array_equal(cv.valid_count, want.valid_count), n
            finally:
                sys.setswitchinterval(interval)

    @pytest.mark.parametrize("threads", ["1", "2", "3", "4"])
    @pytest.mark.parametrize("h, w, n_planes, tile", [
        (1, 127, 8, 64),  # 16 runs of 8 pixels, the last sharing pixel 119
        (1, 9, 8, 256), (1, 15, 8, 256), (1, 25, 8, 256),  # runs of 5, 8 and 7 pixels
        (48, 64, 2, 700),  # runs of 5 rows, the last sharing 2 rows
        (48, 64, 24, 700),  # runs of 22 pixels, three a row, the last sharing 2 pixels
    ])
    def test_reduces_every_pixel_once(self, rng, monkeypatch, threads, h, w, n_planes, tile):
        # Where runs overlap, only the earlier run reduces a shared pixel: the pixels
        # that every reduce receives partition the image, whichever slab holds the run.
        monkeypatch.setattr(costvolume, "_TILE", tile)
        monkeypatch.setenv("SWEEPDEPTH_THREADS", threads)
        rows, cols = costvolume._run_shape(h, w, n_planes)
        assert h % rows or w % cols  # the last run of a column or a row overlaps
        reduced = []
        sweep = costvolume._sweep

        def recording(target, sources, K, planes, reduce):
            def recorded(pixels, costs, counts):
                reduced.append(pixels)
                reduce(pixels, costs, counts)

            return sweep(target, sources, K, planes, recorded)

        monkeypatch.setattr(costvolume, "_sweep", recording)
        K = Intrinsics(fx=10.0, fy=10.0, cx=(w - 1) / 2, cy=(h - 1) / 2, width=w, height=h)
        target = FeatureMap(data=rng.random((h, w, 1)), scale=1)
        source = (FeatureMap(data=rng.random((h, w, 1)), scale=1), Pose.from_translation(0.2, 0, 0))
        build_cost_volume(target, [source], K, linear_planes(1.0, 10.0, n_planes))
        pixels = np.concatenate([np.arange(h * w)[run] for run in reduced])
        assert (np.bincount(pixels, minlength=h * w) == 1).all()

    @pytest.mark.parametrize("tile, planes", [(32768, 32), (32768, 96), (1000, 12), (8, 12)])
    def test_work_arrays_hold_one_tile(self, rendered_presets, monkeypatch, tile, planes):
        # Peak memory: each pool thread's work arrays hold at most one tile
        # of cells, and at least one pixel with all its planes. Every set of
        # work arrays, with or without the per-cell warp's, is a _GatherArrays.
        made = []
        init = geometry._GatherArrays.__init__

        def recorded(self, channels, n):
            init(self, channels, n)
            made.append(n)

        monkeypatch.setattr(costvolume, "_TILE", tile)
        monkeypatch.setattr(geometry._GatherArrays, "__init__", recorded)
        setup, frames = rendered_presets["static_lateral"]
        f_t = extract_features(frames[1].image, "gradient", 1)
        source = (extract_features(frames[0].image, "gradient", 1),
                  relative_pose(frames[1].pose, frames[0].pose))
        build_cost_volume(f_t, [source], setup.K, linear_planes(1.0, 10.0, planes))
        h, w, _ = f_t.shape
        assert made
        assert max(made) <= max(planes, min(tile, max(h * w, tile // 4)))


def _per_plane_composition(target, sources, K, planes):
    """The cost volume composed plane by plane from plane_warp_grid and bilinear_sample."""
    h, w, _ = target.shape
    costs = np.empty((h, w, len(planes)))
    counts = np.empty((h, w, len(planes)), dtype=np.uint8)
    for p, d in enumerate(planes.depths):
        total = np.zeros((h, w))
        count = np.zeros((h, w), dtype=np.uint8)
        for fmap, pose in sources:
            warped, valid = bilinear_sample(fmap.data, plane_warp_grid(float(d), pose, K))
            total += np.where(valid, np.abs(warped - target.data).mean(axis=2), 0.0)
            count += valid
        costs[:, :, p] = np.where(count > 0, total / np.maximum(count, 1), np.inf)
        counts[:, :, p] = count
    return costs, counts


def _rotation(kind: str) -> np.ndarray:
    """A rotation by name: "identity", the half turn about the optical axis "flip",
    "yaw" by 0.02 rad, or "<axis> <sine>" with a cosine of exactly 1 for a subnormal sine."""
    if kind == "identity":
        return np.eye(3)
    if kind == "flip":
        return np.diag([-1.0, -1.0, 1.0])
    axis, sine = ("y", np.sin(0.02)) if kind == "yaw" else (kind.split()[0], float(kind.split()[1]))
    c = np.sqrt(1.0 - sine * sine)
    i, j = {"x": (1, 2), "y": (2, 0), "z": (0, 1)}[axis]
    rotation = np.eye(3)
    rotation[i, i] = rotation[j, j] = c
    rotation[i, j], rotation[j, i] = -sine, sine
    return rotation


def _same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestSeparableWarp:
    """A source whose pixel terms separate is swept from a column and a row table, any
    other cell by cell; both give the bits of the per-plane composition."""

    _ROTATIONS = ["identity", "flip", "z 5e-324", "z 1e-310", "x 5e-324", "y 1e-310", "yaw"]
    _OFFSETS = [0.0, -0.0, 5e-324, -1e-310, 0.05, -0.3, 1e6, -1e6]

    @given(
        poses=st.lists(st.tuples(st.sampled_from(_ROTATIONS),
                                 st.tuples(*[st.sampled_from(_OFFSETS)] * 3)), min_size=1, max_size=2),
        height=st.integers(1, 9), width=st.integers(1, 9), n_planes=st.integers(2, 8),
        channels=st.sampled_from([1, 3]), tile=st.integers(1, 200),
        threads=st.sampled_from(["1", "3"]), seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_sweep_is_the_per_plane_composition(self, poses, height, width, n_planes,
                                                       channels, tile, threads, seed):
        rng = np.random.default_rng(seed)
        K = Intrinsics(fx=7.5, fy=6.0, cx=(width - 1) / 2, cy=(height - 1) / 3,
                       width=width, height=height)
        target = FeatureMap(data=rng.random((height, width, channels)), scale=1)
        sources = [(FeatureMap(data=rng.random((height, width, channels)), scale=1),
                    Pose(_rotation(kind), np.array(t))) for kind, t in poses]
        planes = linear_planes(0.5, 6.0, n_planes)
        saved = costvolume._TILE, os.environ.get("SWEEPDEPTH_THREADS")
        costvolume._TILE, os.environ["SWEEPDEPTH_THREADS"] = tile, threads
        try:
            cv = build_cost_volume(target, sources, K, planes)
            alone = sweep_argmin(target, sources, K, planes)
            out = np.full((n_planes, height * width), np.nan)
            with costvolume.started_sweep_argmin(target, sources, K, planes, out=out) as join:
                beside = join()
        finally:
            costvolume._TILE = saved[0]
            if saved[1] is None:
                del os.environ["SWEEPDEPTH_THREADS"]
            else:
                os.environ["SWEEPDEPTH_THREADS"] = saved[1]
        want_costs, want_counts = _per_plane_composition(target, sources, K, planes)
        _same_bits(cv.costs, want_costs)
        _same_bits(cv.valid_count, want_counts)
        for got in (alone, beside):
            for g, w in zip(got, argmin_depth(cv, planes)):
                _same_bits(g, w)
        _same_bits(out, np.ascontiguousarray(cv.costs.reshape(-1, n_planes).T))

    @pytest.mark.parametrize("name", ["static_lateral", "static_forward", "moving_box"])
    def test_tables_and_cells_give_the_same_bits(self, rendered_presets, monkeypatch, name):
        # the presets' relative poses have no rotation, so every source takes the tables;
        # with the separability check off, the same sweep runs every source cell by cell
        setup, frames = rendered_presets[name]
        f_t = extract_features(frames[1].image, "gradient", 1)
        sources = [(extract_features(frames[i].image, "gradient", 1),
                    relative_pose(frames[1].pose, frames[i].pose)) for i in (0, 2)]
        planes = linear_planes(1.0, 10.0, 32)
        for _, pose in sources:
            assert geometry._PlaneProjection.of(pose, setup.K).separated(setup.K) is not None
        tables = build_cost_volume(f_t, sources, setup.K, planes), sweep_argmin(f_t, sources, setup.K, planes)
        monkeypatch.setattr(geometry._PlaneProjection, "separated", lambda self, K: None)
        cells = build_cost_volume(f_t, sources, setup.K, planes), sweep_argmin(f_t, sources, setup.K, planes)
        for got, want in ((tables[0].costs, cells[0].costs),
                          (tables[0].valid_count, cells[0].valid_count), *zip(tables[1], cells[1])):
            _same_bits(got, want)
        assert np.isfinite(tables[0].costs).mean() > 0.5

    def test_holds_tables_not_pixel_terms(self, rng, monkeypatch):
        # kitti_fine's shape: 640x192 at scale 1, two sources and 96 planes, in one slab.
        # Swept cell by cell, with each source's (3, H'W') pixel terms (2.9 MB) held and
        # the per-cell warp arrays (1.3 MB), it peaks at 12.8 MB; from tables, at 10.8 MB.
        # Two sources' tables hold 5.3 MB.
        monkeypatch.setenv("SWEEPDEPTH_THREADS", "1")
        h, w, n_planes = 192, 640, 96
        K = Intrinsics(fx=720.0, fy=720.0, cx=319.5, cy=95.5, width=w, height=h)

        def features():  # channel-major memory, as gradient features are
            return FeatureMap(data=np.moveaxis(rng.random((3, h, w)), 0, -1), scale=1)

        target = features()
        sources = [(features(), Pose.from_translation(tx, 0.0, tz)) for tx, tz in ((-0.5, -0.8), (0.5, 0.8))]
        planes = linear_planes(1.0, 10.0, n_planes)
        terms, table_sizes, held = [], [], []
        of, axis_table, argmin_rows = geometry._PlaneProjection.of, costvolume._axis_table, costvolume._argmin_rows

        def recorded_of(cls, *args):
            proj = of(*args)
            assert proj.uv.shape == (3, h * w)
            terms.append(weakref.ref(proj.uv))
            return proj

        def recorded_table(*args):
            valid, (index, step), weights = table = axis_table(*args)
            table_sizes.extend(a.size for a in (valid, index, step, *weights))
            return table

        def reduce_run(*args):
            held.append(sum(ref() is not None for ref in terms))
            argmin_rows(*args)

        monkeypatch.setattr(geometry._PlaneProjection, "of", classmethod(recorded_of))
        monkeypatch.setattr(costvolume, "_axis_table", recorded_table)
        monkeypatch.setattr(costvolume, "_argmin_rows", reduce_run)
        tracemalloc.start()
        try:
            depth, valid = sweep_argmin(target, sources, K, planes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6
        assert len(terms) == 2 and len(table_sizes) == 2 * 2 * 5
        assert max(table_sizes) <= max(h, w) * n_planes
        assert len(held) == 2 * 192 and not any(held)  # no run sees a source's pixel terms
        assert valid.mean() > 0.99


class TestVolumeBudget:
    """Oversized volumes are refused before anything of their size is allocated."""

    @staticmethod
    def _forbid(monkeypatch, *names):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the budget check")

        for name in names:
            monkeypatch.setattr(np, name, refuse)

    def test_plane_set_over_budget(self, monkeypatch):
        self._forbid(monkeypatch, "linspace")
        with pytest.raises(VolumeTooLarge):
            DepthPlaneSet(1.0, 10.0, MAX_VOLUME_CELLS + 1)

    def test_zero_volume_over_budget(self, monkeypatch):
        self._forbid(monkeypatch, "zeros", "ones")
        with pytest.raises(VolumeTooLarge):
            zero_volume(2**13, 2**13, 2)

    def test_sweep_over_budget(self, rng, monkeypatch):
        class HugePlaneSet:
            def __len__(self):
                return MAX_VOLUME_CELLS

        fmap = FeatureMap(data=rng.random((6, 8, 1)), scale=1)
        self._forbid(monkeypatch, "empty")
        for sweep in (build_cost_volume, sweep_argmin):
            with pytest.raises(VolumeTooLarge):
                sweep(fmap, [(fmap, Pose.identity())], small_K(), HugePlaneSet())

    def test_budget_admits_the_kitti_volume(self):
        costvolume.check_volume_size(192, 640, 96)


def test_thread_count_falls_back_on_a_setting_that_is_not_an_integer(monkeypatch):
    monkeypatch.setenv("SWEEPDEPTH_THREADS", "two")
    assert costvolume._thread_count(1000) == min(os.cpu_count() or 1, 4)
    assert costvolume._thread_count(1) == 1  # never wider than the number of runs


def test_an_explicit_width_is_capped(rng, monkeypatch):
    # _sweep lends each slab its work arrays before any thread starts, so the width
    # is capped before they are allocated: 25 runs of 8 pixels make 16 slabs, not 25
    monkeypatch.setenv("SWEEPDEPTH_THREADS", "100000")
    assert costvolume._thread_count(360) == costvolume.MAX_SWEEP_THREADS == 16
    monkeypatch.setattr(costvolume, "_TILE", 64)
    K = Intrinsics(fx=10.0, fy=10.0, cx=99.5, cy=0.0, width=200, height=1)
    fmap = FeatureMap(data=rng.random((1, 200, 2)), scale=1)
    slabs = costvolume._sweep(fmap, [(fmap, Pose.from_translation(0.2, 0, 0))], K,
                              linear_planes(1.0, 10.0, 8), lambda *block: None)
    assert len(slabs) == 16


class TestStartedSweep:
    """Every sweep picks its width by one rule: with SWEEPDEPTH_THREADS unset, a sweep whose
    runs hold fewer than _TILE // 2 cells is one slab, and any other a pool of min(cores, 4).
    ``started_sweep_argmin`` runs the sweep on that pool beside the caller, and a task given
    to it runs once on that pool after every slab has ended."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """The width of each pool a sweep starts, in order."""
        widths = []

        class RecordedPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                widths.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(costvolume, "ThreadPoolExecutor", RecordedPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.delenv("SWEEPDEPTH_THREADS", raising=False)
        return widths

    @staticmethod
    def _started(*args):
        with costvolume.started_sweep_argmin(*args) as join:
            return join()

    @staticmethod
    def _same(a, b):
        for x, y in zip(a, b):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()

    @staticmethod
    def _box_sweep(rendered_presets):
        """64x48 pixels with 32 planes, two sources: 12 runs of 256 pixels, 8192 cells."""
        setup, frames = rendered_presets["moving_box"]
        f_t = extract_features(frames[1].image, "gradient", 1)
        sources = [(extract_features(frames[i].image, "gradient", 1),
                    relative_pose(frames[1].pose, frames[i].pose)) for i in (0, 2)]
        return f_t, sources, setup.K, linear_planes(1.0, 10.0, 32)

    @staticmethod
    def _large_sweep(rng):
        """128x128 pixels with 2 planes, one source: 2 runs of 8192 pixels, 16384 cells."""
        K = Intrinsics(fx=100.0, fy=100.0, cx=63.5, cy=63.5, width=128, height=128)
        target = FeatureMap(data=rng.random((128, 128, 1)), scale=1)
        sources = [(FeatureMap(data=rng.random((128, 128, 1)), scale=1),
                    Pose.from_translation(0.2, 0, 0))]
        return target, sources, K, linear_planes(1.0, 10.0, 2)

    def _one_width(self, args, pools, width):
        """build_cost_volume, sweep_argmin and started_sweep_argmin each start one pool of
        ``width`` and give bit-identical results."""
        pools.clear()
        cv, alone, beside = build_cost_volume(*args), sweep_argmin(*args), self._started(*args)
        assert pools == [width] * 3
        self._same(alone, argmin_depth(cv, args[3]))
        self._same(alone, beside)

    def test_small_runs_beside_the_caller_are_one_slab(self, rendered_presets, monkeypatch, pools):
        # 8192-cell runs are one slab in every sweep; a set width wins
        args = self._box_sweep(rendered_presets)
        self._one_width(args, pools, 1)
        monkeypatch.setenv("SWEEPDEPTH_THREADS", "2")
        self._one_width(args, pools, 2)

    def test_large_runs_beside_the_caller_keep_the_pool(self, rng, pools):
        # 16384-cell runs are a pool of min(2 cores, 4) in every sweep
        self._one_width(self._large_sweep(rng), pools, 2)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_slab_error_reaches_the_caller(self, rendered_presets, monkeypatch, pools, threads):
        # one slab or two, every sweep runs its slabs on a pool: the slab's own error
        # comes out of the call, and no pool thread outlives it
        monkeypatch.setenv("SWEEPDEPTH_THREADS", str(threads))
        args = self._box_sweep(rendered_presets)
        error = SweepDepthError("the slab failed")

        def fail(*arrays):
            raise error

        monkeypatch.setattr(costvolume, "_gather", fail)  # in the slabs, not the set-up
        before = threading.active_count()
        for sweep in (build_cost_volume, sweep_argmin):
            with pytest.raises(SweepDepthError) as raised:
                sweep(*args)
            assert raised.value is error
            assert threading.active_count() == before
        assert pools == [threads, threads]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_task_runs_once_after_every_slab(self, rendered_presets, monkeypatch, pools, threads):
        monkeypatch.setenv("SWEEPDEPTH_THREADS", str(threads))
        args = self._box_sweep(rendered_presets)
        alone = sweep_argmin(*args)
        events = []  # (what, thread) for every run a slab reduces, and for the task
        argmin_rows = costvolume._argmin_rows

        def reduce_run(*arrays):
            events.append(("run", threading.get_ident()))
            argmin_rows(*arrays)

        monkeypatch.setattr(costvolume, "_argmin_rows", reduce_run)
        with costvolume.started_sweep_argmin(
                *args, lambda: events.append(("task", threading.get_ident()))) as join:
            beside = join()
        assert pools[-1] == threads
        assert [what for what, _ in events] == ["run"] * 12 + ["task"]
        assert events[-1][1] != threading.get_ident()  # on the sweep's thread, not the caller's
        self._same(alone, beside)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("task_fails", [False, True])
    def test_task_runs_when_a_slab_raises(self, rendered_presets, monkeypatch, pools, threads,
                                          task_fails):
        monkeypatch.setenv("SWEEPDEPTH_THREADS", str(threads))
        ran = []

        def task():
            ran.append(threading.get_ident())
            if task_fails:
                raise SweepDepthError("the task failed")

        def fail(*arrays):
            raise SweepDepthError("the slab failed")

        monkeypatch.setattr(costvolume, "_argmin_rows", fail)
        with pytest.raises(SweepDepthError, match="the slab failed"):
            with costvolume.started_sweep_argmin(*self._box_sweep(rendered_presets), task) as join:
                join()
        assert len(ran) == 1  # a slab's error comes first, and the task still ran

    @pytest.mark.parametrize("threads", [1, 2])
    def test_join_raises_the_tasks_error(self, rendered_presets, monkeypatch, pools, threads):
        monkeypatch.setenv("SWEEPDEPTH_THREADS", str(threads))

        def task():
            raise SweepDepthError("the task failed")

        with pytest.raises(SweepDepthError, match="the task failed"):
            with costvolume.started_sweep_argmin(*self._box_sweep(rendered_presets), task) as join:
                join()

    def test_thread_count_takes_one_count(self, monkeypatch):
        # perfbench/envinfo.py passes the run count alone
        monkeypatch.delenv("SWEEPDEPTH_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert costvolume._thread_count(1000) == 2
        monkeypatch.setenv("SWEEPDEPTH_THREADS", "3")
        assert costvolume._thread_count(1000) == 3


class TestArgminDepth:
    def test_unique_minimum(self):
        planes = linear_planes(1.0, 4.0, 4)
        costs = np.ones((3, 3, 4))
        costs[:, :, 2] = 0.1
        cv = CostVolume(costs=costs, valid_count=np.ones_like(costs, dtype=int))
        depth, valid = argmin_depth(cv, planes)
        assert np.allclose(depth, planes.depths[2])
        assert valid.all()
        with pytest.raises(ShapeMismatch):
            argmin_depth(cv, linear_planes(1.0, 4.0, 5))

    def test_tie_breaks_to_first_plane(self):
        planes = linear_planes(1.0, 4.0, 4)
        cv = CostVolume(
            costs=np.full((2, 2, 4), 0.7), valid_count=np.ones((2, 2, 4), dtype=int)
        )
        depth, valid = argmin_depth(cv, planes)
        assert np.allclose(depth, 1.0)
        assert valid.all()

    def test_self_match_volume_ties_to_first_plane(self, rng):
        K = small_K()
        fmap = FeatureMap(data=rng.random((6, 8, 2)), scale=1)
        planes = linear_planes(1.0, 5.0, 4)
        cv = build_cost_volume(fmap, [(fmap, Pose.identity())], K, planes)
        depth, _ = argmin_depth(cv, planes)
        assert np.allclose(depth, 1.0)

    def test_all_invalid_cells_get_midpoint(self):
        planes = linear_planes(2.0, 6.0, 4)
        costs = np.full((2, 2, 4), np.inf)
        costs[0, 0] = [3.0, 1.0, 2.0, 5.0]
        cv = CostVolume(costs=costs, valid_count=(costs < np.inf).astype(int))
        depth, valid = argmin_depth(cv, planes)
        assert depth[0, 0] == planes.depths[1]
        assert valid[0, 0]
        assert depth[1, 1] == 4.0  # (2 + 6) / 2
        assert not valid[1, 1]

    def test_decodes_a_read_dump_without_copying_it(self, rng, tmp_path):
        # numpy reports its buffers to tracemalloc. A read dump's costs are an
        # (H, W, P) view of plane-major float64, 23.6 MB at 96x320x96: taking
        # the argmin over the whole volume would copy it to put the planes last.
        h, w, p = 96, 320, 96
        costs = rng.random((h, w, p), dtype=np.float32)
        costs[:, :8] = np.inf  # pixels without a valid plane
        path = tmp_path / "v.swpcv"
        write_cost_volume(path, CostVolume(costs, np.isfinite(costs)), linear_planes(1.0, 10.0, p))
        del costs
        cv, planes = read_cost_volume(path)
        tracemalloc.start()
        try:
            depth, valid = argmin_depth(cv, planes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cv.costs.nbytes / 4
        want_valid = np.isfinite(cv.costs.min(axis=2))
        assert np.array_equal(valid, want_valid) and valid.any() and not valid.all()
        want = np.where(want_valid, planes.depths[np.argmin(cv.costs, axis=2)], 5.5)
        assert np.array_equal(depth, want)


class TestZeroVolume:
    def test_all_zero(self):
        cv = zero_volume(2, 2, 4)
        assert cv.costs.shape == (2, 2, 4)
        assert (cv.costs == 0).all()
        assert (cv.valid_count == 1).all()
        for dims in ((0, 2, 4), (2, -1, 4), (2, 2, 0)):
            with pytest.raises(InvalidRange):
                zero_volume(*dims)

    def test_argmin_is_tie_rule_constant(self):
        planes = linear_planes(1.0, 9.0, 4)
        depth, valid = argmin_depth(zero_volume(2, 3, 4), planes)
        assert np.allclose(depth, 1.0)
        assert valid.all()

    def test_consistency_mask_composition(self):
        from sweepdepth.losses import consistency_mask

        planes = linear_planes(1.0, 9.0, 4)
        depth, _ = argmin_depth(zero_volume(2, 3, 4), planes)
        teacher = np.full((2, 3), 2.0)  # exactly 2x: boundary stays unmasked
        assert not consistency_mask(depth, teacher).any()
        teacher = np.full((2, 3), 2.5)  # beyond 2x: masked
        assert consistency_mask(depth, teacher).all()


def _same_as_argmin_of_volume(target, sources, K, planes) -> np.ndarray:
    """Assert that sweep_argmin returns argmin_depth(build_cost_volume(...)) bit for bit;
    return the validity."""
    want = argmin_depth(build_cost_volume(target, sources, K, planes), planes)
    got = sweep_argmin(target, sources, K, planes)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    return got[1]


class TestSweepArgmin:
    @pytest.fixture(params=["1", "2", "3", "4"])
    def threads(self, request, monkeypatch):
        monkeypatch.setenv("SWEEPDEPTH_THREADS", request.param)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: slabs sharing a pixel would show
        yield request.param
        sys.setswitchinterval(interval)

    @pytest.mark.parametrize("spacing", ["linear", "inverse"])
    def test_rendered_scene(self, rendered_presets, threads, spacing):
        # 64x48 pixels with 96 planes, two sources: runs of one row
        setup, frames = rendered_presets["moving_box"]
        f_t = extract_features(frames[1].image, "gradient", 1)
        sources = [(extract_features(frames[i].image, "gradient", 1),
                    relative_pose(frames[1].pose, frames[i].pose)) for i in (0, 2)]
        _same_as_argmin_of_volume(f_t, sources, setup.K, DepthPlaneSet(1.0, 10.0, 96, spacing))

    def test_slab_boundaries(self, rng, monkeypatch, threads):
        # The strips of TestBuildCostVolume.test_slab_boundaries: 8 planes and
        # a _TILE of 256 give runs of at most 8 pixels, and a strip's last run
        # overlaps the run before it.
        monkeypatch.setattr(costvolume, "_TILE", 256)
        planes = linear_planes(1.0, 10.0, 8)
        for n in (9, 15, 25):
            K = Intrinsics(fx=10.0, fy=10.0, cx=(n - 1) / 2, cy=0.0, width=n, height=1)
            target = FeatureMap(data=rng.random((1, n, 2)), scale=1)
            sources = [(FeatureMap(data=rng.random((1, n, 2)), scale=1), pose)
                       for pose in (Pose.from_translation(0.2, 0, 0.05),
                                    Pose.from_translation(-0.3, 0, 0))]
            for _ in range(5):  # a race need not show in every sweep
                _same_as_argmin_of_volume(target, sources, K, planes)

    def test_one_pixel_runs(self, rendered_presets, monkeypatch, threads):
        # 12 planes and a _TILE of 8 cells: every run is one pixel with all its planes.
        monkeypatch.setattr(costvolume, "_TILE", 8)
        setup, frames = rendered_presets["moving_box"]
        f_t = extract_features(frames[1].image, "gradient", 1)
        sources = [(extract_features(frames[i].image, "gradient", 1),
                    relative_pose(frames[1].pose, frames[i].pose)) for i in (0, 2)]
        _same_as_argmin_of_volume(f_t, sources, setup.K, linear_planes(1.0, 10.0, 12))

    def test_every_plane_ties(self, threads):
        # Constant features: every plane a pixel can see costs exactly 0, so
        # the tie rule decides, and planes that warp out of bounds stay +inf.
        fmap = FeatureMap(data=np.zeros((12, 16, 2)), scale=1)
        valid = _same_as_argmin_of_volume(
            fmap, [(fmap, Pose.from_translation(0.5, 0, 0))], small_K(16, 12),
            linear_planes(1.0, 10.0, 8))
        assert valid.mean() > 0.5

    def test_pixels_without_a_valid_plane(self, rng, threads):
        # A source 2 m to the side shifts a 25-pixel strip by 2 to 20 pixels:
        # its last two pixels leave the image at every plane, so they take the
        # range midpoint and valid=False.
        K = Intrinsics(fx=10.0, fy=10.0, cx=12.0, cy=0.0, width=25, height=1)
        target = FeatureMap(data=rng.random((1, 25, 2)), scale=1)
        source = (FeatureMap(data=rng.random((1, 25, 2)), scale=1), Pose.from_translation(2.0, 0, 0))
        valid = _same_as_argmin_of_volume(target, [source], K, linear_planes(1.0, 10.0, 8))
        assert valid.any() and not valid.all()

    @pytest.mark.parametrize("spacing", ["linear", "inverse"])
    def test_zero_volume_answer(self, spacing):
        # --zero-cv and a ZERO_VOLUME draw take the tie rule without a volume
        planes = DepthPlaneSet(2.0, 8.0, 5, spacing)
        want = argmin_depth(zero_volume(3, 4, 5), planes)
        with cli._Sweep(planes, (3, 4, 5), None).started(None, out=None) as join:
            got = join()
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_holds_no_volume(self, rng, monkeypatch):
        # numpy reports its buffers to tracemalloc, so the peak counts every
        # array the sweep allocates. One 96x320, 96-plane volume holds 26.5 MB
        # of costs and counts; the reduce path keeps one pool thread's work
        # arrays for a run of one 320-pixel row (2 MB with one feature channel),
        # the channel-major inputs and the per-pixel results.
        monkeypatch.setenv("SWEEPDEPTH_THREADS", "1")
        h, w = 96, 320
        K = Intrinsics(fx=320.0, fy=320.0, cx=159.5, cy=47.5, width=w, height=h)
        target = FeatureMap(data=rng.random((h, w, 1)), scale=1)
        sources = [(FeatureMap(data=rng.random((h, w, 1)), scale=1), Pose.from_translation(0.2, 0, 0))]
        planes = linear_planes(1.0, 10.0, 96)
        volume_bytes = h * w * len(planes) * (8 + 1)
        peaks = {}
        for sweep in (build_cost_volume, sweep_argmin):
            tracemalloc.start()
            try:
                sweep(target, sources, K, planes)
                peaks[sweep] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[build_cost_volume] > volume_bytes  # the volume shows when it is held
        assert peaks[sweep_argmin] < volume_bytes / 4


class TestAdaptiveRange:
    def test_hand_computed_update(self):
        state = AdaptiveRangeState(d_min=1.0, d_max=10.0, momentum=0.99)
        batch = [np.array([[2.0, 3.0]]), np.array([[2.0, 10.0]])]
        # batch mins (2, 2) -> 2.0 ; maxes (3, 10) -> 6.5
        new = adaptive_range_update(state, batch)
        assert abs(new.d_min - (0.99 * 1.0 + 0.01 * 2.0)) < 1e-12
        assert abs(new.d_max - (0.99 * 10.0 + 0.01 * 6.5)) < 1e-12

    def test_fixed_point(self):
        state = AdaptiveRangeState(d_min=2.0, d_max=8.0)
        batch = [np.array([[2.0, 8.0]])]
        new = adaptive_range_update(state, batch)
        assert new.d_min == 2.0 and new.d_max == 8.0

    def test_zero_momentum_jumps_to_batch(self):
        state = AdaptiveRangeState(d_min=1.0, d_max=10.0, momentum=0.0)
        new = adaptive_range_update(state, [np.array([[3.0, 7.0]])])
        assert new.d_min == 3.0 and new.d_max == 7.0

    def test_frozen_and_empty_rejected(self):
        state = AdaptiveRangeState(d_min=1.0, d_max=10.0, frozen=True)
        with pytest.raises(FrozenState):
            adaptive_range_update(state, [np.ones((2, 2))])
        state = AdaptiveRangeState(d_min=1.0, d_max=10.0)
        with pytest.raises(EmptyBatch):
            adaptive_range_update(state, [])
        with pytest.raises(InvalidRange):
            adaptive_range_update(state, [np.ones((2, 2)), np.ones((0, 3))])

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_non_finite_or_nonpositive_batch_rejected(self, bad):
        state = AdaptiveRangeState(d_min=1.0, d_max=10.0)
        with pytest.raises(NonPositiveDepth):
            adaptive_range_update(state, [np.array([[2.0, bad]])])

    @given(
        d_min=st.floats(0.1, 5.0),
        b_min=st.floats(0.1, 5.0),
        m=st.floats(0.0, 0.999),
    )
    @settings(max_examples=50)
    def test_contraction_toward_batch_stats(self, d_min, b_min, m):
        state = AdaptiveRangeState(d_min=d_min, d_max=100.0, momentum=m)
        new = adaptive_range_update(state, [np.array([[b_min, 100.0]])])
        assert abs(new.d_min - b_min) == pytest.approx(m * abs(d_min - b_min), abs=1e-9)


class TestInverseDepthPlanes:
    def test_uniform_in_disparity(self):
        planes = inverse_depth_planes(1.0, 10.0, 10)
        assert planes.depths[0] == 1.0 and planes.depths[-1] == 10.0
        assert np.allclose(np.diff(1.0 / planes.depths), -0.1, atol=1e-12)
        assert (np.diff(planes.depths) > 0).all()

    def test_quantization_floor_is_half_the_widest_gap(self):
        # The widest gap is the far one, 10 - 1 / (0.1 + 0.9 / 7) = 5.625.
        assert inverse_depth_planes(1.0, 10.0, 8).quantization_floor == pytest.approx(2.8125)


def _sweep_pipeline(setup, frames, planes, scale=1):
    from sweepdepth.costvolume import upsample_nearest
    from sweepdepth.synth import relative_pose, texture_contrast_mask

    f_t = extract_features(frames[1].image, "gradient", scale)
    sources = [
        (
            extract_features(frames[i].image, "gradient", scale),
            relative_pose(frames[1].pose, frames[i].pose),
        )
        for i in (0, 2)
    ]
    cv = build_cost_volume(f_t, sources, setup.K.scaled(scale), planes)
    depth_f, _ = argmin_depth(cv, planes)
    d_img = upsample_nearest(depth_f, scale, setup.K.height, setup.K.width)
    tex = texture_contrast_mask(f_t.data[:, :, 0])
    tex_img = upsample_nearest(tex.astype(float), scale, setup.K.height, setup.K.width) > 0.5
    return cv, d_img, tex_img


class TestEndToEndRecovery:
    def test_monotone_identifiability(self, rendered_presets):
        # Denser plane sets keep shrinking the median error down to the
        # resolution limit of the plane spacing.
        setup, frames = rendered_presets["static_lateral"]
        gt = frames[1].depth_gt
        medians = []
        for count in (4, 8, 16, 32):
            planes = linear_planes(1.0, 10.0, count)
            _, d_img, tex = _sweep_pipeline(setup, frames, planes)
            medians.append(np.median(np.abs(d_img - gt)[tex]))
        assert all(a > b for a, b in zip(medians, medians[1:]))
        assert medians[-1] <= linear_planes(1.0, 10.0, 32).quantization_floor

    def test_fronto_parallel_wall_nearest_plane_rate(self):
        # Translating laterally past a textured wall, the argmin picks the
        # plane nearest the true depth almost everywhere with contrast.
        from sweepdepth.geometry import Pose
        from sweepdepth.synth import (
            PlaneElement,
            Scene,
            Texture,
            make_sequence,
            preset_scene,
            relative_pose,
            texture_contrast_mask,
        )

        K = preset_scene("static_lateral").K
        wall = Scene(
            planes=(
                PlaneElement(
                    normal=(0, 0, 1.0),
                    offset=4.3,
                    texture=Texture(kind="grating", period_x=1.2, period_y=1.6, amp_x=0.24, amp_y=0.2),
                ),
            )
        )
        poses = [Pose.from_translation(0.1 * t, 0, 0) for t in range(3)]
        frames = make_sequence(wall, poses, K)
        planes = linear_planes(1.0, 10.0, 32)
        f_t = extract_features(frames[1].image, "gradient", 1)
        sources = [
            (extract_features(frames[i].image, "gradient", 1), relative_pose(frames[1].pose, frames[i].pose))
            for i in (0, 2)
        ]
        cv = build_cost_volume(f_t, sources, K, planes)
        idx = np.argmin(cv.costs, axis=2)
        nearest = int(np.argmin(np.abs(planes.depths - 4.3)))
        tex = texture_contrast_mask(f_t.data[:, :, 0])
        assert (idx[tex] == nearest).mean() >= 0.95

    def test_moving_object_corrupts_box_only(self, rendered_presets):
        from sweepdepth.synth import mover_mask

        setup, frames = rendered_presets["moving_box"]
        planes = linear_planes(1.0, 10.0, 32)
        _, d_img, _ = _sweep_pipeline(setup, frames, planes)
        gt = frames[1].depth_gt
        box = mover_mask(setup.scene, frames[1].pose, setup.K, 1)
        err = np.abs(d_img - gt)
        floor = planes.quantization_floor
        assert np.median(err[box]) > 3 * floor
        assert np.median(err[~box]) < floor

    def test_thread_count_does_not_change_result(self, rendered_presets, monkeypatch):
        # 64x48 pixels with their 16 planes in runs of half a row at _TILE
        # 1000 and 700: 96 runs, one slab at width 1, four slabs of 24 runs
        # at width 4.
        setup, frames = rendered_presets["static_lateral"]
        planes = linear_planes(1.0, 10.0, 16)
        for tile in (1000, 700):
            monkeypatch.setattr(costvolume, "_TILE", tile)
            monkeypatch.setenv("SWEEPDEPTH_THREADS", "1")
            serial, _, _ = _sweep_pipeline(setup, frames, planes)
            monkeypatch.setenv("SWEEPDEPTH_THREADS", "4")
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # switch threads often: shared cells would show
            try:
                threaded, _, _ = _sweep_pipeline(setup, frames, planes)
            finally:
                sys.setswitchinterval(interval)
            assert np.array_equal(serial.costs, threaded.costs)
            assert np.array_equal(serial.valid_count, threaded.valid_count)
