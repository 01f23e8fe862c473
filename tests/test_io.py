"""Codec round trips and malformed-input behavior."""

import re
import tracemalloc

import numpy as np
import pytest

from sweepdepth.costvolume import CostVolume, linear_planes
from sweepdepth.errors import (
    InvalidRange,
    MalformedHeader,
    ShapeMismatch,
    SweepDepthError,
    TruncatedPayload,
    UnsupportedMaxval,
)
from sweepdepth.geometry import Intrinsics, Pose
from sweepdepth.io import (
    read_cost_volume,
    read_intrinsics,
    read_pfm,
    read_pgm,
    read_pose,
    read_ppm,
    write_cost_volume,
    write_intrinsics,
    write_pfm,
    write_pgm,
    write_pose,
    write_ppm,
)


class TestPfm:
    def test_round_trip_gray_bit_identical(self, tmp_path, rng):
        data = rng.standard_normal((5, 7)).astype(np.float32).astype(np.float64)
        path = tmp_path / "d.pfm"
        write_pfm(path, data)
        first = path.read_bytes()
        again = read_pfm(path)
        assert np.array_equal(again, data)
        write_pfm(path, again)
        assert path.read_bytes() == first

    def test_round_trip_color(self, tmp_path, rng):
        data = rng.random((4, 6, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path / "c.pfm"
        write_pfm(path, data)
        assert np.array_equal(read_pfm(path), data)
        for bad in (data[..., :2], data[None]):  # two channels; four axes
            with pytest.raises(ShapeMismatch):
                write_pfm(path, bad)

    def test_literal_header_layout(self, tmp_path):
        payload = np.arange(35, dtype="<f4").tobytes()
        path = tmp_path / "x.pfm"
        path.write_bytes(b"Pf\n5 7\n-1.0\n" + payload)
        data = read_pfm(path)
        assert data.shape == (7, 5)
        assert data[-1, 0] == 0.0  # first stored row is the bottom one

    def test_big_endian_scale_token(self, tmp_path):
        payload = np.arange(4, dtype=">f4").tobytes()
        path = tmp_path / "be.pfm"
        path.write_bytes(b"Pf\n2 2\n1.0\n" + payload)
        assert np.array_equal(read_pfm(path), np.array([[2.0, 3.0], [0.0, 1.0]]))

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.pfm"
        path.write_bytes(b"Pf\n5 7\n-1.0\n" + b"\x00" * 139)
        with pytest.raises(TruncatedPayload):
            read_pfm(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "b.pfm"
        path.write_bytes(b"Px\n2 2\n-1.0\n" + b"\x00" * 16)
        with pytest.raises(MalformedHeader):
            read_pfm(path)

    def test_zero_scale(self, tmp_path):
        path = tmp_path / "z.pfm"
        path.write_bytes(b"Pf\n2 2\n0.0\n" + b"\x00" * 16)
        with pytest.raises(MalformedHeader):
            read_pfm(path)

    @pytest.mark.parametrize("scale", [b"nan", b"inf", b"-inf"])
    def test_non_finite_scale(self, tmp_path, scale):
        path = tmp_path / "n.pfm"
        path.write_bytes(b"Pf\n2 1\n" + scale + b"\n" + b"\x00" * 8)
        with pytest.raises(MalformedHeader):
            read_pfm(path)


class TestNetpbm:
    def test_ppm_round_trip_8bit_values(self, tmp_path, rng):
        img = rng.integers(0, 256, (6, 5, 3)).astype(np.float64) / 255.0
        path = tmp_path / "i.ppm"
        write_ppm(path, img)
        assert np.array_equal(read_ppm(path), img)
        with pytest.raises(ShapeMismatch):
            write_ppm(path, img[..., 0])

    def test_pgm_round_trip(self, tmp_path, rng):
        img = rng.integers(0, 256, (6, 5)).astype(np.float64) / 255.0
        path = tmp_path / "i.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path), img)
        with pytest.raises(ShapeMismatch):
            write_pgm(path, img[..., None])

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "m.ppm"
        path.write_bytes(b"P6\n2 2\n65535\n" + b"\x00" * 24)
        with pytest.raises(UnsupportedMaxval):
            read_ppm(path)

    def test_ascii_p3_rejected(self, tmp_path):
        path = tmp_path / "a.ppm"
        path.write_bytes(b"P3\n2 2\n255\n0 0 0 0 0 0 0 0 0 0 0 0\n")
        with pytest.raises(MalformedHeader):
            read_ppm(path)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# made by hand\n2 2\n255\n\x01\x02\x03\x04")
        img = read_pgm(path)
        assert np.allclose(img * 255, [[1, 2], [3, 4]])

    def test_quantization_on_write(self, tmp_path):
        img = np.array([[[0.5, 0.0, 1.0]]])  # 0.5 -> round(127.5) = 128
        path = tmp_path / "q.ppm"
        write_ppm(path, img)
        assert np.array_equal(read_ppm(path) * 255, [[[128, 0, 255]]])


# (reader, header, payload size, hand-made variants after b"" and b"\n")
_FUZZ_SEEDS = {
    "pfm": (read_pfm, b"Pf\n5 7\n-1.0\n", 140,
            [b"Pf", b"Pf\n", b"Pf\n5", b"Pf\n5 x\n-1.0\n" + bytes(140)]),
    "swpcv1": (read_cost_volume, b"SWPCV1 2 3 4 1.0 2.0\n", 96,
               [b"SWPCV1", b"SWPCV1 2 3 4 1.0\n", b"SWPCV1 2 x 4 1.0 2.0\n" + bytes(96),
                b"SWPCV1 2 3 4 2.0 1.0\n" + bytes(96), b"SWPCV1 2 3 4 1.0 inf\n" + bytes(96)]),
    "swpcv2": (read_cost_volume, b"SWPCV2 2 3 4 1.0 2.0 inverse\n", 96,
               [b"SWPCV2 2 3 4 1.0 2.0\n" + bytes(96), b"SWPCV2 2 3 4 1.0 2.0 cubic\n" + bytes(96),
                b"SWPCV2 0 3 4 1.0 2.0 inverse\n"]),
}


class TestFuzz:
    @pytest.mark.parametrize("reader, header, size, extra", _FUZZ_SEEDS.values(),
                             ids=_FUZZ_SEEDS.keys())
    def test_malformed_headers_raise_typed_errors(self, rng, reader, header, size, extra):
        import tempfile
        from pathlib import Path

        base = header + bytes(size)
        variants = [b"", b"\n", *extra]
        for _ in range(100):
            kind = rng.integers(0, 3)
            buf = bytearray(base)
            if kind == 0:  # flip random header bytes
                for _ in range(rng.integers(1, 4)):
                    buf[rng.integers(0, len(header))] = rng.integers(0, 256)
            elif kind == 1:  # truncate anywhere
                buf = buf[: rng.integers(0, len(buf))]
            else:  # random prefix garbage
                buf = bytearray(rng.integers(0, 256, rng.integers(1, 40), dtype=np.uint8).tobytes())
            variants.append(bytes(buf))
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "fuzz"
            for i, blob in enumerate(variants):
                path.write_bytes(blob)
                try:
                    reader(path)
                except SweepDepthError:
                    pass  # typed failure is the contract
                except ValueError as exc:  # pragma: no cover
                    raise AssertionError(f"untyped error on variant {i}: {exc}")

    @pytest.mark.parametrize("reader, blob", [
        (read_pfm, b"Pf\n5 7\n-1.0\n" + bytes(139)),
        (read_ppm, b"P6\n2 2\n255\n" + bytes(11)),
        (read_pgm, b"P5\n2 2\n255\n" + bytes(3)),
        (read_cost_volume, b"SWPCV1 2 3 4 1.0 2.0\n" + bytes(95)),
    ], ids=["pfm", "ppm", "pgm", "swpcv"])
    def test_errors_name_the_file(self, tmp_path, reader, blob):
        path = tmp_path / "short"
        path.write_bytes(blob)  # one byte short of its payload
        with pytest.raises(TruncatedPayload, match=f"^{re.escape(str(path))}: "):
            reader(path)


class TestCostVolumeDump:
    def test_round_trip(self, tmp_path, rng):
        costs = rng.random((4, 5, 3)).astype(np.float32).astype(np.float64)
        costs[0, 0, :] = np.inf
        cv = CostVolume(costs=costs, valid_count=np.isfinite(costs).astype(int))
        planes = linear_planes(1.25, 9.5, 3)
        path = tmp_path / "v.swpcv"
        write_cost_volume(path, cv, planes)
        got_cv, got_planes = read_cost_volume(path)
        assert np.array_equal(got_cv.costs, costs)
        assert got_planes.d_min == 1.25 and got_planes.d_max == 9.5
        assert len(got_planes) == 3

    def test_header_format(self, tmp_path, rng):
        cv = CostVolume(costs=rng.random((2, 3, 4)), valid_count=np.ones((2, 3, 4), int))
        path = tmp_path / "v.swpcv"
        write_cost_volume(path, cv, linear_planes(1.0, 2.0, 4))
        head = path.read_bytes().split(b"\n", 1)[0]
        assert head == b"SWPCV1 2 3 4 1.0 2.0"

    def test_plane_major_order(self, tmp_path):
        costs = np.arange(2 * 2 * 2, dtype=float).reshape(2, 2, 2)
        cv = CostVolume(costs=costs, valid_count=np.ones((2, 2, 2), int))
        path = tmp_path / "v.swpcv"
        write_cost_volume(path, cv, linear_planes(1.0, 2.0, 2))
        payload = path.read_bytes().split(b"\n", 1)[1]
        flat = np.frombuffer(payload, dtype="<f4")
        # plane 0 first (row-major), then plane 1
        assert np.array_equal(flat, [0, 2, 4, 6, 1, 3, 5, 7])

    def test_write_holds_one_copy_of_the_payload(self, rng, tmp_path):
        # numpy reports its buffers to tracemalloc: a 96x320x96 volume is an
        # 11.8 MB float32 payload, converted once and written from that copy
        costs = rng.random((96, 320, 96))
        cv = CostVolume(costs=costs, valid_count=np.ones(costs.shape, np.uint8))
        planes = linear_planes(1.0, 10.0, 96)
        tracemalloc.start()
        try:
            write_cost_volume(tmp_path / "v.swpcv", cv, planes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * costs.size * 4

    def test_read_holds_no_copy_of_the_file(self, rng, tmp_path):
        # numpy reports its buffers to tracemalloc: besides the float64 costs and uint8
        # counts it returns, the reader holds one float32 plane, not the file's bytes
        # and no boolean volume
        costs = rng.random((48, 160, 96)).astype(np.float32).astype(np.float64)
        costs[rng.random(costs.shape) < 0.1] = np.inf
        path = tmp_path / "v.swpcv"
        write_cost_volume(path, CostVolume(costs, np.ones(costs.shape, np.uint8)),
                          linear_planes(1.0, 10.0, 96))
        tracemalloc.start()
        try:
            cv, _ = read_cost_volume(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * (cv.costs.nbytes + cv.valid_count.nbytes)
        assert np.array_equal(cv.costs, costs)
        assert cv.valid_count.dtype == np.uint8
        assert np.array_equal(cv.valid_count, np.isfinite(costs))

    def test_truncation(self, tmp_path):
        path = tmp_path / "v.swpcv"
        path.write_bytes(b"SWPCV1 2 2 2 1.0 2.0\n" + bytes(10))
        with pytest.raises(TruncatedPayload):
            read_cost_volume(path)

    @pytest.mark.parametrize("d_min, d_max", [(b"1e-300", b"2.0"), (b"1.0", b"1e300")])
    def test_header_range_float32_cannot_hold(self, tmp_path, d_min, d_max):
        path = tmp_path / "v.swpcv"
        path.write_bytes(b"SWPCV1 2 2 2 " + d_min + b" " + d_max + b"\n" + bytes(32))
        with pytest.raises(InvalidRange):
            read_cost_volume(path)


class TestCameraJson:
    def test_intrinsics_round_trip(self, tmp_path):
        K = Intrinsics(fx=64.5, fy=63.25, cx=31.5, cy=23.5, width=64, height=48)
        path = tmp_path / "k.json"
        write_intrinsics(path, K)
        assert read_intrinsics(path) == K

    def test_intrinsics_size_may_be_a_whole_float(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text('{"fx": 64, "fy": 64, "cx": 31.5, "cy": 23.5, "width": 64.0, "height": 48}')
        K = read_intrinsics(path)
        assert (K.width, K.height) == (64, 48) and type(K.width) is int

    def test_pose_round_trip(self, tmp_path):
        angle = 0.3
        R = np.array(
            [
                [np.cos(angle), 0, np.sin(angle)],
                [0, 1, 0],
                [-np.sin(angle), 0, np.cos(angle)],
            ]
        )
        pose = Pose(R, np.array([0.5, -0.25, 2.0]))
        path = tmp_path / "p.json"
        write_pose(path, pose)
        got = read_pose(path)
        assert np.array_equal(got.rotation, pose.rotation)
        assert np.array_equal(got.translation, pose.translation)
