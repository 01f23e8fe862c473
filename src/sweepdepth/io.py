"""Bit-exact file codecs: PFM depth maps, binary netpbm images, camera and
pose JSON, and the raw cost-volume dump.

These formats are the package's on-disk interface, so they are implemented
here rather than pulled from an image library: the tests fuzz the parsers
and require write -> read round trips to be bit-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .costvolume import CostVolume, DepthPlaneSet
from .errors import (
    MalformedHeader,
    ShapeMismatch,
    SweepDepthError,
    TruncatedPayload,
    UnsupportedMaxval,
)
from .geometry import Intrinsics, Pose

_PFM_GRAY = b"Pf"
_PFM_COLOR = b"PF"
_CV_MAGIC_LINEAR = "SWPCV1"
_CV_MAGIC_SPACED = "SWPCV2"


def _split_header_tokens(buf: bytes, count: int) -> tuple[list[bytes], int]:
    """First ``count`` whitespace-separated tokens and the payload offset.

    Netpbm-style '#' comments are skipped. The payload starts after exactly
    one whitespace byte following the last token.
    """
    tokens: list[bytes] = []
    i = 0
    n = len(buf)
    while len(tokens) < count:
        while i < n and buf[i : i + 1].isspace():
            i += 1
        if i < n and buf[i : i + 1] == b"#":
            while i < n and buf[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < n and not buf[i : i + 1].isspace():
            i += 1
        if i == start:
            raise MalformedHeader("header ended before all fields were read")
        tokens.append(buf[start:i])
    if i >= n or not buf[i : i + 1].isspace():
        raise MalformedHeader("missing whitespace after header")
    return tokens, i + 1


def read_pfm(path: str | Path) -> np.ndarray:
    """Read a PFM file into an (H, W) or (H, W, 3) float64 array."""
    buf = Path(path).read_bytes()
    tokens, offset = _split_header_tokens(buf, 4)
    magic = tokens[0]
    if magic == _PFM_GRAY:
        bands = 1
    elif magic == _PFM_COLOR:
        bands = 3
    else:
        raise MalformedHeader(f"bad PFM magic {magic!r}")
    try:
        width = int(tokens[1])
        height = int(tokens[2])
        scale = float(tokens[3])
    except ValueError as exc:
        raise MalformedHeader(f"non-numeric PFM header field: {exc}") from exc
    if width <= 0 or height <= 0:
        raise MalformedHeader(f"bad PFM dimensions {width}x{height}")
    if scale == 0:
        raise MalformedHeader("PFM scale must be nonzero")

    expected = width * height * bands * 4
    payload = buf[offset : offset + expected]
    if len(payload) < expected:
        raise TruncatedPayload(
            f"PFM payload has {len(payload)} bytes, expected {expected}"
        )
    dtype = "<f4" if scale < 0 else ">f4"
    data = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    data = data.reshape(height, width, bands)[::-1]  # rows stored bottom-up
    return data[..., 0] if bands == 1 else data


def write_pfm(path: str | Path, data: np.ndarray) -> None:
    """Write an (H, W) or (H, W, 3) array as a little-endian PFM file."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 2:
        magic, payload = _PFM_GRAY, data[..., None]
    elif data.ndim == 3 and data.shape[2] == 3:
        magic, payload = _PFM_COLOR, data
    else:
        raise ShapeMismatch(f"PFM supports (H, W) or (H, W, 3), got {data.shape}")
    h, w = payload.shape[:2]
    header = magic + f"\n{w} {h}\n-1.0\n".encode("ascii")
    Path(path).write_bytes(header + payload[::-1].astype("<f4").tobytes())


def _read_netpbm(path: str | Path, magic: bytes, bands: int) -> np.ndarray:
    buf = Path(path).read_bytes()
    tokens, offset = _split_header_tokens(buf, 4)
    if tokens[0] != magic:
        raise MalformedHeader(f"bad magic {tokens[0]!r}, expected {magic!r}")
    try:
        width = int(tokens[1])
        height = int(tokens[2])
        maxval = int(tokens[3])
    except ValueError as exc:
        raise MalformedHeader(f"non-numeric netpbm header field: {exc}") from exc
    if width <= 0 or height <= 0:
        raise MalformedHeader(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise UnsupportedMaxval(f"only maxval 255 is supported, got {maxval}")
    expected = width * height * bands
    payload = buf[offset : offset + expected]
    if len(payload) < expected:
        raise TruncatedPayload(f"payload has {len(payload)} bytes, expected {expected}")
    data = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, bands)
    data = data.astype(np.float64) / 255.0
    return data[..., 0] if bands == 1 else data


def _write_netpbm(path: str | Path, magic: bytes, data: np.ndarray) -> None:
    quantized = np.round(np.clip(data, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = quantized.shape[:2]
    header = magic + f"\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + quantized.tobytes())


def read_ppm(path: str | Path) -> np.ndarray:
    """Read a binary P6 image into (H, W, 3) floats in [0, 1]."""
    return _read_netpbm(path, b"P6", 3)


def write_ppm(path: str | Path, img: np.ndarray) -> None:
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ShapeMismatch(f"PPM needs (H, W, 3), got {img.shape}")
    _write_netpbm(path, b"P6", img)


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary P5 image into (H, W) floats in [0, 1]."""
    return _read_netpbm(path, b"P5", 1)


def write_pgm(path: str | Path, img: np.ndarray) -> None:
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ShapeMismatch(f"PGM needs (H, W), got {img.shape}")
    _write_netpbm(path, b"P5", img[..., None])


def read_json(path: str | Path, parse):
    """``parse(content of path)``; malformed content raises a SweepDepthError naming
    the file, of the same type when ``parse`` raised a SweepDepthError."""
    text = Path(path).read_text()
    try:
        return parse(json.loads(text))
    except SweepDepthError as exc:
        raise type(exc)(f"malformed {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SweepDepthError(f"malformed {path}: {exc!r}") from exc


def intrinsics_from_json(obj: dict) -> Intrinsics:
    """Intrinsics from a parsed ``{fx, fy, cx, cy, width, height}`` object."""
    return Intrinsics(
        fx=float(obj["fx"]),
        fy=float(obj["fy"]),
        cx=float(obj["cx"]),
        cy=float(obj["cy"]),
        width=int(obj["width"]),
        height=int(obj["height"]),
    )


def read_intrinsics(path: str | Path) -> Intrinsics:
    return read_json(path, intrinsics_from_json)


def write_intrinsics(path: str | Path, K: Intrinsics) -> None:
    Path(path).write_text(
        json.dumps(
            {
                "fx": K.fx,
                "fy": K.fy,
                "cx": K.cx,
                "cy": K.cy,
                "width": K.width,
                "height": K.height,
            },
            indent=2,
        )
        + "\n"
    )


def pose_from_json(obj: dict) -> Pose:
    """Pose from a parsed ``{"R": 9 row-major, "t": 3}`` object."""
    R = np.asarray(obj["R"], dtype=float).reshape(3, 3)
    t = np.asarray(obj["t"], dtype=float)
    return Pose(R, t)


def read_pose(path: str | Path) -> Pose:
    return read_json(path, pose_from_json)


def write_pose(path: str | Path, pose: Pose) -> None:
    Path(path).write_text(
        json.dumps(
            {
                "R": [float(x) for x in pose.rotation.reshape(-1)],
                "t": [float(x) for x in pose.translation],
            },
            indent=2,
        )
        + "\n"
    )


def write_cost_volume(path: str | Path, cv: CostVolume, planes: DepthPlaneSet) -> None:
    """Dump a volume: 'SWPCV1 H W P d_min d_max' for linear planes, else
    'SWPCV2 H W P d_min d_max spacing', then plane-major float32."""
    h, w, p = cv.costs.shape
    fields = f"{h} {w} {p} {planes.d_min!r} {planes.d_max!r}"
    if planes.spacing == "linear":
        header = f"{_CV_MAGIC_LINEAR} {fields}\n"
    else:
        header = f"{_CV_MAGIC_SPACED} {fields} {planes.spacing}\n"
    payload = np.moveaxis(cv.costs, 2, 0).astype("<f4").tobytes()
    Path(path).write_bytes(header.encode("ascii") + payload)


def read_cost_volume(path: str | Path) -> tuple[CostVolume, DepthPlaneSet]:
    """Read an SWPCV1 (linear planes) or SWPCV2 (spacing recorded) dump."""
    buf = Path(path).read_bytes()
    newline = buf.find(b"\n")
    if newline < 0:
        raise MalformedHeader("cost volume dump has no header line")
    fields = buf[:newline].decode("ascii", errors="replace").split()
    if fields[:1] == [_CV_MAGIC_LINEAR] and len(fields) == 6:
        spacing = "linear"
    elif fields[:1] == [_CV_MAGIC_SPACED] and len(fields) == 7:
        spacing = fields[6]
    else:
        raise MalformedHeader(f"bad cost volume header {fields!r}")
    try:
        h, w, p = (int(x) for x in fields[1:4])
        d_min, d_max = (float(x) for x in fields[4:6])
    except ValueError as exc:
        raise MalformedHeader(f"non-numeric cost volume header field: {exc}") from exc
    if h <= 0 or w <= 0 or p <= 0:
        raise MalformedHeader(f"bad cost volume dimensions {h}x{w}x{p}")
    expected = h * w * p * 4
    payload = buf[newline + 1 : newline + 1 + expected]
    if len(payload) < expected:
        raise TruncatedPayload(f"payload has {len(payload)} bytes, expected {expected}")
    costs = np.moveaxis(
        np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(p, h, w), 0, 2
    )
    valid = np.isfinite(costs).astype(np.uint8)
    return CostVolume(costs=costs, valid_count=valid), DepthPlaneSet(d_min, d_max, p, spacing)
