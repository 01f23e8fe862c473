"""Bit-exact file codecs: PFM depth maps, binary netpbm images, camera and
pose JSON, and the raw cost-volume dump.

These formats are the package's on-disk interface, so they are implemented
here rather than pulled from an image library: the tests fuzz the parsers
and require write -> read round trips to be bit-identical. The binary formats
share ``_fields``, ``_payload`` and ``_write``; JSON goes through ``read_json``/``write_json``.
Every reader names its file in its errors through ``_names_its_file``.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
from dataclasses import asdict
from numbers import Real
from pathlib import Path

import numpy as np

from .costvolume import CostVolume, DepthPlaneSet
from .errors import (
    InvalidParameter,
    MalformedHeader,
    ShapeMismatch,
    SweepDepthError,
    TruncatedPayload,
    UnsupportedMaxval,
)
from .geometry import Intrinsics, Pose

_PFM_GRAY = "Pf"
_PFM_COLOR = "PF"
_CV_MAGIC_LINEAR = "SWPCV1"
_CV_MAGIC_SPACED = "SWPCV2"


# one header token after whitespace and '#' comments, each comment running to a newline or the end
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?=\n|\Z))*([^\s#]\S*)")


def _split_header_tokens(buf: bytes, count: int) -> tuple[list[str], int]:
    """The first ``count`` whitespace-separated tokens, netpbm-style '#' comments skipped, and
    the payload offset: exactly one whitespace byte past the last token."""
    tokens, end = [], 0
    for _ in range(count):
        if not (match := _HEADER_TOKEN.match(buf, end)):
            raise MalformedHeader("header ended before all fields were read")
        tokens.append(match[1].decode("ascii", errors="replace"))
        end = match.end()
    if not buf[end : end + 1].isspace():
        raise MalformedHeader("missing whitespace after header")
    return tokens, end + 1


def _fields(tokens: list[str], kinds, what: str) -> list:
    """``kind(token)`` for each pair; a token that does not convert is a MalformedHeader."""
    try:
        return [kind(token) for kind, token in zip(kinds, tokens)]
    except ValueError as exc:
        raise MalformedHeader(f"non-numeric {what} header field: {exc}") from exc


def _check_payload(available: int, dtype, shape: tuple[int, ...], what: str) -> None:
    """Raise unless ``shape`` is positive and ``available`` bytes hold it as ``dtype``."""
    if min(shape) <= 0:
        raise MalformedHeader(f"bad {what} dimensions {'x'.join(map(str, shape))}")
    expected = math.prod(shape) * np.dtype(dtype).itemsize
    if available < expected:
        raise TruncatedPayload(f"{what} payload has {available} bytes, expected {expected}")


def _payload(buf: bytes, offset: int, dtype, shape: tuple[int, ...], what: str) -> np.ndarray:
    """The ``shape`` array of ``dtype`` stored at ``buf[offset:]``: a read-only view of ``buf``."""
    _check_payload(len(buf) - offset, dtype, shape, what)
    return np.frombuffer(buf, dtype=dtype, count=math.prod(shape), offset=offset).reshape(shape)


def _names_its_file(read):
    """``read(path, ...)``, with ``path`` put in front of any SweepDepthError it raises;
    a KeyError, TypeError, ValueError or AttributeError becomes a SweepDepthError naming it too."""

    @functools.wraps(read)
    def read_naming_path(path: str | Path, *args):
        try:
            return read(path, *args)
        except SweepDepthError as exc:
            raise type(exc)(f"{path}: {exc}") from exc
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise SweepDepthError(f"{path}: {exc!r}") from exc

    return read_naming_path


def _write(path: str | Path, header: str, array: np.ndarray, dtype) -> None:
    """An ASCII header, then ``array`` in C order as ``dtype``, with no second copy of it."""
    payload = np.ascontiguousarray(array, dtype=dtype)
    with open(path, "wb") as file:
        file.write(header.encode("ascii"))
        file.write(payload)


@_names_its_file
def read_pfm(path: str | Path) -> np.ndarray:
    """Read a PFM file into an (H, W) or (H, W, 3) float64 array."""
    buf = Path(path).read_bytes()
    tokens, offset = _split_header_tokens(buf, 4)
    bands = {_PFM_GRAY: 1, _PFM_COLOR: 3}.get(tokens[0])
    if bands is None:
        raise MalformedHeader(f"bad PFM magic {tokens[0]!r}")
    width, height, scale = _fields(tokens[1:], (int, int, float), "PFM")
    if not 0 < abs(scale) < math.inf:
        raise MalformedHeader(f"PFM scale must be finite and nonzero, got {scale}")
    dtype = "<f4" if scale < 0 else ">f4"
    data = _payload(buf, offset, dtype, (height, width, bands), "PFM").astype(np.float64)
    data = data[::-1]  # rows stored bottom-up
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
    _write(path, f"{magic}\n{w} {h}\n-1.0\n", payload[::-1], "<f4")


@_names_its_file
def _read_netpbm(path: str | Path, magic: str, bands: int) -> np.ndarray:
    """The (height, width, bands) uint8 samples of a binary netpbm file, read-only."""
    buf = Path(path).read_bytes()
    tokens, offset = _split_header_tokens(buf, 4)
    if tokens[0] != magic:
        raise MalformedHeader(f"bad magic {tokens[0]!r}, expected {magic!r}")
    width, height, maxval = _fields(tokens[1:], (int, int, int), "netpbm")
    if maxval != 255:
        raise UnsupportedMaxval(f"only maxval 255 is supported, got {maxval}")
    return _payload(buf, offset, np.uint8, (height, width, bands), "netpbm")


def _write_netpbm(path: str | Path, magic: str, samples: np.ndarray) -> None:
    """Write (height, width, bands) uint8 samples under a maxval-255 header."""
    h, w = samples.shape[:2]
    _write(path, f"{magic}\n{w} {h}\n255\n", samples, np.uint8)


def read_ppm_samples(path: str | Path) -> np.ndarray:
    """Read a binary P6 image into its (H, W, 3) uint8 samples, read-only, with every
    check of ``read_ppm``."""
    return _read_netpbm(path, "P6", 3)


def unit_floats(samples: np.ndarray) -> np.ndarray:
    """8-bit samples as float64 in [0, 1]: how ``read_ppm`` and ``read_pgm`` decode."""
    return samples.astype(np.float64) / 255.0


def unit_samples(img: np.ndarray) -> np.ndarray:
    """Floats as the 8-bit samples ``write_ppm`` and ``write_pgm`` store: clipped to
    [0, 1], scaled by 255 and rounded half to even."""
    return np.round(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)


def read_ppm(path: str | Path) -> np.ndarray:
    """Read a binary P6 image into (H, W, 3) floats in [0, 1]."""
    return unit_floats(read_ppm_samples(path))


def write_ppm_samples(path: str | Path, samples: np.ndarray) -> None:
    """Write (H, W, 3) uint8 samples as a binary P6 image, byte for byte."""
    if samples.dtype != np.uint8 or samples.ndim != 3 or samples.shape[2] != 3:
        raise ShapeMismatch(f"PPM samples need (H, W, 3) uint8, got {samples.shape} {samples.dtype}")
    _write_netpbm(path, "P6", samples)


def write_ppm(path: str | Path, img: np.ndarray) -> None:
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ShapeMismatch(f"PPM needs (H, W, 3), got {img.shape}")
    write_ppm_samples(path, unit_samples(img))


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary P5 image into (H, W) floats in [0, 1]."""
    return unit_floats(_read_netpbm(path, "P5", 1))[..., 0]


def write_pgm(path: str | Path, img: np.ndarray) -> None:
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ShapeMismatch(f"PGM needs (H, W), got {img.shape}")
    _write_netpbm(path, "P5", unit_samples(img)[..., None])


@_names_its_file
def read_json(path: str | Path, parse):
    """``parse(content of path)``; content that does not decode, parse or pass ``parse`` raises
    a SweepDepthError naming the file, of the same type when ``parse`` raised one."""
    return parse(json.loads(Path(path).read_text(encoding="utf-8")))


def write_json(path: str | Path, obj) -> None:
    """Write ``obj`` as indent-2 JSON with a trailing newline."""
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def whole_number(value, name: str) -> int:
    """A parsed JSON number equal to a whole number (``64`` or ``64.0``) as an int; a
    fraction, a boolean or anything else raises InvalidParameter naming the field."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InvalidParameter(f"{name} must be a whole number, got {value!r}")


def number(value, name: str) -> float:
    """A parsed JSON number as a float; anything else, a boolean or text included, raises
    InvalidParameter naming the field: JSON ``true`` is not 1, nor the text ``"64.0"`` 64.0."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidParameter(f"{name} must be a number, got {value!r}")
    return float(value)


def numbers(value, name: str) -> list[float]:
    """Each entry of a parsed JSON array as a float, by ``number``; a string as the array
    raises InvalidParameter naming the field: ``"100"`` is not the vector (1, 0, 0)."""
    if isinstance(value, str):
        raise InvalidParameter(f"{name} must be an array of numbers, got {value!r}")
    return [number(entry, name) for entry in value]


def intrinsics_from_json(obj: dict) -> Intrinsics:
    """Intrinsics from a parsed ``{fx, fy, cx, cy, width, height}`` object."""
    floats = {name: number(obj[name], name) for name in ("fx", "fy", "cx", "cy")}
    sizes = {name: whole_number(obj[name], name) for name in ("width", "height")}
    return Intrinsics(**floats, **sizes)


def read_intrinsics(path: str | Path) -> Intrinsics:
    return read_json(path, intrinsics_from_json)


def write_intrinsics(path: str | Path, K: Intrinsics) -> None:
    write_json(path, asdict(K))


def pose_from_json(obj: dict) -> Pose:
    """Pose from a parsed ``{"R": 9 row-major, "t": 3}`` object."""
    R = np.reshape(numbers(obj["R"], "R"), (3, 3))
    t = np.array(numbers(obj["t"], "t"))
    return Pose(R, t)


def read_pose(path: str | Path) -> Pose:
    return read_json(path, pose_from_json)


def write_pose(path: str | Path, pose: Pose) -> None:
    write_json(path, {"R": pose.rotation.reshape(-1).tolist(), "t": pose.translation.tolist()})


def write_cost_volume(path: str | Path, cv: CostVolume | np.ndarray, planes: DepthPlaneSet) -> None:
    """Dump a volume: 'SWPCV1 H W P d_min d_max' for linear planes, else
    'SWPCV2 H W P d_min d_max spacing', then plane-major float32. ``cv`` may be
    the (P, H, W) costs alone, which are written as they are if C-order float32."""
    payload = np.moveaxis(cv.costs, 2, 0) if isinstance(cv, CostVolume) else cv
    p, h, w = payload.shape
    linear = planes.spacing == "linear"
    magic, tail = (_CV_MAGIC_LINEAR, "") if linear else (_CV_MAGIC_SPACED, f" {planes.spacing}")
    header = f"{magic} {h} {w} {p} {planes.d_min!r} {planes.d_max!r}{tail}\n"
    _write(path, header, payload, "<f4")


@_names_its_file
def read_cost_volume(path: str | Path) -> tuple[CostVolume, DepthPlaneSet]:
    """Read an SWPCV1 (linear planes) or SWPCV2 (spacing recorded) dump, one plane at
    a time: besides the returned volume it holds one float32 plane of the file."""
    with open(path, "rb") as file:
        line = file.readline()
        if not line.endswith(b"\n"):
            raise MalformedHeader("cost volume dump has no header line")
        fields = line[:-1].decode("ascii", errors="replace").split()
        if fields[:1] == [_CV_MAGIC_LINEAR] and len(fields) == 6:
            spacing = "linear"
        elif fields[:1] == [_CV_MAGIC_SPACED] and len(fields) == 7:
            spacing = fields[6]
        else:
            raise MalformedHeader(f"bad cost volume header {fields!r}")
        h, w, p, d_min, d_max = _fields(fields[1:6], (int, int, int, float, float), "cost volume")
        _check_payload(os.fstat(file.fileno()).st_size - file.tell(), "<f4", (p, h, w), "cost volume")
        costs, valid = np.empty((p, h, w)), np.empty((p, h, w), np.uint8)  # plane-major, as stored
        plane = np.empty((h, w), "<f4")
        for k in range(p):
            if file.readinto(plane) != plane.nbytes:
                raise TruncatedPayload(f"cost volume payload ended in plane {k}")
            costs[k] = plane
            np.isfinite(plane, out=valid[k])
    volume = CostVolume(costs=np.moveaxis(costs, 0, 2), valid_count=np.moveaxis(valid, 0, 2))
    return volume, DepthPlaneSet(d_min, d_max, p, spacing)
