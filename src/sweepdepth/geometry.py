"""Pinhole camera model, SE3 transforms, and warping primitives.

Conventions used throughout the package:

* Pixel centers sit at integer coordinates; (0, 0) is the center of the
  top-left pixel and (width-1, height-1) the center of the bottom-right one.
* The camera frame is right-handed with +z along the optical axis, +x right,
  +y down, matching the image axes.
* A ``Pose`` maps points ``x -> R @ x + t``. Relative poses used for warping
  map target-camera coordinates into the source camera.

All operations are pure and operate on float64 numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, NonFiniteDepth, NonPositiveDepth, ShapeMismatch

_ORTHONORMAL_TOL = 1e-9


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole camera parameters in pixel units."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise InvalidParameter(f"focal lengths must be finite and positive, got ({self.fx}, {self.fy})")
        if not (0 <= self.cx < self.width) or not (0 <= self.cy < self.height):
            raise InvalidParameter(
                f"principal point ({self.cx}, {self.cy}) outside "
                f"{self.width}x{self.height} image"
            )

    def matrix(self) -> np.ndarray:
        """3x3 calibration matrix K."""
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )

    def scaled(self, scale: int) -> "Intrinsics":
        """Intrinsics at a coarser resolution: fx, fy, cx, cy divided by scale."""
        return Intrinsics(
            fx=self.fx / scale,
            fy=self.fy / scale,
            cx=self.cx / scale,
            cy=self.cy / scale,
            width=-(-self.width // scale),
            height=-(-self.height // scale),
        )


@dataclass(frozen=True)
class Pose:
    """Rigid SE3 transform: x -> rotation @ x + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if R.shape != (3, 3):
            raise InvalidParameter(f"rotation must be 3x3, got {R.shape}")
        if not np.isfinite(t).all():
            raise InvalidParameter(f"translation must be finite, got {t}")
        with np.errstate(all="ignore"):  # huge entries overflow to inf or NaN, and fail
            orthonormal = (np.abs(R.T @ R - np.eye(3)) <= _ORTHONORMAL_TOL).all()
        if not orthonormal:
            raise InvalidParameter("rotation is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > _ORTHONORMAL_TOL:
            raise InvalidParameter("rotation determinant is not +1")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_translation(cls, tx: float, ty: float, tz: float) -> "Pose":
        return cls(np.eye(3), np.array([tx, ty, tz], dtype=float))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform points of shape (..., 3)."""
        return points @ self.rotation.T + self.translation

    def inverse(self) -> "Pose":
        return Pose(self.rotation.T, -self.rotation.T @ self.translation)

    def compose(self, first: "Pose") -> "Pose":
        """Pose equivalent to applying ``first`` and then ``self``."""
        return Pose(
            self.rotation @ first.rotation,
            self.rotation @ first.translation + self.translation,
        )


@dataclass(frozen=True)
class PixelGrid:
    """Continuous sampling coordinates with an in-bounds validity mask.

    ``coords`` has shape (H, W, 2) holding (u, v) per pixel; ``valid`` is
    (H, W) bool, false wherever the reprojected point fell behind the camera
    or outside [0, W-1] x [0, H-1].
    """

    coords: np.ndarray
    valid: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.valid.shape


def require_positive_depth(depth: np.ndarray, what: str) -> None:
    """Raise NonPositiveDepth unless every entry is positive and finite (NaN and inf fail)."""
    if not np.all((depth > 0) & (depth < np.inf)):
        raise NonPositiveDepth(f"{what} needs finite positive depths")


def require_finite_depth(depth: np.ndarray, what: str) -> None:
    """Raise NonFiniteDepth if any entry is NaN or infinite (zero and negative pass)."""
    if not np.isfinite(depth).all():
        raise NonFiniteDepth(f"{what} needs finite depths")


def backproject(u: float, v: float, d: float, K: Intrinsics) -> np.ndarray:
    """Lift pixel (u, v) at depth d to a camera-frame 3D point.

    Returns ((u-cx)*d/fx, (v-cy)*d/fy, d).
    """
    require_positive_depth(d, "backproject")
    return np.array([(u - K.cx) * d / K.fx, (v - K.cy) * d / K.fy, d])


def project(point: np.ndarray, K: Intrinsics) -> tuple[float, float]:
    """Project a camera-frame point with positive z to pixel coordinates."""
    x, y, z = point
    require_positive_depth(z, "project")
    return (K.fx * x / z + K.cx, K.fy * y / z + K.cy)


def _pixel_coords(K: Intrinsics) -> np.ndarray:
    """(H, W, 3) array of homogeneous pixel coordinates (u, v, 1)."""
    uu, vv = np.meshgrid(np.arange(K.width, dtype=float), np.arange(K.height, dtype=float))
    return np.stack([uu, vv, np.ones_like(uu)], axis=-1)


def _pixel_rays(K: Intrinsics) -> np.ndarray:
    """(H, W, 3) array of K^-1 @ (u, v, 1) per pixel."""
    rays = _pixel_coords(K)
    rays[..., 0] = (rays[..., 0] - K.cx) / K.fx
    rays[..., 1] = (rays[..., 1] - K.cy) / K.fy
    return rays


_BOUNDARY_SNAP = 1e-9

# Pixels per tile of ``bilinear_sample`` and per row band of the photometric
# loss (``losses``), half the sweep's _TILE cells: their work arrays stay a few
# MB at any image size, and a 64x48 image is one tile and one band. At 640x192
# half of this made the training step slower end to end, and twice it raises
# min_reprojection_loss's tracemalloc peak with two sources from 6.4 to 10.8 MB.
_TILE_PIXELS = 16384


def _to_pixels(
    q: np.ndarray, K: Intrinsics, valid: np.ndarray, tmp: np.ndarray, mask: np.ndarray
) -> None:
    """Dehomogenize q = (x, y, w), shape (3, ...), in place into (u, v, .) and fill ``valid``.

    w <= 0 (behind the camera) divides by 1 and is invalid. Coordinates
    within _BOUNDARY_SNAP of an image edge are pulled exactly onto it:
    boundary pixels are valid by contract, and without the snap ~1e-16
    rounding in the projection would flip them invalid at random. Anything
    off [0, W-1] x [0, H-1] is invalid. ``tmp`` (float) and ``mask`` (bool)
    are work arrays of q[:2]'s shape.
    """
    uv, w = q[:2], q[2]
    far = np.array([K.width - 1, K.height - 1], dtype=float).reshape((2,) + (1,) * (uv.ndim - 1))
    np.greater(w, 0, out=valid)
    np.logical_not(valid, out=mask[0])
    np.copyto(w, 1.0, where=mask[0])
    np.divide(uv, w, out=uv)
    for edge in (0.0, far):
        np.subtract(uv, edge, out=tmp)
        np.abs(tmp, out=tmp)
        np.less(tmp, _BOUNDARY_SNAP, out=mask)
        np.copyto(uv, edge, where=mask)
    for in_bounds, edge in ((np.greater_equal, 0.0), (np.less_equal, far)):
        in_bounds(uv, edge, out=mask)
        valid &= mask[0]
        valid &= mask[1]


@dataclass(frozen=True)
class _PlaneProjection:
    """The plane homography H(d) = K R K^-1 + (K t) e3^T / d of one pose, split
    so that a sweep forms the pixel terms once and each plane adds a column.

    ``uv`` (3, H*W) holds (K R K^-1)[:, :2] @ (u, v) per pixel, and
    ``column(d)`` is H(d)'s last column, so H(d) @ (u, v, 1) is
    ``uv + column(d)``: the 3x3 product's own sum, with the constant term
    added last. (Adding (K t) / d to a precomputed K R K^-1 @ (u, v, 1)
    instead rounds differently once the pose rotates.) Taken at a pixel's
    own depth D, H(D) @ (u, v, 1) is K (R X + t) / D for the backprojected
    point X, so the same split reprojects a depth map.
    """

    uv: np.ndarray
    a: np.ndarray
    b: np.ndarray

    @classmethod
    def of(cls, T: Pose, K: Intrinsics) -> "_PlaneProjection":
        Km = K.matrix()
        A = Km @ T.rotation @ np.linalg.inv(Km)
        coords = _pixel_coords(K)
        coords[..., 2] = 0.0
        uv = np.ascontiguousarray((coords @ A.T).reshape(-1, 3).T)
        return cls(uv=uv, a=A[:, 2].copy(), b=Km @ T.translation)

    def column(self, d: float | np.ndarray) -> np.ndarray:
        """H(d)'s last column: (3, 1) for a plane depth, (3, H*W) for a flat depth map."""
        return self.a[:, None] + self.b[:, None] / d


def _homography_grid(proj: _PlaneProjection, d: float | np.ndarray, K: Intrinsics) -> PixelGrid:
    """The grid of H(d) @ (u, v, 1) for a plane depth or a flat depth map."""
    q = (proj.uv + proj.column(d)).reshape(3, K.height, K.width)
    valid = np.empty(q.shape[1:], dtype=bool)
    _to_pixels(q, K, valid, np.empty(q[:2].shape), np.empty(q[:2].shape, dtype=bool))
    return PixelGrid(coords=np.stack([q[0], q[1]], axis=-1), valid=valid)


def _channel_major(img: np.ndarray) -> np.ndarray:
    """An (H, W) or (H, W, C) image as a contiguous (C, H*W) float64 array: a view
    when its memory is already channel-major float64, as gradient features are,
    and a copy otherwise."""
    img = np.asarray(img, dtype=float)
    if img.ndim == 2:
        img = img[..., None]
    return np.ascontiguousarray(np.moveaxis(img, 2, 0)).reshape(img.shape[2], -1)


class _WorkArrays:
    """Work arrays for warping and sampling ``n`` pixels of a C-channel image."""

    def __init__(self, channels: int, n: int):
        self.q = np.empty((3, n))
        self.tmp = np.empty((2, n))
        self.corners = np.empty((channels, 2, 2, n))
        self.index = np.empty((2, 2, n), dtype=np.intp)
        self.valid = np.empty(n, dtype=bool)
        self.mask = np.empty((2, n), dtype=bool)


def _bilinear_gather(
    src: np.ndarray, height: int, width: int, uv: np.ndarray, work: _WorkArrays
) -> np.ndarray:
    """Bilinear samples of the channel-major image ``src`` (C, height*width) at uv (2, n).

    Returns a (C, n) view into ``work``. Entries where ``work.valid`` is
    false are moved to (0, 0) first, so they read pixel 0 (even a NaN
    coordinate never becomes an index) and the caller masks them. The four
    neighbours are gathered by flat index in one ``take``, and the weights
    are computed once for all channels. Consumes uv.
    """
    np.logical_not(work.valid, out=work.mask[0])
    np.copyto(uv, 0.0, where=work.mask[0])
    base = work.tmp
    np.floor(uv, out=base)
    uv -= base  # uv now holds the fractional weights (fu, fv)
    np.less(base, [[width - 1], [height - 1]], out=work.mask)  # right, lower neighbour exists
    base[1] *= width
    base[1] += base[0]
    index = work.index  # [row][column] of the 2x2 neighbourhood
    np.copyto(index[0, 0], base[1], casting="unsafe")  # floor(v) * width + floor(u), exact
    np.add(index[0, 0], work.mask[0], out=index[0, 1])
    np.multiply(work.mask[1], width, out=index[1, 1])
    np.add(index[0, 0], index[1, 1], out=index[1, 0])
    index[1, 1] += index[0, 1]
    corners = work.corners
    np.take(src, index, axis=1, out=corners, mode="clip")
    one_minus = work.tmp
    np.subtract(1.0, uv, out=one_minus)
    corners[:, :, 0] *= one_minus[0]
    corners[:, :, 1] *= uv[0]
    rows = corners[:, :, 0]
    rows += corners[:, :, 1]  # the top and bottom rows, interpolated along u
    rows[:, 0] *= one_minus[1]
    rows[:, 1] *= uv[1]
    out = rows[:, 0]
    out += rows[:, 1]
    return out


def reproject_grid(depth: np.ndarray, T: Pose, K: Intrinsics) -> PixelGrid:
    """Per-pixel reprojection coordinates of a depth map into another camera.

    Each pixel of ``depth`` is backprojected, moved by ``T`` (target camera
    to source camera), and projected with ``K``: the plane homography of
    ``plane_warp_grid`` taken at the pixel's own depth. This is the
    coordinate generator behind view synthesis: sampling the source image
    at the returned grid renders it from the target viewpoint.
    """
    depth = np.asarray(depth, dtype=float)
    if depth.shape != (K.height, K.width):
        raise ShapeMismatch(
            f"depth map {depth.shape} does not match camera ({K.height}, {K.width})"
        )
    require_positive_depth(depth, "reprojection")
    return _homography_grid(_PlaneProjection.of(T, K), depth.reshape(-1), K)


def plane_warp_grid(d: float, T: Pose, K: Intrinsics) -> PixelGrid:
    """Sampling grid for the fronto-parallel plane hypothesis at depth d.

    Computed from the homography H = K R K^-1 + (K t) e3^T / d, whose third
    homogeneous coordinate of H @ (u, v, 1) is z'/d; ``reproject_grid`` on
    a constant depth map returns the same bits.
    """
    require_positive_depth(d, "a plane hypothesis")
    return _homography_grid(_PlaneProjection.of(T, K), d, K)


def bilinear_sample(img: np.ndarray, grid: PixelGrid) -> tuple[np.ndarray, np.ndarray]:
    """Sample an image at continuous grid coordinates.

    Returns (sampled, valid). Sampling interpolates the four integer
    neighbors; pixels whose grid entry is invalid or out of bounds get value
    0 and valid=False. ``img`` may be (H, W) or (H, W, C); the output keeps
    that layout at the grid's shape. The grid is sampled in tiles of up to
    _TILE_PIXELS pixels through one set of tile-sized work arrays; the last
    tile ends at the last pixel and may overlap the one before it.
    """
    src = _channel_major(img)
    h, w = np.shape(img)[:2]
    gh, gw = grid.shape
    if grid.coords.shape[:2] != (gh, gw):
        raise ShapeMismatch("grid coords and valid mask disagree")

    n, channels = gh * gw, len(src)
    coords, grid_valid = grid.coords.reshape(-1, 2), grid.valid.reshape(-1)
    out = np.empty((n, channels))
    valid = np.empty(n, dtype=bool)
    tile = max(1, min(n, _TILE_PIXELS))
    work = _WorkArrays(channels, tile)
    u, v = uv = work.q[:2]
    for start in range(0, n, tile):
        first = min(start, n - tile)
        part = slice(first, first + tile)
        uv[:] = coords[part].T
        valid[part] = grid_valid[part] & (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
        work.valid[:] = valid[part]
        sampled = _bilinear_gather(src, h, w, uv, work)
        np.copyto(sampled, 0.0, where=~work.valid)
        out[part] = sampled.T
    out = out.reshape(gh, gw, channels)
    return (out[..., 0] if np.ndim(img) == 2 else out), valid.reshape(gh, gw)
