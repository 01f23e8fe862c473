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

from .errors import DimensionMismatch, InvalidParameter, NonPositiveDepth, ShapeMismatch

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
        if self.fx <= 0 or self.fy <= 0:
            raise InvalidParameter(f"focal lengths must be positive, got ({self.fx}, {self.fy})")
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
        if not np.allclose(R.T @ R, np.eye(3), atol=_ORTHONORMAL_TOL, rtol=0):
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


def backproject(u: float, v: float, d: float, K: Intrinsics) -> np.ndarray:
    """Lift pixel (u, v) at depth d to a camera-frame 3D point.

    Returns ((u-cx)*d/fx, (v-cy)*d/fy, d).
    """
    if d <= 0:
        raise NonPositiveDepth(f"depth must be positive, got {d}")
    return np.array([(u - K.cx) * d / K.fx, (v - K.cy) * d / K.fy, d])


def project(point: np.ndarray, K: Intrinsics) -> tuple[float, float]:
    """Project a camera-frame point with positive z to pixel coordinates."""
    x, y, z = point
    if z <= 0:
        raise NonPositiveDepth(f"cannot project point at z={z}")
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


def _snap_to_range(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Pull values within a hair of the inclusive bounds exactly onto them.

    Boundary pixels are valid by contract; without this, ~1e-16 rounding in
    the projection arithmetic would flip them invalid at random.
    """
    x = np.where(np.abs(x - lo) < _BOUNDARY_SNAP, lo, x)
    return np.where(np.abs(x - hi) < _BOUNDARY_SNAP, hi, x)


def _grid_from_homogeneous(q: np.ndarray, K: Intrinsics) -> PixelGrid:
    """Dehomogenize an (H, W, 3) field; w <= 0 (behind the camera) or off-image is invalid."""
    w = q[..., 2]
    in_front = w > 0
    safe_w = np.where(in_front, w, 1.0)
    u = _snap_to_range(q[..., 0] / safe_w, 0, K.width - 1)
    v = _snap_to_range(q[..., 1] / safe_w, 0, K.height - 1)
    valid = (
        in_front & (u >= 0) & (u <= K.width - 1) & (v >= 0) & (v <= K.height - 1)
    )
    return PixelGrid(coords=np.stack([u, v], axis=-1), valid=valid)


def reproject_grid(depth: np.ndarray, T: Pose, K: Intrinsics) -> PixelGrid:
    """Per-pixel reprojection coordinates of a depth map into another camera.

    Each pixel of ``depth`` is backprojected, moved by ``T`` (target camera
    to source camera), and projected with ``K``. This is the coordinate
    generator behind view synthesis: sampling the source image at the
    returned grid renders it from the target viewpoint.
    """
    depth = np.asarray(depth, dtype=float)
    if depth.shape != (K.height, K.width):
        raise DimensionMismatch(
            f"depth map {depth.shape} does not match camera "
            f"({K.height}, {K.width})"
        )
    require_positive_depth(depth, "reprojection")
    # K (R X + t), with K folded into the pose so the field takes one matmul.
    Km = K.matrix()
    points = _pixel_rays(K) * depth[..., None]
    return _grid_from_homogeneous(points @ (Km @ T.rotation).T + Km @ T.translation, K)


def plane_warp_grid(d: float, T: Pose, K: Intrinsics) -> PixelGrid:
    """Sampling grid for the fronto-parallel plane hypothesis at depth d.

    Equivalent to ``reproject_grid`` on a constant depth map but computed as
    a single 3x3 homography H = K R K^-1 + (K t) e3^T / d. The third
    homogeneous coordinate of H @ (u, v, 1) is z'/d.
    """
    if d <= 0:
        raise NonPositiveDepth(f"plane depth must be positive, got {d}")
    Km = K.matrix()
    Kinv = np.linalg.inv(Km)
    H = Km @ T.rotation @ Kinv
    H[:, 2] += Km @ T.translation / d

    return _grid_from_homogeneous(_pixel_coords(K) @ H.T, K)


def bilinear_sample(img: np.ndarray, grid: PixelGrid) -> tuple[np.ndarray, np.ndarray]:
    """Sample an image at continuous grid coordinates.

    Returns (sampled, valid). Sampling interpolates the four integer
    neighbors; pixels whose grid entry is invalid or out of bounds get value
    0 and valid=False. ``img`` may be (H, W) or (H, W, C); the output keeps
    that layout at the grid's shape.
    """
    img = np.asarray(img, dtype=float)
    squeeze = img.ndim == 2
    if squeeze:
        img = img[..., None]
    h, w = img.shape[:2]
    gh, gw = grid.shape
    if grid.coords.shape[:2] != (gh, gw):
        raise ShapeMismatch("grid coords and valid mask disagree")

    u = grid.coords[..., 0]
    v = grid.coords[..., 1]
    valid = grid.valid & (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)

    # valid entries are already in range; invalid (possibly NaN) ones read pixel 0
    uc = np.where(valid, u, 0.0)
    vc = np.where(valid, v, 0.0)
    u0 = np.floor(uc).astype(int)
    v0 = np.floor(vc).astype(int)
    u1 = np.minimum(u0 + 1, w - 1)
    v1 = np.minimum(v0 + 1, h - 1)
    fu = (uc - u0)[..., None]
    fv = (vc - v0)[..., None]

    top = img[v0, u0] * (1 - fu) + img[v0, u1] * fu
    bottom = img[v1, u0] * (1 - fu) + img[v1, u1] * fu
    out = top * (1 - fv) + bottom * fv
    out[~valid] = 0.0

    if squeeze:
        out = out[..., 0]
    return out, valid
