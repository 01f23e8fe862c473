"""Self-supervised loss terms and the student/teacher consistency mask.

The photometric pieces follow the usual SSIM + L1 recipe (3x3 windows,
alpha = 0.85). The consistency mask flags pixels where the cost-volume
argmin depth and the teacher depth disagree by more than a directed factor
of two, and the total loss suppresses the reprojection term there in favor
of an L1 pull toward the teacher.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import EmptySources, ShapeMismatch
from .geometry import _TILE_PIXELS, require_positive_depth

SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2
ALPHA = 0.85  # weight of the SSIM term against L1, as in Monodepth2
SMOOTHNESS_WEIGHT = 1e-3  # weight of the smoothness term in the total, as in Monodepth2


@dataclass(frozen=True)
class LossReport:
    """All loss terms for one target frame.

    ``total = mean((1 - M) * per_pixel_lp) + lc + SMOOTHNESS_WEIGHT * ls``.
    ``lp`` is the mean of the per-pixel minimum reprojection error over the
    pixels covered by at least one source; ``per_pixel_lp`` is zero at
    uncovered pixels.
    """

    lp: float
    lc: float
    ls: float
    total: float
    per_pixel_lp: np.ndarray
    mask_fraction: float

    def to_json_dict(self) -> dict:
        """The scalar fields in declaration order; the per-pixel image stays out of JSON."""
        pairs = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: value for name, value in pairs if not isinstance(value, np.ndarray)}


def _as_hwc(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img, dtype=float)
    return img[..., None] if img.ndim == 2 else img


def _row_bands(height: int, width: int) -> list[slice]:
    """Consecutive row slices covering ``height`` rows, each of at most _TILE_PIXELS pixels
    (and at least one row)."""
    rows = max(1, _TILE_PIXELS // width)
    return [slice(start, min(start + rows, height)) for start in range(0, height, rows)]


def _window_mean(band: np.ndarray) -> np.ndarray:
    """3x3 box mean per channel of a band with one halo row and column on every side,
    (R + 2, W + 2, C) -> (R, W, C), summed as rows of 3 then columns of 3."""
    rows = band[:-2] + band[1:-1] + band[2:]
    return (rows[:, :-2] + rows[:, 1:-1] + rows[:, 2:]) / 9.0


def _ssim_band(a: np.ndarray, b: np.ndarray, rows: slice) -> np.ndarray:
    """SSIM of rows ``rows`` of two same-shape (H, W, C) images. The halo is the images'
    own neighbouring rows, and replicated edge pixels only at their borders."""
    lo, hi = max(rows.start - 1, 0), min(rows.stop + 1, len(a))
    pad = ((lo - rows.start + 1, rows.stop + 1 - hi), (1, 1), (0, 0))
    a, b = np.pad(a[lo:hi], pad, mode="edge"), np.pad(b[lo:hi], pad, mode="edge")
    mu_a = _window_mean(a)
    mu_b = _window_mean(b)
    var_a = _window_mean(a * a) - mu_a**2
    var_b = _window_mean(b * b) - mu_b**2
    cov = _window_mean(a * b) - mu_a * mu_b
    num = (2 * mu_a * mu_b + SSIM_C1) * (2 * cov + SSIM_C2)
    den = (mu_a**2 + mu_b**2 + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return num / den


def ssim(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-pixel structural similarity with 3x3 replicate-padded windows.

    Output is (H, W, C), per channel, with C = 1 for an (H, W) input, and
    lies in [-1, 1]. It is computed in row bands of up to _TILE_PIXELS
    pixels, each with its halo rows, and every pixel gets the bits a
    whole-image computation gives it.
    """
    a, b = _as_hwc(a), _as_hwc(b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"ssim inputs differ: {a.shape} vs {b.shape}")
    out = np.empty(a.shape)
    for rows in _row_bands(*a.shape[:2]):
        out[rows] = _ssim_band(a, b, rows)
    return out


def photometric_error(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Blend of SSIM dissimilarity and L1, channel-averaged to (H, W).

    pe = ALPHA/2 * (1 - SSIM) + (1 - ALPHA) * |pred - target|, computed in
    the row bands of ``ssim``.
    """
    pred, target = _as_hwc(pred), _as_hwc(target)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"photometric inputs differ: {pred.shape} vs {target.shape}")
    out = np.empty(pred.shape[:2])
    for rows in _row_bands(*pred.shape[:2]):
        dissim = ALPHA / 2.0 * (1.0 - _ssim_band(pred, target, rows))
        out[rows] = (dissim + (1.0 - ALPHA) * np.abs(pred[rows] - target[rows])).mean(axis=2)
    return out


def min_reprojection_loss(
    target: np.ndarray, synthesized: list[tuple[np.ndarray, np.ndarray]]
) -> tuple[float, np.ndarray]:
    """Per-pixel minimum photometric error over the synthesized views.

    Each synthesized entry is (image, valid_mask); a source competes only at
    pixels where its mask is true. Pixels covered by no source are excluded
    from the scalar mean and carry 0 in the returned map.
    """
    if not synthesized:
        raise EmptySources("min reprojection loss needs at least one synthesized view")
    h, w = np.asarray(target).shape[:2]
    best = np.full((h, w), np.inf)
    for img, valid in synthesized:
        pe = photometric_error(img, target)
        if pe.shape != (h, w) or valid.shape != (h, w):
            raise ShapeMismatch("synthesized view shape does not match target")
        best = np.where(valid, np.minimum(best, pe), best)
    covered = np.isfinite(best)
    per_pixel = np.where(covered, best, 0.0)
    scalar = float(per_pixel[covered].mean()) if covered.any() else 0.0
    return scalar, per_pixel


def consistency_mask(d_cv: np.ndarray, d_hat: np.ndarray) -> np.ndarray:
    """Pixels where argmin depth and teacher depth differ beyond a factor 2.

    True exactly where max((d_cv - d_hat)/d_hat, (d_hat - d_cv)/d_cv) > 1;
    the boundary (one depth exactly double the other) stays unmasked.
    """
    d_cv = np.asarray(d_cv, dtype=float)
    d_hat = np.asarray(d_hat, dtype=float)
    if d_cv.shape != d_hat.shape:
        raise ShapeMismatch(f"depth shapes differ: {d_cv.shape} vs {d_hat.shape}")
    require_positive_depth(d_cv, "consistency mask")
    require_positive_depth(d_hat, "consistency mask")
    ratio = np.maximum((d_cv - d_hat) / d_hat, (d_hat - d_cv) / d_cv)
    return ratio > 1.0


def consistency_loss(d_t: np.ndarray, d_hat: np.ndarray, mask: np.ndarray) -> float:
    """Mean over all pixels of mask * |student - teacher|."""
    d_t = np.asarray(d_t, dtype=float)
    d_hat = np.asarray(d_hat, dtype=float)
    if d_t.shape != d_hat.shape or mask.shape != d_t.shape:
        raise ShapeMismatch("consistency loss inputs must share a shape")
    return float((mask * np.abs(d_t - d_hat)).mean())


def smoothness_loss(depth: np.ndarray, img: np.ndarray) -> float:
    """Edge-aware first-order smoothness of mean-normalized inverse depth.

    The x term averages |d/dx of normalized disparity| * exp(-|d/dx image|)
    over the H x (W-1) forward-difference grid, the y term likewise over
    (H-1) x W, and the loss is their sum. Image gradients average over
    channels. Invariant to scaling the depth map by any positive constant.
    """
    depth = np.asarray(depth, dtype=float)
    require_positive_depth(depth, "smoothness loss")
    img = _as_hwc(img)
    if img.shape[:2] != depth.shape:
        raise ShapeMismatch(f"image {img.shape[:2]} does not match depth {depth.shape}")
    disp = 1.0 / depth
    disp = disp / disp.mean()
    dx = np.abs(disp[:, 1:] - disp[:, :-1])
    dy = np.abs(disp[1:, :] - disp[:-1, :])
    ix = np.abs(img[:, 1:] - img[:, :-1]).mean(axis=2)
    iy = np.abs(img[1:, :] - img[:-1, :]).mean(axis=2)
    return float((dx * np.exp(-ix)).mean() + (dy * np.exp(-iy)).mean())


def total_loss(
    target: np.ndarray,
    synthesized: list[tuple[np.ndarray, np.ndarray]],
    d_t: np.ndarray,
    d_hat: np.ndarray,
    d_cv: np.ndarray,
) -> LossReport:
    """Assemble the full training loss for one frame.

    The mask comes from (d_cv, d_hat); the reprojection term is suppressed
    where it is set, the consistency term pulls the student toward the
    teacher there, and the smoothness term regularizes the student against
    the edges of ``target``, weighted by SMOOTHNESS_WEIGHT. All depth maps
    must be at image resolution.
    """
    mask = consistency_mask(d_cv, d_hat)
    lp, per_pixel = min_reprojection_loss(target, synthesized)
    lc = consistency_loss(d_t, d_hat, mask)
    ls = smoothness_loss(d_t, target)
    total = float(((1.0 - mask) * per_pixel).mean() + lc + SMOOTHNESS_WEIGHT * ls)
    return LossReport(
        lp=lp,
        lc=lc,
        ls=ls,
        total=total,
        per_pixel_lp=per_pixel,
        mask_fraction=float(mask.mean()),
    )
