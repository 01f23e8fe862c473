"""Self-supervised loss terms and the student/teacher consistency mask.

The photometric pieces follow the usual SSIM + L1 recipe (3x3 windows,
alpha = 0.85). The consistency mask flags pixels where the cost-volume
argmin depth and the teacher depth disagree by more than a directed factor
of two, and the total loss suppresses the reprojection term there in favor
of an L1 pull toward the teacher.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

from .errors import EmptySources, ShapeMismatch
from .features import channel_mean
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


def _band_rows(width: int) -> int:
    """Rows per band of an image ``width`` pixels wide: as many as fit _TILE_PIXELS pixels,
    and at least one."""
    return max(1, _TILE_PIXELS // max(width, 1))


def _row_bands(height: int, width: int) -> list[slice]:
    """Consecutive row slices of ``_band_rows`` rows covering ``height`` rows; none for an
    image with no pixels."""
    if not width:  # a zero-width band would take its halo columns from uninitialized memory
        return []
    rows = _band_rows(width)
    return [slice(start, min(start + rows, height)) for start in range(0, height, rows)]


def _ssim_work(shape: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The work arrays of ``_ssim_band`` for an (H, W, C) image, sized for its largest band
    of R rows: three padded (R + 2, W + 2, C) buffers, one (R, W + 2, C) row-sum buffer and
    seven (R, W, C) buffers. Each band uses its leading rows."""
    h, w, c = shape
    rows = min(h, _band_rows(w))
    return np.empty((3, rows + 2, w + 2, c)), np.empty((rows, w + 2, c)), np.empty((7, rows, w, c))


def _pad_band(img: np.ndarray, rows: slice, out: np.ndarray) -> None:
    """Into ``out`` (R + 2, W + 2, C): rows ``rows`` of an (H, W, C) ``img`` with a one-pixel
    halo, which is the image's own neighbouring rows and, at its borders, the replicated
    edge pixels that ``np.pad`` with mode "edge" gives the whole image."""
    out[1:-1, 1:-1] = img[rows]
    out[0, 1:-1] = img[max(rows.start - 1, 0)]
    out[-1, 1:-1] = img[min(rows.stop, len(img) - 1)]
    out[:, 0] = out[:, 1]
    out[:, -1] = out[:, -2]


def _window_mean(band: np.ndarray, line: np.ndarray, out: np.ndarray) -> None:
    """Into ``out`` (R, W, C): the 3x3 box mean per channel of a padded (R + 2, W + 2, C)
    band, summed as rows of 3 into ``line`` (R, W + 2, C), then columns of 3, then / 9."""
    np.add(band[:-2], band[1:-1], out=line)
    line += band[2:]
    np.add(line[:, :-2], line[:, 1:-1], out=out)
    out += line[:, 2:]
    out /= 9.0


def _ssim_band(a: np.ndarray, b: np.ndarray, rows: slice, work: tuple[np.ndarray, np.ndarray, np.ndarray],
               out: np.ndarray | None = None) -> np.ndarray:
    """SSIM of rows ``rows`` of two same-shape (H, W, C) images, into ``out`` or else a work
    array, which the next band overwrites. ``work`` is ``_ssim_work(a.shape)``. Every
    product and sum is the one the formula writes, in its order, so the bits do not depend
    on the band."""
    n = rows.stop - rows.start
    padded, line, band = work
    pad_a, pad_b, prod = padded[:, :n + 2]
    line = line[:n]
    mu_a, mu_b, var_a, var_b, cov, sq, tmp = band[:, :n]
    _pad_band(a, rows, pad_a)
    _pad_band(b, rows, pad_b)
    _window_mean(pad_a, line, mu_a)
    _window_mean(pad_b, line, mu_b)
    # var_a = E[a a] - mu_a**2, var_b likewise, cov = E[a b] - mu_a mu_b
    _window_mean(np.multiply(pad_a, pad_a, out=prod), line, var_a)
    var_a -= np.multiply(mu_a, mu_a, out=sq)
    _window_mean(np.multiply(pad_b, pad_b, out=prod), line, var_b)
    var_b -= np.multiply(mu_b, mu_b, out=tmp)
    sq += tmp  # mu_a**2 + mu_b**2
    _window_mean(np.multiply(pad_a, pad_b, out=prod), line, cov)
    cov -= np.multiply(mu_a, mu_b, out=tmp)
    # num = (2 mu_a mu_b + C1)(2 cov + C2), den = (mu_a**2 + mu_b**2 + C1)(var_a + var_b + C2)
    np.multiply(mu_a, 2, out=tmp)
    tmp *= mu_b
    tmp += SSIM_C1
    cov *= 2
    cov += SSIM_C2
    tmp *= cov
    sq += SSIM_C1
    var_a += var_b
    var_a += SSIM_C2
    sq *= var_a
    return np.divide(tmp, sq, out=tmp if out is None else out)


def ssim(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-pixel structural similarity with 3x3 replicate-padded windows.

    Output is (H, W, C), per channel, with C = 1 for an (H, W) input, and
    lies in [-1, 1]. It is computed in row bands of up to _TILE_PIXELS
    pixels, each with its halo rows, through one set of band-sized work
    arrays, and every pixel gets the bits a whole-image computation gives it.
    """
    a, b = _as_hwc(a), _as_hwc(b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"ssim inputs differ: {a.shape} vs {b.shape}")
    out = np.empty(a.shape)
    work = _ssim_work(a.shape)
    for rows in _row_bands(*a.shape[:2]):
        _ssim_band(a, b, rows, work, out[rows])
    return out


def photometric_error(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Blend of SSIM dissimilarity and L1, channel-averaged to (H, W).

    pe = ALPHA/2 * (1 - SSIM) + (1 - ALPHA) * |pred - target|, computed in
    the row bands of ``ssim``, through its work arrays.
    """
    pred, target = _as_hwc(pred), _as_hwc(target)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"photometric inputs differ: {pred.shape} vs {target.shape}")
    out = np.empty(pred.shape[:2])
    work = _ssim_work(pred.shape)
    for rows in _row_bands(*pred.shape[:2]):
        dissim = _ssim_band(pred, target, rows, work)
        np.subtract(1.0, dissim, out=dissim)
        dissim *= ALPHA / 2.0
        l1 = work[2][0, :len(dissim)]  # mu_a's array, which _ssim_band is done with
        np.subtract(pred[rows], target[rows], out=l1)
        np.abs(l1, out=l1)
        l1 *= 1.0 - ALPHA
        dissim += l1
        channel_mean(dissim, out=out[rows])
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
        if np.shape(img)[:2] != (h, w) or np.shape(valid) != (h, w):
            raise ShapeMismatch("synthesized view shape does not match target")
        np.minimum(best, photometric_error(img, target), out=best, where=valid)
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


def _smoothness_out(depth: np.ndarray, img: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arrays ``smoothness_loss(depth, img, out=...)`` fills: the normalized disparity
    (H, W), the x terms (H, W-1) and the y terms (H-1, W), uninitialized. Raises
    ShapeMismatch unless the image is the depth map's size."""
    if np.shape(img)[:2] != np.shape(depth):
        raise ShapeMismatch(f"image {np.shape(img)[:2]} does not match depth {np.shape(depth)}")
    h, w = np.shape(depth)
    return np.empty((h, w)), np.empty((h, max(w - 1, 0))), np.empty((max(h - 1, 0), w))


def _edge_aware(disp: np.ndarray, disp_next: np.ndarray, img: np.ndarray, img_next: np.ndarray,
                out: np.ndarray) -> None:
    """Into ``out``: |disp_next - disp| * exp(-channel mean of |img_next - img|)."""
    diff = np.subtract(img_next, img)
    weight = channel_mean(np.abs(diff, out=diff))
    np.exp(np.negative(weight, out=weight), out=weight)
    np.abs(np.subtract(disp_next, disp, out=out), out=out)
    out *= weight


def _mean_or_zero(terms: np.ndarray) -> float:
    """The mean of a term grid, or 0 when it is empty: a one-row or one-column image has
    no neighbour pairs to smooth across in that direction."""
    return terms.mean() if terms.size else 0.0


def smoothness_loss(depth: np.ndarray, img: np.ndarray, *,
                    out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None) -> float:
    """Edge-aware first-order smoothness of mean-normalized inverse depth.

    The x term averages |d/dx of normalized disparity| * exp(-|d/dx image|)
    over the H x (W-1) forward-difference grid, the y term likewise over
    (H-1) x W, and the loss is their sum; an empty grid's term is 0. Image
    gradients average over channels. Invariant to scaling the depth map by
    any positive constant.

    The per-pixel terms are computed in the row bands of ``ssim`` and each
    term's mean is taken once, over its whole grid, so the result has the
    bits of a whole-image computation. ``out``, when given, is
    ``_smoothness_out(depth, img)``: the three full-size arrays this call
    fills, allocated by a caller that runs the call on another thread.
    """
    depth = np.asarray(depth, dtype=float)
    require_positive_depth(depth, "smoothness loss")
    img = _as_hwc(img)
    disp, x_terms, y_terms = _smoothness_out(depth, img) if out is None else out
    np.divide(1.0, depth, out=disp)
    disp /= _mean_or_zero(disp)  # an empty map has nothing to divide
    h, w = depth.shape
    for rows in _row_bands(h, w):
        _edge_aware(disp[rows, :-1], disp[rows, 1:], img[rows, :-1], img[rows, 1:], x_terms[rows])
        above = slice(rows.start, min(rows.stop, h - 1))  # the band's rows of the (H-1) x W grid
        below = slice(above.start + 1, above.stop + 1)
        _edge_aware(disp[above], disp[below], img[above], img[below], y_terms[above])
    return float(_mean_or_zero(x_terms) + _mean_or_zero(y_terms))


def total_loss(
    target: np.ndarray,
    synthesized: list[tuple[np.ndarray, np.ndarray]],
    d_t: np.ndarray,
    d_hat: np.ndarray,
    d_cv: np.ndarray | Callable[[], np.ndarray],
    ls: Callable[[], float] | None = None,
) -> LossReport:
    """Assemble the full training loss for one frame.

    The mask comes from (d_cv, d_hat); the reprojection term is suppressed
    where it is set, the consistency term pulls the student toward the
    teacher there, and the smoothness term regularizes the student against
    the edges of ``target``, weighted by SMOOTHNESS_WEIGHT. All depth maps
    must be at image resolution. ``d_cv`` may come deferred, as a callable
    that returns it, and the smoothness term ``ls`` may too, as a callable
    that returns ``smoothness_loss(d_t, target)``; without ``ls`` it is
    computed here. Each callable is called once, after the reprojection
    term, ``d_cv`` first, so both can be computed meanwhile: ``loss`` joins
    its sweep, whose thread computes the smoothness term, in ``d_cv``.
    """
    lp, per_pixel = min_reprojection_loss(target, synthesized)
    d_cv = d_cv() if callable(d_cv) else d_cv
    ls = smoothness_loss(d_t, target) if ls is None else ls()
    mask = consistency_mask(d_cv, d_hat)
    lc = consistency_loss(d_t, d_hat, mask)
    total = float(((1.0 - mask) * per_pixel).mean() + lc + SMOOTHNESS_WEIGHT * ls)
    return LossReport(
        lp=lp,
        lc=lc,
        ls=ls,
        total=total,
        per_pixel_lp=per_pixel,
        mask_fraction=float(mask.mean()),
    )
