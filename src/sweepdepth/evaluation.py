"""Standard depth-evaluation protocol.

Metrics follow the usual monocular-depth convention: evaluate only where
ground truth lies in (0, DEPTH_CAP), clamp predictions to [PRED_FLOOR,
DEPTH_CAP], and report abs rel, sq rel, RMSE, log RMSE, and the three delta
accuracy thresholds (strict <). Median scaling removes the global scale
ambiguity of monocular predictions before scoring.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import EmptyValidSet, InvalidParameter, NonPositiveDepth, ShapeMismatch, TooSmall
from .geometry import require_finite_depth

DEPTH_CAP = 80.0  # metres; the KITTI and Cityscapes evaluation cap
PRED_FLOOR = 1e-3
CROP_SCHEMES = ("none", "cityscapes_A", "cityscapes_B")
HEATMAP_SATURATION = 0.2  # the abs-rel error that error_heatmap paints full red


@dataclass(frozen=True)
class MetricsReport:
    abs_rel: float
    sq_rel: float
    rmse: float
    rmse_log: float
    delta1: float
    delta2: float
    delta3: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def median_scale(pred: np.ndarray, gt: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Rescale pred by median(gt[valid]) / median(pred[valid]).

    The prediction's median over the valid pixels must be finite and
    positive (NonPositiveDepth otherwise).
    """
    pred = np.asarray(pred, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if pred.shape != gt.shape or valid.shape != gt.shape:
        raise ShapeMismatch("median scaling inputs must share a shape")
    if not valid.any():
        raise EmptyValidSet("median scaling needs at least one valid pixel")
    pred_median = np.median(pred[valid])
    if not 0 < pred_median < np.inf:
        raise NonPositiveDepth(
            f"median scaling needs a finite, positive prediction median over the "
            f"valid pixels, got {pred_median}"
        )
    return pred * (np.median(gt[valid]) / pred_median)


def depth_metrics(pred: np.ndarray, gt: np.ndarray) -> MetricsReport:
    """Score a prediction against ground truth over the (0, DEPTH_CAP) valid set.

    The prediction must be finite (NonFiniteDepth otherwise); zero and
    negative values are legal and clamp to [PRED_FLOOR, DEPTH_CAP].
    """
    pred = np.asarray(pred, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if pred.shape != gt.shape:
        raise ShapeMismatch(f"pred {pred.shape} does not match gt {gt.shape}")
    require_finite_depth(pred, "a scored prediction")
    valid = (gt > 0) & (gt < DEPTH_CAP)
    if not valid.any():
        raise EmptyValidSet(f"no ground truth in (0, {DEPTH_CAP})")
    g = gt[valid]
    p = np.clip(pred[valid], PRED_FLOOR, DEPTH_CAP)

    ratio = np.maximum(p / g, g / p)
    sq_err = (p - g) ** 2
    return MetricsReport(
        abs_rel=float(np.mean(np.abs(p - g) / g)),
        sq_rel=float(np.mean(sq_err / g)),
        rmse=float(np.sqrt(np.mean(sq_err))),
        rmse_log=float(np.sqrt(np.mean((np.log(p) - np.log(g)) ** 2))),
        delta1=float(np.mean(ratio < 1.25)),
        delta2=float(np.mean(ratio < 1.25**2)),
        delta3=float(np.mean(ratio < 1.25**3)),
    )


def abs_rel_error_map(pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel |pred - gt| / gt, with a mask of pixels where gt is finite and positive.

    The map is 0 where gt is not (0 < gt < inf: zero, negative, infinite or
    NaN); such pixels are flagged false. A non-finite prediction raises
    NonFiniteDepth.
    """
    pred = np.asarray(pred, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if pred.shape != gt.shape:
        raise ShapeMismatch(f"pred {pred.shape} does not match gt {gt.shape}")
    require_finite_depth(pred, "a scored prediction")
    valid = (gt > 0) & (gt < np.inf)
    err = np.zeros_like(gt)
    err[valid] = np.abs(pred[valid] - gt[valid]) / gt[valid]
    return err, valid


def crop(data: np.ndarray, scheme: str = "none") -> np.ndarray:
    """Apply an evaluation crop.

    cityscapes_A keeps the middle 50% of rows and trims 3/32 of the columns
    from each side (192 px per side at 2048 wide); cityscapes_B keeps the
    top 75% of rows. Both generalize proportionally to other resolutions.
    """
    if scheme == "none":
        return data
    h, w = data.shape[:2]
    if scheme == "cityscapes_A":
        top = h // 4
        bottom = top + h // 2
        side = 3 * w // 32
        if bottom <= top or w - 2 * side < 1:
            raise TooSmall(f"{h}x{w} input too small for cityscapes_A")
        return data[top:bottom, side : w - side]
    if scheme == "cityscapes_B":
        bottom = 3 * h // 4
        if bottom < 1:
            raise TooSmall(f"{h}x{w} input too small for cityscapes_B")
        return data[:bottom]
    raise InvalidParameter(f"unknown crop scheme {scheme!r}; expected one of {CROP_SCHEMES}")


def error_heatmap(err: np.ndarray) -> np.ndarray:
    """Color an abs-rel error map: blue at 0 through white to red at >= HEATMAP_SATURATION.

    Returns an (H, W, 3) image in [0, 1].
    """
    t = np.clip(np.asarray(err, dtype=float) / HEATMAP_SATURATION, 0.0, 1.0)
    blue = np.array([0.0, 0.0, 1.0])
    white = np.array([1.0, 1.0, 1.0])
    red = np.array([1.0, 0.0, 0.0])
    low = blue + (white - blue) * (2 * t)[..., None]
    high = white + (red - white) * (2 * t - 1)[..., None]
    return np.where(t[..., None] < 0.5, low, high)
