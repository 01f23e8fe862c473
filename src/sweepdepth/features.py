"""Matching descriptors for cost-volume construction.

Classical stand-ins for a learned encoder: each extractor turns an (H, W, C)
image into a coarser (H', W', F) descriptor grid, where H' = ceil(H/scale).
Downsampling is box averaging so results are deterministic and exactly
checkable by hand. Gradient features are an (H', W', 3) view over
channel-major (3, H', W') memory, the layout the plane sweep reads, so the
sweep takes them without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnknownExtractor

EXTRACTOR_KINDS = ("intensity", "rgb", "gradient")
VALID_SCALES = (1, 2, 4)


@dataclass(frozen=True)
class FeatureMap:
    """Descriptor grid of shape (H', W', F) plus its downsample factor."""

    data: np.ndarray
    scale: int

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


def _box_downsample(img: np.ndarray, scale: int) -> np.ndarray:
    """Average over scale x scale blocks; partial edge blocks average what exists."""
    if scale == 1:
        return img
    h, w = img.shape[:2]
    hp = -(-h // scale)
    wp = -(-w // scale)
    rest = img.shape[2:]
    pad = ((0, hp * scale - h), (0, wp * scale - w)) + ((0, 0),) * len(rest)
    blocks = np.pad(img, pad).reshape(hp, scale, wp, scale, *rest).swapaxes(1, 2)
    blocks = blocks.reshape(hp, wp, scale * scale, *rest)
    rows = np.minimum(scale, h - scale * np.arange(hp))
    cols = np.minimum(scale, w - scale * np.arange(wp))
    counts = np.outer(rows, cols).reshape((hp, wp) + (1,) * len(rest))
    return blocks.sum(axis=2) / counts


# What numpy's sums start from: 0.0, so that all -0.0 sums to +0.0, or in a numpy that keeps
# the sign, -0.0, which adds to the first value as a copy of it would.
_SUM_START = np.add.reduce(np.array([-0.0]))


def channel_mean(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x.mean(axis=-1)``, bit for bit, in whole-array passes instead of a reduction
    along a short axis: numpy adds fewer than 8 values in order onto _SUM_START and
    divides by their count. Longer axes it sums pairwise, so they take numpy's own mean."""
    channels = x.shape[-1]
    if not 0 < channels < 8:
        return np.mean(x, axis=-1, out=out)
    out = np.add(x[..., 0], _SUM_START, out=out)
    for c in range(1, channels):
        out += x[..., c]
    out /= channels
    return out


def _to_gray(img: np.ndarray) -> np.ndarray:
    if img.ndim == 2:
        return img
    return channel_mean(img)


def _central_diff_x(img: np.ndarray) -> np.ndarray:
    padded = np.pad(img, ((0, 0), (1, 1)), mode="edge")
    return (padded[:, 2:] - padded[:, :-2]) / 2.0


def _central_diff_y(img: np.ndarray) -> np.ndarray:
    padded = np.pad(img, ((1, 1), (0, 0)), mode="edge")
    return (padded[2:, :] - padded[:-2, :]) / 2.0


def extract_features(img: np.ndarray, kind: str = "gradient", scale: int = 4) -> FeatureMap:
    """Encode an image into a feature map.

    Kinds:
      intensity -- 1 channel, box-downsampled grayscale
      rgb       -- input channels, box-downsampled
      gradient  -- 3 channels: grayscale plus d/dx and d/dy central differences
                   (replicate edges), computed at the downsampled resolution

    ``scale`` must be 1, 2, or 4.
    """
    img = np.asarray(img, dtype=float)
    if scale not in VALID_SCALES:
        raise UnknownExtractor(f"scale must be one of {VALID_SCALES}, got {scale}")
    if kind == "intensity":
        data = _box_downsample(_to_gray(img), scale)[..., None]
    elif kind == "rgb":
        data = _box_downsample(img if img.ndim == 3 else img[..., None], scale)
    elif kind == "gradient":
        gray = _box_downsample(_to_gray(img), scale)
        data = np.moveaxis(np.stack([gray, _central_diff_x(gray), _central_diff_y(gray)]), 0, -1)
    else:
        raise UnknownExtractor(f"unknown extractor kind {kind!r}")
    return FeatureMap(data=data, scale=scale)
