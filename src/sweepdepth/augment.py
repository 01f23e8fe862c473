"""Robustness augmentations for missing-baseline training samples.

Two substitutions, drawn mutually exclusively per sample: replace the cost
volume with zeros (probability p, the start-of-sequence case) or feed the
cost volume a color-jittered copy of the target instead of the previous
frame (probability q, the static-camera case). The reprojection-loss inputs
are never substituted.

Randomness is counter-based: every draw derives from (seed, sample index),
so decisions and jitter parameters reproduce bit-exactly regardless of the
order samples are visited in.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .features import channel_mean


# Uniform ranges of the static-substitute colour jitter: an additive brightness delta, then
# contrast and saturation factors about the image mean and the grayscale image.
BRIGHTNESS = (-0.2, 0.2)
CONTRAST = (0.8, 1.2)
SATURATION = (0.8, 1.2)


class Augmentation(enum.Enum):
    NONE = "none"
    ZERO_VOLUME = "zero_volume"
    STATIC_SUBSTITUTE = "static_substitute"


@dataclass(frozen=True)
class AugmentConfig:
    p: float = 0.25
    q: float = 0.25
    rng_seed: int = 0

    def __post_init__(self):
        if not (0 <= self.p <= 1 and 0 <= self.q <= 1 and self.p + self.q <= 1):
            raise InvalidParameter(
                f"need p, q in [0, 1] with p + q <= 1, got p={self.p} q={self.q}"
            )
        if not 0 <= self.rng_seed < 2**128:  # the range of a Philox key
            raise InvalidParameter(f"augmentation seed must be in [0, 2**128), got {self.rng_seed}")


def sample_rng(seed: int, index: int, lane: int = 0) -> np.random.Generator:
    """Independent generator for one (sample, purpose) pair.

    Philox counters make the stream a pure function of its coordinates;
    lane 0 is used for the augmentation decision, lane 1 for jitter factors.
    The index must fit one 64-bit counter word.
    """
    if not 0 <= index < 2**64:
        raise InvalidParameter(f"augmentation sample index must be in [0, 2**64), got {index}")
    counter = np.array([index, lane, 0, 0], dtype=np.uint64)  # a list would pass through float64
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def draw_augmentation(cfg: AugmentConfig, index: int) -> Augmentation:
    """Decide this sample's substitution: ZeroVolume w.p. p, StaticSubstitute w.p. q."""
    u = sample_rng(cfg.rng_seed, index, lane=0).random()
    if u < cfg.p:
        return Augmentation.ZERO_VOLUME
    if u < cfg.p + cfg.q:
        return Augmentation.STATIC_SUBSTITUTE
    return Augmentation.NONE


def color_jitter(img: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Brightness, contrast, then saturation, each drawn uniform in its range
    (BRIGHTNESS, CONTRAST, SATURATION); clamp to [0, 1]."""
    img = np.asarray(img, dtype=float)
    out = img + rng.uniform(*BRIGHTNESS)
    out = (out - out.mean()) * rng.uniform(*CONTRAST) + out.mean()
    if img.ndim == 3 and img.shape[2] > 1:
        gray = channel_mean(out)[..., None]
        out = gray + (out - gray) * rng.uniform(*SATURATION)
    else:
        rng.uniform(*SATURATION)  # keep the stream layout channel-independent
    return np.clip(out, 0.0, 1.0)


def apply_augmentation(
    decision: Augmentation,
    target_img: np.ndarray,
    prev_img: np.ndarray,
    cfg: AugmentConfig,
    index: int,
) -> np.ndarray:
    """Produce the image the cost volume should take in place of ``prev_img``.

    NONE passes ``prev_img`` through unchanged (same object), so loss-side
    inputs are never touched; STATIC_SUBSTITUTE returns a jittered copy of
    the target. ZERO_VOLUME replaces the volume, not an image: its caller
    skips the sweep, and passing it here raises InvalidParameter.
    """
    if decision is Augmentation.NONE:
        return prev_img
    if decision is Augmentation.STATIC_SUBSTITUTE:
        return color_jitter(target_img, sample_rng(cfg.rng_seed, index, lane=1))
    raise InvalidParameter(f"{decision} substitutes the cost volume, not an image")
