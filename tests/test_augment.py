"""Augmentation draws, color jitter, and the substitution contract."""

import hashlib

import numpy as np
import pytest

from sweepdepth.augment import (
    Augmentation,
    AugmentConfig,
    apply_augmentation,
    color_jitter,
    draw_augmentation,
    sample_rng,
)
from sweepdepth.errors import InvalidParameter

# sha256 of the float64 bytes of the jittered copy of GOLDEN_IMAGE drawn at seed 42, index 9
GOLDEN_JITTER_SHA256 = "9e353f3425960f31fe36211981f12edd4677b765343e3b439ee21d160cdf73b3"


def golden_image():
    return np.random.default_rng(0).random((6, 8, 3))


class TestDraw:
    def test_p_one_always_zero_volume(self):
        cfg = AugmentConfig(p=1.0, q=0.0, rng_seed=7)
        assert all(
            draw_augmentation(cfg, i) is Augmentation.ZERO_VOLUME for i in range(200)
        )

    def test_p_q_zero_always_none(self):
        cfg = AugmentConfig(p=0.0, q=0.0, rng_seed=7)
        assert all(draw_augmentation(cfg, i) is Augmentation.NONE for i in range(200))

    def test_frequencies_near_quarter(self):
        cfg = AugmentConfig(p=0.25, q=0.25, rng_seed=99)
        draws = [draw_augmentation(cfg, i) for i in range(20_000)]
        zv = sum(d is Augmentation.ZERO_VOLUME for d in draws) / len(draws)
        ss = sum(d is Augmentation.STATIC_SUBSTITUTE for d in draws) / len(draws)
        assert abs(zv - 0.25) < 0.01
        assert abs(ss - 0.25) < 0.01

    def test_deterministic_and_order_independent(self):
        cfg = AugmentConfig(rng_seed=5)
        forward = [draw_augmentation(cfg, i) for i in range(50)]
        backward = [draw_augmentation(cfg, i) for i in reversed(range(50))]
        assert forward == backward[::-1]

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            AugmentConfig(p=0.7, q=0.5)
        with pytest.raises(ValueError):
            AugmentConfig(p=-0.1, q=0.0)

    @pytest.mark.parametrize("index", [-1, 2**64])
    def test_index_outside_philox_counter_rejected(self, index):
        with pytest.raises(InvalidParameter):
            sample_rng(0, index)
        with pytest.raises(InvalidParameter):
            draw_augmentation(AugmentConfig(), index)

    def test_indices_past_float_precision_draw_apart(self):
        # Neighbouring indices above 2**53 are distinct counters, not one rounded value.
        draws = {sample_rng(0, 2**64 - k).random() for k in (1, 2)}
        assert len(draws) == 2

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_philox_keys_rejected(self, seed):
        with pytest.raises(InvalidParameter):
            AugmentConfig(rng_seed=seed)


class TestColorJitter:
    def test_pinned_brightness_delta(self):
        # contrast and saturation leave a constant image as it is: only the brightness shows,
        # and it is the first lane-1 draw, uniform in [-0.2, 0.2]
        img = np.full((4, 4, 3), 0.5)
        out = color_jitter(img, sample_rng(0, 0, 1))
        assert np.allclose(out, 0.5 + sample_rng(0, 0, 1).uniform(-0.2, 0.2), atol=1e-12)

    def test_output_clamped(self):
        deltas = [sample_rng(0, index, 1).uniform(-0.2, 0.2) for index in range(4)]
        assert min(deltas) < 0 < max(deltas)
        for value in (0.0, 1.0):  # a delta away from [0, 1] meets the clamp
            img = np.full((4, 4, 3), value)
            for index, delta in enumerate(deltas):
                out = color_jitter(img, sample_rng(0, index, 1))
                assert np.allclose(out, np.clip(value + delta, 0.0, 1.0), atol=1e-12)
                assert out.min() >= 0.0 and out.max() <= 1.0

    def test_bit_exact_reproducibility(self, rng):
        img = rng.random((6, 6, 3))
        a = color_jitter(img, sample_rng(42, 9, 1))
        b = color_jitter(img, sample_rng(42, 9, 1))
        assert np.array_equal(a, b)

    def test_golden_output(self):
        out = color_jitter(golden_image(), sample_rng(42, 9, 1))
        assert hashlib.sha256(out.tobytes()).hexdigest() == GOLDEN_JITTER_SHA256


class TestApply:
    def test_none_passes_prev_through_by_reference(self, rng):
        cfg = AugmentConfig(rng_seed=0)
        target, prev = rng.random((4, 4, 3)), rng.random((4, 4, 3))
        out = apply_augmentation(Augmentation.NONE, target, prev, cfg, 0)
        assert out is prev

    def test_static_substitute_is_a_jittered_copy_of_target(self, rng):
        cfg = AugmentConfig(rng_seed=42)
        target, prev = rng.random((4, 4, 3)), rng.random((4, 4, 3))
        out = apply_augmentation(Augmentation.STATIC_SUBSTITUTE, target, prev, cfg, 9)
        assert out is not target  # a copy, never the loss-side array itself
        assert np.array_equal(out, color_jitter(target, sample_rng(42, 9, 1)))

    def test_static_substitute_golden_output(self):
        img = golden_image()
        out = apply_augmentation(Augmentation.STATIC_SUBSTITUTE, img, img[::-1],
                                 AugmentConfig(rng_seed=42), 9)
        assert hashlib.sha256(out.tobytes()).hexdigest() == GOLDEN_JITTER_SHA256

    def test_zero_volume_result(self, rng):
        # a ZERO_VOLUME draw replaces the cost volume, so there is no image to return
        cfg = AugmentConfig(rng_seed=0)
        with pytest.raises(InvalidParameter):
            apply_augmentation(Augmentation.ZERO_VOLUME, rng.random((4, 4, 3)), rng.random((4, 4, 3)),
                               cfg, 0)

    def test_never_mutates_inputs(self, rng):
        cfg = AugmentConfig(rng_seed=3)
        target, prev = rng.random((4, 4, 3)), rng.random((4, 4, 3))
        t0, p0 = target.copy(), prev.copy()
        for decision in (Augmentation.NONE, Augmentation.STATIC_SUBSTITUTE):
            apply_augmentation(decision, target, prev, cfg, 1)
        assert np.array_equal(target, t0)
        assert np.array_equal(prev, p0)
