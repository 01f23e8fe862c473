"""Plane-sweep depth estimation core: geometry, cost volumes, losses,
augmentations, evaluation, and a synthetic-scene oracle."""

from .augment import (
    Augmentation,
    AugmentConfig,
    apply_augmentation,
    color_jitter,
    draw_augmentation,
)
from .costvolume import (
    AdaptiveRangeState,
    CostVolume,
    DepthPlaneSet,
    adaptive_range_update,
    argmin_depth,
    build_cost_volume,
    inverse_depth_planes,
    linear_planes,
    upsample_nearest,
    zero_volume,
)
from .errors import SweepDepthError
from .evaluation import (
    MetricsReport,
    abs_rel_error_map,
    crop,
    depth_metrics,
    error_heatmap,
    median_scale,
)
from .features import FeatureMap, extract_features
from .geometry import (
    Intrinsics,
    PixelGrid,
    Pose,
    backproject,
    bilinear_sample,
    plane_warp_grid,
    project,
    reproject_grid,
)
from .losses import (
    LossReport,
    consistency_loss,
    consistency_mask,
    min_reprojection_loss,
    photometric_error,
    smoothness_loss,
    ssim,
    total_loss,
)
from .synth import (
    Frame,
    Mover,
    PlaneElement,
    Scene,
    SceneSetup,
    Texture,
    make_sequence,
    mover_mask,
    mover_rect,
    preset_scene,
    relative_pose,
    render,
    texture_contrast_mask,
)

__version__ = "0.1.0"
