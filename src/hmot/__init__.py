"""Online multi-object tracking for 2D camera boxes and 3D LiDAR boxes.

The package bundles a Kalman-filtered tracking engine with a staged,
gated association cascade, a CLEAR-MOT evaluator, a synthetic scenario
generator, and file-format helpers used by the ``hmot`` command line tool.
"""

from .assignment import INADMISSIBLE, AssociationResult, solve_gated_assignment
from .config import TrackerConfig, default_class_configs, load_config, parse_config
from .errors import (
    ConfigError,
    DataFormatError,
    DegenerateBoxError,
    EmptyGalleryError,
    NumericFailureError,
    TrackingError,
    ValidationError,
)
from .evaluation import (
    ClassCounts,
    FrameObject,
    GroundTruthFrame,
    MotReport,
    evaluate,
    merge_reports,
)
from .kalman import (
    MotionModel2D,
    MotionModel3D,
    Noise2D,
    Noise3D,
    init_track_state,
    mahalanobis_sq,
    predict,
    update,
    wrap_innovation,
)
from .metrics import (
    bev_iou,
    cosine_gallery_dist,
    gauss_center_dist,
    iou_2d,
    iou_3d,
    iou_dist_enlarged,
    nms,
)
from .simulation import ObjectSpec, ScenarioSpec, Window, generate, parse_scenario, preset
from .tracker import EmittedTrack, FrameResult, TrackerInstance, split_detections
from .types import (
    Box2D,
    Box3D,
    Camera,
    ClassConfig,
    Detection,
    Mode,
    ObjectClass,
    State,
    Track,
    normalize_heading,
)

__version__ = "0.1.0"

__all__ = [
    "AssociationResult",
    "Box2D",
    "Box3D",
    "Camera",
    "ClassConfig",
    "ClassCounts",
    "ConfigError",
    "DataFormatError",
    "DegenerateBoxError",
    "Detection",
    "EmittedTrack",
    "EmptyGalleryError",
    "FrameObject",
    "FrameResult",
    "GroundTruthFrame",
    "INADMISSIBLE",
    "Mode",
    "MotReport",
    "MotionModel2D",
    "MotionModel3D",
    "Noise2D",
    "Noise3D",
    "NumericFailureError",
    "ObjectClass",
    "ObjectSpec",
    "ScenarioSpec",
    "State",
    "Track",
    "TrackerConfig",
    "TrackerInstance",
    "TrackingError",
    "ValidationError",
    "Window",
    "bev_iou",
    "cosine_gallery_dist",
    "default_class_configs",
    "evaluate",
    "gauss_center_dist",
    "generate",
    "init_track_state",
    "iou_2d",
    "iou_3d",
    "iou_dist_enlarged",
    "load_config",
    "mahalanobis_sq",
    "merge_reports",
    "nms",
    "normalize_heading",
    "parse_config",
    "parse_scenario",
    "predict",
    "preset",
    "solve_gated_assignment",
    "split_detections",
    "update",
    "wrap_innovation",
]
