"""Online multi-object tracking for 2D camera boxes and 3D LiDAR boxes.

The package bundles a Kalman-filtered tracking engine with a staged,
gated association cascade, a CLEAR-MOT evaluator, a synthetic scenario
generator, and file-format helpers used by the ``hmot`` command line tool.

``import hmot`` loads no submodule (and no numpy): each public name, and
each submodule named in :data:`_EXPORTS`, is imported on first use
(PEP 562) and then kept as an attribute of the package.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "assignment": ("INADMISSIBLE", "AssociationResult", "solve_gated_assignment"),
    "config": ("TrackerConfig", "default_class_configs", "load_config", "parse_config"),
    "errors": (
        "ConfigError",
        "DataFormatError",
        "DegenerateBoxError",
        "EmptyGalleryError",
        "NumericFailureError",
        "TrackingError",
        "ValidationError",
    ),
    "evaluation": ("ClassCounts", "MotReport", "evaluate", "merge_reports"),
    "kalman": (
        "MotionModel2D",
        "MotionModel3D",
        "Noise2D",
        "Noise3D",
        "init_track_state",
        "mahalanobis_sq",
        "predict",
        "update",
        "wrap_innovation",
    ),
    "metrics": (
        "bev_iou",
        "cosine_gallery_dist",
        "gauss_center_dist",
        "iou_2d",
        "iou_3d",
        "iou_dist_enlarged",
        "nms",
    ),
    "simulation": ("ObjectSpec", "ScenarioSpec", "Window", "generate", "parse_scenario", "preset"),
    "tracker": ("EmittedTrack", "FrameResult", "TrackerInstance", "split_detections"),
    "types": (
        "Box2D",
        "Box3D",
        "Camera",
        "ClassConfig",
        "Detection",
        "FrameObject",
        "GroundTruthFrame",
        "Mode",
        "ObjectClass",
        "State",
        "Track",
        "normalize_heading",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
