"""The package surface: ``import hmot`` loads nothing until a public name
or a submodule is first used, and each name resolves to its defining
module's object."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hmot

SRC = str(Path(hmot.__file__).resolve().parents[1])

# The 56 public names, as the package has exported them since before its
# names were resolved lazily.
PUBLIC = {
    "AssociationResult", "Box2D", "Box3D", "Camera", "ClassConfig", "ClassCounts",
    "ConfigError", "DataFormatError", "DegenerateBoxError", "Detection", "EmittedTrack",
    "EmptyGalleryError", "FrameObject", "FrameResult", "GroundTruthFrame", "INADMISSIBLE",
    "Mode", "MotReport", "MotionModel2D", "MotionModel3D", "Noise2D", "Noise3D",
    "NumericFailureError", "ObjectClass", "ObjectSpec", "ScenarioSpec", "State", "Track",
    "TrackerConfig", "TrackerInstance", "TrackingError", "ValidationError", "Window",
    "bev_iou", "cosine_gallery_dist", "default_class_configs", "evaluate",
    "gauss_center_dist", "generate", "init_track_state", "iou_2d", "iou_3d",
    "iou_dist_enlarged", "load_config", "mahalanobis_sq", "merge_reports", "nms",
    "normalize_heading", "parse_config", "parse_scenario", "predict", "preset",
    "solve_gated_assignment", "split_detections", "update", "wrap_innovation",
}
SUBMODULES = ("assignment", "config", "errors", "evaluation", "kalman", "metrics",
              "simulation", "tracker", "types")


def _loaded_after(code: str) -> set[str]:
    """The modules among numpy and hmot's that a fresh interpreter holds
    after running ``code``."""
    probe = (f"{code}\nimport json, sys\n"
             "print(json.dumps([m for m in sys.modules if m == 'numpy' or m.startswith('hmot')]))")
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60, check=True)
    return set(json.loads(proc.stdout))


@pytest.mark.parametrize("code, absent", [
    ("import hmot", {"numpy", *(f"hmot.{m}" for m in SUBMODULES)}),
    ("import hmot.io", {"hmot.evaluation", "hmot.assignment", "hmot.metrics"}),
    ("from hmot import evaluate", {"hmot.tracker", "hmot.kalman", "hmot.simulation"}),
    ("from hmot import generate", {"hmot.evaluation"}),
])
def test_an_import_loads_only_what_it_uses(code, absent):
    loaded = _loaded_after(code)
    assert "hmot" in loaded
    assert loaded.isdisjoint(absent), sorted(loaded & absent)


def test_a_bare_import_resolves_every_submodule():
    loaded = _loaded_after(
        f"import hmot\nassert all(getattr(hmot, m).__name__ == 'hmot.' + m for m in {SUBMODULES})")
    assert {f"hmot.{m}" for m in SUBMODULES} <= loaded


def test_public_names_are_listed_once_and_resolve_to_their_module():
    listed = [name for names in hmot._EXPORTS.values() for name in names]
    assert len(listed) == len(set(listed)) == 56
    assert set(hmot.__all__) == PUBLIC and set(hmot._EXPORTS) == set(SUBMODULES)
    for module, names in hmot._EXPORTS.items():
        defining = importlib.import_module(f"hmot.{module}")
        for name in names:
            value = getattr(hmot, name)
            assert value is getattr(defining, name)
            assert getattr(value, "__module__", defining.__name__) == defining.__name__
    assert PUBLIC | set(SUBMODULES) <= set(dir(hmot))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'hmot' has no attribute 'no_such_name'"):
        hmot.no_such_name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from hmot import *", namespace)
    assert PUBLIC <= set(namespace)


def test_frame_records_are_still_importable_from_the_evaluator():
    from hmot.evaluation import FrameObject, GroundTruthFrame

    assert (FrameObject, GroundTruthFrame) == (hmot.types.FrameObject,
                                               hmot.types.GroundTruthFrame)
