from __future__ import annotations

import math
import re

import numpy as np
import pytest

from hmot.errors import DegenerateBoxError, ValidationError
from hmot.types import (
    Box2D,
    Box3D,
    Camera,
    ClassConfig,
    Detection,
    Mode,
    ObjectClass,
    State,
    box2d_from_state,
    box3d_from_state,
    normalize_heading,
    observation_2d,
    observation_3d,
)


def test_enum_values():
    assert ObjectClass.VEHICLE.value == "vehicle"
    assert ObjectClass.PEDESTRIAN.value == "pedestrian"
    assert ObjectClass.CYCLIST.value == "cyclist"
    assert Mode("2d") is Mode.D2
    assert Mode("3d") is Mode.D3


def test_camera_groups():
    assert Camera.FRONT.group == "front"
    assert Camera.FRONT_LEFT.group == "front_lr"
    assert Camera.FRONT_RIGHT.group == "front_lr"
    assert Camera.SIDE_LEFT.group == "side"
    assert Camera.SIDE_RIGHT.group == "side"


def test_normalize_heading_identity_in_range():
    for theta in (-math.pi, -1.0, 0.0, 1.5, math.pi - 1e-12):
        assert normalize_heading(theta) == theta


def test_normalize_heading_wraps():
    assert normalize_heading(math.pi) == pytest.approx(-math.pi)
    assert normalize_heading(3 * math.pi) == pytest.approx(-math.pi)
    assert normalize_heading(2 * math.pi) == pytest.approx(0.0, abs=1e-12)
    assert normalize_heading(-3 * math.pi / 2) == pytest.approx(math.pi / 2)


def test_normalize_heading_randomized():
    rng = np.random.default_rng(3)
    for _ in range(500):
        theta = float(rng.uniform(-50.0, 50.0))
        w = normalize_heading(theta)
        assert -math.pi <= w < math.pi
        assert math.cos(w) == pytest.approx(math.cos(theta), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(theta), abs=1e-9)


def test_normalize_heading_rejects_nan():
    with pytest.raises(ValidationError):
        normalize_heading(float("nan"))


def test_box2d_basics():
    b = Box2D(10.0, 20.0, 4.0, 8.0)
    assert b.area == 32.0
    assert b.corners() == (8.0, 16.0, 12.0, 24.0)
    s = b.scaled(2.0)
    assert (s.cx, s.cy, s.w, s.h) == (10.0, 20.0, 8.0, 16.0)


@pytest.mark.parametrize("w,h", [(0.0, 5.0), (5.0, 0.0), (-1.0, 5.0)])
def test_box2d_rejects_degenerate(w, h):
    with pytest.raises(DegenerateBoxError):
        Box2D(0.0, 0.0, w, h)


@pytest.mark.parametrize("h,w,l", [(0.0, 1.0, 1.0), (1.0, -2.0, 1.0), (1.0, 1.0, 0.0)])
def test_box3d_rejects_degenerate(h, w, l):
    with pytest.raises(DegenerateBoxError, match=r"^Box3D needs h, w, l > 0, got "):
        Box3D(0.0, 0.0, 0.0, h, w, l, 0.0)


def test_box2d_rejects_non_finite():
    with pytest.raises(ValidationError):
        Box2D(float("inf"), 0.0, 1.0, 1.0)


def test_box3d_normalizes_heading():
    b = Box3D(0, 0, 0, 1, 1, 1, 3 * math.pi)
    assert b.theta == pytest.approx(-math.pi)


def test_box3d_bev_corners_axis_aligned():
    b = Box3D(1.0, 2.0, 0.0, 2.0, 4.0, 6.0, 0.0)
    corners = b.bev_corners()
    assert corners.shape == (4, 2)
    xs = sorted(corners[:, 0])
    ys = sorted(corners[:, 1])
    assert xs == pytest.approx([-2.0, -2.0, 4.0, 4.0])
    assert ys == pytest.approx([0.0, 0.0, 4.0, 4.0])


def test_box3d_bev_corners_counter_clockwise():
    rng = np.random.default_rng(5)
    for _ in range(100):
        b = Box3D(*rng.uniform(-5, 5, 3), *rng.uniform(0.5, 4.0, 3),
                  float(rng.uniform(-math.pi, math.pi)))
        c = b.bev_corners()
        # shoelace signed area positive for CCW ordering
        area2 = 0.0
        for i in range(4):
            x1, y1 = c[i]
            x2, y2 = c[(i + 1) % 4]
            area2 += x1 * y2 - x2 * y1
        assert area2 > 0
        assert 0.5 * area2 == pytest.approx(b.w * b.l, rel=1e-9)


def test_box3d_z_interval():
    b = Box3D(0, 0, 10.0, 4.0, 1, 1, 0)
    assert b.z_interval() == (8.0, 12.0)


def test_detection_requires_camera_for_2d():
    box = Box2D(0, 0, 10, 10)
    with pytest.raises(ValidationError):
        Detection(box, 0.9, ObjectClass.VEHICLE)
    det = Detection(box, 0.9, ObjectClass.VEHICLE, camera_id=Camera.FRONT)
    assert det.is_2d


@pytest.mark.parametrize("w, h", [(1e300, 1e-300), (50.0, 1e-320)])
def test_detection_rejects_2d_box_without_finite_aspect(w, h):
    with pytest.raises(ValidationError, match="aspect"):
        Detection(Box2D(100.0, 100.0, w, h), 0.9, ObjectClass.PEDESTRIAN, camera_id=Camera.FRONT)


def test_detection_forbids_camera_for_3d():
    box = Box3D(0, 0, 0, 1, 1, 1, 0)
    with pytest.raises(ValidationError):
        Detection(box, 0.9, ObjectClass.VEHICLE, camera_id=Camera.FRONT)
    det = Detection(box, 0.9, ObjectClass.VEHICLE)
    assert not det.is_2d


def test_detection_score_range():
    box = Box3D(0, 0, 0, 1, 1, 1, 0)
    with pytest.raises(ValidationError):
        Detection(box, 1.5, ObjectClass.VEHICLE)
    with pytest.raises(ValidationError):
        Detection(box, -0.1, ObjectClass.VEHICLE)


def test_detection_coerces_string_labels():
    det = Detection(Box3D(0, 0, 0, 1, 1, 1, 0), 0.5, "pedestrian")
    assert det.class_label is ObjectClass.PEDESTRIAN
    with pytest.raises(ValidationError):
        Detection(Box3D(0, 0, 0, 1, 1, 1, 0), 0.5, "bicycle")


def test_detection_embedding_must_be_unit_norm():
    box = Box2D(0, 0, 10, 10)
    emb = np.zeros(16)
    emb[0] = 1.0
    det = Detection(box, 0.9, ObjectClass.VEHICLE, camera_id=Camera.FRONT,
                    embedding=emb)
    assert det.embedding is not None
    with pytest.raises(ValidationError):
        Detection(box, 0.9, ObjectClass.VEHICLE, camera_id=Camera.FRONT,
                  embedding=2.0 * emb)


def test_detection_embedding_tolerates_tiny_norm_error():
    emb = np.zeros(8)
    emb[0] = 1.0 + 5e-7
    det = Detection(Box2D(0, 0, 1, 1), 0.5, ObjectClass.CYCLIST,
                    camera_id=Camera.SIDE_LEFT, embedding=emb)
    assert det.embedding.shape == (8,)


def test_state_shape_validation():
    with pytest.raises(ValidationError):
        State(np.zeros(7), np.eye(8))
    with pytest.raises(ValidationError):
        State(np.zeros(10), np.eye(9))


@pytest.mark.parametrize("mean_shape, cov_shape", [
    ((7,), (7, 7)), ((9,), (9, 9)), ((11,), (11, 11)), ((0,), (0, 0)),
    ((8,), (10, 10)), ((10,), (8, 8)), ((8,), (8, 9)), ((10,), (10,)),
    ((8, 1), (8, 8)), ((1, 10), (10, 10)), ((), (8, 8)), ((8,), (8, 8, 1)),
])
def test_state_rejects_other_shapes(mean_shape, cov_shape):
    with pytest.raises(ValidationError):
        State(np.ones(mean_shape), np.ones(cov_shape))


@pytest.mark.parametrize("dim", [8, 10])
def test_state_accepts_2d_and_3d_layouts(dim):
    st = State(list(range(1, dim + 1)), np.eye(dim))
    assert st.mean.dtype == np.float64 and st.mean.shape == (dim,)
    assert st.cov.shape == (dim, dim)
    st.validate()


@pytest.mark.parametrize("dim", [8, 10])
@pytest.mark.parametrize("part", ["mean", "cov"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_state_rejects_non_finite_entries(dim, part, bad):
    rng = np.random.default_rng(dim)
    for _ in range(5):
        mean, cov = np.ones(dim), np.eye(dim)
        target = mean if part == "mean" else cov
        target.flat[rng.integers(target.size)] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            State(mean, cov)


@pytest.mark.parametrize("gamma", [0.0, -0.5])
def test_state_validate_rejects_non_positive_aspect_2d(gamma):
    mean = np.array([0, 0, gamma, 10.0, 0, 0, 0, 0], dtype=float)
    with pytest.raises(ValidationError, match="extents"):
        State(mean, np.eye(8)).validate()


@pytest.mark.parametrize("dim, index", [(8, 3), (10, 3), (10, 4), (10, 5)])
def test_state_validate_rejects_each_non_positive_extent(dim, index):
    mean = np.ones(dim)
    mean[index] = 0.0
    with pytest.raises(ValidationError, match="extents"):
        State(mean, np.eye(dim)).validate()


def test_state_validate_flags_asymmetry():
    mean = np.array([0, 0, 0.5, 10.0, 0, 0, 0, 0], dtype=float)
    cov = np.eye(8)
    cov[0, 1] = 1e-6
    st = State(mean, cov)
    with pytest.raises(ValidationError):
        st.validate()


def test_state_validate_flags_negative_eigenvalue():
    mean = np.array([0, 0, 0, 1.8, 0.6, 0.6, 0, 0, 0, 0], dtype=float)
    cov = np.eye(10)
    cov[0, 0] = -1.0
    st = State(mean, cov)
    with pytest.raises(ValidationError):
        st.validate()


def test_observation_and_box_round_trip_2d():
    box = Box2D(100.0, 50.0, 30.0, 60.0)
    obs = observation_2d(box)
    assert obs == pytest.approx([100.0, 50.0, 0.5, 60.0])
    mean = np.zeros(8)
    mean[:4] = obs
    back = box2d_from_state(State(mean, np.eye(8)))
    assert back.w == pytest.approx(box.w)
    assert (back.cx, back.cy, back.h) == (box.cx, box.cy, box.h)


def test_observation_and_box_round_trip_3d():
    box = Box3D(1, 2, 3, 1.5, 2.0, 4.5, 0.3)
    obs = observation_3d(box)
    mean = np.zeros(10)
    mean[:7] = obs
    back = box3d_from_state(State(mean, np.eye(10)))
    assert (back.cx, back.cy, back.cz) == (1, 2, 3)
    assert (back.h, back.w, back.l) == (1.5, 2.0, 4.5)
    assert back.theta == pytest.approx(0.3)


def test_box_from_degenerate_state_raises():
    mean = np.zeros(8)
    mean[2] = -0.5
    mean[3] = 10.0
    with pytest.raises(DegenerateBoxError):
        box2d_from_state(State(mean, np.eye(8)))
    mean = np.zeros(10)
    mean[3:6] = (1.5, 0.0, 4.5)
    with pytest.raises(DegenerateBoxError, match=r"^state yields degenerate box \(h=1\.5, w=0"):
        box3d_from_state(State(mean, np.eye(10)))


def _config(**kw):
    base = dict(t_s=0.5, t_a=0.15, max_iou_dist_front=0.95,
                max_iou_dist_front_lr=0.97, max_iou_dist_side=0.99,
                sigma=1.5, max_center_dist=0.7)
    base.update(kw)
    return ClassConfig(**base)


def test_class_config_camera_threshold_lookup():
    cfg = _config()
    assert cfg.max_iou_dist_for(Camera.FRONT) == 0.95
    assert cfg.max_iou_dist_for(Camera.FRONT_LEFT) == 0.97
    assert cfg.max_iou_dist_for(Camera.FRONT_RIGHT) == 0.97
    assert cfg.max_iou_dist_for(Camera.SIDE_LEFT) == 0.99
    assert cfg.max_iou_dist_for(Camera.SIDE_RIGHT) == 0.99


def test_class_config_rejects_bad_ranges():
    with pytest.raises(ValidationError):
        _config(t_s=0.0)
    with pytest.raises(ValidationError):
        _config(t_a=1.5)
    with pytest.raises(ValidationError):
        _config(sigma=-1.0)
    for sigma in (1e-200, 1e155):  # 2 sigma^2 underflows, or overflows
        with pytest.raises(ValidationError, match="sigma"):
            _config(sigma=sigma)
    with pytest.raises(ValidationError):
        _config(a_max=0)
    with pytest.raises(ValidationError):
        _config(min_hits=0)
    with pytest.raises(ValidationError):
        _config(gallery_budget=0)
    with pytest.raises(ValidationError):
        _config(enlarge_stage2=0.5)


@pytest.mark.parametrize("field, value", [
    *[(name, bad) for name in ("sigma", "enlarge_stage2", "enlarge_stage3")
      for bad in (math.nan, math.inf, -math.inf)],
    *[(name, bad) for name in ("a_max", "min_hits", "gallery_budget")
      for bad in (math.nan, math.inf, 2.5, 3.0, True)],
])
def test_class_config_rejects_non_finite_or_non_integer(field, value):
    with pytest.raises(ValidationError, match=field):
        _config(**{field: value})


def test_class_config_accepts_integer_like_counts():
    cfg = _config(a_max=np.int64(4), min_hits=2, gallery_budget=np.int32(7))
    assert (cfg.a_max, cfg.min_hits, cfg.gallery_budget) == (4, 2, 7)


def test_class_config_defaults():
    cfg = _config()
    assert cfg.a_max == 3
    assert cfg.min_hits == 1
    assert cfg.gallery_budget == 100
    assert cfg.enlarge_stage2 == 2.0
    assert cfg.enlarge_stage3 == 3.0
    assert cfg.mahalanobis_gating is False


@pytest.mark.parametrize("kwargs, message", [
    ({"box": "box"}, "box must be Box2D or Box3D, got str"),
    ({"camera_id": "rear"}, "unknown camera 'rear'"),
    ({"embedding": np.eye(2)}, "embedding must be 1-D, got shape (2, 2)"),
    ({"embedding": [1.0, math.nan]}, "embedding contains non-finite values"),
    ({"embedding": [0.7, 0.0]}, "embedding must be unit-norm, got |e| = 0.7"),
])
def test_detection_rejects_each_field_with_its_message(kwargs, message):
    fields = {"box": Box2D(100.0, 100.0, 10.0, 20.0), "score": 0.9,
              "class_label": ObjectClass.PEDESTRIAN, "camera_id": Camera.FRONT, **kwargs}
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        Detection(**fields)


def test_detection_takes_a_camera_by_name():
    det = Detection(Box2D(100.0, 100.0, 10.0, 20.0), 0.9, "pedestrian", camera_id="side_left")
    assert det.camera_id is Camera.SIDE_LEFT and det.class_label is ObjectClass.PEDESTRIAN
