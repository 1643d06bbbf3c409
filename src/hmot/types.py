"""Shared domain types: boxes, detections, filter states, tracks, per-class config.

All types are plain values. Units: 2D quantities are pixels, 3D quantities are
meters/radians, velocities are per-frame.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DegenerateBoxError, ValidationError

EMBEDDING_NORM_TOL = 1e-6


class ObjectClass(str, enum.Enum):
    VEHICLE = "vehicle"
    PEDESTRIAN = "pedestrian"
    CYCLIST = "cyclist"


class Camera(str, enum.Enum):
    FRONT = "front"
    FRONT_LEFT = "front_left"
    FRONT_RIGHT = "front_right"
    SIDE_LEFT = "side_left"
    SIDE_RIGHT = "side_right"

    @property
    def group(self) -> str:
        """Threshold group this camera belongs to: front | front_lr | side."""
        if self is Camera.FRONT:
            return "front"
        if self in (Camera.FRONT_LEFT, Camera.FRONT_RIGHT):
            return "front_lr"
        return "side"


class Mode(str, enum.Enum):
    D2 = "2d"
    D3 = "3d"


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValidationError(f"{name}: non-finite value {v!r}")


def normalize_heading(theta: float) -> float:
    """Wrap a heading angle into [-pi, pi).

    Idempotent: values already in range are returned unchanged, bit for bit.
    """
    if not math.isfinite(theta):
        raise ValidationError(f"heading must be finite, got {theta!r}")
    if -math.pi <= theta < math.pi:
        return theta
    wrapped = (theta + math.pi) % (2.0 * math.pi) - math.pi
    # float modulo can graze the boundary from either side
    if wrapped >= math.pi:
        wrapped -= 2.0 * math.pi
    elif wrapped < -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned image box, center format (pixels)."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        _require_finite("Box2D", self.cx, self.cy, self.w, self.h)
        if self.w <= 0 or self.h <= 0:
            raise DegenerateBoxError(f"Box2D needs w, h > 0, got w={self.w}, h={self.h}")

    @property
    def area(self) -> float:
        return self.w * self.h

    def corners(self) -> tuple[float, float, float, float]:
        """(x1, y1, x2, y2) with x1 < x2, y1 < y2."""
        hw, hh = self.w / 2.0, self.h / 2.0
        return (self.cx - hw, self.cy - hh, self.cx + hw, self.cy + hh)

    def scaled(self, factor: float) -> "Box2D":
        """Box with w and h multiplied by ``factor`` about the same center."""
        return Box2D(self.cx, self.cy, self.w * factor, self.h * factor)


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box: world center (m), extents h/w/l (m), heading (rad).

    The heading is wrapped into [-pi, pi) on construction. With theta = 0 the
    length l runs along +x and the width w along +y; h is the vertical extent.
    """

    cx: float
    cy: float
    cz: float
    h: float
    w: float
    l: float
    theta: float

    def __post_init__(self):
        _require_finite("Box3D", self.cx, self.cy, self.cz, self.h, self.w, self.l, self.theta)
        if self.h <= 0 or self.w <= 0 or self.l <= 0:
            raise DegenerateBoxError(
                f"Box3D needs h, w, l > 0, got h={self.h}, w={self.w}, l={self.l}"
            )
        object.__setattr__(self, "theta", normalize_heading(self.theta))

    @property
    def center(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.cz])

    def bev_corners(self) -> np.ndarray:
        """Ground-plane footprint corners, (4, 2), counter-clockwise."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        dx, dy = self.l / 2.0, self.w / 2.0
        local = np.array([[-dx, -dy], [dx, -dy], [dx, dy], [-dx, dy]])
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + np.array([self.cx, self.cy])

    def z_interval(self) -> tuple[float, float]:
        return (self.cz - self.h / 2.0, self.cz + self.h / 2.0)


Box = Union[Box2D, Box3D]


@dataclass(frozen=True, eq=False)
class Detection:
    """One per-frame observation from a detector.

    ``camera_id`` is required for 2D boxes and must be absent for 3D boxes.
    ``embedding`` is an optional unit-norm appearance feature. ``src_gt`` is a
    diagnostic sidecar (the generating ground-truth id in simulation); the
    tracker never reads it.
    """

    box: Box
    score: float
    class_label: ObjectClass
    camera_id: Camera | None = None
    embedding: np.ndarray | None = None
    src_gt: int | None = None

    def __post_init__(self):
        if not isinstance(self.box, (Box2D, Box3D)):
            raise ValidationError(f"box must be Box2D or Box3D, got {type(self.box).__name__}")
        _require_finite("Detection.score", self.score)
        if not 0.0 <= self.score <= 1.0:
            raise ValidationError(f"score must be in [0, 1], got {self.score}")
        if not isinstance(self.class_label, ObjectClass):
            try:
                object.__setattr__(self, "class_label", ObjectClass(self.class_label))
            except ValueError:
                raise ValidationError(f"unknown class label {self.class_label!r}") from None
        if self.camera_id is not None and not isinstance(self.camera_id, Camera):
            try:
                object.__setattr__(self, "camera_id", Camera(self.camera_id))
            except ValueError:
                raise ValidationError(f"unknown camera {self.camera_id!r}") from None
        if isinstance(self.box, Box2D) and self.camera_id is None:
            raise ValidationError("2D detections require a camera_id")
        if isinstance(self.box, Box3D) and self.camera_id is not None:
            raise ValidationError("3D detections must not carry a camera_id")
        if self.embedding is not None:
            emb = np.ascontiguousarray(self.embedding, dtype=np.float64)
            if emb.ndim != 1:
                raise ValidationError(f"embedding must be 1-D, got shape {emb.shape}")
            if not np.all(np.isfinite(emb)):
                raise ValidationError("embedding contains non-finite values")
            norm = float(np.linalg.norm(emb))
            if abs(norm - 1.0) > EMBEDDING_NORM_TOL:
                raise ValidationError(f"embedding must be unit-norm, got |e| = {norm}")
            object.__setattr__(self, "embedding", emb)

    @property
    def is_2d(self) -> bool:
        return isinstance(self.box, Box2D)


# State vector layouts. 2D: (cx, cy, gamma, h, vcx, vcy, vgamma, vh) with
# gamma = w/h. 3D: (cx, cy, cz, h, w, l, theta, vcx, vcy, vcz).
DIM_STATE_2D, DIM_OBS_2D = 8, 4
DIM_STATE_3D, DIM_OBS_3D = 10, 7
IX_THETA_3D = 6


# Indices of the box extents in each state layout, keyed by state size.
# Every filter step keeps these positive.
EXTENTS = {DIM_STATE_2D: [2, 3], DIM_STATE_3D: [3, 4, 5]}


@dataclass(eq=False)
class State:
    """Kalman state of a track: mean (8,) with covariance (8, 8) in 2D, mean
    (10,) with covariance (10, 10) in 3D. Every entry is finite."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = self.mean = np.asarray(self.mean, dtype=np.float64)
        cov = self.cov = np.asarray(self.cov, dtype=np.float64)
        if mean.ndim != 1 or len(mean) not in EXTENTS:
            raise ValidationError(
                f"state mean must have shape ({DIM_STATE_2D},) or ({DIM_STATE_3D},), "
                f"got {mean.shape}"
            )
        dim = len(mean)
        if cov.shape != (dim, dim):
            raise ValidationError(
                f"state covariance must have shape ({dim}, {dim}), got {cov.shape}"
            )
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValidationError("state contains non-finite values")

    @classmethod
    def trusted(cls, mean: np.ndarray, cov: np.ndarray) -> "State":
        """A state from float64 arrays the caller has already checked as the
        constructor would; the checks are not run again."""
        state = object.__new__(cls)
        state.mean, state.cov = mean, cov
        return state

    def validate(self) -> None:
        """Check that the covariance is symmetric and positive semi-definite
        and that the box extents are positive."""
        cov = self.cov
        asym = float(np.max(np.abs(cov - cov.T)))
        if asym > 1e-9:
            raise ValidationError(f"covariance asymmetry {asym} exceeds 1e-9")
        min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (cov + cov.T))))
        if min_eig < -1e-9:
            raise ValidationError(f"covariance has eigenvalue {min_eig} < -1e-9")
        extents = self.mean[EXTENTS[len(self.mean)]]
        if np.any(extents <= 0):
            raise ValidationError(f"state extents must be positive, got {extents}")


def observation_2d(box: Box2D) -> np.ndarray:
    """Observed components (cx, cy, gamma, h) of a 2D box, gamma = w/h."""
    return np.array([box.cx, box.cy, box.w / box.h, box.h])


def observation_3d(box: Box3D) -> np.ndarray:
    """Observed components (cx, cy, cz, h, w, l, theta) of a 3D box."""
    return np.array([box.cx, box.cy, box.cz, box.h, box.w, box.l, box.theta])


def box2d_from_state(state: State) -> Box2D:
    """Reconstruct the box: w = gamma * h; cx, cy, h copied from the mean."""
    cx, cy, gamma, h = state.mean[:4]
    w = gamma * h
    if w <= 0 or h <= 0:
        raise DegenerateBoxError(f"state yields degenerate box (w={w}, h={h})")
    return Box2D(cx, cy, w, h)


def box3d_from_state(state: State) -> Box3D:
    cx, cy, cz, h, w, l, theta = state.mean[:7]
    if h <= 0 or w <= 0 or l <= 0:
        raise DegenerateBoxError(f"state yields degenerate box (h={h}, w={w}, l={l})")
    return Box3D(cx, cy, cz, h, w, l, theta)


@dataclass(eq=False)
class Track:
    """Identity-bearing track state.

    ``age_since_update`` is the number of frames since the last successful
    association; it is 0 exactly when the track was associated (or created)
    in the current frame.
    """

    track_id: int
    state: State
    class_label: ObjectClass
    score: float
    age_since_update: int = 0
    hits: int = 1
    gallery: deque = field(default_factory=deque)


@dataclass(frozen=True)
class ClassConfig:
    """Per-class tracking parameters.

    The 2D group (t_a, max_iou_dist_*, enlargement factors) is used in image
    space; the 3D group (sigma, max_center_dist) in world space. Defaults for
    each class live in :mod:`hmot.config`.
    """

    t_s: float
    # 2D
    t_a: float
    max_iou_dist_front: float
    max_iou_dist_front_lr: float
    max_iou_dist_side: float
    # 3D
    sigma: float
    max_center_dist: float
    # shared lifecycle
    a_max: int = 3
    min_hits: int = 1
    gallery_budget: int = 100
    enlarge_stage2: float = 2.0
    enlarge_stage3: float = 3.0
    # optional chi-square gating on the filter's innovation (off by default)
    mahalanobis_gating: bool = False

    def __post_init__(self):
        if not 0.0 < self.t_s <= 1.0:
            raise ValidationError(f"t_s must be in (0, 1], got {self.t_s}")
        if self.a_max < 1:
            raise ValidationError(f"a_max must be >= 1, got {self.a_max}")
        if self.min_hits < 1:
            raise ValidationError(f"min_hits must be >= 1, got {self.min_hits}")
        if self.gallery_budget < 1:
            raise ValidationError(f"gallery_budget must be >= 1, got {self.gallery_budget}")
        for name in ("t_a", "max_iou_dist_front", "max_iou_dist_front_lr",
                     "max_iou_dist_side", "max_center_dist"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValidationError(f"{name} must be in (0, 1], got {v}")
        if self.sigma <= 0:
            raise ValidationError(f"sigma must be positive, got {self.sigma}")
        if self.enlarge_stage2 < 1.0 or self.enlarge_stage3 < 1.0:
            raise ValidationError("enlargement factors must be >= 1")

    def max_iou_dist_for(self, camera: Camera) -> float:
        group = camera.group
        if group == "front":
            return self.max_iou_dist_front
        if group == "front_lr":
            return self.max_iou_dist_front_lr
        return self.max_iou_dist_side
