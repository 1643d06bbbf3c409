"""Shared domain types: boxes, detections, filter states, tracks, per-class config.

All types but ``Track`` are plain values. A ``Track`` reads and writes one
row of a store of track columns: the tracker's while the tracker holds it,
else a one-row store of its own. The store keeps each filter state as a
mean and a filter row of its covariance (:func:`pack_covs`); ``Track.state``
is a ``State`` built from them. Units: 2D quantities are pixels, 3D
quantities are meters/radians, velocities are per-frame.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DegenerateBoxError, ValidationError

EMBEDDING_NORM_TOL = 1e-6

# The largest accepted a_max. A track misses every frame of a gap in the
# frame numbers, so it is gone after at most a_max + 1 of them. 1000 frames
# are five 20 s Waymo segments at 10 Hz.
A_MAX_LIMIT = 1000

# The largest accepted 2D box extent w or h, and centre |cx| or |cy|, in
# pixels, far beyond any camera; ``hmot.kalman.NOISE_LIMIT`` says why it
# keeps the filter finite. Within it a box's corners stay apart from its
# centre, so its area and IoU are those of its extents.
BOX2D_EXTENT_LIMIT = 1e6

# The largest accepted box enlargement of stages 2 and 3; an enlarged box's
# area stays far inside the float range for any extent the filter reaches.
ENLARGE_LIMIT = 100.0


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
    # The remainder lies in [0, 2*pi], so only pi itself is out of range.
    if wrapped >= math.pi:
        wrapped -= 2.0 * math.pi
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
        if isinstance(self.box, Box2D):
            if self.camera_id is None:
                raise ValidationError("2D detections require a camera_id")
            if not math.isfinite(self.box.w / self.box.h):  # the filter observes w / h
                raise ValidationError(
                    f"2D box aspect w/h must be finite, got w={self.box.w}, h={self.box.h}")
            if max(self.box.w, self.box.h) > BOX2D_EXTENT_LIMIT:
                raise ValidationError(f"2D box extents must be <= {BOX2D_EXTENT_LIMIT:g}, "
                                      f"got w={self.box.w}, h={self.box.h}")
            if max(abs(self.box.cx), abs(self.box.cy)) > BOX2D_EXTENT_LIMIT:
                raise ValidationError(f"2D box centre must be within +-{BOX2D_EXTENT_LIMIT:g}, "
                                      f"got cx={self.box.cx}, cy={self.box.cy}")
        elif self.camera_id is not None:
            raise ValidationError("3D detections must not carry a camera_id")
        if self.embedding is not None:
            emb = np.ascontiguousarray(self.embedding, dtype=np.float64)
            if emb.ndim != 1:
                raise ValidationError(f"embedding must be 1-D, got shape {emb.shape}")
            if not np.all(np.isfinite(emb)):
                raise ValidationError("embedding contains non-finite values")
            # A unit vector has no entry above 1; a larger one could
            # overflow the norm.
            big = float(np.max(np.abs(emb), initial=0.0))
            if big > 1.0 + EMBEDDING_NORM_TOL:
                raise ValidationError(f"embedding must be unit-norm, got an entry of size {big}")
            norm = math.sqrt(emb @ emb)
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

# The observed size k of each state layout, keyed by state size d: observed
# component i < d - k is a position, whose velocity is component k + i.
DIM_OBS = {DIM_STATE_2D: DIM_OBS_2D, DIM_STATE_3D: DIM_OBS_3D}


@dataclass(eq=False)
class State:
    """Kalman state of a track: mean (8,) with covariance (8, 8) in 2D, mean
    (10,) with covariance (10, 10) in 3D. Every entry is finite. Each
    message of the constructor begins with "state"."""

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
        """Check that the covariance has the filter's pattern
        (:func:`pack_covs`) and is positive semi-definite, and that the box
        extents are positive."""
        d, row = len(self.mean), pack_covs(self.cov[None])[0]
        p, v, c = row[:d - DIM_OBS[d]], row[DIM_OBS[d]:d], row[d:]
        # The least eigenvalue of a (position, velocity) block is at most its
        # variances, so this is the least eigenvalue of the covariance.
        least = min(row[:d].min(), (0.5 * ((p + v) - np.hypot(p - v, 2.0 * c))).min())
        if least < -1e-9:
            raise ValidationError(f"covariance has eigenvalue {least} < -1e-9")
        extents = self.mean[EXTENTS[d]]
        if np.any(extents <= 0):
            raise ValidationError(f"state extents must be positive, got {extents}")


def unpack_covs(rows: np.ndarray) -> np.ndarray:
    """The covariances (N, d, d) of filter rows (N, 2d - k)."""
    d = {2 * d - k: d for d, k in DIM_OBS.items()}[rows.shape[1]]
    k = DIM_OBS[d]
    covs = np.zeros((len(rows), d, d))
    flat = covs.reshape(len(rows), d * d)  # P[i, j] is entry i * d + j
    flat[:, ::d + 1] = rows[:, :d]
    flat[:, k::d + 1][:, :d - k] = flat[:, k * d::d + 1][:, :d - k] = rows[:, d:]
    return covs


def pack_covs(covs: np.ndarray) -> np.ndarray:
    """The filter rows (N, 2d - k) of covariances (N, d, d): the d variances,
    then the d - k position-velocity terms P[i, k + i], the only other
    entries a filter covariance has. A covariance with another nonzero, or
    with P[k + i, i] != P[i, k + i], is a ``ValidationError``."""
    d = covs.shape[-1]
    k = DIM_OBS[d]
    flat = covs.reshape(len(covs), d * d)
    rows = np.concatenate((flat[:, ::d + 1], flat[:, k::d + 1][:, :d - k]), axis=1)
    if not np.array_equal(unpack_covs(rows), covs, equal_nan=True):
        raise ValidationError("state covariance must be zero off its diagonal but for "
                              "the position-velocity terms, each symmetric")
    return rows


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


def _checked(name: str, value, domain: range | type):
    """``value`` as a number of ``domain``, never from a bool: of a range,
    an int that ``operator.index`` takes within it; of ``float``, a finite
    real."""
    try:
        if domain is float:
            number = float(value) if isinstance(value, numbers.Real) else math.nan
            valid = math.isfinite(number)
        else:
            number = operator.index(value)
            valid = number in domain
    except (TypeError, OverflowError):
        valid = False
    if valid and not isinstance(value, bool):
        return number
    what = ("a finite real number" if domain is float
            else f"an integer in {domain.start}..{domain.stop - 1}")
    raise ValidationError(f"Track.{name} must be {what}, got {value!r}")


class _Store:
    """Tracks as columns, named by the first slots, row i of each belonging
    to one track: ``ids``, ``ages`` since update, ``hits``, ``scores``,
    ``means`` (N, d), the filter rows ``covs`` of the covariances
    (:func:`pack_covs`) and ``galleries``, an object array of each track's
    gallery entry, None while it is empty.
    ``gen`` counts the times they were replaced; a :class:`Track` looks up
    its row with ``row_of`` once each time. The store holds no track, so a
    track can refer to it without a reference cycle."""

    __slots__ = ("ids", "ages", "hits", "scores", "means", "covs", "galleries", "gen", "_rows")

    def __init__(self, *columns: np.ndarray):
        self.gen = -1
        self.replace(*columns)

    def replace(self, ids: np.ndarray, ages: np.ndarray, hits: np.ndarray, scores: np.ndarray,
                means: np.ndarray, covs: np.ndarray, galleries: np.ndarray) -> None:
        self.ids, self.ages, self.hits, self.scores, self.means, self.covs, self.galleries = (
            ids, ages, hits, scores, means, covs, galleries)
        self.gen, self._rows = self.gen + 1, None

    @classmethod
    def one(cls, track_id: int, age: int, hits: int, score: float, mean: np.ndarray,
            cov: np.ndarray, entry=None) -> "_Store":
        """A store of one row: these values, copies of ``mean`` and of the
        filter row ``cov``, and the gallery entry ``entry``."""
        return cls(np.array([track_id]), np.array([age]), np.array([hits]), np.array([score]),
                   mean[None].copy(), cov[None].copy(), np.array([entry], dtype=object))

    def row_of(self, track_id: int) -> int:
        if self._rows is None:
            self._rows = dict(zip(self.ids.tolist(), range(len(self.ids))))
        return self._rows[track_id]


# The domains of a track's counts. Bounded so that a step's age + 1 and
# hits + 1 stay within int64: any age above A_MAX_LIMIT is past every a_max.
_AGES, _HITS = range(A_MAX_LIMIT + 2), range(2**62 + 1)


def _column(name: str, column: str, domain: range | type) -> property:
    """The ``Track`` field ``name``, kept in the store column ``column``. A
    write that :func:`_checked` rejects raises and changes nothing."""
    kind = float if domain is float else int

    def get(track: "Track"):
        return kind(getattr(track._store, column)[track._at()])

    def set_(track: "Track", value) -> None:
        value = _checked(name, value, domain)
        getattr(track._store, column)[track._at()] = value

    return property(get, set_)


def _state_row(state, dim: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The mean and filter row of ``state``, a ``State`` (of ``dim``
    entries, if given); anything else is a ValidationError naming it."""
    if not isinstance(state, State):
        raise ValidationError(f"Track.state must be a State, got {type(state).__name__}")
    try:
        state = State(state.mean, state.cov)  # its arrays may have been edited since
        if dim not in (None, len(state.mean)):
            raise ValidationError(f"state must have {dim} entries, got {len(state.mean)}")
        return state.mean, pack_covs(state.cov[None])[0]
    except ValidationError as exc:
        raise ValidationError(f"Track.{exc}") from None


class Track:
    """Identity-bearing track state.

    ``age_since_update`` is the number of frames since the last successful
    association; it is 0 exactly when the track was associated (or created)
    in the current frame. ``gallery`` is a float64 matrix of the track's last
    ``gallery_budget`` embeddings, oldest row first; only 2D re-id fills it.

    ``age_since_update``, ``hits``, ``score`` and ``state`` read and write
    the track's row of a store: the tracker's while it holds the track,
    else a one-row store of the track's own. ``state`` is a snapshot of the
    row, a new ``State`` at each read; a ``State`` assigned to it is written
    to the row, so the next step filters it. A track built directly owns a
    copy of its ``State``; a track the tracker deletes owns a copy of its
    row, with the values it had then.
    """

    __slots__ = ("track_id", "class_label", "gallery", "_store", "_gen", "_row")

    def __init__(self, track_id: int, state: State, class_label: ObjectClass, score: float,
                 age_since_update: int = 0, hits: int = 1, gallery: np.ndarray | None = None):
        mean, cov = _state_row(state)
        self.track_id, self.class_label = track_id, class_label
        self.gallery = np.empty((0, 0)) if gallery is None else gallery
        self._attach(_Store.one(track_id, _checked("age_since_update", age_since_update, _AGES),
                                _checked("hits", hits, _HITS), _checked("score", score, float),
                                mean, cov), 0)

    age_since_update = _column("age_since_update", "ages", _AGES)
    hits = _column("hits", "hits", _HITS)
    score = _column("score", "scores", float)

    @property
    def state(self) -> State:
        row, store = self._at(), self._store
        return State.trusted(store.means[row].copy(), unpack_covs(store.covs[row:row + 1])[0])

    @state.setter
    def state(self, state: State) -> None:
        store = self._store
        mean, cov = _state_row(state, store.means.shape[1])
        row = self._at()
        store.means[row], store.covs[row] = mean, cov

    def _at(self) -> int:
        """The track's row of its store, looked up once a step."""
        store = self._store
        if self._gen != store.gen:
            self._gen, self._row = store.gen, store.row_of(self.track_id)
        return self._row

    def _attach(self, store: _Store, row: int | None = None) -> None:
        """Let ``store`` hold the track from now on, at ``row`` if given,
        else at the row of its id."""
        self._store, self._row = store, row
        self._gen = None if row is None else store.gen


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
        for name in ("a_max", "min_hits", "gallery_budget"):
            v = getattr(self, name)
            # Counts are integers (what operator.index takes), never bools.
            if isinstance(v, bool) or not hasattr(type(v), "__index__") or v < 1:
                raise ValidationError(f"{name} must be >= 1 and an integer, got {v!r}")
        if self.a_max > A_MAX_LIMIT:
            raise ValidationError(f"a_max must be <= {A_MAX_LIMIT}, got {self.a_max!r}")
        for name in ("t_a", "max_iou_dist_front", "max_iou_dist_front_lr",
                     "max_iou_dist_side", "max_center_dist"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValidationError(f"{name} must be in (0, 1], got {v}")
        # The kernel divides by 2 sigma^2, which must be a positive normal float.
        if not (self.sigma > 0 and sys.float_info.min <= 2.0 * self.sigma * self.sigma < math.inf):
            raise ValidationError(
                f"sigma must be positive with 2 sigma^2 a normal float, got {self.sigma}")
        for name in ("enlarge_stage2", "enlarge_stage3"):
            v = getattr(self, name)
            if not 1.0 <= v <= ENLARGE_LIMIT:
                raise ValidationError(
                    f"enlargement factors must be in [1, {ENLARGE_LIMIT:g}], got {name}={v}")

    def max_iou_dist_for(self, camera: Camera) -> float:
        return getattr(self, f"max_iou_dist_{camera.group}")
