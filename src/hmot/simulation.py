"""Synthetic ground truth and corrupted detections for desk-scale testing.

A scenario is a fully explicit script: every object has an initial box, a
per-frame velocity, and optional scripted events (velocity reversals, full
occlusion windows, weak-score windows). ``generate`` integrates the exact
trajectories, then derives detections by adding Gaussian box noise, dropping
occluded/dropped-out frames, sampling scores, attaching per-object appearance
embeddings, and injecting uniform clutter boxes with low scores.

Given the same spec (seed included) the output is reproducible down to the
byte once serialized. Named presets cover the standard test scenes: two
clean scenes, an occlusion-heavy scene, and a pedestrian crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Mapping, Sequence

import numpy as np

from .config import coerce_scalar
from .errors import ConfigError, ValidationError
from .evaluation import FrameObject, GroundTruthFrame
from .types import Box2D, Box3D, Camera, Detection, Mode, ObjectClass, normalize_heading

IMAGE_W = 1920.0
IMAGE_H = 1280.0


@dataclass(frozen=True)
class ObjectSpec:
    """One scripted object.

    ``init`` is the full starting box: (cx, cy, w, h) in 2D or
    (cx, cy, cz, h, w, l, theta) in 3D. ``velocity`` covers the position
    components only (2 values in 2D, 3 in 3D); sizes stay constant.
    ``turn_rate`` (3D) rotates both the heading and the ground-plane
    velocity by the given angle per frame.
    """

    obj_id: int
    class_label: ObjectClass
    init: tuple[float, ...]
    velocity: tuple[float, ...]
    turn_rate: float = 0.0

    def __post_init__(self):
        if not isinstance(self.class_label, ObjectClass):
            object.__setattr__(self, "class_label", ObjectClass(self.class_label))
        object.__setattr__(self, "init", tuple(float(v) for v in self.init))
        object.__setattr__(self, "velocity", tuple(float(v) for v in self.velocity))


@dataclass(frozen=True)
class Window:
    """A closed-open frame interval [start, start + length) tied to an object."""

    obj_id: int
    start: int
    length: int

    def covers(self, obj_id: int, frame: int) -> bool:
        return obj_id == self.obj_id and self.start <= frame < self.start + self.length


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete recipe for one synthetic sequence."""

    mode: Mode
    n_frames: int
    objects: tuple[ObjectSpec, ...]
    sequence_id: str = "sim"
    camera: Camera | None = Camera.FRONT
    center_noise_std: float = 0.0
    size_noise_std: float = 0.0
    heading_noise_std: float = 0.0
    dropout_prob: float = 0.0
    occlusions: tuple[Window, ...] = ()
    weak_windows: tuple[Window, ...] = ()
    reversals: tuple[tuple[int, int], ...] = ()
    fp_rate: float = 0.0
    tp_score_range: tuple[float, float] = (0.8, 0.95)
    weak_score_range: tuple[float, float] = (0.3, 0.42)
    fp_score_range: tuple[float, float] = (0.1, 0.45)
    embed_dim: int = 512
    embed_noise_std: float = 0.01
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mode", Mode(self.mode))
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "occlusions", tuple(self.occlusions))
        object.__setattr__(self, "weak_windows", tuple(self.weak_windows))
        object.__setattr__(
            self, "reversals", tuple((int(i), int(f)) for i, f in self.reversals)
        )
        if self.camera is not None and not isinstance(self.camera, Camera):
            object.__setattr__(self, "camera", Camera(self.camera))
        if self.mode is Mode.D2 and self.camera is None:
            raise ValidationError("2D scenarios need a camera")
        if self.n_frames < 1:
            raise ValidationError(f"n_frames must be >= 1, got {self.n_frames}")
        ids = [o.obj_id for o in self.objects]
        if len(ids) != len(set(ids)):
            raise ValidationError("object ids must be unique")
        pos_dims = 2 if self.mode is Mode.D2 else 3
        box_dims = 4 if self.mode is Mode.D2 else 7
        for obj in self.objects:
            if len(obj.init) != box_dims:
                raise ValidationError(
                    f"object {obj.obj_id}: init needs {box_dims} values, got {len(obj.init)}"
                )
            if len(obj.velocity) != pos_dims:
                raise ValidationError(
                    f"object {obj.obj_id}: velocity needs {pos_dims} values, "
                    f"got {len(obj.velocity)}"
                )
        for name in ("dropout_prob", "fp_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {v}")
        for name in ("center_noise_std", "size_noise_std", "heading_noise_std",
                     "embed_noise_std"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        for name in ("tp_score_range", "weak_score_range", "fp_score_range"):
            lo, hi = getattr(self, name)
            if not (0.0 <= lo <= hi <= 1.0):
                raise ValidationError(f"{name} must satisfy 0 <= lo <= hi <= 1")
            object.__setattr__(self, name, (float(lo), float(hi)))
        if self.embed_dim < 0:
            raise ValidationError("embed_dim must be >= 0")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


def _trajectories(spec: ScenarioSpec) -> dict[int, list]:
    """Exact per-frame boxes for every object (no noise)."""
    reversal_set = set(spec.reversals)
    out: dict[int, list] = {}
    for obj in spec.objects:
        boxes = []
        if spec.mode is Mode.D2:
            cx, cy, w, h = obj.init
            vx, vy = obj.velocity
            for t in range(spec.n_frames):
                if t > 0:
                    if (obj.obj_id, t) in reversal_set:
                        vx, vy = -vx, -vy
                    cx += vx
                    cy += vy
                boxes.append(Box2D(cx, cy, w, h))
        else:
            cx, cy, cz, h, w, l, theta = obj.init
            vx, vy, vz = obj.velocity
            for t in range(spec.n_frames):
                if t > 0:
                    if (obj.obj_id, t) in reversal_set:
                        vx, vy, vz = -vx, -vy, -vz
                    if obj.turn_rate:
                        c, s = math.cos(obj.turn_rate), math.sin(obj.turn_rate)
                        vx, vy = c * vx - s * vy, s * vx + c * vy
                        theta = normalize_heading(theta + obj.turn_rate)
                    cx += vx
                    cy += vy
                    cz += vz
                boxes.append(Box3D(cx, cy, cz, h, w, l, theta))
        out[obj.obj_id] = boxes
    return out


def _unit(vec: np.ndarray) -> np.ndarray:
    return vec / np.linalg.norm(vec)


def generate(
    spec: ScenarioSpec,
) -> tuple[list[GroundTruthFrame], list[list[Detection]]]:
    """Produce the exact ground truth and the corrupted detection stream."""
    rng = np.random.default_rng(spec.seed)
    trajectories = _trajectories(spec)
    anchors: dict[int, np.ndarray] = {}
    if spec.embed_dim > 0:
        for obj in spec.objects:
            anchors[obj.obj_id] = _unit(rng.normal(size=spec.embed_dim))
    class_pool = sorted({o.class_label for o in spec.objects}, key=lambda c: c.value)

    gt_frames: list[GroundTruthFrame] = []
    det_frames: list[list[Detection]] = []
    for t in range(spec.n_frames):
        gt_objects = tuple(
            FrameObject(obj.obj_id, trajectories[obj.obj_id][t], obj.class_label)
            for obj in spec.objects
        )
        gt_frames.append(GroundTruthFrame(t, gt_objects))

        dets: list[Detection] = []
        for obj in spec.objects:
            if any(w.covers(obj.obj_id, t) for w in spec.occlusions):
                continue
            if spec.dropout_prob > 0 and rng.random() < spec.dropout_prob:
                continue
            box = trajectories[obj.obj_id][t]
            if spec.mode is Mode.D2:
                noisy = Box2D(
                    box.cx + rng.normal(0.0, spec.center_noise_std),
                    box.cy + rng.normal(0.0, spec.center_noise_std),
                    max(2.0, box.w + rng.normal(0.0, spec.size_noise_std)),
                    max(2.0, box.h + rng.normal(0.0, spec.size_noise_std)),
                )
            else:
                noisy = Box3D(
                    box.cx + rng.normal(0.0, spec.center_noise_std),
                    box.cy + rng.normal(0.0, spec.center_noise_std),
                    box.cz + rng.normal(0.0, spec.center_noise_std),
                    max(0.1, box.h + rng.normal(0.0, spec.size_noise_std)),
                    max(0.1, box.w + rng.normal(0.0, spec.size_noise_std)),
                    max(0.1, box.l + rng.normal(0.0, spec.size_noise_std)),
                    normalize_heading(box.theta + rng.normal(0.0, spec.heading_noise_std)),
                )
            weak = any(w.covers(obj.obj_id, t) for w in spec.weak_windows)
            lo, hi = spec.weak_score_range if weak else spec.tp_score_range
            score = float(rng.uniform(lo, hi))
            embedding = None
            if spec.embed_dim > 0:
                embedding = _unit(
                    anchors[obj.obj_id]
                    + rng.normal(0.0, spec.embed_noise_std, spec.embed_dim)
                )
            dets.append(
                Detection(
                    box=noisy,
                    score=score,
                    class_label=obj.class_label,
                    camera_id=spec.camera if spec.mode is Mode.D2 else None,
                    embedding=embedding,
                    src_gt=obj.obj_id,
                )
            )

        if spec.fp_rate > 0 and rng.random() < spec.fp_rate and class_pool:
            cls = class_pool[int(rng.integers(len(class_pool)))]
            if spec.mode is Mode.D2:
                fp_box: Box2D | Box3D = Box2D(
                    float(rng.uniform(120.0, IMAGE_W - 120.0)),
                    float(rng.uniform(140.0, IMAGE_H - 140.0)),
                    float(rng.uniform(40.0, 200.0)),
                    float(rng.uniform(60.0, 260.0)),
                )
            else:
                fp_box = Box3D(
                    float(rng.uniform(-80.0, 80.0)),
                    float(rng.uniform(-80.0, 80.0)),
                    float(rng.uniform(0.5, 2.0)),
                    float(rng.uniform(1.2, 2.0)),
                    float(rng.uniform(0.5, 2.2)),
                    float(rng.uniform(0.8, 5.0)),
                    float(rng.uniform(-math.pi, math.pi)),
                )
            lo, hi = spec.fp_score_range
            embedding = None
            if spec.embed_dim > 0:
                embedding = _unit(rng.normal(size=spec.embed_dim))
            dets.append(
                Detection(
                    box=fp_box,
                    score=float(rng.uniform(lo, hi)),
                    class_label=cls,
                    camera_id=spec.camera if spec.mode is Mode.D2 else None,
                    embedding=embedding,
                    src_gt=None,
                )
            )
        det_frames.append(dets)
    return gt_frames, det_frames


# ---------------------------------------------------------------------------
# Named presets


def _clean_2d(seed: int) -> ScenarioSpec:
    rng = np.random.default_rng(seed)
    sizes = {
        ObjectClass.VEHICLE: ((140.0, 220.0), (90.0, 130.0)),
        ObjectClass.PEDESTRIAN: ((45.0, 65.0), (140.0, 190.0)),
        ObjectClass.CYCLIST: ((60.0, 90.0), (120.0, 160.0)),
    }
    labels = (
        [ObjectClass.VEHICLE] * 8
        + [ObjectClass.PEDESTRIAN] * 8
        + [ObjectClass.CYCLIST] * 4
    )
    objects = []
    for i, label in enumerate(labels):
        col, row = i % 5, i // 5
        cx = 290.0 + 340.0 * col + float(rng.uniform(-50.0, 50.0))
        cy = 250.0 + 260.0 * row + float(rng.uniform(-40.0, 40.0))
        (w_lo, w_hi), (h_lo, h_hi) = sizes[label]
        objects.append(
            ObjectSpec(
                obj_id=i + 1,
                class_label=label,
                init=(cx, cy, float(rng.uniform(w_lo, w_hi)), float(rng.uniform(h_lo, h_hi))),
                velocity=(float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-1.5, 1.5))),
            )
        )
    return ScenarioSpec(
        mode=Mode.D2,
        sequence_id=f"clean2d-{seed}",
        n_frames=100,
        objects=tuple(objects),
        tp_score_range=(0.75, 0.95),
        embed_dim=512,
        embed_noise_std=0.0,
        seed=seed,
    )


def _clean_3d(seed: int) -> ScenarioSpec:
    rng = np.random.default_rng(seed)
    objects = []
    specs = (
        [(ObjectClass.VEHICLE, (0.3, 0.9), (1.4, 1.9), (1.8, 2.2), (4.0, 5.2))] * 12
        + [(ObjectClass.PEDESTRIAN, (0.05, 0.2), (1.6, 1.9), (0.5, 0.8), (0.6, 0.9))] * 6
        + [(ObjectClass.CYCLIST, (0.2, 0.5), (1.5, 1.8), (0.5, 0.8), (1.6, 2.0))] * 2
    )
    for i, (label, speed, h_rng, w_rng, l_rng) in enumerate(specs):
        col, row = i % 5, i // 5
        cx = -80.0 + 40.0 * col + float(rng.uniform(-6.0, 6.0))
        cy = -60.0 + 40.0 * row + float(rng.uniform(-6.0, 6.0))
        heading = float(rng.uniform(-math.pi, math.pi))
        v = float(rng.uniform(*speed))
        objects.append(
            ObjectSpec(
                obj_id=i + 1,
                class_label=label,
                init=(
                    cx,
                    cy,
                    float(rng.uniform(0.6, 1.2)),
                    float(rng.uniform(*h_rng)),
                    float(rng.uniform(*w_rng)),
                    float(rng.uniform(*l_rng)),
                    heading,
                ),
                velocity=(v * math.cos(heading), v * math.sin(heading), 0.0),
            )
        )
    return ScenarioSpec(
        mode=Mode.D3,
        sequence_id=f"clean3d-{seed}",
        n_frames=100,
        objects=tuple(objects),
        camera=None,
        tp_score_range=(0.75, 0.95),
        embed_dim=0,
        seed=seed,
    )


def _pedestrian(rng: np.random.Generator, obj_id: int, cx: float, cy: float,
                vx: float, vy: float = 0.0) -> ObjectSpec:
    return ObjectSpec(
        obj_id=obj_id,
        class_label=ObjectClass.PEDESTRIAN,
        init=(cx, cy, float(rng.uniform(50.0, 62.0)), float(rng.uniform(160.0, 180.0))),
        velocity=(vx, vy),
    )


def _occlusion(seed: int) -> ScenarioSpec:
    """Occlusion-heavy pedestrian scene.

    Three pairs approach head-on, disappear for two frames while both
    members reverse direction, and reappear displaced from any straight-line
    extrapolation; appearance is then the only reliable way to keep their
    identities. Six further objects go through a three-frame window of weak
    detection scores that only the secondary-set association can use. The
    rest is well-separated background plus uniform clutter.
    """
    rng = np.random.default_rng(seed)
    objects: list[ObjectSpec] = []
    occlusions: list[Window] = []
    weak_windows: list[Window] = []
    reversals: list[tuple[int, int]] = []

    meet_frames = (34, 46, 58)
    for p, meet in enumerate(meet_frames):
        lane = 260.0 + 250.0 * p + float(rng.uniform(-15.0, 15.0))
        a_id, b_id = 2 * p + 1, 2 * p + 2
        objects.append(_pedestrian(rng, a_id, 960.0 - 8.0 * meet, lane, 8.0))
        objects.append(_pedestrian(rng, b_id, 960.0 + 8.0 * meet, lane, -8.0))
        occlusions += [Window(a_id, meet - 1, 2), Window(b_id, meet - 1, 2)]
        reversals += [(a_id, meet), (b_id, meet)]

    for k in range(6):
        obj_id = 7 + k
        cx = 230.0 + 290.0 * k + float(rng.uniform(-30.0, 30.0))
        objects.append(
            _pedestrian(rng, obj_id, cx, 1010.0 + float(rng.uniform(-15.0, 15.0)),
                        float(rng.uniform(-1.5, 1.5)))
        )
        weak_windows.append(Window(obj_id, 60 + 3 * k, 3))

    for k in range(8):
        cx = 170.0 + 228.0 * k + float(rng.uniform(-30.0, 30.0))
        objects.append(
            _pedestrian(rng, 13 + k, cx, 105.0 + float(rng.uniform(-15.0, 15.0)),
                        float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-0.5, 0.5)))
        )

    return ScenarioSpec(
        mode=Mode.D2,
        sequence_id=f"occlusion-{seed}",
        n_frames=100,
        objects=tuple(objects),
        center_noise_std=1.5,
        size_noise_std=1.0,
        occlusions=tuple(occlusions),
        weak_windows=tuple(weak_windows),
        reversals=tuple(reversals),
        fp_rate=0.3,
        tp_score_range=(0.75, 0.95),
        weak_score_range=(0.3, 0.42),
        fp_score_range=(0.1, 0.45),
        embed_dim=512,
        embed_noise_std=0.01,
        seed=seed,
    )


def _crossing(seed: int) -> ScenarioSpec:
    """Two pedestrians on diagonally crossing paths.

    They meet at the image center at frame 30, are mutually occluded for two
    frames, and both back off the way they came. Each reappears almost
    exactly where straight-line extrapolation places the *other* one, so
    geometric matching swaps them while appearance matching does not.
    """
    rng = np.random.default_rng(seed)
    objects = (
        _pedestrian(rng, 1, 960.0 - 3.0 * 30, 640.0 - 8.0 * 30, 3.0, 8.0),
        _pedestrian(rng, 2, 960.0 + 3.0 * 30, 640.0 + 8.0 * 30, -3.0, -8.0),
    )
    return ScenarioSpec(
        mode=Mode.D2,
        sequence_id=f"crossing-{seed}",
        n_frames=60,
        objects=objects,
        center_noise_std=1.0,
        size_noise_std=0.5,
        occlusions=(Window(1, 30, 2), Window(2, 30, 2)),
        reversals=((1, 31), (2, 31)),
        tp_score_range=(0.75, 0.95),
        embed_dim=512,
        embed_noise_std=0.01,
        seed=seed,
    )


PRESETS = {
    "clean-2d": _clean_2d,
    "clean-3d": _clean_3d,
    "occlusion": _occlusion,
    "crossing": _crossing,
}


def preset(name: str, seed: int = 0) -> ScenarioSpec:
    """Build a named preset scenario for the given seed."""
    try:
        factory = PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {name!r} (known: {known})") from None
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return factory(seed)


# ---------------------------------------------------------------------------
# JSON scenario schema


_SCALAR_FIELDS = {
    "sequence_id": str,
    "n_frames": int,
    "center_noise_std": float,
    "size_noise_std": float,
    "heading_noise_std": float,
    "dropout_prob": float,
    "fp_rate": float,
    "embed_dim": int,
    "embed_noise_std": float,
    "seed": int,
}
_RANGE_FIELDS = ("tp_score_range", "weak_score_range", "fp_score_range")
_SPEC_KEYS = {f.name for f in dataclass_fields(ScenarioSpec)}


def parse_scenario(data: Mapping[str, Any]) -> ScenarioSpec:
    """Decode a JSON scenario document, reporting errors with field paths."""
    if not isinstance(data, Mapping):
        raise ConfigError("spec: expected a JSON object")
    for key in data:
        if key not in _SPEC_KEYS:
            raise ConfigError(f"spec: unknown key {key!r}")
    if "mode" not in data:
        raise ConfigError("spec.mode: required")
    try:
        mode = Mode(data["mode"])
    except ValueError:
        raise ConfigError(f"spec.mode: expected '2d' or '3d', got {data['mode']!r}") from None

    kwargs: dict[str, Any] = {"mode": mode}
    for name, kind in _SCALAR_FIELDS.items():
        if name not in data:
            continue
        if kind is str:
            if not isinstance(data[name], str):
                raise ConfigError(f"spec.{name}: expected a string")
            kwargs[name] = data[name]
        else:
            kwargs[name] = coerce_scalar(data[name], f"spec.{name}", kind)
    for name in _RANGE_FIELDS:
        if name in data:
            pair = data[name]
            if not isinstance(pair, Sequence) or len(pair) != 2:
                raise ConfigError(f"spec.{name}: expected [lo, hi]")
            kwargs[name] = (
                coerce_scalar(pair[0], f"spec.{name}[0]"),
                coerce_scalar(pair[1], f"spec.{name}[1]"),
            )
    if "camera" in data:
        if data["camera"] is None:
            kwargs["camera"] = None
        else:
            try:
                kwargs["camera"] = Camera(data["camera"])
            except ValueError:
                raise ConfigError(f"spec.camera: unknown camera {data['camera']!r}") from None

    objects = data.get("objects", [])
    if not isinstance(objects, Sequence) or isinstance(objects, str):
        raise ConfigError("spec.objects: expected a list")
    parsed_objects = []
    for i, entry in enumerate(objects):
        path = f"spec.objects[{i}]"
        if not isinstance(entry, Mapping):
            raise ConfigError(f"{path}: expected an object")
        for key in entry:
            if key not in ("obj_id", "class", "init", "velocity", "turn_rate"):
                raise ConfigError(f"{path}: unknown key {key!r}")
        for required in ("obj_id", "class", "init", "velocity"):
            if required not in entry:
                raise ConfigError(f"{path}.{required}: required")
        try:
            label = ObjectClass(entry["class"])
        except ValueError:
            raise ConfigError(f"{path}.class: unknown class {entry['class']!r}") from None
        for seq_key in ("init", "velocity"):
            if not isinstance(entry[seq_key], Sequence) or isinstance(entry[seq_key], str):
                raise ConfigError(f"{path}.{seq_key}: expected a list of numbers")
        try:
            parsed_objects.append(
                ObjectSpec(
                    obj_id=coerce_scalar(entry["obj_id"], f"{path}.obj_id", int),
                    class_label=label,
                    init=tuple(
                        coerce_scalar(v, f"{path}.init[{j}]")
                        for j, v in enumerate(entry["init"])
                    ),
                    velocity=tuple(
                        coerce_scalar(v, f"{path}.velocity[{j}]")
                        for j, v in enumerate(entry["velocity"])
                    ),
                    turn_rate=coerce_scalar(entry.get("turn_rate", 0.0), f"{path}.turn_rate"),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    kwargs["objects"] = tuple(parsed_objects)

    for name in ("occlusions", "weak_windows"):
        if name not in data:
            continue
        entries = data[name]
        if not isinstance(entries, Sequence) or isinstance(entries, str):
            raise ConfigError(f"spec.{name}: expected a list of [obj_id, start, length]")
        windows = []
        for i, entry in enumerate(entries):
            path = f"spec.{name}[{i}]"
            if not isinstance(entry, Sequence) or len(entry) != 3:
                raise ConfigError(f"{path}: expected [obj_id, start, length]")
            windows.append(
                Window(*(coerce_scalar(v, f"{path}[{j}]", int) for j, v in enumerate(entry)))
            )
        kwargs[name] = tuple(windows)
    if "reversals" in data:
        entries = data["reversals"]
        if not isinstance(entries, Sequence) or isinstance(entries, str):
            raise ConfigError("spec.reversals: expected a list of [obj_id, frame]")
        revs = []
        for i, entry in enumerate(entries):
            path = f"spec.reversals[{i}]"
            if not isinstance(entry, Sequence) or len(entry) != 2:
                raise ConfigError(f"{path}: expected [obj_id, frame]")
            revs.append(tuple(coerce_scalar(v, f"{path}[{j}]", int) for j, v in enumerate(entry)))
        kwargs["reversals"] = tuple(revs)

    try:
        return ScenarioSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"spec: {exc}") from None
