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
from operator import attrgetter
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .config import coerce_scalar, scalar_fields
from .errors import ConfigError, ValidationError
from .types import (Box2D, Box3D, Camera, Detection, FrameObject, GroundTruthFrame, Mode,
                    ObjectClass, normalize_heading)

IMAGE_W = 1920.0
IMAGE_H = 1280.0

# The box kind of each mode and one row per box field, in field order: the
# spec attribute holding the field's detection noise std, the floor a noisy
# value is clipped to (sizes only; -inf elsewhere) and the uniform range
# clutter boxes draw it from. Position fields come first and are the ones
# that move.
_LAYOUTS = {
    Mode.D2: (Box2D, (
        ("center_noise_std", -math.inf, (120.0, IMAGE_W - 120.0)),
        ("center_noise_std", -math.inf, (140.0, IMAGE_H - 140.0)),
        ("size_noise_std", 2.0, (40.0, 200.0)),
        ("size_noise_std", 2.0, (60.0, 260.0)),
    )),
    Mode.D3: (Box3D, (
        ("center_noise_std", -math.inf, (-80.0, 80.0)),
        ("center_noise_std", -math.inf, (-80.0, 80.0)),
        ("center_noise_std", -math.inf, (0.5, 2.0)),
        ("size_noise_std", 0.1, (1.2, 2.0)),
        ("size_noise_std", 0.1, (0.5, 2.2)),
        ("size_noise_std", 0.1, (0.8, 5.0)),
        ("heading_noise_std", -math.inf, (-math.pi, math.pi)),
    )),
}


@dataclass(frozen=True)
class ObjectSpec:
    """One scripted object.

    ``init`` is the full starting box in box-field order: (cx, cy, w, h) in
    2D or (cx, cy, cz, h, w, l, theta) in 3D. ``velocity`` covers the
    position components only (2 values in 2D, 3 in 3D); sizes stay constant.
    ``turn_rate`` (3D only) rotates both the heading and the ground-plane
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
        for name, values in (("init", self.init), ("velocity", self.velocity),
                             ("turn_rate", (self.turn_rate,))):
            if not all(map(math.isfinite, values)):
                raise ValidationError(f"object {self.obj_id}: {name} must be finite, "
                                      f"got {getattr(self, name)}")


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
    """Complete recipe for one synthetic sequence; 3D scenes keep no camera."""

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
        object.__setattr__(self, "reversals", tuple((i, f) for i, f in self.reversals))
        camera = None if self.camera is None else Camera(self.camera)
        object.__setattr__(self, "camera", camera if self.mode is Mode.D2 else None)
        if self.mode is Mode.D2 and self.camera is None:
            raise ValidationError("2D scenarios need a camera")
        if self.n_frames < 1:
            raise ValidationError(f"n_frames must be >= 1, got {self.n_frames}")
        ids = {o.obj_id for o in self.objects}
        if len(ids) != len(self.objects):
            raise ValidationError("object ids must be unique")
        layout = _LAYOUTS[self.mode][1]
        box_dims = len(layout)
        pos_dims = sum(std == "center_noise_std" for std, _, _ in layout)
        for obj in self.objects:
            for name, dims in (("init", box_dims), ("velocity", pos_dims)):
                if len(getattr(obj, name)) != dims:
                    raise ValidationError(f"object {obj.obj_id}: {name} needs {dims} values, "
                                          f"got {len(getattr(obj, name))}")
            if obj.turn_rate and self.mode is Mode.D2:
                raise ValidationError(
                    f"object {obj.obj_id}: turn_rate applies to 3D scenarios only, "
                    f"got {obj.turn_rate}"
                )
        events = [(f"{name}[{i}]", w.obj_id, w.start, w.length)
                  for name in ("occlusions", "weak_windows") for i, w in enumerate(getattr(self, name))]
        events += [(f"reversals[{i}]", obj_id, frame, 0)
                   for i, (obj_id, frame) in enumerate(self.reversals)]
        for where, obj_id, start, length in events:
            if obj_id not in ids:
                raise ValidationError(f"{where}: obj_id {obj_id} is not a scenario object")
            if not isinstance(start, int) or not isinstance(length, int) or length < 0:
                raise ValidationError(f"{where}: needs an integer start and an integer "
                                      f"length >= 0, got start {start!r}, length {length!r}")
        for name in ("dropout_prob", "fp_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {v}")
        for name in ("center_noise_std", "size_noise_std", "heading_noise_std",
                     "embed_noise_std"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValidationError(f"{name} must be >= 0 and finite, got {v}")
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
    kind = _LAYOUTS[spec.mode][0]
    reversal_set = set(spec.reversals)
    out: dict[int, list] = {}
    for obj in spec.objects:
        # the velocity has one entry per position field, which come first
        n = len(obj.velocity)
        pos, rest = list(obj.init[:n]), list(obj.init[n:])
        velocity = list(obj.velocity)
        boxes = []
        for t in range(spec.n_frames):
            if t > 0:
                if (obj.obj_id, t) in reversal_set:
                    velocity = [-v for v in velocity]
                if obj.turn_rate:
                    # 3D only: rotate the ground-plane velocity and the
                    # heading, which is the last box field
                    c, s = math.cos(obj.turn_rate), math.sin(obj.turn_rate)
                    vx, vy = velocity[:2]
                    velocity[:2] = c * vx - s * vy, s * vx + c * vy
                    rest[-1] = normalize_heading(rest[-1] + obj.turn_rate)
                pos = [p + v for p, v in zip(pos, velocity)]
            boxes.append(kind(*pos, *rest))
        out[obj.obj_id] = boxes
    return out


def _frame_set(windows: Iterable[Window], n_frames: int) -> set[tuple[int, int]]:
    """The (obj_id, frame) pairs the windows cover within [0, n_frames)."""
    return {
        (w.obj_id, t)
        for w in windows
        for t in range(max(w.start, 0), min(w.start + w.length, n_frames))
    }


def _unit(vec: np.ndarray) -> np.ndarray:
    return vec / np.sqrt(vec @ vec)


def generate(
    spec: ScenarioSpec,
) -> tuple[list[GroundTruthFrame], list[list[Detection]]]:
    """Produce the exact ground truth and the corrupted detection stream."""
    rng = np.random.default_rng(spec.seed)
    kind, layout = _LAYOUTS[spec.mode]
    box_values = attrgetter(*(f.name for f in dataclass_fields(kind)))
    noise = [(getattr(spec, std), floor) for std, floor, _ in layout]
    occluded = _frame_set(spec.occlusions, spec.n_frames)
    weak = _frame_set(spec.weak_windows, spec.n_frames)
    trajectories = _trajectories(spec)
    anchors = {
        obj.obj_id: _unit(rng.normal(size=spec.embed_dim))
        for obj in spec.objects
    } if spec.embed_dim > 0 else {}
    class_pool = sorted({o.class_label for o in spec.objects}, key=lambda c: c.value)

    gt_frames: list[GroundTruthFrame] = []
    det_frames: list[list[Detection]] = []
    for t in range(spec.n_frames):
        gt_frames.append(GroundTruthFrame(t, tuple(
            FrameObject(obj.obj_id, trajectories[obj.obj_id][t], obj.class_label)
            for obj in spec.objects
        )))

        dets: list[Detection] = []
        for obj in spec.objects:
            if (obj.obj_id, t) in occluded:
                continue
            if spec.dropout_prob > 0 and rng.random() < spec.dropout_prob:
                continue
            # one scalar draw per field, in field order
            box = kind(*[
                max(floor, v + rng.normal(0.0, std))
                for v, (std, floor) in zip(box_values(trajectories[obj.obj_id][t]), noise)
            ])
            lo, hi = spec.weak_score_range if (obj.obj_id, t) in weak else spec.tp_score_range
            score = float(rng.uniform(lo, hi))
            embedding = _unit(
                anchors[obj.obj_id] + rng.normal(0.0, spec.embed_noise_std, spec.embed_dim)
            ) if spec.embed_dim > 0 else None
            dets.append(Detection(box=box, score=score, class_label=obj.class_label,
                                  camera_id=spec.camera, embedding=embedding, src_gt=obj.obj_id))

        if spec.fp_rate > 0 and rng.random() < spec.fp_rate and class_pool:
            cls = class_pool[int(rng.integers(len(class_pool)))]
            box = kind(*[rng.uniform(lo, hi) for _, _, (lo, hi) in layout])
            embedding = _unit(rng.normal(size=spec.embed_dim)) if spec.embed_dim > 0 else None
            score = float(rng.uniform(*spec.fp_score_range))
            dets.append(Detection(box=box, score=score, class_label=cls,
                                  camera_id=spec.camera, embedding=embedding, src_gt=None))
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


_SCALAR_FIELDS = scalar_fields(ScenarioSpec)
_RANGE_FIELDS = ("tp_score_range", "weak_score_range", "fp_score_range")
_EVENT_FIELDS = {
    "occlusions": ("obj_id", "start", "length"),
    "weak_windows": ("obj_id", "start", "length"),
    "reversals": ("obj_id", "frame"),
}
_SPEC_KEYS = {f.name for f in dataclass_fields(ScenarioSpec)}


def _is_list(value: Any) -> bool:
    return isinstance(value, Sequence) and not isinstance(value, str)


def _numbers(value: Any, path: str, kind: type = float,
             names: tuple[str, ...] | None = None) -> tuple:
    """Decode a JSON list of numbers; ``names`` fixes its length and shape."""
    if not _is_list(value) or (names is not None and len(value) != len(names)):
        shape = "a list of numbers" if names is None else f"[{', '.join(names)}]"
        raise ConfigError(f"{path}: expected {shape}")
    return tuple(coerce_scalar(v, f"{path}[{j}]", kind) for j, v in enumerate(value))


def parse_scenario(data: Mapping[str, Any]) -> ScenarioSpec:
    """Decode a JSON scenario document, reporting errors with field paths."""
    if not isinstance(data, Mapping):
        raise ConfigError("spec: expected a JSON object")
    for key in data:
        if key not in _SPEC_KEYS:
            raise ConfigError(f"spec: unknown key {key!r}")
    for required in ("mode", "n_frames"):
        if required not in data:
            raise ConfigError(f"spec.{required}: required")
    try:
        mode = Mode(data["mode"])
    except ValueError:
        raise ConfigError(f"spec.mode: expected '2d' or '3d', got {data['mode']!r}") from None

    kwargs: dict[str, Any] = {"mode": mode}
    for name, kind in _SCALAR_FIELDS.items():
        if name in data:
            kwargs[name] = coerce_scalar(data[name], f"spec.{name}", kind)
    for name in _RANGE_FIELDS:
        if name in data:
            kwargs[name] = _numbers(data[name], f"spec.{name}", float, ("lo", "hi"))
    if "camera" in data:
        try:
            kwargs["camera"] = None if data["camera"] is None else Camera(data["camera"])
        except ValueError:
            raise ConfigError(f"spec.camera: unknown camera {data['camera']!r}") from None

    objects = data.get("objects", [])
    if not _is_list(objects):
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
        parsed_objects.append(
            ObjectSpec(
                obj_id=coerce_scalar(entry["obj_id"], f"{path}.obj_id", int),
                class_label=label,
                init=_numbers(entry["init"], f"{path}.init"),
                velocity=_numbers(entry["velocity"], f"{path}.velocity"),
                turn_rate=coerce_scalar(entry.get("turn_rate", 0.0), f"{path}.turn_rate"),
            )
        )
    kwargs["objects"] = tuple(parsed_objects)

    for name, names in _EVENT_FIELDS.items():
        if name not in data:
            continue
        if not _is_list(data[name]):
            raise ConfigError(f"spec.{name}: expected a list of [{', '.join(names)}]")
        events = [
            _numbers(entry, f"spec.{name}[{i}]", int, names)
            for i, entry in enumerate(data[name])
        ]
        kwargs[name] = tuple(events if name == "reversals" else (Window(*e) for e in events))

    try:
        return ScenarioSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"spec: {exc}") from None
