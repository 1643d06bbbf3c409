"""Seeded scenario scripts for the benchmark workloads.

Every scenario is built with ``hmot.simulation`` from the benchmark seed
alone, so one seed always gives the same detections and ground truth.
Objects move in lanes: a lane holds one class at one velocity, and lanes
are spaced wider than that class's association gate. Identity changes then
come only from the scripted events below, which keeps MOTA steady across
seeds while the association work stays realistic:

- occlusion windows longer than ``a_max`` (3) kill a track, and the object
  is reborn under a new id when it reappears, so births and deaths run
  through the whole sequence;
- weak-score windows push detections into the secondary set (stage 3);
- clutter boxes, some of them above the primary score threshold, seed
  short-lived spurious tracks;
- per-frame dropout and centre noise.
"""

from __future__ import annotations

import math

import numpy as np

from hmot.simulation import ObjectSpec, ScenarioSpec, Window
from hmot.types import Camera, Mode, ObjectClass

# (class, lanes, objects per lane, lane spacing, in-lane gap, speed range,
#  (h, w, l) ranges) in meters and meters per frame.
_LANES_3D = (
    (ObjectClass.VEHICLE, 6, 8, 12.0, 20.0, (0.3, 0.9),
     ((1.4, 1.9), (1.8, 2.2), (4.0, 5.2))),
    (ObjectClass.PEDESTRIAN, 4, 8, 5.0, 6.0, (0.05, 0.2),
     ((1.6, 1.9), (0.5, 0.8), (0.6, 0.9))),
    (ObjectClass.CYCLIST, 2, 10, 10.0, 15.0, (0.2, 0.5),
     ((1.5, 1.8), (0.5, 0.8), (1.6, 2.0))),
)

# (class, rows, objects per row, row spacing, in-row gap, speed range,
#  (w, h) ranges) in pixels and pixels per frame.
_ROWS_2D = (
    (ObjectClass.PEDESTRIAN, 3, 8, 200.0, 190.0, (0.6, 2.0),
     ((45.0, 65.0), (140.0, 180.0))),
    (ObjectClass.VEHICLE, 2, 8, 260.0, 320.0, (1.0, 3.0),
     ((140.0, 200.0), (90.0, 120.0))),
)


def _events(rng: np.random.Generator, ids: list[int], n_frames: int,
            per_frame: float, lengths: tuple[int, int]) -> tuple[Window, ...]:
    """Windows of random objects, about ``per_frame`` of them starting per frame."""
    count = int(round(per_frame * n_frames))
    return tuple(
        Window(int(rng.choice(ids)), int(rng.integers(1, n_frames)),
               int(rng.integers(lengths[0], lengths[1] + 1)))
        for _ in range(count)
    )


def dense_3d(seed: int, n_frames: int, scale: float = 1.0) -> ScenarioSpec:
    """3D LiDAR scene with about 100 objects of all three classes."""
    rng = np.random.default_rng(seed)
    objects: list[ObjectSpec] = []
    y = -70.0
    for label, lanes, per_lane, spacing, gap, speed, dims in _LANES_3D:
        per_lane = max(1, int(round(per_lane * scale)))
        for lane in range(lanes):
            direction = 1.0 if lane % 2 == 0 else -1.0
            v = direction * float(rng.uniform(*speed))
            x0 = -80.0 + float(rng.uniform(0.0, gap))
            for k in range(per_lane):
                h, w, l = (float(rng.uniform(*r)) for r in dims)
                objects.append(ObjectSpec(
                    obj_id=len(objects) + 1,
                    class_label=label,
                    init=(x0 + gap * k, y, float(rng.uniform(0.6, 1.2)), h, w, l,
                          0.0 if direction > 0 else math.pi),
                    velocity=(v, 0.0, 0.0),
                ))
            y += spacing
    ids = [o.obj_id for o in objects]
    return ScenarioSpec(
        mode=Mode.D3,
        sequence_id=f"dense3d-{seed}",
        n_frames=n_frames,
        objects=tuple(objects),
        camera=None,
        center_noise_std=0.1,
        size_noise_std=0.05,
        heading_noise_std=0.02,
        dropout_prob=0.02,
        occlusions=_events(rng, ids, n_frames, 0.3 * scale, (5, 9)),
        weak_windows=_events(rng, ids, n_frames, 0.5 * scale, (2, 6)),
        fp_rate=0.6,
        tp_score_range=(0.6, 0.95),
        weak_score_range=(0.3, 0.45),
        fp_score_range=(0.2, 0.7),
        embed_dim=0,
        seed=seed,
    )


def reid_2d(seed: int, n_frames: int, scale: float = 1.0) -> ScenarioSpec:
    """Front-camera scene with about 40 pedestrians and vehicles and 512-d
    appearance embeddings noisy enough that stage 2 takes a real share."""
    rng = np.random.default_rng(seed)
    objects: list[ObjectSpec] = []
    y = 120.0
    for label, rows, per_row, spacing, gap, speed, (w_rng, h_rng) in _ROWS_2D:
        per_row = max(1, int(round(per_row * scale)))
        for row in range(rows):
            direction = 1.0 if row % 2 == 0 else -1.0
            v = direction * float(rng.uniform(*speed))
            x0 = 100.0 + float(rng.uniform(0.0, gap))
            for k in range(per_row):
                objects.append(ObjectSpec(
                    obj_id=len(objects) + 1,
                    class_label=label,
                    init=(x0 + gap * k, y, float(rng.uniform(*w_rng)),
                          float(rng.uniform(*h_rng))),
                    velocity=(v, float(rng.uniform(-0.05, 0.05))),
                ))
            y += spacing
    ids = [o.obj_id for o in objects]
    return ScenarioSpec(
        mode=Mode.D2,
        sequence_id=f"reid2d-{seed}",
        n_frames=n_frames,
        objects=tuple(objects),
        camera=Camera.FRONT,
        center_noise_std=1.5,
        size_noise_std=1.0,
        dropout_prob=0.02,
        occlusions=(_events(rng, ids, n_frames, 0.08 * scale, (5, 9))
                    + _events(rng, ids, n_frames, 0.08 * scale, (1, 2))),
        weak_windows=_events(rng, ids, n_frames, 0.2 * scale, (2, 5)),
        fp_rate=0.5,
        tp_score_range=(0.6, 0.95),
        weak_score_range=(0.3, 0.4),
        fp_score_range=(0.1, 0.6),
        embed_dim=512,
        embed_noise_std=0.015,
        seed=seed,
    )
