"""Regression pins for scenes the CLI presets do not reach.

The presets log no deletions, so their pins in ``test_cli.py`` never see a
numeric failure or the order of ``deleted_ids``. These scenes do: a dense 3D
scene with births, deaths and headings near +-pi, and a cluttered 2D re-id
scene whose coasting tracks die as numeric failures. Each pin is the sha256
of the emitted rows and ``deleted_ids`` of every frame, followed by the
"deleting track" warning lines, as recorded on the tracker before its
filter states were kept in per-class arrays. A second pin, recorded while
every update still factored and solved its innovation covariance, is the
sha256 of the bytes of the filter store (every live mean and covariance)
after every frame: the emitted boxes are raw observations, so only this pin
holds the filter to its bits.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import math

import numpy as np
import pytest

from hmot import TrackerInstance, generate
from hmot.config import default_class_configs
from hmot.simulation import ObjectSpec, ScenarioSpec, Window
from hmot.types import Camera, Mode, ObjectClass


def _windows(rng, n_objects, n_frames, count, lengths):
    return tuple(Window(int(rng.integers(1, n_objects + 1)), int(rng.integers(1, n_frames)),
                        int(rng.integers(*lengths))) for _ in range(count))


def _dense_3d(seed=0, n_frames=80):
    """100 objects in lanes of alternating direction, so headings sit near
    0 and near +-pi; occlusions longer than a_max and clutter above the
    primary threshold give births and deaths every few frames."""
    rng = np.random.default_rng(seed)
    objects = []
    for lane in range(10):
        label = (ObjectClass.VEHICLE, ObjectClass.PEDESTRIAN, ObjectClass.CYCLIST)[lane % 3]
        heading = 0.0 if lane % 2 == 0 else math.pi
        speed = math.cos(heading) * float(rng.uniform(0.1, 0.8))
        for k in range(10):
            objects.append(ObjectSpec(
                len(objects) + 1, label,
                (-70.0 + 14.0 * k + float(rng.uniform(0, 4)), -60.0 + 12.0 * lane,
                 float(rng.uniform(0.6, 1.2)), float(rng.uniform(1.4, 1.9)),
                 float(rng.uniform(0.6, 2.0)), float(rng.uniform(0.8, 4.5)), heading),
                (speed, 0.0, 0.0)))
    return ScenarioSpec(
        mode=Mode.D3, n_frames=n_frames, objects=tuple(objects), camera=None,
        center_noise_std=0.1, size_noise_std=0.05, heading_noise_std=0.3, dropout_prob=0.02,
        occlusions=_windows(rng, len(objects), n_frames, 20, (5, 9)),
        weak_windows=_windows(rng, len(objects), n_frames, 30, (2, 6)),
        fp_rate=0.6, tp_score_range=(0.6, 0.95), weak_score_range=(0.3, 0.45),
        fp_score_range=(0.2, 0.7), embed_dim=0, seed=seed)


def _reid_2d(seed=0, n_frames=150):
    """16 objects among heavy clutter; clutter tracks matched to other
    clutter pick up large size velocities and fail when they coast."""
    rng = np.random.default_rng(seed)
    objects = [
        ObjectSpec(k + 1, ObjectClass.PEDESTRIAN if k % 2 else ObjectClass.VEHICLE,
                   (150.0 + 100.0 * k, 200.0 + 60.0 * (k % 5), float(rng.uniform(30, 60)),
                    float(rng.uniform(60, 120))),
                   (float(rng.uniform(-2, 2)), 0.0))
        for k in range(16)
    ]
    occlusions = tuple(Window(int(rng.integers(1, 17)), int(rng.integers(1, n_frames)),
                              int(rng.integers(2, 7))) for _ in range(25))
    return ScenarioSpec(
        mode=Mode.D2, n_frames=n_frames, objects=tuple(objects), camera=Camera.FRONT,
        center_noise_std=1.5, size_noise_std=1.0, dropout_prob=0.02, occlusions=occlusions,
        fp_rate=1.0, fp_score_range=(0.1, 0.6), tp_score_range=(0.6, 0.95),
        embed_dim=16, embed_noise_std=0.05, seed=seed)


def _run(spec, caplog, **kwargs):
    """The pin digest of ``spec`` tracked with ``kwargs``, the number of
    deletions, the "deleting track" warning lines and the filter digest."""
    _, det_frames = generate(spec)
    inst = TrackerInstance(spec.mode, camera_id=spec.camera, **kwargs)
    h, filter_bits = hashlib.sha256(), hashlib.sha256()
    deleted = 0
    with caplog.at_level(logging.WARNING, logger="hmot.tracker"):
        for f, dets in enumerate(det_frames):
            res = inst.step(dets)
            rows = [(em.track_id, em.class_label.value, dataclasses.astuple(em.box), em.score)
                    for em in res.emitted]
            h.update(repr((f, rows, res.deleted_ids)).encode())
            filter_bits.update(inst._store.means.tobytes() + inst._store.covs.tobytes())
            deleted += len(res.deleted_ids)
    warnings = [r.getMessage() for r in caplog.records if "deleting track" in r.getMessage()]
    h.update("\n".join(warnings).encode())
    return h.hexdigest(), deleted, warnings, filter_bits.hexdigest()


def _gated(mode):
    return {cls: dataclasses.replace(cfg, mahalanobis_gating=True)
            for cls, cfg in default_class_configs(mode).items()}


# The filter digest of each dense 3D run, by gating.
DENSE_3D_FILTER_DIGESTS = {
    False: "d8657b405fdec06bc995da380466abeae26ada4b95db63a7ea6fde70281afb61",
    True: "6fb65462b400d3dbd08e960e2b49f9360376df076de4723c463e346fc1dfb165",
}


@pytest.mark.parametrize("gating, digest", [
    (False, "55ac5c8ec522ca8cbdc7a517cb5f73891372ceea9e97c42730a5f1903826fff8"),
    # The chi-square gate rejects pairs with large heading innovations here,
    # so the gated output differs.
    (True, "3d1ff69c2bd0a4c154d07941c55820fefbcd7d5c0b908030878dabf10080d44e"),
])
def test_dense_3d_pin(caplog, gating, digest):
    kwargs = {"configs": _gated(Mode.D3)} if gating else {}
    got, n_deleted, warnings, filter_got = _run(_dense_3d(), caplog, **kwargs)
    assert (n_deleted, warnings) == (35, [])
    assert got == digest
    assert filter_got == DENSE_3D_FILTER_DIGESTS[gating]


def test_reid_2d_numeric_failure_pin(caplog):
    """Coasting 2D tracks die here as "predict produced non-positive box
    extents". The coasting fix of ROADMAP item 3 (zeroing the size velocity
    of a coasting track whose extent would go non-positive) changes this
    scene's output; that change re-records this pin."""
    got, n_deleted, warnings, filter_got = _run(_reid_2d(), caplog)
    assert (n_deleted, len(warnings)) == (66, 3)
    assert all(w.endswith("predict produced non-positive box extents") for w in warnings)
    assert got == "1bf988125fadb50df13e366466090a61d590885b37139c7bccaaba63ed1152f6"
    assert filter_got == "0a8ee777ff19dc78b1f505f0e11d2ad61b64bd221e016ec6afe84c78f9656bc9"
