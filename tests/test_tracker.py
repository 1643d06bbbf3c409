from __future__ import annotations

import dataclasses
import importlib.util
import itertools
import logging
import math
import os
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmot
from hmot.config import default_class_configs
from hmot.errors import ConfigError, ValidationError
from hmot.kalman import MotionModel2D, MotionModel3D, Noise2D, Noise3D, init_track_state
from hmot.tracker import (
    CHI2_95,
    STAGE2_MAX_AGE,
    TrackerInstance,
    split_detections,
    stage1_cascade,
    stage2_relaxed,
    stage3_secondary,
)
from hmot.types import (
    Box2D,
    Box3D,
    Camera,
    EXTENTS,
    Detection,
    Mode,
    ObjectClass,
    State,
    Track,
)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


E1 = _unit([1, 0, 0, 0])
E2 = _unit([0, 1, 0, 0])
E_CLOSE = _unit([1, 0.05, 0, 0])  # cosine distance to E1 about 0.0012


def _det2(cx, cy, w=30.0, h=60.0, score=0.9, cls=ObjectClass.PEDESTRIAN,
          camera=Camera.FRONT, embedding=None):
    return Detection(Box2D(cx, cy, w, h), score, cls, camera_id=camera,
                     embedding=embedding)


def _det3(cx, cy, cz=0.0, h=1.8, w=0.7, l=0.9, theta=0.0, score=0.9,
          cls=ObjectClass.PEDESTRIAN):
    return Detection(Box3D(cx, cy, cz, h, w, l, theta), score, cls)


def _track2(track_id, det, age=0, gallery=()):
    model = MotionModel2D()
    return Track(track_id=track_id, state=init_track_state(det, model),
                 class_label=det.class_label,
                 score=det.score, age_since_update=age,
                 gallery=deque(gallery))


def _track3(track_id, det, age=0):
    model = MotionModel3D()
    return Track(track_id=track_id, state=init_track_state(det, model),
                 class_label=det.class_label,
                 score=det.score, age_since_update=age,
                 gallery=deque())


PED_2D = default_class_configs(Mode.D2)[ObjectClass.PEDESTRIAN]
PED_3D = default_class_configs(Mode.D3)[ObjectClass.PEDESTRIAN]


# ---------------------------------------------------------------------------
# split_detections


def test_split_boundaries():
    t_s = 0.5
    prim, sec = split_detections(
        [
            _det2(0, 0, score=0.51),
            _det2(0, 0, score=0.5),    # exactly t_s: secondary
            _det2(0, 0, score=0.25),   # exactly t_s/2: secondary
            _det2(0, 0, score=0.249),  # below t_s/2: in neither set
        ],
        t_s,
    )
    assert [d.score for d in prim] == [0.51]
    assert [d.score for d in sec] == [0.5, 0.25]


def test_split_preserves_order():
    dets = [_det2(i, 0, score=0.9) for i in range(5)]
    prim, sec = split_detections(dets, 0.5)
    assert prim == dets
    assert sec == []


# ---------------------------------------------------------------------------
# stage 1


def test_stage1_2d_appearance_match():
    track = _track2(1, _det2(100, 100), gallery=[E1])
    det = _det2(400, 400, embedding=E_CLOSE)  # far away, same appearance
    res = stage1_cascade([track], [det], PED_2D, mode=Mode.D2,
                         camera=Camera.FRONT)
    assert res.matches == [(0, 0)]


def test_stage1_2d_appearance_gate():
    track = _track2(1, _det2(100, 100), gallery=[E1])
    det = _det2(100, 100, embedding=E2)  # same place, different appearance
    res = stage1_cascade([track], [det], PED_2D, mode=Mode.D2,
                         camera=Camera.FRONT)
    assert res.matches == []
    assert res.unmatched_tracks == [0]
    assert res.unmatched_detections == [0]


def test_stage1_age_band_priority():
    """A younger track claims the detection even when an older one is a
    better appearance match."""
    young = _track2(1, _det2(100, 100), age=0, gallery=[E_CLOSE])
    old = _track2(2, _det2(100, 100), age=2, gallery=[E1])
    det = _det2(100, 100, embedding=E1)
    res = stage1_cascade([young, old], [det], PED_2D, mode=Mode.D2,
                         camera=Camera.FRONT)
    assert res.matches == [(0, 0)]
    assert res.unmatched_tracks == [1]


def test_stage1_second_band_gets_leftovers():
    young = _track2(1, _det2(100, 100), age=0, gallery=[E1])
    old = _track2(2, _det2(500, 500), age=2, gallery=[E2])
    dets = [_det2(100, 100, embedding=E1), _det2(500, 500, embedding=E2)]
    res = stage1_cascade([young, old], dets, PED_2D, mode=Mode.D2,
                         camera=Camera.FRONT)
    assert set(res.matches) == {(0, 0), (1, 1)}


def test_stage1_no_embeddings_means_no_reid_matches():
    track = _track2(1, _det2(100, 100), gallery=[E1])
    det = _det2(100, 100)  # no embedding
    res = stage1_cascade([track], [det], PED_2D, mode=Mode.D2,
                         camera=Camera.FRONT)
    assert res.matches == []


def test_stage1_iou_fallback_without_reid():
    track = _track2(1, _det2(100, 100))
    det = _det2(102, 101)  # heavy overlap
    res = stage1_cascade([track], [det], PED_2D, mode=Mode.D2,
                         camera=Camera.FRONT, use_reid=False)
    assert res.matches == [(0, 0)]


def test_stage1_iou_fallback_needs_camera():
    track = _track2(1, _det2(100, 100))
    with pytest.raises(ConfigError):
        stage1_cascade([track], [_det2(100, 100)], PED_2D, mode=Mode.D2,
                       camera=None, use_reid=False)


def test_stage1_3d_center_gate():
    track = _track3(1, _det3(0, 0))
    near = _det3(0.3, 0)
    far = _det3(30, 0)
    res = stage1_cascade([track], [near, far], PED_3D, mode=Mode.D3)
    assert res.matches == [(0, 0)]
    assert res.unmatched_detections == [1]


def test_stage1_3d_age_priority_beats_distance():
    t_young = _track3(1, _det3(0, 0), age=0)
    t_old = _track3(2, _det3(1.0, 0), age=1)
    det = _det3(0.6, 0)  # nearer to the old track
    res = stage1_cascade([t_young, t_old], [det], PED_3D, mode=Mode.D3)
    assert res.matches == [(0, 0)]


def test_stage1_mahalanobis_gate_blocks_jump():
    cfg = dataclasses.replace(PED_2D, mahalanobis_gating=True)
    model = MotionModel2D()
    track = _track2(1, _det2(100, 100), gallery=[E1])
    det = _det2(900, 900, embedding=E1)  # appearance-identical, 1100 px away
    gated = stage1_cascade([track], [det], cfg, mode=Mode.D2,
                           camera=Camera.FRONT, model=model)
    assert gated.matches == []
    ungated = stage1_cascade([track], [det], PED_2D, mode=Mode.D2,
                             camera=Camera.FRONT, model=model)
    assert ungated.matches == [(0, 0)]


def test_chi2_table_matches_scipy():
    import scipy.stats

    assert set(CHI2_95) == {MotionModel2D.dim_obs, MotionModel3D.dim_obs}
    for dof, limit in CHI2_95.items():
        assert limit == float(scipy.stats.chi2.ppf(0.95, dof))


def test_import_hmot_leaves_scipy_stats_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(hmot.__file__).resolve().parents[1]))
    code = "import sys, hmot; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("module", ["hmot", "hmot.cli"])
def test_import_hmot_loads_no_scipy(module):
    env = dict(os.environ, PYTHONPATH=str(Path(hmot.__file__).resolve().parents[1]))
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_stage1_work_does_not_grow_with_a_max():
    cfg = dataclasses.replace(PED_3D, a_max=10 ** 7)
    inst = TrackerInstance(Mode.D3, {cls: cfg for cls in ObjectClass})
    inst.step([_det3(0, 0)])
    start = time.perf_counter()
    res = inst.step([_det3(0.1, 0)])
    assert time.perf_counter() - start < 0.25
    assert res.stage_matches == (1, 0, 0)


# ---------------------------------------------------------------------------
# stage 2


def test_stage2_matches_by_enlarged_iou():
    track = _track2(1, _det2(100, 100, w=10, h=10))
    det = _det2(111, 100, w=10, h=10)  # 1 px gap: plain IoU 0, enlarged > 0
    res = stage2_relaxed([track], [det], PED_2D, mode=Mode.D2,
                         camera=Camera.FRONT)
    assert res.matches == [(0, 0)]


def test_stage2_age_eligibility():
    fresh = _track2(1, _det2(100, 100, w=10, h=10), age=STAGE2_MAX_AGE - 1)
    stale = _track2(2, _det2(100, 100, w=10, h=10), age=STAGE2_MAX_AGE)
    det = _det2(100, 100, w=10, h=10)
    res = stage2_relaxed([stale, fresh], [det], PED_2D, mode=Mode.D2,
                         camera=Camera.FRONT)
    assert res.matches == [(1, 0)]
    assert 0 in res.unmatched_tracks


def test_stage2_3d_same_metric_as_stage1():
    track = _track3(1, _det3(0, 0), age=1)
    det = _det3(0.4, 0)
    res = stage2_relaxed([track], [det], PED_3D, mode=Mode.D3)
    assert res.matches == [(0, 0)]


# ---------------------------------------------------------------------------
# stage 3


def test_stage3_wider_reach_than_stage2():
    track = _track2(1, _det2(100, 100, w=10, h=10))
    det = _det2(119, 100, w=10, h=10)  # 9 px gap
    r2 = stage2_relaxed([track], [det], PED_2D, mode=Mode.D2,
                        camera=Camera.FRONT)
    r3 = stage3_secondary([track], [det], PED_2D, mode=Mode.D2,
                          camera=Camera.FRONT)
    # 2x enlargement: IoU dist 0.974, outside the 0.95 gate; 3x: 0.776
    assert r2.matches == []
    assert r3.matches == [(0, 0)]


def test_stage3_3d():
    track = _track3(1, _det3(0, 0), age=3)
    det = _det3(0.5, 0, score=0.3)
    res = stage3_secondary([track], [det], PED_3D, mode=Mode.D3)
    assert res.matches == [(0, 0)]


# ---------------------------------------------------------------------------
# TrackerInstance lifecycle


def test_instance_requires_camera_in_2d():
    with pytest.raises(ConfigError):
        TrackerInstance(Mode.D2)
    TrackerInstance(Mode.D2, camera_id=Camera.FRONT)


def test_instance_forbids_camera_in_3d():
    with pytest.raises(ConfigError):
        TrackerInstance(Mode.D3, camera_id=Camera.FRONT)
    TrackerInstance(Mode.D3)


def test_instance_noise_must_match_mode():
    with pytest.raises(ConfigError, match="2d tracking needs Noise2D noise, got Noise3D"):
        TrackerInstance(Mode.D2, camera_id=Camera.FRONT, noise=Noise3D())
    with pytest.raises(ConfigError, match="3d tracking needs Noise3D noise, got Noise2D"):
        TrackerInstance(Mode.D3, noise=Noise2D())
    noise = Noise3D(pos_proc_std=2.0)
    assert TrackerInstance(Mode.D3, noise=noise).model.noise is noise


def test_step_rejects_wrong_box_kind():
    inst = TrackerInstance(Mode.D3)
    with pytest.raises(ConfigError):
        inst.step([_det2(0, 0)])


def test_step_rejects_foreign_camera():
    inst = TrackerInstance(Mode.D2, camera_id=Camera.FRONT)
    with pytest.raises(ConfigError):
        inst.step([_det2(0, 0, camera=Camera.SIDE_LEFT)])


def test_new_track_from_primary_only():
    inst = TrackerInstance(Mode.D3)
    weak = _det3(0, 0, score=0.3)     # secondary band for t_s = 0.5
    res = inst.step([weak])
    assert res.created_ids == []
    assert res.emitted == []
    assert inst.tracks == []
    strong = _det3(5, 5, score=0.8)
    res = inst.step([strong])
    assert len(res.created_ids) == 1
    assert len(inst.tracks) == 1


def test_created_track_emitted_with_raw_box():
    inst = TrackerInstance(Mode.D3)
    det = _det3(1, 2, score=0.9)
    res = inst.step([det])
    assert len(res.emitted) == 1
    em = res.emitted[0]
    assert em.box is det.box
    assert em.score == det.score
    assert em.class_label is ObjectClass.PEDESTRIAN


def test_matched_track_emits_observation_not_filter_mean():
    inst = TrackerInstance(Mode.D3)
    inst.step([_det3(0, 0, score=0.9)])
    det = _det3(0.4, 0, score=0.8)
    res = inst.step([det])
    assert res.stage_matches == (1, 0, 0)
    assert res.emitted[0].box is det.box
    # the filtered mean lags the observation, so they must differ
    assert inst.tracks[0].state.mean[0] != det.box.cx


def test_score_follows_association():
    inst = TrackerInstance(Mode.D3)
    inst.step([_det3(0, 0, score=0.9)])
    res = inst.step([_det3(0.1, 0, score=0.77)])
    assert res.emitted[0].score == 0.77
    assert inst.tracks[0].score == 0.77


def test_coasting_track_not_emitted():
    inst = TrackerInstance(Mode.D3)
    inst.step([_det3(0, 0, score=0.9)])
    res = inst.step([])
    assert res.emitted == []
    assert len(inst.tracks) == 1
    assert inst.tracks[0].age_since_update == 1


def test_track_deleted_after_max_age():
    inst = TrackerInstance(Mode.D3)
    res = inst.step([_det3(0, 0, score=0.9)])
    tid = res.created_ids[0]
    a_max = inst.configs[ObjectClass.PEDESTRIAN].a_max
    for _ in range(a_max):
        res = inst.step([])
        assert res.deleted_ids == []
    res = inst.step([])
    assert res.deleted_ids == [tid]
    assert inst.tracks == []


def test_track_survives_gap_and_rematches():
    inst = TrackerInstance(Mode.D3)
    first = inst.step([_det3(0, 0, score=0.9)])
    tid = first.created_ids[0]
    inst.step([])
    inst.step([])
    res = inst.step([_det3(0.3, 0, score=0.9)])
    assert res.stage_matches[0] + res.stage_matches[1] == 1
    assert res.emitted[0].track_id == tid
    assert inst.tracks[0].age_since_update == 0


def test_min_hits_suppresses_first_emission():
    configs = {
        cls: dataclasses.replace(cfg, min_hits=2)
        for cls, cfg in default_class_configs(Mode.D3).items()
    }
    inst = TrackerInstance(Mode.D3, configs)
    res = inst.step([_det3(0, 0, score=0.9)])
    assert res.created_ids != [] and res.emitted == []
    res = inst.step([_det3(0.1, 0, score=0.9)])
    assert len(res.emitted) == 1


def test_cross_class_never_matched():
    inst = TrackerInstance(Mode.D3)
    inst.step([_det3(0, 0, score=0.9, cls=ObjectClass.VEHICLE)])
    res = inst.step([_det3(0.1, 0, score=0.9, cls=ObjectClass.PEDESTRIAN)])
    assert res.stage_matches == (0, 0, 0)
    assert len(res.created_ids) == 1
    assert len(inst.tracks) == 2


def test_mode_dependent_vehicle_threshold():
    # 2D vehicle t_s is 0.4: a 0.45 detection is primary and seeds a track
    inst2 = TrackerInstance(Mode.D2, camera_id=Camera.FRONT)
    res = inst2.step([_det2(100, 100, score=0.45, cls=ObjectClass.VEHICLE)])
    assert len(res.created_ids) == 1
    # 3D vehicle t_s is 0.5: the same score stays secondary
    inst3 = TrackerInstance(Mode.D3)
    res = inst3.step([_det3(0, 0, score=0.45, cls=ObjectClass.VEHICLE)])
    assert res.created_ids == []


def test_gallery_budget_fifo():
    configs = {
        cls: dataclasses.replace(cfg, gallery_budget=3)
        for cls, cfg in default_class_configs(Mode.D2).items()
    }
    inst = TrackerInstance(Mode.D2, configs, camera_id=Camera.FRONT)
    embs = [_unit(np.concatenate([[1.0], 0.01 * np.eye(4)[i][:3]])) for i in range(4)]
    inst.step([_det2(100, 100, embedding=embs[0])])
    for e in embs[1:]:
        inst.step([_det2(100, 100, embedding=e)])
    gallery = inst.tracks[0].gallery
    assert len(gallery) == 3
    assert not any(np.array_equal(g, embs[0]) for g in gallery)
    assert np.array_equal(gallery[-1], embs[3])


def test_shared_id_counter_across_instances():
    counter = itertools.count(1)
    a = TrackerInstance(Mode.D2, camera_id=Camera.FRONT, id_counter=counter)
    b = TrackerInstance(Mode.D2, camera_id=Camera.SIDE_LEFT, id_counter=counter)
    ra = a.step([_det2(100, 100, embedding=E1)])
    rb = b.step([_det2(200, 200, camera=Camera.SIDE_LEFT, embedding=E2)])
    assert ra.created_ids == [1]
    assert rb.created_ids == [2]


def test_stage2_rescues_appearance_change():
    """Same place, new appearance: stage 1 refuses, stage 2 matches by IoU."""
    inst = TrackerInstance(Mode.D2, camera_id=Camera.FRONT)
    inst.step([_det2(100, 100, embedding=E1)])
    res = inst.step([_det2(101, 100, embedding=E2)])
    assert res.stage_matches == (0, 1, 0)
    assert len(res.created_ids) == 0


def test_stage3_keeps_weak_detection_alive():
    inst = TrackerInstance(Mode.D3)
    first = inst.step([_det3(0, 0, score=0.9)])
    tid = first.created_ids[0]
    res = inst.step([_det3(0.2, 0, score=0.3)])  # secondary band
    assert res.stage_matches == (0, 0, 1)
    assert res.emitted[0].track_id == tid
    assert res.emitted[0].score == 0.3


def test_no_stage3_flag_disables_recovery():
    inst = TrackerInstance(Mode.D3, use_stage3=False)
    inst.step([_det3(0, 0, score=0.9)])
    res = inst.step([_det3(0.2, 0, score=0.3)])
    assert res.stage_matches == (0, 0, 0)
    assert res.emitted == []
    assert inst.tracks[0].age_since_update == 1


def test_reid_fallback_logged_once(caplog):
    inst = TrackerInstance(Mode.D2, camera_id=Camera.FRONT)
    inst.step([_det2(100, 100)])  # creates a track, no embeddings anywhere
    with caplog.at_level(logging.WARNING, logger="hmot.tracker"):
        inst.step([_det2(101, 100)])
        inst.step([_det2(102, 100)])
    hits = [r for r in caplog.records if "falls back to IoU" in r.getMessage()]
    assert len(hits) == 1
    assert hits[0].levelno == logging.WARNING


def test_reid_fallback_info_when_disabled(caplog):
    inst = TrackerInstance(Mode.D2, camera_id=Camera.FRONT, use_reid=False)
    inst.step([_det2(100, 100, embedding=E1)])
    with caplog.at_level(logging.INFO, logger="hmot.tracker"):
        res = inst.step([_det2(101, 100, embedding=E1)])
    assert res.stage_matches == (1, 0, 0)  # matched by IoU, not appearance
    hits = [r for r in caplog.records if "falls back to IoU" in r.getMessage()]
    assert len(hits) == 1
    assert hits[0].levelno == logging.INFO


def test_embeddings_latch_enables_reid_mid_stream(caplog):
    inst = TrackerInstance(Mode.D2, camera_id=Camera.FRONT)
    inst.step([_det2(100, 100)])
    with caplog.at_level(logging.WARNING, logger="hmot.tracker"):
        inst.step([_det2(101, 100)])  # still no embeddings: fallback warns
    assert any("falls back" in r.getMessage() for r in caplog.records)
    inst.step([_det2(102, 100, embedding=E1)])  # embeddings appear
    res = inst.step([_det2(400, 400, embedding=E_CLOSE)])  # appearance match
    assert res.stage_matches == (1, 0, 0)


def test_mixed_embedding_sizes_rejected():
    inst = TrackerInstance(Mode.D2, camera_id=Camera.FRONT)
    inst.step([_det2(100, 100, embedding=_unit(np.arange(1.0, 9.0)))])
    with pytest.raises(ValidationError, match=r"size 4 .* size 8"):
        inst.step([_det2(101, 100, embedding=E1)])
    with pytest.raises(ValidationError, match=r"size 4 .* size 8"):
        inst.step([_det2(300, 100), _det2(101, 100, embedding=E1)])
    res = inst.step([_det2(101, 100, embedding=_unit(np.arange(2.0, 10.0)))])
    assert res.stage_matches == (1, 0, 0)


def test_mixed_embedding_sizes_in_one_frame_leave_no_size_behind():
    inst = TrackerInstance(Mode.D2, camera_id=Camera.FRONT)
    with pytest.raises(ValidationError):
        inst.step([_det2(100, 100, embedding=E1),
                   _det2(300, 100, embedding=_unit(np.ones(8)))])
    inst.step([_det2(100, 100, embedding=_unit(np.ones(8)))])
    inst.step([_det2(101, 100, embedding=_unit(np.ones(8)))])


def test_mixed_embedding_sizes_allowed_without_reid():
    inst = TrackerInstance(Mode.D2, camera_id=Camera.FRONT, use_reid=False)
    inst.step([_det2(100, 100, embedding=_unit(np.ones(8)))])
    res = inst.step([_det2(101, 100, embedding=E1)])
    assert res.stage_matches == (1, 0, 0)


def test_emission_sorted_by_track_id():
    inst = TrackerInstance(Mode.D3)
    inst.step([_det3(0, 0, score=0.9), _det3(10, 0, score=0.9),
               _det3(20, 0, score=0.9)])
    res = inst.step([_det3(20.1, 0, score=0.9), _det3(0.1, 0, score=0.9),
                     _det3(10.1, 0, score=0.9)])
    ids = [em.track_id for em in res.emitted]
    assert ids == sorted(ids)
    assert len(ids) == 3


def test_deterministic_replay():
    def run():
        inst = TrackerInstance(Mode.D3)
        rng = np.random.default_rng(55)
        out = []
        pos = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
        vel = np.array([[0.5, 0.1], [-0.3, 0.2], [0.1, -0.4]])
        for t in range(30):
            pos = pos + vel
            dets = [
                _det3(pos[i, 0] + rng.normal(0, 0.05),
                      pos[i, 1] + rng.normal(0, 0.05),
                      score=float(rng.uniform(0.7, 0.95)))
                for i in range(3)
            ]
            res = inst.step(dets)
            out.append([(em.track_id, em.box.cx, em.box.cy, em.score)
                        for em in res.emitted])
        return out

    assert run() == run()


def test_frame_index_advances():
    inst = TrackerInstance(Mode.D3)
    assert inst.step([]).frame == 0
    assert inst.step([]).frame == 1
    assert inst.step([]).frame == 2


# ---------------------------------------------------------------------------
# numeric failures inside the batched filter


def test_filter_failures_keep_deletion_order(caplog):
    """Per class, predict failures come first in track order, then update
    failures in pair order, then age-outs; the batched filter must keep the
    scalar filter's order and messages."""
    inst = TrackerInstance(Mode.D2, camera_id=Camera.FRONT, use_reid=False)
    xs = (100, 300, 500, 700)
    inst.step([_det2(x, 100) for x in xs])
    aged, collapsing, singular, healthy = inst.tracks
    aged.age_since_update = inst.configs[ObjectClass.PEDESTRIAN].a_max
    collapsing.state.mean[7] = -2.0 * collapsing.state.mean[3]  # h <= 0 after predict
    singular.state.cov[...] = -1e6 * np.eye(8)  # no Cholesky factor of S
    with caplog.at_level(logging.WARNING, logger="hmot.tracker"):
        res = inst.step([_det2(x, 100) for x in xs[1:]])
    assert res.deleted_ids == [2, 3, 1]
    assert [r.getMessage() for r in caplog.records] == [
        "deleting track 2: predict produced non-positive box extents",
        "deleting track 3: singular innovation covariance: Matrix is not positive definite",
    ]
    assert [t.track_id for t in inst.tracks] == [4, 5]  # 5 is born at x = 300
    assert healthy.age_since_update == 0


def test_mahalanobis_gate_skips_track_without_positive_definite_s(caplog):
    """With zero noise, a new track's innovation covariance is zero. The
    gate makes its pairs inadmissible instead of raising; stage 2 then
    matches it, and the update deletes it as it does without the gate."""
    configs = {cls: dataclasses.replace(cfg, mahalanobis_gating=True)
               for cls, cfg in default_class_configs(Mode.D3).items()}
    zero = Noise3D(**{f: 0.0 for f in Noise3D.__dataclass_fields__})
    inst = TrackerInstance(Mode.D3, configs, noise=zero)
    inst.step([_det3(0, 0)])
    with caplog.at_level(logging.WARNING, logger="hmot.tracker"):
        res = inst.step([_det3(0.1, 0)])
    assert res.stage_matches == (0, 1, 0)
    assert res.deleted_ids == [1]
    assert "singular innovation covariance" in caplog.text
    assert inst.tracks == []


# ---------------------------------------------------------------------------
# lifecycle invariants on random frames


def _frame_dets(scores):
    """Detections as (class, grid x, grid y, score, embedding index or None)
    on a coarse grid, so neighbouring boxes overlap and tracks get matched."""
    return st.lists(
        st.tuples(st.sampled_from(list(ObjectClass)), st.integers(0, 8), st.integers(0, 3),
                  scores, st.sampled_from([None, 0, 1, 2])),
        max_size=6,
    )


def _grid_det(mode, cls, gx, gy, score, emb):
    if mode is Mode.D2:
        return _det2(100 + 12.0 * gx, 100 + 20.0 * gy, score=score, cls=cls,
                     embedding=None if emb is None else (E1, E2, E_CLOSE)[emb])
    return _det3(0.4 * gx, 0.4 * gy, score=score, cls=cls)


@settings(max_examples=150, deadline=None)
@given(mode=st.sampled_from(list(Mode)), a_max=st.integers(1, 3),
       frames=st.lists(_frame_dets(st.floats(0.2, 1.0)), min_size=1, max_size=8),
       weak_frame=_frame_dets(st.floats(0.5, 1.0)))
def test_lifecycle_invariants_on_random_frames(mode, a_max, frames, weak_frame):
    configs = {cls: dataclasses.replace(cfg, a_max=a_max)
               for cls, cfg in default_class_configs(mode).items()}
    inst = TrackerInstance(mode, configs, Camera.FRONT if mode is Mode.D2 else None)
    for frame in frames:
        res = inst.step([_grid_det(mode, *d) for d in frame])
        ids = [t.track_id for t in inst.tracks]
        assert len(ids) == len(set(ids))
        assert all(t.age_since_update <= a_max for t in inst.tracks)
        fresh = {t.track_id for t in inst.tracks if t.age_since_update == 0}
        assert {em.track_id for em in res.emitted} <= fresh
        for t in inst.tracks:
            # The batched filter builds states without the constructor's
            # checks; they must still hold, with the filter's own.
            State(t.state.mean, t.state.cov)
            assert t.state.mean.dtype == t.state.cov.dtype == np.float64
            assert np.array_equal(t.state.cov, t.state.cov.T)
            assert (t.state.mean[EXTENTS[len(t.state.mean)]] > 0).all()

    # Scores in [t_s/2, t_s] form the secondary set, which never seeds tracks.
    before = {t.track_id for t in inst.tracks}
    res = inst.step([_grid_det(mode, cls, gx, gy, configs[cls].t_s * u, emb)
                     for cls, gx, gy, u, emb in weak_frame])
    assert res.created_ids == []
    assert {t.track_id for t in inst.tracks} <= before


# ---------------------------------------------------------------------------
# the benchmark's tracing layers


def _load_instrument():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py"
    spec = importlib.util.spec_from_file_location("_perfbench_instrument", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_sees_every_tracker_layer():
    """The tracer patches module names that ``step`` must look up at call
    time; each layer it lists has to be found and called."""
    instrument = _load_instrument()
    tracer = instrument.Tracer()
    tracer.state_every = 1
    tracer.install(instrument.TRACKER_LAYERS)
    try:
        inst2 = TrackerInstance(Mode.D2, camera_id=Camera.FRONT)
        inst2.step([_det2(100, 100, embedding=E1), _det2(300, 100, embedding=E1)])
        # An appearance change leaves the first track to stage 2, a weak
        # score the second to stage 3.
        res2 = inst2.step([_det2(102, 101, embedding=E2), _det2(301, 100, score=0.4)])
        inst3 = TrackerInstance(Mode.D3)
        inst3.step([_det3(0, 0)])
        res3 = inst3.step([_det3(0.1, 0)])
    finally:
        tracer.uninstall()
    assert res2.stage_matches == (0, 1, 1)
    assert res3.stage_matches == (1, 0, 0)
    assert tracer.missing == []
    assert {name for _, _, name, _ in instrument.TRACKER_LAYERS} <= set(tracer.names)
