from __future__ import annotations

import copy
import dataclasses
import importlib.util
import itertools
import logging
import math
import os
import re
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cosine_gallery_dist_matrix as oracle_fill

import hmot
from hmot.config import default_class_configs
from hmot.errors import ConfigError, DegenerateBoxError, ValidationError
from hmot.kalman import MotionModel2D, MotionModel3D, Noise2D, Noise3D, init_track_state
from hmot.metrics import _corner_arrays, gallery_bound
from hmot.tracker import (
    CHI2_95,
    STAGE2_MAX_AGE,
    TrackerInstance,
    _state_boxes,
    split_detections,
    stage1_cascade,
    stage2_relaxed,
    stage3_secondary,
)
from hmot.types import (
    A_MAX_LIMIT,
    Box2D,
    Box3D,
    Camera,
    EXTENTS,
    Detection,
    Mode,
    ObjectClass,
    State,
    Track,
    box2d_from_state,
    pack_covs,
    unpack_covs,
)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


E1 = _unit([1, 0, 0, 0])
E2 = _unit([0, 1, 0, 0])
E3 = _unit([0, 0, 1, 0])
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


def _means(tracks):
    """The stage functions' rows of track means."""
    return np.array([t.state.mean for t in tracks])


def _ages(tracks):
    """The stage functions' column of track ages since update."""
    return np.array([t.age_since_update for t in tracks], dtype=np.int64)


def _galleries(tracks):
    """Stage 1's rows of track galleries."""
    return [t.gallery for t in tracks]


def _obs(dets):
    """The stage functions' rows of detection observations."""
    return (MotionModel2D if dets[0].is_2d else MotionModel3D).observations(dets)


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
    res = stage1_cascade(_means([track]), [det], _obs([det]), PED_2D,
                         ages=_ages([track]), rows=range(1), cols=range(1),
                         galleries=_galleries([track]))
    assert res.matches == [(0, 0)]


def test_stage1_2d_appearance_gate():
    track = _track2(1, _det2(100, 100), gallery=[E1])
    det = _det2(100, 100, embedding=E2)  # same place, different appearance
    res = stage1_cascade(_means([track]), [det], _obs([det]), PED_2D,
                         ages=_ages([track]), rows=range(1), cols=range(1),
                         galleries=_galleries([track]))
    assert res.matches == []
    assert res.unmatched_tracks == [0]
    assert res.unmatched_detections == [0]


def test_stage1_age_band_priority():
    """A younger track claims the detection even when an older one is a
    better appearance match."""
    young = _track2(1, _det2(100, 100), age=0, gallery=[E_CLOSE])
    old = _track2(2, _det2(100, 100), age=2, gallery=[E1])
    det = _det2(100, 100, embedding=E1)
    res = stage1_cascade(_means([young, old]), [det], _obs([det]), PED_2D,
                         ages=_ages([young, old]), rows=range(2), cols=range(1),
                         galleries=_galleries([young, old]))
    assert res.matches == [(0, 0)]
    assert res.unmatched_tracks == [1]


def test_stage1_second_band_gets_leftovers():
    young = _track2(1, _det2(100, 100), age=0, gallery=[E1])
    old = _track2(2, _det2(500, 500), age=2, gallery=[E2])
    dets = [_det2(100, 100, embedding=E1), _det2(500, 500, embedding=E2)]
    res = stage1_cascade(_means([young, old]), dets, _obs(dets), PED_2D,
                         ages=_ages([young, old]), rows=range(2), cols=range(2),
                         galleries=_galleries([young, old]))
    assert set(res.matches) == {(0, 0), (1, 1)}


def test_stage1_no_embeddings_means_no_reid_matches():
    track = _track2(1, _det2(100, 100), gallery=[E1])
    det = _det2(100, 100)  # no embedding
    res = stage1_cascade(_means([track]), [det], _obs([det]), PED_2D,
                         ages=_ages([track]), rows=range(1), cols=range(1),
                         galleries=_galleries([track]))
    assert res.matches == []


def test_stage1_iou_fallback_without_reid():
    track = _track2(1, _det2(100, 100))
    det = _det2(102, 101)  # heavy overlap
    res = stage1_cascade(_means([track]), [det], _obs([det]), PED_2D,
                         ages=_ages([track]), rows=range(1), cols=range(1))
    assert res.matches == [(0, 0)]


def test_stage1_3d_center_gate():
    track = _track3(1, _det3(0, 0))
    near = _det3(0.3, 0)
    far = _det3(30, 0)
    res = stage1_cascade(_means([track]), [near, far], _obs([near, far]), PED_3D,
                         ages=_ages([track]), rows=range(1), cols=range(2))
    assert res.matches == [(0, 0)]
    assert res.unmatched_detections == [1]


def test_stage1_3d_age_priority_beats_distance():
    t_young = _track3(1, _det3(0, 0), age=0)
    t_old = _track3(2, _det3(1.0, 0), age=1)
    det = _det3(0.6, 0)  # nearer to the old track
    res = stage1_cascade(_means([t_young, t_old]), [det], _obs([det]), PED_3D,
                         ages=_ages([t_young, t_old]), rows=range(2), cols=range(1))
    assert res.matches == [(0, 0)]


def test_stage1_mahalanobis_gate_blocks_jump():
    cfg = dataclasses.replace(PED_2D, mahalanobis_gating=True)
    model = MotionModel2D()
    track = _track2(1, _det2(100, 100), gallery=[E1])
    det = _det2(900, 900, embedding=E1)  # appearance-identical, 1100 px away
    gated = stage1_cascade(_means([track]), [det], _obs([det]), cfg,
                           ages=_ages([track]), rows=range(1), cols=range(1), model=model,
                           covs=pack_covs(np.array([track.state.cov])),
                           galleries=_galleries([track]))
    assert gated.matches == []
    ungated = stage1_cascade(_means([track]), [det], _obs([det]), PED_2D,
                             ages=_ages([track]), rows=range(1), cols=range(1), model=model,
                             galleries=_galleries([track]))
    assert ungated.matches == [(0, 0)]


@st.composite
def _reid_frames(draw):
    """Tracks with galleries (matrices, lists or deques; empty, tight, or
    with an outlier row that loosens the ball) near a few shared
    appearances, so columns are contested; detections (some without an
    embedding) near the same appearances; ages over two bands; a gate drawn
    at random or within 1e-12 of a pair's certification threshold or of its
    exact cost; and whether the gate equals an exact cost."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([4, 8, 64, 512]))
    protos = rng.normal(size=(3, dim))

    def units(n, noise):
        v = protos[rng.integers(3, size=n)] + rng.normal(0, noise, (n, dim))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    tracks = []
    for k in range(draw(st.integers(0, 7))):
        noise = draw(st.sampled_from([0.01, 0.05, 0.3]))
        g = units(draw(st.sampled_from([0, 1, 1, 3, 6])), noise)
        if len(g) > 1 and draw(st.booleans()):
            g[rng.integers(len(g))] = _unit(rng.normal(size=dim))  # an outlier row
        kind = draw(st.sampled_from([np.asarray, list, deque]))
        tracks.append(_track2(k + 1, _det2(100.0 + 40.0 * k, 200.0 + rng.normal(0, 3.0)),
                              age=int(rng.integers(2))))
        tracks[-1].gallery = kind(g)
    dets = [_det2(100.0 + 40.0 * rng.integers(8) + rng.normal(0, 3.0), 200.0,
                  embedding=None if draw(st.integers(0, 5)) == 0 else e)
            for e in units(draw(st.integers(0, 7)), draw(st.sampled_from([0.01, 0.05, 0.3])))]
    gate, tie = draw(st.floats(0.001, 1.0)), False
    pairs = [(t, d) for t in tracks if len(t.gallery) for d in dets if d.embedding is not None]
    if pairs and draw(st.integers(0, 2)):
        track, det = pairs[draw(st.integers(0, len(pairs) - 1))]
        g, e = np.asarray(track.gallery[-1]), det.embedding
        if draw(st.booleans()):  # the newest row's certification threshold
            gate = 1.0 - g @ e + 1e-9 * (1.0 + np.linalg.norm(g) * np.linalg.norm(e))
        else:  # the pair's exact cost
            gate = 1.0 - float(np.max(np.asarray(track.gallery) @ e))
            tie = True
        offset = draw(st.sampled_from([-1e-12, -3e-13, 0.0, 3e-13, 1e-12]))
        gate, tie = float(gate) + offset, tie and offset == 0.0
    return tracks, dets, min(max(gate, 1e-6), 1.0), tie


@settings(max_examples=300, deadline=None)
@given(case=_reid_frames(), gating=st.booleans())
def test_stage1_with_gallery_balls_equals_stage1_without(case, gating):
    """Stage 1 given the gallery balls, which skips the products of free
    pairs and of pairs the balls rule out, gives the matches and unmatched
    rows that the plain pruned fill gives with the same balls, and those it
    gives with every pair multiplied. At a gate equal to a pair's exact cost
    the product's last bit decides, and a product over fewer columns may
    round it the other way, so there only the pruned fill is the reference."""
    tracks, dets, gate, tie = case
    model = MotionModel2D()
    cfg = dataclasses.replace(PED_2D, t_a=gate, mahalanobis_gating=gating)
    bounds = [gallery_bound(t.gallery) if len(t.gallery) else None for t in tracks]
    means = _means(tracks).reshape(-1, model.dim_state)
    covs = pack_covs(np.array([t.state.cov for t in tracks]).reshape(-1, model.dim_state,
                                                                         model.dim_state))
    obs = model.observations(dets) if dets else np.empty((0, model.dim_obs))

    def run(bounds):
        return stage1_cascade(means, dets, obs, cfg, ages=_ages(tracks),
                              rows=range(len(tracks)), cols=range(len(dets)), model=model,
                              covs=covs, galleries=_galleries(tracks), bounds=bounds)

    result = run(bounds)
    with mock.patch.object(hmot.tracker, "_appearance_costs", oracle_fill):
        assert result == run(bounds)
    if not tie:
        assert result == run(None)


def test_lone_reid_pair_gated_at_its_newest_row_distance():
    """1 - g.e of the newest row g, as the stage computes it for a lone
    pair, can round below the pair's exact cost; gated between the two,
    the pair is still matched as the exact cost says."""
    rng = np.random.default_rng(8)
    for _ in range(50):
        base = rng.normal(size=512)
        g, e = (_unit(base + rng.normal(0, 0.4, 512)) for _ in range(2))
        track = _track2(1, _det2(100, 100))
        track.gallery = g[None]
        det = _det2(100, 100, embedding=e)
        cfg = dataclasses.replace(PED_2D, t_a=1.0 - np.einsum("ij,ij->i", g[None], e[None])[0])
        runs = [stage1_cascade(_means([track]), [det], _obs([det]), cfg,
                               ages=_ages([track]), rows=range(1), cols=range(1),
                               galleries=_galleries([track]), bounds=bounds)
                for bounds in ([gallery_bound(track.gallery)], None)]
        assert runs[0] == runs[1]


def _spy_gallery_rows(monkeypatch):
    """The number of gallery rows of each call of the tracker's cosine fill."""
    calls = []
    fill = hmot.tracker.cosine_gallery_dist_matrix

    def spy(galleries, *args, **kwargs):
        calls.append(sum(len(g) for g in galleries))
        return fill(galleries, *args, **kwargs)

    monkeypatch.setattr(hmot.tracker, "cosine_gallery_dist_matrix", spy)
    return calls


def test_lone_reid_pairs_multiply_no_gallery(monkeypatch):
    """Well-separated tracks, each the only candidate of its detection,
    are matched by appearance without multiplying any gallery row."""
    inst = TrackerInstance(Mode.D2, camera_id=Camera.FRONT)
    inst.step([_det2(100 + 200 * k, 100, embedding=e) for k, e in enumerate((E1, E2, E3))])
    calls = _spy_gallery_rows(monkeypatch)
    res = inst.step([_det2(400 - 200 * k, 300, embedding=e) for k, e in enumerate((E3, E2, E1))])
    assert res.stage_matches == (3, 0, 0)
    assert calls and sum(calls) == 0
    assert [t.hits for t in inst.tracks] == [2, 2, 2]


@pytest.mark.parametrize("rival", [
    [_unit([1, 0.02, 0, 0])],
    # A loose ball that also admits the second detection, which no row of
    # the gallery is within the gate of: the rival's costs come first.
    [_unit([1, 0.02, 0, 0]), E3],
])
def test_contested_reid_column_gets_exact_costs(monkeypatch, rival):
    """Two tracks of one band that both admit a detection compete on
    their exact costs: the one whose older gallery row matches wins,
    although its newest row is farther than the rival's."""
    close = _track2(1, _det2(100, 100), gallery=[E1, E_CLOSE])
    other = _track2(2, _det2(200, 100), gallery=rival)
    tracks = [close, other]
    dets = [_det2(150, 100, embedding=E1), _det2(300, 100, embedding=_unit(rival[-1] + E1))]
    bounds = [gallery_bound(t.gallery) for t in tracks]
    calls = _spy_gallery_rows(monkeypatch)
    res = stage1_cascade(_means(tracks), dets[:len(rival)], _obs(dets[:len(rival)]),
                         PED_2D, ages=_ages(tracks), rows=range(2), cols=range(len(rival)),
                         galleries=_galleries(tracks), bounds=bounds)
    assert res.matches == [(0, 0)]
    assert sum(calls) == 2 + len(rival)


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


def test_stage1_work_does_not_grow_with_a_max(monkeypatch):
    """Stage 1 visits the ages present, not every age up to a_max."""
    cfg = dataclasses.replace(PED_3D, a_max=A_MAX_LIMIT)
    inst = TrackerInstance(Mode.D3, {cls: cfg for cls in ObjectClass})
    inst.step([_det3(0, 0)])
    calls = []  # the bands of each stage's cascade
    real = hmot.tracker._cascade
    monkeypatch.setattr(hmot.tracker, "_cascade",
                        lambda *args, **kw: calls.append(args[4]) or real(*args, **kw))
    start = time.perf_counter()
    res = inst.step([_det3(0.1, 0)])
    assert time.perf_counter() - start < 0.25
    assert res.stage_matches == (1, 0, 0)
    assert calls[0] == [[0]]  # stage 1: one band, the one track's row


def _corners_one_at_a_time(boxes, factor):
    """(x1, y1, x2, y2) of each box scaled by ``factor``, in Python floats."""
    out = np.empty((len(boxes), 4))
    for i, b in enumerate(boxes):
        hw, hh = b.w * factor / 2.0, b.h * factor / 2.0
        out[i] = (b.cx - hw, b.cy - hh, b.cx + hw, b.cy + hh)
    return out


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       factor=st.sampled_from([1.0, 2.0, 3.0]), bad=st.booleans())
def test_iou_corners_of_state_rows_equal_box_objects_bit_for_bit(seed, n, factor, bad):
    """The IoU fill reads 2D state rows directly; its corners equal those
    of :func:`box2d_from_state` boxes computed one at a time, and a state
    with a non-positive w raises the same error."""
    rng = np.random.default_rng(seed)
    means = np.concatenate([rng.uniform(0, 1900, (n, 2)), rng.uniform(0.1, 3.0, (n, 1)),
                            rng.uniform(5, 300, (n, 1)), rng.normal(0, 3, (n, 4))], axis=1)
    boxes = [box2d_from_state(State(m, np.eye(8))) for m in means]
    expected = _corners_one_at_a_time(boxes, factor).view(np.int64)
    assert np.array_equal(_corner_arrays(_state_boxes(means), factor).view(np.int64), expected)
    assert np.array_equal(_corner_arrays(boxes, factor).view(np.int64), expected)
    if bad:
        means[rng.integers(n):, 2] = -means[0, 2]
        with pytest.raises(DegenerateBoxError) as scalar:
            [box2d_from_state(State(m, np.eye(8))) for m in means]
        with pytest.raises(DegenerateBoxError, match=f"^{re.escape(str(scalar.value))}$"):
            _state_boxes(means)


# ---------------------------------------------------------------------------
# stage 2


def test_stage2_matches_by_enlarged_iou():
    track = _track2(1, _det2(100, 100, w=10, h=10))
    det = _det2(111, 100, w=10, h=10)  # 1 px gap: plain IoU 0, enlarged > 0
    res = stage2_relaxed(_means([track]), [det], _obs([det]), PED_2D,
                         ages=_ages([track]), rows=range(1), cols=range(1))
    assert res.matches == [(0, 0)]


def test_stage2_age_eligibility():
    fresh = _track2(1, _det2(100, 100, w=10, h=10), age=STAGE2_MAX_AGE - 1)
    stale = _track2(2, _det2(100, 100, w=10, h=10), age=STAGE2_MAX_AGE)
    det = _det2(100, 100, w=10, h=10)
    res = stage2_relaxed(_means([stale, fresh]), [det], _obs([det]), PED_2D,
                         ages=_ages([stale, fresh]), rows=range(2), cols=range(1))
    assert res.matches == [(1, 0)]
    assert 0 in res.unmatched_tracks


def test_stage2_3d_same_metric_as_stage1():
    track = _track3(1, _det3(0, 0), age=1)
    det = _det3(0.4, 0)
    res = stage2_relaxed(_means([track]), [det], _obs([det]), PED_3D,
                         ages=_ages([track]), rows=range(1), cols=range(1))
    assert res.matches == [(0, 0)]


# ---------------------------------------------------------------------------
# stage 3


def test_stage3_wider_reach_than_stage2():
    track = _track2(1, _det2(100, 100, w=10, h=10))
    det = _det2(119, 100, w=10, h=10)  # 9 px gap
    r2 = stage2_relaxed(_means([track]), [det], _obs([det]), PED_2D,
                        ages=_ages([track]), rows=range(1), cols=range(1))
    r3 = stage3_secondary(_means([track]), [det], _obs([det]), PED_2D, rows=range(1),
                          cols=range(1))
    # 2x enlargement: IoU dist 0.974, outside the 0.95 gate; 3x: 0.776
    assert r2.matches == []
    assert r3.matches == [(0, 0)]


def test_stage3_3d():
    track = _track3(1, _det3(0, 0), age=3)
    det = _det3(0.5, 0, score=0.3)
    res = stage3_secondary(_means([track]), [det], _obs([det]), PED_3D, rows=range(1),
                           cols=range(1))
    assert res.matches == [(0, 0)]


# ---------------------------------------------------------------------------
# the row contract of the stages


def _random_frame(rng, kind, n_tracks, n_dets):
    """Tracks of random ages, their stacked states, detections and their
    observations, all near one another so that many pairs pass the gates.
    In 2D every embedding is close to one of three shared appearances."""
    protos = [_unit(rng.normal(size=8)) for _ in range(3)]

    def det():
        if kind == "3d":
            return _det3(*rng.uniform(0, 4, 2), theta=rng.uniform(-3, 3))
        emb = _unit(protos[rng.integers(3)] + rng.normal(0, 0.1, 8))
        return _det2(*rng.uniform(0, 150, 2), w=rng.uniform(20, 60), h=rng.uniform(40, 120),
                     embedding=emb if kind == "2d-reid" else None)

    model = MotionModel3D() if kind == "3d" else MotionModel2D()
    firsts = [det() for _ in range(n_tracks)]
    tracks = [Track(k + 1, init_track_state(first, model), first.class_label, first.score,
                    age_since_update=int(rng.integers(0, 6)))
              for k, first in enumerate(firsts)]
    for track, first in zip(tracks, firsts):
        if first.embedding is not None:
            track.gallery = np.array([first.embedding])
    dim = model.dim_state
    means = np.array([t.state.mean for t in tracks]).reshape(-1, dim)
    means[:, :2] += rng.normal(0, 0.5 if kind == "3d" else 5.0, (n_tracks, 2))
    covs = pack_covs(np.array([t.state.cov for t in tracks]).reshape(-1, dim, dim))
    dets = [det() for _ in range(n_dets)]
    return model, tracks, means, covs, dets, model.observations(dets)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["2d-iou", "2d-reid", "3d"]),
       n_tracks=st.integers(0, 10), n_dets=st.integers(0, 10), gating=st.booleans())
def test_stages_on_class_rows_equal_stages_on_sub_arrays(seed, kind, n_tracks, n_dets, gating):
    """Each stage, given the whole arrays with track rows R and detection
    rows C, returns what it returns on the sub-arrays of R and C, mapped
    through R and C; no row outside R or C appears in its result."""
    rng = np.random.default_rng(seed)
    model, tracks, means, covs, dets, obs = _random_frame(rng, kind, n_tracks, n_dets)
    R = [int(i) for i in rng.permutation(n_tracks)[:rng.integers(n_tracks + 1)]]
    C = [int(j) for j in rng.permutation(n_dets)[:rng.integers(n_dets + 1)]]
    cfg = dataclasses.replace(PED_3D if kind == "3d" else PED_2D, mahalanobis_gating=gating)

    def run(stage, tracks, means, covs, dets, obs, rows, cols):
        extra = ({"galleries": _galleries(tracks) if kind == "2d-reid" else None,
                  "model": model, "covs": covs}
                 if stage is stage1_cascade else {})
        if stage is not stage3_secondary:
            extra["ages"] = _ages(tracks)
        return stage(means, dets, obs, cfg, rows=rows, cols=cols, **extra)

    for stage in (stage1_cascade, stage2_relaxed, stage3_secondary):
        whole = run(stage, tracks, means, covs, dets, obs, R, C)
        sub = run(stage, [tracks[i] for i in R], means[R], covs[R], [dets[j] for j in C],
                  obs[C], range(len(R)), range(len(C)))
        assert whole.matches == [(R[i], C[j]) for i, j in sub.matches]
        assert whole.unmatched_tracks == [R[i] for i in sub.unmatched_tracks]
        assert whole.unmatched_detections == [C[j] for j in sub.unmatched_detections]
        assert {i for i, _ in whole.matches} | set(whole.unmatched_tracks) <= set(R)
        assert {j for _, j in whole.matches} | set(whole.unmatched_detections) <= set(C)


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


def test_emitted_row_is_an_immutable_tuple():
    """An emitted row is a named tuple of (track_id, box, score,
    class_label): it unpacks and compares equal to a plain tuple."""
    det = _det3(1, 2, score=0.9)
    (em,) = TrackerInstance(Mode.D3).step([det]).emitted
    assert em == (1, det.box, 0.9, ObjectClass.PEDESTRIAN)
    track_id, box, score, label = em
    assert (track_id, box, score, label) == (em.track_id, em.box, em.score, em.class_label)
    with pytest.raises(AttributeError):
        em.score = 0.5


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


@pytest.mark.parametrize("budget", [1, 2, 3, 4])
def test_gallery_budget_fifo(budget):
    configs = {
        cls: dataclasses.replace(cfg, gallery_budget=budget)
        for cls, cfg in default_class_configs(Mode.D2).items()
    }
    inst = TrackerInstance(Mode.D2, configs, camera_id=Camera.FRONT)
    rng = np.random.default_rng(budget)
    expected = deque(maxlen=budget)
    seen = []  # every gallery so far, with a copy of its rows
    for _ in range(budget + 3):
        e = _unit(np.concatenate([[20.0], rng.normal(size=7)]))
        inst.step([_det2(100, 100, embedding=e)])
        expected.append(e)
        [track] = inst.tracks
        gallery = track.gallery
        assert gallery.shape == (len(expected), 8)
        assert gallery.dtype == np.float64 and gallery.flags.c_contiguous
        assert all(np.array_equal(g, e) for g, e in zip(gallery, expected))
        seen.append((gallery, gallery.copy()))
    assert track.track_id == 1 and len(gallery) == budget
    # Adding a row never rewrites a row an earlier gallery showed.
    assert all(np.array_equal(g, rows) for g, rows in seen)


def test_huge_gallery_budget_holds_only_the_rows_seen():
    """Memory follows the rows a gallery holds, not its budget."""
    configs = {cls: dataclasses.replace(cfg, gallery_budget=10 ** 9)
               for cls, cfg in default_class_configs(Mode.D2).items()}
    inst = TrackerInstance(Mode.D2, configs, camera_id=Camera.FRONT)
    rng = np.random.default_rng(0)
    for _ in range(5):
        inst.step([_det2(100, 100, embedding=_unit([20.0, rng.normal()]))])
    [track] = inst.tracks
    assert track.gallery.shape == (5, 2)
    assert track.gallery.base.shape[0] <= 8


def test_track_gallery_is_read_only():
    inst = TrackerInstance(Mode.D2, camera_id=Camera.FRONT)
    inst.step([_det2(100, 100, embedding=E1)])
    inst.step([_det2(100, 100, embedding=E_CLOSE)])
    [track] = inst.tracks
    with pytest.raises(ValueError, match="read-only"):
        track.gallery[0, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        track.gallery[1] += 1.0
    assert np.array_equal(track.gallery, [E1, E_CLOSE])


@pytest.mark.parametrize("kind", [np.array, list, deque])
def test_assigned_gallery_is_measured_on_first_use(kind):
    """A gallery the caller assigns replaces the tracker's, bound and all:
    the fill must not prune by the ball of the gallery it replaced."""
    inst = TrackerInstance(Mode.D2, camera_id=Camera.FRONT)
    inst.step([_det2(100, 100, embedding=E1)])
    [track] = inst.tracks
    mine = kind([E2])
    track.gallery = mine
    res = inst.step([_det2(100, 100, embedding=E2)])
    assert res.stage_matches == (1, 0, 0)
    assert np.array_equal(track.gallery, [E2, E2])
    assert not track.gallery.flags.writeable
    assert len(mine) == 1  # the caller's gallery is copied, never written


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


def _collapse(track):
    """Give a 2D track a height velocity that drives h <= 0 on predict."""
    mean = track.state.mean
    mean[7] = -2.0 * mean[3]
    track.state = State(mean, track.state.cov)


def _make_singular(track):
    """Give a track a covariance whose S has no Cholesky factor."""
    track.state = State(track.state.mean, -1e6 * np.eye(len(track.state.mean)))


def test_filter_failures_keep_deletion_order(caplog):
    """Per class, predict failures come first in track order, then update
    failures in pair order, then age-outs; the batched filter must keep the
    scalar filter's order and messages."""
    inst = TrackerInstance(Mode.D2, camera_id=Camera.FRONT, use_reid=False)
    xs = (100, 300, 500, 700)
    inst.step([_det2(x, 100) for x in xs])
    aged, collapsing, singular, healthy = inst.tracks
    aged.age_since_update = inst.configs[ObjectClass.PEDESTRIAN].a_max
    _collapse(collapsing)
    _make_singular(singular)
    with caplog.at_level(logging.WARNING, logger="hmot.tracker"):
        res = inst.step([_det2(x, 100) for x in xs[1:]])
    assert res.deleted_ids == [2, 3, 1]
    assert [r.getMessage() for r in caplog.records] == [
        "deleting track 2: predict produced non-positive box extents",
        "deleting track 3: singular innovation covariance: Matrix is not positive definite",
    ]
    assert [t.track_id for t in inst.tracks] == [4, 5]  # 5 is born at x = 300
    assert healthy.age_since_update == 0


def test_deletion_order_holds_per_class_in_one_frame(caplog):
    """With predict failures, update failures and age-outs in two classes
    in one frame, each class lists and logs its own in that order, class by
    class, and the IoU-fallback line comes after the first stepped class's
    predict failures, although the filter runs once for both classes."""
    inst = TrackerInstance(Mode.D2, camera_id=Camera.FRONT, use_reid=False)
    veh = dict(w=120.0, h=80.0, cls=ObjectClass.VEHICLE)
    inst.step([_det2(100 + 200 * k, 100) for k in range(4)]
              + [_det2(100 + 200 * k, 600, **veh) for k in range(5)])
    ped = {t.track_id: t for t in inst.tracks if t.class_label is ObjectClass.PEDESTRIAN}
    cars = {t.track_id: t for t in inst.tracks if t.class_label is ObjectClass.VEHICLE}
    assert sorted(cars) == [1, 2, 3, 4, 5] and sorted(ped) == [6, 7, 8, 9]
    for tracks, aged, collapsing, singular in ((cars, [2], [5, 1], [4, 3]),
                                               (ped, [6], [8], [7])):
        for i in aged:
            tracks[i].age_since_update = inst.configs[tracks[i].class_label].a_max
        for i in collapsing:
            _collapse(tracks[i])
        for i in singular:
            _make_singular(tracks[i])
    with caplog.at_level(logging.INFO, logger="hmot.tracker"):
        res = inst.step([_det2(100 + 200 * k, 100) for k in (1, 3)]
                        + [_det2(100 + 200 * k, 600, **veh) for k in (2, 3, 4)])
    assert res.deleted_ids == [1, 5, 3, 4, 2, 8, 7, 6]
    singular = "singular innovation covariance: Matrix is not positive definite"
    assert [r.getMessage() for r in caplog.records] == [
        "deleting track 1: predict produced non-positive box extents",
        "deleting track 5: predict produced non-positive box extents",
        "no appearance embeddings available; stage-1 association falls back to IoU gating",
        f"deleting track 3: {singular}",
        f"deleting track 4: {singular}",
        "deleting track 8: predict produced non-positive box extents",
        f"deleting track 7: {singular}",
    ]
    assert [t.track_id for t in inst.tracks] == [10, 9]
    assert res.created_ids == [10] and res.stage_matches == (4, 0, 0)



def test_step_that_raises_in_a_stage_leaves_every_class_as_it_was():
    """The store is written only after every class has been associated, so
    a stage that raises (here the appearance fill, on a gallery the caller
    assigned with another embedding size) leaves the classes stepped
    before it untouched too."""
    inst = TrackerInstance(Mode.D2, camera_id=Camera.FRONT)
    inst.step([_det2(100, 100, cls=ObjectClass.VEHICLE, embedding=E1),
               _det2(400, 100, embedding=E1)])
    before = [(t.track_id, t.age_since_update, t.hits, t.state.mean.copy())
              for t in inst.tracks]
    inst.tracks[1].gallery = np.ones((2, 3))
    with pytest.raises(ValueError):
        inst.step([_det2(101, 100, cls=ObjectClass.VEHICLE, embedding=E1),
                   _det2(401, 100, embedding=E1)])
    assert inst.frame_index == 1
    after = [(t.track_id, t.age_since_update, t.hits, t.state.mean) for t in inst.tracks]
    assert [a[:3] for a in after] == [b[:3] for b in before]
    assert all(np.array_equal(a[3], b[3]) for a, b in zip(after, before))


@pytest.mark.parametrize("gallery, got", [
    (np.ones((2, 3)), "shape (2, 3)"),
    (E1, "shape (4,)"),
    ([E1, [0.0, math.nan, 1.0, 0.0]], "non-finite rows"),
    ([E1, E2[:3]], "ragged or non-numeric rows"),
])
def test_assigned_gallery_of_another_shape_is_a_validation_error(gallery, got):
    """A gallery the caller assigns must hold finite rows of the embedding
    size; anything else fails the step naming the track and both sizes,
    and the tracker is left as it was."""
    inst = TrackerInstance(Mode.D2, camera_id=Camera.FRONT)
    inst.step([_det2(100, 100, embedding=E1)])
    [track] = inst.tracks
    track.gallery = gallery
    with pytest.raises(ValidationError, match=re.escape(
            f"gallery of track {track.track_id} must hold finite rows of the embedding "
            f"size 4, got {got}")):
        inst.step([_det2(101, 100, embedding=E1)])
    assert inst.frame_index == 1 and track.hits == 1
    track.gallery = [E1]
    assert inst.step([_det2(101, 100, embedding=E1)]).stage_matches == (1, 0, 0)


def test_assigned_gallery_is_checked_before_any_gallery_grows():
    """A step whose stage 1 reads no gallery (no primary detection) checks
    every gallery it appends to before the first append: a caller-assigned
    gallery of non-finite rows fails the step, and no other track's gallery
    has grown, so a retry appends nothing twice."""
    configs = {cls: dataclasses.replace(cfg, t_s=0.5)
               for cls, cfg in default_class_configs(Mode.D2).items()}
    inst = TrackerInstance(Mode.D2, configs, camera_id=Camera.FRONT)
    for f in range(2):
        inst.step([_det2(100 + f, 100, embedding=E1), _det2(300 + f, 100, embedding=E2)])
    tracks = inst.tracks
    assert [len(t.gallery) for t in tracks] == [2, 2]
    tracks[1].gallery = np.full((2, 4), np.nan)
    weak = [_det2(102, 100, score=0.45, embedding=E1), _det2(302, 100, score=0.45, embedding=E2)]
    with pytest.raises(ValidationError, match=re.escape(
            f"gallery of track {tracks[1].track_id} must hold finite rows of the embedding "
            "size 4, got non-finite rows")):
        inst.step(weak)
    assert inst.frame_index == 2 and len(tracks[0].gallery) == 2


def test_one_predict_and_one_update_per_frame(monkeypatch):
    """Every class of an instance shares one filter store: a step makes one
    predict call over all its rows and at most one update call, however
    many classes it steps, and a gap makes one predict per frame stepped."""
    inst = TrackerInstance(Mode.D3)
    frame = [_det3(10 * k, 10 * j, cls=cls)
             for k, cls in enumerate(ObjectClass) for j in range(3)]
    inst.step(frame)
    calls = []
    for name in ("predict", "update"):
        real = getattr(hmot.tracker, name)
        monkeypatch.setattr(hmot.tracker, name, lambda *args, _real=real, _name=name:
                            calls.append((_name, len(args[0]))) or _real(*args))
    for f in range(1, 4):
        calls.clear()
        res = inst.step([dataclasses.replace(d, box=dataclasses.replace(d.box, cx=d.box.cx + f))
                         for d in frame])
        assert res.stage_matches == (9, 0, 0)
        assert calls == [("predict", 9), ("update", 9)]
    calls.clear()
    assert inst.skip(2) == []
    assert [name for name, _ in calls].count("predict") == 2
    assert len(calls) <= 4 and all(rows == 9 for name, rows in calls if name == "predict")
    assert [t.age_since_update for t in inst.tracks] == [2] * 9


def test_skip_of_any_gap_predicts_at_most_a_max_plus_one_frames(monkeypatch):
    """A gap longer than every a_max costs at most a_max + 1 predicts,
    however long: no track outlives that many empty frames."""
    configs = {cls: dataclasses.replace(cfg, a_max=A_MAX_LIMIT)
               for cls, cfg in default_class_configs(Mode.D3).items()}
    inst = TrackerInstance(Mode.D3, configs)
    inst.step([_det3(0, 0), _det3(5, 5, cls=ObjectClass.VEHICLE), _det3(9, 9)])
    inst.step([_det3(0.1, 0), _det3(5, 5, cls=ObjectClass.VEHICLE)])  # 3 misses once
    calls = []
    real = hmot.tracker.predict
    monkeypatch.setattr(hmot.tracker, "predict",
                        lambda *args: calls.append(len(args[0])) or real(*args))
    # Vehicle track 1 and pedestrian tracks 2 and 3; track 3 missed a
    # frame, so it ages out first, then the others in class order.
    assert inst.skip(10 ** 9) == [3, 1, 2]
    assert len(calls) <= A_MAX_LIMIT + 1
    assert inst.tracks == [] and inst.frame_index == 10 ** 9 + 2
    res = inst.step([_det3(0, 0)])
    assert res.frame == 10 ** 9 + 2 and res.created_ids == [4]


def _coasting_scene(a_max):
    """A 2D tracker over a few frames of all three classes, some boxes
    shrinking fast enough that a coast leaves them with no height."""
    configs = {cls: dataclasses.replace(cfg, a_max=a)
               for (cls, cfg), a in zip(default_class_configs(Mode.D2).items(), a_max)}
    inst = TrackerInstance(Mode.D2, configs, camera_id=Camera.FRONT)
    classes = list(ObjectClass)
    rng = np.random.default_rng(sum(a_max))
    for f in range(6):
        inst.step([
            _det2(60 + 70 * k + 2 * f, 300, w=30.0, h=120.0 - f * (3 + 4 * (k % 3)),
                  cls=classes[k % 3], embedding=_unit(rng.normal(size=4)))
            for k in range(9) if not (f == 5 and k == 4)
        ])
    return inst


@pytest.mark.parametrize("a_max", [(1, 2, 3), (3, 30, 8), (40, 2, 12), (20, 20, 20)])
@pytest.mark.parametrize("gap", [1, 2, 7, 15, 25, 45])
def test_skip_equals_stepping_empty_frames(caplog, a_max, gap):
    """Deleted ids, their order, the warnings, the state bits each deleted
    track is held with and everything after the gap are as ``gap`` empty
    steps give them, whether a class dies in the gap or outlives it."""
    runs = []
    for skip in (True, False):
        inst = _coasting_scene(a_max)
        held = {t.track_id: t for t in inst.tracks}
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="hmot.tracker"):
            if skip:
                deleted = inst.skip(gap)
            else:
                deleted = [i for _ in range(gap) for i in inst.step([]).deleted_ids]
        warnings = [r.getMessage() for r in caplog.records]
        dead = [(held[i].state.mean.tobytes(), held[i].state.cov.tobytes()) for i in deleted]
        res = inst.step([_det2(100, 300, embedding=E1)])
        runs.append((deleted, warnings, dead, inst.frame_index, res.created_ids,
                     res.stage_matches, [(t.track_id, t.age_since_update, t.state.mean.tolist())
                                         for t in inst.tracks]))
    assert runs[0] == runs[1]
    if gap > max(a_max) >= 20:
        assert runs[0][1]  # every class dies, some tracks by a coasting failure


def test_held_tracks_follow_the_tracker_and_freeze_when_deleted():
    """A ``Track`` held across steps is the tracker's own: after every step
    it is the entry of ``inst.tracks`` with its id. A track deleted by a
    numeric failure or by age-out keeps the mean it ended in, its store
    shares no memory with the tracker's, and it never changes afterwards."""
    inst = TrackerInstance(Mode.D2, camera_id=Camera.FRONT, use_reid=False)
    inst.step([_det2(x, 100) for x in (100, 300, 500)])
    held = {t.track_id: t for t in inst.tracks}
    _collapse(held[2])
    before = held[2].state.mean
    a_max = inst.configs[ObjectClass.PEDESTRIAN].a_max
    dead = {}  # track id -> (track, copy of the mean it was deleted with)
    for f in range(a_max + 4):
        res = inst.step([_det2(100 + f, 100), _det2(300 + f, 100)])
        for t in inst.tracks:
            held.setdefault(t.track_id, t)
            assert held[t.track_id] is t
        for tid in res.deleted_ids:
            dead[tid] = (held[tid], held[tid].state.mean.copy())
        for track, mean in dead.values():
            assert np.array_equal(track.state.mean, mean)
            assert not (np.shares_memory(track._store.means, inst._store.means)
                        or np.shares_memory(track._store.covs, inst._store.covs))
    assert set(dead) == {2, 3}  # 2 failed in predict, 3 aged out
    # A failed predict leaves the state it started from.
    assert np.array_equal(held[2].state.mean, before)
    assert [t.track_id for t in inst.tracks] == [1, 4]


def _store_copy(inst):
    store = inst._store
    return [c.copy() for c in (store.ids, store.ages, store.hits, store.scores, store.means,
                               store.covs)]


def test_deleted_tracks_freeze_in_full():
    """A deleted track keeps the age, hits and score it had when it was
    deleted through later steps. Writing them, or its state's mean, after
    deletion lands on the track alone: no live track and no store row
    changes."""
    inst = TrackerInstance(Mode.D2, camera_id=Camera.FRONT, use_reid=False)
    inst.step([_det2(x, 100) for x in (100, 300, 500)])
    inst.step([_det2(x + 1, 100, score=0.8) for x in (100, 300, 500)])
    dead = inst.tracks[2]
    a_max = inst.configs[ObjectClass.PEDESTRIAN].a_max
    for f in range(a_max + 4):
        res = inst.step([_det2(102 + f, 100), _det2(302 + f, 100)])
        if f >= a_max:
            assert (dead.age_since_update, dead.hits, dead.score) == (a_max + 1, 2, 0.8)
    assert res.deleted_ids == [] and dead not in inst.tracks
    store = _store_copy(inst)
    live = [(t.age_since_update, t.hits, t.score, t.state.mean.copy()) for t in inst.tracks]
    dead.age_since_update, dead.hits, dead.score = 0, 99, 0.1
    dead.state = State(np.full(8, 7.0), dead.state.cov)
    assert all(np.array_equal(a, b) for a, b in zip(_store_copy(inst), store))
    after = [(t.age_since_update, t.hits, t.score, t.state.mean) for t in inst.tracks]
    assert [a[:3] for a in after] == [b[:3] for b in live]
    assert all(np.array_equal(a[3], b[3]) for a, b in zip(after, live))
    inst.step([_det2(110, 100), _det2(310, 100)])
    assert (dead.age_since_update, dead.hits, dead.score) == (0, 99, 0.1)
    assert (dead.state.mean == 7.0).all()


def test_deleted_track_holds_only_its_own_row():
    """A track deleted by age-out shares no memory with the store's means
    and covariances of the step it died in: it holds a copy of its own row,
    the state of the last step it lived through, with the age, hits and
    score it had at deletion."""
    inst = TrackerInstance(Mode.D3)
    inst.step([_det3(0, 0), _det3(20, 0)])
    inst.step([_det3(0.1, 0), _det3(20.1, 0, score=0.7)])
    dead = inst.tracks[1]
    a_max = inst.configs[ObjectClass.PEDESTRIAN].a_max
    for _ in range(a_max):
        inst.step([_det3(0.1, 0)])
    mean, cov = dead.state.mean.copy(), dead.state.cov.copy()
    means, covs = inst._store.means, inst._store.covs
    assert inst.step([_det3(0.1, 0)]).deleted_ids == [dead.track_id]
    for column in (means, covs, inst._store.means, inst._store.covs):
        assert not np.shares_memory(dead._store.means, column)
        assert not np.shares_memory(dead._store.covs, column)
    assert np.array_equal(dead.state.mean, mean) and np.array_equal(dead.state.cov, cov)
    assert (dead.age_since_update, dead.hits, dead.score) == (a_max + 1, 2, 0.7)


def _values(track):
    return (track.track_id, track.class_label, track.age_since_update, track.hits, track.score,
            track.state.mean.tolist(), track.state.cov.tolist())


def test_copied_track_is_a_snapshot():
    """``copy.copy`` of a held track is a track of its own with the values
    the track had then. The track's later steps, its deletion and the track
    that moves into its row never reach the copy, and a write to the copy
    reaches neither the track nor the store."""
    inst = TrackerInstance(Mode.D3)
    inst.step([_det3(0, 0), _det3(20, 0), _det3(40, 0)])
    inst.step([_det3(0.1, 0), _det3(20.1, 0, score=0.7), _det3(40.1, 0)])
    held = inst.tracks[1]
    snap = copy.copy(held)
    assert snap is not held and _values(snap) == _values(held) == _values(copy.copy(snap))
    values = _values(snap)
    a_max = inst.configs[ObjectClass.PEDESTRIAN].a_max
    deleted = []
    for f in range(a_max + 3):
        deleted += inst.step([_det3(0.2 + f, 0), _det3(40.2 + f, 0, score=0.8)]).deleted_ids
    assert deleted == [held.track_id] and held not in inst.tracks
    assert inst.tracks[1].hits == a_max + 5  # track 3 holds the copied row now
    assert _values(snap) == values
    store, dead = _store_copy(inst), _values(held)
    snap.hits, snap.score = 99, 0.1
    assert all(np.array_equal(a, b) for a, b in zip(_store_copy(inst), store))
    assert _values(held) == dead and (snap.hits, snap.score) == (99, 0.1)


def test_built_track_owns_a_copy_of_its_state():
    """``Track(state=s)`` copies ``s``: an edit of ``s`` afterwards does not
    reach the track. Anything but a ``State`` is a ValidationError naming
    ``Track.state``."""
    state = State(np.arange(10.0) + 1.0, np.eye(10))
    track = Track(1, state, ObjectClass.PEDESTRIAN, 0.9)
    state.mean[0] = -5.0
    assert track.state.mean[0] == 1.0 and not np.shares_memory(track.state.mean, state.mean)
    with pytest.raises(ValidationError, match=r"^Track\.state must be a State, got tuple$"):
        Track(2, (state.mean, state.cov), ObjectClass.PEDESTRIAN, 0.9)


def test_track_id_and_class_label_are_read_only():
    """The store finds a track's row by its id and the tracker keeps it
    among its class's rows, so neither can be assigned, on a held, a
    deleted or a built track."""
    inst = TrackerInstance(Mode.D3)
    inst.step([_det3(0, 0), _det3(20, 0)])
    live, dead = inst.tracks
    for _ in range(inst.configs[ObjectClass.PEDESTRIAN].a_max + 1):
        inst.step([_det3(0, 0)])
    for track in (live, dead, _track3(9, _det3(5, 0))):
        before = (track.track_id, track.class_label, track.hits)
        for field, value in (("track_id", 99), ("class_label", ObjectClass.CYCLIST)):
            with pytest.raises(AttributeError):
                setattr(track, field, value)
        assert (track.track_id, track.class_label, track.hits) == before


@pytest.mark.parametrize("field, value, message", [
    ("track_id", True, r"Track\.track_id must be an integer in -9223372036854775808\.\."),
    ("track_id", 2**63, r"Track\.track_id must be an integer in "),
    ("track_id", 3.0, r"Track\.track_id must be an integer in "),
    ("class_label", "bicycle", r"Track\.class_label must be an ObjectClass or its name, got "
                               r"'bicycle'$"),
    ("class_label", None, r"Track\.class_label must be an ObjectClass or its name"),
], ids=["bool-id", "id-beyond-int64", "float-id", "unknown-label", "no-label"])
def test_track_constructor_checks_id_and_class_label(field, value, message):
    """``Track(...)`` takes an int64 id that is not a bool and an
    ``ObjectClass`` or its name; anything else is a ValidationError naming
    the field."""
    state = State(np.ones(10), np.eye(10))
    args = {"track_id": 1, "class_label": ObjectClass.PEDESTRIAN, field: value}
    with pytest.raises(ValidationError, match=f"^{message}"):
        Track(state=state, score=0.9, **args)
    track = Track(np.int64(-4), state, "cyclist", 0.9)
    assert (track.track_id, track.class_label) == (-4, ObjectClass.CYCLIST)
    assert type(track.track_id) is int


@pytest.mark.parametrize("field, value", [
    ("hits", 2.5), ("hits", True), ("score", math.nan), ("age_since_update", 2**70)])
def test_track_write_outside_its_domain_is_rejected(field, value):
    """A count that is not an int64 integer (a bool included) or a score
    that is not a finite real is a ValidationError naming the field, on a
    live, a deleted and a directly built track alike; nothing changes."""
    inst = TrackerInstance(Mode.D3)
    inst.step([_det3(0, 0), _det3(20, 0)])
    live, dead = inst.tracks
    for _ in range(inst.configs[ObjectClass.PEDESTRIAN].a_max + 1):
        inst.step([_det3(0, 0)])
    assert inst.tracks == [live]
    store = _store_copy(inst)
    for track in (live, dead, _track3(9, _det3(5, 0))):
        before = getattr(track, field)
        with pytest.raises(ValidationError, match=rf"^Track\.{field} must be "):
            setattr(track, field, value)
        assert getattr(track, field) == before
    assert all(np.array_equal(a, b) for a, b in zip(_store_copy(inst), store))


@pytest.mark.parametrize("field, value", [
    ("age_since_update", 2**63 - 1), ("age_since_update", -5),
    ("age_since_update", A_MAX_LIMIT + 2), ("hits", 2**63 - 1), ("hits", -1), ("hits", 2**62 + 1)])
def test_track_counts_outside_their_range_are_rejected(field, value):
    """An age outside 0..A_MAX_LIMIT + 1 or a hit count outside 0..2**62,
    which a step's + 1 could wrap or which could keep a track past its
    a_max, is a ValidationError naming the field, on a held track and in
    the constructor; the store is unchanged."""
    inst = TrackerInstance(Mode.D3)
    inst.step([_det3(0, 0)])
    [track] = inst.tracks
    store = _store_copy(inst)
    with pytest.raises(ValidationError, match=rf"^Track\.{field} must be an integer in 0\.\."):
        setattr(track, field, value)
    assert all(np.array_equal(a, b) for a, b in zip(_store_copy(inst), store))
    with pytest.raises(ValidationError, match=rf"^Track\.{field} must be an integer in 0\.\."):
        Track(9, track.state, ObjectClass.PEDESTRIAN, 0.9, **{field: value})


def test_track_counts_at_their_limits_step_without_wrapping():
    """A held track aged A_MAX_LIMIT + 1 dies on the next frame it misses,
    and one with 2**62 hits counts one more on its next match."""
    inst = TrackerInstance(Mode.D3)
    inst.step([_det3(0, 0), _det3(20, 0)])
    near, far = inst.tracks
    near.hits, far.age_since_update = 2**62, A_MAX_LIMIT + 1
    res = inst.step([_det3(0.1, 0)])
    assert res.deleted_ids == [far.track_id]
    assert (near.hits, near.age_since_update) == (2**62 + 1, 0)
    assert far.age_since_update == A_MAX_LIMIT + 2


@pytest.mark.parametrize("value, message", [
    (("not", "a state"), r"Track\.state must be a State, got tuple"),
    (State(np.ones(8), np.eye(8)), r"Track\.state must have 10 entries, got 8"),
    ("outside", r"Track\.state covariance must be zero off its diagonal"),
])
def test_track_state_write_outside_its_domain_is_rejected(value, message):
    """A ``Track.state`` write of anything but a ``State`` of the track's
    size whose covariance has the filter's pattern is a ValidationError
    naming ``Track.state``, on a held, a deleted and a directly built track
    alike; nothing changes. The constructor rejects the same values but a
    State of the other size."""
    inst = TrackerInstance(Mode.D3)
    inst.step([_det3(0, 0), _det3(20, 0)])
    live, dead = inst.tracks
    for _ in range(inst.configs[ObjectClass.PEDESTRIAN].a_max + 1):
        inst.step([_det3(0, 0)])
    assert inst.tracks == [live]
    store = _store_copy(inst)
    if value == "outside":  # cx and cy correlated
        cov = live.state.cov
        cov[0, 1] = cov[1, 0] = 0.5
        value = State(live.state.mean, cov)
    for track in (live, dead, _track3(9, _det3(5, 0))):
        before = track.state
        with pytest.raises(ValidationError, match=rf"^{message}"):
            track.state = value
        after = track.state
        assert np.array_equal(after.mean, before.mean) and np.array_equal(after.cov, before.cov)
    assert all(np.array_equal(a, b) for a, b in zip(_store_copy(inst), store))
    if "entries" not in message:  # a built track takes a State of either size
        with pytest.raises(ValidationError, match=rf"^{message}"):
            Track(10, value, ObjectClass.PEDESTRIAN, 0.9)


def test_skip_of_a_negative_gap_is_rejected():
    inst = TrackerInstance(Mode.D3)
    with pytest.raises(ValueError, match="^cannot skip -1 frames$"):
        inst.skip(-1)
    assert inst.frame_index == 0


def test_assigned_state_is_written_to_the_row():
    """``track.state`` is a snapshot of the track's row: an edit of it
    changes nothing. A ``State`` assigned to a live track is written to
    the row, so the next step filters it, as the scalar filter would."""
    inst = TrackerInstance(Mode.D3)
    inst.step([_det3(0, 0)])
    [track] = inst.tracks
    snapshot = track.state
    snapshot.mean[0] += 0.05
    assert track.state.mean[0] == 0.0
    assert not np.shares_memory(track.state.mean, inst._store.means)
    track.state = snapshot
    assert track.state is not snapshot
    assert np.array_equal(track.state.mean, snapshot.mean)
    assert np.array_equal(track.state.cov, snapshot.cov)
    det = _det3(0.1, 0)
    inst.step([det])
    expected = hmot.update(hmot.predict(snapshot, inst.model), det, inst.model)
    assert track.state.mean.tobytes() == expected.mean.tobytes()
    assert track.state.cov.tobytes() == expected.cov.tobytes()


def test_step_builds_no_state_object_per_track(monkeypatch):
    """The store is the tracks' state: a step over a 3D frame of 100 live
    tracks, every one matched, makes no per-track ``State``."""
    inst = TrackerInstance(Mode.D3)
    frame = [_det3(3.0 * (k % 10), 3.0 * (k // 10)) for k in range(100)]
    inst.step(frame)
    calls = []
    trusted = State.trusted.__func__
    monkeypatch.setattr(State, "trusted", classmethod(
        lambda cls, *args: calls.append(1) or trusted(cls, *args)))
    res = inst.step([dataclasses.replace(d, box=dataclasses.replace(d.box, cx=d.box.cx + 0.1))
                     for d in frame])
    assert res.stage_matches == (100, 0, 0) and not res.created_ids and not res.deleted_ids
    assert len(res.emitted) == len(inst.tracks) == 100
    assert calls == []


@pytest.mark.parametrize("frame, error, match", [
    # A foreign camera and a class without configuration, in both orders.
    ([_det2(0, 0, camera=Camera.SIDE_LEFT), _det2(0, 0, cls=ObjectClass.CYCLIST)],
     ConfigError, "does not belong"),
    ([_det2(0, 0, cls=ObjectClass.CYCLIST), _det2(0, 0, camera=Camera.SIDE_LEFT)],
     ConfigError, "no configuration for class 'cyclist'"),
    # One detection failing both: the camera is checked first.
    ([_det2(0, 0, cls=ObjectClass.CYCLIST, camera=Camera.SIDE_LEFT)],
     ConfigError, "does not belong"),
    # One detection failing both: its class is checked before its embedding.
    ([_det2(0, 0, embedding=E1), _det2(0, 0, cls=ObjectClass.CYCLIST,
                                         embedding=_unit(np.ones(8)))],
     ConfigError, "no configuration for class 'cyclist'"),
    # A class without configuration before an embedding of another size.
    ([_det2(0, 0, embedding=E1), _det2(0, 0, cls=ObjectClass.CYCLIST),
      _det2(0, 0, embedding=_unit(np.ones(8)))],
     ConfigError, "no configuration for class 'cyclist'"),
    ([_det2(0, 0, embedding=E1), _det2(0, 0, embedding=_unit(np.ones(8))),
      _det2(0, 0, cls=ObjectClass.CYCLIST)],
     ValidationError, "embedding size 8 differs from the first embedding's size 4"),
    # A box of the other mode before everything else.
    ([_det3(0, 0), _det2(0, 0, camera=Camera.SIDE_LEFT)],
     ConfigError, "detection box type does not match tracker mode '2d'"),
])
def test_first_bad_detection_in_input_order_raises(frame, error, match):
    configs = default_class_configs(Mode.D2)
    del configs[ObjectClass.CYCLIST]
    inst = TrackerInstance(Mode.D2, configs, camera_id=Camera.FRONT)
    with pytest.raises(error, match=match):
        inst.step(frame)
    assert inst.tracks == [] and inst.frame_index == 0


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


@settings(max_examples=150, deadline=None)
@given(mode=st.sampled_from(list(Mode)), a_max=st.integers(1, 3), min_hits=st.integers(1, 3),
       frames=st.lists(st.one_of(_frame_dets(st.floats(0.2, 1.0)), st.integers(1, 4)),
                       min_size=1, max_size=10))
def test_track_fields_follow_the_frame_results(mode, a_max, min_hits, frames):
    """Each live track's age, hits and score agree with counters kept from
    the frame results alone, over births, misses, age-outs and gaps (an
    integer is a gap passed to ``skip``). With min_hits 1, a track starts
    with one hit in its frame of birth, gains one in each later frame that
    emits it and is one frame older after every other step; with any
    min_hits, ``emitted`` is the live tracks of age 0 with min_hits hits,
    in id order, and the tracks are grouped by class."""
    configs = {cls: dataclasses.replace(cfg, a_max=a_max, min_hits=min_hits)
               for cls, cfg in default_class_configs(mode).items()}
    inst = TrackerInstance(mode, configs, Camera.FRONT if mode is Mode.D2 else None)
    ages, hits = {}, {}  # by track id, from the results alone
    for frame in frames:
        if isinstance(frame, int):
            for track_id in inst.skip(frame):
                del ages[track_id], hits[track_id]
            ages = {i: age + frame for i, age in ages.items()}
            emitted = []
        else:
            res = inst.step([_grid_det(mode, *d) for d in frame])
            for track_id in res.deleted_ids:
                del ages[track_id], hits[track_id]
            emitted = [em.track_id for em in res.emitted]
            assert emitted == sorted(emitted)
            ages = {i: 0 if i in emitted else age + 1 for i, age in ages.items()}
            hits = {i: n + (i in emitted) for i, n in hits.items()}
            ages.update(dict.fromkeys(res.created_ids, 0))
            hits.update(dict.fromkeys(res.created_ids, 1))
        live = {t.track_id: t for t in inst.tracks}
        assert sorted(live) == sorted(ages)
        assert emitted == sorted(i for i, t in live.items()
                                 if t.age_since_update == 0 and t.hits >= min_hits)
        order = [list(ObjectClass).index(t.class_label) for t in live.values()]
        assert order == sorted(order)
        if isinstance(frame, list):
            assert all(live[em.track_id].score == em.score for em in res.emitted)
        if min_hits == 1:
            assert {i: (t.age_since_update, t.hits) for i, t in live.items()} == {
                i: (ages[i], hits[i]) for i in live}


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
