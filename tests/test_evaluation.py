from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmot.errors import DataFormatError, ValidationError
from hmot.evaluation import (
    ClassCounts,
    FrameObject,
    GroundTruthFrame,
    MotReport,
    evaluate,
    merge_reports,
)
from hmot.types import Box2D, Box3D, Mode, ObjectClass

PED = ObjectClass.PEDESTRIAN
VEH = ObjectClass.VEHICLE


def _obj2(oid, x, y=0.0, cls=PED, size=10.0):
    return FrameObject(oid, Box2D(x, y, size, size), cls)


def _obj3(oid, x, y=0.0, z=0.0, cls=PED):
    return FrameObject(oid, Box3D(x, y, z, 1.8, 0.7, 0.9, 0.0), cls)


def _frames(objs_per_frame):
    return [GroundTruthFrame(t, tuple(objs)) for t, objs in enumerate(objs_per_frame)]


def mota_05_fixture():
    """Six ground-truth boxes, one miss + one false positive + one id switch.

    MOTA = 1 - (1 + 1 + 1)/6 = 0.5 exactly.
    """
    gt = _frames([
        [_obj2(1, 0.0), _obj2(2, 100.0)],
        [_obj2(1, 1.0), _obj2(2, 99.0)],
        [_obj2(1, 2.0), _obj2(2, 98.0)],
    ])
    hyp = _frames([
        [_obj2(11, 0.0), _obj2(12, 100.0)],
        [_obj2(12, 99.0), _obj2(77, 500.0)],       # obj 1 missed, one FP
        [_obj2(13, 2.0), _obj2(12, 98.0)],         # obj 1 returns with new id
    ])
    return gt, hyp


def test_frame_object_takes_a_class_by_name():
    obj = FrameObject(1, Box2D(0.0, 0.0, 10.0, 20.0), "cyclist")
    assert obj.class_label is ObjectClass.CYCLIST


def test_perfect_tracking_2d():
    gt = _frames([[_obj2(1, 0.0), _obj2(2, 50.0)] for _ in range(5)])
    hyp = _frames([[_obj2(9, 0.0), _obj2(8, 50.0)] for _ in range(5)])
    report = evaluate(gt, hyp, mode=Mode.D2)
    c = report.per_class[PED]
    assert (c.gt, c.fp, c.miss, c.mismatch) == (10, 0, 0, 0)
    assert c.mota == 1.0
    assert c.motp == 0.0


def test_perfect_tracking_3d():
    gt = _frames([[_obj3(1, float(t)), _obj3(2, 50.0 - t)] for t in range(5)])
    hyp = _frames([[_obj3(5, float(t)), _obj3(6, 50.0 - t)] for t in range(5)])
    report = evaluate(gt, hyp, mode=Mode.D3)
    c = report.per_class[PED]
    assert c.mota == 1.0
    assert c.motp == 0.0


def test_empty_hypothesis_scores_zero():
    gt = _frames([[_obj2(1, 0.0)] for _ in range(4)])
    report = evaluate(gt, [], mode=Mode.D2)
    c = report.per_class[PED]
    assert c.miss == 4
    assert c.mota == 0.0
    assert math.isnan(c.motp)


def test_missing_hyp_frame_is_all_miss():
    gt = _frames([[_obj2(1, 0.0)], [_obj2(1, 1.0)], [_obj2(1, 2.0)]])
    hyp = [GroundTruthFrame(0, (_obj2(7, 0.0),)),
           GroundTruthFrame(2, (_obj2(7, 2.0),))]
    report = evaluate(gt, hyp, mode=Mode.D2)
    c = report.per_class[PED]
    assert c.miss == 1
    assert c.mismatch == 0  # the match resumes with the same id after the gap


def test_false_positive_counted():
    gt = _frames([[_obj2(1, 0.0)]])
    hyp = _frames([[_obj2(5, 0.0), _obj2(6, 300.0)]])
    c = evaluate(gt, hyp, mode=Mode.D2).per_class[PED]
    assert (c.fp, c.miss, c.matches) == (1, 0, 1)


def test_id_switch_counted_once():
    gt = _frames([[_obj2(1, 0.0)], [_obj2(1, 1.0)], [_obj2(1, 2.0)]])
    hyp = _frames([[_obj2(5, 0.0)], [_obj2(5, 1.0)], [_obj2(9, 2.0)]])
    c = evaluate(gt, hyp, mode=Mode.D2).per_class[PED]
    assert c.mismatch == 1
    assert c.mota == pytest.approx(1.0 - 1.0 / 3.0)


def test_mismatch_detected_across_gt_gap():
    gt = [GroundTruthFrame(0, (_obj2(1, 0.0),)),
          GroundTruthFrame(1, ()),
          GroundTruthFrame(2, (_obj2(1, 0.0),))]
    hyp = [GroundTruthFrame(0, (_obj2(5, 0.0),)),
           GroundTruthFrame(2, (_obj2(6, 0.0),))]
    c = evaluate(gt, hyp, mode=Mode.D2).per_class[PED]
    assert c.mismatch == 1


def test_persistence_beats_nearer_newcomer():
    """An existing correspondence within the gate is kept even when a new
    hypothesis sits closer; the newcomer counts as a false positive."""
    gt = _frames([
        [_obj2(1, 0.0)],
        [_obj2(1, 0.0)],
    ])
    hyp = _frames([
        [_obj2(5, 0.0)],
        [_obj2(5, 3.0), _obj2(6, 0.0)],  # 5 drifted but still matchable
    ])
    c = evaluate(gt, hyp, mode=Mode.D2).per_class[PED]
    assert c.mismatch == 0
    assert c.fp == 1
    assert c.matches == 2


def test_shared_previous_hypothesis_goes_to_first_gt_object():
    """Two objects last matched the same hypothesis id; the first in
    ground-truth order keeps it, even though the second is nearer."""
    gt = _frames([
        [_obj3(1, 0.0)],
        [_obj3(2, 10.0)],
        [_obj3(2, 9.0), _obj3(1, 10.2)],
    ])
    hyp = _frames([[_obj3(7, 0.0)], [_obj3(7, 10.0)], [_obj3(7, 10.0)]])
    c = evaluate(gt, hyp, mode=Mode.D3).per_class[PED]
    assert (c.matches, c.miss, c.mismatch) == (3, 1, 0)
    assert c.dist_sum == pytest.approx(1.0)


def test_mota_half_fixture():
    gt, hyp = mota_05_fixture()
    report = evaluate(gt, hyp, mode=Mode.D2)
    c = report.per_class[PED]
    assert (c.gt, c.fp, c.miss, c.mismatch) == (6, 1, 1, 1)
    assert c.mota == 0.5
    assert report.overall.mota == 0.5


def test_id_bijection_invariance():
    gt, hyp = mota_05_fixture()
    base = evaluate(gt, hyp, mode=Mode.D2).per_class[PED]
    rng = np.random.default_rng(31)
    hyp_ids = sorted({o.obj_id for fr in hyp for o in fr.objects})
    for _ in range(20):
        perm = rng.permutation(len(hyp_ids))
        relabel = {old: 1000 + int(perm[k]) for k, old in enumerate(hyp_ids)}
        renamed = [
            GroundTruthFrame(fr.frame, tuple(
                FrameObject(relabel[o.obj_id], o.box, o.class_label)
                for o in fr.objects))
            for fr in hyp
        ]
        c = evaluate(gt, renamed, mode=Mode.D2).per_class[PED]
        assert c == base


def _random_sequences(rng, mode):
    """Ground truth of a few objects per class moving over a few frames,
    and hypotheses that follow them with jitter, drop out, swap ids and add
    clutter, so every kind of event occurs."""
    classes = list(ObjectClass)
    n_frames = int(rng.integers(1, 12))
    gt_ids = list(range(1, int(rng.integers(1, 7)) + 1))
    cls_of = {g: classes[int(rng.integers(len(classes)))] for g in gt_ids}
    start = {g: rng.uniform(0, 60, 2) for g in gt_ids}
    step = {g: rng.normal(0, 1.5, 2) for g in gt_ids}
    hyp_of = {g: 100 + g for g in gt_ids}
    next_id = 200
    gt, hyp = [], []

    def obj(oid, xy, cls):
        x, y = (float(v) for v in xy)
        if mode is Mode.D2:
            return FrameObject(oid, Box2D(x, y, 10.0, 10.0), cls)
        return FrameObject(oid, Box3D(x, y, 0.0, 1.8, 0.7, 0.9, 0.0), cls)

    for t in range(n_frames):
        gts, hyps = [], []
        for g in gt_ids:
            if rng.random() < 0.1:
                continue
            xy = start[g] + t * step[g]
            gts.append(obj(g, xy, cls_of[g]))
            if rng.random() < 0.15:
                continue
            if rng.random() < 0.1:
                hyp_of[g], next_id = next_id, next_id + 1
            hyps.append(obj(hyp_of[g], xy + rng.normal(0, 1.5, 2), cls_of[g]))
        for _ in range(int(rng.integers(0, 3))):
            hyps.append(obj(next_id, rng.uniform(0, 60, 2), classes[int(rng.integers(3))]))
            next_id += 1
        order = rng.permutation(len(hyps))
        gt.append(GroundTruthFrame(t, tuple(gts)))
        hyp.append(GroundTruthFrame(t, tuple(hyps[i] for i in order)))
    return gt, hyp


@settings(max_examples=100, deadline=None)
@given(mode=st.sampled_from([Mode.D2, Mode.D3]), seed=st.integers(0, 2**32 - 1))
def test_totals_invariant_under_hypothesis_relabelling(mode, seed):
    """Renaming hypothesis ids by any bijection leaves every class's totals
    unchanged: only id equality may matter to the event accounting."""
    rng = np.random.default_rng(seed)
    gt, hyp = _random_sequences(rng, mode)
    ids = sorted({o.obj_id for fr in hyp for o in fr.objects})
    new_ids = rng.choice(10 * len(ids) + 10, size=len(ids), replace=False)
    relabel = {old: int(new) for old, new in zip(ids, new_ids)}
    renamed = [GroundTruthFrame(fr.frame, tuple(
        FrameObject(relabel[o.obj_id], o.box, o.class_label) for o in fr.objects))
        for fr in hyp]
    base = evaluate(gt, hyp, mode=mode)
    assert evaluate(gt, renamed, mode=mode).per_class == base.per_class


def test_gate_2d_iou_threshold():
    gt = _frames([[_obj2(1, 0.0)]])
    hyp_near = _frames([[_obj2(5, 3.3)]])    # IoU 67/133 = 0.504: match
    hyp_far = _frames([[_obj2(5, 3.4)]])     # IoU 66/134 = 0.493: no match
    assert evaluate(gt, hyp_near, mode=Mode.D2).per_class[PED].matches == 1
    c = evaluate(gt, hyp_far, mode=Mode.D2).per_class[PED]
    assert c.matches == 0
    assert (c.fp, c.miss) == (1, 1)


def test_gate_3d_center_threshold():
    gt = _frames([[_obj3(1, 0.0)]])
    assert evaluate(gt, _frames([[_obj3(5, 1.9)]]),
                    mode=Mode.D3).per_class[PED].matches == 1
    assert evaluate(gt, _frames([[_obj3(5, 2.1)]]),
                    mode=Mode.D3).per_class[PED].matches == 0


def test_custom_threshold():
    gt = _frames([[_obj3(1, 0.0)]])
    hyp = _frames([[_obj3(5, 2.5)]])
    assert evaluate(gt, hyp, mode=Mode.D3).per_class[PED].matches == 0
    assert evaluate(gt, hyp, mode=Mode.D3,
                    match_threshold=3.0).per_class[PED].matches == 1


def test_threshold_validation():
    gt = _frames([[_obj2(1, 0.0)]])
    with pytest.raises(ValidationError):
        evaluate(gt, gt, mode=Mode.D2, match_threshold=1.5)
    with pytest.raises(ValidationError):
        evaluate(_frames([[_obj3(1, 0.0)]]), [], mode=Mode.D3,
                 match_threshold=0.0)


@pytest.mark.parametrize("mode", [Mode.D2, Mode.D3])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_threshold_rejects_non_finite(mode, value):
    gt = _frames([[_obj2(1, 0.0) if mode is Mode.D2 else _obj3(1, 0.0)]])
    with pytest.raises(ValidationError):
        evaluate(gt, gt, mode=mode, match_threshold=value)


def test_motp_is_mean_matched_distance_3d():
    gt = _frames([[_obj3(1, 0.0)], [_obj3(1, 0.0)]])
    hyp = _frames([[_obj3(5, 1.0)], [_obj3(5, 0.5)]])
    c = evaluate(gt, hyp, mode=Mode.D3).per_class[PED]
    assert c.matches == 2
    assert c.motp == pytest.approx(0.75)


def test_motp_is_mean_iou_dist_2d():
    gt = _frames([[_obj2(1, 0.0)]])
    hyp = _frames([[_obj2(5, 2.0)]])  # IoU = 80/120
    c = evaluate(gt, hyp, mode=Mode.D2).per_class[PED]
    assert c.motp == pytest.approx(1.0 - 80.0 / 120.0)


def test_classes_never_cross_match():
    gt = _frames([[_obj2(1, 0.0, cls=VEH)]])
    hyp = _frames([[_obj2(5, 0.0, cls=PED)]])
    report = evaluate(gt, hyp, mode=Mode.D2)
    assert report.per_class[VEH].miss == 1
    assert report.per_class[PED].fp == 1
    assert report.overall.matches == 0


def test_stray_hyp_frame_rejected():
    gt = _frames([[_obj2(1, 0.0)]])
    hyp = [GroundTruthFrame(0, (_obj2(5, 0.0),)),
           GroundTruthFrame(9, (_obj2(5, 0.0),))]
    with pytest.raises(DataFormatError):
        evaluate(gt, hyp, mode=Mode.D2)


def test_duplicate_frame_rejected():
    gt = [GroundTruthFrame(0, (_obj2(1, 0.0),)),
          GroundTruthFrame(0, (_obj2(2, 50.0),))]
    with pytest.raises(DataFormatError):
        evaluate(gt, [], mode=Mode.D2)


def test_duplicate_object_id_rejected():
    with pytest.raises(ValidationError):
        GroundTruthFrame(0, (_obj2(1, 0.0), _obj2(1, 50.0)))


def test_box_kind_must_match_mode():
    gt2 = _frames([[_obj2(1, 0.0)]])
    with pytest.raises(DataFormatError):
        evaluate(gt2, [], mode=Mode.D3)
    gt3 = _frames([[_obj3(1, 0.0)]])
    with pytest.raises(DataFormatError):
        evaluate(gt3, [], mode=Mode.D2)


def test_empty_gt_class_gives_nan_mota():
    gt = _frames([[_obj2(1, 0.0)]])
    hyp = _frames([[_obj2(5, 0.0)]])
    report = evaluate(gt, hyp, mode=Mode.D2)
    assert math.isnan(report.per_class[ObjectClass.CYCLIST].mota)


def test_merge_reports_sums_counts():
    gt, hyp = mota_05_fixture()
    one = evaluate(gt, hyp, mode=Mode.D2)
    two = merge_reports([one, one])
    assert two.per_class[PED].gt == 12
    assert two.per_class[PED].fp == 2
    assert two.per_class[PED].mota == 0.5
    assert two.overall.gt == 12


def test_class_counts_addition():
    a = ClassCounts(gt=3, fp=1, miss=0, mismatch=1, matches=3, dist_sum=0.3)
    b = ClassCounts(gt=2, fp=0, miss=2, mismatch=0, matches=0, dist_sum=0.0)
    c = a + b
    assert c == ClassCounts(gt=5, fp=1, miss=2, mismatch=1, matches=3,
                            dist_sum=0.3)


def test_3d_centres_beyond_the_float_range_apart_score_fp_and_miss_quietly():
    """Centres at +-1e200 are further apart than the largest float: the
    distance is inf, without an overflow warning, so the pair cannot match."""
    gt = _frames([[_obj3(1, 1e200, 1e200)]])
    hyp = _frames([[_obj3(1, -1e200, -1e200)]])
    overall = evaluate(gt, hyp, mode=Mode.D3).overall
    assert (overall.gt, overall.fp, overall.miss, overall.matches) == (1, 1, 1, 0)
