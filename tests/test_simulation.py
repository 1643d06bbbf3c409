"""Tests for the synthetic scenario generator."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmot.errors import ConfigError, ValidationError
from hmot.kalman import NOISE_LIMIT
from hmot.simulation import (
    PRESETS,
    ObjectSpec,
    ScenarioSpec,
    Window,
    _frame_set,
    generate,
    parse_scenario,
    preset,
)
from hmot.types import Box2D, Camera, Mode, ObjectClass


def _walker(obj_id=1, cx=400.0, cy=300.0, vx=4.0, vy=0.0, cls=ObjectClass.PEDESTRIAN):
    return ObjectSpec(obj_id=obj_id, class_label=cls, init=(cx, cy, 50.0, 160.0),
                      velocity=(vx, vy))


def _spec2(objects, **kwargs):
    kwargs.setdefault("n_frames", 20)
    return ScenarioSpec(mode=Mode.D2, objects=tuple(objects), **kwargs)


def _spec3(objects, **kwargs):
    kwargs.setdefault("n_frames", 20)
    return ScenarioSpec(mode=Mode.D3, camera=None, objects=tuple(objects), **kwargs)


def _box3_obj(obj_id=1, turn_rate=0.0, velocity=(1.0, 0.5, 0.0)):
    return ObjectSpec(obj_id=obj_id, class_label=ObjectClass.VEHICLE,
                      init=(10.0, -5.0, 0.8, 1.6, 1.9, 4.4, 0.3),
                      velocity=velocity, turn_rate=turn_rate)


# ---------------------------------------------------------------------------
# Spec construction and validation


def test_window_covers_closed_open():
    w = Window(obj_id=3, start=10, length=2)
    assert not w.covers(3, 9)
    assert w.covers(3, 10)
    assert w.covers(3, 11)
    assert not w.covers(3, 12)
    assert not w.covers(4, 10)


def test_object_spec_coerces_to_float_tuples():
    obj = ObjectSpec(obj_id=1, class_label=ObjectClass.PEDESTRIAN,
                     init=[100, 200, 50, 160], velocity=[1, 2])
    assert obj.init == (100.0, 200.0, 50.0, 160.0)
    assert isinstance(obj.init, tuple)
    assert all(isinstance(v, float) for v in obj.init)
    assert obj.velocity == (1.0, 2.0)


def test_object_spec_takes_a_class_by_name():
    obj = ObjectSpec(obj_id=1, class_label="vehicle", init=[100, 200, 50, 160], velocity=[1, 2])
    assert obj.class_label is ObjectClass.VEHICLE


def test_spec_requires_camera_in_2d():
    with pytest.raises(ValueError):
        _spec2([_walker()], camera=None)


def test_spec_camera_unused_in_3d():
    spec = ScenarioSpec(mode=Mode.D3, n_frames=3, objects=(_box3_obj(),),
                        camera=Camera.FRONT)
    _, dets = generate(spec)
    assert dets[0][0].camera_id is None


def test_spec_rejects_zero_frames():
    with pytest.raises(ValueError):
        _spec2([_walker()], n_frames=0)


def test_spec_rejects_duplicate_object_ids():
    with pytest.raises(ValueError):
        _spec2([_walker(obj_id=1), _walker(obj_id=1, cx=900.0)])


def test_spec_rejects_wrong_init_length_for_mode():
    with pytest.raises(ValueError):
        _spec3([_walker()])  # 2D-style 4-tuple init in a 3D scene
    with pytest.raises(ValueError):
        _spec2([_box3_obj()])


def test_spec_rejects_wrong_velocity_length():
    obj = ObjectSpec(obj_id=1, class_label=ObjectClass.PEDESTRIAN,
                     init=(100.0, 200.0, 50.0, 160.0), velocity=(1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        _spec2([obj])


def test_spec_rejects_bad_probabilities_and_ranges():
    with pytest.raises(ValueError):
        _spec2([_walker()], dropout_prob=1.5)
    with pytest.raises(ValueError):
        _spec2([_walker()], fp_rate=-0.1)
    with pytest.raises(ValueError):
        _spec2([_walker()], tp_score_range=(0.9, 0.4))
    with pytest.raises(ValueError):
        _spec2([_walker()], weak_score_range=(0.2, 1.2))
    with pytest.raises(ValueError):
        _spec2([_walker()], center_noise_std=-1.0)


@pytest.mark.parametrize("field, value", [
    ("center_noise_std", math.nan), ("size_noise_std", math.inf),
    ("embed_noise_std", math.nan), ("heading_noise_std", math.nan),
    ("center_noise_std", -1.0),
])
def test_spec_noise_std_must_be_finite_and_non_negative(field, value):
    """A noise std that is negative or not finite is named at construction,
    in 2D and in 3D, instead of failing later in a box or embedding with no
    field named (or, for a NaN heading std in 2D, not at all)."""
    for make, obj in ((_spec2, _walker()), (_spec3, _box3_obj())):
        with pytest.raises(ValidationError, match=re.escape(
                f"{field} must be >= 0 and finite, got {value}")):
            make([obj], **{field: value})


@pytest.mark.parametrize("field, value", [
    ("turn_rate", math.nan), ("init", (1.0, 2.0, 0.5, 1.8, 0.7, math.inf, 0.0)),
    ("velocity", (math.nan, 0.0, 0.0)),
])
def test_object_spec_numbers_must_be_finite(field, value):
    args = {"obj_id": 7, "class_label": ObjectClass.VEHICLE,
            "init": (1.0, 2.0, 0.5, 1.8, 0.7, 0.9, 0.0), "velocity": (1.0, 0.0, 0.0)}
    with pytest.raises(ValidationError, match=rf"^object 7: {field} must be finite, got "):
        ObjectSpec(**{**args, field: value})


@pytest.mark.parametrize("field, value", [
    ("n_frames", 2.5), ("n_frames", True), ("seed", 1.5), ("seed", False),
    ("embed_dim", 2.5), ("embed_dim", "8"),
])
def test_spec_integer_fields_must_be_integers(field, value):
    """n_frames, seed and embed_dim are integers, never bools or floats;
    a wrong one is named at construction, in 2D and in 3D, not by a bare
    TypeError of ``generate``."""
    for make, obj in ((_spec2, _walker()), (_spec3, _box3_obj())):
        with pytest.raises(ValidationError, match=f"^{field} must be an integer, got {value!r}$"):
            make([obj], **{field: value})


def test_object_id_must_be_an_integer():
    """An object id is an integer, never a bool, so every ground-truth file
    the simulator writes reads back."""
    for value in (1.5, True, "1"):
        with pytest.raises(ValidationError, match=f"^obj_id must be an integer, got {value!r}$"):
            _walker(obj_id=value)


@pytest.mark.parametrize("field, value, message", [
    ("occlusions", (Window(1, True, 1),), r"occlusions\[0\]: needs an integer start .* got start True"),
    ("weak_windows", (Window(1, 2, False),), r"weak_windows\[0\]: needs .* length False"),
    ("occlusions", (Window(True, 0, 2),), r"occlusions\[0\]: obj_id True is not a scenario object"),
    ("reversals", ((1.0, 3),), r"reversals\[0\]: obj_id 1.0 is not a scenario object"),
    ("reversals", ((1, True),), r"reversals\[0\]: needs an integer start .* got start True"),
])
def test_spec_event_integers_are_never_bools_or_floats(field, value, message):
    with pytest.raises(ValidationError, match=message):
        _spec2([_walker()], **{field: value})


def test_spec_integers_may_be_numpy_integers():
    spec = _spec2([_walker(obj_id=np.int64(3))], n_frames=np.int32(4), seed=np.uint8(2),
                  embed_dim=np.int64(8), occlusions=(Window(np.int64(3), np.int16(1), 1),),
                  reversals=((np.int64(3), np.int64(2)),))
    assert [type(v) for v in (spec.objects[0].obj_id, spec.n_frames, spec.seed,
                              spec.embed_dim)] == [int] * 4
    gt, dets = generate(spec)
    assert len(gt) == 4 and [len(frame) for frame in dets] == [1, 0, 1, 1]


@pytest.mark.parametrize("field", ["center_noise_std", "size_noise_std", "heading_noise_std",
                                   "embed_noise_std"])
def test_spec_noise_std_is_at_most_the_noise_limit(field):
    """A noise std may reach hmot.kalman.NOISE_LIMIT (1e6) but not go
    beyond it: a larger one is named at construction, before generating
    overflows."""
    for make, obj in ((_spec2, _walker()), (_spec3, _box3_obj())):
        make([obj], **{field: NOISE_LIMIT})
        for value in (math.nextafter(NOISE_LIMIT, math.inf), 1e200):
            with pytest.raises(ValidationError, match=re.escape(
                    f"{field} must be at most 1e+06, got {value}")):
                make([obj], **{field: value})


# ---------------------------------------------------------------------------
# Ground-truth trajectories


def test_gt_follows_constant_velocity_exactly():
    spec = _spec2([_walker(cx=100.0, cy=250.0, vx=3.0, vy=-2.0)], n_frames=10)
    gt, _ = generate(spec)
    assert len(gt) == 10
    for t, frame in enumerate(gt):
        assert frame.frame == t
        (obj,) = frame.objects
        assert obj.obj_id == 1
        assert obj.box.cx == 100.0 + 3.0 * t
        assert obj.box.cy == 250.0 - 2.0 * t
        assert obj.box.w == 50.0 and obj.box.h == 160.0


def test_gt_lists_every_object_even_when_occluded():
    spec = _spec2([_walker()], occlusions=(Window(1, 5, 3),), n_frames=12)
    gt, dets = generate(spec)
    for frame in gt:
        assert len(frame.objects) == 1
    assert [len(d) for d in dets[4:9]] == [1, 0, 0, 0, 1]


def test_reversal_flips_velocity_entering_named_frame():
    spec = _spec2([_walker(cx=100.0, vx=5.0)], reversals=((1, 4),), n_frames=8)
    gt, _ = generate(spec)
    xs = [frame.objects[0].box.cx for frame in gt]
    # Moves right through frame 3, then the step into frame 4 is leftward.
    assert xs[:4] == [100.0, 105.0, 110.0, 115.0]
    assert xs[4:] == [110.0, 105.0, 100.0, 95.0]


def test_turn_rate_rotates_velocity_and_heading():
    rate = math.pi / 2
    obj = _box3_obj(turn_rate=rate, velocity=(2.0, 0.0, 0.0))
    spec = _spec3([obj], n_frames=5)
    gt, _ = generate(spec)
    boxes = [frame.objects[0].box for frame in gt]
    # The turn applies before each step, so the first move is already +y,
    # then -x, -y, +x back to the start.
    assert boxes[1].cx == pytest.approx(boxes[0].cx, abs=1e-12)
    assert boxes[1].cy == pytest.approx(boxes[0].cy + 2.0)
    assert boxes[2].cx == pytest.approx(boxes[1].cx - 2.0)
    assert boxes[2].cy == pytest.approx(boxes[1].cy, abs=1e-12)
    assert boxes[4].cx == pytest.approx(boxes[0].cx)
    assert boxes[4].cy == pytest.approx(boxes[0].cy)
    assert boxes[0].theta == pytest.approx(0.3)
    assert boxes[1].theta == pytest.approx(0.3 + rate)


# ---------------------------------------------------------------------------
# Detection stream


def test_same_seed_reproduces_stream_exactly():
    spec = preset("occlusion", seed=7)
    gt_a, det_a = generate(spec)
    gt_b, det_b = generate(spec)
    assert len(det_a) == len(det_b)
    for da, db in zip(det_a, det_b):
        assert len(da) == len(db)
        for a, b in zip(da, db):
            assert a.box == b.box
            assert a.score == b.score
            assert a.src_gt == b.src_gt
            if a.embedding is None:
                assert b.embedding is None
            else:
                assert np.array_equal(a.embedding, b.embedding)


def test_different_seeds_differ():
    det_a = generate(preset("occlusion", seed=0))[1]
    det_b = generate(preset("occlusion", seed=1))[1]
    scores_a = [d.score for frame in det_a for d in frame]
    scores_b = [d.score for frame in det_b for d in frame]
    assert scores_a != scores_b


def test_noiseless_detections_reproduce_gt_boxes():
    spec = _spec2([_walker()], n_frames=6)
    gt, dets = generate(spec)
    for frame_gt, frame_dets in zip(gt, dets):
        (det,) = frame_dets
        assert det.box.cx == frame_gt.objects[0].box.cx
        assert det.box.cy == frame_gt.objects[0].box.cy
        assert det.box.w == frame_gt.objects[0].box.w


def test_center_noise_perturbs_boxes():
    spec = _spec2([_walker()], center_noise_std=2.0, n_frames=10, seed=3)
    gt, dets = generate(spec)
    deltas = [abs(d[0].box.cx - g.objects[0].box.cx)
              for g, d in zip(gt, dets) if d]
    assert max(deltas) > 0.1


def test_src_gt_labels_true_detections():
    spec = _spec2([_walker(obj_id=9)], n_frames=5)
    _, dets = generate(spec)
    for frame in dets:
        assert frame[0].src_gt == 9


def test_scores_stay_in_tp_range():
    spec = _spec2([_walker()], tp_score_range=(0.8, 0.9), n_frames=50)
    _, dets = generate(spec)
    for frame in dets:
        for det in frame:
            assert 0.8 <= det.score <= 0.9


def test_weak_window_uses_weak_score_range():
    spec = _spec2([_walker()], weak_windows=(Window(1, 10, 4),),
                  tp_score_range=(0.8, 0.9), weak_score_range=(0.3, 0.4),
                  n_frames=20)
    _, dets = generate(spec)
    for t, frame in enumerate(dets):
        (det,) = frame
        if 10 <= t < 14:
            assert 0.3 <= det.score <= 0.4
        else:
            assert 0.8 <= det.score <= 0.9


def test_dropout_removes_some_detections():
    spec = _spec2([_walker()], dropout_prob=0.5, n_frames=200, seed=11)
    _, dets = generate(spec)
    n = sum(len(frame) for frame in dets)
    assert 40 < n < 160


def test_embeddings_unit_norm_and_stable_per_object():
    spec = _spec2([_walker(obj_id=1), _walker(obj_id=2, cx=1500.0)],
                  embed_dim=64, embed_noise_std=0.01, n_frames=30, seed=5)
    _, dets = generate(spec)
    by_obj = {1: [], 2: []}
    for frame in dets:
        for det in frame:
            assert det.embedding.shape == (64,)
            assert np.linalg.norm(det.embedding) == pytest.approx(1.0, abs=1e-9)
            by_obj[det.src_gt].append(det.embedding)
    # Same object stays near its anchor; different objects are far apart.
    same = np.dot(by_obj[1][0], by_obj[1][-1])
    cross = np.dot(by_obj[1][0], by_obj[2][0])
    assert same > 0.99
    assert cross < 0.6


def test_embed_dim_zero_gives_no_embeddings():
    spec = _spec2([_walker()], embed_dim=0, n_frames=5)
    _, dets = generate(spec)
    for frame in dets:
        for det in frame:
            assert det.embedding is None


def test_false_positives_marked_and_scored():
    spec = _spec2([_walker()], fp_rate=1.0, fp_score_range=(0.1, 0.3),
                  n_frames=40, seed=2)
    _, dets = generate(spec)
    fps = [d for frame in dets for d in frame if d.src_gt is None]
    assert len(fps) == 40
    for det in fps:
        assert 0.1 <= det.score <= 0.3
        assert det.class_label is ObjectClass.PEDESTRIAN
        assert isinstance(det.box, Box2D)
        assert det.embedding is not None


def test_detections_carry_scene_camera():
    spec = _spec2([_walker()], camera=Camera.SIDE_LEFT, n_frames=3)
    _, dets = generate(spec)
    assert dets[0][0].camera_id is Camera.SIDE_LEFT

    spec3 = _spec3([_box3_obj()], n_frames=3)
    _, dets3 = generate(spec3)
    assert dets3[0][0].camera_id is None


# ---------------------------------------------------------------------------
# Presets


def test_preset_names():
    assert set(PRESETS) == {"clean-2d", "clean-3d", "occlusion", "crossing"}


def test_preset_unknown_name():
    with pytest.raises(ConfigError, match="unknown preset"):
        preset("clean-4d")


def test_negative_seed_rejected():
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        _spec2([_walker()], seed=-1)
    for name in sorted(PRESETS):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -3"):
            preset(name, seed=-3)


def test_preset_seed_feeds_layout_and_noise():
    a = preset("clean-2d", seed=0)
    b = preset("clean-2d", seed=1)
    assert a.sequence_id == "clean2d-0"
    assert b.sequence_id == "clean2d-1"
    assert a.objects[0].init != b.objects[0].init


def test_clean_presets_have_no_corruption():
    for name in ("clean-2d", "clean-3d"):
        spec = preset(name, seed=0)
        assert spec.dropout_prob == 0.0
        assert spec.fp_rate == 0.0
        assert not spec.occlusions
        assert spec.n_frames == 100
        assert len(spec.objects) == 20


def test_crossing_preset_shape():
    spec = preset("crossing", seed=4)
    assert spec.mode is Mode.D2
    assert len(spec.objects) == 2
    assert len(spec.occlusions) == 2
    assert spec.reversals == ((1, 31), (2, 31))
    # Both paths aim at the image center for frame 30.
    for obj in spec.objects:
        cx, cy = obj.init[0], obj.init[1]
        vx, vy = obj.velocity
        assert cx + 30 * vx == pytest.approx(960.0)
        assert cy + 30 * vy == pytest.approx(640.0)


def test_occlusion_preset_shape():
    spec = preset("occlusion", seed=0)
    assert len(spec.objects) == 20
    assert len(spec.occlusions) == 6
    assert len(spec.weak_windows) == 6
    assert len(spec.reversals) == 6
    assert spec.fp_rate > 0
    assert all(o.class_label is ObjectClass.PEDESTRIAN for o in spec.objects)


# ---------------------------------------------------------------------------
# JSON scenario documents


def _doc(**extra):
    doc = {
        "mode": "2d",
        "n_frames": 10,
        "camera": "front",
        "objects": [
            {"obj_id": 1, "class": "pedestrian",
             "init": [400, 300, 50, 160], "velocity": [2, 0]},
        ],
    }
    doc.update(extra)
    return doc


def test_parse_scenario_minimal():
    spec = parse_scenario(_doc())
    assert spec.mode is Mode.D2
    assert spec.n_frames == 10
    assert spec.camera is Camera.FRONT
    assert spec.objects[0].init == (400.0, 300.0, 50.0, 160.0)
    assert spec.seed == 0


def test_parse_scenario_full_round_trip():
    doc = _doc(
        sequence_id="seq9",
        center_noise_std=1.5,
        dropout_prob=0.1,
        fp_rate=0.2,
        tp_score_range=[0.7, 0.9],
        weak_score_range=[0.3, 0.4],
        occlusions=[[1, 4, 2]],
        weak_windows=[[1, 7, 3]],
        reversals=[[1, 5]],
        embed_dim=32,
        seed=17,
    )
    spec = parse_scenario(doc)
    assert spec.sequence_id == "seq9"
    assert spec.occlusions == (Window(1, 4, 2),)
    assert spec.weak_windows == (Window(1, 7, 3),)
    assert spec.reversals == ((1, 5),)
    assert spec.tp_score_range == (0.7, 0.9)
    assert spec.seed == 17
    gt, dets = generate(spec)
    assert len(gt) == 10


def test_parse_scenario_requires_mode():
    doc = _doc()
    del doc["mode"]
    with pytest.raises(ConfigError, match="spec.mode"):
        parse_scenario(doc)


def test_parse_scenario_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'framez'"):
        parse_scenario(_doc(framez=5))


def test_parse_scenario_rejects_bad_mode_and_camera():
    with pytest.raises(ConfigError, match="spec.mode"):
        parse_scenario(_doc(mode="4d"))
    with pytest.raises(ConfigError, match="spec.camera"):
        parse_scenario(_doc(camera="rear"))


def _with_object(**entry):
    return _doc(objects=[{**_doc()["objects"][0], **entry}])


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "spec: expected a JSON object"),
    (_doc(objects={"obj_id": 1}), "spec.objects: expected a list"),
    (_doc(objects=[3]), "spec.objects[0]: expected an object"),
    (_with_object(speed=2), "spec.objects[0]: unknown key 'speed'"),
    (_doc(embed_dim=-1), "spec: embed_dim must be >= 0"),
])
def test_parse_scenario_rejects_each_shape_with_its_path(doc, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_scenario(doc)


def test_parse_scenario_type_errors_carry_paths():
    with pytest.raises(ConfigError, match=r"spec\.n_frames"):
        parse_scenario(_doc(n_frames="ten"))
    with pytest.raises(ConfigError, match=r"spec\.dropout_prob"):
        parse_scenario(_doc(dropout_prob="most"))
    with pytest.raises(ConfigError, match=r"spec\.tp_score_range"):
        parse_scenario(_doc(tp_score_range=[0.5]))


def test_parse_scenario_rejects_non_finite_numbers():
    with pytest.raises(ConfigError, match=r"spec\.center_noise_std: expected a finite"):
        parse_scenario(_doc(center_noise_std=float("nan")))
    doc = _doc()
    doc["objects"][0]["init"][0] = float("inf")
    with pytest.raises(ConfigError, match=r"spec\.objects\[0\]\.init\[0\]: expected a finite"):
        parse_scenario(doc)


def test_parse_scenario_object_errors_carry_paths():
    doc = _doc()
    doc["objects"][0].pop("velocity")
    with pytest.raises(ConfigError, match=r"spec\.objects\[0\]\.velocity"):
        parse_scenario(doc)

    doc = _doc()
    doc["objects"][0]["class"] = "bicycle"
    with pytest.raises(ConfigError, match=r"objects\[0\]\.class"):
        parse_scenario(doc)

    doc = _doc()
    doc["objects"][0]["init"] = [400, "x", 50, 160]
    with pytest.raises(ConfigError, match=r"objects\[0\]\.init\[1\]"):
        parse_scenario(doc)

    doc = _doc()
    doc["objects"][0]["obj_id"] = 1.5
    with pytest.raises(ConfigError, match=r"objects\[0\]\.obj_id"):
        parse_scenario(doc)


def test_parse_scenario_window_shape_errors():
    with pytest.raises(ConfigError, match=r"spec\.occlusions\[0\]"):
        parse_scenario(_doc(occlusions=[[1, 4]]))
    with pytest.raises(ConfigError, match=r"spec\.reversals\[0\]"):
        parse_scenario(_doc(reversals=[[1, 4, 2]]))


def test_parse_scenario_semantic_errors_become_config_errors():
    # Valid JSON shape but an invalid scene (2D without a camera).
    doc = _doc(camera=None)
    with pytest.raises(ConfigError, match="camera"):
        parse_scenario(doc)


def test_parse_scenario_requires_n_frames():
    doc = _doc()
    del doc["n_frames"]
    with pytest.raises(ConfigError, match=r"spec\.n_frames: required"):
        parse_scenario(doc)


@pytest.mark.parametrize("extra, message", [
    ({"tp_score_range": "ab"}, r"spec\.tp_score_range: expected \[lo, hi\]"),
    ({"fp_score_range": [0.1, 0.2, 0.3]}, r"spec\.fp_score_range: expected \[lo, hi\]"),
    ({"weak_score_range": [0.1, True]}, r"spec\.weak_score_range\[1\]: expected a number"),
    ({"occlusions": 5}, r"spec\.occlusions: expected a list of \[obj_id, start, length\]"),
    ({"weak_windows": [[1, 2.5, 3]]}, r"spec\.weak_windows\[0\]\[1\]: expected an integer"),
    ({"reversals": "1,4"}, r"spec\.reversals: expected a list of \[obj_id, frame\]"),
    ({"reversals": [[1]]}, r"spec\.reversals\[0\]: expected \[obj_id, frame\]"),
])
def test_parse_scenario_list_errors_carry_paths(extra, message):
    with pytest.raises(ConfigError, match=message):
        parse_scenario(_doc(**extra))


@pytest.mark.parametrize("key", ["init", "velocity"])
def test_parse_scenario_object_lists_must_be_lists(key):
    doc = _doc()
    doc["objects"][0][key] = "1234"
    with pytest.raises(ConfigError, match=rf"spec\.objects\[0\]\.{key}: expected a list of numbers"):
        parse_scenario(doc)


# ---------------------------------------------------------------------------
# Scenario checks


@pytest.mark.parametrize("field, value, message", [
    ("occlusions", (Window(99, 0, 5),), r"occlusions\[0\]: obj_id 99 is not a scenario object"),
    ("weak_windows", (Window(1, 0, 2), Window(7, 3, 2)),
     r"weak_windows\[1\]: obj_id 7 is not a scenario object"),
    ("reversals", ((1, 3), (4, 5)), r"reversals\[1\]: obj_id 4 is not a scenario object"),
    ("occlusions", (Window(1, 0, -4),), r"occlusions\[0\]: needs .* length >= 0, got start 0, length -4"),
    ("weak_windows", (Window(1, 6, -1),), r"weak_windows\[0\]: needs .* length >= 0"),
    ("occlusions", (Window(1, 2.5, 3),), r"occlusions\[0\]: needs an integer start .* got start 2.5"),
    ("weak_windows", (Window(1, 2, 3.0),), r"weak_windows\[0\]: needs .* got start 2, length 3.0"),
    ("reversals", ((1, 2.7),), r"reversals\[0\]: needs an integer start .* got start 2.7"),
])
def test_spec_rejects_bad_events(field, value, message):
    with pytest.raises(ValidationError, match=message):
        _spec2([_walker()], **{field: value})


def test_spec_accepts_empty_window():
    spec = _spec2([_walker()], occlusions=(Window(1, 3, 0),), n_frames=6)
    _, dets = generate(spec)
    assert [len(frame) for frame in dets] == [1] * 6


def test_spec_rejects_turn_rate_in_2d():
    obj = ObjectSpec(obj_id=3, class_label=ObjectClass.PEDESTRIAN,
                     init=(100.0, 200.0, 50.0, 160.0), velocity=(1.0, 0.0), turn_rate=0.3)
    with pytest.raises(ValidationError, match="object 3: turn_rate applies to 3D"):
        _spec2([obj])
    doc = _doc()
    doc["objects"][0]["turn_rate"] = 0.3
    with pytest.raises(ConfigError, match="turn_rate applies to 3D"):
        parse_scenario(doc)


def test_parse_scenario_rejects_events_of_unknown_objects():
    with pytest.raises(ConfigError, match=r"occlusions\[0\]: obj_id 99"):
        parse_scenario(_doc(occlusions=[[99, 0, 5], [1, 0, -4]]))
    with pytest.raises(ConfigError, match=r"occlusions\[1\]: needs .* length >= 0, got start 0, length -4"):
        parse_scenario(_doc(occlusions=[[1, 0, 5], [1, 0, -4]]))


@settings(max_examples=300, deadline=None)
@given(
    n_frames=st.integers(1, 30),
    windows=st.lists(
        st.builds(Window, st.integers(1, 4), st.integers(-40, 40), st.integers(0, 40)),
        max_size=8,
    ),
)
def test_frame_set_matches_window_covers(n_frames, windows):
    expected = {
        (obj_id, t)
        for obj_id in range(1, 5)
        for t in range(n_frames)
        if any(w.covers(obj_id, t) for w in windows)
    }
    assert _frame_set(windows, n_frames) == expected
