"""Tests for the detection and track file formats."""

import dataclasses
import json
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import hmot.io
import oracles
from hmot.errors import DataFormatError, ValidationError
from hmot.io import (
    DetectionFrame,
    _json_floats,
    TrackRow,
    gt_to_rows,
    qfloat,
    read_detections,
    read_tracks,
    rows_to_eval_frames,
    write_detections,
    write_tracks,
)
from hmot.simulation import generate, preset
from hmot.types import (BOX2D_EXTENT_LIMIT, BOX3D_EXTENT_LIMIT, Box2D, Box3D, Camera, Detection,
                        Mode, ObjectClass)


def _det2(cx=100.0, cy=200.0, score=0.8, embedding=None):
    return Detection(box=Box2D(cx, cy, 40.0, 80.0), score=score,
                     class_label=ObjectClass.PEDESTRIAN, camera_id=Camera.FRONT,
                     embedding=embedding)


def _det3(cx=5.0, score=0.7):
    return Detection(box=Box3D(cx, -3.0, 0.9, 1.7, 0.6, 0.8, 0.4), score=score,
                     class_label=ObjectClass.CYCLIST, camera_id=None)


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Float quantization


def test_qfloat_nine_significant_digits():
    assert qfloat(1.0) == 1.0
    assert qfloat(123456789.0) == 123456789.0
    assert qfloat(0.123456789123) == 0.123456789
    assert qfloat(np.pi) == 3.14159265


def test_qfloat_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = float(rng.normal() * 10.0 ** rng.integers(-6, 7))
        q = qfloat(x)
        assert qfloat(q) == q


def _dumps_qfloats(values):
    return json.dumps([qfloat(v) for v in values], separators=(",", ":"))


# Values where ``.9g`` text and ``repr`` part: signed zeros and integers, a
# rounding that carries into a new digit, the 1e-4 switch to exponents, the
# 1e9 .. 1e16 range where only ``.9g`` uses an exponent, and subnormals.
_FLOAT_EDGES = [
    0.0, -0.0, 1.0, -1.0, 0.9999999996, 9.99999999995e-05, 0.0001, 1e-4, 1e-5, 1e-7,
    999999999.6, 1e9, -1e9, 1.23456789e9, 999999999999999.9, 1e15, 1e16, -1e16,
    9999999999999998.0, 5e-324, -5e-324, 1.2345678912e-310, 2.2250738585072014e-308,
    1.7976931348623157e308,
]


def test_json_floats_on_edge_values():
    assert _json_floats(_FLOAT_EDGES) == _dumps_qfloats(_FLOAT_EDGES)
    for x in _FLOAT_EDGES:
        assert _json_floats([x]) == _dumps_qfloats([x])
    assert _json_floats([]) == "[]"


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Uniform bit patterns cover every binary exponent, subnormals included.
any_double = st.floats(allow_nan=False, allow_infinity=False) | st.integers(
    0, 2**64 - 1).map(_from_bits).filter(np.isfinite)


@settings(max_examples=300, deadline=None)
@given(st.lists(any_double, max_size=40))
def test_json_floats_equals_json_dumps_of_qfloats(values):
    assert _json_floats(values) == _dumps_qfloats(values)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 3, 128, 512]), st.integers(0, 2**32 - 1))
def test_json_floats_on_unit_vectors(dim, seed):
    v = np.random.default_rng(seed).standard_normal(dim)
    values = (v / np.linalg.norm(v)).tolist()
    assert _json_floats(values) == _dumps_qfloats(values)


# ---------------------------------------------------------------------------
# Detection files


def test_detection_round_trip_2d(tmp_path):
    path = tmp_path / "d.ndjson"
    emb = _unit([1.0, 2.0, 3.0])
    frames = [
        DetectionFrame("seq", 0, Camera.FRONT, [_det2(embedding=emb), _det2(cx=900.0)]),
        DetectionFrame("seq", 1, Camera.FRONT, []),
        DetectionFrame("seq", 2, Camera.FRONT, [_det2(cx=104.0)]),
    ]
    write_detections(path, frames)
    back = read_detections(path)
    assert len(back) == 3
    assert back[0].sequence_id == "seq"
    assert back[0].camera is Camera.FRONT
    assert [f.frame for f in back] == [0, 1, 2]
    assert len(back[0].detections) == 2
    assert back[1].detections == []
    d = back[0].detections[0]
    assert d.box.cx == 100.0 and d.box.h == 80.0
    assert d.score == 0.8
    assert d.class_label is ObjectClass.PEDESTRIAN
    assert d.camera_id is Camera.FRONT
    np.testing.assert_allclose(d.embedding, emb, atol=1e-8)


def test_detection_round_trip_3d(tmp_path):
    path = tmp_path / "d3.ndjson"
    write_detections(path, [DetectionFrame("s3", 4, None, [_det3()])])
    back = read_detections(path)
    assert back[0].camera is None
    d = back[0].detections[0]
    assert isinstance(d.box, Box3D)
    assert d.box.theta == 0.4
    assert d.camera_id is None


def test_detection_rewrite_is_byte_stable(tmp_path):
    spec = preset("occlusion", seed=3)
    _, det_frames = generate(spec)
    a = tmp_path / "a.ndjson"
    b = tmp_path / "b.ndjson"
    write_detections(a, [
        DetectionFrame(spec.sequence_id, t, spec.camera, det_frames[t])
        for t in range(20)
    ])
    back = read_detections(a)
    write_detections(b, back)
    assert a.read_bytes() == b.read_bytes()


def test_detection_src_gt_survives(tmp_path):
    path = tmp_path / "d.ndjson"
    det = Detection(box=Box2D(10.0, 10.0, 5.0, 5.0), score=0.5,
                    class_label=ObjectClass.VEHICLE, camera_id=Camera.SIDE_LEFT,
                    src_gt=42)
    write_detections(path, [DetectionFrame("s", 0, Camera.SIDE_LEFT, [det])])
    back = read_detections(path)
    assert back[0].detections[0].src_gt == 42


def test_write_detections_rejects_non_increasing_frames(tmp_path):
    path = tmp_path / "d.ndjson"
    frames = [
        DetectionFrame("s", 5, Camera.FRONT, []),
        DetectionFrame("s", 5, Camera.FRONT, []),
    ]
    with pytest.raises(ValidationError, match="strictly increasing"):
        write_detections(path, frames)


def test_write_detections_allows_same_frame_other_camera(tmp_path):
    path = tmp_path / "d.ndjson"
    frames = [
        DetectionFrame("s", 5, Camera.FRONT, []),
        DetectionFrame("s", 5, Camera.SIDE_LEFT, []),
        DetectionFrame("other", 5, Camera.FRONT, []),
    ]
    write_detections(path, frames)
    assert len(read_detections(path)) == 3


def test_read_detections_skips_blank_lines(tmp_path):
    path = tmp_path / "d.ndjson"
    line = ('{"sequence_id":"s","frame":0,"camera":"front",'
            '"detections":[]}')
    path.write_text(line + "\n\n" + line.replace('"frame":0', '"frame":1') + "\n")
    assert len(read_detections(path)) == 2


def test_read_detections_empty_file(tmp_path):
    path = tmp_path / "d.ndjson"
    path.write_text("")
    assert read_detections(path) == []


def test_read_detections_line_numbers_in_errors(tmp_path):
    path = tmp_path / "d.ndjson"
    good = '{"sequence_id":"s","frame":0,"camera":"front","detections":[]}'
    path.write_text(good + "\n{not json}\n")
    with pytest.raises(DataFormatError, match="line 2"):
        read_detections(path)


def test_read_detections_rejects_unknown_keys(tmp_path):
    path = tmp_path / "d.ndjson"
    path.write_text('{"sequence_id":"s","frame":0,"camera":"front",'
                    '"detections":[],"extra":1}\n')
    with pytest.raises(DataFormatError, match="unknown key 'extra'"):
        read_detections(path)


def test_read_detections_rejects_missing_keys(tmp_path):
    path = tmp_path / "d.ndjson"
    path.write_text('{"sequence_id":"s","camera":"front","detections":[]}\n')
    with pytest.raises(DataFormatError, match="missing key 'frame'"):
        read_detections(path)


def test_read_detections_rejects_unknown_camera(tmp_path):
    path = tmp_path / "d.ndjson"
    path.write_text('{"sequence_id":"s","frame":0,"camera":"rear","detections":[]}\n')
    with pytest.raises(DataFormatError, match="unknown camera 'rear'"):
        read_detections(path)


def test_read_detections_rejects_frame_regression(tmp_path):
    path = tmp_path / "d.ndjson"
    a = '{"sequence_id":"s","frame":3,"camera":"front","detections":[]}'
    b = '{"sequence_id":"s","frame":2,"camera":"front","detections":[]}'
    path.write_text(a + "\n" + b + "\n")
    with pytest.raises(DataFormatError, match="not increasing"):
        read_detections(path)


def test_read_detections_rejects_bad_entries(tmp_path):
    path = tmp_path / "d.ndjson"

    def frame_with(det_json):
        return ('{"sequence_id":"s","frame":0,"camera":"front","detections":['
                + det_json + "]}\n")

    path.write_text(frame_with('{"class":"pedestrian","score":0.5}'))
    with pytest.raises(DataFormatError, match="exactly one of box2d/box3d"):
        read_detections(path)

    path.write_text(frame_with(
        '{"class":"pedestrian","score":0.5,"box2d":[1,2,3]}'))
    with pytest.raises(DataFormatError, match="box2d must be"):
        read_detections(path)

    path.write_text(frame_with(
        '{"class":"pedestrian","score":1.5,"box2d":[100,100,10,10]}'))
    with pytest.raises(DataFormatError, match="bad detection"):
        read_detections(path)

    path.write_text(frame_with(
        '{"class":"pedestrian","score":0.5,"box2d":[100,100,10,10],"oops":1}'))
    with pytest.raises(DataFormatError, match="unknown detection key 'oops'"):
        read_detections(path)


def _frame_with(det_json):
    good = '{"sequence_id":"s","frame":0,"camera":"front","detections":[]}'
    return (good + '\n{"sequence_id":"s","frame":1,"camera":"front","detections":['
            + det_json + "]}\n")


_PED = '{"class":"pedestrian","score":0.5,"box2d":[100,100,10,20]}'


@pytest.mark.parametrize("line, message", [
    ('{"sequence_id":"s","frame":1,"camera":"front","detections":[3]}',
     "detection entry must be an object"),
    ('{"sequence_id":"s","frame":1,"camera":"front","detections":'
     '[{"score":0.5,"box2d":[100,100,10,20]}]}', "detection needs 'class' and 'score'"),
    ('{"sequence_id":"s","frame":1,"camera":"front","detections":'
     '[{"class":"pedestrian","box2d":[100,100,10,20]}]}', "detection needs 'class' and 'score'"),
    ('[' + _PED + ']', "each line must be a JSON object"),
    ('{"sequence_id":5,"frame":1,"camera":"front","detections":[]}',
     "sequence_id must be a string"),
    ('{"sequence_id":"s","frame":1.0,"camera":"front","detections":[]}',
     "frame must be an integer"),
    ('{"sequence_id":"s","frame":true,"camera":"front","detections":[]}',
     "frame must be an integer"),
    ('{"sequence_id":"s","frame":1,"camera":"front","detections":' + _PED + '}',
     "detections must be a list"),
])
def test_reader_rejects_malformed_records_naming_the_line(tmp_path, line, message):
    path = tmp_path / "d.ndjson"
    path.write_text('{"sequence_id":"s","frame":0,"camera":"front","detections":[]}\n'
                    + line + "\n")
    with pytest.raises(DataFormatError, match=f"^{re.escape('line 2: ' + message)}$"):
        read_detections(path)


def test_read_detections_rejects_boolean_box_value(tmp_path):
    path = tmp_path / "d.ndjson"
    path.write_text(_frame_with(
        '{"class":"pedestrian","score":0.5,"box2d":[100,100,true,10]}'))
    with pytest.raises(DataFormatError, match=r"line 2: box2d must be"):
        read_detections(path)


def test_read_detections_rejects_boolean_score(tmp_path):
    path = tmp_path / "d.ndjson"
    path.write_text(_frame_with(
        '{"class":"pedestrian","score":true,"box2d":[100,100,10,10]}'))
    with pytest.raises(DataFormatError, match=r"line 2: score must be a number"):
        read_detections(path)


def test_read_detections_rejects_boolean_src_gt(tmp_path):
    path = tmp_path / "d.ndjson"
    path.write_text(_frame_with(
        '{"class":"pedestrian","score":0.5,"box2d":[100,100,10,10],"src_gt":true}'))
    with pytest.raises(DataFormatError, match=r"line 2: src_gt must be an integer"):
        read_detections(path)


def test_read_detections_rejects_string_box_value(tmp_path):
    path = tmp_path / "d.ndjson"
    path.write_text(_frame_with(
        '{"class":"pedestrian","score":0.5,"box2d":["100","1e2","10","10"]}'))
    with pytest.raises(DataFormatError, match=r"line 2: box2d must be"):
        read_detections(path)


def test_read_detections_rejects_string_score(tmp_path):
    path = tmp_path / "d.ndjson"
    path.write_text(_frame_with(
        '{"class":"pedestrian","score":"0.5","box2d":[100,100,10,10]}'))
    with pytest.raises(DataFormatError, match=r"line 2: score must be a number"):
        read_detections(path)


def test_read_detections_rejects_boolean_embedding_value(tmp_path):
    path = tmp_path / "d.ndjson"
    path.write_text(_frame_with('{"class":"pedestrian","score":0.5,"box2d":[100,100,10,10],'
                                '"embedding":[true,false]}'))
    with pytest.raises(DataFormatError, match=r"line 2: embedding must be a list of numbers"):
        read_detections(path)


def test_read_detections_rejects_string_embedding_value(tmp_path):
    path = tmp_path / "d.ndjson"
    path.write_text(_frame_with('{"class":"pedestrian","score":0.5,"box2d":[100,100,10,10],'
                                '"embedding":[0.6,"0.8"]}'))
    with pytest.raises(DataFormatError, match=r"line 2: embedding must be a list of numbers"):
        read_detections(path)


_HUGE = "1" + "0" * 400  # a JSON integer no float can hold


@pytest.mark.parametrize("det", [
    '{"class":"pedestrian","score":%s,"box2d":[100,100,10,10]}' % _HUGE,
    '{"class":"pedestrian","score":0.5,"box2d":[%s,100,10,10]}' % _HUGE,
    '{"class":"pedestrian","score":0.5,"box2d":[100,100,10,10],"embedding":[%s,0]}' % _HUGE,
])
def test_read_detections_rejects_integers_beyond_float(tmp_path, det):
    path = tmp_path / "d.ndjson"
    path.write_text(_frame_with(det))
    with pytest.raises(DataFormatError, match=r"line 2: bad detection: int too large"):
        read_detections(path)


def test_read_detections_keeps_integer_values(tmp_path):
    path = tmp_path / "d.ndjson"
    path.write_text(_frame_with('{"class":"pedestrian","score":1,"box2d":[100,100,10,10],'
                                '"embedding":[0,1]}'))
    [_, frame] = read_detections(path)
    [det] = frame.detections
    assert det.score == 1.0 and det.box == Box2D(100.0, 100.0, 10.0, 10.0)
    assert det.embedding.dtype == np.float64 and det.embedding.tolist() == [0.0, 1.0]


def test_streamed_track_writer_keeps_no_keys(tmp_path):
    """Without the duplicate check, memory does not grow with the rows."""
    def rows(n):
        for k in range(n):
            yield TrackRow("s", k // 20, k % 20 + 1, ObjectClass.PEDESTRIAN,
                           Box2D(100.0, 200.0, 40.0, 80.0), 0.9)

    peaks = []
    for n in (2_000, 40_000):
        tracemalloc.start()
        write_tracks(tmp_path / "t.csv", rows(n), Mode.D2, check_duplicates=False)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < peaks[0] + 100_000, peaks


# ---------------------------------------------------------------------------
# Track files


def _rows2():
    return [
        TrackRow("seq", 0, 1, ObjectClass.PEDESTRIAN, Box2D(100.0, 200.0, 40.0, 80.0), 0.9),
        TrackRow("seq", 0, 2, ObjectClass.VEHICLE, Box2D(700.0, 400.0, 160.0, 90.0), 0.8),
        TrackRow("seq", 1, 1, ObjectClass.PEDESTRIAN, Box2D(104.0, 200.0, 40.0, 80.0), 0.88),
    ]


def test_track_round_trip_2d(tmp_path):
    path = tmp_path / "t.csv"
    write_tracks(path, _rows2(), Mode.D2)
    back = read_tracks(path)
    assert back == _rows2()


def test_track_round_trip_3d(tmp_path):
    path = tmp_path / "t.csv"
    rows = [TrackRow("s3", 7, 4, ObjectClass.CYCLIST,
                     Box3D(5.0, -3.0, 0.9, 1.7, 0.6, 0.8, 0.4), 0.75)]
    write_tracks(path, rows, "3d")
    back = read_tracks(path)
    assert back == rows


def test_track_rewrite_is_byte_stable(tmp_path):
    rng = np.random.default_rng(8)
    rows = [
        TrackRow("s", t, i, ObjectClass.PEDESTRIAN,
                 Box2D(float(rng.uniform(0, 1900)), float(rng.uniform(0, 1200)),
                       float(rng.uniform(5, 300)), float(rng.uniform(5, 300))),
                 float(rng.uniform(0.0, 1.0)))
        for t in range(10) for i in range(1, 4)
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_tracks(a, rows, Mode.D2)
    write_tracks(b, read_tracks(a), Mode.D2)
    assert a.read_bytes() == b.read_bytes()


def test_track_header_selects_mode(tmp_path):
    path = tmp_path / "t.csv"
    write_tracks(path, _rows2(), Mode.D2)
    first = path.read_text().splitlines()[0]
    assert first == "sequence_id,frame,track_id,class,cx,cy,w,h,score"


def test_track_empty_file_reads_empty(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("")
    assert read_tracks(path) == []


def test_track_header_only_reads_empty(tmp_path):
    path = tmp_path / "t.csv"
    write_tracks(path, [], Mode.D3)
    assert read_tracks(path) == []


def test_track_blank_row_is_skipped(tmp_path):
    path = tmp_path / "t.csv"
    write_tracks(path, _rows2(), Mode.D2)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2] + ["\n"] + lines[2:]))
    assert read_tracks(path) == _rows2()


def test_track_unrecognized_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("id,frame,x,y\n")
    with pytest.raises(DataFormatError, match="header"):
        read_tracks(path)


def test_track_wrong_column_count(tmp_path):
    path = tmp_path / "t.csv"
    write_tracks(path, _rows2(), Mode.D2)
    with open(path, "a") as fh:
        fh.write("seq,2,1,pedestrian,100\n")
    with pytest.raises(DataFormatError, match="line 5: expected 9 columns"):
        read_tracks(path)


def test_track_bad_value(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("sequence_id,frame,track_id,class,cx,cy,w,h,score\n"
                    "seq,0,1,pedestrian,abc,200,40,80,0.9\n")
    with pytest.raises(DataFormatError, match="line 2: bad track row"):
        read_tracks(path)


@pytest.mark.parametrize("score", ["nan", "7.5", "-0.1", "inf"])
def test_track_score_outside_the_unit_interval_names_its_line(tmp_path, score):
    path = tmp_path / "t.csv"
    path.write_text("sequence_id,frame,track_id,class,cx,cy,w,h,score\n"
                    "seq,0,1,pedestrian,100,200,40,80,0.9\n"
                    f"seq,1,1,pedestrian,100,200,40,80,{score}\n")
    with pytest.raises(DataFormatError, match=re.escape(
            f"line 3: bad track row: score must be in [0, 1], got {float(score)}")):
        read_tracks(path)


@pytest.mark.parametrize("box, message", [
    ("1e308,1e308,1e300,1e300", "2D box extents must be <= 1e+06, got w=1e+300, h=1e+300"),
    ("2e6,100,40,80", "2D box centre must be within +-1e+06, got cx=2000000.0, cy=100.0"),
    ("100,100,1e6,1e-320", "2D box aspect w/h must be finite, got w=1000000.0, h=1e-320"),
])
def test_track_2d_box_outside_the_detection_domain_names_its_line(tmp_path, box, message):
    """A 2D track row takes the boxes a detection file takes, no others."""
    path = tmp_path / "t.csv"
    path.write_text("sequence_id,frame,track_id,class,cx,cy,w,h,score\n"
                    "seq,0,1,pedestrian,100,200,40,80,0.9\n"
                    f"seq,1,1,pedestrian,{box},0.9\n")
    with pytest.raises(DataFormatError, match=re.escape(f"line 3: bad track row: {message}")):
        read_tracks(path)


def test_track_unknown_class(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("sequence_id,frame,track_id,class,cx,cy,w,h,score\n"
                    "seq,0,1,bicycle,100,200,40,80,0.9\n")
    with pytest.raises(DataFormatError, match="bad track row"):
        read_tracks(path)


def test_write_tracks_rejects_duplicates(tmp_path):
    rows = _rows2() + [_rows2()[0]]
    with pytest.raises(ValidationError, match="duplicate"):
        write_tracks(tmp_path / "t.csv", rows, Mode.D2)


def test_write_tracks_rejects_carriage_return_in_sequence_id(tmp_path):
    row = _rows2()[0]
    for seq in ("a\rb", "\r", "a\r\nb"):
        with pytest.raises(ValidationError, match="carriage return"):
            write_tracks(tmp_path / "t.csv",
                         [row, dataclasses.replace(row, sequence_id=seq)], Mode.D2)


def test_read_tracks_rejects_duplicates(tmp_path):
    path = tmp_path / "t.csv"
    line = "seq,0,1,pedestrian,100,200,40,80,0.9\n"
    path.write_text("sequence_id,frame,track_id,class,cx,cy,w,h,score\n" + line + line)
    with pytest.raises(DataFormatError, match="duplicate"):
        read_tracks(path)


def test_write_tracks_rejects_wrong_box_kind(tmp_path):
    rows = [TrackRow("s", 0, 1, ObjectClass.PEDESTRIAN,
                     Box3D(1.0, 2.0, 3.0, 1.0, 1.0, 1.0, 0.0), 0.5)]
    with pytest.raises(ValidationError, match="box kind"):
        write_tracks(tmp_path / "t.csv", rows, Mode.D2)


# ---------------------------------------------------------------------------
# Evaluation adapters


def test_rows_to_eval_frames_groups_and_sorts():
    rows = [
        TrackRow("b", 1, 9, ObjectClass.PEDESTRIAN, Box2D(1.0, 1.0, 2.0, 2.0), 0.5),
        TrackRow("a", 2, 1, ObjectClass.PEDESTRIAN, Box2D(1.0, 1.0, 2.0, 2.0), 0.5),
        TrackRow("a", 0, 1, ObjectClass.PEDESTRIAN, Box2D(1.0, 1.0, 2.0, 2.0), 0.5),
        TrackRow("a", 0, 2, ObjectClass.VEHICLE, Box2D(5.0, 5.0, 2.0, 2.0), 0.5),
    ]
    by_seq = rows_to_eval_frames(rows)
    assert set(by_seq) == {"a", "b"}
    assert [f.frame for f in by_seq["a"]] == [0, 2]
    assert len(by_seq["a"][0].objects) == 2
    assert by_seq["a"][0].objects[0].obj_id == 1
    assert by_seq["b"][0].objects[0].obj_id == 9


def test_gt_to_rows_and_back():
    gt, _ = generate(preset("crossing", seed=0))
    rows = gt_to_rows("crossing-0", gt)
    assert all(r.score == 1.0 for r in rows)
    assert len(rows) == sum(len(f.objects) for f in gt)
    frames = rows_to_eval_frames(rows)["crossing-0"]
    assert len(frames) == len(gt)
    for orig, round_tripped in zip(gt, frames):
        assert orig.frame == round_tripped.frame
        assert len(orig.objects) == len(round_tripped.objects)


@pytest.mark.parametrize("box, message", [
    ("1e200,1e200,1,1e100,1e100,1,0.3",
     "3D box extents must be <= 1e+07, got h=1e+100, w=1e+100, l=1.0"),
    ("2e7,0,1,1.7,0.6,0.8,0", "3D box centre must be within +-1e+07, got cx=20000000.0, "
                              "cy=0.0, cz=1.0"),
    ("0,0,-1e308,1.7,0.6,0.8,0", "3D box centre must be within +-1e+07, got cx=0.0, cy=0.0, "
                                 "cz=-1e+308"),
])
def test_track_3d_box_outside_the_detection_domain_names_its_line(tmp_path, box, message):
    """A 3D track row takes the boxes a detection file takes, no others."""
    path = tmp_path / "t.csv"
    path.write_text("sequence_id,frame,track_id,class,cx,cy,cz,h,w,l,theta,score\n"
                    "seq,0,1,vehicle,5,0,1,1.7,0.6,0.8,0,0.9\n"
                    f"seq,1,1,vehicle,{box},0.9\n")
    with pytest.raises(DataFormatError, match=re.escape(f"line 3: bad track row: {message}")):
        read_tracks(path)


# ---------------------------------------------------------------------------
# Round trips over random content


finite = st.floats(allow_nan=False, allow_infinity=False)
# A 2D box of a detection or track file needs extents up to
# BOX2D_EXTENT_LIMIT, a centre within it and a finite aspect w / h.
detected_centre = st.floats(-BOX2D_EXTENT_LIMIT, BOX2D_EXTENT_LIMIT)
detected_extent = st.floats(min_value=0.0, exclude_min=True, max_value=BOX2D_EXTENT_LIMIT)
detected_box2d = st.builds(Box2D, detected_centre, detected_centre, detected_extent,
                           detected_extent).filter(lambda b: np.isfinite(b.w / b.h))
# A 3D box of a detection or track file needs extents up to
# BOX3D_EXTENT_LIMIT and a centre within it.
detected_centre3d = st.floats(-BOX3D_EXTENT_LIMIT, BOX3D_EXTENT_LIMIT)
detected_extent3d = st.floats(min_value=0.0, exclude_min=True, max_value=BOX3D_EXTENT_LIMIT)
box3d = st.builds(Box3D, detected_centre3d, detected_centre3d, detected_centre3d,
                  detected_extent3d, detected_extent3d, detected_extent3d, finite)
score = st.floats(min_value=0.0, max_value=1.0)
label = st.sampled_from(ObjectClass)
text = st.text(max_size=6)
csv_text = text.filter(lambda s: "\r" not in s)


@st.composite
def unit_vectors(draw):
    v = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12)))
    norm = float(np.linalg.norm(v))
    assume(norm > 1e-3)
    return v / norm


def detections(box, camera, embedding=st.none() | unit_vectors()):
    return st.builds(
        Detection, box=box, score=score, class_label=label, camera_id=st.just(camera),
        embedding=embedding, src_gt=st.none() | st.integers(-10**12, 10**12),
    )


@st.composite
def detection_frames(draw):
    camera = draw(st.none() | st.sampled_from(Camera))
    box = box3d if camera is None else detected_box2d
    sequence_id = draw(text)
    frames = sorted(draw(st.sets(st.integers(0, 10**9), max_size=4)))
    return [
        DetectionFrame(sequence_id, frame, camera,
                       draw(st.lists(detections(box, camera), max_size=3)))
        for frame in frames
    ]


@st.composite
def track_tables(draw):
    mode = draw(st.sampled_from(Mode))
    box = detected_box2d if mode is Mode.D2 else box3d
    rows = draw(st.lists(
        st.builds(TrackRow, csv_text, st.integers(0, 10**9), st.integers(1, 10**9), label,
                  box, score),
        max_size=6, unique_by=lambda r: (r.sequence_id, r.frame, r.track_id),
    ))
    return rows, mode


# Sequence ids that JSON must escape: quotes, backslashes, control and
# non-ASCII characters.
escaped_text = st.text(st.sampled_from('"\\\n\r\t\x00/é字\u2028😀') | st.characters(),
                       max_size=8)
wide_unit_vectors = st.builds(
    lambda dim, seed: _unit(np.random.default_rng(seed).standard_normal(dim)),
    st.sampled_from([2, 64, 512]), st.integers(0, 2**32 - 1),
)


@st.composite
def oracle_frames(draw):
    frames = []
    for sequence_id in draw(st.lists(escaped_text, max_size=3, unique=True)):
        camera = draw(st.none() | st.sampled_from(Camera))
        box = box3d if camera is None else detected_box2d
        embedding = st.none() | unit_vectors() | wide_unit_vectors
        for frame in sorted(draw(st.sets(st.integers(0, 10**9), max_size=3))):
            dets = draw(st.lists(detections(box, camera, embedding), max_size=3))
            frames.append(DetectionFrame(sequence_id, frame, camera, dets))
    return frames


def _fresh_pair(tmp_path, suffix):
    """Two new file paths: rewriting one file per example is slow on some
    file systems, which flush a truncated file when it is closed."""
    where = Path(tempfile.mkdtemp(dir=tmp_path))
    return where / f"a{suffix}", where / f"b{suffix}"


_ROUND_TRIP = settings(max_examples=150, deadline=None,
                       suppress_health_check=[HealthCheck.function_scoped_fixture])


@_ROUND_TRIP
@given(detection_frames())
def test_detection_write_read_write_is_byte_identical(tmp_path, frames):
    a, b = _fresh_pair(tmp_path, ".ndjson")
    write_detections(a, frames)
    back = read_detections(a)
    write_detections(b, back)
    assert a.read_bytes() == b.read_bytes()
    assert [len(f.detections) for f in back] == [len(f.detections) for f in frames]


@_ROUND_TRIP
@given(oracle_frames())
def test_detection_lines_equal_the_json_dumps_oracle(tmp_path, frames):
    path, _ = _fresh_pair(tmp_path, ".ndjson")
    write_detections(path, frames)
    expected = "".join(oracles.detection_line(fr) for fr in frames)
    assert path.read_bytes() == expected.encode("utf-8")


def test_writer_quantizes_once_per_detection(tmp_path, monkeypatch):
    """Writing a frame calls ``qfloat`` for each score only, not once per
    float: 517 calls for a 2D detection with a 512-d embedding."""
    spec = preset("occlusion", seed=11)
    _, det_frames = generate(spec)
    frame = DetectionFrame(spec.sequence_id, 0, spec.camera, max(det_frames, key=len))
    assert frame.detections and all(d.embedding is not None for d in frame.detections)
    calls = []
    real = hmot.io.qfloat
    monkeypatch.setattr(hmot.io, "qfloat", lambda x: calls.append(x) or real(x))
    path = tmp_path / "d.ndjson"
    write_detections(path, [frame])
    assert 0 < len(calls) <= len(frame.detections)
    monkeypatch.undo()
    assert path.read_text() == oracles.detection_line(frame)


@_ROUND_TRIP
@given(track_tables())
def test_track_write_read_write_is_byte_identical(tmp_path, table):
    rows, mode = table
    a, b = _fresh_pair(tmp_path, ".csv")
    write_tracks(a, rows, mode)
    back = read_tracks(a)
    write_tracks(b, back, mode)
    assert a.read_bytes() == b.read_bytes()
    assert len(back) == len(rows)


# ---------------------------------------------------------------------------
# Failed writes


def test_failed_writes_keep_the_earlier_file(tmp_path):
    dets, tracks = tmp_path / "d.ndjson", tmp_path / "t.csv"
    dets.write_text("earlier dets\n")
    tracks.write_text("earlier tracks\n")
    with pytest.raises(ValidationError, match="strictly increasing"):
        write_detections(dets, [DetectionFrame("s", 5, Camera.FRONT, [_det2()]),
                                DetectionFrame("s", 5, Camera.FRONT, [])])
    row = _rows2()[0]
    with pytest.raises(ValidationError, match="duplicate"):
        write_tracks(tracks, [row, row], Mode.D2)
    assert dets.read_text() == "earlier dets\n"
    assert tracks.read_text() == "earlier tracks\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.ndjson", "t.csv"]


def test_write_through_symlink_keeps_the_link(tmp_path):
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_text("old\n")
    link.symlink_to(real)
    write_tracks(link, _rows2(), Mode.D2)
    assert link.is_symlink()
    assert read_tracks(real) == _rows2()
