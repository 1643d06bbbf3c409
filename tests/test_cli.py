"""End-to-end tests for the command-line interface."""

import contextlib
import csv
import hashlib
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hmot
import oracles
from hmot.cli import main
from hmot.config import load_config
from hmot.io import (
    DetectionFrame,
    TrackRow,
    read_detections,
    read_tracks,
    write_detections,
    write_tracks,
)
from hmot.simulation import generate, preset
from hmot.tracker import TrackerInstance
from hmot.types import A_MAX_LIMIT, Box2D, Box3D, Camera, Detection, ObjectClass


def _spec_doc(n_frames=12, seed=0, **extra):
    doc = {
        "mode": "2d",
        "n_frames": n_frames,
        "camera": "front",
        "seed": seed,
        "objects": [
            {"obj_id": 1, "class": "pedestrian",
             "init": [300, 400, 50, 160], "velocity": [4, 0]},
            {"obj_id": 2, "class": "vehicle",
             "init": [1200, 700, 180, 110], "velocity": [-3, 1]},
        ],
    }
    doc.update(extra)
    return doc


def _simulate(tmp_path, doc=None, name="scene"):
    spec_path = tmp_path / f"{name}.json"
    spec_path.write_text(json.dumps(doc if doc is not None else _spec_doc()))
    gt = tmp_path / f"{name}-gt.csv"
    dets = tmp_path / f"{name}-dets.ndjson"
    code = main(["simulate", "--spec", str(spec_path),
                 "--out-gt", str(gt), "--out-dets", str(dets)])
    assert code == 0
    return gt, dets


def _csv_report(captured_out):
    lines = captured_out.splitlines()
    start = lines.index("class,gt,fp,miss,mismatch,mota,motp")
    reader = csv.DictReader(io.StringIO("\n".join(lines[start:])))
    return {row["class"]: row for row in reader}


# ---------------------------------------------------------------------------
# Usage errors


@pytest.mark.parametrize("name, level", [
    ("debug", logging.DEBUG), ("LOUD", logging.WARNING), ("basic_format", logging.WARNING)])
def test_hmot_log_names_a_level_or_falls_back_to_warning(monkeypatch, name, level):
    """``HMOT_LOG`` names a logging level; any other name, or a name of the
    logging module that is no level, gives WARNING."""
    levels = []
    monkeypatch.setenv("HMOT_LOG", name)
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: levels.append(kw["level"]))
    assert main([]) == 1
    assert levels == [level]


def test_no_command_prints_usage(capsys):
    assert main([]) == 1
    assert "usage:" in capsys.readouterr().err


def test_unknown_command_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_required_argument_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["track", "--mode", "2d"])
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err


def test_bad_mode_choice_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--mode", "4d", "--gt", "a", "--hyp", "b"])
    assert exc.value.code == 1


def test_simulate_requires_preset_or_spec():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--out-gt", "g", "--out-dets", "d"])
    assert exc.value.code == 1


# ---------------------------------------------------------------------------
# simulate


def test_simulate_preset_writes_both_files(tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    dets = tmp_path / "dets.ndjson"
    code = main(["simulate", "--preset", "crossing", "--seed", "3",
                 "--out-gt", str(gt), "--out-dets", str(dets)])
    assert code == 0
    out = capsys.readouterr().out
    assert "crossing-3" in out
    rows = read_tracks(gt)
    assert {r.sequence_id for r in rows} == {"crossing-3"}
    frames = read_detections(dets)
    assert len(frames) == 60
    assert frames[0].camera is Camera.FRONT


def test_simulate_spec_file(tmp_path):
    gt, dets = _simulate(tmp_path)
    rows = read_tracks(gt)
    assert {r.track_id for r in rows} == {1, 2}
    assert len(read_detections(dets)) == 12


def test_simulate_seed_overrides_spec(tmp_path):
    doc = _spec_doc(center_noise_std=2.0, seed=0)
    spec_path = tmp_path / "s.json"
    spec_path.write_text(json.dumps(doc))
    outs = []
    for seed in ("11", "12"):
        dets = tmp_path / f"d{seed}.ndjson"
        code = main(["simulate", "--spec", str(spec_path), "--seed", seed,
                     "--out-gt", str(tmp_path / f"g{seed}.csv"),
                     "--out-dets", str(dets)])
        assert code == 0
        outs.append(dets.read_bytes())
    assert outs[0] != outs[1]


def test_simulate_rejects_bad_json(tmp_path, capsys):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text("{not json")
    code = main(["simulate", "--spec", str(spec_path),
                 "--out-gt", str(tmp_path / "g.csv"),
                 "--out-dets", str(tmp_path / "d.ndjson")])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_simulate_rejects_bad_scenario(tmp_path, capsys):
    doc = _spec_doc()
    doc["n_frames"] = 0
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps(doc))
    code = main(["simulate", "--spec", str(spec_path),
                 "--out-gt", str(tmp_path / "g.csv"),
                 "--out-dets", str(tmp_path / "d.ndjson")])
    assert code == 2
    assert "n_frames" in capsys.readouterr().err


def test_simulate_unknown_preset_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--preset", "clean-4d", "--out-gt", "g",
              "--out-dets", "d"])
    assert exc.value.code == 1


@pytest.mark.parametrize("source", ["preset", "spec"])
def test_simulate_negative_seed_exits_2(tmp_path, capsys, source):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec_doc()))
    which = (["--preset", "occlusion"] if source == "preset"
             else ["--spec", str(spec_path)])
    gt, dets = tmp_path / "g.csv", tmp_path / "d.ndjson"
    code = main(["simulate", *which, "--seed", "-1",
                 "--out-gt", str(gt), "--out-dets", str(dets)])
    assert code == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not gt.exists() and not dets.exists()


# ---------------------------------------------------------------------------
# track


def test_track_then_eval_perfect_sequence(tmp_path, capsys):
    gt, dets = _simulate(tmp_path)
    out = tmp_path / "tracks.csv"
    code = main(["track", "--mode", "2d", "--dets", str(dets), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "wrote" in stdout and "track rows" in stdout

    code = main(["eval", "--mode", "2d", "--gt", str(gt), "--hyp", str(out)])
    assert code == 0
    report = _csv_report(capsys.readouterr().out)
    assert report["overall"]["mota"] == "1.0"
    assert report["overall"]["mismatch"] == "0"


def test_track_3d_mode(tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    dets = tmp_path / "dets.ndjson"
    assert main(["simulate", "--preset", "clean-3d", "--seed", "1",
                 "--out-gt", str(gt), "--out-dets", str(dets)]) == 0
    out = tmp_path / "tracks.csv"
    assert main(["track", "--mode", "3d", "--dets", str(dets),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["eval", "--mode", "3d", "--gt", str(gt), "--hyp", str(out)]) == 0
    report = _csv_report(capsys.readouterr().out)
    assert report["overall"]["mota"] == "1.0"


def test_track_missing_detection_file_exits_2(tmp_path, capsys):
    code = main(["track", "--mode", "2d", "--dets", str(tmp_path / "nope.ndjson"),
                 "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_track_mode_detection_mismatch_exits_2(tmp_path, capsys):
    _, dets = _simulate(tmp_path)
    code = main(["track", "--mode", "3d", "--dets", str(dets),
                 "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "camera" in capsys.readouterr().err


def test_track_flags_change_output(tmp_path):
    gt = tmp_path / "gt.csv"
    dets = tmp_path / "dets.ndjson"
    assert main(["simulate", "--preset", "occlusion", "--seed", "0",
                 "--out-gt", str(gt), "--out-dets", str(dets)]) == 0
    full = tmp_path / "full.csv"
    bare = tmp_path / "bare.csv"
    assert main(["track", "--mode", "2d", "--dets", str(dets),
                 "--out", str(full)]) == 0
    assert main(["track", "--mode", "2d", "--dets", str(dets),
                 "--out", str(bare), "--no-stage3", "--no-reid"]) == 0
    assert full.read_bytes() != bare.read_bytes()


def test_track_gap_in_frames_is_coasted(tmp_path):
    det = Detection(box=Box2D(500.0, 400.0, 60.0, 120.0), score=0.9,
                    class_label=ObjectClass.PEDESTRIAN, camera_id=Camera.FRONT)
    det_later = Detection(box=Box2D(504.0, 400.0, 60.0, 120.0), score=0.9,
                          class_label=ObjectClass.PEDESTRIAN, camera_id=Camera.FRONT)
    dets = tmp_path / "d.ndjson"
    write_detections(dets, [
        DetectionFrame("s", 0, Camera.FRONT, [det]),
        DetectionFrame("s", 3, Camera.FRONT, [det_later]),
    ])
    out = tmp_path / "t.csv"
    assert main(["track", "--mode", "2d", "--dets", str(dets),
                 "--out", str(out)]) == 0
    rows = read_tracks(out)
    # The skipped frames count as misses, but the track survives the gap.
    assert {r.frame for r in rows} == {0, 3}
    assert len({r.track_id for r in rows}) == 1


def test_track_respects_config_file(tmp_path):
    _, dets = _simulate(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "2d", "classes": {"pedestrian": {"min_hits": 3}}}))
    out_plain = tmp_path / "plain.csv"
    out_cfg = tmp_path / "strict.csv"
    assert main(["track", "--mode", "2d", "--dets", str(dets),
                 "--out", str(out_plain)]) == 0
    assert main(["track", "--mode", "2d", "--dets", str(dets),
                 "--out", str(out_cfg), "--config", str(cfg)]) == 0
    plain = [r for r in read_tracks(out_plain) if r.class_label is ObjectClass.PEDESTRIAN]
    strict = [r for r in read_tracks(out_cfg) if r.class_label is ObjectClass.PEDESTRIAN]
    # min_hits 3 suppresses the first two pedestrian emissions.
    assert len(strict) == len(plain) - 2


def test_track_config_mode_conflict_exits_2(tmp_path, capsys):
    _, dets = _simulate(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "3d"}))
    code = main(["track", "--mode", "2d", "--dets", str(dets),
                 "--out", str(tmp_path / "t.csv"), "--config", str(cfg)])
    assert code == 2
    assert "contradicts" in capsys.readouterr().err


def test_track_nan_config_exits_2(tmp_path, capsys):
    _, dets = _simulate(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"mode": "2d", "classes": {"pedestrian": {"sigma": NaN}}}')
    code = main(["track", "--mode", "2d", "--dets", str(dets),
                 "--out", str(tmp_path / "t.csv"), "--config", str(cfg)])
    assert code == 2
    assert "config.classes.pedestrian.sigma" in capsys.readouterr().err


def test_track_negative_noise_config_exits_2(tmp_path, capsys):
    _, dets = _simulate(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"mode": "2d", "kalman": {"noise_2d": {"w_p": -0.5}}}')
    code = main(["track", "--mode", "2d", "--dets", str(dets),
                 "--out", str(tmp_path / "t.csv"), "--config", str(cfg)])
    assert code == 2
    assert "config.kalman.noise_2d: w_p" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("a_max", [3, 60])
def test_track_frame_gap_matches_stepping_every_frame(tmp_path, capsys, a_max):
    spec = preset("occlusion", 0)
    _, det_frames = generate(spec)
    kept = [t for t in range(spec.n_frames) if not 20 <= t < 70]
    dets = tmp_path / "d.ndjson"
    write_detections(dets, [DetectionFrame(spec.sequence_id, t, spec.camera, det_frames[t])
                            for t in kept])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"classes": {cls.value: {"a_max": a_max} for cls in ObjectClass}}))
    out = tmp_path / "t.csv"
    assert main(["track", "--mode", "2d", "--dets", str(dets), "--out", str(out),
                 "--config", str(cfg_path)]) == 0
    summary = capsys.readouterr().out

    # Reference: one step per frame number, the gap's frames stepped empty.
    by_frame = {fr.frame: fr.detections for fr in read_detections(dets)}
    cfg = load_config(cfg_path, mode="2d")
    inst = TrackerInstance(cfg.mode, cfg.class_configs, camera_id=spec.camera)
    rows, deleted = [], 0
    for t in range(kept[0], kept[-1] + 1):
        res = inst.step(by_frame.get(t, []))
        deleted += len(res.deleted_ids)
        rows += [TrackRow(spec.sequence_id, t, em.track_id, em.class_label, em.box, em.score)
                 for em in res.emitted]
    ref = tmp_path / "ref.csv"
    write_tracks(ref, rows, cfg.mode)
    assert out.read_bytes() == ref.read_bytes()
    assert f"tracks created, {deleted} deleted" in summary


def _unit_vector(v):
    return v / np.linalg.norm(v)


def test_track_frame_gaps_equal_stepping_for_every_a_max(tmp_path, capsys):
    """Gaps that some classes outlive and others do not: for each a_max
    from 1 to 50 the CSV and the summary equal stepping every frame."""
    rng = np.random.default_rng(7)
    classes = list(ObjectClass)
    frames = []
    for f in (0, 1, 2, 3, 4, 5, 36, 37, 90):
        dets = [Detection(Box2D(60.0 + 70 * k + 2 * f, 300.0, 30.0,
                                max(20.0, 120.0 - min(f, 5) * (3 + 4 * (k % 3)))),
                          0.9, classes[k % 3], camera_id=Camera.FRONT,
                          embedding=_unit_vector(rng.normal(size=4)))
                for k in range(9) if (f + k) % 4]
        frames.append(DetectionFrame("s", f, Camera.FRONT, dets))
    dets_path = tmp_path / "d.ndjson"
    write_detections(dets_path, frames)
    by_frame = {fr.frame: fr.detections for fr in read_detections(dets_path)}
    cfg_path, out, ref = tmp_path / "cfg.json", tmp_path / "t.csv", tmp_path / "ref.csv"
    for a_max in range(1, 51):
        per_class = dict(zip(classes, (a_max, (7 * a_max) % 50 + 1, (13 * a_max) % 50 + 1)))
        cfg_path.write_text(json.dumps(
            {"classes": {cls.value: {"a_max": a} for cls, a in per_class.items()}}))
        assert main(["track", "--mode", "2d", "--dets", str(dets_path), "--out", str(out),
                     "--config", str(cfg_path)]) == 0
        summary = capsys.readouterr().out

        cfg = load_config(cfg_path, mode="2d")
        inst = TrackerInstance(cfg.mode, cfg.class_configs, camera_id=Camera.FRONT)
        rows, matches, created, deleted = [], [0, 0, 0], 0, 0
        for t in range(91):
            res = inst.step(by_frame.get(t, []))
            matches = [m + n for m, n in zip(matches, res.stage_matches)]
            created, deleted = created + len(res.created_ids), deleted + len(res.deleted_ids)
            rows += [TrackRow("s", t, em.track_id, em.class_label, em.box, em.score)
                     for em in res.emitted]
        write_tracks(ref, rows, cfg.mode)
        assert out.read_bytes() == ref.read_bytes(), a_max
        assert summary.splitlines()[0] == (
            f"sequence s: 91 frames, stage matches {matches[0]}/{matches[1]}/{matches[2]}, "
            f"{created} tracks created, {deleted} deleted"), a_max


def test_track_long_frame_gap_is_bounded(tmp_path, capsys):
    det = Detection(box=Box2D(500.0, 400.0, 60.0, 120.0), score=0.9,
                    class_label=ObjectClass.PEDESTRIAN, camera_id=Camera.FRONT)
    dets = tmp_path / "d.ndjson"
    write_detections(dets, [DetectionFrame("s", 0, Camera.FRONT, [det]),
                            DetectionFrame("s", 10 ** 7, Camera.FRONT, [det])])
    out = tmp_path / "t.csv"
    start = time.perf_counter()
    assert main(["track", "--mode", "2d", "--dets", str(dets), "--out", str(out)]) == 0
    assert time.perf_counter() - start < 2.0
    assert [(r.frame, r.track_id) for r in read_tracks(out)] == [(0, 1), (10 ** 7, 2)]
    out_text = capsys.readouterr().out
    assert "10000001 frames" in out_text
    assert "2 tracks created, 1 deleted" in out_text


def _detection_lines(path, frames):
    """Write an NDJSON detection file of one ``(frame, box2d)`` pedestrian
    per frame of sequence "s" on the front camera, the box as given."""
    path.write_text("".join(
        json.dumps({"sequence_id": "s", "frame": f, "camera": "front",
                    "detections": [{"class": "pedestrian", "box2d": box, "score": 0.9}]}) + "\n"
        for f, box in frames))


def test_track_huge_a_max_is_rejected_before_a_huge_gap(tmp_path):
    """An a_max above the limit exits 2 at once, naming its field; the
    10^9-frame gap after it is never stepped."""
    dets, cfg = tmp_path / "d.ndjson", tmp_path / "cfg.json"
    _detection_lines(dets, [(0, [500, 400, 60, 120]), (10 ** 9, [500, 400, 60, 120])])
    cfg.write_text(json.dumps({"classes": {"pedestrian": {"a_max": 10 ** 12}}}))
    env = dict(os.environ, PYTHONPATH=str(Path(hmot.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "hmot.cli", "track", "--mode", "2d", "--dets", str(dets),
         "--out", str(tmp_path / "t.csv"), "--config", str(cfg)],
        env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert f"config.classes.pedestrian: a_max must be <= {A_MAX_LIMIT}" in proc.stderr


def _smallest_sigma():
    """The smallest sigma whose 2 sigma^2 is a normal float."""
    s = math.sqrt(sys.float_info.min / 2.0)
    while 2.0 * s * s < sys.float_info.min:
        s = math.nextafter(s, math.inf)
    while 2.0 * (below := math.nextafter(s, 0.0)) * below >= sys.float_info.min:
        s = below
    return s


def test_track_sigma_floor(tmp_path, capsys):
    """A sigma whose 2 sigma^2 underflows exits 2 naming its class; at the
    smallest sigma accepted, one stationary vehicle stays one track, with
    no numpy warning."""
    det = Detection(Box3D(5.0, 2.0, 0.5, 1.6, 1.9, 4.5, 0.3), 0.9, ObjectClass.VEHICLE)
    dets, cfg, out = tmp_path / "d.ndjson", tmp_path / "cfg.json", tmp_path / "t.csv"
    write_detections(dets, [DetectionFrame("s", f, None, [det]) for f in range(3)])
    argv = ["track", "--mode", "3d", "--dets", str(dets), "--out", str(out),
            "--config", str(cfg)]
    cfg.write_text(json.dumps({"classes": {"vehicle": {"sigma": 1e-200}}}))
    assert main(argv) == 2
    assert "config.classes.vehicle: sigma" in capsys.readouterr().err
    cfg.write_text(json.dumps({"classes": {"vehicle": {"sigma": _smallest_sigma()}}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    assert [(r.frame, r.track_id) for r in read_tracks(out)] == [(0, 1), (1, 1), (2, 1)]


@pytest.mark.parametrize("box", [[100, 100, 1e300, 1e-300], [100, 100, 50, 1e-320]])
def test_track_2d_box_without_finite_aspect_names_its_line(tmp_path, capsys, box):
    dets = tmp_path / "d.ndjson"
    _detection_lines(dets, [(0, box)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["track", "--mode", "2d", "--dets", str(dets),
                     "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_track_2d_box_beyond_the_extent_ceiling_names_its_line(tmp_path, capsys):
    """A box whose h^2 would overflow the initial variance is rejected by
    the reader, which names its line, before numpy can warn."""
    dets = tmp_path / "d.ndjson"
    _detection_lines(dets, [(0, [100, 100, 50, 80]), (1, [100, 100, 1e300, 1e300])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["track", "--mode", "2d", "--dets", str(dets),
                     "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "line 2: bad detection: 2D box extents must be <= 1e+06" in capsys.readouterr().err


def test_track_2d_box_centre_beyond_the_ceiling_names_its_line(tmp_path, capsys):
    """A box centred so far out that its corners round onto its centre has
    no area; the reader rejects it, naming its line, instead of seeding a
    track from it every frame."""
    dets = tmp_path / "d.ndjson"
    _detection_lines(dets, [(f, [-1e308, -1e308, 1, 1]) for f in range(3)])
    out = tmp_path / "t.csv"
    code = main(["track", "--mode", "2d", "--dets", str(dets), "--out", str(out)])
    assert code == 2
    assert "line 1: bad detection: 2D box centre must be within +-1e+06" in capsys.readouterr().err
    assert not out.exists()


def test_track_noise_beyond_the_ceiling_names_its_field(tmp_path, capsys):
    """A noise term whose square would overflow a variance is rejected by
    the loader, which names its field, before numpy can warn."""
    dets, cfg = tmp_path / "d.ndjson", tmp_path / "cfg.json"
    _detection_lines(dets, [(0, [100, 100, 50, 80])])
    cfg.write_text(json.dumps({"kalman": {"noise_2d": {"w_p": 1e300}}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["track", "--mode", "2d", "--dets", str(dets),
                     "--out", str(tmp_path / "t.csv"), "--config", str(cfg)])
    assert code == 2
    assert "config.kalman.noise_2d: w_p must be" in capsys.readouterr().err


# The extremes of ROADMAP item 15's table: values whose square or ratio
# overflows, that underflow to a subnormal or to 0, and the ceilings and
# floors themselves.
_BIG = [1e6, 1e6 * (1 + 2**-52), 1e150, 1e300, 1e308]
_TINY = [1e-150, 1e-300, 1e-320, 5e-324, 0.0]
# A 2D centre at the ceiling, and one ulp beyond it, on either side.
_CENTRES = [s * c for s in (-1, 1) for c in (1e6, math.nextafter(1e6, math.inf))]


@st.composite
def _track_inputs(draw):
    """A mode, the lines of a detection file, and a config document. Each
    value is ordinary, or one time in ``odds`` an extreme one: a line's box
    kind is the mode's or the other, and an embedding is of the file's
    size or the other."""

    def value(ordinary, extremes, odds=16):
        return draw(st.sampled_from(extremes) if draw(st.integers(1, odds)) == 1 else ordinary)

    def position():
        return value(st.floats(0.0, 1000.0), [-1e308, -1e300, *_BIG, *_TINY, *_CENTRES])

    def extent():
        return value(st.floats(1.0, 200.0), [-5.0, *_BIG, *_TINY])

    def embedding():
        angle = draw(st.floats(0.0, 0.5))
        unit = [math.cos(angle), math.sin(angle)]
        return value(st.sampled_from([None, unit + [0.0] * (size - 2)]),
                     [[1e300, 1e300, 0.0], [0.0, 0.0, 0.0], [5e-324, 1.0, 0.0],
                      [1e-160, 1.0, 1e-160], unit + [0.0] * (5 - size)])

    mode = draw(st.sampled_from(["2d", "3d"]))
    size = draw(st.sampled_from([3, 4]))
    lines, frame = [], 0
    for _ in range(draw(st.integers(1, 5))):
        kind, dets = value(st.just(mode), ["3d" if mode == "2d" else "2d"]), []
        for _ in range(draw(st.integers(0, 3))):
            box = ([position(), position(), extent(), extent()] if kind == "2d" else
                   [position(), position(), position(), extent(), extent(), extent(),
                    value(st.floats(-4.0, 4.0), [-1e308, *_BIG, *_TINY])])
            dets.append({"class": draw(st.sampled_from(["pedestrian", "vehicle", "cyclist"])),
                         f"box{kind}": box,
                         "score": value(st.floats(0.0, 1.0), [5e-324, 1.0 + 2**-52, 1.5]),
                         "embedding": embedding()})
        lines.append(json.dumps({"sequence_id": "s", "frame": frame,
                                 "camera": "front" if kind == "2d" else None,
                                 "detections": dets}))
        frame += value(st.sampled_from([1, 2]), [1000, 10 ** 9])
    fields = {
        "sigma": (st.floats(0.5, 5.0), [1e-200, _smallest_sigma(), 1e150, 1e300]),
        "a_max": (st.integers(1, 5), [A_MAX_LIMIT, A_MAX_LIMIT + 1, 10 ** 12]),
        "t_s": (st.floats(0.1, 1.0), [5e-324, 0.0]),
        "t_a": (st.floats(0.05, 1.0), [5e-324, 1e-300]),
        "max_center_dist": (st.floats(0.1, 1.0), [5e-324, 1e-300]),
        "gallery_budget": (st.integers(1, 10), [10 ** 9, 0]),
        "enlarge_stage2": (st.floats(1.0, 4.0), [1e300, 1e308]),
        "mahalanobis_gating": (st.booleans(), [True]),
    }
    noise = (st.floats(0.0, 1.0), [1e6, 1e6 * (1 + 2**-52), 1e300, 5e-324])
    noise_fields = {"noise_2d": ("w_p", "w_v", "aspect_meas_std"),
                    "noise_3d": ("pos_proc_std", "pos_meas_std", "heading_meas_std")}
    doc = {"classes": {cls: {k: value(*v, odds=6) for k, v in fields.items()
                             if draw(st.integers(0, 2)) == 0}
                       for cls in draw(st.sets(st.sampled_from(["pedestrian", "vehicle"])))},
           "kalman": {kind: {k: value(*noise, odds=6) for k in names
                             if draw(st.integers(0, 2)) == 0}
                      for kind, names in noise_fields.items()}}
    return mode, lines, doc


def _box2d_line(frame, *boxes):
    return json.dumps({"sequence_id": "s", "frame": frame, "camera": "front", "detections": [
        {"class": "pedestrian", "box2d": box, "score": 0.9} for box in boxes]})


@settings(max_examples=200, deadline=None)
@given(case=_track_inputs())
# Boxes so far apart that their corner gap overflows; stage 2 boxes
# enlarged so far that their area overflows.
@example(case=("2d", [_box2d_line(0, [-1e308, 100, 50, 80]),
                      _box2d_line(1, [1e308, 100, 50, 80])], {}))
@example(case=("2d", [_box2d_line(0, [100, 100, 50, 80]), _box2d_line(1, [400, 100, 50, 80])],
               {"classes": {"pedestrian": {"enlarge_stage2": 1e300}}}))
def test_track_over_ordinary_and_extreme_inputs(case):
    """``hmot track`` on any mix of ordinary and extreme values exits 0 or
    2 without a warning; its output values are finite, and an exit-2
    message names the line or the config field at fault."""
    mode, lines, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        dets, cfg, out = (Path(tmp) / name for name in ("d.ndjson", "cfg.json", "t.csv"))
        dets.write_text("".join(line + "\n" for line in lines))
        cfg.write_text(json.dumps(doc))
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = main(["track", "--mode", mode, "--dets", str(dets), "--out", str(out),
                         "--config", str(cfg)])
        assert code in (0, 2)
        if code == 2:
            assert re.search(r"\bline \d+: |\bconfig\.\w+", err.getvalue()), err.getvalue()
        else:
            rows = list(csv.reader(out.read_text().splitlines()))[1:]
            assert all(math.isfinite(float(v)) for row in rows for v in row[4:])


def test_track_embedding_beyond_unit_entries_names_its_line(tmp_path, capsys):
    """An embedding with an entry above 1 is no unit vector; it is rejected
    before its norm, which would overflow, is taken."""
    dets = tmp_path / "d.ndjson"
    dets.write_text(json.dumps({"sequence_id": "s", "frame": 0, "camera": "front", "detections": [
        {"class": "pedestrian", "box2d": [500, 400, 60, 120], "score": 0.9,
         "embedding": [1e300, 1e300, 0]}]}) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["track", "--mode", "2d", "--dets", str(dets),
                     "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_track_malformed_last_line_exits_2_without_output(tmp_path, capsys):
    _, dets = _simulate(tmp_path)
    lines = dets.read_text().splitlines(keepends=True)
    dets.write_text("".join(lines) + '{"sequence_id": "s", "frame": \n')
    out = tmp_path / "t.csv"
    capsys.readouterr()
    before = sorted(p.name for p in tmp_path.iterdir())
    code = main(["track", "--mode", "2d", "--dets", str(dets), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"line {len(lines) + 1}: invalid JSON" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_track_reports_unwritable_output_before_reading(tmp_path, capsys):
    # Rows are written as they are tracked, so the output is opened first.
    dets = tmp_path / "d.ndjson"
    dets.write_text('{"sequence_id": \n')
    out = tmp_path / "missing" / "t.csv"
    assert main(["track", "--mode", "2d", "--dets", str(dets), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(out) in err and "invalid JSON" not in err


def test_track_mixed_embedding_sizes_exits_2(tmp_path, capsys):
    def det(dim):
        return Detection(box=Box2D(500.0, 400.0, 60.0, 120.0), score=0.9,
                         class_label=ObjectClass.PEDESTRIAN, camera_id=Camera.FRONT,
                         embedding=np.full(dim, dim ** -0.5))
    dets = tmp_path / "d.ndjson"
    write_detections(dets, [DetectionFrame("s", 0, Camera.FRONT, [det(8)]),
                            DetectionFrame("s", 1, Camera.FRONT, [det(4)])])
    out = tmp_path / "t.csv"
    code = main(["track", "--mode", "2d", "--dets", str(dets), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "sequence 's' frame 1: embedding size 4" in err
    assert "size 8" in err
    assert not out.exists()


def test_track_tracker_errors_name_their_line(tmp_path, capsys):
    """A tracker's ConfigError or ValidationError names the line of the
    frame it was raised on, as the reader's errors do."""
    dets = tmp_path / "d.ndjson"
    dets.write_text("\n" + "".join(json.dumps({
        "sequence_id": "s", "frame": f, "camera": "front", "detections": [
            {"class": "pedestrian", "box2d": [500, 400, 60, 120], "score": 0.9,
             "embedding": [dim ** -0.5] * dim}]}) + "\n" for f, dim in enumerate((8, 4))))
    out = tmp_path / "t.csv"
    for mode, message in [("3d", "line 2: sequence 's' frame 0: 3D tracking does not take"),
                          ("2d", "line 3: sequence 's' frame 1: embedding size 4 differs")]:
        assert main(["track", "--mode", mode, "--dets", str(dets), "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


def test_track_3d_ignores_embeddings_of_mixed_sizes(tmp_path, capsys):
    # 3D association never reads embeddings, so their sizes are not checked
    # and the tracks are those of the same file without them.
    def frames(dims):
        return [DetectionFrame("s", t, None, [Detection(
            box=Box3D(1.0 + 0.5 * t, 2.0, 0.5, 1.7, 0.6, 0.8, 0.0), score=0.9,
            class_label=ObjectClass.PEDESTRIAN,
            embedding=None if dim is None else np.full(dim, dim ** -0.5))])
            for t, dim in enumerate(dims)]
    outputs = []
    for name, dims in (("mixed", [8, 4, 8, 2]), ("none", [None] * 4)):
        dets, out = tmp_path / f"{name}.ndjson", tmp_path / f"{name}.csv"
        write_detections(dets, frames(dims))
        code = main(["track", "--mode", "3d", "--dets", str(dets), "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) > 1


# ---------------------------------------------------------------------------
# eval


def test_eval_threshold_flag_mode_mismatch(tmp_path, capsys):
    gt, _ = _simulate(tmp_path)
    code = main(["eval", "--mode", "2d", "--gt", str(gt), "--hyp", str(gt),
                 "--dist-thresh", "2.0"])
    assert code == 2
    assert "--dist-thresh" in capsys.readouterr().err

    code = main(["eval", "--mode", "3d", "--gt", str(gt), "--hyp", str(gt),
                 "--iou-thresh", "0.5"])
    assert code == 2
    assert "--iou-thresh" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_eval_non_finite_dist_thresh_exits_2(tmp_path, capsys, value):
    gt = tmp_path / "gt.csv"
    write_tracks(gt, [TrackRow("s", 0, 1, ObjectClass.VEHICLE,
                               Box3D(1.0, 2.0, 0.5, 1.6, 1.9, 4.5, 0.1), 1.0)], "3d")
    code = main(["eval", "--mode", "3d", "--gt", str(gt), "--hyp", str(gt),
                 "--dist-thresh", value])
    captured = capsys.readouterr()
    assert code == 2
    assert f"distance threshold must be positive and finite, got {value}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("score", ["nan", "7.5"])
def test_eval_hypothesis_score_outside_the_unit_interval_exits_2(tmp_path, capsys, score):
    gt, hyp = tmp_path / "gt.csv", tmp_path / "hyp.csv"
    header = "sequence_id,frame,track_id,class,cx,cy,w,h,score\n"
    gt.write_text(header + "s,0,1,pedestrian,10,10,5,5,1.0\n")
    hyp.write_text(header + f"s,0,1,pedestrian,10,10,5,5,{score}\n")
    code = main(["eval", "--mode", "2d", "--gt", str(gt), "--hyp", str(hyp)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"line 2: bad track row: score must be in [0, 1], got {float(score)}" in captured.err
    assert captured.out == ""


def test_eval_2d_box_outside_the_detection_domain_exits_2(tmp_path, capsys):
    """Boxes whose areas overflow are outside the 2D box domain of track
    files: exit 2 naming the line, where their IoU once overflowed."""
    gt, hyp = tmp_path / "gt.csv", tmp_path / "hyp.csv"
    header = "sequence_id,frame,track_id,class,cx,cy,w,h,score\n"
    gt.write_text(header + "s,0,1,pedestrian,1e308,1e308,1e300,1e300,1.0\n")
    hyp.write_text(header + "s,0,1,pedestrian,-1e308,-1e308,1e300,1e300,1.0\n")
    code = main(["eval", "--mode", "2d", "--gt", str(gt), "--hyp", str(hyp)])
    captured = capsys.readouterr()
    assert code == 2
    assert "line 2: bad track row: 2D box extents must be <= 1e+06" in captured.err
    assert captured.out == ""


def test_eval_gt_as_hyp_is_perfect(tmp_path, capsys):
    gt, _ = _simulate(tmp_path)
    assert main(["eval", "--mode", "2d", "--gt", str(gt), "--hyp", str(gt)]) == 0
    report = _csv_report(capsys.readouterr().out)
    assert report["overall"]["mota"] == "1.0"
    assert report["pedestrian"]["mota"] == "1.0"
    assert report["cyclist"]["mota"] == "nan"
    assert report["overall"]["motp"] == "0.0"


def test_eval_unknown_hyp_sequence_exits_2(tmp_path, capsys):
    gt, _ = _simulate(tmp_path)
    other_gt, _ = _simulate(tmp_path, doc=_spec_doc(sequence_id="other"),
                            name="other")
    code = main(["eval", "--mode", "2d", "--gt", str(gt), "--hyp", str(other_gt)])
    assert code == 2
    assert "not present in ground truth" in capsys.readouterr().err


def test_eval_empty_gt_exits_2(tmp_path, capsys):
    from hmot.io import write_tracks
    gt = tmp_path / "gt.csv"
    write_tracks(gt, [], "2d")
    code = main(["eval", "--mode", "2d", "--gt", str(gt), "--hyp", str(gt)])
    assert code == 2
    assert "no rows" in capsys.readouterr().err


def test_eval_custom_iou_threshold_changes_result(tmp_path, capsys):
    gt, dets = _simulate(tmp_path, doc=_spec_doc(center_noise_std=6.0, seed=5))
    out = tmp_path / "t.csv"
    assert main(["track", "--mode", "2d", "--dets", str(dets),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["eval", "--mode", "2d", "--gt", str(gt), "--hyp", str(out),
                 "--iou-thresh", "0.5"]) == 0
    loose = _csv_report(capsys.readouterr().out)
    assert main(["eval", "--mode", "2d", "--gt", str(gt), "--hyp", str(out),
                 "--iou-thresh", "0.95"]) == 0
    tight = _csv_report(capsys.readouterr().out)
    assert float(tight["overall"]["mota"]) < float(loose["overall"]["mota"])


# ---------------------------------------------------------------------------
# nms-merge


def _overlapping_dets(tmp_path):
    base = Box2D(500.0, 400.0, 100.0, 100.0)
    near = Box2D(505.0, 400.0, 100.0, 100.0)
    far = Box2D(1200.0, 400.0, 100.0, 100.0)
    mk = lambda box, score: Detection(box=box, score=score,
                                      class_label=ObjectClass.PEDESTRIAN,
                                      camera_id=Camera.FRONT)
    a = tmp_path / "a.ndjson"
    b = tmp_path / "b.ndjson"
    write_detections(a, [DetectionFrame("s", 0, Camera.FRONT,
                                        [mk(base, 0.9), mk(far, 0.7)])])
    write_detections(b, [DetectionFrame("s", 0, Camera.FRONT, [mk(near, 0.8)])])
    return a, b


def test_nms_merge_suppresses_duplicates(tmp_path, capsys):
    a, b = _overlapping_dets(tmp_path)
    out = tmp_path / "merged.ndjson"
    code = main(["nms-merge", "--dets", str(a), str(b), "--iou", "0.5",
                 "--out", str(out)])
    assert code == 0
    frames = read_detections(out)
    assert len(frames) == 1
    scores = sorted(d.score for d in frames[0].detections)
    # The 0.8 copy of the duplicated box is suppressed by the 0.9 one.
    assert scores == [0.7, 0.9]


def test_nms_merge_keeps_all_when_threshold_high(tmp_path):
    a, b = _overlapping_dets(tmp_path)
    out = tmp_path / "merged.ndjson"
    assert main(["nms-merge", "--dets", str(a), str(b), "--iou", "1.0",
                 "--out", str(out)]) == 0
    assert len(read_detections(out)[0].detections) == 3


def test_nms_merge_rejects_bad_threshold(tmp_path, capsys):
    a, b = _overlapping_dets(tmp_path)
    code = main(["nms-merge", "--dets", str(a), str(b), "--iou", "0",
                 "--out", str(tmp_path / "m.ndjson")])
    assert code == 2
    assert "--iou" in capsys.readouterr().err


def test_nms_merge_3d(tmp_path):
    from hmot.types import Box3D
    mk = lambda cx, score: Detection(
        box=Box3D(cx, 0.0, 0.5, 1.7, 0.6, 0.8, 0.0), score=score,
        class_label=ObjectClass.PEDESTRIAN, camera_id=None)
    a = tmp_path / "a.ndjson"
    b = tmp_path / "b.ndjson"
    write_detections(a, [DetectionFrame("s", 0, None, [mk(5.0, 0.9)])])
    write_detections(b, [DetectionFrame("s", 0, None, [mk(5.05, 0.8), mk(40.0, 0.7)])])
    out = tmp_path / "m.ndjson"
    assert main(["nms-merge", "--dets", str(a), str(b), "--iou", "0.5",
                 "--out", str(out)]) == 0
    kept = read_detections(out)[0].detections
    assert sorted(d.score for d in kept) == [0.7, 0.9]


@pytest.mark.parametrize("camera, boxes, message", [
    ("front", ("box2d", "box3d"), "3D detections must not carry a camera_id"),
    (None, ("box3d", "box2d"), "2D detections require a camera_id"),
])
def test_nms_merge_of_mixed_box_kinds(tmp_path, capsys, camera, boxes, message):
    """A 2D box needs its line's camera and a 3D box has none, so a line
    that mixes the kinds is rejected naming the line, and a 2D and a 3D
    file merge into frames of one kind each."""
    values = {"box2d": [100, 100, 10, 20], "box3d": [5, 0, 0.5, 1.7, 0.6, 0.8, 0]}
    mixed, out = tmp_path / "mixed.ndjson", tmp_path / "m.ndjson"
    mixed.write_text(json.dumps({"sequence_id": "s", "frame": 0, "camera": camera, "detections": [
        {"class": "pedestrian", "score": 0.9, key: values[key]} for key in boxes]}) + "\n")
    assert main(["nms-merge", "--dets", str(mixed), "--out", str(out)]) == 2
    assert f"line 1: bad detection: {message}" in capsys.readouterr().err
    files = []
    for key in boxes:
        files.append(tmp_path / f"{key}.ndjson")
        files[-1].write_text(json.dumps({
            "sequence_id": "s", "frame": 0, "camera": "front" if key == "box2d" else None,
            "detections": [{"class": "pedestrian", "score": 0.9, key: values[key]}]}) + "\n")
    assert main(["nms-merge", "--dets", *map(str, files), "--out", str(out)]) == 0
    frames = read_detections(out)
    assert sorted(fr.camera is None for fr in frames) == [False, True]
    assert all(len(fr.detections) == 1 and fr.detections[0].is_2d == (fr.camera is not None)
               for fr in frames)


def test_nms_merge_output_equals_the_json_dumps_oracle(tmp_path):
    _, a = _simulate(tmp_path, name="a")
    _, b = _simulate(tmp_path, _spec_doc(seed=1), name="b")
    out = tmp_path / "m.ndjson"
    assert main(["nms-merge", "--dets", str(a), str(b), "--iou", "0.5",
                 "--out", str(out)]) == 0
    frames = read_detections(out)
    assert any(d.embedding is not None for fr in frames for d in fr.detections)
    assert out.read_text() == "".join(oracles.detection_line(fr) for fr in frames)


def test_nms_merge_missing_input_exits_2(tmp_path, capsys):
    code = main(["nms-merge", "--dets", str(tmp_path / "nope.ndjson"),
                 "--out", str(tmp_path / "m.ndjson")])
    assert code == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate: pinned outputs, failed writes, the README example


# sha256 of (gt.csv, dets.ndjson) written by `hmot simulate --preset NAME --seed 0`
_PRESET_SHA256 = {
    "clean-2d": ("e9f6dc46393513d2e685e004744eca8a4925f80417a03e69fb1bd84d30007e94",
                 "ef92949c43fc2d7d4754a5adf339c5c96478526390bdefe62e2fba581711865b"),
    "clean-3d": ("7a840416033ad4ef88cf0de167abe6f04bec1954dbf189efdf66ce97c04ac7f9",
                 "8a0675386d1c7131a1c7efd3ad0d8f7bc67eb440acd55c8515c23ecb3097637e"),
    "occlusion": ("500b6f8b5b71df952399bd1c672c13f64b0e29f420c7ef88a4494880e8d295bf",
                  "35b384f22446530a3a2d3b1302a343221f661b4d25a90143017ddc932ec47b74"),
    "crossing": ("cf6d877261ae1ccf6768d1e5b3eb4dc0000f9ce885daab4a73b7a28b04780966",
                 "1b964a074e6739fc97485b44000d829fb3b1631fe799af074a2a0e30d4359a43"),
}


@pytest.mark.parametrize("name", sorted(_PRESET_SHA256))
def test_simulate_preset_output_is_pinned(tmp_path, name):
    gt, dets = tmp_path / "gt.csv", tmp_path / "dets.ndjson"
    assert main(["simulate", "--preset", name, "--seed", "0",
                 "--out-gt", str(gt), "--out-dets", str(dets)]) == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (gt, dets))
    assert digests == _PRESET_SHA256[name]


# sha256 of (track CSV, stdout with the output path read as OUT) written by
# `hmot track` on the output of `hmot simulate --preset NAME --seed 0`, under
# each flag set. mahalanobis turns on mahalanobis_gating for every class;
# budget1 sets gallery_budget to 1 for every class, so every match evicts a
# gallery row. Only on occlusion does that change the output at seed 0.
_TRACK_SHA256 = {
    ("clean-2d", "default"): ("164ee9f6ec4f5f87b20f061eced5058c57764f9618fd94e6bed2cd82da6f1ffc",
                              "ee14cc87e11d860a2650b0d44678a7867cfd3edcb0aa44208eb65bf22388dfc6"),
    ("clean-2d", "no-stage3"): ("164ee9f6ec4f5f87b20f061eced5058c57764f9618fd94e6bed2cd82da6f1ffc",
                                "ee14cc87e11d860a2650b0d44678a7867cfd3edcb0aa44208eb65bf22388dfc6"),
    ("clean-2d", "no-reid"): ("164ee9f6ec4f5f87b20f061eced5058c57764f9618fd94e6bed2cd82da6f1ffc",
                              "ee14cc87e11d860a2650b0d44678a7867cfd3edcb0aa44208eb65bf22388dfc6"),
    ("clean-2d", "mahalanobis"): ("164ee9f6ec4f5f87b20f061eced5058c57764f9618fd94e6bed2cd82da6f1ffc",
                                  "ee14cc87e11d860a2650b0d44678a7867cfd3edcb0aa44208eb65bf22388dfc6"),
    ("clean-3d", "default"): ("a0191f941ad3bbec743f9ad686d5f9a863403a6e2a6dcedfe4acef6d9b14dd6a",
                              "40b203646f9d983b7e3c3d80896838c24c8cf1116008a18c7f545f93a7a86235"),
    ("clean-3d", "no-stage3"): ("a0191f941ad3bbec743f9ad686d5f9a863403a6e2a6dcedfe4acef6d9b14dd6a",
                                "40b203646f9d983b7e3c3d80896838c24c8cf1116008a18c7f545f93a7a86235"),
    ("clean-3d", "no-reid"): ("a0191f941ad3bbec743f9ad686d5f9a863403a6e2a6dcedfe4acef6d9b14dd6a",
                              "40b203646f9d983b7e3c3d80896838c24c8cf1116008a18c7f545f93a7a86235"),
    ("clean-3d", "mahalanobis"): ("a0191f941ad3bbec743f9ad686d5f9a863403a6e2a6dcedfe4acef6d9b14dd6a",
                                  "40b203646f9d983b7e3c3d80896838c24c8cf1116008a18c7f545f93a7a86235"),
    ("crossing", "default"): ("f571f047af3dacc79950eb82154a6115ab098225863bb66c86c6630b52f1e207",
                              "ccd027d908f9e96447df57384be44736529772249bfa250c026565bef25e284c"),
    ("crossing", "no-stage3"): ("f571f047af3dacc79950eb82154a6115ab098225863bb66c86c6630b52f1e207",
                                "ccd027d908f9e96447df57384be44736529772249bfa250c026565bef25e284c"),
    ("crossing", "no-reid"): ("90b1acfc426eef3d1890b1dc03b36fbbaf5b849b65faa1fb97ad675882a4bf36",
                              "ccd027d908f9e96447df57384be44736529772249bfa250c026565bef25e284c"),
    ("crossing", "mahalanobis"): ("f571f047af3dacc79950eb82154a6115ab098225863bb66c86c6630b52f1e207",
                                  "ccd027d908f9e96447df57384be44736529772249bfa250c026565bef25e284c"),
    ("occlusion", "default"): ("24a35ac20ed52703a6fa78d7acad641a3269c8c5ecc8e5755ec9b2cee2b7774d",
                               "463d29ef2758bc0a47b8d6dd22d714b0e43e564f1a638632569c06f3360bd32d"),
    ("occlusion", "no-stage3"): ("98ba9a7b1769dc1c67bc8f0fcc6a91c723a1c01c292641c6af522e675406672d",
                                 "a87295d1232f507d1e3fe91d67f17ebc02e374203814a7507257dc96e60b933a"),
    ("occlusion", "no-reid"): ("01b7d54e00c9db6b81f96a0eace5bd098a6936d3296e493bed44addb447b6ddc",
                               "d569ed5418a5a3045b9d43e0d9decdf0f1e495609851cb178bfbff8f252a9f49"),
    ("occlusion", "mahalanobis"): ("1fdde1cae1f4e8449fddacf95263a9bf053ea9a0a962457ea5612bbc1b2b9412",
                                   "aa2f8e85cc6fd2247eb8990e1a4153a46a20669e065c1f20c07170acdcb511c8"),
    ("occlusion", "budget1"): ("1fdde1cae1f4e8449fddacf95263a9bf053ea9a0a962457ea5612bbc1b2b9412",
                               "d569ed5418a5a3045b9d43e0d9decdf0f1e495609851cb178bfbff8f252a9f49"),
}


@pytest.mark.parametrize("name, flags", sorted(_TRACK_SHA256))
def test_track_preset_output_is_pinned(tmp_path, capsys, name, flags):
    dets, out = tmp_path / "dets.ndjson", tmp_path / "tracks.csv"
    configs = {"mahalanobis": {"mahalanobis_gating": True}, "budget1": {"gallery_budget": 1}}
    for flag, fields in configs.items():
        (tmp_path / f"{flag}.json").write_text(
            json.dumps({"classes": {c.value: fields for c in ObjectClass}}))
    assert main(["simulate", "--preset", name, "--seed", "0",
                 "--out-gt", str(tmp_path / "gt.csv"), "--out-dets", str(dets)]) == 0
    capsys.readouterr()
    extra = {"default": [], "no-stage3": ["--no-stage3"], "no-reid": ["--no-reid"],
             **{flag: ["--config", str(tmp_path / f"{flag}.json")] for flag in configs}}[flags]
    assert main(["track", "--dets", str(dets), "--mode", preset(name).mode.value,
                 "--out", str(out)] + extra) == 0
    stdout = capsys.readouterr().out.replace(str(out), "OUT")
    digests = (hashlib.sha256(out.read_bytes()).hexdigest(),
               hashlib.sha256(stdout.encode()).hexdigest())
    assert digests == _TRACK_SHA256[name, flags]


def test_simulate_failed_write_leaves_no_partial_output(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec_doc(sequence_id="a\rb")))
    gt, dets = tmp_path / "gt.csv", tmp_path / "dets.ndjson"
    args = ["simulate", "--spec", str(spec_path), "--out-gt", str(gt), "--out-dets", str(dets)]
    assert main(args) == 2
    assert "carriage return" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    gt.write_text("earlier\n")
    assert main(args) == 2
    assert gt.read_text() == "earlier\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gt.csv", "spec.json"]


def test_simulate_writes_into_a_device_in_place(tmp_path):
    dets = tmp_path / "dets.ndjson"
    assert main(["simulate", "--preset", "crossing", "--out-gt", os.devnull,
                 "--out-dets", str(dets)]) == 0
    assert not os.path.isfile(os.devnull)
    assert len(read_detections(dets)) == 60


def test_simulate_rejects_events_of_unknown_objects(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec_doc(occlusions=[[99, 0, 5], [1, 0, -4]])))
    code = main(["simulate", "--spec", str(spec_path),
                 "--out-gt", str(tmp_path / "g.csv"), "--out-dets", str(tmp_path / "d.ndjson")])
    assert code == 2
    assert "occlusions[0]: obj_id 99 is not a scenario object" in capsys.readouterr().err


def test_readme_scenario_example_simulates(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    doc = json.loads(re.search(r"### Scenario files.*?```json\n(.*?)```", readme, re.S).group(1))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    gt, dets = tmp_path / "gt.csv", tmp_path / "dets.ndjson"
    assert main(["simulate", "--spec", str(spec_path),
                 "--out-gt", str(gt), "--out-dets", str(dets)]) == 0
    assert len(read_tracks(gt)) == 2 * doc["n_frames"]
    frames = read_detections(dets)
    assert [fr.frame for fr in frames] == list(range(doc["n_frames"]))
    hidden = [fr.frame for fr in frames if 1 not in {d.src_gt for d in fr.detections}]
    assert hidden == [18, 19, 20]
