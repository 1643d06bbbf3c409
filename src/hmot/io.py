"""File formats: newline-delimited JSON detections and CSV track tables.

Detection files carry one frame per line as a JSON object; track files (and
ground-truth files, which share the schema) are CSV with one box per row.
Each float is written as the ``repr`` of its value rounded to 9 significant
digits (``qfloat``); since that text reads back as the same float, reading a
file and rewriting it reproduces it byte for byte.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO

import numpy as np

from .errors import DataFormatError, ValidationError
from .types import (Box, Box2D, Box3D, Camera, Detection, FrameObject, GroundTruthFrame, Mode,
                    ObjectClass, check_box_domain)


def qfloat(x: float) -> float:
    """Quantize to 9 significant digits (the on-disk float precision)."""
    return float(format(float(x), ".9g"))


# Each box kind is stored as its dataclass fields, in declaration order: under
# this key in detection files, as these columns in track files.
_BOX_KEYS = {Box2D: "box2d", Box3D: "box3d"}
_BOX_FIELDS = {kind: [f.name for f in fields(kind)] for kind in _BOX_KEYS}
_BOX_VALUES = {kind: attrgetter(*names) for kind, names in _BOX_FIELDS.items()}


@contextmanager
def _output(path: str | Path, newline: str) -> Iterator[TextIO]:
    """Open ``path`` for writing so that a failed write leaves it as it was.

    The text goes to a temporary file beside the target, which replaces the
    target once the write is complete. A target that exists and is not a
    regular file (a device or a pipe) is written in place.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        return
    tmp = f"{target}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        fh = open(tmp, "x", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Detection files (NDJSON, one frame per line)


@dataclass
class DetectionFrame:
    """All detections of one (sequence, camera, frame). ``line`` is the
    1-based line the frame was read from, None for a frame not read from
    a file; it takes no part in equality and is not written."""

    sequence_id: str
    frame: int
    camera: Camera | None
    detections: list[Detection]
    line: int | None = field(default=None, compare=False)


_DET_KEYS = {"class", *_BOX_KEYS.values(), "score", "embedding", "src_gt"}
_FRAME_KEYS = {"sequence_id", "frame", "camera", "detections"}


def _json_floats(values: Iterable[float]) -> str:
    """The JSON array ``json.dumps([qfloat(v) for v in values])`` without
    spaces, with each value formatted once. A ``.9g`` token with a point and
    no exponent is already the ``repr`` of its float; any other (an integer,
    an exponent) is replaced by that ``repr``."""
    return "[" + ",".join([
        t if "." in t and "e" not in t else repr(float(t)) for t in map("{:.9g}".format, values)
    ]) + "]"


def _det_json(det: Detection) -> str:
    kind = type(det.box)
    emb = "null" if det.embedding is None else _json_floats(det.embedding.tolist())
    return (
        f'{{"class":{json.dumps(det.class_label.value)},'
        f'"{_BOX_KEYS[kind]}":{_json_floats(_BOX_VALUES[kind](det.box))},'
        f'"score":{json.dumps(qfloat(det.score))},"embedding":{emb},'
        f'"src_gt":{json.dumps(det.src_gt)}}}'
    )


def write_detections(path: str | Path, frames: Iterable[DetectionFrame]) -> None:
    last_frame: dict[tuple[str, Camera | None], int] = {}
    with _output(path, "\n") as fh:
        for fr in frames:
            key = (fr.sequence_id, fr.camera)
            if key in last_frame and fr.frame <= last_frame[key]:
                raise ValidationError(
                    f"frames must be strictly increasing per sequence/camera; "
                    f"got frame {fr.frame} after {last_frame[key]} in "
                    f"{fr.sequence_id!r}"
                )
            last_frame[key] = fr.frame
            camera = None if fr.camera is None else fr.camera.value
            head = json.dumps({"sequence_id": fr.sequence_id, "frame": fr.frame,
                               "camera": camera}, separators=(",", ":"))
            dets = ",".join(map(_det_json, fr.detections))
            fh.write(f'{head[:-1]},"detections":[{dets}]}}\n')


# A JSON number parses as int or float; strings and booleans (bool is an int
# subclass) are not numbers.
_NUMBER_TYPES = frozenset((int, float))


def _numbers(values: list) -> bool:
    return _NUMBER_TYPES.issuperset(map(type, values))


def _parse_detection(entry: Any, camera: Camera | None, line: int) -> Detection:
    if not isinstance(entry, dict):
        raise DataFormatError("detection entry must be an object", line)
    for key in entry:
        if key not in _DET_KEYS:
            raise DataFormatError(f"unknown detection key {key!r}", line)
    if "class" not in entry or "score" not in entry:
        raise DataFormatError("detection needs 'class' and 'score'", line)
    boxes = [(kind, key) for kind, key in _BOX_KEYS.items() if key in entry]
    if len(boxes) != 1:
        raise DataFormatError(
            f"detection needs exactly one of {'/'.join(_BOX_KEYS.values())}", line
        )
    [(kind, key)] = boxes
    try:
        vals = entry[key]
        names = _BOX_FIELDS[kind]
        if not isinstance(vals, list) or len(vals) != len(names) or not _numbers(vals):
            raise DataFormatError(f"{key} must be [{', '.join(names)}]", line)
        box: Box = kind(*[float(v) for v in vals])
        embedding = entry.get("embedding")
        if embedding is not None:
            if not isinstance(embedding, list) or not _numbers(embedding):
                raise DataFormatError("embedding must be a list of numbers or null", line)
            embedding = np.asarray(embedding, dtype=np.float64)
        src_gt = entry.get("src_gt")
        if src_gt is not None and (isinstance(src_gt, bool) or not isinstance(src_gt, int)):
            raise DataFormatError("src_gt must be an integer or null", line)
        if type(entry["score"]) not in _NUMBER_TYPES:
            raise DataFormatError("score must be a number", line)
        return Detection(
            box=box,
            score=float(entry["score"]),
            class_label=entry["class"],
            camera_id=camera,
            embedding=embedding,
            src_gt=src_gt,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"bad detection: {exc}", line) from None


def iter_detections(path: str | Path) -> Iterator[DetectionFrame]:
    """Yield the frames of a detection file one at a time, checking each
    line as it is read; a bad line raises when the reader reaches it."""
    last_frame: dict[tuple[str, Camera | None], int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"invalid JSON: {exc.msg}", lineno) from None
            if not isinstance(record, dict):
                raise DataFormatError("each line must be a JSON object", lineno)
            for key in record:
                if key not in _FRAME_KEYS:
                    raise DataFormatError(f"unknown key {key!r}", lineno)
            for key in ("sequence_id", "frame", "detections"):
                if key not in record:
                    raise DataFormatError(f"missing key {key!r}", lineno)
            seq = record["sequence_id"]
            if not isinstance(seq, str):
                raise DataFormatError("sequence_id must be a string", lineno)
            frame = record["frame"]
            if isinstance(frame, bool) or not isinstance(frame, int):
                raise DataFormatError("frame must be an integer", lineno)
            cam_raw = record.get("camera")
            camera: Camera | None = None
            if cam_raw is not None:
                try:
                    camera = Camera(cam_raw)
                except ValueError:
                    raise DataFormatError(f"unknown camera {cam_raw!r}", lineno) from None
            key = (seq, camera)
            if key in last_frame and frame <= last_frame[key]:
                raise DataFormatError(
                    f"frame {frame} not increasing within sequence {seq!r}", lineno
                )
            last_frame[key] = frame
            dets_raw = record["detections"]
            if not isinstance(dets_raw, list):
                raise DataFormatError("detections must be a list", lineno)
            dets = [_parse_detection(d, camera, lineno) for d in dets_raw]
            yield DetectionFrame(seq, frame, camera, dets, lineno)


def read_detections(path: str | Path) -> list[DetectionFrame]:
    return list(iter_detections(path))


# ---------------------------------------------------------------------------
# Track files (CSV; also used for ground truth)


@dataclass(frozen=True)
class TrackRow:
    """One output box of one track in one frame."""

    sequence_id: str
    frame: int
    track_id: int
    class_label: ObjectClass
    box: Box
    score: float


_TRACK_HEADERS = {
    kind: ["sequence_id", "frame", "track_id", "class", *names, "score"]
    for kind, names in _BOX_FIELDS.items()
}


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def write_tracks(path: str | Path, rows: Iterable[TrackRow], mode: Mode | str, *,
                 check_duplicates: bool = True) -> None:
    """Write ``rows`` as a track CSV of ``mode``'s box kind. A row with the
    wrong box kind, a carriage return in its sequence id or, unless
    ``check_duplicates`` is off, the (sequence, frame, track_id) of an
    earlier row raises, and the file is left as it was. The duplicate check
    keeps every key written; a caller whose rows are unique by construction
    can turn it off, so memory stays flat as the output grows."""
    mode = Mode(mode)
    want = Box2D if mode is Mode.D2 else Box3D
    box_values = _BOX_VALUES[want]
    seen: set[tuple[str, int, int]] | None = set() if check_duplicates else None
    with _output(path, "") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_TRACK_HEADERS[want])
        for row in rows:
            if not isinstance(row.box, want):
                raise ValidationError(
                    f"track {row.track_id} frame {row.frame}: box kind does not "
                    f"match {mode.value} output"
                )
            if seen is not None:
                key = (row.sequence_id, row.frame, row.track_id)
                if key in seen:
                    raise ValidationError(
                        f"duplicate (sequence, frame, track_id) row: {key}"
                    )
                seen.add(key)
            if "\r" in row.sequence_id:
                # the writer leaves a lone CR unquoted, and readers split on it
                raise ValidationError(
                    f"sequence id {row.sequence_id!r} contains a carriage return"
                )
            writer.writerow(
                [row.sequence_id, str(row.frame), str(row.track_id),
                 row.class_label.value, *[_fmt(v) for v in box_values(row.box)],
                 _fmt(row.score)]
            )


def read_tracks(path: str | Path) -> list[TrackRow]:
    rows: list[TrackRow] = []
    seen: set[tuple[str, int, int]] = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return rows
        kinds = [kind for kind, names in _TRACK_HEADERS.items() if names == header]
        if not kinds:
            raise DataFormatError(f"unrecognized track file header: {header}", 1)
        kind = kinds[0]
        n_cols = len(header)
        for record in reader:
            lineno = reader.line_num
            if not record:
                continue
            if len(record) != n_cols:
                raise DataFormatError(
                    f"expected {n_cols} columns, got {len(record)}", lineno
                )
            try:
                seq = record[0]
                frame = int(record[1])
                track_id = int(record[2])
                label = ObjectClass(record[3])
                values = [float(v) for v in record[4:-1]]
                score = float(record[-1])
                if not 0.0 <= score <= 1.0:  # a NaN fails too
                    raise ValueError(f"score must be in [0, 1], got {score}")
                box: Box = kind(*values)
                check_box_domain(box)
            except (TypeError, ValueError) as exc:
                raise DataFormatError(f"bad track row: {exc}", lineno) from None
            key = (seq, frame, track_id)
            if key in seen:
                raise DataFormatError(
                    f"duplicate (sequence, frame, track_id) row: {key}", lineno
                )
            seen.add(key)
            rows.append(TrackRow(seq, frame, track_id, label, box, score))
    return rows


def rows_to_eval_frames(rows: Iterable[TrackRow]) -> dict[str, list[GroundTruthFrame]]:
    """Group track rows into per-sequence frame lists for evaluation."""
    by_seq: dict[str, dict[int, list[FrameObject]]] = {}
    for row in rows:
        frames = by_seq.setdefault(row.sequence_id, {})
        frames.setdefault(row.frame, []).append(
            FrameObject(row.track_id, row.box, row.class_label)
        )
    return {
        seq: [GroundTruthFrame(frame, tuple(objs)) for frame, objs in sorted(frames.items())]
        for seq, frames in by_seq.items()
    }


def gt_to_rows(
    sequence_id: str, gt_frames: Iterable[GroundTruthFrame]
) -> list[TrackRow]:
    """Represent simulated ground truth in the track-file schema (score 1)."""
    return [
        TrackRow(sequence_id, fr.frame, obj.obj_id, obj.class_label, obj.box, 1.0)
        for fr in gt_frames
        for obj in fr.objects
    ]
