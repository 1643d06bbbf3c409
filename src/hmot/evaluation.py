"""CLEAR-MOT scoring of tracker output against ground truth.

Event accounting is the classic persist-then-assign scheme: a ground-truth
object keeps its previous hypothesis as long as that pair stays within the
matching gate, the remaining objects are matched by gated minimum-distance
assignment, and every matched object whose hypothesis id differs from its
last known one counts a mismatch. FP is an unmatched hypothesis box, Miss an
unmatched ground-truth box.

MOTA = 1 - (FP + Miss + Mismatch) / GT. MOTP here is the mean matched
distance (2D: 1 - IoU, 3D: center distance in meters), so lower is better;
no score normalization or difficulty stratification is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .assignment import solve_gated_assignment
from .errors import DataFormatError, ValidationError
from .metrics import iou_dist_matrix
from .types import Box, Box2D, Box3D, Mode, ObjectClass

DEFAULT_IOU_THRESHOLD = 0.5
DEFAULT_CENTER_THRESHOLD = 2.0


@dataclass(frozen=True)
class FrameObject:
    """One annotated box: identity, geometry, class."""

    obj_id: int
    box: Box
    class_label: ObjectClass

    def __post_init__(self):
        if not isinstance(self.class_label, ObjectClass):
            object.__setattr__(self, "class_label", ObjectClass(self.class_label))


@dataclass(frozen=True)
class GroundTruthFrame:
    """All objects of one frame. Used for ground truth and hypotheses alike."""

    frame: int
    objects: tuple[FrameObject, ...]

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        ids = [o.obj_id for o in self.objects]
        if len(ids) != len(set(ids)):
            raise ValidationError(f"frame {self.frame}: duplicate object ids")


@dataclass(frozen=True)
class ClassCounts:
    """Event totals for one class (or the aggregate)."""

    gt: int = 0
    fp: int = 0
    miss: int = 0
    mismatch: int = 0
    matches: int = 0
    dist_sum: float = 0.0

    @property
    def mota(self) -> float:
        if self.gt == 0:
            return math.nan
        return 1.0 - (self.fp + self.miss + self.mismatch) / self.gt

    @property
    def motp(self) -> float:
        if self.matches == 0:
            return math.nan
        return self.dist_sum / self.matches

    def __add__(self, other: "ClassCounts") -> "ClassCounts":
        return ClassCounts(
            self.gt + other.gt,
            self.fp + other.fp,
            self.miss + other.miss,
            self.mismatch + other.mismatch,
            self.matches + other.matches,
            self.dist_sum + other.dist_sum,
        )


@dataclass(frozen=True)
class MotReport:
    """Per-class counts plus the count-summed aggregate."""

    per_class: Mapping[ObjectClass, ClassCounts]

    @property
    def overall(self) -> ClassCounts:
        total = ClassCounts()
        for counts in self.per_class.values():
            total = total + counts
        return total


def merge_reports(reports: Iterable[MotReport]) -> MotReport:
    """Combine per-sequence reports by summing event counts."""
    merged: dict[ObjectClass, ClassCounts] = {cls: ClassCounts() for cls in ObjectClass}
    for report in reports:
        for cls, counts in report.per_class.items():
            merged[cls] = merged[cls] + counts
    return MotReport(merged)


def _index_frames(
    sequence: Iterable[GroundTruthFrame], what: str
) -> dict[int, GroundTruthFrame]:
    out: dict[int, GroundTruthFrame] = {}
    for fr in sequence:
        if fr.frame in out:
            raise DataFormatError(f"{what}: frame {fr.frame} appears twice")
        out[fr.frame] = fr
    return out


def _check_boxes(frames: Mapping[int, GroundTruthFrame], mode: Mode, what: str) -> None:
    want = Box2D if mode is Mode.D2 else Box3D
    for fr in frames.values():
        for obj in fr.objects:
            if not isinstance(obj.box, want):
                raise DataFormatError(
                    f"{what}: frame {fr.frame} object {obj.obj_id} has a "
                    f"{type(obj.box).__name__}, expected {want.__name__} for "
                    f"{mode.value} evaluation"
                )


def _dist_matrix(
    gt: Sequence[FrameObject], hyp: Sequence[FrameObject], mode: Mode
) -> np.ndarray:
    if mode is Mode.D2:
        return iou_dist_matrix([o.box for o in gt], [o.box for o in hyp])
    gc = np.array([[o.box.cx, o.box.cy, o.box.cz] for o in gt]).reshape(len(gt), 3)
    hc = np.array([[o.box.cx, o.box.cy, o.box.cz] for o in hyp]).reshape(len(hyp), 3)
    return np.sqrt(np.square(gc[:, None, :] - hc[None, :, :]).sum(axis=-1))


def evaluate(
    gt_sequence: Iterable[GroundTruthFrame],
    hyp_sequence: Iterable[GroundTruthFrame],
    *,
    mode: Mode | str,
    match_threshold: float | None = None,
) -> MotReport:
    """Score one hypothesis sequence against one ground-truth sequence.

    The ground truth defines the frame universe; a hypothesis frame absent
    from it is an input error, a ground-truth frame with no hypothesis rows
    simply scores all its objects as missed. In 2D a pair is matchable when
    IoU >= match_threshold (default 0.5); in 3D when the center distance is
    <= match_threshold meters (default 2.0).
    """
    mode = Mode(mode)
    if match_threshold is None:
        match_threshold = (
            DEFAULT_IOU_THRESHOLD if mode is Mode.D2 else DEFAULT_CENTER_THRESHOLD
        )
    if mode is Mode.D2:
        if not 0.0 < match_threshold <= 1.0:
            raise ValidationError(f"IoU threshold must be in (0, 1], got {match_threshold}")
        gate = 1.0 - match_threshold
    else:
        if not 0.0 < match_threshold < math.inf:
            raise ValidationError(
                f"distance threshold must be positive and finite, got {match_threshold}"
            )
        gate = match_threshold

    gt_frames = _index_frames(gt_sequence, "ground truth")
    hyp_frames = _index_frames(hyp_sequence, "hypotheses")
    stray = sorted(set(hyp_frames) - set(gt_frames))
    if stray:
        raise DataFormatError(
            f"hypotheses contain frames absent from the ground truth: {stray[:5]}"
        )
    _check_boxes(gt_frames, mode, "ground truth")
    _check_boxes(hyp_frames, mode, "hypotheses")

    counts = {cls: ClassCounts() for cls in ObjectClass}
    last_hyp: dict[tuple[ObjectClass, int], int] = {}

    for frame in sorted(gt_frames):
        gt_objs = gt_frames[frame].objects
        hyp_objs = hyp_frames[frame].objects if frame in hyp_frames else ()
        for cls in ObjectClass:
            gts = [o for o in gt_objs if o.class_label is cls]
            hyps = [o for o in hyp_objs if o.class_label is cls]
            if not gts and not hyps:
                continue
            dists = _dist_matrix(gts, hyps, mode)

            matched: dict[int, int] = {}
            used: set[int] = set()
            hyp_index = {hobj.obj_id: hj for hj, hobj in enumerate(hyps)}
            for gi, gobj in enumerate(gts):
                hj = hyp_index.get(last_hyp.get((cls, gobj.obj_id)))
                if hj is not None and hj not in used and dists[gi, hj] <= gate:
                    matched[gi] = hj
                    used.add(hj)
            free_g = [i for i in range(len(gts)) if i not in matched]
            free_h = [j for j in range(len(hyps)) if j not in used]
            if free_g and free_h:
                result = solve_gated_assignment(dists[np.ix_(free_g, free_h)], gate)
                for r, c in result.matches:
                    matched[free_g[r]] = free_h[c]
                    used.add(free_h[c])

            c = counts[cls]
            mismatches = 0
            dist_sum = 0.0
            for gi, hj in matched.items():
                gobj, hobj = gts[gi], hyps[hj]
                prev = last_hyp.get((cls, gobj.obj_id))
                if prev is not None and prev != hobj.obj_id:
                    mismatches += 1
                last_hyp[(cls, gobj.obj_id)] = hobj.obj_id
                dist_sum += float(dists[gi, hj])
            counts[cls] = c + ClassCounts(
                gt=len(gts),
                fp=len(hyps) - len(used),
                miss=len(gts) - len(matched),
                mismatch=mismatches,
                matches=len(matched),
                dist_sum=dist_sum,
            )

    return MotReport(counts)
