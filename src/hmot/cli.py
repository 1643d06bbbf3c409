"""Command-line surface: track, eval, simulate, nms-merge.

Exit codes: 0 success, 1 usage problems, 2 data or configuration errors.
The HMOT_LOG environment variable sets the log level (DEBUG, INFO, ...).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import logging
import os
import sys
from collections import defaultdict
from typing import Iterator, Sequence

from .config import load_config
from .errors import ConfigError, TrackingError, ValidationError
from .evaluation import MotReport, evaluate, merge_reports
from .io import (
    DetectionFrame,
    TrackRow,
    gt_to_rows,
    iter_detections,
    read_detections,
    read_tracks,
    rows_to_eval_frames,
    write_detections,
    write_tracks,
)
from .metrics import nms
from .simulation import generate, parse_scenario, preset, PRESETS
from .tracker import TrackerInstance
from .types import Mode, ObjectClass

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _setup_logging() -> None:
    level_name = os.environ.get("HMOT_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


# ---------------------------------------------------------------------------
# track


@dataclasses.dataclass
class _Totals:  # one sequence's counts for the summary line
    frames: int = 0
    stage_matches: tuple[int, int, int] = (0, 0, 0)
    created: int = 0
    deleted: int = 0


def _cmd_track(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, mode=args.mode)
    mode = cfg.mode
    instances: dict[tuple[str, object], TrackerInstance] = {}
    counters: dict[str, itertools.count] = {}
    last_frame: dict[tuple[str, object], int] = {}
    totals: defaultdict[str, _Totals] = defaultdict(_Totals)
    n_rows = 0

    def track_rows() -> Iterator[TrackRow]:
        # Frames are read, tracked and written one at a time.
        nonlocal n_rows
        for fr in iter_detections(args.dets):
            key = (fr.sequence_id, fr.camera)
            st = totals[fr.sequence_id]
            gap = fr.frame - last_frame[key] - 1 if key in last_frame else 0
            last_frame[key] = fr.frame
            try:
                if key not in instances:
                    counter = counters.setdefault(fr.sequence_id, itertools.count(1))
                    instances[key] = TrackerInstance(
                        mode,
                        cfg.class_configs,
                        camera_id=fr.camera,
                        noise=cfg.noise_2d if mode is Mode.D2 else cfg.noise_3d,
                        id_counter=counter,
                        use_stage3=not args.no_stage3,
                        use_reid=not args.no_reid,
                    )
                inst = instances[key]
                st.deleted += len(inst.skip(gap))
                result = inst.step(fr.detections)
            except (ConfigError, ValidationError) as exc:
                raise type(exc)(f"line {fr.line}: sequence {fr.sequence_id!r} "
                                f"frame {fr.frame}: {exc}") from None
            st.frames += 1 + gap
            st.stage_matches = tuple(map(sum, zip(st.stage_matches, result.stage_matches)))
            st.created += len(result.created_ids)
            st.deleted += len(result.deleted_ids)
            n_rows += len(result.emitted)
            for em in result.emitted:
                yield TrackRow(fr.sequence_id, fr.frame, em.track_id, em.class_label,
                               em.box, em.score)

    # A tracker emits each of its tracks at most once per frame, and the
    # instances of one sequence share one id counter, so no row repeats a
    # (sequence, frame, track_id) key and the writer need not keep them.
    write_tracks(args.out, track_rows(), mode, check_duplicates=False)
    for seq, st in totals.items():
        s1, s2, s3 = st.stage_matches
        print(
            f"sequence {seq}: {st.frames} frames, stage matches {s1}/{s2}/{s3}, "
            f"{st.created} tracks created, {st.deleted} deleted"
        )
    print(f"wrote {n_rows} track rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval


def _format_counts(name: str, counts) -> str:
    mota = f"{counts.mota:.4f}" if counts.gt > 0 else "n/a"
    motp = f"{counts.motp:.4f}" if counts.matches > 0 else "n/a"
    return (
        f"{name:<12} {counts.gt:>8} {counts.fp:>6} {counts.miss:>6} "
        f"{counts.mismatch:>9} {mota:>8} {motp:>8}"
    )


def _print_report(report: MotReport) -> None:
    print(f"{'class':<12} {'GT':>8} {'FP':>6} {'Miss':>6} {'Mismatch':>9} "
          f"{'MOTA':>8} {'MOTP':>8}")
    for cls in ObjectClass:
        print(_format_counts(cls.value, report.per_class[cls]))
    print(_format_counts("overall", report.overall))
    print()
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["class", "gt", "fp", "miss", "mismatch", "mota", "motp"])
    for cls in ObjectClass:
        c = report.per_class[cls]
        writer.writerow([cls.value, c.gt, c.fp, c.miss, c.mismatch,
                         repr(c.mota), repr(c.motp)])
    c = report.overall
    writer.writerow(["overall", c.gt, c.fp, c.miss, c.mismatch,
                     repr(c.mota), repr(c.motp)])


def _cmd_eval(args: argparse.Namespace) -> int:
    mode = Mode(args.mode)
    if mode is Mode.D2 and args.dist_thresh is not None:
        raise ConfigError("--dist-thresh applies to 3d evaluation only")
    if mode is Mode.D3 and args.iou_thresh is not None:
        raise ConfigError("--iou-thresh applies to 2d evaluation only")
    threshold = args.iou_thresh if mode is Mode.D2 else args.dist_thresh

    gt_seqs = rows_to_eval_frames(read_tracks(args.gt))
    hyp_seqs = rows_to_eval_frames(read_tracks(args.hyp))
    unknown = sorted(set(hyp_seqs) - set(gt_seqs))
    if unknown:
        raise ConfigError(
            f"hypothesis sequences not present in ground truth: {unknown}"
        )
    if not gt_seqs:
        raise ConfigError("ground-truth file contains no rows")

    reports = []
    for seq in sorted(gt_seqs):
        reports.append(
            evaluate(gt_seqs[seq], hyp_seqs.get(seq, []), mode=mode,
                     match_threshold=threshold)
        )
    _print_report(merge_reports(reports))
    return 0


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.preset is not None:
        spec = preset(args.preset, args.seed if args.seed is not None else 0)
    else:
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"spec file {args.spec} is not valid JSON: {exc}") from None
        spec = parse_scenario(data)
        if args.seed is not None:
            spec = dataclasses.replace(spec, seed=args.seed)
    gt_frames, det_frames = generate(spec)
    write_tracks(args.out_gt, gt_to_rows(spec.sequence_id, gt_frames), spec.mode)
    write_detections(
        args.out_dets,
        [
            DetectionFrame(spec.sequence_id, t, spec.camera, det_frames[t])
            for t in range(spec.n_frames)
        ],
    )
    n_dets = sum(len(d) for d in det_frames)
    print(
        f"sequence {spec.sequence_id}: {spec.n_frames} frames, "
        f"{len(spec.objects)} objects, {n_dets} detections"
    )
    return 0


# ---------------------------------------------------------------------------
# nms-merge


def _cmd_nms_merge(args: argparse.Namespace) -> int:
    if not 0.0 < args.iou <= 1.0:
        raise ConfigError(f"--iou must be in (0, 1], got {args.iou}")
    groups: dict[tuple[str, object, int], list] = {}
    for path in args.dets:
        for fr in read_detections(path):
            groups.setdefault((fr.sequence_id, fr.camera, fr.frame), []).extend(
                fr.detections
            )
    out_frames: list[DetectionFrame] = []
    for seq, camera, frame in sorted(
        groups, key=lambda k: (k[0], "" if k[1] is None else k[1].value, k[2])
    ):
        # A frame holds one box kind: a 2D box needs a camera, a 3D box has none.
        dets = groups[(seq, camera, frame)]
        merged = []
        for cls in ObjectClass:
            merged.extend(nms([d for d in dets if d.class_label is cls], args.iou))
        out_frames.append(DetectionFrame(seq, frame, camera, merged))
    write_detections(args.out, out_frames)
    n = sum(len(f.detections) for f in out_frames)
    print(f"wrote {n} detections over {len(out_frames)} frames to {args.out}")
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="hmot", description="Online multi-object tracking toolkit")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_track = sub.add_parser("track", help="run the tracker over a detection file")
    p_track.add_argument("--dets", required=True, help="detection file (NDJSON)")
    p_track.add_argument("--config", default=None, help="JSON config file")
    p_track.add_argument("--mode", required=True, choices=["2d", "3d"])
    p_track.add_argument("--out", required=True, help="output track CSV")
    p_track.add_argument("--no-stage3", action="store_true",
                         help="disable the secondary-detection association stage")
    p_track.add_argument("--no-reid", action="store_true",
                         help="ignore appearance embeddings (2d falls back to IoU)")
    p_track.set_defaults(func=_cmd_track)

    p_eval = sub.add_parser("eval", help="score tracks against ground truth")
    p_eval.add_argument("--gt", required=True, help="ground-truth track CSV")
    p_eval.add_argument("--hyp", required=True, help="hypothesis track CSV")
    p_eval.add_argument("--mode", required=True, choices=["2d", "3d"])
    p_eval.add_argument("--iou-thresh", type=float, default=None,
                        help="2d match gate: IoU at least this (default 0.5)")
    p_eval.add_argument("--dist-thresh", type=float, default=None,
                        help="3d match gate: center distance at most this in "
                             "meters (default 2.0)")
    p_eval.set_defaults(func=_cmd_eval)

    p_sim = sub.add_parser("simulate", help="generate a synthetic sequence")
    which = p_sim.add_mutually_exclusive_group(required=True)
    which.add_argument("--preset", choices=sorted(PRESETS),
                       help="named scenario")
    which.add_argument("--spec", help="JSON scenario file")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out-gt", required=True, help="output ground-truth CSV")
    p_sim.add_argument("--out-dets", required=True, help="output detection NDJSON")
    p_sim.set_defaults(func=_cmd_simulate)

    p_nms = sub.add_parser("nms-merge",
                           help="merge detection files with per-class NMS")
    p_nms.add_argument("--dets", required=True, nargs="+",
                       help="one or more detection files")
    p_nms.add_argument("--iou", type=float, default=0.5,
                       help="suppression overlap threshold")
    p_nms.add_argument("--out", required=True, help="merged detection file")
    p_nms.set_defaults(func=_cmd_nms_merge)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except TrackingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
