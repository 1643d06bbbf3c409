"""Closed-loop tracker run for one in-process workload, in its own process.

Started by ``run.py`` in a fresh single-threaded interpreter. It builds the
workload's inputs from the seed (untimed), then steps the sequence frame
after frame through a new ``TrackerInstance`` per pass, repeating passes
until the run time is used up. The first ``warmup`` frames of each pass are
stepped and checked but not timed: they fill the galleries and bring the
live track count to steady state. Every timing is scaled to the reference
machine speed (``calibrate``): step times by a ``Clock`` whose kernel runs
after every ``STEP_CHUNK`` frames, ``generate`` and ``evaluate`` calls by a
``Sampler`` running during each call. It prints one JSON object.

With ``--trace 1`` untraced and traced passes alternate over the same
frames, so the tracing overhead is measured on identical work.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from dataclasses import astuple

import calibrate
import instrument
import workloads

# Per workload: scenario builder, frames per pass, untimed warm-up frames
# per pass. reid-2d warms up for a full gallery budget (100 embeddings).
SCENARIOS = {
    "dense-3d": (workloads.dense_3d, 300, 10),
    "reid-2d": (workloads.reid_2d, 600, 100),
}
# Size "tiny" keeps the workload's character at a fraction of the cost.
TINY = {"dense-3d": (60, 5, 0.25), "reid-2d": (160, 100, 0.5)}
STATE_SAMPLE_EVERY = 50
# Frames between two calibration kernels.
STEP_CHUNK = 10
# Samples for simulate_s: up to SAMPLES generate calls, one per pass; for
# eval_s: one evaluate call per EVAL_EVERY frames, and at least SAMPLES.
SAMPLES = 3
EVAL_EVERY = 50


def frame_digest(frame: int, result) -> bytes:
    h = hashlib.sha256()
    for em in result.emitted:
        h.update(repr((frame, em.track_id, em.class_label.value, astuple(em.box),
                       em.score)).encode())
    return h.digest()


def run(workload: str, seed: int, seconds: float, trace: bool, size: str,
        trace_path: str) -> dict:
    from hmot import FrameObject, GroundTruthFrame, TrackerInstance, evaluate, generate

    build, n_frames, warmup = SCENARIOS[workload]
    scale = 1.0
    if size == "tiny":
        n_frames, warmup, scale = TINY[workload]
    instrument.set_clock(calibrate.net_clock)
    tracer = instrument.Tracer()
    clock = calibrate.Clock()
    spec = build(seed, n_frames, scale)
    camera = spec.camera if spec.mode.value == "2d" else None
    simulate_s: list[float] = []
    eval_s: list[float] = []

    def timed(samples: list[float], name: str, fn, *args, **kwargs):
        with calibrate.Sampler() as sampler:
            t0 = calibrate.net_clock()
            with tracer.span(name):
                out = fn(*args, **kwargs)
            t1 = calibrate.net_clock()
        samples.append(sampler.scale(t0, t1))
        return out

    gt_frames, det_frames = timed(simulate_s, "simulation.generate", generate, spec)

    ref_digests: list[bytes] = []
    hyp_frames = []
    # Untraced tracker constructions and step times of every frame, warm-up
    # included: the parts of a pass, timed one by one for track_s.
    build_s: list[float] = []
    untraced: list[list[float]] = [[] for _ in det_frames]
    step_s: list[float] = []  # untraced timed steps in run order
    traced: dict[int, list[float]] = {}
    repeat_ok = True
    frames_stepped = 0
    passes_needed = 2 if trace else 1
    passes_done = 0
    start = time.perf_counter()

    def finished() -> bool:
        if passes_done < passes_needed:
            return False
        return time.perf_counter() - start >= seconds

    n_pass = 0
    stop = False
    while not stop:
        tracing = trace and n_pass % 2 == 1
        if tracing:
            tracer.install(instrument.TRACKER_LAYERS)
        t_build = time.perf_counter()
        tracker = TrackerInstance(spec.mode, camera_id=camera)
        if not tracing:
            clock.record(build_s, time.perf_counter() - t_build)
        for f, dets in enumerate(det_frames):
            tracer.enabled = f >= warmup
            t_step = time.perf_counter()
            result = tracker.step(dets)
            dt = time.perf_counter() - t_step
            frames_stepped += 1
            if not tracing:
                clock.record(untraced[f], dt)
            if f >= warmup:
                if tracing:
                    clock.record(traced.setdefault(f, []), dt)
                else:
                    clock.record(step_s, dt)
            digest = frame_digest(f, result)
            if n_pass == 0:
                ref_digests.append(digest)
                hyp_frames.append(GroundTruthFrame(f, tuple(
                    FrameObject(em.track_id, em.box, em.class_label)
                    for em in result.emitted)))
            elif digest != ref_digests[f]:
                repeat_ok = False
            if frames_stepped % STEP_CHUNK == 0:
                clock.calibrate()
            if tracing and f >= warmup and (f - warmup) % STATE_SAMPLE_EVERY == 0:
                tracer.sample_state(tracker)
            # Samples of the other stages are spread through the run, so
            # they see the same machine conditions as the steps.
            if passes_done and frames_stepped % EVAL_EVERY == 0:
                timed(eval_s, "evaluation.evaluate", evaluate, gt_frames, hyp_frames,
                      mode=spec.mode)
            if finished():
                stop = True
                break
        else:
            passes_done += 1
            if len(simulate_s) < SAMPLES:
                timed(simulate_s, "simulation.generate", generate, spec)
            stop = finished()
        if tracing:
            tracer.uninstall()
        n_pass += 1

    clock.calibrate()
    while len(eval_s) < SAMPLES:
        timed(eval_s, "evaluation.evaluate", evaluate, gt_frames, hyp_frames, mode=spec.mode)
    report = evaluate(gt_frames, hyp_frames, mode=spec.mode)

    out = {
        "frames_stepped": frames_stepped,
        "passes": n_pass,
        "frames_per_pass": len(det_frames),
        "warmup_frames": warmup,
        "step_s": step_s,
        "simulate_s": simulate_s,
        "build_s": build_s,
        "frame_s": untraced,
        "eval_s": eval_s,
        "digest": hashlib.sha256(b"".join(ref_digests)).hexdigest(),
        "repeat_ok": repeat_ok,
        "mota": report.overall.mota,
        "mismatch": report.overall.mismatch,
        "env": instrument.library_info(),
        "speed": clock.speed(),
    }
    if trace:
        # Same frames on both sides: every traced step time is compared with
        # the untraced times of that frame.
        pairs = [(statistics.median(traced[f]), statistics.median(untraced[f]))
                 for f in traced if untraced[f]]
        out["traced_fps"] = len(pairs) / sum(t for t, _ in pairs)
        out["untraced_fps"] = len(pairs) / sum(u for _, u in pairs)
        out["layers"] = tracer.aggregate()
        out["layers"]["frames"] = sum(len(v) for v in traced.values())
        tracer.dump(trace_path)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SCENARIOS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args()
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size,
              args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
