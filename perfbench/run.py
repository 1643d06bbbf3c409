"""hmot benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload dense-3d --seed 1 --seconds 30 --trace 0

Run from a checkout holding ``src/hmot``; nothing needs installing. Every
workload runs in fresh single-threaded child processes, builds its inputs
with ``hmot.simulation`` from one of ``SCENES`` scene seeds chosen by
``--seed``, runs the simulate -> track -> evaluate pipeline, checks the
tracks against the reference recorded for that scene in ``reference.json``
and prints its metrics. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md in this directory for the workloads and the metric meanings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"

IN_PROCESS = ("dense-3d", "reid-2d")
WORKLOADS = IN_PROCESS + ("cli-occlusion",)
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
# ``--seed`` picks scene seed ``seed % SCENES[size]``; reference.json holds
# the outputs of scene seeds 0 .. SCENES[size] - 1, so every run is checked.
SCENES = {"full": 20, "tiny": 1}
CHILD_TIMEOUT_S = 170.0
SETUP_ARGS = {"dense-3d": ["3d"], "reid-2d": ["2d", "front"]}

class ChildFailed(Exception):
    """A child process exited non-zero or ran past its deadline."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(cmd: list[str], cwd: Path, tag: str) -> tuple[float, float, str]:
    """Run a child to completion. Returns its wall time from just before the
    spawn, its peak RSS in MB and its standard output. Raises ChildFailed."""
    out_path, err_path = cwd / f"{tag}.out", cwd / f"{tag}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = err_path.read_text(errors="replace")[-2000:]
        raise ChildFailed(f"{' '.join(cmd[:4])} ... exited {proc.returncode}:\n{tail}")
    return wall, usage.ru_maxrss / 1024.0, out_path.read_text()


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def step_metrics(steps: list[float]) -> tuple[dict, dict]:
    """fps, median and p90 latency of the scaled step times. Returns the
    metrics and the sample counts."""
    p90 = percentile(steps, 90)
    return ({"fps": len(steps) / sum(steps),
             "step_p50_ms": statistics.median(steps) * 1e3,
             "step_p90_ms": p90 * 1e3},
            {"timed_frames": len(steps), "frames_beyond_p90": sum(1 for s in steps if s > p90)})


def scale_times(layers: dict, speed: float) -> dict:
    """Per-layer times (``*_us``, ``*_s``) scaled like the end-to-end ones."""
    return {k: v * speed if k.endswith(("_us", "_s")) else v for k, v in layers.items()}


# ---------------------------------------------------------------------------
# Per-layer metrics from span aggregates

# metric: (span, field), divided by frames; *_us metrics are in microseconds.
PER_FRAME_SPANS = {
    "tracker.step_us": ("tracker.step", "total_s"),
    "tracker.step_self_us": ("tracker.step", "self_s"),
    "tracker.stage1_us": ("tracker.stage1", "total_s"),
    "tracker.stage2_us": ("tracker.stage2", "total_s"),
    "tracker.stage3_us": ("tracker.stage3", "total_s"),
    "kalman.predict_us": ("kalman.predict", "total_s"),
    "kalman.update_us": ("kalman.update", "total_s"),
    "kalman.init_us": ("kalman.init", "total_s"),
    "kalman.predict_calls": ("kalman.predict", "calls"),
    "kalman.update_calls": ("kalman.update", "calls"),
    "kalman.init_calls": ("kalman.init", "calls"),
    "metrics.cosine_us": ("metrics.cosine", "total_s"),
    "metrics.gauss_us": ("metrics.gauss", "total_s"),
    "metrics.iou_us": ("metrics.iou", "total_s"),
    "assignment.solve_us": ("assignment.solve", "total_s"),
    "assignment.calls": ("assignment.solve", "calls"),
}
# metric: (counter, span whose wrapper counts it), divided by frames.
PER_FRAME_COUNTS = {
    "metrics.cosine_cells": ("metrics.cosine_cells", "metrics.cosine"),
    "metrics.cosine_gallery_rows": ("metrics.cosine_gallery_rows", "metrics.cosine"),
    "metrics.gauss_cells": ("metrics.gauss_cells", "metrics.gauss"),
    "metrics.iou_cells": ("metrics.iou_cells", "metrics.iou"),
    "assignment.cells": ("assignment.cells", "assignment.solve"),
    "tracker.stage1_matches": ("tracker.stage1_matches", "tracker.step"),
    "tracker.stage2_matches": ("tracker.stage2_matches", "tracker.step"),
    "tracker.stage3_matches": ("tracker.stage3_matches", "tracker.step"),
    "tracker.births": ("tracker.births", "tracker.step"),
    "tracker.deaths": ("tracker.deaths", "tracker.step"),
    "tracker.live_tracks": ("tracker.live_tracks", "tracker.step"),
}
# metric: (numerator counter, denominator counter, span).
RATIOS = {
    "assignment.admissible_frac": ("assignment.admissible", "assignment.cells",
                                   "assignment.solve"),
    "assignment.match_frac": ("assignment.matches", "assignment.matchable",
                              "assignment.solve"),
}
# metric: (command, span) for the CLI workload, seconds per command.
PER_COMMAND_SPANS = {
    "simulation.generate_s": ("simulate", "simulation.generate"),
    "io.write_detections_s": ("simulate", "io.write_detections"),
    "io.read_detections_s": ("track", "io.read_detections"),
    "io.write_tracks_s": ("track", "io.write_tracks"),
    "cli.track_step_s": ("track", "tracker.step"),
    "io.read_tracks_s": ("eval", "io.read_tracks"),
    "evaluation.evaluate_s": ("eval", "evaluation.evaluate"),
}
IMPORT_METRICS = {"import.hmot_s": "hmot", "import.scipy_optimize_s": "scipy.optimize",
                  "import.scipy_stats_s": "scipy.stats"}
CLI_ONLY = ("io.write_detections_s", "io.read_detections_s", "io.write_tracks_s",
            "cli.track_step_s", "io.read_tracks_s", "io.qfloat_calls", "io.dets_bytes")


def tracker_layers(agg: dict, frames: int) -> dict:
    """Per-frame layer metrics of the tracker; a metric whose span could not
    be installed is left out."""
    spans, counts, missing = agg["spans"], agg["counts"], set(agg["missing"])
    out: dict[str, float] = {}
    for metric, (span, field) in PER_FRAME_SPANS.items():
        if span not in missing:
            value = spans.get(span, {}).get(field, 0) / frames
            out[metric] = value * 1e6 if metric.endswith("_us") else value
    for metric, (key, span) in PER_FRAME_COUNTS.items():
        if span not in missing and f"{span} counter" not in missing:
            out[metric] = counts.get(key, 0) / frames
    for metric, (num, den, span) in RATIOS.items():
        if span not in missing and f"{span} counter" not in missing:
            out[metric] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
    if "tracker.step" not in missing and counts.get("tracker.state_samples"):
        out["tracker.state_mb"] = (counts["tracker.state_bytes"]
                                   / counts["tracker.state_samples"] / 2**20)
    return out


def import_split(workdir: Path) -> dict:
    """Cumulative import times from ``python -X importtime -c 'import hmot'``,
    median over a few cold interpreters. A module not imported costs 0."""
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_METRICS}
    for i in range(IMPORT_SAMPLES):
        spawn([sys.executable, "-X", "importtime", "-c", "import hmot"], workdir,
              f"importtime{i}")
        cumulative: dict[str, float] = {}
        for line in (workdir / f"importtime{i}.err").read_text().splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) / 1e6
        for metric, module in IMPORT_METRICS.items():
            samples[metric].append(cumulative.get(module, 0.0))
    return {m: statistics.median(v) for m, v in samples.items()}


# ---------------------------------------------------------------------------
# Workloads


def run_in_process(workload: str, seed: int, seconds: float, trace: bool, size: str,
                   workdir: Path) -> dict:
    setup_s: list[float] = []

    def setup_sample(i: int) -> None:
        t0 = time.monotonic()
        _, _, stdout = spawn([sys.executable, str(BENCH / "setup_child.py"),
                              *SETUP_ARGS[workload]], workdir, f"setup{i}")
        probe = json.loads(stdout)
        setup_s.append((probe["ready"] - t0) * probe["factor"])

    cmd = [sys.executable, str(BENCH / "inproc.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
           "--size", size, "--trace-out", str(workdir / "spans.json")]
    # One set-up sample before the run and the rest after it, so that they
    # fall in different stretches of machine load.
    setups = 0 if trace else SETUP_SAMPLES if size == "full" else 1
    if setups:
        setup_sample(0)
    _, rss_mb, stdout = spawn(cmd, workdir, "inproc")
    for i in range(1, setups):
        setup_sample(i)
    child = json.loads(stdout.strip().splitlines()[-1])
    steps = child.pop("step_s")
    step, counts = step_metrics(steps)
    result = {
        "attempted": child["frames_stepped"],
        "outputs": {k: child[k] for k in ("digest", "mota", "mismatch")},
        "repeat_ok": child["repeat_ok"],
        "env": child["env"],
        "detail": {k: child[k] for k in ("frames_stepped", "passes", "frames_per_pass",
                                         "warmup_frames", "speed")},
        "metrics": {
            "setup_s": statistics.median(setup_s) if setup_s else None,
            **step,
            "mota": child["mota"],
            "simulate_s": statistics.median(child["simulate_s"]),
            "track_s": (statistics.median(child["build_s"])
                        + sum(statistics.median(f) for f in child["frame_s"])),
            "eval_s": statistics.median(child["eval_s"]),
            "peak_rss_mb": rss_mb,
        },
    }
    result["detail"].update(counts)
    if trace:
        layers = child["layers"]
        spans = layers["spans"]
        # The file and command layers are never called in process.
        per_layer = {m: 0.0 for m in CLI_ONLY}
        per_layer.update(tracker_layers(layers, layers["frames"]))
        for metric, span in (("simulation.generate_s", "simulation.generate"),
                             ("evaluation.evaluate_s", "evaluation.evaluate")):
            per_layer[metric] = spans[span]["total_s"] / spans[span]["calls"]
        per_layer["trace.overhead_pct"] = (child["untraced_fps"] / child["traced_fps"]
                                           - 1.0) * 100.0
        per_layer.update(import_split(workdir))
        result["layers"] = scale_times(per_layer, child["speed"])
        result["missing"] = layers["missing"]
        result["detail"].update(traced_fps=child["traced_fps"],
                                untraced_fps=child["untraced_fps"])
    return result


def hmot_command(args: list[str], workdir: Path, tag: str, mode: str = "step") -> dict:
    """One cold ``hmot`` command through the probe in ``mode`` (see
    hmot_child.py); returns the probe's report with the command's wall
    time scaled to the reference speed, its peak RSS and stdout."""
    report = workdir / f"{tag}.json"
    wall, rss_mb, stdout = spawn(
        [sys.executable, str(BENCH / "hmot_child.py"), str(report), mode, *args],
        workdir, tag)
    probe = json.loads(report.read_text())
    return {**probe, "wall_s": (wall - probe["kernel_s"]) * probe["factor"],
            "rss_mb": rss_mb, "stdout": stdout}


def run_cli(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Rounds of cold ``hmot --help``, ``simulate``, ``track`` and ``eval``
    on the occlusion preset until the run time is used up. Traced rounds
    add a traced ``track`` next to the untraced one, and the first of them
    a ``simulate`` that only counts ``qfloat`` calls."""
    sim = ["simulate", "--preset", "occlusion", "--seed", str(seed),
           "--out-gt", "gt.csv", "--out-dets", "dets.ndjson"]
    track = ["track", "--mode", "2d", "--dets", "dets.ndjson", "--out", "tracks.csv"]
    evaluate = ["eval", "--mode", "2d", "--gt", "gt.csv", "--hyp", "tracks.csv"]
    traced = "trace" if trace else "step"
    rounds: list[dict] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        r: dict = {}
        if trace and not rounds:
            r["simulate_counted"] = hmot_command(sim, workdir, "simulate_counted", "count")
        r["help"] = hmot_command(["--help"], workdir, "help")
        r["simulate"] = hmot_command(sim, workdir, "simulate", traced)
        r["track"] = hmot_command(track, workdir, "track")
        if trace:
            r["track_traced"] = hmot_command(track, workdir, "track_traced", "trace")
        r["eval"] = hmot_command(evaluate, workdir, "eval", traced)
        r["commands"] = len(r)
        r["digest"] = hashlib.sha256((workdir / "tracks.csv").read_bytes()).hexdigest()
        r["dets_bytes"] = (workdir / "dets.ndjson").stat().st_size
        overall = [line for line in r["eval"]["stdout"].splitlines()
                   if line.startswith("overall,")][-1].split(",")
        r["mota"], r["mismatch"] = float(overall[5]), int(overall[4])
        rounds.append(r)

    def med(cmd: str, key: str = "wall_s") -> float:
        return statistics.median(r[cmd][key] for r in rounds)

    steps = [s for r in rounds for s in r["track"]["step_s"]]
    step, counts = step_metrics(steps)
    first = rounds[0]
    result = {
        "attempted": sum(r["commands"] for r in rounds),
        "outputs": {"digest": first["digest"], "mota": first["mota"],
                    "mismatch": first["mismatch"]},
        "repeat_ok": all(r["digest"] == first["digest"] for r in rounds),
        "env": first["simulate"]["env"],
        "detail": {"rounds": len(rounds), **counts,
                   "speed": statistics.median(r[c]["factor"] for r in rounds
                                              for c in ("help", "simulate", "track", "eval"))},
        "metrics": {
            "setup_s": med("help"),
            **step,
            "mota": first["mota"],
            "simulate_s": med("simulate"),
            "track_s": med("track"),
            "eval_s": med("eval"),
            "peak_rss_mb": med("track", "rss_mb"),
        },
    }
    if trace:
        import instrument

        aggs = {cmd: instrument.merge_aggregates([r[key]["layers"] for r in rounds])
                for cmd, key in (("simulate", "simulate"), ("track", "track_traced"),
                                 ("eval", "eval"))}
        per_layer = tracker_layers(aggs["track"], len(steps))
        missing = sorted({m for a in aggs.values() for m in a["missing"]})
        for metric, (cmd, span) in PER_COMMAND_SPANS.items():
            if span not in missing:
                row = aggs[cmd]["spans"].get(span, {"total_s": 0.0})
                per_layer[metric] = row["total_s"] / len(rounds)
        counted = first["simulate_counted"]["layers"]
        missing = sorted(set(missing) | set(counted["missing"]))
        if "io.qfloat_calls" not in missing:
            per_layer["io.qfloat_calls"] = float(counted["counts"].get("io.qfloat_calls", 0))
        per_layer["io.dets_bytes"] = float(first["dets_bytes"])
        per_layer["trace.overhead_pct"] = (med("track_traced") / med("track") - 1.0) * 100.0
        per_layer.update(import_split(workdir))
        result["layers"] = scale_times(per_layer, result["detail"]["speed"])
        result["missing"] = missing
        result["detail"].update(traced_track_s=med("track_traced"),
                                untraced_track_s=med("track"))
    return result


# ---------------------------------------------------------------------------
# Checking and reporting


def judge(workload: str, seed: int, size: str, result: dict) -> tuple[bool, str]:
    """Outputs must repeat within the run and match the reference recorded
    for this scene seed."""
    if not result["repeat_ok"]:
        return False, "outputs differ between repetitions of the same input"
    out = result["outputs"]
    reference = json.loads(REFERENCE.read_text()).get(size, {}).get(workload, {})
    expected = reference.get(str(seed))
    if expected is None:
        return False, f"no reference recorded for scene seed {seed}"
    for key in ("digest", "mota", "mismatch"):
        if out[key] != expected[key]:
            return False, f"{key} {out[key]!r} != reference {expected[key]!r}"
    return True, "matches reference"


def environment(result: dict) -> dict:
    env = dict(result["env"])
    files = sorted((SRC / "hmot").rglob("*.py"))
    env["src_hmot_lines"] = sum(len(p.read_text().splitlines()) for p in files)
    digest = hashlib.sha256()
    for p in files:
        digest.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    env["src_hmot_sha256"] = digest.hexdigest()
    env["git_commit"] = None
    if (ROOT / ".git").exists():
        try:
            env["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return env


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Run one workload on scene seed ``seed`` and return its result,
    verdict included."""
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if workload in IN_PROCESS:
            result = run_in_process(workload, seed, seconds, trace, size, workdir)
        else:
            result = run_cli(seed, seconds, trace, workdir)
    except ChildFailed as exc:
        return {"correct": False, "attempted": 1, "failed": 1, "error": str(exc)}
    if Path(result["env"]["hmot"]).resolve() != (SRC / "hmot").resolve():
        return {"correct": False, "attempted": 1, "failed": 1,
                "error": f"hmot was imported from {result['env']['hmot']}, not {SRC}"}
    correct, why = judge(workload, seed, size, result)
    result.update(correct=correct, verdict=why,
                  failed=0 if correct else result["attempted"])
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke run for the tests")
    args = parser.parse_args(argv)
    if not (SRC / "hmot" / "__init__.py").is_file():
        print(f"error: no hmot sources at {SRC / 'hmot'}", file=sys.stderr)
        return 2

    scene = args.seed % SCENES[args.size]
    result = measure(args.workload, scene, args.seconds, bool(args.trace), args.size)
    if "error" in result:
        print(result["error"], file=sys.stderr)
        metrics = {}
    else:
        print(f"{args.workload} seed {args.seed} (scene {scene}): {result['verdict']}")
        print(json.dumps({"detail": result["detail"], "environment": environment(result),
                          "missing": result.get("missing", [])}))
        values = result["layers"] if args.trace else result["metrics"]
        declared = json.loads(BENCHMARK.read_text())["per_layer" if args.trace else "end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in declared if values.get(m["name"]) is not None}
        for name, m in metrics.items():
            print(f"  {name:<30} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
