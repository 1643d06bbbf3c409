"""Smoke tests of the benchmark itself, at tiny size (about a minute).

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import calibrate
import instrument
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 0
sys.path.insert(0, str(run.SRC))


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=run.WORKLOADS)
def untraced(request):
    return request.param, bench(request.param, 0)


@pytest.fixture(scope="module")
def traced():
    return {w: bench(w, 1) for w in run.WORKLOADS}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_every_end_to_end_metric_is_emitted(untraced):
    workload, result = untraced
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values()), workload


def test_every_per_layer_metric_is_emitted(traced):
    expected = {m["name"] for m in BENCHMARK["per_layer"]}
    for workload, result in traced.items():
        assert result["correct"] and result["failed"] == 0, workload
        assert set(result["metrics"]) == expected, workload


def test_every_scene_seed_has_a_reference():
    reference = json.loads(run.REFERENCE.read_text())
    for size, scenes in run.SCENES.items():
        for workload in run.WORKLOADS:
            assert set(reference[size][workload]) == {str(s) for s in range(scenes)}


def test_traced_split_confirms_layer_roles(traced):
    dense = {k: v["value"] for k, v in traced["dense-3d"]["metrics"].items()}
    kalman = dense["kalman.predict_us"] + dense["kalman.update_us"] + dense["kalman.init_us"]
    assert kalman > 0.5 * dense["tracker.step_us"]
    assert dense["metrics.cosine_us"] == 0 and dense["metrics.cosine_cells"] == 0

    reid = {k: v["value"] for k, v in traced["reid-2d"]["metrics"].items()}
    others = {
        "kalman": reid["kalman.predict_us"] + reid["kalman.update_us"] + reid["kalman.init_us"],
        "iou": reid["metrics.iou_us"],
        "gauss": reid["metrics.gauss_us"],
        "assignment": reid["assignment.solve_us"],
        "step self": reid["tracker.step_self_us"],
    }
    assert all(reid["metrics.cosine_us"] > v for v in others.values()), others

    cli = {k: v["value"] for k, v in traced["cli-occlusion"]["metrics"].items()}
    assert cli["import.hmot_s"] > cli["io.read_tracks_s"] + cli["evaluation.evaluate_s"]
    assert cli["io.qfloat_calls"] > 0 and cli["io.dets_bytes"] > 0


def test_perturbed_digest_counts_run_as_failed(tmp_path, monkeypatch):
    reference = json.loads(run.REFERENCE.read_text())
    entry = reference["tiny"]["dense-3d"][str(SEED)]
    entry["digest"] = ("0" if entry["digest"][0] != "0" else "1") + entry["digest"][1:]
    perturbed = tmp_path / "reference.json"
    perturbed.write_text(json.dumps(reference))
    monkeypatch.setattr(run, "REFERENCE", perturbed)
    result = run.measure("dense-3d", SEED, 0, False, "tiny")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert "digest" in result["verdict"]


def test_sampler_takes_its_kernels_out_of_the_span():
    t0, net0 = time.perf_counter(), calibrate.net_clock()
    with calibrate.Sampler() as sampler:
        while time.perf_counter() - t0 < 0.3:
            pass
        net1 = calibrate.net_clock()
    wall, net = time.perf_counter() - t0, net1 - net0
    assert len(sampler.kernels) >= 4
    assert net == pytest.approx(wall - sampler.spent, abs=2e-3)
    assert sampler.scale(net0, net1) == pytest.approx(net * sampler.factor())
    # A short span between two ticks is scaled by those two alone.
    mid = (sampler.at[1] + sampler.at[2]) / 2
    factors = [calibrate.REFERENCE_S / k for k in sampler.kernels[1:3]]
    assert sampler.scale(mid, mid + 1e-4) == pytest.approx(1e-4 * sum(factors) / 2)


def test_clock_scales_samples_by_the_kernels_around_them():
    clock = calibrate.Clock()
    samples: list[float] = []
    clock.record(samples, 1.0)
    before = clock.last
    clock.calibrate()
    assert samples == [pytest.approx(calibrate.REFERENCE_S / ((before + clock.last) / 2))]


def test_missing_layer_is_reported_not_fatal():
    tracer = instrument.Tracer()
    tracer.install((("hmot.tracker", "no_such_stage", "tracker.stage9", None),
                    ("hmot.tracker", "predict", "kalman.predict", None)))
    try:
        assert tracer.missing == ["tracker.stage9"]
    finally:
        tracer.uninstall()
    agg = {"spans": {}, "counts": {}, "missing": ["kalman.predict"]}
    layers = run.tracker_layers(agg, frames=1)
    assert "kalman.predict_us" not in layers and "kalman.update_us" in layers


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "dense-3d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".perfbench_work").exists()
