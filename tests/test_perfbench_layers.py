"""The benchmark's tracer wraps module-level names of ``hmot`` (see
``perfbench/instrument.py``). These tests load the tracer by path, so a
refactor that renames or drops a traced name fails here instead of leaving
the benchmark to report that layer as missing."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from hmot import TrackerInstance, generate
from hmot.types import Mode

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def test_every_traced_name_resolves():
    instrument = _load("instrument")
    tracer = instrument.Tracer()
    try:
        for layers in (instrument.TRACKER_LAYERS, instrument.STEP_ONLY, instrument.CLI_LAYERS):
            tracer.install(layers)
        tracer.install_counters()
    finally:
        tracer.uninstall()
    assert tracer.missing == []


def test_every_tracker_layer_records_a_span():
    """Small dense-3d and reid-2d scenes reach every traced tracker layer."""
    instrument, workloads = _load("instrument"), _load("workloads")
    tracer = instrument.Tracer()
    scenes = [generate(spec) + (spec,) for spec in (workloads.dense_3d(3, 20, 0.3),
                                                    workloads.reid_2d(3, 60, 0.3))]
    tracer.install(instrument.TRACKER_LAYERS)
    try:
        for _, det_frames, spec in scenes:
            tracker = TrackerInstance(spec.mode,
                                      camera_id=spec.camera if spec.mode is Mode.D2 else None)
            for dets in det_frames:
                tracker.step(dets)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert set(tracer.names) == {name for _, _, name, _ in instrument.TRACKER_LAYERS}
