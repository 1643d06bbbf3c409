"""Run one ``hmot`` command cold, as the console script does, with probes.

Usage: ``python3 perfbench/hmot_child.py OUT.json MODE HMOT_ARGS...``

The command runs in this fresh interpreter through ``hmot.cli.main``. MODE
is one of:

- ``step``: only ``TrackerInstance.step`` is timed (a few microseconds per
  frame);
- ``trace``: every layer in ``instrument`` is traced and the spans are
  written next to OUT.json;
- ``count``: only the calls in ``instrument.COUNTED`` are counted. Counting
  them costs a Python call each, so it runs apart from ``trace`` and adds
  nothing to the traced spans.

The whole command runs inside a ``calibrate.Sampler``, and spans are timed
with ``calibrate.net_clock``, which leaves the sampler's kernels out.
OUT.json receives the step times scaled by the kernels around each step,
the layer aggregate, the sampler's kernel time and speed factor, and the
library versions. The exit code is the command's.
"""

from __future__ import annotations

import json
import sys

import calibrate
import instrument


def main() -> int:
    out_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    instrument.set_clock(calibrate.net_clock)
    tracer = instrument.Tracer()
    code = 1
    try:
        with calibrate.Sampler() as sampler:
            import hmot.cli

            if mode == "trace":
                tracer.install(instrument.TRACKER_LAYERS + instrument.CLI_LAYERS)
                tracer.state_every = 50
            elif mode == "count":
                tracer.install_counters()
            else:
                tracer.install(instrument.STEP_ONLY)
            code = hmot.cli.main(argv)
    finally:
        # Also after ``--help``, which leaves by SystemExit.
        out = {"step_s": [sampler.scale(start, end)
                          for start, end in tracer.intervals("tracker.step")],
               "env": instrument.library_info(),
               "kernel_s": sampler.spent, "factor": sampler.factor()}
        if mode != "step":
            out["layers"] = tracer.aggregate()
        if mode == "trace":
            tracer.dump(out_path[:-len(".json")] + ".spans.json")
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
