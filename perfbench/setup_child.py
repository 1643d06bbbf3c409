"""Set-up probe: ``import hmot`` and one ``TrackerInstance``, from cold.

Usage: ``python3 perfbench/setup_child.py MODE [CAMERA]``

Prints one JSON object: ``ready``, the ``time.monotonic`` reading once the
tracker is built, less the time of the calibration kernels that ran since
start-up, and ``factor``, the ``calibrate.Sampler`` speed factor. The
parent's set-up time is ``(ready - spawn time) * factor``.
"""

from __future__ import annotations

import json
import sys
import time

import calibrate


def main() -> int:
    mode, camera = sys.argv[1], (sys.argv[2] if len(sys.argv) > 2 else None)
    with calibrate.Sampler() as sampler:
        import hmot

        hmot.TrackerInstance(mode, camera_id=camera)
        ready = time.monotonic() - sampler.spent
    print(json.dumps({"ready": ready, "factor": sampler.factor()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
