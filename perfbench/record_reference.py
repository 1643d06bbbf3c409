"""Record the reference outputs that ``run.py`` checks each run against.

    python3 perfbench/record_reference.py --size full --seeds 0-19

For every workload and scene seed it runs the shortest run the workload
allows and stores the digest of the emitted tracks, the overall MOTA and
the mismatch count in ``reference.json``, keeping entries for other seeds.
``run.py`` maps every ``--seed`` onto one of ``run.SCENES[size]`` scene
seeds, 0 upwards, so record all of them.
Record only from a commit whose tracker output is known to be right: every
later run of these seeds must reproduce the stored values exactly.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="a seed or a range such as 0-19")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    reference = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    for workload in run.WORKLOADS:
        for seed in parse_seeds(args.seeds):
            result = run.measure(workload, seed, 0, False, args.size)
            if "error" in result or not result["repeat_ok"]:
                print(f"{workload} seed {seed}: not recorded "
                      f"({result.get('error', 'outputs did not repeat')})", file=sys.stderr)
                return 1
            entry = reference.setdefault(args.size, {}).setdefault(workload, {})
            entry[str(seed)] = result["outputs"]
            print(f"{workload} seed {seed}: {result['outputs']}", flush=True)
            run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
