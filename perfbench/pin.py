"""Regenerate pins.json from the current program, for every pool item.

Usage: python3 perfbench/pin.py

Pins are the outputs of the program at the commit that defined the
benchmark; selftest.py cross-checks the small ones against the brute-force
oracles in tests/oracles.py. Rerun this only for a change that means to
alter outputs, and say so where the change is described.
"""

import json
import time

import run
import workloads


def main() -> None:
    deadline = time.monotonic() + 3600
    pins = {}
    grid = run.run_child("plain", workloads.VERIFY_GRID, workloads.select(workloads.VERIFY_GRID, 0), deadline)
    pins[workloads.VERIFY_GRID] = {
        "report_sha256": grid["report_sha256"],
        "instances": grid["outputs"],
    }
    for workload in (workloads.EXTEND_ZN, workloads.STABILIZE_POLY):
        result = run.run_child("plain", workload, {"items": workloads.all_items(workload)}, deadline)
        if result["errors"]:
            raise SystemExit(f"{workload} raised: {result['errors']}")
        pins[workload] = result["outputs"]
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
