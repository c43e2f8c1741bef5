"""The three workloads: their items, seeded selection and pin checks.

Seed 0 runs exactly the items listed first in each pool, in pool order.
Another seed shuffles the order and draws each item from its pool. A pool
holds one ring and isomorphic relabelings of it (permuted factors, renamed or
reordered variables, another irreducible modulus of the same degree), which
do the same amount of work, so a seed changes the inputs without changing
the size of the job. Z_n items have no such relabeling and pools of one.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

VERIFY_GRID = "verify-grid"
EXTEND_ZN = "extend-zn"
STABILIZE_POLY = "stabilize-poly"
WORKLOADS = (VERIFY_GRID, EXTEND_ZN, STABILIZE_POLY)

PINS_PATH = Path(__file__).with_name("pins.json")

# (ring, kind) of each build_level(R, 0, ext, kind)
EXTEND_POOLS = (
    (("Z2310", "cozero"),),
    (("Z1024", "cozero"),),
    (("Z1000", "zero"),),
    (("Z4xZ9xZ25", "cozero"), ("Z25xZ9xZ4", "cozero"), ("Z9xZ25xZ4", "cozero")),
)

# (ring, ideal generators) of each stabilization_bound / sharp index pair
STABILIZE_POOLS = (
    (("Z2[x]/(x^7)", "0"), ("Z2[t]/(t^7)", "0")),
    (("Z5[x]/(x^3)", "0"), ("Z5[u]/(u^3)", "0")),
    (("Z9[x]/(x^2)", "0"), ("Z9[t]/(t^2)", "0")),
    (("Z3[x,y]/(x^2,y^2)", "0"), ("Z3[y,x]/(y^2,x^2)", "0")),
    (("Z4[t]/(t^3+t+1)", "0"), ("Z4[t]/(t^3+t^2+1)", "0"), ("Z4[t]/(t^3+2*t^2+t+1)", "0")),
    (("Z2[x,y]/(x^2,y^3+y+1)", "0"), ("Z2[x,y]/(x^2,y^3+y^2+1)", "0"),
     ("Z2[x,y]/(x^3+x+1,y^2)", "0")),
    (("Z2[x,y]/(x^3,y^2)", "y"), ("Z2[x,y]/(x^2,y^3)", "x")),
)

POOLS = {EXTEND_ZN: EXTEND_POOLS, STABILIZE_POLY: STABILIZE_POOLS}


def select(workload: str, seed: int) -> dict:
    """The inputs one run passes to its children."""
    if workload == VERIFY_GRID:
        return {"shuffle": seed}
    pools = POOLS[workload]
    if seed == 0:
        return {"items": [list(pool[0]) for pool in pools]}
    rng = random.Random(seed)
    items = [list(rng.choice(pool)) for pool in pools]
    rng.shuffle(items)
    return {"items": items}


def all_items(workload: str) -> list[list[str]]:
    return [list(item) for pool in POOLS[workload] for item in pool]


def item_key(workload: str, item) -> str:
    ring, arg = item
    return f"{ring} {arg}" if workload == EXTEND_ZN else f"{ring} J={arg}"


def instance_key(inst) -> str:
    """Identifies a verify-grid instance independently of its position."""
    return "|".join((inst.claim, inst.ring, inst.ideal, json.dumps(dict(inst.params))))


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def check(workload: str, result: dict, pins: dict) -> tuple[int, int, list[str]]:
    """Compare one child's outputs with the pins.

    Returns the number of items attempted, the number whose output
    mismatched its pin or raised, and a message for each of those.
    """
    pinned = pins[workload]
    errors = [f"{key}: raised {msg}" for key, msg in result["errors"].items()]
    outputs = result["outputs"]
    if workload == VERIFY_GRID:
        attempted = len(pinned["instances"]) + 1  # every instance, and the report
        if errors:  # the suite itself raised, so no instance has an output
            return attempted, attempted, errors
        failures = [f"{key}: got {outputs.get(key)}, pinned {want}"
                    for key, want in pinned["instances"].items() if outputs.get(key) != want]
        if result["report_sha256"] != pinned["report_sha256"]:
            failures.append(f"report sha256 {result['report_sha256']} != pinned")
        return attempted, len(failures), failures
    failures = errors + [f"{key}: got {got}, pinned {pinned.get(key)}"
                         for key, got in outputs.items() if got != pinned.get(key)]
    return len(outputs) + len(errors), len(failures), failures
