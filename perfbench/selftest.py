"""Self-test of the benchmark: pins, determinism, error counting, tracing.

Usage: python3 perfbench/selftest.py   (a few minutes; exits 1 on a failure)

1. oracle: every pinned item with fewer than 100 elements (all of them
   stabilize-poly items; extend-zn rings have 900 or more) is re-derived with
   the brute-force referees in tests/oracles.py (imported, not modified):
   vertices, the level 1..bound+1 edge sets, the bound (first exponent where
   the chain x^m R + J stops descending, maximized over vertices) and the
   sharp index (first level whose edges equal the bound's).
2. determinism: two verify-grid runs give the same report sha256, and a
   shuffled seed gives the same entry for every instance.
3. error count: a corrupted pin makes the run's failure count non-zero.
4. trace: the traced self times plus other.s add up to the traced wall time,
   and removing the tracer restores every binding it replaced.
"""

from __future__ import annotations

import copy
import sys
import time

import run
import tracing
import workloads

sys.path[:0] = [str(run.SRC), str(run.ROOT / "tests")]

import oracles  # noqa: E402
from ringgraphs.rings import build_ring, parse_elements  # noqa: E402

DEADLINE = time.monotonic() + 3600
FAILED: list[str] = []


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}", flush=True)
    if not ok:
        FAILED.append(name)


def chain_bound(ring, j_members, verts) -> int:
    bound = 1
    for x in verts:
        m = 1
        cur = oracles.coset_set(ring, j_members, ring.pow(x, 1))
        while True:
            nxt = oracles.coset_set(ring, j_members, ring.pow(x, m + 1))
            if nxt == cur:
                break
            cur, m = nxt, m + 1
        bound = max(bound, m)
    return bound


def check_oracles(pins: dict) -> None:
    for ring_name, ideal in workloads.all_items(workloads.STABILIZE_POLY):
        ring = build_ring(ring_name)
        if ring.size >= 100:
            continue
        key = workloads.item_key(workloads.STABILIZE_POLY, (ring_name, ideal))
        pin = pins[workloads.STABILIZE_POLY][key]
        j_members = oracles.closure_span(ring, parse_elements(ring, ideal))
        verts = oracles.naive_vertices(ring, j_members, "cozero")
        bound = chain_bound(ring, j_members, verts)
        edges = [oracles.naive_edges(ring, j_members, i, "cozero") for i in range(1, bound + 2)]
        sharp = next(i for i in range(1, bound + 1) if edges[i - 1] == edges[bound - 1])
        derived = {"bound": bound, "sharp": sharp, "vertices": len(verts),
                   "edges": len(edges[bound - 1])}
        stable = edges[bound] == edges[bound - 1]
        report(f"oracle {key}", derived == pin and stable,
               f"derived {derived}, pinned {pin}, level bound+1 equal: {stable}")


def check_determinism(pins: dict) -> dict:
    spec0 = workloads.select(workloads.VERIFY_GRID, 0)
    first = run.run_child("plain", workloads.VERIFY_GRID, spec0, DEADLINE)
    second = run.run_child("plain", workloads.VERIFY_GRID, spec0, DEADLINE)
    report("determinism: two seed-0 verify-grid runs give one report sha256",
           first["report_sha256"] == second["report_sha256"] == pins[workloads.VERIFY_GRID]["report_sha256"],
           f"{first['report_sha256'][:16]} / {second['report_sha256'][:16]}")
    shuffled = run.run_child("plain", workloads.VERIFY_GRID, workloads.select(workloads.VERIFY_GRID, 7), DEADLINE)
    differing = [k for k in first["outputs"] if shuffled["outputs"].get(k) != first["outputs"][k]]
    report("determinism: seed 7 gives seed 0's entry for every instance",
           not differing and len(shuffled["outputs"]) == len(first["outputs"]),
           f"{len(differing)} of {len(first['outputs'])} instances differ")
    return first


def check_error_count(pins: dict, grid_run: dict) -> None:
    attempted, failed, _ = workloads.check(workloads.VERIFY_GRID, grid_run, pins)
    report("error count: true pins give no failure", failed == 0, f"{failed}/{attempted}")
    bad = copy.deepcopy(pins)
    key = next(iter(bad[workloads.VERIFY_GRID]["instances"]))
    bad[workloads.VERIFY_GRID]["instances"][key] = "REFUTED:0000000000000000"
    attempted, failed, msgs = workloads.check(workloads.VERIFY_GRID, grid_run, bad)
    report("error count: one corrupted verify-grid pin gives error_rate > 0",
           failed == 1, f"{failed}/{attempted}: {msgs[:1]}")
    spec = workloads.select(workloads.STABILIZE_POLY, 0)
    poly = run.run_child("plain", workloads.STABILIZE_POLY, spec, DEADLINE)
    key = workloads.item_key(workloads.STABILIZE_POLY, spec["items"][0])
    bad[workloads.STABILIZE_POLY][key]["sharp"] += 1
    attempted, failed, msgs = workloads.check(workloads.STABILIZE_POLY, poly, bad)
    report("error count: one corrupted stabilize-poly pin gives error_rate > 0",
           failed == 1, f"{failed}/{attempted}: {msgs[:1]}")


def check_trace() -> None:
    spec = workloads.select(workloads.STABILIZE_POLY, 0)
    layers = run.run_child("trace", workloads.STABILIZE_POLY, spec, DEADLINE)["layers"]
    self_total = sum(v for k, v in layers.items() if k.endswith(".s"))
    report("trace: self times + other.s == traced wall",
           abs(self_total - layers["trace.wall_s"]) < 1e-6,
           f"{self_total:.6f} vs {layers['trace.wall_s']:.6f}")
    missing = set(tracing.LAYER_METRICS) - set(layers) - {"trace.overhead_s", "rings.mul.calls",
                                                          "rings.add.calls", "rings.pow.calls"}
    report("trace: every traced layer metric is reported", not missing, str(sorted(missing)))

    import ringgraphs  # noqa: F401  (loads every module the tracer patches)
    from ringgraphs import graphs, rings

    def bindings():
        mods = tracing._package_modules()
        out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
        classes = [graphs.LevelContext, rings.Ring, *rings.Ring.__subclasses__()]
        out.update({(c.__name__, k): v for c in classes for k, v in vars(c).items()})
        return out

    before = bindings()
    for probe in (tracing.Tracer(), tracing.OpCounter()):
        probe.install()
        changed = sum(before[k] is not v for k, v in bindings().items() if k in before)
        probe.restore()
        after = bindings()
        report(f"trace: {type(probe).__name__} replaces {changed} bindings and restores them all",
               changed > 0 and all(after[k] is before[k] for k in before))


def main() -> int:
    pins = workloads.load_pins()
    check_oracles(pins)
    grid_run = check_determinism(pins)
    check_error_count(pins, grid_run)
    check_trace()
    print("selftest:", "FAILED " + ", ".join(FAILED) if FAILED else "all checks passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
